/* Rounding to single precision: x converted to the nearest float (ties
 * to even, NaN quieted with its payload truncated) and widened back to
 * double.  The unboxed entry is what native code calls; it neither
 * allocates nor raises (see Scalar_ops.round_f32). */

#include <caml/alloc.h>
#include <caml/mlvalues.h>

double vekt_round_f32(double x)
{
  return (double)(float)x;
}

CAMLprim value vekt_round_f32_byte(value x)
{
  return caml_copy_double(vekt_round_f32(Double_val(x)));
}
