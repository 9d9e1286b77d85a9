/* Integer to float conversion with one rounding (to nearest, ties to
 * even): a 64-bit pattern read as signed or unsigned, converted straight
 * to float or double and widened to double.  Converting through double
 * first would round a 64-bit source twice on its way to float.  [mode]
 * bit 0 reads the pattern unsigned, bit 1 rounds to float.  The unboxed
 * entry is what native code calls; it neither allocates nor raises (see
 * Scalar_ops.int_to_float). */

#include <stdint.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

double vekt_int_to_float(intnat mode, int64_t x)
{
  switch (mode & 3) {
  case 0: return (double)x;
  case 1: return (double)(uint64_t)x;
  case 2: return (double)(float)x;
  default: return (double)(float)(uint64_t)x;
  }
}

CAMLprim value vekt_int_to_float_byte(value mode, value x)
{
  return caml_copy_double(vekt_int_to_float(Long_val(mode), Int64_val(x)));
}
