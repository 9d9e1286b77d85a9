/* Conversions between integers and floats, as PTX's cvt defines them.
 * The unboxed entries are what native code calls; they neither allocate
 * nor raise (see Scalar_ops.int_to_float and Scalar_ops.float_to_int).
 *
 * Integer to float converts with one rounding (to nearest, ties to
 * even): a 64-bit pattern read as signed or unsigned, converted straight
 * to float or double and widened to double.  Converting through double
 * first would round a 64-bit source twice on its way to float.  [mode]
 * bit 0 reads the pattern unsigned, bit 1 rounds to float. */

#include <math.h>
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

/* Float to integer truncates toward zero and saturates to the
 * destination's range, NaN converting to 0; the result is the
 * destination's normalized pattern (sign- or zero-extended).  [mode]
 * bit 0 marks a signed destination, the bits above it hold its width in
 * bits (8 to 64).  Every cast below is of a value in range. */
int64_t vekt_float_to_int(intnat mode, double x)
{
  int bits = (int)(mode >> 1);
  double t = trunc(x);
  if (isnan(t)) return 0;
  if (mode & 1) {
    double hi = ldexp(1.0, bits - 1);
    if (t >= hi) return (int64_t)(((uint64_t)1 << (bits - 1)) - 1);
    if (t < -hi) return (int64_t)(UINT64_MAX << (bits - 1));
    return (int64_t)t;
  }
  if (t <= 0.0) return 0;
  if (t >= ldexp(1.0, bits)) return (int64_t)(UINT64_MAX >> (64 - bits));
  return (int64_t)(uint64_t)t;
}

CAMLprim value vekt_float_to_int_byte(value mode, value x)
{
  return caml_copy_int64(vekt_float_to_int(Long_val(mode), Double_val(x)));
}
