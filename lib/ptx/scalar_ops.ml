(** Scalar operation semantics shared by the PTX reference emulator and the
    vector-machine interpreter, so that a vectorized kernel's results are
    bit-identical to the oracle's.

    Values are either 64-bit integer patterns or floats.  Integer values are
    kept {e normalized} for the type of the operation that produced them:
    zero-extended for unsigned/untyped ([.bN]/[.uN]) types and sign-extended
    for signed types.  [f32] results are rounded to single precision after
    every operation, emulating 32-bit hardware. *)

open Ast

type value = I of int64 | F of float

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(** [x] rounded to single precision and widened back: the bits of
    [Int32.float_of_bits (Int32.bits_of_float x)], in one C conversion
    each way ([vekt_f32_stubs.c]).  The emulator and the vector machine
    both round through it. *)
external round_f32 : float -> float = "vekt_round_f32_byte" "vekt_round_f32"
[@@unboxed] [@@noalloc]

(** Normalize a raw 64-bit pattern for type [ty]. *)
let norm_int ty (v : int64) : int64 =
  let bits = 8 * size_of ty in
  if ty = Pred then if Int64.equal v 0L then 0L else 1L
  else if bits >= 64 then v
  else
    let shift = 64 - bits in
    if is_signed ty then Int64.shift_right (Int64.shift_left v shift) shift
    else Int64.shift_right_logical (Int64.shift_left v shift) shift

let as_int ty = function
  | I v -> norm_int ty v
  | F f -> norm_int ty (Int64.of_float f)

let as_float ty = function
  | F f -> if ty = F32 then round_f32 f else f
  | I v -> Int64.to_float v

let of_bool b = I (if b then 1L else 0L)
let to_bool = function I 0L -> false | I _ -> true | F f -> f <> 0.0

(* Unsigned comparison on normalized (zero-extended) patterns. *)
let ucompare a b =
  let flip x = Int64.add x Int64.min_int in
  Int64.compare (flip a) (flip b)

let int_binop op ty a b =
  let a = as_int ty a and b = as_int ty b in
  let r =
    match op with
    | Add -> Int64.add a b
    | Sub -> Int64.sub a b
    | Mul_lo -> Int64.mul a b
    | Mul_hi ->
        let bits = 8 * size_of ty in
        if bits > 32 then unsupported "mul.hi on 64-bit types"
        else if is_signed ty then Int64.shift_right (Int64.mul a b) bits
        else Int64.shift_right_logical (Int64.mul a b) bits
    | Mul_wide -> assert false (* widened in [binop] before reaching here *)
    | Div ->
        if Int64.equal b 0L then 0L (* deterministic UB: PTX leaves this undefined *)
        else if is_signed ty then Int64.div a b
        else Int64.unsigned_div a b
    | Rem ->
        if Int64.equal b 0L then 0L
        else if is_signed ty then Int64.rem a b
        else Int64.unsigned_rem a b
    | Min -> if (if is_signed ty then compare a b else ucompare a b) <= 0 then a else b
    | Max -> if (if is_signed ty then compare a b else ucompare a b) >= 0 then a else b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
    | Shl ->
        let bits = 8 * size_of ty in
        let amt = Int64.to_int (norm_int U32 b) in
        if amt >= bits then 0L else Int64.shift_left a amt
    | Shr ->
        let bits = 8 * size_of ty in
        let amt = Int64.to_int (norm_int U32 b) in
        if is_signed ty then Int64.shift_right a (min amt 63)
        else if amt >= bits then 0L
        else Int64.shift_right_logical (norm_int ty a) amt
  in
  I (norm_int ty r)

let float_binop op ty a b =
  let a = as_float ty a and b = as_float ty b in
  let r =
    match op with
    | Add -> a +. b
    | Sub -> a -. b
    | Mul_lo -> a *. b
    | Div -> a /. b
    | Min -> if a <= b || Float.is_nan b then a else b
    | Max -> if a >= b || Float.is_nan b then a else b
    | _ -> unsupported "float %s" (Printer.binop_str op)
  in
  F (if ty = F32 then round_f32 r else r)

let binop op ty a b =
  if is_float ty then float_binop op ty a b
  else if ty = Pred then
    match op with
    | And -> of_bool (to_bool a && to_bool b)
    | Or -> of_bool (to_bool a || to_bool b)
    | Xor -> of_bool (to_bool a <> to_bool b)
    | _ -> unsupported "predicate %s" (Printer.binop_str op)
  else
    match op with
    | Mul_wide -> (
        (* The result lives at twice the operand width, so it must not be
           re-normalized at [ty] like every other integer op; operands of
           at most 32 bits make the int64 product exact. *)
        match widened ty with
        | Some wide -> I (norm_int wide (Int64.mul (as_int ty a) (as_int ty b)))
        | None -> unsupported "mul.wide on 64-bit types")
    | _ -> int_binop op ty a b

let unop op ty a =
  if is_float ty then
    let x = as_float ty a in
    let r =
      match op with
      | Neg -> -.x
      | Abs -> Float.abs x
      | Sqrt -> sqrt x
      | Rsqrt -> 1.0 /. sqrt x
      | Rcp -> 1.0 /. x
      | Sin -> sin x
      | Cos -> cos x
      | Ex2 -> Float.exp2 x
      | Lg2 -> Float.log2 x
      | Not -> unsupported "not on float"
    in
    F (if ty = F32 then round_f32 r else r)
  else
    let x = as_int ty a in
    match op with
    | Neg -> I (norm_int ty (Int64.neg x))
    | Not ->
        if ty = Pred then of_bool (not (to_bool a))
        else I (norm_int ty (Int64.lognot x))
    | Abs -> I (norm_int ty (Int64.abs x))
    | _ -> unsupported "%s on integer type" (Printer.unop_str op)

(** Fused/serial multiply-add: d = a*b + c.  For [f32] we round after each
    step (matching a mul+add sequence) — Ocelot's LLVM backend lowered
    [mad.f32] this way. *)
let mad ty a b c =
  if is_float ty then
    let x = as_float ty a and y = as_float ty b and z = as_float ty c in
    let p = if ty = F32 then round_f32 (x *. y) else x *. y in
    F (if ty = F32 then round_f32 (p +. z) else p +. z)
  else
    let x = as_int ty a and y = as_int ty b and z = as_int ty c in
    I (norm_int ty (Int64.add (Int64.mul x y) z))

let cmp op ty a b =
  if is_float ty then
    let x = as_float ty a and y = as_float ty b in
    match op with
    | Eq -> x = y
    | Ne -> x <> y
    | Lt -> x < y
    | Le -> x <= y
    | Gt -> x > y
    | Ge -> x >= y
  else
    let x = as_int ty a and y = as_int ty b in
    let c = if is_signed ty then compare x y else ucompare x y in
    match op with
    | Eq -> c = 0
    | Ne -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0

(** How {!float_to_int} converts to [dst]: its width in bits above bit 0,
    which marks a signed destination.  Compute it once, outside a loop. *)
let float_to_int_mode dst =
  (min 64 (8 * size_of dst) lsl 1) lor if is_signed dst then 1 else 0

(** Float→integer conversion as PTX defines it: truncate toward zero,
    then clamp to the range of the destination [mode] ({!float_to_int_mode})
    names, NaN converting to 0 ([vekt_cvt_stubs.c]).  The result is the
    destination's normalized pattern. *)
external float_to_int : (int[@untagged]) -> (float[@unboxed]) -> (int64[@unboxed])
  = "vekt_float_to_int_byte" "vekt_float_to_int"
[@@noalloc]

(** How {!int_to_float} converts from [src] to [dst]: a 64-bit unsigned
    source reads unsigned (every narrower one normalizes to a pattern
    that reads the same as signed), and an f32 destination rounds to
    single.  Compute it once, outside a loop. *)
let int_to_float_mode ~src ~dst =
  (if is_signed src || size_of src < 8 then 0 else 1) lor if dst = F32 then 2 else 0

(** Integer→float conversion as PTX's [cvt.rn] defines it: a pattern
    normalized for the source type, rounded once to the nearest
    destination value, ties to even, as [mode] ({!int_to_float_mode})
    says ([vekt_cvt_stubs.c]). *)
external int_to_float : (int[@untagged]) -> (int64[@unboxed]) -> (float[@unboxed])
  = "vekt_int_to_float_byte" "vekt_int_to_float"
[@@noalloc]

(** Type conversion.  Int→float rounds once to the nearest ({!int_to_float});
    float→int truncates toward zero (PTX [.rzi] default in the kernels we
    accept) and saturates ({!float_to_int}); int width changes normalize
    per the destination type after extending per the source type's
    signedness. *)
let cvt ~dst ~src v =
  match (is_float dst, is_float src) with
  | true, true -> F (as_float dst (F (as_float src v)))
  | true, false -> F (int_to_float (int_to_float_mode ~src ~dst) (as_int src v))
  | false, true -> I (norm_int dst (float_to_int (float_to_int_mode dst) (as_float src v)))
  | false, false -> I (norm_int dst (as_int src v))

let atom op ty old v extra =
  match op with
  | Atom_add -> binop Add ty old v
  | Atom_min -> binop Min ty old v
  | Atom_max -> binop Max ty old v
  | Atom_exch -> if is_float ty then F (as_float ty v) else I (as_int ty v)
  | Atom_cas -> (
      match extra with
      | None -> unsupported "cas without comparand"
      | Some c -> if cmp Eq ty old v then c else old)

(** Bit-pattern (de)serialization for memory accesses. *)
let to_bits ty v : int64 =
  if is_float ty then
    match size_of ty with
    | 4 -> Int64.of_int32 (Int32.bits_of_float (as_float ty v))
    | _ -> Int64.bits_of_float (as_float ty v)
  else norm_int ty (as_int ty v)

let of_bits ty (bits : int64) : value =
  if is_float ty then
    match size_of ty with
    | 4 -> F (Int32.float_of_bits (Int64.to_int32 bits))
    | _ -> F (Int64.float_of_bits bits)
  else I (norm_int ty bits)

(** Structural equality usable in tests; NaNs compare equal to themselves. *)
let equal_value ty a b =
  if is_float ty then
    let x = as_float ty a and y = as_float ty b in
    (Float.is_nan x && Float.is_nan y) || x = y
  else Int64.equal (as_int ty a) (as_int ty b)

let pp_value fmt = function
  | I v -> Fmt.pf fmt "%Ld" v
  | F f -> Fmt.pf fmt "%h" f
