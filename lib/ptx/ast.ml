(** Abstract syntax for the PTX subset accepted by vekt.

    The subset mirrors the instructions exercised by the CUDA SDK / Parboil
    kernels the paper evaluates: integer and floating-point arithmetic,
    transcendental approximations, typed loads/stores to explicit address
    spaces, predicate-setting comparisons, conditional selects, guarded
    branches, CTA-wide barriers, shared-memory atomics, and [.func] device
    functions (eliminated by exhaustive inlining).  Textures and true
    function calls are outside the subset (the paper defers or omits them
    as well). *)

type dtype =
  | Pred
  | B8
  | B16
  | B32
  | B64
  | U8
  | U16
  | U32
  | U64
  | S8
  | S16
  | S32
  | S64
  | F32
  | F64
[@@deriving show { with_path = false }, eq]

(** Byte width of a datatype as stored in memory.  Predicates are not
    addressable in PTX; we give them one byte for spill slots. *)
let size_of = function
  | Pred -> 1
  | B8 | U8 | S8 -> 1
  | B16 | U16 | S16 -> 2
  | B32 | U32 | S32 | F32 -> 4
  | B64 | U64 | S64 | F64 -> 8

let is_float = function F32 | F64 -> true | _ -> false
let is_signed = function S8 | S16 | S32 | S64 -> true | _ -> false

let is_integer = function
  | B8 | B16 | B32 | B64 | U8 | U16 | U32 | U64 | S8 | S16 | S32 | S64 -> true
  | _ -> false

(** The integer type of twice the width, same signedness ([mul.wide]'s
    destination type).  [None] for floats, predicates and 64-bit types. *)
let widened = function
  | U8 -> Some U16
  | U16 -> Some U32
  | U32 -> Some U64
  | S8 -> Some S16
  | S16 -> Some S32
  | S32 -> Some S64
  | B8 -> Some B16
  | B16 -> Some B32
  | B32 -> Some B64
  | Pred | U64 | S64 | B64 | F32 | F64 -> None

type space = Param | Global | Shared | Local | Const
[@@deriving show { with_path = false }, eq]

type dim = X | Y | Z [@@deriving show { with_path = false }, eq]

(** Read-only special registers giving a thread its position in the launch
    hierarchy.  [Laneid] and [Warpsize] expose the dynamic warp context. *)
type special =
  | Tid of dim
  | Ntid of dim
  | Ctaid of dim
  | Nctaid of dim
  | Laneid
  | Warpsize
[@@deriving show { with_path = false }, eq]

type reg = string [@@deriving show { with_path = false }, eq]

type operand =
  | Reg of reg  (** registers always start with ['%'] *)
  | Imm_int of int64
  | Imm_float of float
  | Special of special
  | Var of string
      (** address-of a named [.shared]/[.local]/[.const]/[.param] variable;
          yields the variable's byte offset within its address space *)
[@@deriving show { with_path = false }, eq]

(** Memory operand: a base plus a constant byte offset.  The base is either
    a register holding an address or a named variable (a kernel parameter or
    a statically declared [.shared]/[.local]/[.const] array). *)
type addr_base = Areg of reg | Avar of string
[@@deriving show { with_path = false }, eq]

type address = { base : addr_base; offset : int }
[@@deriving show { with_path = false }, eq]

type binop =
  | Add
  | Sub
  | Mul_lo  (** low half of the product; plain [mul] for floats *)
  | Mul_hi
  | Mul_wide
      (** full product of two 16/32-bit integers into a register of twice
          the width ([mul.wide]); the operand type is the {e source} type *)
  | Div
  | Rem
  | Min
  | Max
  | And
  | Or
  | Xor
  | Shl
  | Shr
[@@deriving show { with_path = false }, eq]

type unop = Neg | Not | Abs | Sqrt | Rsqrt | Rcp | Sin | Cos | Ex2 | Lg2
[@@deriving show { with_path = false }, eq]

type cmpop = Eq | Ne | Lt | Le | Gt | Ge
[@@deriving show { with_path = false }, eq]

type atomop = Atom_add | Atom_min | Atom_max | Atom_exch | Atom_cas
[@@deriving show { with_path = false }, eq]

(** Instruction guard: [@%p] executes when [p] is true, [@!%p] when false. *)
type guard = Always | If of reg | Ifnot of reg
[@@deriving show { with_path = false }, eq]

type instr =
  | Binary of binop * dtype * reg * operand * operand
  | Unary of unop * dtype * reg * operand
  | Mad of dtype * reg * operand * operand * operand
      (** [mad.lo] / [fma.rn]: d = a*b + c *)
  | Setp of cmpop * dtype * reg * operand * operand
  | Selp of dtype * reg * operand * operand * reg  (** d = p ? a : b *)
  | Mov of dtype * reg * operand
  | Cvt of dtype * dtype * reg * operand  (** [Cvt (dst_ty, src_ty, d, a)] *)
  | Ld of space * dtype * reg * address
  | St of space * dtype * address * operand
  | Atom of space * atomop * dtype * reg * address * operand * operand option
      (** [Atom (sp, op, ty, d, addr, b, c)]: d = old value; [c] only for CAS *)
  | Bra of string
  | Bar  (** [bar.sync 0]: CTA-wide barrier *)
  | Call of reg list * string * operand list
      (** [Call (rets, fname, args)]: call of a [.func]; eliminated by
          exhaustive inlining ({!module:Inline}) before translation, the
          strategy contemporary CUDA toolchains used (true calls with a
          thread-local stack are the paper's future work) *)
  | Ret
  | Exit
[@@deriving show { with_path = false }, eq]

(** Statement: a label or a (possibly guarded) instruction carrying the
    1-based source line it was parsed from.  Line 0 marks synthetic
    statements (built by tests, inlining glue, or if-conversion).  The
    line is provenance metadata only: it is ignored by structural
    equality so print/parse round-trips compare equal. *)
type stmt =
  | Label of string
  | Inst of guard * instr * (int[@equal fun _ _ -> true])
[@@deriving show { with_path = false }, eq]

type param = { p_name : string; p_ty : dtype }
[@@deriving show { with_path = false }, eq]

(** Statically sized array declaration in [.shared], [.local] or [.const]
    space. [a_elems] is the element count, not the byte count. *)
type array_decl = { a_name : string; a_ty : dtype; a_elems : int }
[@@deriving show { with_path = false }, eq]

(** Device function: callable from kernels (and other functions), always
    inlined.  Return values and parameters are registers, PTX-ABI style.
    Functions may not declare shared memory or synchronize. *)
type func_decl = {
  f_name : string;
  f_rets : (reg * dtype) list;
  f_params : (reg * dtype) list;
  f_regs : (reg * dtype) list;
  f_body : stmt list;
}
[@@deriving show { with_path = false }, eq]

type kernel = {
  k_name : string;
  k_params : param list;
  k_regs : (reg * dtype) list;
  k_shared : array_decl list;
  k_local : array_decl list;
  k_body : stmt list;
}
[@@deriving show { with_path = false }, eq]

(** Module-level [.const] array with an optional initializer.  Integer
    initializers are stored as [int64]; float initializers are bit-converted
    at layout time. *)
type const_init = Init_int of int64 list | Init_float of float list
[@@deriving show { with_path = false }, eq]

type const_decl = { c_decl : array_decl; c_init : const_init option }
[@@deriving show { with_path = false }, eq]

type modul = {
  m_consts : const_decl list;
  m_funcs : func_decl list;
  m_kernels : kernel list;
}
[@@deriving show { with_path = false }, eq]

let find_func m name =
  List.find_opt (fun f -> String.equal f.f_name name) m.m_funcs

let find_kernel m name =
  List.find_opt (fun k -> String.equal k.k_name name) m.m_kernels

(** Byte offset of each kernel parameter in the flat parameter block, laid
    out in declaration order with natural alignment. *)
let param_layout params =
  let align off a = (off + a - 1) / a * a in
  let rec go off = function
    | [] -> []
    | p :: rest ->
        let sz = size_of p.p_ty in
        let off = align off sz in
        (p.p_name, (off, p.p_ty)) :: go (off + sz) rest
  in
  go 0 params

let param_block_size params =
  List.fold_left
    (fun acc (_, (off, ty)) -> max acc (off + size_of ty))
    0 (param_layout params)

(** Register kind prefix conventions used by the printer and tests. *)
let defined_reg = function
  | Binary (_, _, d, _, _)
  | Unary (_, _, d, _)
  | Mad (_, d, _, _, _)
  | Setp (_, _, d, _, _)
  | Selp (_, d, _, _, _)
  | Mov (_, d, _)
  | Cvt (_, _, d, _)
  | Ld (_, _, d, _)
  | Atom (_, _, _, d, _, _, _) ->
      Some d
  | St _ | Bra _ | Bar | Call _ | Ret | Exit -> None

let used_operands = function
  | Binary (_, _, _, a, b) -> [ a; b ]
  | Unary (_, _, _, a) -> [ a ]
  | Mad (_, _, a, b, c) -> [ a; b; c ]
  | Setp (_, _, _, a, b) -> [ a; b ]
  | Selp (_, _, a, b, p) -> [ a; b; Reg p ]
  | Mov (_, _, a) -> [ a ]
  | Cvt (_, _, _, a) -> [ a ]
  | Ld (_, _, _, { base = Areg r; _ }) -> [ Reg r ]
  | Ld _ -> []
  | St (_, _, { base = Areg r; _ }, v) -> [ Reg r; v ]
  | St (_, _, _, v) -> [ v ]
  | Atom (_, _, _, _, { base; _ }, b, c) ->
      let base = match base with Areg r -> [ Reg r ] | Avar _ -> [] in
      base @ (b :: Option.to_list c)
  | Call (_, _, args) -> args
  | Bra _ | Bar | Ret | Exit -> []

(** Registers read by an instruction under a guard (the guard register is a
    use as well). *)
let used_regs guard i =
  let of_operand = function Reg r -> [ r ] | _ -> [] in
  let g = match guard with Always -> [] | If r | Ifnot r -> [ r ] in
  g @ List.concat_map of_operand (used_operands i)
