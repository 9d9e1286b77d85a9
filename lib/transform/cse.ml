(** Local common-subexpression elimination.

    Within each block, pure instructions computing an expression already
    available in a register are rewritten to register copies.  The IR is
    not SSA, so availability is tracked with {e register versions}: every
    definition bumps its destination's version, and an expression is keyed
    by its operands' (register, version) pairs — a redefinition of any
    input or of the previous result automatically invalidates the entry.

    This is the pass that harvests thread-invariant redundancy exposed by
    vectorization (paper §6.2): under static warp formation the per-lane
    replicas of an invariant expression have identical keys and collapse
    to the lane-0 copy.

    A key is a short run of integers: the opcode, the types, lanes and
    context field, then per operand a tag and either (register, version)
    or the immediate's type and 64 bits.  It is hashed and compared
    word by word, and lives in an arena that the next block reuses. *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty
open Vekt_ptx

(* Loads and anything effectful or context-dependent across calls stays;
   Ctx_read is constant for the duration of one kernel entry, so it is
   CSE-able. *)
let cseable = function
  | Ir.Bin _ | Ir.Un _ | Ir.Fma _ | Ir.Cmp _ | Ir.Select _ | Ir.Cvt _
  | Ir.Broadcast _ | Ir.Extract _ | Ir.Insert _ | Ir.Reduce_add _ | Ir.Ctx_read _ ->
      true
  | Ir.Mov _ | Ir.Load _ | Ir.Store _ | Ir.Vload _ | Ir.Vstore _ | Ir.Atomic _
  | Ir.Spill _ | Ir.Restore _ | Ir.Set_resume _ | Ir.Set_status _ ->
      false

(* ---- key encoding ---- *)

let dtype_code : Ast.dtype -> int = function
  | Pred -> 0 | B8 -> 1 | B16 -> 2 | B32 -> 3 | B64 -> 4 | U8 -> 5 | U16 -> 6
  | U32 -> 7 | U64 -> 8 | S8 -> 9 | S16 -> 10 | S32 -> 11 | S64 -> 12 | F32 -> 13
  | F64 -> 14

let ty_code (t : Ty.t) = dtype_code t.Ty.elt lor (t.Ty.width lsl 4)

let binop_code : Ast.binop -> int = function
  | Add -> 0 | Sub -> 1 | Mul_lo -> 2 | Mul_hi -> 3 | Mul_wide -> 4 | Div -> 5
  | Rem -> 6 | Min -> 7 | Max -> 8 | And -> 9 | Or -> 10 | Xor -> 11 | Shl -> 12
  | Shr -> 13

let unop_code : Ast.unop -> int = function
  | Neg -> 0 | Not -> 1 | Abs -> 2 | Sqrt -> 3 | Rsqrt -> 4 | Rcp -> 5 | Sin -> 6
  | Cos -> 7 | Ex2 -> 8 | Lg2 -> 9

let cmpop_code : Ast.cmpop -> int = function
  | Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let dim_code : Ast.dim -> int = function X -> 0 | Y -> 1 | Z -> 2

let field_code : Ir.ctx_field -> int = function
  | Tid d -> dim_code d
  | Ntid d -> 3 + dim_code d
  | Ctaid d -> 6 + dim_code d
  | Nctaid d -> 9 + dim_code d
  | Lane -> 12
  | Local_base -> 13
  | Warp_width -> 14
  | Entry_id -> 15

(* The opcode word: which constructor, and its operator. *)
let opcode = function
  | Ir.Bin (op, _, _, _, _) -> binop_code op
  | Ir.Un (op, _, _, _) -> 16 + unop_code op
  | Ir.Cmp (op, _, _, _, _) -> 32 + cmpop_code op
  | Ir.Fma _ -> 48
  | Ir.Select _ -> 49
  | Ir.Cvt _ -> 50
  | Ir.Broadcast _ -> 51
  | Ir.Extract _ -> 52
  | Ir.Insert _ -> 53
  | Ir.Reduce_add _ -> 54
  | Ir.Ctx_read _ -> 55
  | _ -> invalid_arg "Cse.opcode: not a candidate"

(* ---- the table of available expressions ----

   Every entry is a run of the arena: the key's length, its words, then
   the result register and that register's version when it was defined.
   Buckets hold arena offsets; a bucket is occupied only if its stamp is
   the current block's generation, so a new block empties the table by
   bumping [gen]. *)
type table = {
  mutable arena : int array;
  mutable top : int;  (** first free arena word *)
  mutable bucket : int array;  (** arena offset of the entry *)
  mutable stamp : int array;  (** generation that filled the bucket *)
  mutable count : int;  (** occupied buckets this generation *)
  mutable gen : int;
  key : int array;  (** the candidate being looked up *)
  mutable len : int;
}

let max_key = 16

let table () =
  {
    arena = Array.make 1024 0;
    top = 0;
    bucket = Array.make 64 0;
    stamp = Array.make 64 0;
    count = 0;
    gen = 1;
    key = Array.make max_key 0;
    len = 0;
  }

let next_block t =
  t.gen <- t.gen + 1;
  t.top <- 0;
  t.count <- 0

let push t w =
  t.key.(t.len) <- w;
  t.len <- t.len + 1

(* An immediate operand: its tag and type, then its 64 bits. *)
let push_imm t tag ty bits =
  push t (tag lor (dtype_code ty lsl 2));
  push t (Int64.to_int bits land 0xFFFF_FFFF);
  push t (Int64.to_int (Int64.shift_right_logical bits 32))

(* The hash of the [len] key words of [a] from [off]. *)
let hash_words a off len =
  let h = ref len in
  for k = off to off + len - 1 do
    h := (!h * 0x2545F491) + a.(k);
    h := !h lxor (!h lsr 29)
  done;
  !h land max_int

(* Whether the entry at arena offset [off] has the candidate's key. *)
let same_key t off =
  t.arena.(off) = t.len
  &&
  let k = ref 0 in
  while !k < t.len && t.arena.(off + 1 + !k) = t.key.(!k) do
    incr k
  done;
  !k = t.len

(* Insert arena entry [off] with hash [h] into the buckets, which have a
   free one. *)
let place t off h =
  let mask = Array.length t.bucket - 1 in
  let p = ref (h land mask) in
  while t.stamp.(!p) = t.gen do
    p := (!p + 1) land mask
  done;
  t.stamp.(!p) <- t.gen;
  t.bucket.(!p) <- off

let grow_buckets t =
  let old_bucket = t.bucket and old_stamp = t.stamp in
  let n = 2 * Array.length old_bucket in
  t.bucket <- Array.make n 0;
  t.stamp <- Array.make n 0;
  for p = 0 to Array.length old_stamp - 1 do
    if old_stamp.(p) = t.gen then begin
      let off = old_bucket.(p) in
      place t off (hash_words t.arena (off + 1) t.arena.(off))
    end
  done

(** The arena offset of the entry keyed like the candidate, added (with
    result register [-1]) if there is none. *)
let find_or_add t =
  let h = hash_words t.key 0 t.len in
  let mask = Array.length t.bucket - 1 in
  let p = ref (h land mask) in
  while t.stamp.(!p) = t.gen && not (same_key t t.bucket.(!p)) do
    p := (!p + 1) land mask
  done;
  if t.stamp.(!p) = t.gen then t.bucket.(!p)
  else begin
    let off = t.top and need = t.len + 3 in
    if off + need > Array.length t.arena then begin
      let a = Array.make (2 * (off + need)) 0 in
      Array.blit t.arena 0 a 0 off;
      t.arena <- a
    end;
    t.arena.(off) <- t.len;
    Array.blit t.key 0 t.arena (off + 1) t.len;
    t.arena.(off + t.len + 1) <- -1;
    t.top <- off + need;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.bucket then grow_buckets t;
    place t off h;
    off
  end

(** Run over every block; returns the number of instructions replaced by
    copies (a following {!Dce} pass removes those whose result was the
    only use). *)
let run (f : Ir.func) : int =
  let replaced = ref 0 in
  (* register versions, dense: [vstamp.(r) = gen] while [version.(r)]
     counts this block's definitions of [r]; otherwise it is 0 *)
  let version = Array.make f.Ir.nregs 0 and vstamp = Array.make f.Ir.nregs 0 in
  let t = table () in
  let ver r = if vstamp.(r) = t.gen then version.(r) else 0 in
  let bump r =
    version.(r) <- ver r + 1;
    vstamp.(r) <- t.gen
  in
  let operand = function
    | Ir.R r ->
        push t 0;
        push t r;
        push t (ver r)
    | Ir.Imm (Scalar_ops.I x, ty) -> push_imm t 1 ty x
    | Ir.Imm (Scalar_ops.F x, ty) -> push_imm t 2 ty (Int64.bits_of_float x)
  in
  (* Float immediates are keyed by their bits: float equality would merge
     0.0 with -0.0. *)
  let key i =
    t.len <- 0;
    push t (opcode i);
    match i with
    | Ir.Bin (_, ty, _, a, b) | Ir.Cmp (_, ty, _, a, b) ->
        push t (ty_code ty);
        operand a;
        operand b
    | Ir.Un (_, ty, _, a) | Ir.Broadcast (ty, _, a) ->
        push t (ty_code ty);
        operand a
    | Ir.Fma (ty, _, a, b, c) | Ir.Select (ty, _, a, b, c) ->
        push t (ty_code ty);
        operand a;
        operand b;
        operand c
    | Ir.Cvt (dt, st, _, a) ->
        push t (ty_code dt);
        push t (ty_code st);
        operand a
    | Ir.Extract (elt, _, a, lane) ->
        push t (dtype_code elt);
        push t lane;
        operand a
    | Ir.Insert (ty, _, v, lane, s) ->
        push t (ty_code ty);
        push t lane;
        operand v;
        operand s
    | Ir.Reduce_add (_, a) -> operand a
    | Ir.Ctx_read (_, field, lane) ->
        push t (field_code field);
        push t lane
    | _ -> ()
  in
  List.iter
    (fun (b : Ir.block) ->
      next_block t;
      b.Ir.insts <-
        List.map
          (fun (li : Ir.li) ->
            let i = li.Ir.i in
            let d = Ir.def i in
            if not (cseable i) then begin
              if d >= 0 then bump d;
              li
            end
            else begin
              key i;
              let off = find_or_add t in
              let res = off + t.len + 1 in
              let prev = t.arena.(res) in
              if prev >= 0 && prev <> d && ver prev = t.arena.(res + 1) then begin
                incr replaced;
                bump d;
                { li with Ir.i = Ir.Mov (Ir.reg_ty f d, d, Ir.R prev) }
              end
              else begin
                bump d;
                t.arena.(res) <- d;
                t.arena.(res + 1) <- ver d;
                li
              end
            end)
          b.Ir.insts)
    (Ir.blocks f);
  !replaced
