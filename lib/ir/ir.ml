(** The vekt intermediate representation.

    A typed register-machine IR with vector types, playing the role LLVM IR
    plays in the paper.  Functions hold an unbounded set of typed virtual
    registers; instructions read operands and write a destination register.
    The IR is deliberately {e not} SSA: the yield-on-diverge transformation
    spills and restores "all live values" at kernel exits and entries, which
    is most direct when a value is a register with a live range.

    Thread identity flows through {e context reads} ([Ctx_read]): a
    vectorized function executes on behalf of a warp of [w] threads, and
    lane [l]'s context object provides its thread/CTA indices and
    thread-local base.  [Spill]/[Restore] move per-lane values to and from
    reserved slots in the lane's thread-local memory — these are the
    compiler-inserted context-switch instructions of the paper's Algorithms
    3 and 4. *)

open Vekt_ptx

type vreg = int

type operand =
  | R of vreg
  | Imm of Scalar_ops.value * Ast.dtype  (** typed scalar immediate *)

(** Per-thread context object fields (paper §4: "grid dimensions, block
    dimensions, block ID, thread ID, and base pointers"). *)
type ctx_field =
  | Tid of Ast.dim
  | Ntid of Ast.dim
  | Ctaid of Ast.dim
  | Nctaid of Ast.dim
  | Lane
  | Local_base  (** byte offset of the lane's thread-local block *)
  | Warp_width  (** number of threads in the executing warp (uniform) *)
  | Entry_id  (** the warp's entry-point ID, set by the execution manager *)

(** Why a vectorized kernel returned to the execution manager. *)
type status = Status_branch | Status_barrier | Status_exit

type instr =
  | Bin of Ast.binop * Ty.t * vreg * operand * operand
  | Un of Ast.unop * Ty.t * vreg * operand
  | Fma of Ty.t * vreg * operand * operand * operand
  | Cmp of Ast.cmpop * Ty.t * vreg * operand * operand
      (** destination is a predicate of the same width as the operand type *)
  | Select of Ty.t * vreg * operand * operand * operand
      (** [Select (ty, d, cond, a, b)]: lane-wise [cond ? a : b]; [cond] is
          a predicate of matching width *)
  | Mov of Ty.t * vreg * operand
  | Cvt of Ty.t * Ty.t * vreg * operand  (** [Cvt (dst_ty, src_ty, d, a)] *)
  | Load of Ast.space * Ast.dtype * vreg * operand * int
      (** scalar load: [d = space[base + offset]].  Loads and stores are
          never vector-typed (paper §4, "Non-vectorizable Instructions") *)
  | Store of Ast.space * Ast.dtype * operand * int * operand
      (** [Store (space, ty, base, offset, value)] *)
  | Atomic of
      Ast.space * Ast.atomop * Ast.dtype * vreg * operand * int * operand * operand option
  | Vload of Ast.space * Ast.dtype * vreg * operand * int
      (** coalesced vector load: lane [i] gets [space[base + offset + i*size]].
          Emitted only when affine analysis proves the warp's lanes access
          contiguous memory (the paper's §4 future-work optimization) *)
  | Vstore of Ast.space * Ast.dtype * operand * int * operand
      (** coalesced vector store of a vector value to contiguous lanes *)
  | Broadcast of Ty.t * vreg * operand  (** splat a scalar into every lane *)
  | Extract of Ast.dtype * vreg * operand * int
      (** [d = vector.(lane)] — "unpack" at a vector→scalar boundary *)
  | Insert of Ty.t * vreg * operand * int * operand
      (** [Insert (ty, d, vec, lane, scalar)] — "pack" *)
  | Reduce_add of vreg * operand
      (** sum of the lanes of a predicate/integer vector, as scalar .s32 —
          the divergence check of Algorithm 2 *)
  | Ctx_read of vreg * ctx_field * int  (** read a field of lane [i]'s context *)
  | Spill of int * int * Ast.dtype * operand
      (** [Spill (lane, slot, ty, v)]: store lane [lane] of [v] to the
          lane's thread-local spill slot at byte offset [slot] *)
  | Restore of vreg * int * int * Ast.dtype
      (** [Restore (d, lane, slot, ty)]: scalar load from the lane's slot *)
  | Set_resume of int * operand
      (** record lane's next entry-point ID in its context *)
  | Set_status of status  (** record the warp's resume status *)

type terminator =
  | Jump of string
  | Branch of operand * string * string
      (** scalar conditional branch — only before vectorization *)
  | Switch of operand * (int * string) list * string  (** value, cases, default *)
  | Barrier of string
      (** CTA barrier then continue — only before vectorization *)
  | Return  (** yield back to the execution manager *)

(** Block role, used for cycle attribution in the VM (Figure 9 separates
    subkernel cycles from yield save/restore cycles). *)
type bkind = Body | Scheduler | Entry_handler | Exit_handler

(** Located instruction: the instruction plus the 1-based PTX source line
    it descends from (0 = synthetic — scheduler/handler glue, packing,
    address arithmetic with no single source line).  Transforms that
    rewrite [i] must preserve [line] ([{ li with i = ... }]) so
    source-line cycle attribution survives the pass pipeline. *)
type li = { i : instr; line : int }

let synthetic i = { i; line = 0 }

type block = {
  label : string;
  kind : bkind;
  mutable insts : li list;
  mutable term : terminator;
}

(** Hash tables keyed by block label, with [String.equal] and
    [String.hash] rather than polymorphic comparison and hashing. *)
module Stbl = Hashtbl.Make (String)

type func = {
  fname : string;
  warp_size : int;
  mutable entry : string;
  mutable order : string list;  (** block layout order *)
  btab : block Stbl.t;
  mutable nregs : int;
  mutable rty : Ty.t array;
      (** [rty.(r)] is the type of register [r] for [r] in [\[0, nregs)];
          slots past [nregs] are spare capacity *)
}

(** Hash tables keyed by [int] (registers), without
    polymorphic hashing or comparison. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x land max_int
end)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let block f l =
  match Stbl.find_opt f.btab l with
  | Some b -> b
  | None -> invalid_arg (Fmt.str "Ir.block: no block %s in %s" l f.fname)

let blocks f = List.map (block f) f.order

let has_reg f r = r >= 0 && r < f.nregs

let reg_ty f r =
  if has_reg f r then Array.unsafe_get f.rty r
  else invalid_arg ("Ir.reg_ty: unknown register %" ^ string_of_int r)

let successors b =
  match b.term with
  | Jump l -> [ l ]
  | Branch (_, t, e) -> [ t; e ]
  | Switch (_, cases, d) ->
      (* preserve order, drop duplicates *)
      let add seen l = if List.exists (String.equal l) seen then seen else l :: seen in
      List.rev (add (List.fold_left (fun seen (_, l) -> add seen l) [] cases) d)
  | Barrier l -> [ l ]
  | Return -> []

(** Register defined by an instruction, or [-1] if it defines none.  A
    plain [int], so the per-instruction queries of the passes and the
    timing model allocate nothing. *)
let def = function
  | Bin (_, _, d, _, _)
  | Un (_, _, d, _)
  | Fma (_, d, _, _, _)
  | Cmp (_, _, d, _, _)
  | Select (_, d, _, _, _)
  | Mov (_, d, _)
  | Cvt (_, _, d, _)
  | Load (_, _, d, _, _)
  | Atomic (_, _, _, d, _, _, _, _)
  | Broadcast (_, d, _)
  | Extract (_, d, _, _)
  | Insert (_, d, _, _, _)
  | Reduce_add (d, _)
  | Ctx_read (d, _, _)
  | Restore (d, _, _, _)
  | Vload (_, _, d, _, _) ->
      d
  | Store _ | Vstore _ | Spill _ | Set_resume _ | Set_status _ -> -1

let operand_reg = function R r -> Some r | Imm _ -> None

(* [fn r] for a register operand [r]. *)
let use_operand fn = function R r -> fn r | Imm _ -> ()

(** Apply [fn] to every register an instruction reads, in operand order,
    without building the {!uses} list. *)
let iter_uses fn i =
  match i with
  | Bin (_, _, _, a, b) | Cmp (_, _, _, a, b) ->
      use_operand fn a;
      use_operand fn b
  | Un (_, _, _, a)
  | Mov (_, _, a)
  | Cvt (_, _, _, a)
  | Load (_, _, _, a, _)
  | Vload (_, _, _, a, _)
  | Broadcast (_, _, a)
  | Extract (_, _, a, _)
  | Reduce_add (_, a)
  | Spill (_, _, _, a)
  | Set_resume (_, a) ->
      use_operand fn a
  | Fma (_, _, a, b, c) | Select (_, _, a, b, c) ->
      use_operand fn a;
      use_operand fn b;
      use_operand fn c
  | Store (_, _, a, _, b) | Vstore (_, _, a, _, b) | Insert (_, _, a, _, b) ->
      use_operand fn a;
      use_operand fn b
  | Atomic (_, _, _, _, base, _, b, c) -> (
      use_operand fn base;
      use_operand fn b;
      match c with Some c -> use_operand fn c | None -> ())
  | Ctx_read _ | Restore _ | Set_status _ -> ()

(** Registers read by an instruction. *)
let uses i =
  let acc = ref [] in
  iter_uses (fun r -> acc := r :: !acc) i;
  List.rev !acc

let term_uses = function
  | Jump _ | Barrier _ | Return -> []
  | Branch (c, _, _) -> Option.to_list (operand_reg c)
  | Switch (v, _, _) -> Option.to_list (operand_reg v)

(** Map the operands of an instruction (destination untouched). *)
let map_operands fn i =
  match i with
  | Bin (op, ty, d, a, b) -> Bin (op, ty, d, fn a, fn b)
  | Un (op, ty, d, a) -> Un (op, ty, d, fn a)
  | Fma (ty, d, a, b, c) -> Fma (ty, d, fn a, fn b, fn c)
  | Cmp (op, ty, d, a, b) -> Cmp (op, ty, d, fn a, fn b)
  | Select (ty, d, c, a, b) -> Select (ty, d, fn c, fn a, fn b)
  | Mov (ty, d, a) -> Mov (ty, d, fn a)
  | Cvt (dt, st, d, a) -> Cvt (dt, st, d, fn a)
  | Load (sp, ty, d, base, off) -> Load (sp, ty, d, fn base, off)
  | Store (sp, ty, base, off, v) -> Store (sp, ty, fn base, off, fn v)
  | Vload (sp, ty, d, base, off) -> Vload (sp, ty, d, fn base, off)
  | Vstore (sp, ty, base, off, v) -> Vstore (sp, ty, fn base, off, fn v)
  | Atomic (sp, op, ty, d, base, off, b, c) ->
      Atomic (sp, op, ty, d, fn base, off, fn b, Option.map fn c)
  | Broadcast (ty, d, a) -> Broadcast (ty, d, fn a)
  | Extract (ty, d, a, l) -> Extract (ty, d, fn a, l)
  | Insert (ty, d, v, l, s) -> Insert (ty, d, fn v, l, fn s)
  | Reduce_add (d, a) -> Reduce_add (d, fn a)
  | Ctx_read _ -> i
  | Spill (l, s, ty, v) -> Spill (l, s, ty, fn v)
  | Restore _ -> i
  | Set_resume (l, v) -> Set_resume (l, fn v)
  | Set_status _ -> i

(** Replace the destination register. *)
let with_def d i =
  match i with
  | Bin (op, ty, _, a, b) -> Bin (op, ty, d, a, b)
  | Un (op, ty, _, a) -> Un (op, ty, d, a)
  | Fma (ty, _, a, b, c) -> Fma (ty, d, a, b, c)
  | Cmp (op, ty, _, a, b) -> Cmp (op, ty, d, a, b)
  | Select (ty, _, c, a, b) -> Select (ty, d, c, a, b)
  | Mov (ty, _, a) -> Mov (ty, d, a)
  | Cvt (dt, st, _, a) -> Cvt (dt, st, d, a)
  | Load (sp, ty, _, base, off) -> Load (sp, ty, d, base, off)
  | Vload (sp, ty, _, base, off) -> Vload (sp, ty, d, base, off)
  | Atomic (sp, op, ty, _, base, off, b, c) -> Atomic (sp, op, ty, d, base, off, b, c)
  | Broadcast (ty, _, a) -> Broadcast (ty, d, a)
  | Extract (ty, _, a, l) -> Extract (ty, d, a, l)
  | Insert (ty, _, v, l, s) -> Insert (ty, d, v, l, s)
  | Reduce_add (_, a) -> Reduce_add (d, a)
  | Ctx_read (_, f, l) -> Ctx_read (d, f, l)
  | Restore (_, l, s, ty) -> Restore (d, l, s, ty)
  | Store _ | Vstore _ | Spill _ | Set_resume _ | Set_status _ ->
      invalid_arg "Ir.with_def: instruction has no destination"

(** Instructions whose effects are invisible to other threads (candidates
    for dead-code elimination when the destination is unused). *)
let is_pure = function
  | Store _ | Vstore _ | Atomic _ | Spill _ | Set_resume _ | Set_status _ -> false
  | Load _ | Vload _ ->
      (* Loads have no side effect but may fault; we still allow DCE of
         unused loads, matching LLVM's treatment of dereferenceable
         pointers in this dialect (all addresses are segment-checked). *)
      true
  | _ -> true

let predecessors f =
  let preds = Stbl.create 16 in
  List.iter (fun l -> Stbl.replace preds l []) f.order;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = Option.value (Stbl.find_opt preds s) ~default:[] in
          Stbl.replace preds s (b.label :: cur))
        (successors b))
    (blocks f);
  preds

(** Static instruction count over all blocks (terminators excluded). *)
let size f = List.fold_left (fun acc b -> acc + List.length b.insts) 0 (blocks f)

(** Deep copy: blocks are fresh records (instruction lists are immutable
    and shared), register numbering and types are preserved.  Used to
    specialize a function without disturbing the cached original. *)
let copy_func (f : func) : func =
  let btab = Stbl.create (Stbl.length f.btab) in
  Stbl.iter
    (fun l (b : block) ->
      Stbl.replace btab l { label = b.label; kind = b.kind; insts = b.insts; term = b.term })
    f.btab;
  {
    fname = f.fname;
    warp_size = f.warp_size;
    entry = f.entry;
    order = f.order;
    btab;
    nregs = f.nregs;
    rty = Array.sub f.rty 0 f.nregs;
  }
