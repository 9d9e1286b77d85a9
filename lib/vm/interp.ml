(** Compiled execution of vectorized IR functions: compile once, run
    many times.

    Plays the role of the native code the paper's LLVM JIT emits.  A
    specialization is lowered {e once}, by {!compile}, when the
    translation cache builds it: blocks become array indices and
    terminators carry target indices, operands become slots of a flat
    register file (immediates get pre-filled slots), each computing
    instruction becomes a closure specialized on its lane count, value
    class and {!Vekt_ptx.Scalar_ops} operation, and each block's modelled
    cycles, flops, kind and source-line shares are computed once.  A
    fast-path closure captures its operands decoded (first slot, lane
    mask, lane count; int-file slots as byte offsets).  An integer one
    is chosen by opcode and signedness and holds its type's
    normalization as a shift and a mask, an f32 one by whether it must
    round its operands, and a load or store by value class and access
    width, so a lane loop decodes nothing and dispatches on nothing.  The
    glue the vectorizer wraps around every subkernel — lane packing and
    unpacking, context reads, spills, restores, resume points — is most
    of the static code, and is lowered by value and lane rather than by
    instruction: a single-use extract or insert next to the instruction
    that consumes or produces its lane folds into it, which then reads
    or writes the vector's lane itself; each run of the rest becomes one
    closure over a table of packed steps; and a value's per-lane spills,
    or restores, become one step that loops over the lanes.  Counters
    still count every IR instruction, lane and fault as the unfolded
    code would (see "Glue" below).

    Lowering also decides what run time would otherwise re-check.  Every
    register slot is allocated whole, and each lane an instruction, glue
    step or terminator touches is checked against its operand's width,
    and each thread lane against the warp width; anything out of range
    compiles to a closure that traps when it runs.  Run time then uses
    unchecked register-file primitives.  Guest memory is still checked
    on every access, by a test inlined into {!load_bits} and
    {!store_bits}.  These hot helpers live here rather than in
    {!Vekt_ptx.Mem} because the dev profile compiles with [-opaque],
    which inlines nothing across modules.

    The execution manager then {!run}s the compiled code with a warp of
    thread contexts and an entry-point ID, as many times as it likes;
    the code runs — through the scheduler block, an entry handler,
    vectorized bodies — until it yields ([Return]), having recorded each
    lane's resume point and the warp's resume status in the context
    objects.  [~fuel:n] lets exactly [n] blocks run in one call.

    Results are bit-identical to the {!Vekt_ptx.Emulator} oracle: values
    keep the [I]/[F] tags {!Vekt_ptx.Scalar_ops} gives them.  A register
    whose every definition produces one tag lives unboxed, in a float
    array or a byte buffer of int64 patterns; the few registers that may
    hold either tag live boxed.  Fast paths reproduce
    {!Vekt_ptx.Scalar_ops} on unboxed lanes for the common operations;
    every other instruction boxes its lanes and calls
    {!Vekt_ptx.Scalar_ops} itself.  [Scalar_ops] rounds every f32
    operand and result to single; a fast path rounds an operand only
    where the lowering could not prove it f32-exact ({!infer_tags}), so
    most f32 operations pay for one rounding, their result's.

    A compiled value is immutable and captures no per-call state: every
    {!run} resets a register file to the compiled defaults and brings
    its own fuel, warp and memories, so one specialization can run on
    several domains at once.  The walk that lowers a block also costs it
    with {!Timing.block}, so every compiled block carries its modelled
    cycles; {!run} accumulates them per executed block and attributes
    them to the block's kind (body / scheduler / entry / exit), which
    Figure 9 reports.  A call allocates only its state record: the
    register file and a flat cycle tally are the domain's, lent to one
    call at a time. *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty
open Vekt_ptx

exception Trap of string
exception Out_of_fuel

(* Global-space [Ir.Atomic] is interpreted as load / compute / store;
   within one domain that sequence is already indivisible, but when
   {!Vekt_runtime.Worker_pool} runs CTAs on several domains against one
   shared global segment the read-modify-write must be serialized
   process-wide.  Shared and local segments are CTA-private (every CTA
   runs wholly on one worker), so they never need it.  Serialization
   makes each update indivisible but does not fix their order: add, min
   and max commute, so the final memory image is order-independent;
   exch and cas do not, which is why the worker pool keeps kernels using
   them on a single domain. *)
let global_atomic_lock = Mutex.create ()

type thread_info = {
  tid : Launch.dim3;
  ctaid : Launch.dim3;
  local_base : int;  (** byte offset of this thread's block in the local arena *)
  mutable resume_point : int;
}

type warp = {
  lanes : thread_info array;
  mutable entry_id : int;
  mutable status : Ir.status;
}

type memories = {
  global : Mem.t;
  shared : Mem.t;  (** the warp's CTA's shared segment *)
  local : Mem.t;  (** local arena: one block per thread, see [local_base] *)
  params : Mem.t;
  consts : Mem.t;
}

type launch_info = { grid : Launch.dim3; block : Launch.dim3 }

(** Dynamic counters, aggregated across calls (one per execution manager). *)
type counters = {
  mutable dyn_instrs : int;
  mutable blocks_executed : int;
  mutable kernel_calls : int;
  mutable restores : int;  (** Restore instructions executed (Fig. 8) *)
  mutable spills : int;
  mutable flops : int;
  mutable cycles_body : float;
  mutable cycles_scheduler : float;
  mutable cycles_entry : float;
  mutable cycles_exit : float;
}

let fresh_counters () =
  {
    dyn_instrs = 0;
    blocks_executed = 0;
    kernel_calls = 0;
    restores = 0;
    spills = 0;
    flops = 0;
    cycles_body = 0.0;
    cycles_scheduler = 0.0;
    cycles_entry = 0.0;
    cycles_exit = 0.0;
  }

let total_cycles c =
  c.cycles_body +. c.cycles_scheduler +. c.cycles_entry +. c.cycles_exit

(** Field tables naming every counter, driving the generic merge below
    and the metrics-registry export in {!Vekt_runtime.Stats} — the one
    place to extend when adding a counter. *)
let int_counter_fields :
    (string * (counters -> int) * (counters -> int -> unit)) list =
  [
    ("dyn_instrs", (fun c -> c.dyn_instrs), fun c v -> c.dyn_instrs <- v);
    ( "blocks_executed",
      (fun c -> c.blocks_executed),
      fun c v -> c.blocks_executed <- v );
    ("kernel_calls", (fun c -> c.kernel_calls), fun c v -> c.kernel_calls <- v);
    ("restores", (fun c -> c.restores), fun c v -> c.restores <- v);
    ("spills", (fun c -> c.spills), fun c v -> c.spills <- v);
    ("flops", (fun c -> c.flops), fun c v -> c.flops <- v);
  ]

let cycle_counter_fields :
    (string * (counters -> float) * (counters -> float -> unit)) list =
  [
    ("cycles_body", (fun c -> c.cycles_body), fun c v -> c.cycles_body <- v);
    ( "cycles_scheduler",
      (fun c -> c.cycles_scheduler),
      fun c v -> c.cycles_scheduler <- v );
    ("cycles_entry", (fun c -> c.cycles_entry), fun c v -> c.cycles_entry <- v);
    ("cycles_exit", (fun c -> c.cycles_exit), fun c v -> c.cycles_exit <- v);
  ]

(** Sum [d]'s counters into [into], field by field. *)
let merge_counters ~(into : counters) (d : counters) =
  List.iter (fun (_, get, set) -> set into (get into + get d)) int_counter_fields;
  List.iter
    (fun (_, get, set) -> set into (get into +. get d))
    cycle_counter_fields

(* ------------------------------------------------------------------ *)
(* Register file *)

(* Unboxed access to byte buffers: compiler primitives, so a lane read or
   written through them never allocates.  The unchecked ([u]) forms serve
   indices proven in range beforehand: register slots by {!compile},
   guest addresses by the test in {!load_bits}/{!store_bits}. *)
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

(** Where a register's lanes live.  The class follows the [I]/[F] tags
    the register can hold ({!infer_tags}), not its declared type. *)
type cls =
  | Cf  (** only [F] values: unboxed in [rf] *)
  | Ci  (** only [I] values: unboxed int64 patterns in [ri] *)
  | Cb  (** both: boxed in [rb] *)

(** A compiled operand or destination: lane [l] is slot
    [base_of s + l * stride_of s] of the [cls_of s] store.  Vector
    registers have stride 1; scalar registers and immediates have
    stride 0, so they splat into vector positions exactly as a scalar
    value does.  Packed into one immediate, so a compiled closure holds
    its operands in single words. *)
type src = int

(** The widest vector, and so warp, compiled code can hold. *)
let max_lanes = 0x1ff

let src ~cls ~base ~width =
  if width > max_lanes then invalid_arg "Interp: vector wider than 511 lanes";
  let c = match cls with Cf -> 0 | Ci -> 1 | Cb -> 2 in
  (base lsl 12) lor (width lsl 3) lor ((if width = 1 then 0 else 1) lsl 2) lor c

let cls_of (s : src) = match s land 3 with 0 -> Cf | 1 -> Ci | _ -> Cb
let[@inline] stride_of (s : src) = (s lsr 2) land 1
let width_of (s : src) = (s lsr 3) land 0x1ff
let[@inline] base_of (s : src) = s lsr 12

(* Lane [lane] of [s], as a scalar operand. *)
let lane_of (s : src) lane = src ~cls:(cls_of s) ~base:(base_of s + (lane * stride_of s)) ~width:1

(** One call's modelled cycles per block kind.  All-float, so stored
    flat: charging a block writes a float in place, where a float field
    of the mixed {!counters} record would box one per write. *)
type tally = {
  mutable t_body : float;
  mutable t_scheduler : float;
  mutable t_entry : float;
  mutable t_exit : float;
}

let fresh_tally () = { t_body = 0.0; t_scheduler = 0.0; t_entry = 0.0; t_exit = 0.0 }

(** Per-call state: the register file (reset to the compiled default),
    the warp, its memories, the call's counters and hooks.  [cyc] starts
    from [counters]' cycle totals and is written back when the call
    returns or raises; [own] says the register file is the domain's. *)
type state = {
  rf : float array;
  ri : Bytes.t;
  rb : Scalar_ops.value array;
  warp : warp;
  mem : memories;
  launch : launch_info;
  counters : counters;
  cyc : tally;
  on_access : (Ast.space -> addr:int -> width:int -> unit) option;
  profile : Vekt_obs.Divergence.t option;
  attr : Vekt_obs.Attribution.t option;
  own : bool;
}

(* Register access without bounds checks: {!compile} proved every slot
   and lane a closure touches in range of the file {!run} lends it. *)
let[@inline] iget st s l = get64u st.ri ((base_of s + (l * stride_of s)) lsl 3)

(* Decoded operands.  A fast-path closure holds no packed {!src}: it
   captures each operand's first slot and a lane mask, -1 for a vector
   register (stride 1) and 0 for a scalar register or an immediate
   (stride 0, so it splats).  Lane [l] of a float operand at slot [b]
   with mask [k] is [rf.(b + (l land k))].  Int-file slots are scaled
   to byte offsets, so lane [l] of an int operand is the int64 at byte
   [b + ((l lsl 3) land k)] of [ri].  A destination is a register, whose
   lanes are consecutive. *)
let fslot (s : src) = base_of s
let islot (s : src) = base_of s lsl 3
let lmask (s : src) = -stride_of s

let[@inline] fl (rf : float array) b k l = Array.unsafe_get rf (b + (l land k))
let[@inline] il ri b k o = get64u ri (b + (o land k))

(* Boxed lane access, for the paths that call {!Scalar_ops} directly. *)
let get st s l : Scalar_ops.value =
  let k = base_of s + (l * stride_of s) in
  match cls_of s with
  | Cf -> Scalar_ops.F (Array.unsafe_get st.rf k)
  | Ci -> Scalar_ops.I (get64u st.ri (k lsl 3))
  | Cb -> Array.unsafe_get st.rb k

let put st d l (v : Scalar_ops.value) =
  let k = base_of d + l in
  match (cls_of d, v) with
  | Cf, Scalar_ops.F x -> Array.unsafe_set st.rf k x
  | Ci, Scalar_ops.I x -> set64u st.ri (k lsl 3) x
  | Cb, v -> Array.unsafe_set st.rb k v
  | (Cf | Ci), _ -> raise (Trap "value tag outside its register's class")

(* ------------------------------------------------------------------ *)
(* {!Scalar_ops} on unboxed lanes.  Each helper is the corresponding
   [Scalar_ops] function with the [I]/[F] wrapper peeled off; callers
   only reach them when every lane involved carries the tag the
   operation expects. *)

(* [Scalar_ops.norm_int] for one type, as shift amounts. *)
type norm = { sh : int; signed : bool; pred : bool }

(* What compiled code needs of a type: shared records, so a closure holds
   a pointer and a glue step an index ({!dtype_index}). *)
type dtype_info = { size : int; fl : bool; n : norm }

let dtype_list = Ast.[ Pred; B8; B16; B32; B64; U8; U16; U32; U64; S8; S16; S32; S64; F32; F64 ]

let dtypes =
  Array.of_list
    (List.map
       (fun ty ->
         let size = Ast.size_of ty in
         let n = { sh = 64 - (8 * size); signed = Ast.is_signed ty; pred = ty = Ast.Pred } in
         { size; fl = Ast.is_float ty; n })
       dtype_list)

let dtype_index (ty : Ast.dtype) =
  let rec find k = function
    | t :: rest -> if t = ty then k else find (k + 1) rest
    | [] -> invalid_arg "Interp.dtype_index"
  in
  find 0 dtype_list

let norm_of ty = dtypes.(dtype_index ty).n
let s32 = norm_of Ast.S32

let[@inline] norm n v =
  if n.pred then if Int64.equal v 0L then 0L else 1L
  else if n.signed then Int64.shift_right (Int64.shift_left v n.sh) n.sh
  else Int64.shift_right_logical (Int64.shift_left v n.sh) n.sh

(* [Scalar_ops.norm_int] for a type other than [Pred], as the two
   constants {!nrm} takes, decided at lowering: the shift that brings
   the type's bits to the top, and a mask that keeps the sign extension
   {!nrm} makes (signed types) or clears it (the others). *)
let norm_shift ty =
  let sh = 64 - (8 * Ast.size_of ty) in
  (sh, if Ast.is_signed ty then -1L else Int64.shift_right_logical (-1L) sh)

let[@inline] nrm sh m v = Int64.logand (Int64.shift_right (Int64.shift_left v sh) sh) m

(* The order of a normalized value of a signed type, or of an unsigned
   one with its sign bit flipped, is signed [int64] order. *)
let order_flip ty = if Ast.is_signed ty then 0L else Int64.min_int

(* [x] rounded to single when [r]: an f32 result, or an f32 operand the
   lowering could not prove exact ({!Scalar_ops.as_float}). *)
let[@inline] rnd r x = if r then Scalar_ops.round_f32 x else x

let fbin_ok = function
  | Ast.Add | Ast.Sub | Ast.Mul_lo | Ast.Div | Ast.Min | Ast.Max -> true
  | _ -> false

(* [Scalar_ops.float_binop]'s operation on [x] and [y], stored to
   [rf.(i)] rounded when [r].  Each arm stores its own result, so no
   float is boxed on its way out of the match. *)
let[@inline] fbin_set (rf : float array) i r op x y =
  match op with
  | Ast.Add -> Array.unsafe_set rf i (rnd r (x +. y))
  | Ast.Sub -> Array.unsafe_set rf i (rnd r (x -. y))
  | Ast.Mul_lo -> Array.unsafe_set rf i (rnd r (x *. y))
  | Ast.Div -> Array.unsafe_set rf i (rnd r (x /. y))
  | Ast.Min -> Array.unsafe_set rf i (rnd r (if x <= y || y <> y then x else y))
  | Ast.Max -> Array.unsafe_set rf i (rnd r (if x >= y || y <> y then x else y))
  | _ -> Array.unsafe_set rf i nan

let ibin_ok = function
  | Ast.Add | Ast.Sub | Ast.Mul_lo | Ast.And | Ast.Or | Ast.Xor | Ast.Shl
  | Ast.Shr | Ast.Min | Ast.Max ->
      true
  | _ -> false

let[@inline] fcmp op (x : float) y =
  match op with
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y
  | Ast.Lt -> x < y
  | Ast.Le -> x <= y
  | Ast.Gt -> x > y
  | Ast.Ge -> x >= y

let funop_ok = function Ast.Not -> false | _ -> true

(* [Scalar_ops.unop]'s float operation on [x], stored like {!fbin_set}. *)
let[@inline] funop_set (rf : float array) i r op x =
  match op with
  | Ast.Neg -> Array.unsafe_set rf i (rnd r (-.x))
  | Ast.Abs -> Array.unsafe_set rf i (rnd r (Float.abs x))
  | Ast.Sqrt -> Array.unsafe_set rf i (rnd r (sqrt x))
  | Ast.Rsqrt -> Array.unsafe_set rf i (rnd r (1.0 /. sqrt x))
  | Ast.Rcp -> Array.unsafe_set rf i (rnd r (1.0 /. x))
  | Ast.Sin -> Array.unsafe_set rf i (rnd r (sin x))
  | Ast.Cos -> Array.unsafe_set rf i (rnd r (cos x))
  | Ast.Ex2 -> Array.unsafe_set rf i (rnd r (Float.exp2 x))
  | Ast.Lg2 -> Array.unsafe_set rf i (rnd r (Float.log2 x))
  | Ast.Not -> Array.unsafe_set rf i nan

let[@inline] of_bool b = if b then 1L else 0L

(* ------------------------------------------------------------------ *)
(* Memory: [Mem.load]/[Mem.store] on raw little-endian bit patterns *)

let[@inline] seg st = function
  | Ast.Param -> st.mem.params
  | Ast.Global -> st.mem.global
  | Ast.Shared -> st.mem.shared
  | Ast.Local -> st.mem.local
  | Ast.Const -> st.mem.consts

(* One tripwire call per memory instruction executed; a no-op branch
   when no hook is installed. *)
let[@inline] touch st sp addr width =
  match st.on_access with None -> () | Some h -> h sp ~addr ~width

(* Guest accesses keep their bounds check, made here rather than by a
   call to [Mem.check]: the dev profile compiles with [-opaque], which
   inlines nothing across modules.  The test is [Mem.check]'s, and a
   failure raises the same structured [Mem.Fault]. *)
let[@inline] load_bits (m : Mem.t) width a =
  let b = m.Mem.bytes in
  if a < 0 || a > Bytes.length b - width then Mem.fault ~op:"load" m a width;
  if width = 4 then
    Int64.of_int32 (if Sys.big_endian then bswap32 (get32u b a) else get32u b a)
  else if width = 8 then if Sys.big_endian then bswap64 (get64u b a) else get64u b a
  else if width = 2 then Int64.of_int (if Sys.big_endian then bswap16 (get16u b a) else get16u b a)
  else Int64.of_int (Char.code (Bytes.unsafe_get b a))

let[@inline] store_bits (m : Mem.t) width a bits =
  let b = m.Mem.bytes in
  if a < 0 || a > Bytes.length b - width then Mem.fault ~op:"store" m a width;
  if width = 4 then
    let v = Int64.to_int32 bits in
    set32u b a (if Sys.big_endian then bswap32 v else v)
  else if width = 8 then set64u b a (if Sys.big_endian then bswap64 bits else bits)
  else if width = 2 then
    let v = Int64.to_int bits land 0xffff in
    set16u b a (if Sys.big_endian then bswap16 v else v)
  else Bytes.unsafe_set b a (Char.unsafe_chr (Int64.to_int bits land 0xff))

(* [Scalar_ops.of_bits] / [to_bits] for float types (4 or 8 bytes). *)
let[@inline] float_of_bits width bits =
  if width = 4 then Int32.float_of_bits (Int64.to_int32 bits) else Int64.float_of_bits bits

let[@inline] bits_of_float width x =
  if width = 4 then Int64.of_int32 (Int32.bits_of_float x) else Int64.bits_of_float x

let as_addr = function
  | Scalar_ops.I x -> Int64.to_int x
  | Scalar_ops.F _ -> raise (Trap "float used as address")

(* ------------------------------------------------------------------ *)
(* Compiled code *)

type code = state -> unit

type term =
  | Goto of int
  | If of src * int * int
  | Switch of src * (int * int) array * int  (** first matching case wins *)
  | Yield
  | Fail of string  (** trap once the block's instructions have run *)

type cost = { cycles : float; flops : int; shares : int array * int }

type block = {
  label : string;
  kind : Ir.bkind;
  cost : cost;  (** charged per execution, terminator included *)
  code : code array;  (** an instruction (with any folded into it) or a glue run *)
  counts : int array;
      (** per closure, the instructions {!run} counts before calling it
          (bits 0-1) and after it returns (above); 0 for a glue run,
          which counts itself *)
  term : term;
}

type t = {
  name : string;
  warp_size : int;
  entry : int;
  blocks : block array;
  (* The default register file, which every {!run} starts from and
     nothing writes: zeroed registers, then the immediates' slots. *)
  nf : int;  (** float slots; the last [Array.length f_imms] hold immediates *)
  f_imms : float array;
  ni : int;  (** int slots; the last [Bytes.length i_imms / 8] hold immediates *)
  i_imms : Bytes.t;
  rb0 : Scalar_ops.value array;  (** boxed slots, all of them *)
  size : int;  (** closures plus glue steps, over all blocks *)
}

let tag_i = 1
let tag_f = 2

(* Not a tag: set on a register that may hold an [F] value which is not
   f32-exact, i.e. one {!Scalar_ops.round_f32} would change. *)
let inexact = 4

let tag_of_elt elt = if Ast.is_float elt then tag_f else tag_i

(* A result of type [elt]: f32 results are rounded, so exact; anything
   else may not be. *)
let facts_of_elt elt = tag_of_elt elt lor (if elt = Ast.F32 then 0 else inexact)

let facts_of_value = function
  | Scalar_ops.I _ -> tag_i lor inexact
  | Scalar_ops.F x ->
      if Int64.equal (Int64.bits_of_float (Scalar_ops.round_f32 x)) (Int64.bits_of_float x)
      then tag_f
      else tag_f lor inexact

(** What each register can hold: the [I]/[F] tags of its zero default
    and of every definition's result, plus {!inexact} unless every [F]
    value it can hold is f32-exact.  Exact are the zero default, every
    f32 arithmetic, conversion, load, restore and atomic result, and
    immediates that survive a round trip through f32.  Moves, selects
    and lane shuffles pass their operands' facts through, so the facts
    only grow: a def→use worklist settles them in one sweep plus
    whatever a grown fact forces again. *)
let infer_tags (f : Ir.func) ~(used : bool array) : int array =
  let facts =
    Array.init f.Ir.nregs (fun r -> if used.(r) then tag_of_elt (Ir.reg_ty f r).Ty.elt else 0)
  in
  let fact = function Ir.R r -> facts.(r) | Ir.Imm (v, _) -> facts_of_value v in
  (* users.(r): the instructions seen so far that pass [r]'s facts on.
     One sweep in layout order settles each instruction after recording
     it as a user of its operands; a result that grows re-settles its
     users, which catches every read that came before the growth. *)
  let users = Array.make f.Ir.nregs [] and pending = ref [] in
  let via i = function Ir.R r -> users.(r) <- i :: users.(r) | Ir.Imm _ -> () in
  let grow d t =
    let t = facts.(d) lor t in
    if t <> facts.(d) then begin
      facts.(d) <- t;
      pending := List.rev_append users.(d) !pending
    end
  in
  let settle = function
    | Ir.Bin (_, ty, d, _, _) | Ir.Un (_, ty, d, _) | Ir.Fma (ty, d, _, _, _) | Ir.Cvt (ty, _, d, _)
      ->
        grow d (facts_of_elt ty.Ty.elt)
    | Ir.Load (_, ty, d, _, _)
    | Ir.Vload (_, ty, d, _, _)
    | Ir.Atomic (_, _, ty, d, _, _, _, _)
    | Ir.Restore (d, _, _, ty) ->
        grow d (facts_of_elt ty)
    | Ir.Cmp (_, _, d, _, _) | Ir.Reduce_add (d, _) | Ir.Ctx_read (d, _, _) ->
        grow d (tag_i lor inexact)
    | Ir.Mov (_, d, a) | Ir.Broadcast (_, d, a) | Ir.Extract (_, d, a, _) -> grow d (fact a)
    | Ir.Select (_, d, _, a, b) | Ir.Insert (_, d, a, _, b) -> grow d (fact a lor fact b)
    | Ir.Store _ | Ir.Vstore _ | Ir.Spill _ | Ir.Set_resume _ | Ir.Set_status _ -> ()
  in
  let rec drain () =
    match !pending with
    | [] -> ()
    | i :: rest ->
        pending := rest;
        settle i;
        drain ()
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun ({ Ir.i; _ } : Ir.li) ->
          (match i with
          | Ir.Mov (_, _, a) | Ir.Broadcast (_, _, a) | Ir.Extract (_, _, a, _) -> via i a
          | Ir.Select (_, _, _, a, b) | Ir.Insert (_, _, a, _, b) ->
              via i a;
              via i b
          | _ -> ());
          settle i;
          drain ())
        b.Ir.insts)
    (Ir.blocks f);
  facts

(** Whether {!infer_tags} proved register [r] f32-exact. *)
let exact facts r = facts.(r) land inexact = 0

(* Malformed IR compiles to a closure that traps only when executed, so
   a bad instruction on a path never taken costs nothing. *)
exception Bad of string

(* Boxed element-wise maps over the lanes of [d]: the path for every
   operation, class and type the unboxed fast paths do not cover. *)
let map1 d a fn : code =
 fun st ->
  for l = 0 to width_of d - 1 do
    put st d l (fn (get st a l))
  done

let map2 d a b fn : code =
 fun st ->
  for l = 0 to width_of d - 1 do
    put st d l (fn (get st a l) (get st b l))
  done

let map3 d a b c fn : code =
 fun st ->
  for l = 0 to width_of d - 1 do
    put st d l (fn (get st a l) (get st b l) (get st c l))
  done

(* Context fields as small integers, so glue tables can hold them. *)
let field_code =
  let dim = function Ast.X -> 0 | Ast.Y -> 1 | Ast.Z -> 2 in
  function
  | Ir.Tid d -> dim d
  | Ir.Ntid d -> 3 + dim d
  | Ir.Ctaid d -> 6 + dim d
  | Ir.Nctaid d -> 9 + dim d
  | Ir.Lane -> 12
  | Ir.Local_base -> 13
  | Ir.Warp_width -> 14
  | Ir.Entry_id -> 15

let ctx_value st code lane =
  let t = Array.unsafe_get st.warp.lanes lane in
  let dim (d : Launch.dim3) k = if k = 0 then d.Launch.x else if k = 1 then d.Launch.y else d.Launch.z in
  if code < 3 then dim t.tid code
  else if code < 6 then dim st.launch.block (code - 3)
  else if code < 9 then dim t.ctaid (code - 6)
  else if code < 12 then dim st.launch.grid (code - 9)
  else if code = 12 then lane
  else if code = 13 then t.local_base
  else if code = 14 then Array.length st.warp.lanes
  else st.warp.entry_id

(* [w] lanes written to [d] from [srcs]: each source is scalar or at
   least [w] wide. *)
let lanes d w srcs =
  if width_of d <> w then raise (Bad "destination width differs from the operation's");
  List.iter
    (fun s -> if stride_of s = 1 && width_of s < w then raise (Bad "vector operand too narrow"))
    srcs

let scalar s = if stride_of s = 1 then raise (Bad "vector value in scalar position") else s

(* Lane [lane] of [s] exists: any lane of a scalar, which splats. *)
let has_lane s lane =
  if lane < 0 || (stride_of s = 1 && lane >= width_of s) then raise (Bad "lane out of range")

(* [lane] names a thread of a [ws]-wide warp, whose context run-time code
   then reads unchecked ({!run} checks the warp's width). *)
let thread_lane ~ws lane = if lane < 0 || lane >= ws then raise (Bad "lane beyond the warp")

(* The fast paths.  Each lowers one operation to a closure over decoded
   operands, chosen at lowering by operation, signedness and rounding,
   so its lane loop decodes nothing and dispatches on nothing.  The
   loops are written out one per operation: the compiler (no flambda)
   does not inline a function argument into a loop, which would leave
   an indirect call per lane that boxes its operands. *)

(* [Scalar_ops.float_binop] on unboxed lanes: [r] rounds the result to
   single, [ra]/[rb] the operands.  An f32 operation on exact operands
   rounds only its result and gets a closure per operation; the rest
   (f64, and f32 with an operand to round) share one loop. *)
let fbin_code op ~r ~ra ~rb d a b : code =
  let n = width_of d and db = fslot d in
  let ab = fslot a and ak = lmask a and bb = fslot b and bk = lmask b in
  let round = Scalar_ops.round_f32 and exact = r && not (ra || rb) in
  match op with
  | Ast.Add when exact ->
      fun st ->
        let rf = st.rf in
        for l = 0 to n - 1 do
          Array.unsafe_set rf (db + l) (round (fl rf ab ak l +. fl rf bb bk l))
        done
  | Ast.Sub when exact ->
      fun st ->
        let rf = st.rf in
        for l = 0 to n - 1 do
          Array.unsafe_set rf (db + l) (round (fl rf ab ak l -. fl rf bb bk l))
        done
  | Ast.Mul_lo when exact ->
      fun st ->
        let rf = st.rf in
        for l = 0 to n - 1 do
          Array.unsafe_set rf (db + l) (round (fl rf ab ak l *. fl rf bb bk l))
        done
  | Ast.Div when exact ->
      fun st ->
        let rf = st.rf in
        for l = 0 to n - 1 do
          Array.unsafe_set rf (db + l) (round (fl rf ab ak l /. fl rf bb bk l))
        done
  | Ast.Min when exact ->
      fun st ->
        let rf = st.rf in
        for l = 0 to n - 1 do
          let x = fl rf ab ak l and y = fl rf bb bk l in
          Array.unsafe_set rf (db + l) (round (if x <= y || y <> y then x else y))
        done
  | Ast.Max when exact ->
      fun st ->
        let rf = st.rf in
        for l = 0 to n - 1 do
          let x = fl rf ab ak l and y = fl rf bb bk l in
          Array.unsafe_set rf (db + l) (round (if x >= y || y <> y then x else y))
        done
  | _ ->
      fun st ->
        let rf = st.rf in
        for l = 0 to n - 1 do
          fbin_set rf (db + l) r op (rnd ra (fl rf ab ak l)) (rnd rb (fl rf bb bk l))
        done

(* [Scalar_ops.int_binop] on unboxed lanes of type [elt] (not [Pred]),
   one closure per operation and, where it matters, signedness.  Add,
   sub, mul.lo and the bitwise operations read their operands raw: the
   low bits of their results depend only on the operands' low bits,
   which normalization keeps, and the result is normalized.  Shifts take
   their amount from the normalized second operand's low 32 bits; an
   amount at or beyond the type's width clears a left shift or a logical
   right shift and saturates an arithmetic one.  Min, max and the right
   shifts read normalized operands, whose results need no normalizing. *)
let ibin_code op elt d a b : code =
  let n = width_of d and db = islot d in
  let ab = islot a and ak = lmask a and bb = islot b and bk = lmask b in
  let sh, m = norm_shift elt and flip = order_flip elt in
  let bits = 64 - sh in
  match op with
  | Ast.Add ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          set64u ri (db + o) (nrm sh m (Int64.add (il ri ab ak o) (il ri bb bk o)))
        done
  | Ast.Sub ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          set64u ri (db + o) (nrm sh m (Int64.sub (il ri ab ak o) (il ri bb bk o)))
        done
  | Ast.Mul_lo ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          set64u ri (db + o) (nrm sh m (Int64.mul (il ri ab ak o) (il ri bb bk o)))
        done
  | Ast.And ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          set64u ri (db + o) (nrm sh m (Int64.logand (il ri ab ak o) (il ri bb bk o)))
        done
  | Ast.Or ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          set64u ri (db + o) (nrm sh m (Int64.logor (il ri ab ak o) (il ri bb bk o)))
        done
  | Ast.Xor ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          set64u ri (db + o) (nrm sh m (Int64.logxor (il ri ab ak o) (il ri bb bk o)))
        done
  | Ast.Shl ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          let amt = Int64.to_int (Int64.logand (nrm sh m (il ri bb bk o)) 0xFFFF_FFFFL) in
          set64u ri (db + o)
            (if amt >= bits then 0L else nrm sh m (Int64.shift_left (il ri ab ak o) amt))
        done
  | Ast.Shr when Ast.is_signed elt ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          let amt = Int64.to_int (Int64.logand (nrm sh m (il ri bb bk o)) 0xFFFF_FFFFL) in
          set64u ri (db + o)
            (Int64.shift_right (nrm sh m (il ri ab ak o)) (if amt > 63 then 63 else amt))
        done
  | Ast.Shr ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          let amt = Int64.to_int (Int64.logand (nrm sh m (il ri bb bk o)) 0xFFFF_FFFFL) in
          set64u ri (db + o)
            (if amt >= bits then 0L
             else Int64.shift_right_logical (nrm sh m (il ri ab ak o)) amt)
        done
  | Ast.Min ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          let x = nrm sh m (il ri ab ak o) and y = nrm sh m (il ri bb bk o) in
          set64u ri (db + o) (if Int64.add x flip <= Int64.add y flip then x else y)
        done
  | Ast.Max ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          let x = nrm sh m (il ri ab ak o) and y = nrm sh m (il ri bb bk o) in
          set64u ri (db + o) (if Int64.add x flip >= Int64.add y flip then x else y)
        done
  | _ -> invalid_arg "Interp.ibin_code"

(* [Scalar_ops.cmp] on unboxed integer lanes of type [elt] (not [Pred]),
   one closure per comparison: normalized operands, moved by
   {!order_flip} so that signed order is the type's. *)
let icmp_code op elt d a b : code =
  let n = width_of d and db = islot d in
  let ab = islot a and ak = lmask a and bb = islot b and bk = lmask b in
  let sh, m = norm_shift elt and flip = order_flip elt in
  match op with
  | Ast.Eq ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          set64u ri (db + o)
            (of_bool (Int64.equal (nrm sh m (il ri ab ak o)) (nrm sh m (il ri bb bk o))))
        done
  | Ast.Ne ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          set64u ri (db + o)
            (of_bool (not (Int64.equal (nrm sh m (il ri ab ak o)) (nrm sh m (il ri bb bk o)))))
        done
  | Ast.Lt ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          let x = Int64.add (nrm sh m (il ri ab ak o)) flip
          and y = Int64.add (nrm sh m (il ri bb bk o)) flip in
          set64u ri (db + o) (of_bool (x < y))
        done
  | Ast.Le ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          let x = Int64.add (nrm sh m (il ri ab ak o)) flip
          and y = Int64.add (nrm sh m (il ri bb bk o)) flip in
          set64u ri (db + o) (of_bool (x <= y))
        done
  | Ast.Gt ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          let x = Int64.add (nrm sh m (il ri ab ak o)) flip
          and y = Int64.add (nrm sh m (il ri bb bk o)) flip in
          set64u ri (db + o) (of_bool (x > y))
        done
  | Ast.Ge ->
      fun st ->
        let ri = st.ri in
        for l = 0 to n - 1 do
          let o = l lsl 3 in
          let x = Int64.add (nrm sh m (il ri ab ak o)) flip
          and y = Int64.add (nrm sh m (il ri bb bk o)) flip in
          set64u ri (db + o) (of_bool (x >= y))
        done

(* A guest load's or store's address: the scalar int base at byte
   [b] of [ri] plus the offset. *)
let[@inline] addr st b off = Int64.to_int (get64u st.ri b) + off

(* Lower one instruction that is not a lane copy, spill or restore to a
   closure.  [src]/[dst] resolve operands to slots; [exact r] says
   register [r] holds only f32-exact floats ({!infer_tags}). *)
let compile_op ~ws ~(src : Ir.operand -> src) ~(dst : Ir.vreg -> src) ~exact (i : Ir.instr)
    : code =
  let scalar o = scalar (src o) in
  (* An operand's slot, and whether an operation that is f32 when [r]
     must round it on every read ({!Scalar_ops.as_float}): a float
     immediate is rounded here, once, and a register proved exact is
     never rounded. *)
  let fsrc r = function
    | Ir.Imm (Scalar_ops.F x, ty) when r ->
        (src (Ir.Imm (Scalar_ops.F (Scalar_ops.round_f32 x), ty)), false)
    | Ir.R reg as o -> (src o, r && not (exact reg))
    | o -> (src o, false)
  in
  let int elt = (not (Ast.is_float elt)) && elt <> Ast.Pred in
  match i with
  | Ir.Bin (op, ty, d, a, b) -> (
      let w = ty.Ty.width and elt = ty.Ty.elt in
      let r = elt = Ast.F32 in
      let d = dst d and a, ra = fsrc r a and b, rb = fsrc r b in
      lanes d w [ a; b ];
      match (cls_of d, cls_of a, cls_of b) with
      | Cf, Cf, Cf when Ast.is_float elt && fbin_ok op -> fbin_code op ~r ~ra ~rb d a b
      | Ci, Ci, Ci when int elt && ibin_ok op -> ibin_code op elt d a b
      | _ -> map2 d a b (Scalar_ops.binop op elt))
  | Ir.Un (op, ty, d, a) -> (
      let w = ty.Ty.width and elt = ty.Ty.elt in
      let r = elt = Ast.F32 in
      let d = dst d and a, ra = fsrc r a in
      lanes d w [ a ];
      match (cls_of d, cls_of a) with
      | Cf, Cf when Ast.is_float elt && funop_ok op ->
          let n = width_of d and db = fslot d and ab = fslot a and ak = lmask a in
          fun st ->
            let rf = st.rf in
            for l = 0 to n - 1 do
              funop_set rf (db + l) r op (rnd ra (fl rf ab ak l))
            done
      | _ -> map1 d a (Scalar_ops.unop op elt))
  | Ir.Fma (ty, d, a, b, c) -> (
      let w = ty.Ty.width and elt = ty.Ty.elt in
      let r = elt = Ast.F32 in
      let d = dst d and a, ra = fsrc r a and b, rb = fsrc r b and c, rc = fsrc r c in
      lanes d w [ a; b; c ];
      let n = width_of d and ak = lmask a and bk = lmask b and ck = lmask c in
      match (cls_of d, cls_of a, cls_of b, cls_of c) with
      | Cf, Cf, Cf, Cf when Ast.is_float elt ->
          let db = fslot d and ab = fslot a and bb = fslot b and cb = fslot c in
          if r && not (ra || rb || rc) then fun st ->
            let rf = st.rf in
            for l = 0 to n - 1 do
              let p = Scalar_ops.round_f32 (fl rf ab ak l *. fl rf bb bk l) in
              Array.unsafe_set rf (db + l) (Scalar_ops.round_f32 (p +. fl rf cb ck l))
            done
          else fun st ->
            let rf = st.rf in
            for l = 0 to n - 1 do
              let p = rnd r (rnd ra (fl rf ab ak l) *. rnd rb (fl rf bb bk l)) in
              Array.unsafe_set rf (db + l) (rnd r (p +. rnd rc (fl rf cb ck l)))
            done
      | Ci, Ci, Ci, Ci when int elt ->
          (* the low bits of [a * b + c] need no operand normalized *)
          let db = islot d and ab = islot a and bb = islot b and cb = islot c in
          let sh, m = norm_shift elt in
          fun st ->
            let ri = st.ri in
            for l = 0 to n - 1 do
              let o = l lsl 3 in
              set64u ri (db + o)
                (nrm sh m (Int64.add (Int64.mul (il ri ab ak o) (il ri bb bk o)) (il ri cb ck o)))
            done
      | _ -> map3 d a b c (Scalar_ops.mad elt))
  | Ir.Cmp (op, ty, d, a, b) -> (
      let w = ty.Ty.width and elt = ty.Ty.elt in
      let r = elt = Ast.F32 in
      let d = dst d and a, ra = fsrc r a and b, rb = fsrc r b in
      lanes d w [ a; b ];
      match (cls_of d, cls_of a, cls_of b) with
      | Ci, Cf, Cf when Ast.is_float elt ->
          let n = width_of d and db = islot d in
          let ab = fslot a and ak = lmask a and bb = fslot b and bk = lmask b in
          fun st ->
            let rf = st.rf and ri = st.ri in
            for l = 0 to n - 1 do
              set64u ri (db + (l lsl 3))
                (of_bool (fcmp op (rnd ra (fl rf ab ak l)) (rnd rb (fl rf bb bk l))))
            done
      | Ci, Ci, Ci when int elt -> icmp_code op elt d a b
      | _ -> map2 d a b (fun x y -> Scalar_ops.of_bool (Scalar_ops.cmp op elt x y)))
  | Ir.Select (ty, d, c, a, b) -> (
      let w = ty.Ty.width in
      let d = dst d and c = src c and a = src a and b = src b in
      lanes d w [ c; a; b ];
      let n = width_of d and cb = islot c and ck = lmask c and ak = lmask a and bk = lmask b in
      match (cls_of c, cls_of d, cls_of a, cls_of b) with
      | Ci, Cf, Cf, Cf ->
          let db = fslot d and ab = fslot a and bb = fslot b in
          fun st ->
            let rf = st.rf and ri = st.ri in
            for l = 0 to n - 1 do
              Array.unsafe_set rf (db + l)
                (if il ri cb ck (l lsl 3) <> 0L then fl rf ab ak l else fl rf bb bk l)
            done
      | Ci, Ci, Ci, Ci ->
          let db = islot d and ab = islot a and bb = islot b in
          fun st ->
            let ri = st.ri in
            for l = 0 to n - 1 do
              let o = l lsl 3 in
              set64u ri (db + o) (if il ri cb ck o <> 0L then il ri ab ak o else il ri bb bk o)
            done
      | _ -> map3 d c a b (fun cv x y -> if Scalar_ops.to_bool cv then x else y))
  | Ir.Mov _ | Ir.Broadcast _ | Ir.Extract _ | Ir.Insert _ | Ir.Spill _ | Ir.Restore _
  | Ir.Set_status _ ->
      invalid_arg "Interp.compile_op: lowered as glue"
  | Ir.Cvt (dt, sty, d, a) -> (
      let w = dt.Ty.width and de = dt.Ty.elt and se = sty.Ty.elt in
      let rd = de = Ast.F32 in
      let d = dst d and a, ra = fsrc (se = Ast.F32) a in
      lanes d w [ a ];
      let n = width_of d and ak = lmask a in
      match (cls_of d, cls_of a, Ast.is_float de, Ast.is_float se) with
      | Cf, Cf, true, true ->
          let db = fslot d and ab = fslot a in
          fun st ->
            let rf = st.rf in
            for l = 0 to n - 1 do
              Array.unsafe_set rf (db + l) (rnd rd (rnd ra (fl rf ab ak l)))
            done
      | Cf, Ci, true, false when se <> Ast.Pred ->
          let db = fslot d and ab = islot a in
          let shs, ms = norm_shift se and mode = Scalar_ops.int_to_float_mode ~src:se ~dst:de in
          fun st ->
            let rf = st.rf and ri = st.ri in
            for l = 0 to n - 1 do
              Array.unsafe_set rf (db + l)
                (Scalar_ops.int_to_float mode (nrm shs ms (il ri ab ak (l lsl 3))))
            done
      | Ci, Cf, false, true when de <> Ast.Pred ->
          let db = islot d and ab = fslot a in
          let shd, md = norm_shift de and mode = Scalar_ops.float_to_int_mode de in
          fun st ->
            let rf = st.rf and ri = st.ri in
            for l = 0 to n - 1 do
              set64u ri (db + (l lsl 3))
                (nrm shd md (Scalar_ops.float_to_int mode (rnd ra (fl rf ab ak l))))
            done
      | Ci, Ci, false, false when de <> Ast.Pred && se <> Ast.Pred ->
          let db = islot d and ab = islot a in
          let shd, md = norm_shift de and shs, ms = norm_shift se in
          fun st ->
            let ri = st.ri in
            for l = 0 to n - 1 do
              let o = l lsl 3 in
              set64u ri (db + o) (nrm shd md (nrm shs ms (il ri ab ak o)))
            done
      | _ -> map1 d a (Scalar_ops.cvt ~dst:de ~src:se))
  | Ir.Load (sp, ty, d, base, off) -> (
      let d = dst d and base = scalar base and width = Ast.size_of ty in
      lanes d 1 [];
      let ab = islot base in
      match (cls_of base, cls_of d, Ast.is_float ty) with
      | Ci, Cf, true ->
          let db = fslot d in
          if width = 4 then fun st ->
            let a = addr st ab off in
            touch st sp a 4;
            Array.unsafe_set st.rf db (float_of_bits 4 (load_bits (seg st sp) 4 a))
          else fun st ->
            let a = addr st ab off in
            touch st sp a 8;
            Array.unsafe_set st.rf db (float_of_bits 8 (load_bits (seg st sp) 8 a))
      | Ci, Ci, false when ty <> Ast.Pred -> (
          let db = islot d and sh, m = norm_shift ty in
          match width with
          | 1 ->
              fun st ->
                let a = addr st ab off in
                touch st sp a 1;
                set64u st.ri db (nrm sh m (load_bits (seg st sp) 1 a))
          | 2 ->
              fun st ->
                let a = addr st ab off in
                touch st sp a 2;
                set64u st.ri db (nrm sh m (load_bits (seg st sp) 2 a))
          | 4 ->
              fun st ->
                let a = addr st ab off in
                touch st sp a 4;
                set64u st.ri db (nrm sh m (load_bits (seg st sp) 4 a))
          | _ ->
              fun st ->
                let a = addr st ab off in
                touch st sp a 8;
                set64u st.ri db (load_bits (seg st sp) 8 a))
      | _ ->
          fun st ->
            let a = as_addr (get st base 0) + off in
            touch st sp a width;
            put st d 0 (Mem.load (seg st sp) ty a))
  | Ir.Store (sp, ty, base, off, v) -> (
      let base = scalar base and v = scalar v and width = Ast.size_of ty in
      let ab = islot base in
      match (cls_of base, cls_of v, Ast.is_float ty) with
      | Ci, Cf, true ->
          (* an f32 store needs no rounding first: the conversion to
             single in [bits_of_float 4] rounds exactly as
             {!Scalar_ops.round_f32} does *)
          let vb = fslot v in
          if width = 4 then fun st ->
            let a = addr st ab off in
            touch st sp a 4;
            store_bits (seg st sp) 4 a (bits_of_float 4 (Array.unsafe_get st.rf vb))
          else fun st ->
            let a = addr st ab off in
            touch st sp a 8;
            store_bits (seg st sp) 8 a (bits_of_float 8 (Array.unsafe_get st.rf vb))
      | Ci, Ci, false when ty <> Ast.Pred -> (
          (* the bytes stored are the value's low ones, which
             normalization keeps *)
          let vb = islot v in
          match width with
          | 1 ->
              fun st ->
                let a = addr st ab off in
                touch st sp a 1;
                store_bits (seg st sp) 1 a (get64u st.ri vb)
          | 2 ->
              fun st ->
                let a = addr st ab off in
                touch st sp a 2;
                store_bits (seg st sp) 2 a (get64u st.ri vb)
          | 4 ->
              fun st ->
                let a = addr st ab off in
                touch st sp a 4;
                store_bits (seg st sp) 4 a (get64u st.ri vb)
          | _ ->
              fun st ->
                let a = addr st ab off in
                touch st sp a 8;
                store_bits (seg st sp) 8 a (get64u st.ri vb))
      | _ ->
          fun st ->
            let a = as_addr (get st base 0) + off in
            touch st sp a width;
            Mem.store (seg st sp) ty a (get st v 0))
  | Ir.Vload (sp, ty, d, base, off) ->
      let d = dst d and base = scalar base and sz = Ast.size_of ty in
      lanes d ws [];
      fun st ->
        let a = as_addr (get st base 0) + off and m = seg st sp in
        touch st sp a (sz * ws);
        for l = 0 to ws - 1 do
          put st d l (Mem.load m ty (a + (l * sz)))
        done
  | Ir.Vstore (sp, ty, base, off, v) ->
      let base = scalar base and v = src v and sz = Ast.size_of ty in
      if stride_of v = 1 && width_of v < ws then raise (Bad "vector operand too narrow");
      fun st ->
        let a = as_addr (get st base 0) + off and m = seg st sp in
        touch st sp a (sz * ws);
        for l = 0 to ws - 1 do
          Mem.store m ty (a + (l * sz)) (get st v l)
        done
  | Ir.Atomic (sp, op, ty, d, base, off, v, c) ->
      let d = dst d and base = scalar base and v = scalar v in
      let c = Option.map scalar c in
      lanes d 1 [];
      fun st ->
        let s = seg st sp in
        let addr = as_addr (get st base 0) + off in
        touch st sp addr (Ast.size_of ty);
        let arg = get st v 0 and cmp = Option.map (fun c -> get st c 0) c in
        let rmw () =
          let old = Mem.load s ty addr in
          Mem.store s ty addr (Scalar_ops.atom op ty old arg cmp);
          old
        in
        put st d 0
          (match sp with
          | Ast.Global -> Mutex.protect global_atomic_lock rmw
          | _ -> rmw ())
  | Ir.Reduce_add (d, a) -> (
      let d = dst d and a = src a in
      lanes d 1 [];
      let n = if stride_of a = 1 then width_of a else 1 in
      match (cls_of d, cls_of a) with
      | Ci, Ci ->
          let db = islot d and ab = islot a in
          fun st ->
            let ri = st.ri in
            let sum = ref 0L in
            for l = 0 to n - 1 do
              (* each lane read as s32 *)
              let x = get64u ri (ab + (l lsl 3)) in
              sum := Int64.add !sum (Int64.shift_right (Int64.shift_left x 32) 32)
            done;
            set64u ri db !sum
      | _ ->
          fun st ->
            let sum = ref 0L in
            for l = 0 to n - 1 do
              sum := Int64.add !sum (Scalar_ops.as_int Ast.S32 (get st a l))
            done;
            put st d 0 (Scalar_ops.I !sum))
  | Ir.Ctx_read (d, field, lane) ->
      let d = dst d and code = field_code field in
      lanes d 1 [];
      thread_lane ~ws lane;
      fun st -> put st d 0 (Scalar_ops.I (Int64.of_int (ctx_value st code lane)))
  | Ir.Set_resume (lane, v) ->
      let v = scalar v in
      thread_lane ~ws lane;
      fun st ->
        (Array.unsafe_get st.warp.lanes lane).resume_point <-
          Int64.to_int (Scalar_ops.as_int Ast.S32 (get st v 0))

(* Glue: the data movement the vectorizer wraps around every subkernel
   (lane packing and unpacking, context reads, spills, restores, resume
   points and status) is most of a specialization's static code, and
   most of it moves one lane of one value.  Lowering removes what it
   can and packs the rest:

   - An [extract] whose result's only use is the very next instruction
     is folded into it: that consumer reads the vector's lane directly.
     An in-place [insert] whose scalar comes from the instruction just
     before it, and is used nowhere else, is folded into that producer,
     which writes the vector's lane directly.  Either fold needs the two
     registers to share a class, and an insert folds only into a
     producer that does not read the vector.  A register folded away
     gets no slot.
   - A block's remaining glue lowers to one immutable table of steps,
     which one closure ({!glue_run}) walks; and a value's consecutive
     per-lane spills, or restores, at one local offset become a single
     step that decodes its type once and loops over the lanes.

   Counting stays per instruction, as if nothing were folded: a folded
   extract counts just before its consumer runs (an extract cannot
   fault), a folded insert just after its producer returns, and a
   merged spill or restore counts each lane just before that lane's
   access.  So a fault part-way through leaves [dyn_instrs], [spills]
   and [restores] where the unfolded code would have left them.

   A step's first word holds its kind (bits 0-2), the instructions it
   counts before it runs (bits 3-4) and after (bit 5), and the kind's
   fields above them.  A merged spill or restore takes a second word. *)
let copy_kind = function Cf -> 0 | Ci -> 1 | Cb -> 2
let spill_kind = 3
let restore_kind = 4
let ctx_kind = 5
let resume_kind = 6
let status_kind = 7

let status_code = function Ir.Status_branch -> 0 | Ir.Status_barrier -> 1 | Ir.Status_exit -> 2
let status_of_code = function 0 -> Ir.Status_branch | 1 -> Ir.Status_barrier | _ -> Ir.Status_exit

(* [value] as a [bits]-wide field at [shift]; [Exit] when it does not
   fit (512 lanes, 4 MB of local memory per lane, 256M register slots). *)
let field ~shift ~bits value =
  if value < 0 || value >= 1 lsl bits then raise Exit;
  value lsl shift

let[@inline] get_field x ~shift ~bits = (x lsr shift) land ((1 lsl bits) - 1)

(* The counts of a step: [pre] instructions (1, or 2 with a folded
   extract) before it runs, [post] (0, or 1 with a folded insert) after.
   A closure's counts, for {!run}, are [pre lor (post lsl 2)]. *)
let step_counts ~pre ~post = (pre lsl 3) lor (post lsl 5)

(* Layouts.  copy: destination slot at 6, source slot at 34.  ctx: lane
   at 6, field code at 15, destination slot at 19.  resume: lane at 6,
   source slot at 15.  status: code at 6.  spill and restore: first
   lane at 6, lane count at 15, {!dtypes} index at 25, first register
   slot at 29 (lane [l] uses slot + l); the second word is the byte
   offset in each lane's local block. *)
let copy_step cls ~dst ~src =
  copy_kind cls lor field ~shift:6 ~bits:28 dst lor field ~shift:34 ~bits:28 src

(* A spill or restore of lanes [lane, lane + n) before packing, so
   neighbours can merge. *)
type lane_run = {
  kind : int;
  counts : int;
  ty : int;
  off : int;
  lane : int;
  mutable n : int;
  reg : int;
}

let one_lane kind ~counts ~lane ~ty ~off ~reg =
  ignore (field ~shift:0 ~bits:22 off);
  ignore (field ~shift:0 ~bits:32 reg);
  { kind; counts; ty = dtype_index ty; off; lane; n = 1; reg }

type step = Step of int | Run of lane_run

(* What one instruction lowers to: its own closure and its counts, or
   glue steps. *)
type piece = Op of code * int | Glue of step list

let lower_instr ~ws ~src ~dst ~exact ~pre ~post (i : Ir.instr) : piece =
  let counts = step_counts ~pre ~post and m = pre lor (post lsl 2) in
  let glue = function
    | Step x :: rest -> Glue (Step (x lor counts) :: rest)
    | [] -> Op (ignore, m)
    | steps -> Glue steps
  in
  (* Lanes [0, w) of [d] from [a] (a splat when [a] is scalar), then lane
     [lane] from [s]: slot copies when the classes agree. *)
  let copies d w a extra =
    let same (s : src) = cls_of s = cls_of d in
    if same a && Option.fold ~none:true ~some:(fun (_, s) -> same s) extra then
      (* inserting into the register itself leaves the other lanes be *)
      let in_place = base_of a = base_of d && stride_of a = 1 in
      let fill =
        if extra <> None && in_place then []
        else List.init w (fun l -> (base_of d + l, base_of a + (l * stride_of a)))
      in
      let set = Option.fold ~none:[] ~some:(fun (lane, s) -> [ (base_of d + lane, base_of s) ]) extra in
      glue (List.map (fun (dst, src) -> Step (copy_step (cls_of d) ~dst ~src)) (fill @ set))
    else
      Op
        ( (fun st ->
          for l = 0 to w - 1 do
            put st d l (get st a l)
          done;
          Option.iter (fun (lane, s) -> put st d lane (get st s 0)) extra),
          m )
  in
  let natural (s : src) ty = cls_of s = if Ast.is_float ty then Cf else Ci in
  match i with
  | Ir.Mov (ty, d, a) ->
      let w = ty.Ty.width and d = dst d and a = src a in
      lanes d w [ a ];
      copies d w a None
  | Ir.Broadcast (ty, d, a) ->
      let w = ty.Ty.width and d = dst d and a = scalar (src a) in
      lanes d w [];
      copies d w a None
  | Ir.Extract (_, d, a, lane) ->
      let d = dst d and a = src a in
      lanes d 1 [];
      has_lane a lane;
      copies d 1 (lane_of a lane) None
  | Ir.Insert (ty, d, v, lane, s) ->
      let d = dst d and v = src v and s = scalar (src s) in
      let w = if stride_of v = 1 then width_of v else ty.Ty.width in
      lanes d w [];
      if lane < 0 || lane >= w then raise (Bad "lane out of range");
      copies d w v (Some (lane, s))
  | Ir.Spill (lane, off, ty, v) ->
      let v = src v in
      has_lane v lane;
      thread_lane ~ws lane;
      if natural v ty then
        Glue
          [ Run (one_lane spill_kind ~counts ~lane ~ty ~off ~reg:(base_of v + (lane * stride_of v))) ]
      else
        Op
          ( (fun st ->
              st.counters.spills <- st.counters.spills + 1;
              Mem.store st.mem.local ty
                ((Array.unsafe_get st.warp.lanes lane).local_base + off)
                (get st v lane)),
            m )
  | Ir.Restore (d, lane, off, ty) ->
      let d = dst d in
      lanes d 1 [];
      thread_lane ~ws lane;
      if natural d ty then Glue [ Run (one_lane restore_kind ~counts ~lane ~ty ~off ~reg:(base_of d)) ]
      else
        Op
          ( (fun st ->
              st.counters.restores <- st.counters.restores + 1;
              put st d 0
                (Mem.load st.mem.local ty ((Array.unsafe_get st.warp.lanes lane).local_base + off))),
            m )
  | Ir.Ctx_read (d, f, lane) when cls_of (dst d) = Ci ->
      let d = dst d in
      lanes d 1 [];
      thread_lane ~ws lane;
      glue
        [
          Step
            (ctx_kind lor field ~shift:6 ~bits:9 lane
            lor field ~shift:15 ~bits:4 (field_code f)
            lor field ~shift:19 ~bits:32 (base_of d));
        ]
  | Ir.Set_resume (lane, v) when cls_of (src v) = Ci ->
      let v = scalar (src v) in
      thread_lane ~ws lane;
      glue [ Step (resume_kind lor field ~shift:6 ~bits:9 lane lor field ~shift:15 ~bits:32 (base_of v)) ]
  | Ir.Set_status s -> glue [ Step (status_kind lor field ~shift:6 ~bits:2 (status_code s)) ]
  | _ -> Op (compile_op ~ws ~src ~dst ~exact i, m)

let compile_instr ~ws ~src ~dst ~exact ~pre ~post i =
  try lower_instr ~ws ~src ~dst ~exact ~pre ~post i
  with Exit -> raise (Bad "lane, local offset or register file beyond the glue step layout")

(* A merged spill: lane [lane0 + l] stores register slot [reg + l], each
   lane counted just before its access. *)
let spill_run st x off =
  let c = st.counters and pre = get_field x ~shift:3 ~bits:2 and post = get_field x ~shift:5 ~bits:1 in
  let t = Array.unsafe_get dtypes (get_field x ~shift:25 ~bits:4) in
  let lane0 = get_field x ~shift:6 ~bits:9 and n = get_field x ~shift:15 ~bits:10 in
  let reg = x lsr 29 and lanes = st.warp.lanes and m = st.mem.local and size = t.size in
  if t.fl then
    for l = 0 to n - 1 do
      c.dyn_instrs <- c.dyn_instrs + pre;
      c.spills <- c.spills + 1;
      let a = (Array.unsafe_get lanes (lane0 + l)).local_base + off in
      store_bits m size a (bits_of_float size (Array.unsafe_get st.rf (reg + l)));
      c.dyn_instrs <- c.dyn_instrs + post
    done
  else
    for l = 0 to n - 1 do
      c.dyn_instrs <- c.dyn_instrs + pre;
      c.spills <- c.spills + 1;
      let a = (Array.unsafe_get lanes (lane0 + l)).local_base + off in
      store_bits m size a (norm t.n (get64u st.ri ((reg + l) lsl 3)));
      c.dyn_instrs <- c.dyn_instrs + post
    done

(* A merged restore: lane [lane0 + l] loads register slot [reg + l]. *)
let restore_run st x off =
  let c = st.counters and pre = get_field x ~shift:3 ~bits:2 and post = get_field x ~shift:5 ~bits:1 in
  let t = Array.unsafe_get dtypes (get_field x ~shift:25 ~bits:4) in
  let lane0 = get_field x ~shift:6 ~bits:9 and n = get_field x ~shift:15 ~bits:10 in
  let reg = x lsr 29 and lanes = st.warp.lanes and m = st.mem.local and size = t.size in
  if t.fl then
    for l = 0 to n - 1 do
      c.dyn_instrs <- c.dyn_instrs + pre;
      c.restores <- c.restores + 1;
      let a = (Array.unsafe_get lanes (lane0 + l)).local_base + off in
      Array.unsafe_set st.rf (reg + l) (float_of_bits size (load_bits m size a));
      c.dyn_instrs <- c.dyn_instrs + post
    done
  else
    for l = 0 to n - 1 do
      c.dyn_instrs <- c.dyn_instrs + pre;
      c.restores <- c.restores + 1;
      let a = (Array.unsafe_get lanes (lane0 + l)).local_base + off in
      set64u st.ri ((reg + l) lsl 3) (norm t.n (load_bits m size a));
      c.dyn_instrs <- c.dyn_instrs + post
    done

(* Walk a glue table.  Every step counts its own instructions.  Slots,
   lanes and type indices were proven in range when the steps were
   packed, so none is checked again here. *)
let glue_run (g : int array) : code =
 fun st ->
  let c = st.counters in
  let k = ref 0 in
  while !k < Array.length g do
    let x = Array.unsafe_get g !k in
    (match x land 7 with
    | 3 ->
        incr k;
        spill_run st x (Array.unsafe_get g !k)
    | 4 ->
        incr k;
        restore_run st x (Array.unsafe_get g !k)
    | kind -> (
        (* nothing below can fault, so both counts go first *)
        c.dyn_instrs <- c.dyn_instrs + get_field x ~shift:3 ~bits:2 + get_field x ~shift:5 ~bits:1;
        match kind with
        | 0 ->
            Array.unsafe_set st.rf (get_field x ~shift:6 ~bits:28) (Array.unsafe_get st.rf (x lsr 34))
        | 1 -> set64u st.ri (get_field x ~shift:6 ~bits:28 lsl 3) (get64u st.ri ((x lsr 34) lsl 3))
        | 2 ->
            Array.unsafe_set st.rb (get_field x ~shift:6 ~bits:28) (Array.unsafe_get st.rb (x lsr 34))
        | 5 ->
            let v = ctx_value st (get_field x ~shift:15 ~bits:4) (get_field x ~shift:6 ~bits:9) in
            set64u st.ri ((x lsr 19) lsl 3) (Int64.of_int v)
        | 6 ->
            (Array.unsafe_get st.warp.lanes (get_field x ~shift:6 ~bits:9)).resume_point <-
              Int64.to_int (norm s32 (get64u st.ri ((x lsr 15) lsl 3)))
        | _ -> st.warp.status <- status_of_code (x lsr 6)));
    incr k
  done

(* A glue run's steps, neighbouring spills or restores of consecutive
   lanes and register slots at one offset merged, packed into words; and
   the number of steps left. *)
let pack (steps : step list) : int array * int =
  (* last step first, merging into the run before, counting words and steps *)
  let rec merge acc words n = function
    | [] -> (acc, words, n)
    | (Run r as s) :: rest -> (
        match acc with
        | Run p :: _
          when r.kind = p.kind && r.counts = p.counts && r.ty = p.ty && r.off = p.off
               && r.lane = p.lane + p.n && r.reg = p.reg + p.n ->
            p.n <- p.n + 1;
            merge acc words n rest
        | _ -> merge (s :: acc) (words + 2) (n + 1) rest)
    | s :: rest -> merge (s :: acc) (words + 1) (n + 1) rest
  in
  let merged, words, n = merge [] 0 0 steps in
  let g = Array.make words 0 in
  let rec fill k = function
    | [] -> ()
    | Step x :: rest ->
        g.(k - 1) <- x;
        fill (k - 1) rest
    | Run r :: rest ->
        g.(k - 2) <-
          r.kind lor r.counts lor (r.lane lsl 6) lor (r.n lsl 15) lor (r.ty lsl 25) lor (r.reg lsl 29);
        g.(k - 1) <- r.off;
        fill (k - 2) rest
  in
  fill words merged;
  (g, n)

(* A block's closures and their counts ({!run} adds a closure's [pre]
   before calling it and its [post] after it returns), and its number of
   closures plus glue steps, from its pieces last first.  Consecutive
   glue becomes one {!glue_run}, which counts itself. *)
let fuse (pieces : piece list) : code array * int array * int =
  let rec go codes counts size = function
    | [] -> (Array.of_list codes, Array.of_list counts, size)
    | Op (c, m) :: rest -> go (c :: codes) (m :: counts) (size + 1) rest
    | Glue _ :: _ as ps ->
        let rec take steps = function
          | Glue g :: rest -> take (g @ steps) rest
          | rest -> (steps, rest)
        in
        let steps, rest = take [] ps in
        let g, n = pack steps in
        go (glue_run g :: codes) (0 :: counts) (size + n) rest
  in
  go [] [] 0 pieces

(* Immediates by tag and 64-bit pattern, hashed and compared without
   the polymorphic primitives. *)
module Imm_tbl = Hashtbl.Make (struct
  type t = int * int64

  let equal ((t, x) : t) (u, y) = t = u && Int64.equal x y
  let hash ((t, x) : t) =
    Int64.to_int x lxor (Int64.to_int (Int64.shift_right_logical x 32) * 31) lxor t
end)

(** Lower [f] once for [machine]: every block also carries its modelled
    cycles, flops and source-line shares, charged per execution by
    {!run}. *)
let compile ~(machine : Machine.t) (f : Ir.func) : t =
  (* Registers no instruction mentions (left behind by the passes) get
     no slots.  For the folds, [uses] counts reads, terminators included,
     [defs] definitions, and [read_at] says where the last read was: its
     instruction's position in layout order, or -1 for a terminator. *)
  let blocks = Ir.blocks f and nregs = f.Ir.nregs in
  let used = Array.make nregs false in
  let uses = Array.make nregs 0 and defs = Array.make nregs 0 in
  let read_at = Array.make nregs (-1) and at = ref 0 in
  let read r =
    used.(r) <- true;
    uses.(r) <- uses.(r) + 1;
    read_at.(r) <- !at
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun ({ Ir.i; _ } : Ir.li) ->
          let d = Ir.def i in
          if d >= 0 then begin
            used.(d) <- true;
            defs.(d) <- defs.(d) + 1
          end;
          Ir.iter_uses read i;
          incr at)
        b.Ir.insts;
      List.iter
        (fun r ->
          read r;
          read_at.(r) <- -1)
        (Ir.term_uses b.Ir.term))
    blocks;
  (* the facts of the unfolded code: a fold moves no value between classes *)
  let facts = infer_tags f ~used in
  let cls_of_tags t =
    let t = t land (tag_i lor tag_f) in
    if t = tag_f then Cf else if t = tag_i then Ci else Cb
  in
  let reg_cls r = cls_of_tags facts.(r) and width r = (Ir.reg_ty f r).Ty.width in
  let once r = uses.(r) = 1 && defs.(r) = 1 in
  let reads i r =
    let found = ref false in
    Ir.iter_uses (fun u -> if u = r then found := true) i;
    !found
  in
  (* The folds of one block, decided on its instructions: [into_next.(k)]
     says the extract at [k] folds into the instruction after it,
     [into_prev.(k)] that the insert at [k] folds into the one before. *)
  let folded = Array.make nregs false in
  at := 0;
  let plan_folds (b : Ir.block) =
    let insts = Array.of_list b.Ir.insts in
    let n = Array.length insts and base = !at in
    at := base + n;
    let into_next = Array.make n false and into_prev = Array.make n false in
    for k = 0 to n - 2 do
      match insts.(k).Ir.i with
      | Ir.Extract (_, d, a, l) when once d && read_at.(d) = base + k + 1 ->
          let next = insts.(k + 1).Ir.i in
          let fits =
            match a with
            | Ir.R r -> Ir.def next <> r && reg_cls r = reg_cls d && (width r = 1 || l < width r)
            | Ir.Imm (v, _) -> cls_of_tags (facts_of_value v) = reg_cls d
          in
          if
            fits && l >= 0 && width d = 1 && Ir.def next <> d
            && match next with Ir.Extract _ -> false | _ -> true
          then begin
            into_next.(k) <- true;
            folded.(d) <- true
          end
      | _ -> ()
    done;
    for k = 1 to n - 1 do
      match insts.(k).Ir.i with
      | Ir.Insert (_, v, Ir.R v', l, Ir.R s)
        when v = v' && s <> v && once s && not into_next.(k - 1) ->
          let producer = insts.(k - 1).Ir.i in
          let reads_v () =
            reads producer v
            || k >= 2 && into_next.(k - 2)
               && match insts.(k - 2).Ir.i with Ir.Extract (_, _, Ir.R a, _) -> a = v | _ -> false
          in
          if
            Ir.def producer = s && width s = 1 && width v > 1 && l >= 0 && l < width v
            && reg_cls s = reg_cls v && not (reads_v ())
          then begin
            into_prev.(k) <- true;
            folded.(s) <- true
          end
      | _ -> ()
    done;
    (insts, into_next, into_prev)
  in
  let folds = List.map plan_folds blocks in
  let nf = ref 0 and ni = ref 0 and nb = ref 0 in
  let alloc cls w =
    let n = match cls with Cf -> nf | Ci -> ni | Cb -> nb in
    let base = !n in
    n := base + w;
    base
  in
  let regs =
    Array.init f.Ir.nregs (fun r ->
        if (not used.(r)) || folded.(r) then None
        else
          let ty = Ir.reg_ty f r in
          let cls = cls_of_tags facts.(r) and w = ty.Ty.width in
          let zero = if Ast.is_float ty.Ty.elt then Scalar_ops.F 0.0 else Scalar_ops.I 0L in
          Some (src ~cls ~base:(alloc cls w) ~width:w, zero))
  in
  let slot r = fst (Option.get regs.(r)) in
  let f_regs = !nf and i_regs = !ni in
  let imms = Imm_tbl.create 16 in
  let src = function
    | Ir.R r -> slot r
    | Ir.Imm (v, _) -> (
        let key =
          match v with
          | Scalar_ops.I x -> (tag_i, x)
          | Scalar_ops.F x -> (tag_f, Int64.bits_of_float x)
        in
        match Imm_tbl.find_opt imms key with
        | Some (s, _) -> s
        | None ->
            let cls = cls_of_tags (fst key) in
            let s = src ~cls ~base:(alloc cls 1) ~width:1 in
            Imm_tbl.replace imms key (s, v);
            s)
  in
  let index = Ir.Stbl.create 16 in
  List.iteri (fun k (b : Ir.block) -> Ir.Stbl.replace index b.Ir.label k) blocks;
  let target l =
    match Ir.Stbl.find_opt index l with
    | Some k -> k
    | None -> invalid_arg (Fmt.str "Interp.compile: no block %s in %s" l f.Ir.fname)
  in
  let lower_term = function
    | Ir.Jump l -> Goto (target l)
    | Ir.Branch (c, t, e) ->
        let c = src c in
        if stride_of c = 1 then Fail "vector value in scalar position"
        else If (c, target t, target e)
    | Ir.Switch (v, cases, default) ->
        let v = src v in
        if stride_of v = 1 then Fail "vector value in scalar position"
        else
          Switch
            ( v,
              Array.of_list (List.map (fun (x, l) -> (x, target l)) cases),
              target default )
    | Ir.Barrier _ -> Fail "barrier terminator in compiled function"
    | Ir.Return -> Yield
  in
  let timing = Timing.state machine f in
  let ws = f.Ir.warp_size and exact = exact facts in
  let size = ref 0 in
  (* Instruction [k], with a folded extract before it read through [src]
     and a folded insert after it written through [dst]. *)
  let lower_at (insts : Ir.li array) into_next into_prev k =
    let folds_extract = k > 0 && into_next.(k - 1)
    and folds_insert = k + 1 < Array.length insts && into_prev.(k + 1) in
    let src =
      if not folds_extract then src
      else
        match insts.(k - 1).Ir.i with
        | Ir.Extract (_, d, a, l) ->
            let lane = lane_of (src a) l in
            fun o -> (match o with Ir.R r when r = d -> lane | o -> src o)
        | _ -> assert false
    in
    let dst =
      if not folds_insert then slot
      else
        match insts.(k + 1).Ir.i with
        | Ir.Insert (_, v, _, l, Ir.R s) ->
            let lane = lane_of (slot v) l in
            fun r -> if r = s then lane else slot r
        | _ -> assert false
    in
    let pre = if folds_extract then 2 else 1 and post = if folds_insert then 1 else 0 in
    try compile_instr ~ws ~src ~dst ~exact ~pre ~post insts.(k).Ir.i
    with Bad reason -> Op ((fun _ -> raise (Trap reason)), pre lor (post lsl 2))
  in
  let lower (b : Ir.block) (insts, into_next, into_prev) =
    (* last first, as {!fuse} takes them *)
    let pieces = ref [] in
    for k = 0 to Array.length insts - 1 do
      if not (into_next.(k) || into_prev.(k)) then
        pieces := lower_at insts into_next into_prev k :: !pieces
    done;
    let code, counts, n = fuse !pieces in
    size := !size + n;
    let c = Timing.block timing b in
    let cost =
      { cycles = c.Timing.cycles +. Timing.term_cost; flops = c.flops; shares = c.shares }
    in
    { label = b.Ir.label; kind = b.Ir.kind; cost; code; counts; term = lower_term b.Ir.term }
  in
  let blocks = Array.of_list (List.map2 lower blocks folds) in
  let f_imms = Array.make (!nf - f_regs) 0.0 and i_imms = Bytes.make ((!ni - i_regs) * 8) '\000' in
  let rb0 = Array.make !nb (Scalar_ops.I 0L) in
  let init (s : src) v =
    for l = 0 to width_of s - 1 do
      let k = base_of s + l in
      match (cls_of s, v) with
      | Cf, Scalar_ops.F x -> if k >= f_regs then f_imms.(k - f_regs) <- x
      | Ci, Scalar_ops.I x -> if k >= i_regs then set64 i_imms ((k - i_regs) lsl 3) x
      | _ -> rb0.(k) <- v
    done
  in
  Array.iter (Option.iter (fun (s, zero) -> init s zero)) regs;
  Imm_tbl.iter (fun _ (s, v) -> init s v) imms;
  {
    name = f.Ir.fname;
    warp_size = f.Ir.warp_size;
    entry = target f.Ir.entry;
    blocks;
    nf = !nf;
    f_imms;
    ni = !ni;
    i_imms;
    rb0;
    size = !size;
  }

(** Closures plus glue steps in [c]: what a run can execute, against the
    IR instructions it came from. *)
let size c = c.size

(* Each domain keeps one register file and one cycle tally and lends
   them to one call at a time: a call resets the file to the compiled
   defaults, so nothing leaks from the previous call, and no call
   allocates a register file on the major heap.  A call made while the
   domain's file is lent out (from a hook, or from another thread of the
   domain) gets a fresh one. *)
type spare = {
  mutable sf : float array;
  mutable si : Bytes.t;
  mutable sb : Scalar_ops.value array;
  scyc : tally;
  mutable lent : bool;
}

let spare =
  Domain.DLS.new_key (fun () ->
      { sf = [||]; si = Bytes.empty; sb = [||]; scyc = fresh_tally (); lent = false })

(* The state of one call of [c]: a register file at least [c]'s size
   holding its defaults, the domain's when it is free, and a tally
   starting from [counters]' cycle totals. *)
let lend s c ~warp ~mem ~launch ~counters ~on_access ~profile ~attr =
  (* nothing between the test and the set can switch threads *)
  let own = not s.lent in
  let nb = Array.length c.rb0 in
  let st =
    if own then begin
      s.lent <- true;
      if Array.length s.sf < c.nf then s.sf <- Array.make c.nf 0.0;
      if Bytes.length s.si < c.ni * 8 then s.si <- Bytes.create (c.ni * 8);
      if Array.length s.sb < nb then s.sb <- Array.make nb (Scalar_ops.I 0L);
      { rf = s.sf; ri = s.si; rb = s.sb; warp; mem; launch; counters; cyc = s.scyc;
        on_access; profile; attr; own }
    end
    else
      { rf = Array.make c.nf 0.0; ri = Bytes.create (c.ni * 8);
        rb = Array.make nb (Scalar_ops.I 0L); warp; mem; launch; counters;
        cyc = fresh_tally (); on_access; profile; attr; own }
  in
  let fz = c.nf - Array.length c.f_imms and iz = (c.ni * 8) - Bytes.length c.i_imms in
  Array.fill st.rf 0 fz 0.0;
  Array.blit c.f_imms 0 st.rf fz (Array.length c.f_imms);
  Bytes.fill st.ri 0 iz '\000';
  Bytes.blit c.i_imms 0 st.ri iz (Bytes.length c.i_imms);
  Array.blit c.rb0 0 st.rb 0 nb;
  let y = st.cyc in
  y.t_body <- counters.cycles_body;
  y.t_scheduler <- counters.cycles_scheduler;
  y.t_entry <- counters.cycles_entry;
  y.t_exit <- counters.cycles_exit;
  st

(* The call is over, normally or not: write its cycle totals back and
   return the domain's register file.  The totals grew one block at a
   time from the counters' own values, so they sum exactly as if each
   block were charged to [counters] directly. *)
let settle s st =
  let c = st.counters and y = st.cyc in
  c.cycles_body <- y.t_body;
  c.cycles_scheduler <- y.t_scheduler;
  c.cycles_entry <- y.t_entry;
  c.cycles_exit <- y.t_exit;
  if st.own then s.lent <- false

(* Charge one execution of [b]. *)
let account st (b : block) =
  let counters = st.counters in
  counters.blocks_executed <- counters.blocks_executed + 1;
  (match st.profile with
  | None -> ()
  | Some p -> Vekt_obs.Divergence.touch_block p b.label);
  let k = b.cost and y = st.cyc in
  counters.flops <- counters.flops + k.flops;
  (match b.kind with
  | Ir.Body -> y.t_body <- y.t_body +. k.cycles
  | Ir.Scheduler -> y.t_scheduler <- y.t_scheduler +. k.cycles
  | Ir.Entry_handler -> y.t_entry <- y.t_entry +. k.cycles
  | Ir.Exit_handler -> y.t_exit <- y.t_exit +. k.cycles);
  (* Source-line attribution: charge the block's precomputed integer
     line shares under the entry point this warp was dispatched at.
     [entry_id] is read at charge time, so scheduler-block work before
     an entry handler runs lands under the entry being dispatched. *)
  match st.attr with
  | None -> ()
  | Some a -> Vekt_obs.Attribution.charge a ~entry_id:st.warp.entry_id k.shares

(* The first case of [cases] from [k] on whose key is [x], else [default]. *)
let rec case_target (cases : (int * int) array) (x : int) default k =
  if k = Array.length cases then default
  else
    let key, target = Array.unsafe_get cases k in
    if Int.equal key x then target else case_target cases x default (k + 1)

(* Run blocks from [pc] until one yields; [fuel] more may run.  Block
   indices are the lowering's own, so they are not checked again. *)
let rec execute st c pc fuel =
  if fuel <= 0 then raise Out_of_fuel;
  let b = Array.unsafe_get c.blocks pc in
  account st b;
  let code = b.code and counts = b.counts and counters = st.counters in
  for k = 0 to Array.length code - 1 do
    let m = Array.unsafe_get counts k in
    counters.dyn_instrs <- counters.dyn_instrs + (m land 3);
    (Array.unsafe_get code k) st;
    counters.dyn_instrs <- counters.dyn_instrs + (m lsr 2)
  done;
  match b.term with
  | Goto t -> execute st c t (fuel - 1)
  | If (cond, t, e) ->
      let taken =
        match cls_of cond with
        | Ci -> iget st cond 0 <> 0L
        | _ -> Scalar_ops.to_bool (get st cond 0)
      in
      execute st c (if taken then t else e) (fuel - 1)
  | Switch (v, cases, default) ->
      let x =
        match cls_of v with
        | Ci -> Int64.to_int (norm s32 (iget st v 0))
        | _ -> Int64.to_int (Scalar_ops.as_int Ast.S32 (get st v 0))
      in
      execute st c (case_target cases x default 0) (fuel - 1)
  | Yield -> ()
  | Fail reason -> raise (Trap reason)

(* Structured trap with [warp]'s context: CTA and linear tid of the first
   lane (the faulting lane when the access is per-warp), plus the entry
   point the warp was dispatched at.  The modelled cycle is attached one
   level up, by the execution manager. *)
let ctx_error c ~launch warp ?access reason =
  let t0 = warp.lanes.(0) in
  Vekt_error.Error
    (Vekt_error.Trap
       {
         kernel = c.name;
         cta = Some (t0.ctaid.Launch.x, t0.ctaid.Launch.y, t0.ctaid.Launch.z);
         tid = Some (Launch.linear ~dims:launch.block t0.tid);
         entry = Some warp.entry_id;
         cycle = None;
         access;
         reason;
       })

(** Run [c] for [warp] until it returns to the execution manager.

    @param fuel maximum blocks executed in this call (default 10M):
    uniform loops run entirely inside the function, so a diverging kernel
    with a runaway uniform loop must be bounded here.  Exactly [fuel]
    blocks may run; entering one more raises {!Out_of_fuel}.
    @param profile when given, per-block execution counts are recorded
    into its hotness table (the divergence profiler's input); [None]
    costs one match per block.
    @param on_access called before every memory instruction with the PTX
    address space, guest address and width — the fault-injection
    tripwire ({!Vekt_runtime.Fault}); [None] costs one match per memory
    instruction.

    [counters] are final when the call returns or raises; its cycle
    totals are written back then, so one [counters] must not be shared
    by calls in flight at once.

    A guest memory fault ({!Vekt_ptx.Mem.Fault}) or an internal trap is
    re-raised as {!Vekt_error.Error} with the warp's thread/CTA context
    attached at this boundary, so the raw segment exception never
    escapes to the user. *)
let run ?(counters = fresh_counters ()) ?(fuel = 10_000_000)
    ?(profile : Vekt_obs.Divergence.t option)
    ?(attr : Vekt_obs.Attribution.t option)
    ?(on_access : (Ast.space -> addr:int -> width:int -> unit) option)
    (c : t) ~(launch : launch_info) (warp : warp) (mem : memories) : unit =
  if Array.length warp.lanes <> c.warp_size then
    raise
      (ctx_error c ~launch warp
         (Fmt.str "warp has %d lanes but %s is a %d-wide specialization"
            (Array.length warp.lanes) c.name c.warp_size));
  counters.kernel_calls <- counters.kernel_calls + 1;
  let s = Domain.DLS.get spare in
  let st = lend s c ~warp ~mem ~launch ~counters ~on_access ~profile ~attr in
  match execute st c c.entry fuel with
  | () -> settle s st
  | exception Mem.Fault a ->
      settle s st;
      raise (ctx_error c ~launch warp ~access:a "memory fault")
  | exception Trap reason ->
      settle s st;
      raise (ctx_error c ~launch warp reason)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      settle s st;
      Printexc.raise_with_backtrace e bt
