(** Interpreter for compiled (vectorized) IR functions.

    Plays the role of the native code the paper's LLVM JIT emits: the
    execution manager calls a specialization with a warp of thread
    contexts and an entry-point ID; the function runs — through the
    scheduler block, an entry handler, vectorized bodies — until it yields
    ([Return]), having recorded each lane's resume point and the warp's
    resume status in the context objects.

    Results are bit-identical to the {!Vekt_ptx.Emulator} oracle because
    both defer scalar semantics to {!Vekt_ptx.Scalar_ops}.  When a
    {!Timing.t} is supplied, simulated cycles are accumulated per executed
    block and attributed to the block's kind (body / scheduler / entry /
    exit), which Figure 9 reports. *)

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

(** Register values: scalars or lane arrays. *)
type rval = S of Scalar_ops.value | V of Scalar_ops.value array

let default_rval (ty : Ty.t) =
  let z = if Ast.is_float ty.Ty.elt then Scalar_ops.F 0.0 else Scalar_ops.I 0L in
  if ty.Ty.width = 1 then S z else V (Array.make ty.Ty.width z)

let lane_val (v : rval) i =
  match v with S x -> x | V a -> a.(i)

let scalar_val = function
  | S x -> x
  | V _ -> raise (Trap "vector value in scalar position")

let as_addr v =
  match scalar_val v with
  | Scalar_ops.I x -> Int64.to_int x
  | Scalar_ops.F _ -> raise (Trap "float used as address")

(** Execute [f] for [warp] until it returns to the execution manager.

    @param fuel maximum dynamic blocks executed in this call (default 10M):
    uniform loops run entirely inside the function, so a diverging kernel
    with a runaway uniform loop must be bounded here.
    @param profile when given, per-block execution counts are recorded
    into its hotness table (the divergence profiler's input); [None]
    costs one match per block.
    @param on_access called before every memory instruction with the PTX
    address space, guest address and width — the fault-injection
    tripwire ({!Vekt_runtime.Fault}); [None] costs one match per memory
    instruction.

    A guest memory fault ({!Vekt_ptx.Mem.Fault}) or an internal trap is
    re-raised as {!Vekt_error.Error} with the warp's thread/CTA context
    attached at this boundary, so the raw segment exception never
    escapes to the user. *)
let exec ?timing ?(counters = fresh_counters ()) ?(fuel = 10_000_000)
    ?(profile : Vekt_obs.Divergence.t option)
    ?(attr : Vekt_obs.Attribution.t option)
    ?(on_access : (Ast.space -> addr:int -> width:int -> unit) option)
    (f : Ir.func) ~(launch : launch_info) (warp : warp) (mem : memories) :
    unit =
  (* Structured trap with this warp's context: CTA and linear tid of the
     first lane (the faulting lane when the access is per-warp), plus
     the entry point the warp was dispatched at.  The modelled cycle is
     attached one level up, by the execution manager. *)
  let ctx_error ?access reason =
    let t0 = warp.lanes.(0) in
    Vekt_error.Error
      (Vekt_error.Trap
         {
           kernel = f.Ir.fname;
           cta = Some (t0.ctaid.Launch.x, t0.ctaid.Launch.y, t0.ctaid.Launch.z);
           tid = Some (Launch.linear ~dims:launch.block t0.tid);
           entry = Some warp.entry_id;
           cycle = None;
           access;
           reason;
         })
  in
  if Array.length warp.lanes <> f.Ir.warp_size then
    raise
      (ctx_error
         (Fmt.str "warp has %d lanes but %s is a %d-wide specialization"
            (Array.length warp.lanes) f.Ir.fname f.Ir.warp_size));
  counters.kernel_calls <- counters.kernel_calls + 1;
  let regs = Array.init f.Ir.nregs (fun r -> default_rval (Ir.reg_ty f r)) in
  let operand (o : Ir.operand) : rval =
    match o with Ir.R r -> regs.(r) | Ir.Imm (v, _) -> S v
  in
  let seg = function
    | Ast.Param -> mem.params
    | Ast.Global -> mem.global
    | Ast.Shared -> mem.shared
    | Ast.Local -> mem.local
    | Ast.Const -> mem.consts
  in
  let dim3_field (d : Launch.dim3) = function
    | Ast.X -> d.Launch.x
    | Ast.Y -> d.Launch.y
    | Ast.Z -> d.Launch.z
  in
  let ctx_read field lane =
    let t = warp.lanes.(lane) in
    let v =
      match field with
      | Ir.Tid d -> dim3_field t.tid d
      | Ir.Ntid d -> dim3_field launch.block d
      | Ir.Ctaid d -> dim3_field t.ctaid d
      | Ir.Nctaid d -> dim3_field launch.grid d
      | Ir.Lane -> lane
      | Ir.Local_base -> t.local_base
      | Ir.Warp_width -> f.Ir.warp_size
      | Ir.Entry_id -> warp.entry_id
    in
    Scalar_ops.I (Int64.of_int v)
  in
  let elementwise ty fn ops =
    if ty.Ty.width = 1 then S (fn (List.map (fun o -> lane_val o 0) ops))
    else V (Array.init ty.Ty.width (fun i -> fn (List.map (fun o -> lane_val o i) ops)))
  in
  (* One tripwire call per memory instruction executed; a no-op branch
     when no hook is installed, so the uninstrumented path costs nothing
     beyond the match. *)
  let touch sp ~addr ~width =
    match on_access with None -> () | Some h -> h sp ~addr ~width
  in
  let exec_instr (i : Ir.instr) =
    counters.dyn_instrs <- counters.dyn_instrs + 1;
    match i with
    | Ir.Bin (op, ty, d, a, b) ->
        regs.(d) <-
          elementwise ty
            (function [ x; y ] -> Scalar_ops.binop op ty.Ty.elt x y | _ -> assert false)
            [ operand a; operand b ]
    | Ir.Un (op, ty, d, a) ->
        regs.(d) <-
          elementwise ty
            (function [ x ] -> Scalar_ops.unop op ty.Ty.elt x | _ -> assert false)
            [ operand a ]
    | Ir.Fma (ty, d, a, b, c) ->
        regs.(d) <-
          elementwise ty
            (function
              | [ x; y; z ] -> Scalar_ops.mad ty.Ty.elt x y z | _ -> assert false)
            [ operand a; operand b; operand c ]
    | Ir.Cmp (op, ty, d, a, b) ->
        regs.(d) <-
          elementwise ty
            (function
              | [ x; y ] -> Scalar_ops.of_bool (Scalar_ops.cmp op ty.Ty.elt x y)
              | _ -> assert false)
            [ operand a; operand b ]
    | Ir.Select (ty, d, c, a, b) ->
        regs.(d) <-
          elementwise ty
            (function
              | [ cv; x; y ] -> if Scalar_ops.to_bool cv then x else y
              | _ -> assert false)
            [ operand c; operand a; operand b ]
    | Ir.Mov (ty, d, a) ->
        regs.(d) <- elementwise ty (function [ x ] -> x | _ -> assert false) [ operand a ]
    | Ir.Cvt (dt, st, d, a) ->
        regs.(d) <-
          elementwise dt
            (function
              | [ x ] -> Scalar_ops.cvt ~dst:dt.Ty.elt ~src:st.Ty.elt x
              | _ -> assert false)
            [ operand a ]
    | Ir.Load (sp, ty, d, base, off) ->
        let a = as_addr (operand base) + off in
        touch sp ~addr:a ~width:(Ast.size_of ty);
        regs.(d) <- S (Mem.load (seg sp) ty a)
    | Ir.Store (sp, ty, base, off, v) ->
        let a = as_addr (operand base) + off in
        touch sp ~addr:a ~width:(Ast.size_of ty);
        Mem.store (seg sp) ty a (scalar_val (operand v))
    | Ir.Vload (sp, ty, d, base, off) ->
        let seg = seg sp in
        let a = as_addr (operand base) + off in
        let sz = Ast.size_of ty in
        touch sp ~addr:a ~width:(sz * f.Ir.warp_size);
        regs.(d) <-
          V (Array.init f.Ir.warp_size (fun i -> Mem.load seg ty (a + (i * sz))))
    | Ir.Vstore (sp, ty, base, off, v) ->
        let seg = seg sp in
        let a = as_addr (operand base) + off in
        let sz = Ast.size_of ty in
        touch sp ~addr:a ~width:(sz * f.Ir.warp_size);
        let v = operand v in
        for i = 0 to f.Ir.warp_size - 1 do
          Mem.store seg ty (a + (i * sz)) (lane_val v i)
        done
    | Ir.Atomic (sp, op, ty, d, base, off, v, c) ->
        let s = seg sp in
        let addr = as_addr (operand base) + off in
        touch sp ~addr ~width:(Ast.size_of ty);
        let arg = scalar_val (operand v)
        and cmp = Option.map (fun c -> scalar_val (operand c)) c in
        let old =
          match sp with
          | Ast.Global ->
              Mutex.protect global_atomic_lock (fun () ->
                  let old = Mem.load s ty addr in
                  Mem.store s ty addr (Scalar_ops.atom op ty old arg cmp);
                  old)
          | _ ->
              let old = Mem.load s ty addr in
              Mem.store s ty addr (Scalar_ops.atom op ty old arg cmp);
              old
        in
        regs.(d) <- S old
    | Ir.Broadcast (ty, d, a) ->
        let x = scalar_val (operand a) in
        regs.(d) <- V (Array.make ty.Ty.width x)
    | Ir.Extract (_, d, a, lane) -> regs.(d) <- S (lane_val (operand a) lane)
    | Ir.Insert (ty, d, v, lane, s) ->
        let dst =
          match operand v with
          | V a -> Array.copy a
          | S x -> Array.make ty.Ty.width x
        in
        dst.(lane) <- scalar_val (operand s);
        regs.(d) <- V dst
    | Ir.Reduce_add (d, a) ->
        let v = operand a in
        let n = match v with V a -> Array.length a | S _ -> 1 in
        let sum = ref 0L in
        for i = 0 to n - 1 do
          sum := Int64.add !sum (Scalar_ops.as_int Ast.S32 (lane_val v i))
        done;
        regs.(d) <- S (Scalar_ops.I !sum)
    | Ir.Ctx_read (d, field, lane) -> regs.(d) <- S (ctx_read field lane)
    | Ir.Spill (lane, slot, ty, v) ->
        counters.spills <- counters.spills + 1;
        let addr = warp.lanes.(lane).local_base + slot in
        Mem.store mem.local ty addr (lane_val (operand v) lane)
    | Ir.Restore (d, lane, slot, ty) ->
        counters.restores <- counters.restores + 1;
        let addr = warp.lanes.(lane).local_base + slot in
        regs.(d) <- S (Mem.load mem.local ty addr)
    | Ir.Set_resume (lane, v) ->
        warp.lanes.(lane).resume_point <-
          Int64.to_int (Scalar_ops.as_int Ast.S32 (scalar_val (operand v)))
    | Ir.Set_status s -> warp.status <- s
  in
  let account (b : Ir.block) =
    counters.blocks_executed <- counters.blocks_executed + 1;
    (match profile with
    | None -> ()
    | Some p -> Vekt_obs.Divergence.touch_block p b.Ir.label);
    match timing with
    | None -> ()
    | Some t ->
        let c = Timing.cycles t b.Ir.label in
        counters.flops <- counters.flops + Timing.flops t b.Ir.label;
        (match b.Ir.kind with
        | Ir.Body -> counters.cycles_body <- counters.cycles_body +. c
        | Ir.Scheduler -> counters.cycles_scheduler <- counters.cycles_scheduler +. c
        | Ir.Entry_handler -> counters.cycles_entry <- counters.cycles_entry +. c
        | Ir.Exit_handler -> counters.cycles_exit <- counters.cycles_exit +. c);
        (* Source-line attribution: charge the block's precomputed integer
           line shares under the entry point this warp was dispatched at.
           [entry_id] is read at charge time, so scheduler-block work before
           an entry handler runs lands under the entry being dispatched. *)
        (match attr with
        | None -> ()
        | Some a ->
            Vekt_obs.Attribution.charge a ~entry_id:warp.entry_id
              (Timing.line_shares t b.Ir.label))
  in
  let fuel_left = ref fuel in
  let rec run_block label =
    decr fuel_left;
    if !fuel_left <= 0 then raise Out_of_fuel;
    let b = Ir.block f label in
    account b;
    List.iter (fun ({ Ir.i; _ } : Ir.li) -> exec_instr i) b.Ir.insts;
    match b.Ir.term with
    | Ir.Jump l -> run_block l
    | Ir.Branch (c, t, e) ->
        if Scalar_ops.to_bool (scalar_val (operand c)) then run_block t else run_block e
    | Ir.Switch (v, cases, default) ->
        let x = Int64.to_int (Scalar_ops.as_int Ast.S32 (scalar_val (operand v))) in
        run_block
          (match List.assoc_opt x cases with Some l -> l | None -> default)
    | Ir.Barrier _ -> raise (Trap "barrier terminator in compiled function")
    | Ir.Return -> ()
  in
  try run_block f.Ir.entry with
  | Mem.Fault a -> raise (ctx_error ~access:a "memory fault")
  | Trap reason -> raise (ctx_error reason)
