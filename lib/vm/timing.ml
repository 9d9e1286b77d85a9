(** Static per-block timing analysis.

    For each block of a compiled function we decompose its instructions
    into machine µops, run a small scoreboard (operand-ready times × issue
    port availability, an idealized out-of-order core with an unbounded
    window), estimate register pressure from per-instruction liveness and
    charge spill traffic for the excess, and record the resulting cycle
    cost.  {!Interp.compile} costs each block with {!block} in the walk
    that lowers it, and {!Interp.run} charges that cost for every dynamic
    execution of the block.

    This is the stand-in for "LLVM JIT code running on the i7-2600": the
    lane-width speedup, the latency-hiding-with-ILP effect and the
    register-pressure collapse at warp 8 on a 4-wide machine (Table 1) all
    fall out of the port/latency/pressure model rather than being wired
    in. *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty
module Liveness = Vekt_analysis.Liveness
open Vekt_ptx

(* [n] µops on [port] with result latency [lat], [n] the machine-register
   chunks of a vector of [ty] (one for a scalar). *)
let arith m emit (ty : Ty.t) port lat =
  let n = if ty.Ty.width > 1 then Machine.chunks m ty.Ty.elt ty.Ty.width else 1 in
  for _ = 1 to n do
    emit port lat
  done

let vec_class (ty : Ty.t) = Ast.is_float ty.Ty.elt || ty.Ty.width > 1

(** µop decomposition of one IR instruction: [emit port latency] once per
    µop, in issue order.  A vector wider than the machine costs one
    operation per machine-register chunk. *)
let iter_uops (m : Machine.t) (f : Ir.func) (i : Ir.instr) (emit : Machine.port -> int -> unit)
    =
  match i with
  | Ir.Bin (op, ty, _, _, _) -> (
      let fl = Ast.is_float ty.Ty.elt in
      match op with
      | Ast.Mul_lo when fl -> arith m emit ty Machine.Fp_mul (m.latency `Fp_mul)
      | Ast.Div when fl -> arith m emit ty Machine.Fp_mul (m.latency `Fp_div)
      | (Ast.Add | Ast.Sub | Ast.Min | Ast.Max) when fl ->
          arith m emit ty Machine.Fp_add (m.latency `Fp_addsub)
      | Ast.Rem when fl -> arith m emit ty Machine.Fp_mul (m.latency `Fp_div)
      | _ when vec_class ty -> arith m emit ty Machine.Valu (m.latency `Alu)
      | Ast.Div | Ast.Rem ->
          (* scalar integer division: long-latency, serialized *)
          emit Machine.Salu 20
      | _ -> arith m emit ty Machine.Salu (m.latency `Alu))
  | Ir.Un (op, ty, _, _) -> (
      match op with
      | Ast.Sqrt | Ast.Rsqrt | Ast.Rcp -> arith m emit ty Machine.Fp_mul (m.latency `Fp_div)
      | Ast.Sin | Ast.Cos | Ast.Ex2 | Ast.Lg2 ->
          (* vectorized transcendental approximations: a short polynomial
             kernel; charge several mul+add pairs *)
          arith m emit ty Machine.Fp_mul (m.latency `Fp_trans);
          arith m emit ty Machine.Fp_add (m.latency `Fp_addsub);
          arith m emit ty Machine.Fp_mul (m.latency `Fp_mul)
      | Ast.Neg | Ast.Abs when Ast.is_float ty.Ty.elt ->
          arith m emit ty Machine.Fp_add (m.latency `Fp_addsub)
      | _ when vec_class ty -> arith m emit ty Machine.Valu (m.latency `Alu)
      | _ -> arith m emit ty Machine.Salu (m.latency `Alu))
  | Ir.Fma (ty, _, _, _, _) ->
      if Ast.is_float ty.Ty.elt then begin
        (* pre-FMA hardware: a multiply feeding an add *)
        arith m emit ty Machine.Fp_mul (m.latency `Fp_mul);
        arith m emit ty Machine.Fp_add (m.latency `Fp_addsub)
      end
      else
        let port = if vec_class ty then Machine.Valu else Machine.Salu in
        arith m emit ty port (m.latency `Alu);
        arith m emit ty port (m.latency `Alu)
  | Ir.Cmp (_, ty, _, _, _) ->
      if Ast.is_float ty.Ty.elt then arith m emit ty Machine.Fp_add (m.latency `Fp_addsub)
      else if vec_class ty then arith m emit ty Machine.Valu (m.latency `Alu)
      else arith m emit ty Machine.Salu (m.latency `Alu)
  | Ir.Select (ty, _, _, _, _) ->
      if vec_class ty then arith m emit ty Machine.Valu (m.latency `Alu)
      else arith m emit ty Machine.Salu (m.latency `Alu)
  | Ir.Mov (ty, _, _) ->
      (* register moves are largely free on renamed hardware; charge a
         single cheap µop *)
      emit (if vec_class ty then Machine.Valu else Machine.Salu) 0
  | Ir.Cvt (dt, _, _, _) -> arith m emit dt Machine.Fp_add (m.latency `Fp_addsub)
  | Ir.Load _ | Ir.Ctx_read _ | Ir.Restore _ -> emit Machine.Mem_ld (m.latency `Load)
  | Ir.Store _ | Ir.Spill _ | Ir.Set_resume _ | Ir.Set_status _ -> emit Machine.Mem_st 0
  | Ir.Vload (_, ty, _, _, _) ->
      (* one movups-class µop per machine-register chunk *)
      for _ = 1 to Machine.chunks m ty f.Ir.warp_size do
        emit Machine.Mem_ld (m.latency `Load)
      done
  | Ir.Vstore (_, ty, _, _, _) ->
      for _ = 1 to Machine.chunks m ty f.Ir.warp_size do
        emit Machine.Mem_st 0
      done
  | Ir.Atomic _ ->
      (* lock-prefixed RMW: long serialized latency *)
      emit Machine.Mem_ld 18;
      emit Machine.Mem_st 0
  | Ir.Broadcast _ | Ir.Extract _ | Ir.Insert _ -> emit Machine.Shuf (m.latency `Shuf)
  | Ir.Reduce_add (_, o) ->
      let w = match o with Ir.R r -> (Ir.reg_ty f r).Ty.width | Ir.Imm _ -> 1 in
      if w <= 1 then emit Machine.Salu (m.latency `Alu)
      else begin
        (* movmsk + popcount style reduction *)
        emit Machine.Shuf (m.latency `Shuf);
        emit Machine.Salu (m.latency `Alu)
      end

(* Physical registers a live virtual register occupies. *)
let phys_regs (m : Machine.t) (ty : Ty.t) : [ `Vec of int | `Gpr of int ] =
  if ty.Ty.width > 1 then `Vec (Machine.chunks m ty.Ty.elt ty.Ty.width)
  else if Ast.is_float ty.Ty.elt then `Vec 1
  else `Gpr 1

type block_cost = {
  cycles : float;  (** estimated cycles per execution, terminator excluded *)
  uops : int;
  flops : int;  (** FP operations per execution (all lanes) *)
  spill_uops : int;  (** µops added by register-pressure spills *)
  max_vec_pressure : int;
  max_gpr_pressure : int;
  shares : int array * int;
      (** source-line shares [[| line; units; line; units; ... |]] of one
          execution's full cost ([cycles +. term_cost]) and their exact
          sum.  Line 0 is the "runtime overhead" bucket: the terminator
          plus synthetic instructions with no source provenance. *)
}

(** Per-block terminator/branch overhead, charged on top of [cycles]. *)
let term_cost = 1.0

(** Integer sub-cycle units used for source-line attribution: one modelled
    cycle = [attr_scale] units.  Attribution works in integers because the
    conservation invariant — per-line buckets summing {e exactly} to the
    total — must hold under any summation order, including merges of
    per-worker buckets; float accumulation is not associative. *)
let attr_scale = 1_000_000

let units_of_cycles c = int_of_float (Float.round (c *. float_of_int attr_scale))

let flops_of_instr (i : Ir.instr) =
  match i with
  | Ir.Bin (_, ty, _, _, _) | Ir.Un (_, ty, _, _) | Ir.Cmp (_, ty, _, _, _) ->
      if Ast.is_float ty.Ty.elt then ty.Ty.width else 0
  | Ir.Fma (ty, _, _, _, _) -> if Ast.is_float ty.Ty.elt then 2 * ty.Ty.width else 0
  | _ -> 0

(* Physical registers each virtual register occupies while live, split
   into vector and GPR weights; computed once per function. *)
type weights = { vec : int array; gpr : int array }

let weights (m : Machine.t) (f : Ir.func) : weights =
  let vec = Array.make f.Ir.nregs 0 and gpr = Array.make f.Ir.nregs 0 in
  for r = 0 to f.Ir.nregs - 1 do
    match phys_regs m (Ir.reg_ty f r) with `Vec n -> vec.(r) <- n | `Gpr n -> gpr.(r) <- n
  done;
  { vec; gpr }

(* Maximum vector and GPR pressure over the points just after each of the
   block's instructions, in one backward walk from the block's live-out
   set: running sums follow the live set as each instruction's definition
   leaves it and its uses join it.  An empty block has no such point and
   reports zero. *)
let pressure (w : weights) (live : Liveness.t) (b : Ir.block) =
  let max_vec = ref 0 and max_gpr = ref 0 in
  if b.Ir.insts <> [] then begin
    let set = Liveness.live_out_copy live b.Ir.label in
    let v = ref 0 and g = ref 0 in
    let enter r =
      v := !v + w.vec.(r);
      g := !g + w.gpr.(r)
    in
    List.iter (Liveness.Bits.add set) (Ir.term_uses b.Ir.term);
    Liveness.Bits.iter enter set;
    List.iter
      (fun ({ Ir.i; _ } : Ir.li) ->
        if !v > !max_vec then max_vec := !v;
        if !g > !max_gpr then max_gpr := !g;
        let d = Ir.def i in
        if d >= 0 && Liveness.Bits.mem set d then begin
          Liveness.Bits.remove set d;
          v := !v - w.vec.(d);
          g := !g - w.gpr.(d)
        end;
        Ir.iter_uses
          (fun r ->
            if not (Liveness.Bits.mem set r) then begin
              Liveness.Bits.add set r;
              enter r
            end)
          i)
      (List.rev b.Ir.insts)
  end;
  (!max_vec, !max_gpr)

(* The scoreboard of one instruction's µops: its operands' ready time,
   when its last result is ready, and when the block's last result is.
   All fields are floats, so the record is flat and writing it
   allocates nothing. *)
type board = { mutable operands_ready : float; mutable done_at : float; mutable finish : float }

(** Per-function state shared by the blocks' analyses: the liveness
    solution, the pressure weights, the scoreboard's operand-ready times
    and ports, and scratch for the line shares.  Every ready time is 0.0
    between blocks — {!block} resets the ones it sets — so blocks can be
    costed one at a time, in any order. *)
type state = {
  m : Machine.t;
  f : Ir.func;
  live : Liveness.t;
  w : weights;
  ready : float array;
  recip : float array;  (** [1.0 /. throughput] per {!Machine.port_index} *)
  port_free : float array;
  board : board;
  mutable n_uops : int;  (** µops of the instruction being costed *)
  mutable lines : int array;
      (** the block's distinct source lines, increasing, in [0, n_lines) *)
  mutable line_w : int array;  (** µops per line, then each line's units *)
  mutable rem : int array;  (** rounding remainders, [-1] once a line got its extra unit *)
  mutable n_lines : int;
}

let state (m : Machine.t) (f : Ir.func) : state =
  {
    m;
    f;
    live = Liveness.compute f;
    w = weights m f;
    ready = Array.make f.Ir.nregs 0.0;
    recip = Array.of_list (List.map (fun p -> 1.0 /. m.Machine.throughput p) Machine.all_ports);
    port_free = Array.make (List.length Machine.all_ports) 0.0;
    board = { operands_ready = 0.0; done_at = 0.0; finish = 0.0 };
    n_uops = 0;
    lines = Array.make 8 0;
    line_w = Array.make 8 0;
    rem = Array.make 8 0;
    n_lines = 0;
  }

(* Issue one µop: it waits for its operands and for a free slot on its
   port, which it then holds for the port's reciprocal throughput. *)
let issue st port latency =
  let p = Machine.port_index port and bd = st.board in
  let at = Float.max bd.operands_ready st.port_free.(p) in
  st.port_free.(p) <- at +. st.recip.(p);
  bd.done_at <- Float.max bd.done_at (at +. float_of_int latency);
  st.n_uops <- st.n_uops + 1

(* Add [n] µops to [line]'s weight, keeping the lines sorted. *)
let add_line st line n =
  let k = ref 0 in
  while !k < st.n_lines && st.lines.(!k) < line do
    incr k
  done;
  let k = !k in
  if k < st.n_lines && st.lines.(k) = line then st.line_w.(k) <- st.line_w.(k) + n
  else begin
    if st.n_lines = Array.length st.lines then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      st.lines <- grow st.lines;
      st.line_w <- grow st.line_w;
      st.rem <- grow st.rem
    end;
    Array.blit st.lines k st.lines (k + 1) (st.n_lines - k);
    Array.blit st.line_w k st.line_w (k + 1) (st.n_lines - k);
    st.lines.(k) <- line;
    st.line_w.(k) <- n;
    st.n_lines <- st.n_lines + 1
  end

(* Apportion [total_units] across the block's source lines proportionally
   to each line's µop count, with largest-remainder rounding so the shares
   sum exactly to [total_units].  The terminator (and any instruction with
   no provenance) weighs in on line 0. *)
let compute_shares st ~(total_units : int) : int array * int =
  add_line st 0 1 (* terminator *);
  let n = st.n_lines in
  let total_w = ref 0 in
  for k = 0 to n - 1 do
    total_w := !total_w + st.line_w.(k)
  done;
  let total_w = !total_w in
  let leftover = ref total_units in
  for k = 0 to n - 1 do
    let w = st.line_w.(k) in
    st.line_w.(k) <- total_units * w / total_w;
    st.rem.(k) <- total_units * w mod total_w;
    leftover := !leftover - st.line_w.(k)
  done;
  (* hand the rounding leftover (fewer units than lines) to the largest
     remainders, ties broken by position so the result is deterministic:
     repeatedly take the first largest remainder not yet served *)
  for _ = 1 to !leftover do
    let best = ref (-1) in
    for k = 0 to n - 1 do
      if st.rem.(k) >= 0 && (!best < 0 || st.rem.(k) > st.rem.(!best)) then best := k
    done;
    st.line_w.(!best) <- st.line_w.(!best) + 1;
    st.rem.(!best) <- -1
  done;
  let out = Array.make (2 * n) 0 in
  for k = 0 to n - 1 do
    out.(2 * k) <- st.lines.(k);
    out.((2 * k) + 1) <- st.line_w.(k)
  done;
  st.n_lines <- 0;
  (out, total_units)

(** Cost one block of [st]'s function.  A scoreboard: µops issue when
    their operands are ready and their port has a free slot; the block
    cost is when the last µop's result would be available, floored by the
    front-end issue rate.  The line shares split that cost plus
    {!term_cost} by each source line's µop count. *)
let block (st : state) (b : Ir.block) : block_cost =
  let m = st.m and f = st.f and bd = st.board in
  Array.fill st.port_free 0 (Array.length st.port_free) 0.0;
  bd.finish <- 0.0;
  let total_uops = ref 0 and flops = ref 0 in
  let emit = issue st in
  let max_ready r = bd.operands_ready <- Float.max bd.operands_ready st.ready.(r) in
  let exec_instr ({ Ir.i; line } : Ir.li) =
    flops := !flops + flops_of_instr i;
    bd.operands_ready <- 0.0;
    Ir.iter_uses max_ready i;
    bd.done_at <- bd.operands_ready;
    st.n_uops <- 0;
    iter_uops m f i emit;
    total_uops := !total_uops + st.n_uops;
    add_line st line st.n_uops;
    let d = Ir.def i in
    if d >= 0 then st.ready.(d) <- bd.done_at;
    bd.finish <- Float.max bd.finish bd.done_at
  in
  List.iter exec_instr b.Ir.insts;
  List.iter
    (fun ({ Ir.i; _ } : Ir.li) ->
      let d = Ir.def i in
      if d >= 0 then st.ready.(d) <- 0.0)
    b.Ir.insts;
  let max_vec, max_gpr = pressure st.w st.live b in
  (* Spill traffic for pressure beyond the architectural registers. *)
  let excess_v = max 0 (max_vec - m.Machine.vector_regs) in
  let excess_g = max 0 (max_gpr - m.Machine.scalar_regs) in
  let spill_uops =
    (excess_v + excess_g) * (m.Machine.spill_load_uops + m.Machine.spill_store_uops)
  in
  let spill_cycles =
    float_of_int ((excess_v + excess_g) * m.Machine.spill_load_uops)
    /. m.Machine.throughput Machine.Mem_ld
    +. float_of_int ((excess_v + excess_g) * m.Machine.spill_store_uops)
       /. m.Machine.throughput Machine.Mem_st
    +. (float_of_int excess_v *. float_of_int (m.Machine.latency `Load) *. 0.5)
  in
  (* Once live state exceeds the register file, a fraction of every value's
     uses round-trips through the stack; the store-forward latency lands on
     the dependence chains and cannot be hidden. *)
  let spill_serial =
    let pressure = max_vec + max_gpr in
    if excess_v + excess_g = 0 || pressure = 0 then 0.0
    else
      let fraction = float_of_int (excess_v + excess_g) /. float_of_int pressure in
      m.Machine.spill_serial_factor *. fraction *. float_of_int !total_uops
  in
  let frontend = float_of_int (!total_uops + spill_uops) /. m.Machine.issue_width in
  let cycles = Float.max bd.finish frontend +. spill_cycles +. spill_serial in
  {
    cycles;
    uops = !total_uops;
    flops = !flops;
    spill_uops;
    max_vec_pressure = max_vec;
    max_gpr_pressure = max_gpr;
    shares = compute_shares st ~total_units:(units_of_cycles (cycles +. term_cost));
  }

(** Cost every block of [f], in layout order: [Ir.blocks f] mapped
    through {!block}. *)
let analyze (m : Machine.t) (f : Ir.func) : block_cost list =
  List.map (block (state m f)) (Ir.blocks f)
