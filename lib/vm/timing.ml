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

type uop = { port : Machine.port; latency : int }

(* µop decomposition of one IR instruction.  [chunks] models a vector
   wider than the machine: the code generator must emit one operation per
   machine-register chunk. *)
let uops_of_instr (m : Machine.t) (f : Ir.func) (i : Ir.instr) : uop list =
  let vec_class (ty : Ty.t) = Ast.is_float ty.Ty.elt || ty.Ty.width > 1 in
  let rep n u = List.init n (fun _ -> u) in
  let arith_uop (ty : Ty.t) ~port ~lat =
    let n = if ty.Ty.width > 1 then Machine.chunks m ty.Ty.elt ty.Ty.width else 1 in
    rep n { port; latency = lat }
  in
  match i with
  | Ir.Bin (op, ty, _, _, _) -> (
      let fl = Ast.is_float ty.Ty.elt in
      match op with
      | Ast.Mul_lo when fl -> arith_uop ty ~port:Machine.Fp_mul ~lat:(m.latency `Fp_mul)
      | Ast.Div when fl -> arith_uop ty ~port:Machine.Fp_mul ~lat:(m.latency `Fp_div)
      | (Ast.Add | Ast.Sub | Ast.Min | Ast.Max) when fl ->
          arith_uop ty ~port:Machine.Fp_add ~lat:(m.latency `Fp_addsub)
      | Ast.Rem when fl -> arith_uop ty ~port:Machine.Fp_mul ~lat:(m.latency `Fp_div)
      | _ when vec_class ty -> arith_uop ty ~port:Machine.Valu ~lat:(m.latency `Alu)
      | Ast.Div | Ast.Rem ->
          (* scalar integer division: long-latency, serialized *)
          rep 1 { port = Machine.Salu; latency = 20 }
      | _ -> arith_uop ty ~port:Machine.Salu ~lat:(m.latency `Alu))
  | Ir.Un (op, ty, _, _) -> (
      match op with
      | Ast.Sqrt | Ast.Rsqrt | Ast.Rcp ->
          arith_uop ty ~port:Machine.Fp_mul ~lat:(m.latency `Fp_div)
      | Ast.Sin | Ast.Cos | Ast.Ex2 | Ast.Lg2 ->
          (* vectorized transcendental approximations: a short polynomial
             kernel; charge several mul+add pairs *)
          arith_uop ty ~port:Machine.Fp_mul ~lat:(m.latency `Fp_trans)
          @ arith_uop ty ~port:Machine.Fp_add ~lat:(m.latency `Fp_addsub)
          @ arith_uop ty ~port:Machine.Fp_mul ~lat:(m.latency `Fp_mul)
      | Ast.Neg | Ast.Abs when Ast.is_float ty.Ty.elt ->
          arith_uop ty ~port:Machine.Fp_add ~lat:(m.latency `Fp_addsub)
      | _ when vec_class ty -> arith_uop ty ~port:Machine.Valu ~lat:(m.latency `Alu)
      | _ -> arith_uop ty ~port:Machine.Salu ~lat:(m.latency `Alu))
  | Ir.Fma (ty, _, _, _, _) ->
      if Ast.is_float ty.Ty.elt then
        (* pre-FMA hardware: a multiply feeding an add *)
        arith_uop ty ~port:Machine.Fp_mul ~lat:(m.latency `Fp_mul)
        @ arith_uop ty ~port:Machine.Fp_add ~lat:(m.latency `Fp_addsub)
      else if vec_class ty then
        arith_uop ty ~port:Machine.Valu ~lat:(m.latency `Alu)
        @ arith_uop ty ~port:Machine.Valu ~lat:(m.latency `Alu)
      else
        arith_uop ty ~port:Machine.Salu ~lat:(m.latency `Alu)
        @ arith_uop ty ~port:Machine.Salu ~lat:(m.latency `Alu)
  | Ir.Cmp (_, ty, _, _, _) ->
      if Ast.is_float ty.Ty.elt then
        arith_uop ty ~port:Machine.Fp_add ~lat:(m.latency `Fp_addsub)
      else if vec_class ty then arith_uop ty ~port:Machine.Valu ~lat:(m.latency `Alu)
      else arith_uop ty ~port:Machine.Salu ~lat:(m.latency `Alu)
  | Ir.Select (ty, _, _, _, _) ->
      if vec_class ty then arith_uop ty ~port:Machine.Valu ~lat:(m.latency `Alu)
      else arith_uop ty ~port:Machine.Salu ~lat:(m.latency `Alu)
  | Ir.Mov (ty, _, _) ->
      (* register moves are largely free on renamed hardware; charge a
         single cheap µop *)
      if vec_class ty then [ { port = Machine.Valu; latency = 0 } ]
      else [ { port = Machine.Salu; latency = 0 } ]
  | Ir.Cvt (dt, _, _, _) ->
      arith_uop dt ~port:Machine.Fp_add ~lat:(m.latency `Fp_addsub)
  | Ir.Load _ -> [ { port = Machine.Mem_ld; latency = m.latency `Load } ]
  | Ir.Store _ -> [ { port = Machine.Mem_st; latency = 0 } ]
  | Ir.Vload (_, ty, _, _, _) ->
      (* one movups-class µop per machine-register chunk *)
      rep (Machine.chunks m ty f.Ir.warp_size)
        { port = Machine.Mem_ld; latency = m.latency `Load }
  | Ir.Vstore (_, ty, _, _, _) ->
      rep (Machine.chunks m ty f.Ir.warp_size) { port = Machine.Mem_st; latency = 0 }
  | Ir.Atomic _ ->
      (* lock-prefixed RMW: long serialized latency *)
      [ { port = Machine.Mem_ld; latency = 18 }; { port = Machine.Mem_st; latency = 0 } ]
  | Ir.Broadcast _ -> [ { port = Machine.Shuf; latency = m.latency `Shuf } ]
  | Ir.Extract _ -> [ { port = Machine.Shuf; latency = m.latency `Shuf } ]
  | Ir.Insert _ -> [ { port = Machine.Shuf; latency = m.latency `Shuf } ]
  | Ir.Reduce_add (_, o) ->
      let w = match o with Ir.R r -> (Ir.reg_ty f r).Ty.width | Ir.Imm _ -> 1 in
      if w <= 1 then [ { port = Machine.Salu; latency = m.latency `Alu } ]
      else
        (* movmsk + popcount style reduction *)
        [
          { port = Machine.Shuf; latency = m.latency `Shuf };
          { port = Machine.Salu; latency = m.latency `Alu };
        ]
  | Ir.Ctx_read _ -> [ { port = Machine.Mem_ld; latency = m.latency `Load } ]
  | Ir.Spill _ -> [ { port = Machine.Mem_st; latency = 0 } ]
  | Ir.Restore _ -> [ { port = Machine.Mem_ld; latency = m.latency `Load } ]
  | Ir.Set_resume _ -> [ { port = Machine.Mem_st; latency = 0 } ]
  | Ir.Set_status _ -> [ { port = Machine.Mem_st; latency = 0 } ]

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
        (match Ir.def i with
        | Some d when Liveness.Bits.mem set d ->
            Liveness.Bits.remove set d;
            v := !v - w.vec.(d);
            g := !g - w.gpr.(d)
        | _ -> ());
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

(** Per-function state shared by the blocks' analyses: the liveness
    solution, the pressure weights, and the scoreboard's operand-ready
    times.  Every ready time is 0.0 between blocks — {!block} resets the
    ones it sets — so blocks can be costed one at a time, in any order. *)
type state = {
  m : Machine.t;
  f : Ir.func;
  live : Liveness.t;
  w : weights;
  ready : float array;
}

let state (m : Machine.t) (f : Ir.func) : state =
  { m; f; live = Liveness.compute f; w = weights m f; ready = Array.make f.Ir.nregs 0.0 }

(* Apportion [total_units] across the block's source lines proportionally
   to each line's µop count, with largest-remainder rounding so the shares
   sum exactly to [total_units].  The terminator (and any instruction with
   no provenance) weighs in on line 0. *)
let compute_shares (line_uops : int Ir.Itbl.t) ~(total_units : int) : int array * int =
  Ir.Itbl.replace line_uops 0 (Option.value (Ir.Itbl.find_opt line_uops 0) ~default:0 + 1)
  (* terminator *);
  let lines =
    Ir.Itbl.fold (fun l w acc -> (l, w) :: acc) line_uops []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let total_w = List.fold_left (fun acc (_, w) -> acc + w) 0 lines in
  let with_rem =
    Array.of_list
      (List.map
         (fun (l, w) -> (l, total_units * w / total_w, total_units * w mod total_w))
         lines)
  in
  let base_sum = Array.fold_left (fun acc (_, u, _) -> acc + u) 0 with_rem in
  let leftover = total_units - base_sum in
  (* hand the rounding leftover to the largest remainders; ties broken by
     position so the result is deterministic *)
  let order = Array.init (Array.length with_rem) Fun.id in
  Array.sort
    (fun i j ->
      let _, _, ri = with_rem.(i) and _, _, rj = with_rem.(j) in
      if ri <> rj then compare rj ri else compare i j)
    order;
  let out = Array.map (fun (l, u, _) -> (l, u)) with_rem in
  for k = 0 to leftover - 1 do
    let idx = order.(k mod Array.length order) in
    let l, u = out.(idx) in
    out.(idx) <- (l, u + 1)
  done;
  (Array.concat (Array.to_list (Array.map (fun (l, u) -> [| l; u |]) out)), total_units)

(** Cost one block of [st]'s function.  A scoreboard: µops issue when
    their operands are ready and their port has a free slot; the block
    cost is when the last µop's result would be available, floored by the
    front-end issue rate.  The line shares split that cost plus
    {!term_cost} by each source line's µop count. *)
let block (st : state) (b : Ir.block) : block_cost =
  let m = st.m and f = st.f in
  let port_free = Array.make (List.length Machine.all_ports) 0.0 in
  let line_uops = Ir.Itbl.create 8 in
  let total_uops = ref 0 and flops = ref 0 in
  let finish = ref 0.0 in
  let exec_instr ({ Ir.i; line } : Ir.li) =
    flops := !flops + flops_of_instr i;
    let operands_ready = ref 0.0 in
    Ir.iter_uses (fun r -> operands_ready := Float.max !operands_ready st.ready.(r)) i;
    let operands_ready = !operands_ready in
    let done_at = ref operands_ready and n = ref 0 in
    List.iter
      (fun { port; latency } ->
        incr n;
        let p = Machine.port_index port in
        let issue = Float.max operands_ready port_free.(p) in
        port_free.(p) <- issue +. (1.0 /. m.Machine.throughput port);
        done_at := Float.max !done_at (issue +. float_of_int latency))
      (uops_of_instr m f i);
    total_uops := !total_uops + !n;
    Ir.Itbl.replace line_uops line
      (Option.value (Ir.Itbl.find_opt line_uops line) ~default:0 + !n);
    (match Ir.def i with Some d -> st.ready.(d) <- !done_at | None -> ());
    finish := Float.max !finish !done_at
  in
  List.iter exec_instr b.Ir.insts;
  List.iter
    (fun ({ Ir.i; _ } : Ir.li) ->
      match Ir.def i with Some d -> st.ready.(d) <- 0.0 | None -> ())
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
  let cycles = Float.max !finish frontend +. spill_cycles +. spill_serial in
  {
    cycles;
    uops = !total_uops;
    flops = !flops;
    spill_uops;
    max_vec_pressure = max_vec;
    max_gpr_pressure = max_gpr;
    shares = compute_shares line_uops ~total_units:(units_of_cycles (cycles +. term_cost));
  }

(** Cost every block of [f], in layout order: [Ir.blocks f] mapped
    through {!block}. *)
let analyze (m : Machine.t) (f : Ir.func) : block_cost list =
  List.map (block (state m f)) (Ir.blocks f)
