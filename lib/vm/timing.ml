(** Static per-block timing analysis.

    For each block of a compiled function we decompose its instructions
    into machine µops, run a small scoreboard (operand-ready times × issue
    port availability, an idealized out-of-order core with an unbounded
    window), estimate register pressure from per-instruction liveness and
    charge spill traffic for the excess, and record the resulting cycle
    cost.  {!Interp.compile} copies [cycles b] into the compiled block,
    and {!Interp.run} accumulates it for every dynamic execution of [b].

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
  cycles : float;  (** estimated cycles per execution of the block *)
  uops : int;
  flops : int;  (** FP operations per execution (all lanes) *)
  spill_uops : int;  (** µops added by register-pressure spills *)
  max_vec_pressure : int;
  max_gpr_pressure : int;
}

(** Integer sub-cycle units used for source-line attribution: one modelled
    cycle = [attr_scale] units.  Attribution works in integers because the
    conservation invariant — per-line buckets summing {e exactly} to the
    total — must hold under any summation order, including merges of
    per-worker buckets; float accumulation is not associative. *)
let attr_scale = 1_000_000

let units_of_cycles c = int_of_float (Float.round (c *. float_of_int attr_scale))

type t = {
  machine : Machine.t;
  costs : (string, block_cost) Hashtbl.t;
  term_cost : float;  (** per-block terminator/branch overhead *)
  shares : (string, int array * int) Hashtbl.t;
      (** per block: source-line shares [[| line; units; line; units; ... |]]
          of the block's full cost (terminator included) and their exact
          sum.  Line 0 is the "runtime overhead" bucket: terminators plus
          synthetic instructions with no source provenance. *)
}

let flops_of_instr (f : Ir.func) (i : Ir.instr) =
  match i with
  | Ir.Bin (_, ty, _, _, _) | Ir.Un (_, ty, _, _) | Ir.Cmp (_, ty, _, _, _) ->
      if Ast.is_float ty.Ty.elt then ty.Ty.width else 0
  | Ir.Fma (ty, _, _, _, _) -> if Ast.is_float ty.Ty.elt then 2 * ty.Ty.width else 0
  | _ ->
      ignore f;
      0

(* Scoreboard over one block: µops issue when their operands are ready and
   their port has a free slot; the block cost is when the last µop's result
   would be available, floored by the front-end issue rate. *)
let analyze_block (m : Machine.t) (f : Ir.func) (live : Liveness.t) (b : Ir.block) :
    block_cost =
  let port_free = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace port_free p 0.0) Machine.all_ports;
  let ready : (Ir.vreg, float) Hashtbl.t = Hashtbl.create 32 in
  let total_uops = ref 0 and flops = ref 0 in
  let finish = ref 0.0 in
  let exec_instr i =
    flops := !flops + flops_of_instr f i;
    let operands_ready =
      List.fold_left
        (fun acc r -> Float.max acc (Option.value (Hashtbl.find_opt ready r) ~default:0.0))
        0.0 (Ir.uses i)
    in
    let done_at = ref operands_ready in
    List.iter
      (fun { port; latency } ->
        incr total_uops;
        let free = Hashtbl.find port_free port in
        let issue = Float.max operands_ready free in
        Hashtbl.replace port_free port (issue +. (1.0 /. m.Machine.throughput port));
        done_at := Float.max !done_at (issue +. float_of_int latency))
      (uops_of_instr m f i);
    (match Ir.def i with Some d -> Hashtbl.replace ready d !done_at | None -> ());
    finish := Float.max !finish !done_at
  in
  List.iter (fun ({ Ir.i; _ } : Ir.li) -> exec_instr i) b.Ir.insts;
  (* Register pressure within the block. *)
  let after = Liveness.per_instruction live b in
  let max_vec = ref 0 and max_gpr = ref 0 in
  Array.iter
    (fun set ->
      let v = ref 0 and g = ref 0 in
      Liveness.ISet.iter
        (fun r ->
          match phys_regs m (Ir.reg_ty f r) with
          | `Vec n -> v := !v + n
          | `Gpr n -> g := !g + n)
        set;
      if !v > !max_vec then max_vec := !v;
      if !g > !max_gpr then max_gpr := !g)
    after;
  (* Spill traffic for pressure beyond the architectural registers. *)
  let excess_v = max 0 (!max_vec - m.Machine.vector_regs) in
  let excess_g = max 0 (!max_gpr - m.Machine.scalar_regs) in
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
    let pressure = !max_vec + !max_gpr in
    if excess_v + excess_g = 0 || pressure = 0 then 0.0
    else
      let fraction = float_of_int (excess_v + excess_g) /. float_of_int pressure in
      m.Machine.spill_serial_factor *. fraction *. float_of_int !total_uops
  in
  let frontend = float_of_int (!total_uops + spill_uops) /. m.Machine.issue_width in
  {
    cycles = Float.max !finish frontend +. spill_cycles +. spill_serial;
    uops = !total_uops;
    flops = !flops;
    spill_uops;
    max_vec_pressure = !max_vec;
    max_gpr_pressure = !max_gpr;
  }

(* Apportion [total_units] across the block's source lines proportionally
   to each line's µop count, with largest-remainder rounding so the shares
   sum exactly to [total_units].  The terminator (and any instruction with
   no provenance) weighs in on line 0. *)
let compute_shares (m : Machine.t) (f : Ir.func) (b : Ir.block) ~(total_units : int) :
    int array * int =
  let weights : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let add_weight line w =
    Hashtbl.replace weights line
      (Option.value (Hashtbl.find_opt weights line) ~default:0 + w)
  in
  add_weight 0 1 (* terminator *);
  List.iter
    (fun ({ Ir.i; line } : Ir.li) -> add_weight line (List.length (uops_of_instr m f i)))
    b.Ir.insts;
  let lines =
    Hashtbl.fold (fun l w acc -> (l, w) :: acc) weights []
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

(** Analyze every block of a compiled function once; the compiled code
    then charges [cycles] per dynamic block execution. *)
let analyze (m : Machine.t) (f : Ir.func) : t =
  let live = Liveness.compute f in
  let term_cost = 1.0 in
  let costs = Hashtbl.create 16 in
  let shares = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let c = analyze_block m f live b in
      Hashtbl.replace costs b.Ir.label c;
      let total_units = units_of_cycles (c.cycles +. term_cost) in
      Hashtbl.replace shares b.Ir.label (compute_shares m f b ~total_units))
    (Ir.blocks f);
  { machine = m; costs; term_cost; shares }

let block_cost t label = Hashtbl.find_opt t.costs label

let cycles t label =
  match block_cost t label with
  | Some c -> c.cycles +. t.term_cost
  | None -> t.term_cost

let flops t label = match block_cost t label with Some c -> c.flops | None -> 0

(** Source-line shares of one execution of [label] (terminator included)
    together with their exact integer sum; [cycles t label] is the same
    quantity in float cycles.  Unknown labels cost [term_cost] only,
    charged to the line-0 overhead bucket. *)
let line_shares t label : int array * int =
  match Hashtbl.find_opt t.shares label with
  | Some s -> s
  | None ->
      let u = units_of_cycles t.term_cost in
      ([| 0; u |], u)
