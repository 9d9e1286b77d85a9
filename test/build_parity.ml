(* Build-parity golden: one line per (application, vectorization mode,
   warp size, tier) build of every registry workload, as the translation
   cache builds it (frontend and plan once per kernel, uniformity classes
   once per kernel and mode, then vectorize and
   either the default pass pipeline (tier 1) or one DCE-to-fixpoint
   (tier 0), then timing analysis).

   Each line holds the per-pass change counts, the pipeline rounds, the
   static size and a digest of the printed IR plus the timing table
   (cycles as exact hex floats, µops, flops, spill µops, both register
   pressures and every block's source-line shares).  The runtest alias
   diffs the output against builds.expected, so a change that alters any
   build — a pass result, a liveness set, a modelled cycle — shows up as
   a diff; a change that only makes the builds faster does not. *)

module Ir = Vekt_ir.Ir
module Pp = Vekt_ir.Pp
module Ptx_to_ir = Vekt_transform.Ptx_to_ir
module Plan = Vekt_transform.Plan
module Vectorize = Vekt_transform.Vectorize
module Passes = Vekt_transform.Passes
module Dce = Vekt_transform.Dce
module Timing = Vekt_vm.Timing
module Machine = Vekt_vm.Machine
module Workload = Vekt_workloads.Workload
module Registry = Vekt_workloads.Registry

let modes =
  [
    ("dynamic", Vectorize.Dynamic, false);
    ("static_tie", Vectorize.Static_tie, false);
    ("static_tie+affine", Vectorize.Static_tie, true);
  ]

let widths = [ 8; 4; 2; 1 ]

let timing_table buf (f : Ir.func) (costs : Timing.block_cost list) =
  List.iter2
    (fun (b : Ir.block) (c : Timing.block_cost) ->
      Printf.bprintf buf "%s %h %d %d %d %d %d" b.Ir.label c.cycles c.uops c.flops
        c.spill_uops c.max_vec_pressure c.max_gpr_pressure;
      let shares, sum = c.shares in
      Printf.bprintf buf " | %d:" sum;
      Array.iter (Printf.bprintf buf " %d") shares;
      Buffer.add_char buf '\n')
    (Ir.blocks f) costs

let line (w : Workload.t) (tr : Ptx_to_ir.t) plan ~classes ~mode_name ~mode ~affine ~ws ~tier =
  let f = (Vectorize.run ~mode ~affine ~classes ~plan tr.Ptx_to_ir.func ~ws).Vectorize.func in
  let passes =
    if tier > 0 then
      let st = Passes.run f in
      String.concat " "
        (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) st.Passes.per_pass)
      ^ Printf.sprintf " rounds=%d" st.Passes.rounds
    else Printf.sprintf "dce=%d" (Dce.run f)
  in
  let timing = Timing.analyze Machine.sse4 f in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Pp.func_to_string f);
  timing_table buf f timing;
  Printf.printf "%s %s ws=%d tier=%d | %s | size=%d | %s\n" w.name mode_name ws tier passes
    (Ir.size f)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  List.iter
    (fun (w : Workload.t) ->
      let tr = Ptx_to_ir.frontend (Vekt_ptx.Typecheck.load w.src) ~kernel:w.kernel in
      let plan =
        Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:tr.Ptx_to_ir.local_decl_bytes
      in
      List.iter
        (fun (mode_name, mode, affine) ->
          let classes = Vectorize.classes ~mode ~plan tr.Ptx_to_ir.func in
          List.iter
            (fun ws ->
              List.iter
                (fun tier -> line w tr plan ~classes ~mode_name ~mode ~affine ~ws ~tier)
                [ 1; 0 ])
            widths)
        modes)
    Registry.all
