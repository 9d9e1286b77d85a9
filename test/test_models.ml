(* The build layers against their reference models (models.ml): on random
   fuzz-generator kernels, vectorized at every width in both warp-formation
   modes, the bitset liveness, the structurally keyed CSE and the timing
   model's running-sum register pressure must compute exactly what the
   textbook versions compute. *)

module Ir = Vekt_ir.Ir
module Pp = Vekt_ir.Pp
module Liveness = Vekt_analysis.Liveness
module Ptx_to_ir = Vekt_transform.Ptx_to_ir
module Plan = Vekt_transform.Plan
module Vectorize = Vekt_transform.Vectorize
module Constfold = Vekt_transform.Constfold
module Cse = Vekt_transform.Cse
module Passes = Vekt_transform.Passes
module Timing = Vekt_vm.Timing
module Machine = Vekt_vm.Machine
module Gen = Vekt_fuzz.Gen
module ISet = Models.ISet

let modes = [ Vectorize.Dynamic; Vectorize.Static_tie ]
let widths = [ 1; 2; 4; 8 ]

(* Every (mode, width) specialization of a generated kernel; a kernel the
   frontend rejects (a frontier probe) has none. *)
let specializations (spec : Gen.t) : (string * (unit -> Ir.func)) list =
  match
    let m = Vekt_ptx.Typecheck.load spec.Gen.src in
    let tr = Ptx_to_ir.frontend m ~kernel:spec.kernel in
    let plan =
      Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:tr.Ptx_to_ir.local_decl_bytes
    in
    (tr, plan)
  with
  | exception _ -> []
  | tr, plan ->
      List.concat_map
        (fun mode ->
          List.map
            (fun ws ->
              let name =
                match mode with Vectorize.Dynamic -> "dynamic" | Vectorize.Static_tie -> "static"
              in
              ( Fmt.str "%s ws=%d" name ws,
                fun () -> (Vectorize.run ~mode ~plan tr.Ptx_to_ir.func ~ws).Vectorize.func ))
            widths)
        modes

let fail where fmt = Fmt.kstr (fun s -> QCheck.Test.fail_reportf "%s: %s" where s) fmt

let check_liveness where (f : Ir.func) =
  let live = Liveness.compute f and model = Models.Liveness.compute f in
  List.iter
    (fun (b : Ir.block) ->
      let l = b.Ir.label in
      if not (ISet.equal (Liveness.live_in live l) (Models.Liveness.live_in model l)) then
        fail where "live_in %s differs" l;
      if not (ISet.equal (Liveness.live_out live l) (Models.Liveness.live_out model l)) then
        fail where "live_out %s differs" l)
    (Ir.blocks f)

let prop_liveness =
  QCheck.Test.make ~name:"bitset liveness == set-based model" ~count:40 Gen.arbitrary
    (fun spec ->
      List.iter
        (fun (where, build) ->
          let f = build () in
          check_liveness where f;
          ignore (Passes.run f);
          check_liveness (where ^ " optimized") f)
        (specializations spec);
      true)

(* CSE runs on constant-folded code, as in the pipeline, where folding has
   turned operands into the immediates the keys must tell apart. *)
let prop_cse =
  QCheck.Test.make ~name:"structural CSE == printed-key model" ~count:40 Gen.arbitrary
    (fun spec ->
      List.iter
        (fun (where, build) ->
          let f = build () in
          ignore (Constfold.run f);
          let g = Ir.copy_func f in
          let n = Cse.run f and n_model = Models.cse g in
          if n <> n_model then fail where "%d replacements, model %d" n n_model;
          if Pp.func_to_string f <> Pp.func_to_string g then fail where "IR differs")
        (specializations spec);
      true)

let prop_pressure =
  QCheck.Test.make ~name:"running-sum pressure == per-instruction model" ~count:40
    Gen.arbitrary (fun spec ->
      let m = Machine.sse4 in
      List.iter
        (fun (where, build) ->
          let f = build () in
          List.iter
            (fun optimize ->
              if optimize then ignore (Passes.run f);
              let t = Timing.analyze m f and model = Models.Liveness.compute f in
              List.iter2
                (fun (b : Ir.block) (c : Timing.block_cost) ->
                  let v, g = Models.pressure m f model b in
                  if (c.max_vec_pressure, c.max_gpr_pressure) <> (v, g) then
                    fail where "%s pressure (%d, %d), model (%d, %d)" b.Ir.label
                      c.max_vec_pressure c.max_gpr_pressure v g)
                (Ir.blocks f) t)
            [ false; true ])
        (specializations spec);
      true)

let () =
  Alcotest.run "models"
    [
      ( "models",
        List.map QCheck_alcotest.to_alcotest [ prop_liveness; prop_cse; prop_pressure ] );
    ]
