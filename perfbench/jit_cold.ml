(* jit-cold: cold compilation of every registry application.

   One operation is one (application, vectorization mode) pair on a
   fresh engine: [Api.load_module] (parse, typecheck), then
   [Translation_cache.get] for every width of [Api.kernel_cache]
   (frontend, divergence plan, vectorize, pass pipeline, timing
   analysis).  Nothing is launched, so the interpreter does no work:
   this is the mirror image of suite-warm.  Both paper modes are
   measured, because thread-invariant elimination (Static_tie) changes
   what the passes find. *)

open Measure
module Api = Vekt_runtime.Api
module TC = Vekt_runtime.Translation_cache
module Vectorize = Vekt_transform.Vectorize
module Workload = Vekt_workloads.Workload
module Registry = Vekt_workloads.Registry
module Obs = Vekt_obs

let modes = [ ("dynamic", Vectorize.Dynamic); ("tie", Vectorize.Static_tie) ]

type op = { w : Workload.t; mode_name : string; config : Api.config }

let ops =
  List.concat_map
    (fun (w : Workload.t) ->
      List.map
        (fun (mode_name, mode) ->
          { w; mode_name; config = { Api.default_config with mode } })
        modes)
    Registry.all

let op_name o = o.w.name ^ "/" ^ o.mode_name

(* No launch happens, so the device needs no real global memory; the
   default 64 MB would only make every fresh engine pay for zeroing it. *)
let fresh_device () = Api.create_device ~global_bytes:4096 ()

(* One cold build.  The built specializations are checked outside the
   timed region: each must pass the IR verifier, and its static size is
   guarded to be the same on every repetition. *)
let build ?(sink = Obs.Sink.noop) (t : tally) g (o : op) =
  let dev = fresh_device () in
  t.attempted <- t.attempted + 1;
  let mw0 = Gc.minor_words () in
  match
    timed (fun () ->
        let m = Api.load_module ~config:o.config ~sink dev o.w.src in
        let c = Api.kernel_cache m ~kernel:o.w.kernel in
        List.map (fun ws -> TC.get c ~sink ~ws ()) c.TC.widths)
  with
  | exception Vekt_error.Error e ->
      fail_op t ~wrong:false "%s: %s" (op_name o) (Vekt_error.to_string e);
      None
  | entries, us -> (
      let minor_words = Gc.minor_words () -. mw0 in
      match
        List.iter (fun (e : TC.entry) -> Vekt_ir.Verify.check_exn e.vfunc) entries
      with
      | exception e ->
          fail_op t ~wrong:true "%s: built IR fails verification: %s"
            (op_name o) (Printexc.to_string e);
          None
      | () ->
          let instrs =
            List.fold_left (fun acc (e : TC.entry) -> acc + e.static_instrs) 0 entries
          in
          Guard.check g (op_name o ^ ".static_instrs") (float_of_int instrs);
          Some (entries, us, minor_words))

let round ?sink t g rng =
  List.filter_map
    (fun o -> Option.map (fun r -> (o, r)) (build ?sink t g o))
    (shuffle rng ops)

let static_instrs_total g =
  List.fold_left
    (fun acc o ->
      acc
      +. Option.value ~default:nan
           (Guard.find g (op_name o ^ ".static_instrs")))
    0.0 ops

let timed_run ~seconds ~setups rng =
  let t = tally () and g = Guard.create () in
  (* set-up is one untimed warm-up round; with no engine to keep, every
     repetition is complete on its own *)
  let setup_s =
    List.init setups (fun _ ->
        let t0 = now_us () in
        ignore (round t g rng);
        Clock.elapsed_us t0 /. 1e6)
  in
  let per_op = Samples.create () in
  let rounds = ref 0 in
  let t_end = now_us () +. (seconds *. 1e6) in
  while now_us () < t_end do
    List.iter (fun (o, (_, us, _)) -> Samples.add per_op (op_name o) (us /. 1e3)) (round t g rng);
    incr rounds
  done;
  (* each (app, mode)'s fastest build of the run: see README.md,
     "Estimators" *)
  let best_round_s = Samples.sum_of ~q:0.0 per_op /. 1e3 in
  {
    attempted = t.attempted;
    failed = t.failed;
    correct = correct t;
    metrics =
      [
        ("setup_s", median setup_s, "s");
        ("op_ms_geomean", Samples.geomean_of ~q:0.0 per_op, "ms");
        ("ops_per_s", float_of_int (List.length ops) /. best_round_s, "1/s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ];
    provenance =
      [
        ("rounds", string_of_int !rounds);
        ("op_ms_geomean_of_medians", Fmt.str "%.4f" (Samples.geomean_of ~q:0.5 per_op));
        ("static_instrs_total", Fmt.str "%.0f" (static_instrs_total g));
      ];
  }

(* ---- the traced run: per-layer numbers ----

   Each compile layer is timed from outside, by calling its public
   function on the inputs [Translation_cache.compile_build] gives it;
   the cache's own builds run beside them with a trace sink attached. *)

module Parser = Vekt_ptx.Parser
module Typecheck = Vekt_ptx.Typecheck
module Ptx_to_ir = Vekt_transform.Ptx_to_ir
module Plan = Vekt_transform.Plan
module Passes = Vekt_transform.Passes
module Timing = Vekt_vm.Timing
module Ir = Vekt_ir.Ir

(* One round of outside timings, summed over every (app, mode) and
   width, as (metric, value) pairs. *)
let layer_round rng =
  let acc = Hashtbl.create 32 in
  let add k v =
    Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)
  in
  let time k f =
    let r, us = timed f in
    add k us;
    r
  in
  List.iter
    (fun o ->
      let src = o.w.src and kernel = o.w.kernel in
      let ast = time "parser.parse_us" (fun () -> Parser.parse_module src) in
      ignore (time "typecheck.check_us" (fun () -> Typecheck.check_module ast));
      let tr = time "ptx_to_ir.frontend_us" (fun () -> Ptx_to_ir.frontend ast ~kernel) in
      let plan =
        time "plan.compute_us" (fun () ->
            Plan.compute tr.func ~local_decl_bytes:tr.local_decl_bytes)
      in
      List.iter
        (fun ws ->
          let v =
            time "vectorize.run_us" (fun () ->
                Vectorize.run ~mode:o.config.mode ~plan tr.func ~ws)
          in
          add "ir.instrs_vectorized" (float_of_int (Ir.size v.func));
          let observe ~pass ~round:_ run =
            let changes, us = timed run in
            add (Printf.sprintf "passes.%s_us" pass) us;
            add (Printf.sprintf "passes.%s_changes" pass) (float_of_int changes);
            changes
          in
          let st = Passes.run ~observe ~pipeline:o.config.pipeline v.func in
          add "passes.rounds" (float_of_int st.rounds);
          add "ir.instrs_optimized" (float_of_int (Ir.size v.func));
          ignore
            (time "timing.analyze_us" (fun () ->
                 Timing.analyze Vekt_vm.Machine.sse4 v.func)))
        o.config.widths)
    (shuffle rng ops);
  acc

let traced_run rng =
  let t = tally () and g = Guard.create () in
  ignore (round t g rng);
  let tr = Obs.Trace.create ~capacity:(1 lsl 16) () in
  let sink = Obs.Trace.sink tr in
  let spans = Spans.create () in
  let rounds = 3 in
  let samples = Samples.create () in
  for _ = 1 to rounds do
    let layers = layer_round rng in
    Hashtbl.iter (fun k v -> Samples.add samples k v) layers;
    let built = round ~sink t g rng in
    let minor_words = sum (List.map (fun (_, (_, _, mw)) -> mw) built) in
    let entries = List.concat_map (fun (_, (es, _, _)) -> es) built in
    let compile_us = sum (List.map (fun (e : TC.entry) -> e.compile_us) entries) in
    let attributed =
      List.fold_left
        (fun acc k -> acc +. Option.value (Hashtbl.find_opt layers k) ~default:0.0)
        0.0
        ([ "vectorize.run_us"; "timing.analyze_us" ]
        @ List.map (fun n -> Printf.sprintf "passes.%s_us" n) (Passes.pass_names ()))
    in
    Samples.add samples "translation_cache.compile_us" compile_us;
    Samples.add samples "translation_cache.compiles" (float_of_int (List.length entries));
    Samples.add samples "translation_cache.unattributed_pct"
      (100.0 *. (compile_us -. attributed) /. compile_us);
    Samples.add samples "gc.minor_words_per_build"
      (minor_words /. float_of_int (List.length entries));
    (* the cache's own spans, folded per round; builds emit few events *)
    Spans.fold t spans tr ~what:"jit-cold round"
  done;
  Spans.print (Printf.sprintf "cold builds, %d rounds" rounds) spans;
  let metric name unit = (name, median (Samples.get samples name), unit) in
  let us name = metric name "us" and count name = metric name "count" in
  {
    attempted = t.attempted;
    failed = t.failed;
    correct = correct t;
    metrics =
      List.map us
        [ "parser.parse_us"; "typecheck.check_us"; "ptx_to_ir.frontend_us";
          "plan.compute_us"; "vectorize.run_us" ]
      @ List.map (fun n -> us (Printf.sprintf "passes.%s_us" n)) (Passes.pass_names ())
      @ [ us "timing.analyze_us" ]
      @ List.map (fun n -> count (Printf.sprintf "passes.%s_changes" n)) (Passes.pass_names ())
      @ [
          count "passes.rounds";
          metric "ir.instrs_vectorized" "instrs";
          metric "ir.instrs_optimized" "instrs";
          ("ir.static_instrs_total", static_instrs_total g, "instrs");
          us "translation_cache.compile_us";
          count "translation_cache.compiles";
          metric "translation_cache.unattributed_pct" "%";
          metric "gc.minor_words_per_build" "words";
          ("obs.trace_dropped", float_of_int !Spans.dropped, "count");
        ];
    provenance = [ ("rounds", string_of_int rounds); ("unit", "sums over one round") ];
  }
