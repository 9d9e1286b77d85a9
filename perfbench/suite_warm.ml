(* suite-warm: warm launches of every registry application.

   One operation is one [Api.launch] of one of the 27 applications at
   scale 2 under the default config.  Every module is loaded and warmed
   once in set-up, so the timed launches hit the translation cache and
   compile nothing: the interpreter, the execution manager, the worker
   pool and the yield spill/restore path do the work.  Each launch gets
   fresh inputs ([Api.reset_arena] + the application's [setup]) and its
   output is checked ([inst.check]); both stay outside the timed region. *)

open Measure
module Api = Vekt_runtime.Api
module Stats = Vekt_runtime.Stats
module Interp = Vekt_vm.Interp
module Obs = Vekt_obs
module Workload = Vekt_workloads.Workload
module Registry = Vekt_workloads.Registry

let scale = 2

type app = { w : Workload.t; m : Api.modul }

type env = { dev : Api.device; apps : app list }

let load ?(config = Api.default_config) dev =
  List.map
    (fun (w : Workload.t) -> { w; m = Api.load_module ~config dev w.src })
    Registry.all

(* What one checked launch observed. *)
type obs = {
  report : Api.report;
  wall_us : float;
  minor_words : float;  (** allocated by the launching domain *)
  minor_gcs : int;
}

(* One checked launch: fresh inputs, the timed launch, the host check.
   [None] when the launch raised or its output was wrong; both count as
   failed operations. *)
let launch ?(sink = Obs.Sink.noop) (t : tally) dev (a : app) : obs option =
  Api.reset_arena dev;
  let inst = a.w.setup ~scale dev in
  t.attempted <- t.attempted + 1;
  let g0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let t0 = now_us () in
  match
    Api.launch ~sink a.m ~kernel:a.w.kernel ~grid:inst.grid ~block:inst.block
      ~args:inst.args
  with
  | exception Vekt_error.Error e ->
      fail_op t ~wrong:false "%s: %s" a.w.name (Vekt_error.to_string e);
      None
  | report -> (
      let wall_us = Clock.elapsed_us t0 in
      let minor_words = Gc.minor_words () -. mw0 in
      let minor_gcs = (Gc.quick_stat ()).minor_collections - g0.minor_collections in
      match inst.check dev with
      | Ok () -> Some { report; wall_us; minor_words; minor_gcs }
      | Error e ->
          fail_op t ~wrong:true "%s: wrong output: %s" a.w.name e;
          None)

(* threadfence elects its last CTA with a global atomic, and that CTA
   does the final reduction.  With more than one domain, which worker
   runs it - and so the maximum over workers that [report.cycles] takes
   - depends on host timing.  Its serial cycle total does not. *)
let racy_wall_cycles = [ "threadfence" ]

(* The deterministic fingerprint of one launch: modelled cycles and the
   interpreter counters the paper's figures are built from. *)
let guard_launch g ~tag (a : app) (o : obs) =
  let c = o.report.stats.counters in
  let key what = Printf.sprintf "%s.%s.%s" tag a.w.name what in
  if not (List.mem a.w.name racy_wall_cycles) then
    Guard.check g (key "cycles") o.report.cycles;
  Guard.check g (key "total_cycles") (Stats.total_cycles o.report.stats);
  Guard.check g (key "dyn_instrs") (float_of_int c.Interp.dyn_instrs);
  Guard.check g (key "spills") (float_of_int c.Interp.spills);
  Guard.check g (key "restores") (float_of_int c.Interp.restores)

(* Guard keys carry the worker partition: it changes modelled cycles. *)
let tag_of (config : Api.config) =
  match config.workers with Some w -> Printf.sprintf "w%d" w | None -> "default"

let setup ?(config = Api.default_config) t g =
  let dev = Api.create_device () in
  let apps = load ~config dev in
  List.iter
    (fun a -> Option.iter (guard_launch g ~tag:(tag_of config) a) (launch t dev a))
    apps;
  { dev; apps }

(* The timed runs launch on one domain: see README.md, "Estimators". *)
let serial = { Api.default_config with workers = Some 1 }

(* One round: every application once, in a seed-permuted order. *)
let round ?sink ?(tag = "default") t g rng env apps =
  List.filter_map
    (fun a ->
      Option.map
        (fun o ->
          guard_launch g ~tag a o;
          (a, o))
        (launch ?sink t env.dev a))
    (shuffle rng apps)

(* A timed round launches each application back to back until its
   launches in this round add up to [rep_budget_us] (at least once), so
   the cheap applications are sampled many times per run while the
   round still visits every application at a different moment. *)
let rep_budget_us = 150e3

let timed_round t g rng env =
  List.concat_map
    (fun a ->
      let rec go spent acc =
        if spent >= rep_budget_us then acc
        else
          match launch t env.dev a with
          | Some o ->
              guard_launch g ~tag:(tag_of serial) a o;
              go (spent +. o.wall_us) ((a, o) :: acc)
          | None -> acc
      in
      go 0.0 [])
    (shuffle rng env.apps)

(* Over the applications whose modelled cycles are deterministic. *)
let modelled_cycles_geomean ?(tag = "default") g =
  List.filter_map
    (fun (w : Workload.t) -> Guard.find g (Printf.sprintf "%s.%s.cycles" tag w.name))
    Registry.all
  |> geomean

(* The worker partition and the domains it runs on (each launch further
   clamps both to its CTA count). *)
let provenance (config : Api.config) env =
  let w = Option.value config.workers ~default:env.dev.workers in
  [
    ("scale", string_of_int scale);
    ("workers", string_of_int w);
    ("domains", string_of_int (min w (Domain.recommended_domain_count ())));
  ]

let wall_sum obs = sum (List.map (fun (_, o) -> o.wall_us) obs)

let timed_run ~seconds ~setups rng =
  let t = tally () and g = Guard.create () in
  let setup_s = ref [] and env = ref None in
  for _ = 1 to setups do
    Gc.compact ();
    let e, us = timed (fun () -> setup ~config:serial t g) in
    setup_s := (us /. 1e6) :: !setup_s;
    env := Some e
  done;
  let env = Option.get !env in
  (* the earlier set-ups' engines are garbage now; collect them before
     timing rather than during the first rounds *)
  Gc.compact ();
  let per_app = Samples.create () in
  let rounds = ref 0 in
  let t_end = now_us () +. (seconds *. 1e6) in
  while now_us () < t_end do
    List.iter
      (fun ((a : app), o) -> Samples.add per_app a.w.name (o.wall_us /. 1e3))
      (timed_round t g rng env);
    incr rounds
  done;
  (* each application's fastest launch of the run: see README.md,
     "Estimators", for why not the median *)
  let best_round_s = Samples.sum_of ~q:0.0 per_app /. 1e3 in
  {
    attempted = t.attempted;
    failed = t.failed;
    correct = correct t;
    metrics =
      [
        ("setup_s", median !setup_s, "s");
        ("op_ms_geomean", Samples.geomean_of ~q:0.0 per_app, "ms");
        ("ops_per_s", float_of_int (List.length env.apps) /. best_round_s, "1/s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ];
    provenance =
      provenance serial env
      @ [
          ("rounds", string_of_int !rounds);
          ("op_ms_geomean_of_medians", Fmt.str "%.4f" (Samples.geomean_of ~q:0.5 per_app));
          ( "modelled_cycles_geomean_w1",
            Fmt.str "%.17g" (modelled_cycles_geomean ~tag:(tag_of serial) g) );
        ];
  }

(* ---- the traced run: per-layer numbers ---- *)

module TC = Vekt_runtime.Translation_cache

let cache_counts env =
  List.fold_left
    (fun (h, lf, m) a ->
      let c = Api.kernel_cache a.m ~kernel:a.w.kernel in
      let lf' = Atomic.get c.TC.par_hits in
      (h + c.TC.hits + lf', lf + lf', m + c.TC.misses))
    (0, 0, 0) env.apps

let tracer = lazy (Obs.Trace.create ~capacity:(1 lsl 20) ())

(* A traced round: same launches, each one folded on its own. *)
let traced_round t g rng env apps ~tag acc =
  let tr = Lazy.force tracer in
  List.filter_map
    (fun a ->
      let o = launch ~sink:(Obs.Trace.sink tr) t env.dev a in
      Spans.fold t acc tr ~what:a.w.name;
      Option.map
        (fun o ->
          guard_launch g ~tag a o;
          (a, o))
        o)
    (shuffle rng apps)

let app_geomean obs = geomean (List.map (fun (_, o) -> o.wall_us) obs)

let traced_run rng =
  let t = tally () and g = Guard.create () in
  let env = setup t g in
  let h0, lf0, m0 = cache_counts env in
  let plain = round t g rng env env.apps in
  let h1, lf1, m1 = cache_counts env in
  let spans = Spans.create () in
  let traced = traced_round t g rng env env.apps ~tag:"default" spans in
  Spans.print "default config" spans;
  (* workers = 1: the same engine caches (workers is not part of the
     cache key), so this compiles nothing *)
  let apps1 = load ~config:serial env.dev in
  let serial_obs = round ~tag:(tag_of serial) t g rng env apps1 in
  let spans1 = Spans.create () in
  ignore (traced_round t g rng env apps1 ~tag:(tag_of serial) spans1);
  Spans.print "workers=1" spans1;
  let total = Stats.create () in
  List.iter (fun (_, o) -> Stats.merge_into ~into:total o.report.stats) plain;
  let c = total.counters in
  let cyc = Stats.total_cycles total in
  let pct x = 100.0 *. x /. cyc in
  let dyn = float_of_int c.dyn_instrs in
  let dyn1 =
    sum (List.map (fun (_, o) -> float_of_int o.report.stats.counters.dyn_instrs) serial_obs)
  in
  let nlaunch = float_of_int (List.length plain) in
  {
    attempted = t.attempted;
    failed = t.failed;
    correct = correct t;
    metrics =
      [
        ("interp.dyn_instrs", dyn, "instrs");
        ("interp.minstr_per_s", dyn /. wall_sum plain, "Minstr/s");
        ("interp.spills", float_of_int c.spills, "count");
        ("interp.restores", float_of_int c.restores, "count");
        ("exec_manager.kernel_calls", float_of_int c.kernel_calls, "count");
        ("exec_manager.avg_warp_size", Stats.average_warp_size total, "threads");
        ("timing.cycles_body_pct", pct c.cycles_body, "%");
        ("timing.cycles_scheduler_pct", pct (c.cycles_scheduler +. total.em_cycles), "%");
        ("timing.cycles_entry_pct", pct c.cycles_entry, "%");
        ("timing.cycles_exit_pct", pct c.cycles_exit, "%");
        ("timing.modelled_cycles_geomean", modelled_cycles_geomean g, "cycles");
        ("exec_manager.cta_us", Spans.wall spans "cta", "us");
        ("translation_cache.lookup_us", Spans.wall spans1 "cache_lookup", "us");
        ("translation_cache.hits", float_of_int (h1 - h0), "count");
        ("translation_cache.hits_lockfree", float_of_int (lf1 - lf0), "count");
        ("translation_cache.misses", float_of_int (m1 - m0), "count");
        ("worker_pool.parallel_speedup", app_geomean serial_obs /. app_geomean plain, "x");
        ( "gc.minor_words_per_instr",
          sum (List.map (fun (_, o) -> o.minor_words) serial_obs) /. dyn1,
          "words" );
        ( "gc.minor_collections_per_launch",
          float_of_int (List.fold_left (fun acc (_, o) -> acc + o.minor_gcs) 0 plain)
          /. nlaunch,
          "count" );
        ( "obs.trace_overhead_pct",
          100.0 *. (wall_sum traced -. wall_sum plain) /. wall_sum plain,
          "%" );
        ("obs.trace_dropped", float_of_int !Spans.dropped, "count");
      ];
    provenance =
      provenance Api.default_config env
      @ [
          ("workers_serial", "1");
          ("cache_lookup", "observed at workers=1 only: the lock-free hit path emits no span");
        ];
  }
