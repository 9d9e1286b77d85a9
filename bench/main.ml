(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (§6):

     table1   peak FP throughput vs warp size        (Table 1)
     fig6     speedup of dynamic vectorization       (Figure 6)
     fig7     average warp size / size fractions     (Figure 7)
     fig8     live values restored per entry         (Figure 8)
     fig9     cycle attribution EM/yield/subkernel   (Figure 9)
     sec62    TIE static instruction reduction       (§6.2)
     fig10    static+TIE speedup over dynamic        (Figure 10)
     ablate-cap    max-warp-size sweep (motivated by §6.1's observation
                   that capping helps irregular apps)
     ablate-yield  EM-overhead sensitivity (§6.1, "improving efficiency of
                   the execution manager is key")
     ablate-sched  warp-formation policy sweep (dynamic vs barrier-aware)
     ablate-tier   tiered JIT vs eager compilation (compile wall time)
     bechamel      wall-clock microbenchmarks of the dynamic compiler

   `main.exe` with no arguments runs all paper experiments; pass section
   names to select.  `--scale N` grows problem sizes. *)

module Api = Vekt_runtime.Api
module Stats = Vekt_runtime.Stats
module TC = Vekt_runtime.Translation_cache
module Interp = Vekt_vm.Interp
module Machine = Vekt_vm.Machine
module Vectorize = Vekt_transform.Vectorize
module Ptx_to_ir = Vekt_transform.Ptx_to_ir
module Plan = Vekt_transform.Plan
module J = Vekt_obs.Jsonx
open Vekt_ptx
open Vekt_workloads

let scale = ref 2

(* ------------------------------------------------------------------ *)
(* Runner *)

type run = { report : Api.report; name : string }

(* With [--trace-dir DIR], every workload launch writes a Chrome
   trace-event artifact DIR/<workload>-<seq>.json (multiple configs of
   the same workload get successive sequence numbers), so any figure
   regression can be drilled into in Perfetto. *)
let trace_dir : string option ref = ref None
let trace_seq = ref 0

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let emit_trace name (t : Vekt_obs.Trace.t) =
  match !trace_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      incr trace_seq;
      write_file
        (Fmt.str "%s/%s-%03d.json" dir name !trace_seq)
        (Vekt_obs.Trace.to_chrome_json t)

let run_workload ?em_costs (w : Workload.t) (config : Api.config) : run =
  let dev = Api.create_device ?em_costs () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup ~scale:!scale dev in
  let tracer =
    match !trace_dir with
    | Some _ -> Some (Vekt_obs.Trace.create ~capacity:(1 lsl 18) ())
    | None -> None
  in
  let sink =
    match tracer with
    | Some t -> Vekt_obs.Trace.sink t
    | None -> Vekt_obs.Sink.noop
  in
  let report =
    Api.launch ~sink m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
      ~block:inst.Workload.block ~args:inst.Workload.args
  in
  Option.iter (emit_trace w.Workload.name) tracer;
  (match inst.Workload.check dev with
  | Ok () -> ()
  | Error e -> Fmt.failwith "%s: wrong results under %s: %s" w.Workload.name "bench" e);
  { report; name = w.Workload.name }

let scalar_config = { Api.default_config with widths = [ 1 ] }
let dynamic_config = Api.default_config
let static_config = { Api.default_config with mode = Vectorize.Static_tie }

let header title =
  Fmt.pr "@.=== %s ===@." title

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let table1 () =
  header "Table 1: peak single-precision throughput vs warp size";
  Fmt.pr "(microbenchmark: %d threads of unrolled independent FMA chains)@."
    W_throughput.threads;
  let paper = [ (1, 25.0); (2, 47.9); (4, 97.1); (8, 37.0) ] in
  Fmt.pr "%-10s %14s %14s@." "warp size" "GFLOP/s" "paper GFLOP/s";
  List.iter
    (fun (ws, paper_gflops) ->
      let config =
        { Api.default_config with widths = (if ws = 1 then [ 1 ] else [ ws; 1 ]) }
      in
      let dev = Api.create_device () in
      let m = Api.load_module ~config dev W_throughput.src in
      let inst = W_throughput.setup ~scale:(4 * !scale) dev in
      let r =
        Api.launch m ~kernel:"throughput" ~grid:inst.Workload.grid
          ~block:inst.Workload.block ~args:inst.Workload.args
      in
      (match inst.Workload.check dev with
      | Ok () -> ()
      | Error e -> Fmt.failwith "throughput ws=%d wrong: %s" ws e);
      Fmt.pr "%-10d %14.1f %14.1f@." ws r.Api.gflops paper_gflops)
    paper;
  Fmt.pr "machine peak: %.1f GFLOP/s (paper estimate: 108)@."
    (Machine.peak_sp_gflops Machine.sse4)

(* ------------------------------------------------------------------ *)
(* Figure 6 *)

(* Speedups the paper states in its text; most bars are only readable
   approximately, so we list the explicitly named ones. *)
let paper_fig6 =
  [ ("binomial", 2.25); ("cp", 3.9) ]

let fig6 () =
  header "Figure 6: speedup of 4-wide dynamic vectorization over scalar";
  Fmt.pr "%-14s %10s %10s %10s %12s@." "application" "scalar" "vec4" "speedup"
    "paper";
  let speedups =
    List.map
      (fun (w : Workload.t) ->
        let s = run_workload w scalar_config in
        let v = run_workload w dynamic_config in
        let speedup = s.report.Api.cycles /. v.report.Api.cycles in
        let paper =
          match List.assoc_opt w.Workload.name paper_fig6 with
          | Some x -> Fmt.str "%.2fx" x
          | None -> "-"
        in
        Fmt.pr "%-14s %10.0f %10.0f %9.2fx %12s@." w.Workload.name
          s.report.Api.cycles v.report.Api.cycles speedup paper;
        speedup)
      Registry.all
  in
  Fmt.pr "average speedup: %.2fx (paper: 1.45x)@." (mean speedups)

(* ------------------------------------------------------------------ *)
(* Figure 7 *)

let fig7 () =
  header "Figure 7: warp-size distribution at maximum warp size 4";
  Fmt.pr "%-14s %8s %8s %8s %10s@." "application" "ws=1" "ws=2" "ws=4" "avg size";
  List.iter
    (fun (w : Workload.t) ->
      let v = run_workload w dynamic_config in
      let f ws = Stats.warp_fraction v.report.Api.stats ws in
      Fmt.pr "%-14s %7.1f%% %7.1f%% %7.1f%% %10.2f@." w.Workload.name
        (100. *. f 1) (100. *. f 2) (100. *. f 4)
        (Stats.average_warp_size v.report.Api.stats))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Figure 8 *)

let fig8 () =
  header "Figure 8: average live values restored per thread per entry";
  Fmt.pr "%-14s %12s@." "application" "restores";
  let avgs =
    List.map
      (fun (w : Workload.t) ->
        let v = run_workload w dynamic_config in
        let avg = Stats.average_restores_per_thread v.report.Api.stats in
        Fmt.pr "%-14s %12.2f@." w.Workload.name avg;
        avg)
      Registry.all
  in
  Fmt.pr "average: %.2f values/thread (paper: 4.54)@." (mean avgs)

(* ------------------------------------------------------------------ *)
(* Figure 9 *)

let fig9 () =
  header "Figure 9: cycle attribution (execution manager / yields / subkernel)";
  Fmt.pr "%-14s %8s %8s %10s@." "application" "EM" "yield" "subkernel";
  List.iter
    (fun (w : Workload.t) ->
      let v = run_workload w dynamic_config in
      let em, yld, body = Stats.cycle_breakdown v.report.Api.stats in
      Fmt.pr "%-14s %7.1f%% %7.1f%% %9.1f%%@." w.Workload.name (100. *. em)
        (100. *. yld) (100. *. body))
    Registry.all

(* ------------------------------------------------------------------ *)
(* §6.2 static instruction counts *)

let sec62 () =
  header "Section 6.2: thread-invariant elimination, static instruction reduction";
  List.iter
    (fun ws ->
      let reductions =
        List.map
          (fun (w : Workload.t) ->
            let dev = Api.create_device () in
            let dyn_m =
              Api.load_module ~config:{ dynamic_config with widths = [ ws; 1 ] } dev
                w.Workload.src
            in
            let sta_m =
              Api.load_module ~config:{ static_config with widths = [ ws; 1 ] } dev
                w.Workload.src
            in
            let dyn = TC.get (Api.kernel_cache dyn_m ~kernel:w.Workload.kernel) ~ws () in
            let sta = TC.get (Api.kernel_cache sta_m ~kernel:w.Workload.kernel) ~ws () in
            let d = float_of_int dyn.TC.static_instrs in
            let s = float_of_int sta.TC.static_instrs in
            (d -. s) /. d)
          Registry.all
      in
      Fmt.pr "warp size %d: %.1f%% of instructions eliminated (paper: %s)@." ws
        (100. *. mean reductions)
        (if ws = 2 then "9.5%" else "11.5%"))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Figure 10 *)

let fig10 () =
  header "Figure 10: static warp formation + TIE, speedup over dynamic formation";
  Fmt.pr "%-14s %10s %10s %10s@." "application" "dynamic" "static" "speedup";
  let speedups =
    List.map
      (fun (w : Workload.t) ->
        let d = run_workload w dynamic_config in
        let s = run_workload w static_config in
        let speedup = d.report.Api.cycles /. s.report.Api.cycles in
        Fmt.pr "%-14s %10.0f %10.0f %9.2fx@." w.Workload.name d.report.Api.cycles
          s.report.Api.cycles speedup;
        speedup)
      Registry.all
  in
  Fmt.pr "average speedup: %.2fx (paper: 1.113x, MersenneTwister up to 6.4x)@."
    (mean speedups)

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablate_cap () =
  header "Ablation: capping the maximum warp size (per-application best width)";
  Fmt.pr "%-14s %10s %10s %10s %8s@." "application" "cap=1" "cap=2" "cap=4" "best";
  List.iter
    (fun (w : Workload.t) ->
      let cycles cap =
        let widths = List.filter (fun x -> x <= cap) [ 4; 2; 1 ] in
        (run_workload w { dynamic_config with widths }).report.Api.cycles
      in
      let c1 = cycles 1 and c2 = cycles 2 and c4 = cycles 4 in
      let best = if c1 <= c2 && c1 <= c4 then 1 else if c2 <= c4 then 2 else 4 in
      Fmt.pr "%-14s %10.0f %10.0f %10.0f %8d@." w.Workload.name c1 c2 c4 best)
    Registry.all

let ablate_affine () =
  header "Ablation: affine/uniform memory coalescing (paper §4 future work)";
  Fmt.pr "(static warp formation; vector loads need consecutive-tid lanes)@.";
  Fmt.pr "%-14s %12s %12s %10s@." "application" "static" "static+affine" "speedup";
  let speedups =
    List.map
      (fun (w : Workload.t) ->
        let s = run_workload w static_config in
        let a = run_workload w { static_config with affine = true } in
        let speedup = s.report.Api.cycles /. a.report.Api.cycles in
        Fmt.pr "%-14s %12.0f %12.0f %9.2fx@." w.Workload.name s.report.Api.cycles
          a.report.Api.cycles speedup;
        speedup)
      Registry.all
  in
  Fmt.pr "average speedup: %.2fx (largest gains on memory-bound kernels)@."
    (mean speedups)

let ablate_machine () =
  header "Ablation: AVX-class 8-wide machine (paper: \"expected to scale\")";
  Fmt.pr "%-10s %16s %16s@." "warp size" "SSE4 GFLOP/s" "AVX GFLOP/s";
  List.iter
    (fun ws ->
      let gflops machine =
        let dev = Api.create_device ~machine () in
        let config =
          { Api.default_config with widths = (if ws = 1 then [ 1 ] else [ ws; 1 ]) }
        in
        let m = Api.load_module ~config dev W_throughput.src in
        let inst = W_throughput.setup ~scale:(2 * !scale) dev in
        let r =
          Api.launch m ~kernel:"throughput" ~grid:inst.Workload.grid
            ~block:inst.Workload.block ~args:inst.Workload.args
        in
        r.Api.gflops
      in
      Fmt.pr "%-10d %16.1f %16.1f@." ws (gflops Machine.sse4) (gflops Machine.avx))
    [ 1; 2; 4; 8 ];
  Fmt.pr "AVX peak: %.1f GFLOP/s — the 8-wide specialization that collapses on a\n4-wide machine scales on an 8-wide one.@."
    (Machine.peak_sp_gflops Machine.avx)

let ablate_spec () =
  header "Ablation: kernel-argument specialization (paper §5.1 future work)";
  Fmt.pr "%-14s %12s %12s %10s@." "application" "generic" "specialized" "speedup";
  let speedups =
    List.map
      (fun (w : Workload.t) ->
        let g = run_workload w dynamic_config in
        let s = run_workload w { dynamic_config with specialize_args = true } in
        let speedup = g.report.Api.cycles /. s.report.Api.cycles in
        Fmt.pr "%-14s %12.0f %12.0f %9.2fx@." w.Workload.name g.report.Api.cycles
          s.report.Api.cycles speedup;
        speedup)
      Registry.all
  in
  Fmt.pr "average speedup: %.2fx (param loads fold into the code)@." (mean speedups)

let ablate_yield () =
  header "Ablation: execution-manager overhead sensitivity (speedup of vec4 vs scalar)";
  let factors = [ 0.0; 0.5; 1.0; 2.0; 4.0 ] in
  Fmt.pr "%-14s" "application";
  List.iter (fun f -> Fmt.pr " %9s" (Fmt.str "em x%.1f" f)) factors;
  Fmt.pr "@.";
  List.iter
    (fun (w : Workload.t) ->
      Fmt.pr "%-14s" w.Workload.name;
      List.iter
        (fun f ->
          let c = Vekt_runtime.Exec_manager.default_costs in
          let em_costs =
            {
              Vekt_runtime.Exec_manager.per_kernel_call = c.per_kernel_call *. f;
              per_candidate_scan = c.per_candidate_scan *. f;
              per_lane_update = c.per_lane_update *. f;
              per_barrier_release = c.per_barrier_release *. f;
            }
          in
          let s = run_workload ~em_costs w scalar_config in
          let v = run_workload ~em_costs w dynamic_config in
          Fmt.pr " %8.2fx" (s.report.Api.cycles /. v.report.Api.cycles))
        factors;
      Fmt.pr "@.")
    (List.filter
       (fun (w : Workload.t) ->
         List.mem w.Workload.name [ "reduction"; "matrixmul"; "binomial"; "cp"; "vecadd" ])
       Registry.all)

let ablate_sched () =
  header "Ablation: warp-formation policy (cycles under dynamic vectorization)";
  Fmt.pr "%-14s %10s %10s %12s %10s@." "application" "dynamic" "barrier"
    "barrier/dyn" "avg ws";
  let module Sched = Vekt_runtime.Scheduler in
  let ratios =
    List.map
      (fun (w : Workload.t) ->
        let d =
          run_workload w { dynamic_config with sched = Some Sched.Dynamic }
        in
        let b =
          run_workload w { dynamic_config with sched = Some Sched.Barrier_aware }
        in
        let ratio = b.report.Api.cycles /. d.report.Api.cycles in
        Fmt.pr "%-14s %10.0f %10.0f %11.3fx %10.2f@." w.Workload.name
          d.report.Api.cycles b.report.Api.cycles ratio
          (Stats.average_warp_size b.report.Api.stats);
        ratio)
      Registry.all
  in
  Fmt.pr
    "average barrier-aware/dynamic cycle ratio: %.3fx (gains concentrate on\nbarrier-heavy kernels; uniform kernels are unchanged)@."
    (mean ratios)

let ablate_tier () =
  header "Ablation: tiered JIT compilation (compile wall time vs eager)";
  Fmt.pr "%-14s %12s %12s %10s %6s %6s@." "application" "eager us" "tiered us"
    "compiles" "promo" "evict";
  let tiered_config =
    {
      dynamic_config with
      tiering = TC.Tiered { hot_threshold = TC.default_hot_threshold };
      cache_capacity = Some 8;
    }
  in
  List.iter
    (fun (w : Workload.t) ->
      let cache config =
        let dev = Api.create_device () in
        let m = Api.load_module ~config dev w.Workload.src in
        let inst = w.Workload.setup ~scale:!scale dev in
        ignore
          (Api.launch m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
             ~block:inst.Workload.block ~args:inst.Workload.args);
        Api.kernel_cache m ~kernel:w.Workload.kernel
      in
      let e = cache dynamic_config in
      let t = cache tiered_config in
      Fmt.pr "%-14s %12.1f %12.1f %10d %6d %6d@." w.Workload.name
        e.TC.compile_wall_us t.TC.compile_wall_us t.TC.compile_count
        t.TC.promotions t.TC.evictions)
    Registry.all;
  Fmt.pr
    "tier 0 serves cold launches without the pass pipeline; hot widths are\npromoted after %d queries, so steady-state code quality matches eager.@."
    TC.default_hot_threshold

(* ------------------------------------------------------------------ *)
(* Worker-pool scaling: real wall-clock over domain counts *)

(* Unlike every section above (which reports *modelled* cycles), this
   one measures host wall-clock time of the launch itself, because the
   worker pool is real parallelism: one OCaml domain per execution
   manager.  Each (workload, workers) cell gets a fresh module, one
   untimed warmup launch (pays JIT compilation once), then the best of
   [reps] timed launches.  Results land in BENCH_parallel.json;
   speedups only materialize on hosts with spare cores, so the host's
   core count is recorded alongside. *)
let scaling_out = ref "BENCH_parallel.json"

let scaling () =
  header "Scaling: domain-parallel worker pool (host wall-clock)";
  let worker_counts = [ 1; 2; 4; 8 ] in
  let reps = 5 in
  let cores = Domain.recommended_domain_count () in
  Fmt.pr
    "host reports %d usable cores; best-of-%d per cell, percentiles over reps@."
    cores reps;
  Fmt.pr "%-14s %6s" "application" "ncta";
  List.iter (fun w -> Fmt.pr " %10s" (Fmt.str "w%d us" w)) worker_counts;
  Fmt.pr " %9s %8s %8s %8s@." "x at w4" "p50 w4" "p95 w4" "p99 w4";
  let module Clock = Vekt_runtime.Clock in
  let module Metrics = Vekt_obs.Metrics in
  let reg = Metrics.create () in
  let results =
    List.map
      (fun (w : Workload.t) ->
        let cell workers =
          let dev = Api.create_device () in
          let config = { Api.default_config with workers = Some workers } in
          let m = Api.load_module ~config dev w.Workload.src in
          let inst = w.Workload.setup ~scale:!scale dev in
          let launch () =
            ignore
              (Api.launch m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
                 ~block:inst.Workload.block ~args:inst.Workload.args)
          in
          launch () (* warmup: JIT compiles land here *);
          (* Every rep lands in a histogram so the artifact carries the
             rep-to-rep launch-latency spread, not just the minimum. *)
          let h =
            Metrics.histogram reg
              (Fmt.str "%s.w%d.launch_us" w.Workload.name workers)
          in
          let best = ref infinity in
          for _ = 1 to reps do
            let t0 = Clock.now_us () in
            launch ();
            let us = Clock.elapsed_us t0 in
            Metrics.observe h (int_of_float us);
            best := Float.min !best us
          done;
          (Launch.count inst.Workload.grid, !best, h)
        in
        let cells = List.map (fun n -> (n, cell n)) worker_counts in
        let ncta, base, _ = snd (List.hd cells) in
        Fmt.pr "%-14s %6d" w.Workload.name ncta;
        List.iter (fun (_, (_, us, _)) -> Fmt.pr " %10.0f" us) cells;
        let sp4 =
          match List.assoc_opt 4 cells with
          | Some (_, us, _) when us > 0.0 -> base /. us
          | _ -> 0.0
        in
        (match List.assoc_opt 4 cells with
        | Some (_, _, h4) ->
            let p50, p95, p99 = Metrics.percentiles h4 in
            Fmt.pr " %8.2fx %8d %8d %8d@." sp4 p50 p95 p99
        | None -> Fmt.pr " %8.2fx@." sp4);
        (w.Workload.name, ncta, List.map (fun (n, (_, us, h)) -> (n, us, h)) cells))
      Registry.all
  in
  let wall_of n cells =
    List.find_opt (fun (m, _, _) -> m = n) cells
    |> Option.map (fun (_, us, _) -> us)
  in
  let fast4 =
    List.filter
      (fun (_, ncta, cells) ->
        ncta >= 2
        &&
        match (wall_of 1 cells, wall_of 4 cells) with
        | Some b, Some u when u > 0.0 -> b /. u >= 1.5
        | _ -> false)
      results
  in
  Fmt.pr "%d/%d multi-CTA workloads reach >=1.5x at 4 workers on this host@."
    (List.length fast4)
    (List.length (List.filter (fun (_, ncta, _) -> ncta >= 2) results));
  (* one {"<workers>": value} object per measured quantity *)
  let per_workers f cells =
    J.Obj (List.map (fun (n, us, h) -> (string_of_int n, f us h)) cells)
  in
  let workload (name, ncta, cells) =
    let base = Option.value (wall_of 1 cells) ~default:0.0 in
    J.Obj
      [
        ("name", J.Str name);
        ("ncta", J.Int ncta);
        ("wall_us", per_workers (fun us _ -> J.Float us) cells);
        ( "speedup",
          per_workers
            (fun us _ -> J.Float (if us > 0.0 && base > 0.0 then base /. us else 0.0))
            cells );
        ( "launch_us_pct",
          per_workers
            (fun _ h ->
              let p50, p95, p99 = Metrics.percentiles h in
              J.Obj [ ("p50", J.Int p50); ("p95", J.Int p95); ("p99", J.Int p99) ])
            cells );
      ]
  in
  write_file !scaling_out
    (J.to_line
       (J.Obj
          [
            ("host_cores", J.Int cores);
            ("scale", J.Int !scale);
            ("reps", J.Int reps);
            ("workers", J.List (List.map (fun n -> J.Int n) worker_counts));
            ("workloads", J.List (List.map workload results));
          ]));
  Fmt.pr "wrote %s@." !scaling_out

(* ------------------------------------------------------------------ *)
(* Checkpoint overhead: wall-clock cost of snapshotting in-flight
   launches (DESIGN.md §3.5) *)

(* Wall-clock again, like [scaling]: snapshot serialization and the
   write to disk are host-side costs invisible to the modelled-cycle
   clocks.  Each (workload, interval) cell gets a fresh module, one
   untimed warmup launch, then the best of [reps] timed launches; the
   snapshot count and bytes written come from the launch's checkpoint
   bookkeeping.  Interval 0 is the no-checkpoint baseline (run serial,
   as checkpointing is, so the ratio isolates the snapshot cost). *)
let ckpt_out = ref "BENCH_checkpoint.json"

let ckpt () =
  header "Checkpoint overhead: snapshot interval vs wall-clock";
  let intervals = [ 0; 64; 512 ] in
  let reps = 2 in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "vekt-bench-ckpt" in
  let module Clock = Vekt_runtime.Clock in
  Fmt.pr "snapshots land in %s; timing best-of-%d per cell@." dir reps;
  Fmt.pr "%-14s %6s" "application" "ncta";
  List.iter
    (fun n -> Fmt.pr " %10s" (if n = 0 then "off us" else Fmt.str "e%d us" n))
    intervals;
  Fmt.pr " %9s %9s@." "ovh e64" "snaps e64";
  let results =
    List.map
      (fun (w : Workload.t) ->
        let cell every =
          let dev = Api.create_device () in
          let config =
            {
              Api.default_config with
              workers = Some 1;
              checkpoint_every = every;
              checkpoint_dir = dir;
            }
          in
          let m = Api.load_module ~config dev w.Workload.src in
          let inst = w.Workload.setup ~scale:!scale dev in
          let launch () =
            ignore
              (Api.launch m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
                 ~block:inst.Workload.block ~args:inst.Workload.args)
          in
          launch () (* warmup: JIT compiles land here *);
          let best = ref infinity in
          for _ = 1 to reps do
            let t0 = Clock.now_us () in
            launch ();
            best := Float.min !best (Clock.elapsed_us t0)
          done;
          let snaps, bytes =
            match m.Api.last_ckpt with
            | Some c ->
                ( c.Vekt_runtime.Checkpoint.writes,
                  c.Vekt_runtime.Checkpoint.bytes_written )
            | None -> (0, 0)
          in
          (Launch.count inst.Workload.grid, !best, snaps, bytes)
        in
        let cells = List.map (fun n -> (n, cell n)) intervals in
        let ncta, base, _, _ = snd (List.hd cells) in
        Fmt.pr "%-14s %6d" w.Workload.name ncta;
        List.iter (fun (_, (_, us, _, _)) -> Fmt.pr " %10.0f" us) cells;
        (match List.assoc_opt 64 cells with
        | Some (_, us, snaps, _) when base > 0.0 ->
            Fmt.pr " %8.2fx %9d@." (us /. base) snaps
        | _ -> Fmt.pr "@.");
        (w.Workload.name, ncta, cells))
      Registry.all
  in
  let workload (name, ncta, cells) =
    let _, base, _, _ = List.assoc 0 cells in
    let field f = J.Obj (List.map (fun (n, c) -> (string_of_int n, f c)) cells) in
    J.Obj
      [
        ("name", J.Str name);
        ("ncta", J.Int ncta);
        ("wall_us", field (fun (_, us, _, _) -> J.Float us));
        ("snapshots", field (fun (_, _, s, _) -> J.Int s));
        ("bytes", field (fun (_, _, _, b) -> J.Int b));
        ( "overhead",
          field (fun (_, us, _, _) -> J.Float (if base > 0.0 then us /. base else 0.0)) );
      ]
  in
  write_file !ckpt_out
    (J.to_line
       (J.Obj
          [
            ("scale", J.Int !scale);
            ("reps", J.Int reps);
            ("intervals", J.List (List.map (fun n -> J.Int n) intervals));
            ("workloads", J.List (List.map workload results));
          ]));
  Fmt.pr "wrote %s@." !ckpt_out

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock microbenchmarks of the dynamic compiler itself *)

let bechamel () =
  header "Bechamel: dynamic-compiler wall-clock microbenchmarks";
  let open Bechamel in
  let src = W_blackscholes.src in
  let parsed = Parser.parse_module src in
  let tr () = Ptx_to_ir.frontend parsed ~kernel:"blackscholes" in
  let translated = tr () in
  let plan =
    Plan.compute translated.Ptx_to_ir.func
      ~local_decl_bytes:translated.Ptx_to_ir.local_decl_bytes
  in
  let tests =
    [
      Test.make ~name:"parse" (Staged.stage (fun () -> Parser.parse_module src));
      Test.make ~name:"frontend (typecheck+ifconv+translate)"
        (Staged.stage (fun () -> tr ()));
      Test.make ~name:"vectorize w4"
        (Staged.stage (fun () ->
             Vectorize.run ~plan translated.Ptx_to_ir.func ~ws:4));
      Test.make ~name:"vectorize+optimize w4"
        (Staged.stage (fun () ->
             let v = Vectorize.run ~plan translated.Ptx_to_ir.func ~ws:4 in
             Vekt_transform.Passes.optimize v.Vectorize.func));
      Test.make ~name:"timing analysis w4"
        (Staged.stage
           (let v = Vectorize.run ~plan translated.Ptx_to_ir.func ~ws:4 in
            fun () -> Vekt_vm.Timing.analyze Machine.sse4 v.Vectorize.func));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let t = Test.make_grouped ~name:"compiler" ~fmt:"%s %s" tests in
  let results = analyze (benchmark t) in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Fmt.pr "%-45s %10.1f ns/run@." name est
      | _ -> Fmt.pr "%-45s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("table1", table1);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("sec62", sec62);
    ("fig10", fig10);
    ("ablate-cap", ablate_cap);
    ("ablate-yield", ablate_yield);
    ("ablate-affine", ablate_affine);
    ("ablate-machine", ablate_machine);
    ("ablate-spec", ablate_spec);
    ("ablate-sched", ablate_sched);
    ("ablate-tier", ablate_tier);
    ("scaling", scaling);
    ("ckpt", ckpt);
    ("bechamel", bechamel);
  ]

let paper_sections =
  [ "table1"; "fig6"; "fig7"; "fig8"; "fig9"; "sec62"; "fig10" ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse_args = function
    | "--scale" :: n :: rest ->
        scale := int_of_string n;
        parse_args rest
    | "--trace-dir" :: dir :: rest ->
        trace_dir := Some dir;
        parse_args rest
    | "--scaling-out" :: path :: rest ->
        scaling_out := path;
        parse_args rest
    | "--ckpt-out" :: path :: rest ->
        ckpt_out := path;
        parse_args rest
    | x :: rest -> x :: parse_args rest
    | [] -> []
  in
  let selected = parse_args args in
  let selected = if selected = [] then paper_sections else selected in
  Fmt.pr "vekt benchmark harness — machine model: %s, scale %d@."
    Machine.sse4.Machine.name !scale;
  List.iter
    (fun name ->
      match List.assoc_opt name all_sections with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown section %s (available: %s)@." name
            (String.concat ", " (List.map fst all_sections));
          exit 1)
    selected
