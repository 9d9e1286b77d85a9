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

   `main.exe` with no arguments runs all paper experiments; pass section
   names to select.  `--scale N` grows problem sizes. *)

module Api = Vekt_runtime.Api
module Stats = Vekt_runtime.Stats
module TC = Vekt_runtime.Translation_cache
module Machine = Vekt_vm.Machine
module Vectorize = Vekt_transform.Vectorize
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
