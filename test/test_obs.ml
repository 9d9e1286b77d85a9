(* Tests for the observability library (Vekt_obs) and its runtime
   wiring: trace ring buffer, Chrome trace-event export (validated with
   a standalone JSON parser), metrics registry exporters, divergence
   profiles reconciling with Stats aggregates on real workloads, and
   the zero-overhead guarantee of the no-op sink. *)

module Api = Vekt_runtime.Api
module TC = Vekt_runtime.Translation_cache
module EM = Vekt_runtime.Exec_manager
module Stats = Vekt_runtime.Stats
module Interp = Vekt_vm.Interp
module Event = Vekt_obs.Event
module Sink = Vekt_obs.Sink
module Trace = Vekt_obs.Trace
module Metrics = Vekt_obs.Metrics
module Divergence = Vekt_obs.Divergence
module Jsonx = Vekt_obs.Jsonx
open Vekt_workloads

(* --- a strict little JSON syntax checker (no JSON library in the
   dependency set, and the point is to validate Jsonx's printer — which
   every exporter goes through — against an independent reader) --- *)

exception Bad_json of string

let check_json (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad_json (Fmt.str "%s at offset %d" msg !pos)) in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Fmt.str "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape");
          go ()
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let parse_number () =
    let digits () =
      let any = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            any := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if not !any then fail "expected digit"
    in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ())
  in
  let literal l =
    String.iter (fun c -> if peek () = Some c then advance () else fail ("expected " ^ l)) l
  in
  let rec parse_value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else
          let rec members () =
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          members ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else
          let rec elements () =
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          elements ()
    | Some '"' -> parse_string ()
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail "expected value");
    skip_ws ()
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

(* Valid for the independent checker, and parsed back by Jsonx itself. *)
let json_valid what s =
  (match check_json s with
  | () -> ()
  | exception Bad_json msg -> Alcotest.failf "%s: invalid JSON: %s" what msg);
  match Jsonx.of_string s with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s: Jsonx rejects it: %s" what msg

(* --- trace ring buffer --- *)

let mk_event i =
  Event.Warp_formed { ts = float_of_int i; worker = 0; entry_id = 0; size = 4; scanned = i }

let test_ring_wraps () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.record t (mk_event i)
  done;
  Alcotest.(check int) "recorded" 10 (Trace.recorded t);
  Alcotest.(check int) "dropped" 6 (Trace.dropped t);
  let kept = Trace.events t in
  Alcotest.(check int) "retains capacity" 4 (List.length kept);
  Alcotest.(check (list (float 1e-9)))
    "oldest dropped, order kept" [ 7.; 8.; 9.; 10. ]
    (List.map Event.ts kept)

let test_ring_partial () =
  let t = Trace.create ~capacity:8 () in
  Trace.record t (mk_event 1);
  Trace.record t (mk_event 2);
  Alcotest.(check int) "dropped" 0 (Trace.dropped t);
  Alcotest.(check (list (float 1e-9)))
    "in order" [ 1.; 2. ]
    (List.map Event.ts (Trace.events t))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_trace_exports_valid () =
  let t = Trace.create ~capacity:16 () in
  Trace.record t (mk_event 1);
  Trace.record t
    (Event.Compile_end
       {
         ts = 2.0;
         worker = 0;
         kernel = "k\"with\\quotes\n";
         ws = 4;
         tier = 1;
         wall_us = 12.5;
         static_instrs = 7;
       });
  Trace.record t
    (Event.Yield { ts = 3.0; worker = 1; entry_id = 2; kind = Event.Yield_barrier; lanes = 4 });
  json_valid "chrome trace" (Trace.to_chrome_json t);
  let text = Trace.to_text t in
  Alcotest.(check bool) "text mentions yield" true (contains ~sub:"yield" text)

(* --- metrics registry --- *)

let test_metrics_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "calls" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Metrics.set (Metrics.gauge m "temp") 1.5;
  let h = Metrics.histogram m "ws" in
  Metrics.observe h 4;
  Metrics.observe h 4;
  Metrics.observe h 1;
  Alcotest.(check int) "counter" 5 !(Metrics.counter m "calls");
  Alcotest.(check (float 1e-9)) "hist mean" 3.0 (Metrics.hist_mean h);
  Alcotest.(check (list (pair int int))) "bins" [ (1, 1); (4, 2) ] (Metrics.hist_bins h);
  Alcotest.(check (list string)) "registration order" [ "calls"; "temp"; "ws" ]
    (Metrics.names m);
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (Metrics.gauge m "calls");
       false
     with Invalid_argument _ -> true)

let test_metrics_exports () =
  let m = Metrics.create () in
  Metrics.incr ~by:42 (Metrics.counter m "a.count");
  Metrics.set (Metrics.gauge m "b.gauge") 2.25;
  Metrics.observe (Metrics.histogram m "c.hist") 3;
  json_valid "metrics json" (Jsonx.to_string (Metrics.to_json m));
  let csv = Metrics.to_csv m in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "header" "name,kind,key,value" (List.hd lines);
  Alcotest.(check bool) "counter row" true (List.mem "a.count,counter,,42" lines);
  Alcotest.(check bool) "gauge row" true (List.mem "b.gauge,gauge,,2.25" lines);
  Alcotest.(check bool) "hist bin row" true (List.mem "c.hist,histogram,bin:3,1" lines)

(* Metrics.of_json inverts Metrics.to_json exactly: the daemon's stats
   reply and its tenant-tally journal both travel this way, so a gauge
   must come back with every digit. *)
let test_metrics_round_trip () =
  let m = Metrics.create () in
  Metrics.incr ~by:42 (Metrics.counter m "jit.compiles");
  Metrics.set (Metrics.gauge m "jit.compile_us") 1234.5678;
  let h = Metrics.histogram m "warp_size" in
  Metrics.observe_n h ~bin:4 7;
  Metrics.observe h 1;
  let m' = Metrics.of_json (Metrics.to_json m) in
  Alcotest.(check (list string)) "names" (Metrics.names m) (Metrics.names m');
  Alcotest.(check int) "counter" 42 !(Metrics.counter m' "jit.compiles");
  Alcotest.(check bool) "gauge exact" true
    (Float.equal 1234.5678 !(Metrics.gauge m' "jit.compile_us"));
  let h' = Metrics.histogram m' "warp_size" in
  Alcotest.(check (list (pair int int))) "bins" (Metrics.hist_bins h)
    (Metrics.hist_bins h');
  Alcotest.(check int) "count" h.Metrics.count h'.Metrics.count;
  Alcotest.(check string) "same document"
    (Jsonx.to_string (Metrics.to_json m))
    (Jsonx.to_string (Metrics.to_json m'));
  (* and through the text form the daemon actually writes *)
  match Jsonx.of_string (Jsonx.to_string (Metrics.to_json m)) with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "gauge exact through text" true
        (Float.equal 1234.5678 !(Metrics.gauge (Metrics.of_json j) "jit.compile_us"))

(* --- wiring: real launches --- *)

let run_workload ?sink ?profile (w : Workload.t) =
  let dev = Api.create_device () in
  let m = Api.load_module dev w.Workload.src in
  let inst = w.Workload.setup ~scale:1 dev in
  let r =
    Api.launch ?sink ?profile m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
      ~block:inst.Workload.block ~args:inst.Workload.args
  in
  (match inst.Workload.check dev with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: wrong results: %s" w.Workload.name e);
  (m, r)

let test_trace_of_launch_has_expected_events () =
  let tracer = Trace.create () in
  let _, _ = run_workload ~sink:(Trace.sink tracer) W_mersenne.workload in
  let json = Trace.to_chrome_json tracer in
  json_valid "launch trace" json;
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " present") true (contains ~sub json))
    [
      "\"compile\"";
      "\"warp_formed\"";
      "\"yield\"";
      "\"subkernel\"";
      "\"cache_hit\"";
      "\"traceEvents\"";
    ]

(* Per-entry divergence totals must reconcile with the launch-wide Stats
   aggregates (acceptance: at least two workloads). *)
let check_profile_reconciles (w : Workload.t) =
  let profile = Divergence.create () in
  let _, r = run_workload ~profile w in
  let stats = r.Api.stats in
  Alcotest.(check int)
    (w.Workload.name ^ ": restores")
    stats.Stats.counters.Interp.restores
    (Divergence.total_restores profile);
  Alcotest.(check int)
    (w.Workload.name ^ ": spills")
    stats.Stats.counters.Interp.spills
    (Divergence.total_spills profile);
  Alcotest.(check int)
    (w.Workload.name ^ ": warps")
    (Stats.total_warps stats)
    (Divergence.total_entries profile);
  let stats_hist = Stats.warp_histogram stats in
  Alcotest.(check (list (pair int int)))
    (w.Workload.name ^ ": warp histogram")
    stats_hist (Divergence.warp_hist profile);
  (* hotness recorded and the profile renders *)
  Alcotest.(check bool)
    (w.Workload.name ^ ": hotness populated")
    true
    (Hashtbl.length profile.Divergence.hotness > 0);
  let rendered = Fmt.str "%a" (Divergence.report ?top:None) profile in
  Alcotest.(check bool)
    (w.Workload.name ^ ": report renders")
    true
    (contains ~sub:"divergence profile" rendered)

let test_profile_reconciles_mersenne () = check_profile_reconciles W_mersenne.workload
let test_profile_reconciles_reduction () = check_profile_reconciles W_reduction.workload

(* With no sink attached the instrumented paths must not change the
   modelled execution at all; with a sink attached the *modelled* cycle
   totals must still be identical (observation does not perturb). *)
let test_noop_sink_zero_overhead () =
  let w = W_reduction.workload in
  let _, bare = run_workload w in
  let _, noop = run_workload ~sink:Sink.noop w in
  let tracer = Trace.create () in
  let profile = Divergence.create () in
  let _, traced = run_workload ~sink:(Trace.sink tracer) ~profile w in
  Alcotest.(check (float 0.0)) "noop sink: identical wall cycles"
    bare.Api.cycles noop.Api.cycles;
  Alcotest.(check (float 0.0)) "traced: identical wall cycles"
    bare.Api.cycles traced.Api.cycles;
  Alcotest.(check int) "identical dyn instrs"
    bare.Api.stats.Stats.counters.Interp.dyn_instrs
    traced.Api.stats.Stats.counters.Interp.dyn_instrs;
  Alcotest.(check (float 0.0)) "identical em cycles"
    bare.Api.stats.Stats.em_cycles traced.Api.stats.Stats.em_cycles;
  Alcotest.(check bool) "trace non-empty" true (Trace.recorded tracer > 0)

let test_divergence_merge () =
  let a = Divergence.create () and b = Divergence.create () in
  Divergence.record_entry a ~entry_id:0 ~ws:4 ~restores:0 ~spills:2;
  Divergence.record_entry a ~entry_id:1 ~ws:2 ~restores:4 ~spills:0;
  Divergence.record_entry b ~entry_id:1 ~ws:2 ~restores:6 ~spills:0;
  Divergence.touch_block a "B1";
  Divergence.touch_block b "B1";
  let into = Divergence.create () in
  Divergence.merge ~into a;
  Divergence.merge ~into b;
  Alcotest.(check int) "warps" 3 (Divergence.total_entries into);
  Alcotest.(check int) "restores" 10 (Divergence.total_restores into);
  Alcotest.(check (list (pair int int))) "hist" [ (2, 2); (4, 1) ]
    (Divergence.warp_hist into);
  Alcotest.(check (option int)) "hotness" (Some 2)
    (Hashtbl.find_opt into.Divergence.hotness "B1")

let test_metrics_of_launch () =
  let w = W_vecadd.workload in
  let m, r = run_workload w in
  let reg = Api.metrics m ~kernel:w.Workload.kernel r in
  json_valid "launch metrics json" (Jsonx.to_string (Metrics.to_json reg));
  Alcotest.(check int) "vm.kernel_calls matches stats"
    r.Api.stats.Stats.counters.Interp.kernel_calls
    !(Metrics.counter reg "vm.kernel_calls");
  Alcotest.(check bool) "jit hit/miss exported" true
    (!(Metrics.counter reg "jit.cache_misses") > 0);
  Alcotest.(check bool) "compile cost exported" true
    (Metrics.find reg "jit.w4.compile_us" <> None)

(* --- span trees rebuilt from a traced launch --- *)

module Span = Vekt_obs.Span
module Attribution = Vekt_obs.Attribution
module Report = Vekt_runtime.Report
module Fault = Vekt_runtime.Fault

let run_traced ?attr ?profile ~config (w : Workload.t) tracer =
  let sink = Trace.sink tracer in
  let dev = Api.create_device () in
  let m = Api.load_module ~config ~sink dev w.Workload.src in
  let inst = w.Workload.setup ~scale:1 dev in
  let r =
    Api.launch ~sink ?attr ?profile m ~kernel:w.Workload.kernel
      ~grid:inst.Workload.grid ~block:inst.Workload.block
      ~args:inst.Workload.args
  in
  (match inst.Workload.check dev with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: wrong results: %s" w.Workload.name e);
  (dev, inst, r)

let check_span_tree workers (w : Workload.t) =
  let tracer = Trace.create ~capacity:(1 lsl 18) () in
  let config = { Api.default_config with workers = Some workers } in
  let _, inst, _ = run_traced ~config w tracer in
  Alcotest.(check int)
    (Fmt.str "%s w%d: no events dropped" w.Workload.name workers)
    0 (Trace.dropped tracer);
  let forest = Span.of_events (Trace.events tracer) in
  Alcotest.(check bool)
    (Fmt.str "%s w%d: balanced" w.Workload.name workers)
    true (Span.balanced forest);
  (match forest.Span.roots with
  | [ root ] ->
      Alcotest.(check bool)
        (Fmt.str "%s w%d: single launch root" w.Workload.name workers)
        true
        (root.Span.kind = Event.Sk_launch);
      Alcotest.(check string)
        (Fmt.str "%s w%d: launch span name" w.Workload.name workers)
        ("launch " ^ w.Workload.kernel) root.Span.name
  | roots ->
      Alcotest.failf "%s w%d: expected one root, got %d" w.Workload.name
        workers (List.length roots));
  let flat = Span.flatten forest in
  let count k = List.length (List.filter (fun (s : Span.t) -> s.Span.kind = k) flat) in
  (* balanced spans pair each begin with an end of the same name *)
  let grid = inst.Workload.grid in
  Alcotest.(check (list string))
    (Fmt.str "%s w%d: one cta span per CTA, named by its id" w.Workload.name workers)
    (List.init (Vekt_ptx.Launch.count grid) (fun c ->
         let id = Vekt_ptx.Launch.unlinear ~dims:grid c in
         Fmt.str "cta %d,%d,%d" id.Vekt_ptx.Launch.x id.y id.z)
    |> List.sort compare)
    (List.filter_map
       (fun (s : Span.t) -> if s.Span.kind = Event.Sk_cta then Some s.Span.name else None)
       flat
    |> List.sort compare);
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool)
        (Fmt.str "%s w%d: has %s span" w.Workload.name workers what)
        true (count k > 0))
    [
      ("parse", Event.Sk_parse);
      ("typecheck", Event.Sk_typecheck);
      ("cache lookup", Event.Sk_cache_lookup);
      ("compile", Event.Sk_compile);
      ("pass", Event.Sk_pass);
    ];
  json_valid "span json" (Jsonx.to_string (Span.to_json forest))

let test_span_tree_serial () = check_span_tree 1 W_vecadd.workload
let test_span_tree_parallel () = check_span_tree 4 W_vecadd.workload
let test_span_tree_subkernels () = check_span_tree 4 W_mersenne.workload

(* --- source-line attribution: bit-exact conservation across the whole
   registry at 1 and 4 workers.  Everything is integer addition, so the
   per-(entry, line) buckets must sum to the charged total under any
   worker merge order, and the total itself must not depend on the
   worker count. --- *)

let test_attribution_conserved_registry () =
  List.iter
    (fun (w : Workload.t) ->
      let totals =
        List.map
          (fun workers ->
            let attr = Attribution.create () in
            let config = { Api.default_config with workers = Some workers } in
            let dev = Api.create_device () in
            let m = Api.load_module ~config dev w.Workload.src in
            let inst = w.Workload.setup ~scale:1 dev in
            ignore
              (Api.launch ~attr m ~kernel:w.Workload.kernel
                 ~grid:inst.Workload.grid ~block:inst.Workload.block
                 ~args:inst.Workload.args);
            Alcotest.(check bool)
              (Fmt.str "%s w%d: charged" w.Workload.name workers)
              true
              (attr.Attribution.total_units > 0);
            Alcotest.(check bool)
              (Fmt.str "%s w%d: conserved" w.Workload.name workers)
              true (Attribution.conserved attr);
            Alcotest.(check int)
              (Fmt.str "%s w%d: by_line sums to total" w.Workload.name workers)
              attr.Attribution.total_units
              (List.fold_left
                 (fun acc (_, u) -> acc + u)
                 0
                 (Attribution.by_line attr));
            attr.Attribution.total_units)
          [ 1; 4 ]
      in
      match totals with
      | [ t1; t4 ] ->
          Alcotest.(check int)
            (w.Workload.name ^ ": total independent of worker count")
            t1 t4
      | _ -> assert false)
    Registry.all

(* --- post-launch report --- *)

let test_report_json_and_render () =
  let w = W_mersenne.workload in
  let tracer = Trace.create ~capacity:(1 lsl 18) () in
  let attr = Attribution.create () in
  let profile = Divergence.create () in
  let dev, _, r =
    run_traced ~attr ~profile ~config:Api.default_config w tracer
  in
  let rep =
    Report.build ~kernel:w.Workload.kernel ~src:w.Workload.src
      ~workers:dev.Api.workers ~trace:tracer ~attr ~profile r
  in
  let json = Jsonx.to_string (Report.to_json rep) in
  json_valid "report json" json;
  json_valid "attribution json"
    (Jsonx.to_string (Attribution.to_json ~scale:Vekt_vm.Timing.attr_scale attr));
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Fmt.str "json has %S" key)
        true
        (contains ~sub:(Fmt.str "\"%s\":" key) json))
    [
      "kernel"; "workers"; "launch"; "phases"; "hot_lines"; "divergence";
      "cache_timeline"; "spans"; "attribution";
    ]

(* The human-readable rendering is what `vektc run --report -` prints;
   pin its stable structure (headers, phase rows, conservation flag)
   without golden-matching the timing-dependent numbers. *)
let test_report_golden_structure () =
  let w = W_vecadd.workload in
  let tracer = Trace.create ~capacity:(1 lsl 18) () in
  let attr = Attribution.create () in
  let profile = Divergence.create () in
  let dev, _, r =
    run_traced ~attr ~profile ~config:Api.default_config w tracer
  in
  let rep =
    Report.build ~kernel:w.Workload.kernel ~src:w.Workload.src
      ~workers:dev.Api.workers ~trace:tracer ~attr ~profile r
  in
  let text = Report.render rep in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Fmt.str "render has %S" sub) true
        (contains ~sub text))
    [
      "launch report: vecadd";
      "phase breakdown (wall µs / modelled cycles):";
      "parse"; "typecheck"; "launch"; "cta"; "cache_lookup"; "compile"; "pass";
      "conserved=true";
      "hottest source lines";
      "(runtime overhead)";
      "divergence profile";
      "cache timeline:";
    ]

(* --- flight recorder: a launch dying on an injected fault leaves its
   launch and CTA spans open, and the crash bundle captures them --- *)

module WP = Vekt_runtime.Worker_pool

(* The same trap on four workers running on four domains: every
   worker's buffered events reach the sink before the error is
   re-raised, so the CTA the trap killed is still an open span. *)
let check_open_cta_span_on_domains (w : Workload.t) config =
  let tracer = Trace.create () in
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup ~scale:1 dev in
  let cache = Api.kernel_cache m ~kernel:w.Workload.kernel in
  let k = Option.get (Vekt_ptx.Ast.find_kernel m.Api.ast w.Workload.kernel) in
  let params = Vekt_ptx.Launch.param_block k inst.Workload.args in
  match
    WP.launch ~workers:4 ~domains:4 ~sink:(Trace.sink tracer)
      ?inject:m.Api.fault cache ~grid:inst.Workload.grid
      ~block:inst.Workload.block ~global:dev.Api.global ~params
      ~consts:m.Api.consts
  with
  | _ -> Alcotest.fail "expected the injected trap to escape the pool"
  | exception Vekt_error.Error _ ->
      let forest = Span.of_events (Trace.events tracer) in
      Alcotest.(check bool) "cta span left open on 4 domains" true
        (List.exists
           (fun (s : Span.t) -> s.Span.kind = Event.Sk_cta)
           forest.Span.open_spans)

let test_crash_bundle_on_injected_fault () =
  let w = W_vecadd.workload in
  let tracer = Trace.create () in
  let sink = Trace.sink tracer in
  let config =
    {
      Api.default_config with
      inject =
        Some
          { Fault.seed = 7; specs = [ Fault.Mem_trap { nth = 5; kernel = None } ] };
      recover = false;
    }
  in
  let dev = Api.create_device () in
  let m = Api.load_module ~config ~sink dev w.Workload.src in
  let inst = w.Workload.setup ~scale:1 dev in
  match
    Api.launch ~sink m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
      ~block:inst.Workload.block ~args:inst.Workload.args
  with
  | _ -> Alcotest.fail "expected the injected trap to escape"
  | exception Vekt_error.Error err ->
      let forest = Span.of_events (Trace.events tracer) in
      let left_open kind =
        List.exists (fun (s : Span.t) -> s.Span.kind = kind) forest.Span.open_spans
      in
      Alcotest.(check bool) "launch span left open" true (left_open Event.Sk_launch);
      Alcotest.(check bool) "cta span left open" true (left_open Event.Sk_cta);
      let bundle =
        Jsonx.to_string
          (Report.crash_bundle ~kernel:w.Workload.kernel ~error:err ~trace:tracer ())
      in
      json_valid "crash bundle" bundle;
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Fmt.str "bundle has %S" sub) true
            (contains ~sub bundle))
        [
          "\"error_kind\":\"trap\"";
          "\"open_spans\"";
          "\"ring\"";
          "launch vecadd";
        ];
      check_open_cta_span_on_domains w config

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring wraps" `Quick test_ring_wraps;
          Alcotest.test_case "ring partial" `Quick test_ring_partial;
          Alcotest.test_case "exports valid" `Quick test_trace_exports_valid;
          Alcotest.test_case "launch events" `Quick
            test_trace_of_launch_has_expected_events;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick test_metrics_basics;
          Alcotest.test_case "exports" `Quick test_metrics_exports;
          Alcotest.test_case "json round trip" `Quick test_metrics_round_trip;
          Alcotest.test_case "launch metrics" `Quick test_metrics_of_launch;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "reconciles (mersenne)" `Quick
            test_profile_reconciles_mersenne;
          Alcotest.test_case "reconciles (reduction)" `Quick
            test_profile_reconciles_reduction;
          Alcotest.test_case "merge" `Quick test_divergence_merge;
        ] );
      ( "overhead",
        [ Alcotest.test_case "noop sink" `Quick test_noop_sink_zero_overhead ] );
      ( "spans",
        [
          Alcotest.test_case "tree balanced w1" `Quick test_span_tree_serial;
          Alcotest.test_case "tree balanced w4" `Quick test_span_tree_parallel;
          Alcotest.test_case "subkernel launch" `Quick test_span_tree_subkernels;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "conserved across registry w1/w4" `Quick
            test_attribution_conserved_registry;
        ] );
      ( "report",
        [
          Alcotest.test_case "json keys" `Quick test_report_json_and_render;
          Alcotest.test_case "rendered structure" `Quick
            test_report_golden_structure;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "crash bundle on injected fault" `Quick
            test_crash_bundle_on_injected_fault;
        ] );
    ]
