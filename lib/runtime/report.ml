(** Post-launch reports: the human- and machine-readable rendering of
    one launch's observability artifacts (the [vektc run --report]
    output), plus the crash bundle dumped when a launch dies.

    A report folds together the four instrumentation streams the
    runtime already produces — the span tree rebuilt from the event
    ring ({!Vekt_obs.Span}), the per-source-line cycle attribution
    ({!Vekt_obs.Attribution}), the divergence profile
    ({!Vekt_obs.Divergence}) and the cache/compile events — and
    renders:

    - a per-phase latency breakdown (wall µs {e and} modelled cycles
      per span kind, with exact p50/p95/p99 over the per-span wall
      durations);
    - the hottest source lines, annotated with the PTX source text;
    - divergence hotspots (re-entry points below full width);
    - the cache-tier timeline (hit/miss/compile/fallback/quarantine
      events in modelled-cycle order).

    Units: 1 modelled cycle = 1 µs of trace time (DESIGN.md §3.6);
    wall microseconds come from the monotonic {!Clock} and measure the
    host, not the model. *)

module Obs = Vekt_obs
module Timing = Vekt_vm.Timing
module Interp = Vekt_vm.Interp

module J = Obs.Jsonx

(* ---- per-phase aggregation ---- *)

type phase = {
  ph_kind : string;
  ph_count : int;
  ph_wall_us : float;  (** summed wall width of the kind's spans *)
  ph_cycles : float;  (** summed modelled width *)
  ph_p50 : int;  (** percentiles of per-span wall µs, exact *)
  ph_p95 : int;
  ph_p99 : int;
}

(* Span kinds in report order: load-time phases, then the launch
   hierarchy outside-in, then JIT work. *)
let kind_order =
  [
    Obs.Event.Sk_queue; Obs.Event.Sk_parse; Obs.Event.Sk_typecheck;
    Obs.Event.Sk_launch; Obs.Event.Sk_cta; Obs.Event.Sk_subkernel;
    Obs.Event.Sk_cache_lookup; Obs.Event.Sk_compile; Obs.Event.Sk_pass;
  ]

let phases_of_forest (f : Obs.Span.forest) : phase list =
  let reg = Obs.Metrics.create () in
  let tally :
      (Obs.Event.span_kind, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (s : Obs.Span.t) ->
      let count, wall, cyc =
        match Hashtbl.find_opt tally s.Obs.Span.kind with
        | Some cell -> cell
        | None ->
            let cell = (ref 0, ref 0.0, ref 0.0) in
            Hashtbl.replace tally s.Obs.Span.kind cell;
            cell
      in
      incr count;
      wall := !wall +. Obs.Span.wall_us s;
      cyc := !cyc +. Obs.Span.cycles s;
      Obs.Metrics.observe
        (Obs.Metrics.histogram reg (Obs.Event.span_kind_name s.Obs.Span.kind))
        (int_of_float (Float.round (Obs.Span.wall_us s))))
    (Obs.Span.flatten f);
  List.filter_map
    (fun kind ->
      match Hashtbl.find_opt tally kind with
      | None -> None
      | Some (count, wall, cyc) ->
          let name = Obs.Event.span_kind_name kind in
          let p50, p95, p99 =
            Obs.Metrics.percentiles (Obs.Metrics.histogram reg name)
          in
          Some
            {
              ph_kind = name;
              ph_count = !count;
              ph_wall_us = !wall;
              ph_cycles = !cyc;
              ph_p50 = p50;
              ph_p95 = p95;
              ph_p99 = p99;
            })
    kind_order

(* ---- hottest source lines ---- *)

type hot_line = {
  hl_line : int;  (** 0 = runtime overhead (no source provenance) *)
  hl_cycles : float;
  hl_share : float;  (** fraction of the attributed total, [0;1] *)
  hl_text : string;  (** source text of the line ("" for line 0) *)
}

let source_line src n =
  if n <= 0 then ""
  else
    match List.nth_opt (String.split_on_char '\n' src) (n - 1) with
    | Some s -> String.trim s
    | None -> ""

let hot_lines ?(top = 10) ~src (attr : Obs.Attribution.t) : hot_line list =
  let total = attr.Obs.Attribution.total_units in
  List.map
    (fun (line, units) ->
      {
        hl_line = line;
        hl_cycles = float_of_int units /. float_of_int Timing.attr_scale;
        hl_share =
          (if total = 0 then 0.0 else float_of_int units /. float_of_int total);
        hl_text = source_line src line;
      })
    (Obs.Attribution.hottest ~n:top attr)

(* ---- cache-tier timeline ---- *)

let cache_timeline (evts : Obs.Event.t list) =
  List.filter_map
    (fun (e : Obs.Event.t) ->
      match e with
      | Obs.Event.Cache_hit v -> Some (v.ts, v.worker, "hit", [ ("ws", J.Int v.ws) ])
      | Obs.Event.Cache_miss v ->
          Some (v.ts, v.worker, "miss", [ ("ws", J.Int v.ws) ])
      | Obs.Event.Compile_end v ->
          Some
            ( v.ts,
              v.worker,
              "compile",
              [
                ("ws", J.Int v.ws);
                ("tier", J.Int v.tier);
                ("wall_us", J.Float v.wall_us);
              ] )
      | Obs.Event.Compile_fallback v ->
          Some
            ( v.ts,
              v.worker,
              "fallback",
              [ ("from_ws", J.Int v.from_ws); ("to_ws", J.Int v.to_ws) ] )
      | Obs.Event.Quarantine v ->
          Some
            ( v.ts,
              v.worker,
              "quarantine",
              [
                ("ws", J.Int v.ws);
                ("action", J.Str (Obs.Event.quarantine_action_name v.action));
              ] )
      | _ -> None)
    evts

(* ---- the report ---- *)

type t = {
  kernel : string;
  workers : int;
  launch : Api.report;
  forest : Obs.Span.forest;
  phases : phase list;
  hot : hot_line list;
  timeline : (float * int * string * (string * J.t) list) list;
  attr : Obs.Attribution.t;
  profile : Obs.Divergence.t option;
}

(** Assemble a report from one launch's artifacts.  [src] is the PTX
    source the line attribution annotates; [top] bounds the hot-line
    table. *)
let build ?(top = 10) ~kernel ~src ~workers ~(trace : Obs.Trace.t)
    ~(attr : Obs.Attribution.t) ?(profile : Obs.Divergence.t option)
    (launch : Api.report) : t =
  let evts = Obs.Trace.events trace in
  let forest = Obs.Span.of_events evts in
  {
    kernel;
    workers;
    launch;
    forest;
    phases = phases_of_forest forest;
    hot = hot_lines ~top ~src attr;
    timeline = cache_timeline evts;
    attr;
    profile;
  }

(** Machine-readable form.  Top-level keys: [kernel], [workers],
    [launch], [phases], [hot_lines], [divergence], [cache_timeline],
    [spans], [attribution]. *)
let to_json (r : t) : J.t =
  let l = r.launch in
  let launch =
    J.Obj
      [
        ("cycles", J.Float l.Api.cycles);
        ("time_ms", J.Float l.Api.time_ms);
        ("gflops", J.Float l.Api.gflops);
        ("avg_warp_size", J.Float l.Api.avg_warp_size);
        ("threads", J.Int l.Api.stats.Stats.threads_launched);
        ( "warps",
          J.Int (Stats.total_warps l.Api.stats) );
        ( "recovered",
          match l.Api.recovered with
          | None -> J.Null
          | Some err -> J.Str (Vekt_error.to_string err) );
      ]
  in
  let phase p =
    J.Obj
      [
        ("kind", J.Str p.ph_kind);
        ("count", J.Int p.ph_count);
        ("wall_us", J.Float p.ph_wall_us);
        ("cycles", J.Float p.ph_cycles);
        ("wall_us_p50", J.Int p.ph_p50);
        ("wall_us_p95", J.Int p.ph_p95);
        ("wall_us_p99", J.Int p.ph_p99);
      ]
  in
  let hot hl =
    J.Obj
      [
        ("line", J.Int hl.hl_line);
        ("cycles", J.Float hl.hl_cycles);
        ("share", J.Float hl.hl_share);
        ("text", J.Str hl.hl_text);
      ]
  in
  let divergence (p : Obs.Divergence.t) =
    let entry id =
      let ep = Hashtbl.find p.Obs.Divergence.by_entry id in
      J.Obj
        [
          ("entry", J.Int id);
          ("name", J.Str (Obs.Divergence.entry_name p id));
          ("warps", J.Int ep.Obs.Divergence.entries);
          ("avg_ws", J.Float (Obs.Divergence.avg_ws ep));
          ("restores", J.Int ep.Obs.Divergence.restores);
        ]
    in
    J.Obj
      [
        ("warps", J.Int (Obs.Divergence.total_entries p));
        ("threads", J.Int (Obs.Divergence.total_threads p));
        ("restores", J.Int (Obs.Divergence.total_restores p));
        ("spills", J.Int (Obs.Divergence.total_spills p));
        ("entries", J.List (List.map entry (Obs.Divergence.entry_ids p)));
      ]
  in
  let timeline (ts, worker, what, kv) =
    J.Obj
      ([ ("ts", J.Float ts); ("worker", J.Int worker); ("event", J.Str what) ] @ kv)
  in
  J.Obj
    [
      ("kernel", J.Str r.kernel);
      ("workers", J.Int r.workers);
      ("launch", launch);
      ("phases", J.List (List.map phase r.phases));
      ("hot_lines", J.List (List.map hot r.hot));
      ("divergence", Option.fold ~none:J.Null ~some:divergence r.profile);
      ("cache_timeline", J.List (List.map timeline r.timeline));
      ("spans", Obs.Span.to_json r.forest);
      ("attribution", Obs.Attribution.to_json ~scale:Timing.attr_scale r.attr);
    ]

(** Human-readable rendering (the [--report -] form). *)
let pp ppf (r : t) =
  Fmt.pf ppf "launch report: %s  (%d workers)@." r.kernel r.workers;
  Fmt.pf ppf "  %.1f modelled cycles, %.3f ms, %.2f GFLOP/s, avg warp %.2f@."
    r.launch.Api.cycles r.launch.Api.time_ms r.launch.Api.gflops
    r.launch.Api.avg_warp_size;
  (match r.launch.Api.recovered with
  | None -> ()
  | Some err ->
      Fmt.pf ppf "  RECOVERED onto the emulator oracle from: %s@."
        (Vekt_error.to_string err));
  Fmt.pf ppf "@.phase breakdown (wall µs / modelled cycles):@.";
  Fmt.pf ppf "  %-14s %6s %12s %12s %8s %8s %8s@." "phase" "count" "wall_us"
    "cycles" "p50us" "p95us" "p99us";
  List.iter
    (fun p ->
      Fmt.pf ppf "  %-14s %6d %12.1f %12.1f %8d %8d %8d@." p.ph_kind p.ph_count
        p.ph_wall_us p.ph_cycles p.ph_p50 p.ph_p95 p.ph_p99)
    r.phases;
  if not (Obs.Span.balanced r.forest) then
    Fmt.pf ppf "  (span tree UNBALANCED: %d open, %d unmatched ends)@."
      (List.length r.forest.Obs.Span.open_spans)
      r.forest.Obs.Span.unmatched_ends;
  Fmt.pf ppf "@.hottest source lines (%.1f cycles attributed, conserved=%b):@."
    (float_of_int r.attr.Obs.Attribution.total_units
    /. float_of_int Timing.attr_scale)
    (Obs.Attribution.conserved r.attr);
  Fmt.pf ppf "  %5s %12s %6s  %s@." "line" "cycles" "share" "source";
  List.iter
    (fun hl ->
      let label =
        if hl.hl_line = 0 then "(runtime overhead)" else hl.hl_text
      in
      Fmt.pf ppf "  %5d %12.1f %5.1f%%  %s@." hl.hl_line hl.hl_cycles
        (100.0 *. hl.hl_share) label)
    r.hot;
  (match r.profile with
  | None -> ()
  | Some p ->
      Fmt.pf ppf "@.";
      Obs.Divergence.report ppf p);
  let hits, misses, compiles, fallbacks =
    List.fold_left
      (fun (h, m, c, f) (_, _, what, _) ->
        match what with
        | "hit" -> (h + 1, m, c, f)
        | "miss" -> (h, m + 1, c, f)
        | "compile" -> (h, m, c + 1, f)
        | "fallback" -> (h, m, c, f + 1)
        | _ -> (h, m, c, f))
      (0, 0, 0, 0) r.timeline
  in
  Fmt.pf ppf
    "@.cache timeline: %d events (%d hits, %d misses, %d compiles, %d \
     fallbacks)@."
    (List.length r.timeline) hits misses compiles fallbacks;
  List.iter
    (fun (ts, worker, what, kv) ->
      let value = function
        | J.Float x -> Printf.sprintf "%.1f" x
        | J.Str v -> v
        | v -> J.to_string v
      in
      Fmt.pf ppf "  %12.1f w%d %-10s %s@." ts worker what
        (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ value v) kv)))
    r.timeline

let render (r : t) : string = Fmt.str "%a" pp r

(* ---- crash bundle (the flight recorder's black box) ---- *)

(** The bundle dumped when a launch dies on a structured error: the tail
    of the event ring (what just happened), the spans still open (where
    was everyone), and a metrics snapshot if one exists.  [tail] bounds
    the ring excerpt. *)
let crash_bundle ?(tail = 64) ~kernel ~(error : Vekt_error.t)
    ~(trace : Obs.Trace.t) ?(metrics : Obs.Metrics.t option) () : J.t =
  let evts = Obs.Trace.events trace in
  let n = List.length evts in
  let tail_evts =
    if n <= tail then evts
    else List.filteri (fun i _ -> i >= n - tail) evts
  in
  let forest = Obs.Span.of_events evts in
  let open_span (s : Obs.Span.t) =
    J.Obj
      [
        ("kind", J.Str (Obs.Event.span_kind_name s.Obs.Span.kind));
        ("name", J.Str s.Obs.Span.name);
        ("worker", J.Int s.Obs.Span.worker);
        ("since_cycles", J.Float s.Obs.Span.t0);
      ]
  in
  J.Obj
    [
      ("kernel", J.Str kernel);
      ("error", J.Str (Vekt_error.to_string error));
      ("error_kind", J.Str (Vekt_error.kind_name error));
      ( "ring",
        J.Obj
          [
            ("recorded", J.Int (Obs.Trace.recorded trace));
            ("dropped", J.Int (Obs.Trace.dropped trace));
            ( "tail",
              J.List
                (List.map (fun e -> J.Str (Fmt.str "%a" Obs.Event.pp e)) tail_evts)
            );
          ] );
      ("open_spans", J.List (List.map open_span forest.Obs.Span.open_spans));
      ("metrics", Option.fold ~none:J.Null ~some:Obs.Metrics.to_json metrics);
    ]
