(** Low-overhead event tracer: a preallocated ring buffer of typed events.

    Recording is O(1) with no allocation beyond the event itself; when
    the ring is full the oldest events are overwritten (and counted as
    dropped, which the exporters report).  Export formats:

    - {!to_chrome_json}: Chrome trace-event JSON (the ["traceEvents"]
      array form), loadable in Perfetto / [chrome://tracing].  Modelled
      cycles are written as microsecond timestamps (1 cycle = 1 µs of
      trace time); each worker is a [tid], so parallel execution
      managers render as parallel tracks.
    - {!to_text}: one event per line, for grepping and diffing. *)

type t = {
  buf : Event.t array;
  mutable next : int;  (** next write slot *)
  mutable total : int;  (** events ever recorded (>= capacity ⇒ drops) *)
}

let dummy = Event.Barrier_release { ts = 0.0; worker = 0; released = 0 }

let create ?(capacity = 1 lsl 16) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { buf = Array.make capacity dummy; next = 0; total = 0 }

let capacity t = Array.length t.buf
let recorded t = t.total
let dropped t = max 0 (t.total - capacity t)

let record t e =
  t.buf.(t.next) <- e;
  t.next <- (t.next + 1) mod capacity t;
  t.total <- t.total + 1

(** The tracer as a {!Sink.t}, for plugging into the runtime hooks. *)
let sink t = Sink.fn (record t)

(** Retained events, oldest first. *)
let events t =
  let cap = capacity t in
  let n = min t.total cap in
  List.init n (fun i -> t.buf.(((t.next - n + i) mod cap + cap) mod cap))

(* ---- Chrome trace-event export ---- *)

module J = Jsonx

(* One trace-event record, appended straight to [b]: the export streams
   record by record, so a full ring never becomes one document tree. *)
let add_record b ~name ~cat ~ph ~ts ?dur ~pid ~tid (args : (string * J.t) list) =
  J.add b
    (J.Obj
       ([ ("name", J.Str name); ("cat", J.Str cat); ("ph", J.Str ph); ("ts", J.Float ts) ]
       @ (match dur with Some d -> [ ("dur", J.Float d) ] | None -> [])
       @ [ ("pid", J.Int pid); ("tid", J.Int tid) ]
       @ if args = [] then [] else [ ("args", J.Obj args) ]))

(* Execution-manager events live in pid 0; JIT events in pid 1 so
   Perfetto shows compilation as its own process track. *)
let em_pid = 0
let jit_pid = 1

(* JIT-side span kinds render on the translation track; everything else
   (launch, parse, typecheck, CTA execution) on the execution manager's. *)
let span_pid = function
  | Event.Sk_pass | Event.Sk_cache_lookup | Event.Sk_compile -> jit_pid
  | Event.Sk_launch | Event.Sk_parse | Event.Sk_typecheck | Event.Sk_cta
  | Event.Sk_subkernel | Event.Sk_queue ->
      em_pid

(* The (pid, tid) track an event renders on — must mirror the pid/tid
   choices of [add_chrome_event] so thread-name metadata covers exactly
   the tracks that appear. *)
let track_of_event (e : Event.t) =
  match e with
  | Event.Warp_formed _ | Event.Subkernel_call _ | Event.Yield _
  | Event.Barrier_release _ | Event.Ckpt_write _ | Event.Ckpt_resume _
  | Event.Replay_begin _ | Event.Server_health _ ->
      (em_pid, Event.worker e)
  | Event.Compile_begin _ | Event.Compile_end _ | Event.Cache_hit _
  | Event.Cache_miss _ | Event.Compile_fallback _ | Event.Quarantine _ ->
      (jit_pid, Event.worker e)
  | Event.Span_begin v -> (span_pid v.kind, v.worker)
  | Event.Span_end v -> (span_pid v.kind, v.worker)

let add_chrome_event b (e : Event.t) =
  match e with
  | Event.Warp_formed v ->
      add_record b ~name:"warp_formed" ~cat:"em" ~ph:"i" ~ts:v.ts ~pid:em_pid
        ~tid:v.worker
        [ ("entry", J.Int v.entry_id); ("size", J.Int v.size); ("scanned", J.Int v.scanned) ]
  | Event.Subkernel_call v ->
      add_record b ~name:"subkernel" ~cat:"em" ~ph:"X" ~ts:v.ts ~dur:v.dur
        ~pid:em_pid ~tid:v.worker
        [ ("kernel", J.Str v.kernel); ("entry", J.Int v.entry_id); ("ws", J.Int v.ws) ]
  | Event.Yield v ->
      add_record b ~name:"yield" ~cat:"em" ~ph:"i" ~ts:v.ts ~pid:em_pid
        ~tid:v.worker
        [
          ("entry", J.Int v.entry_id);
          ("kind", J.Str (Event.yield_kind_name v.kind));
          ("lanes", J.Int v.lanes);
        ]
  | Event.Barrier_release v ->
      add_record b ~name:"barrier_release" ~cat:"em" ~ph:"i" ~ts:v.ts ~pid:em_pid
        ~tid:v.worker
        [ ("released", J.Int v.released) ]
  | Event.Compile_begin v ->
      add_record b ~name:"compile" ~cat:"jit" ~ph:"B" ~ts:v.ts ~pid:jit_pid
        ~tid:v.worker
        [ ("kernel", J.Str v.kernel); ("ws", J.Int v.ws); ("tier", J.Int v.tier) ]
  | Event.Compile_end v ->
      add_record b ~name:"compile" ~cat:"jit" ~ph:"E" ~ts:v.ts ~pid:jit_pid
        ~tid:v.worker
        [
          ("kernel", J.Str v.kernel);
          ("ws", J.Int v.ws);
          ("tier", J.Int v.tier);
          ("wall_us", J.Float v.wall_us);
          ("static_instrs", J.Int v.static_instrs);
        ]
  | Event.Cache_hit v ->
      add_record b ~name:"cache_hit" ~cat:"jit" ~ph:"i" ~ts:v.ts ~pid:jit_pid
        ~tid:v.worker
        [ ("kernel", J.Str v.kernel); ("ws", J.Int v.ws) ]
  | Event.Cache_miss v ->
      add_record b ~name:"cache_miss" ~cat:"jit" ~ph:"i" ~ts:v.ts ~pid:jit_pid
        ~tid:v.worker
        [ ("kernel", J.Str v.kernel); ("ws", J.Int v.ws) ]
  | Event.Compile_fallback v ->
      add_record b ~name:"compile_fallback" ~cat:"jit" ~ph:"i" ~ts:v.ts
        ~pid:jit_pid ~tid:v.worker
        [
          ("kernel", J.Str v.kernel);
          ("from_ws", J.Int v.from_ws);
          ("to_ws", J.Int v.to_ws);
          ("reason", J.Str v.reason);
        ]
  | Event.Quarantine v ->
      add_record b ~name:"quarantine" ~cat:"jit" ~ph:"i" ~ts:v.ts ~pid:jit_pid
        ~tid:v.worker
        [
          ("kernel", J.Str v.kernel);
          ("ws", J.Int v.ws);
          ("action", J.Str (Event.quarantine_action_name v.action));
        ]
  | Event.Ckpt_write v ->
      add_record b ~name:"ckpt_write" ~cat:"em" ~ph:"i" ~ts:v.ts ~pid:em_pid
        ~tid:v.worker
        [ ("seq", J.Int v.seq); ("bytes", J.Int v.bytes) ]
  | Event.Ckpt_resume v ->
      add_record b ~name:"ckpt_resume" ~cat:"em" ~ph:"i" ~ts:v.ts ~pid:em_pid
        ~tid:v.worker
        [ ("seq", J.Int v.seq); ("path", J.Str v.path) ]
  | Event.Replay_begin v ->
      add_record b ~name:"replay_begin" ~cat:"em" ~ph:"i" ~ts:v.ts ~pid:em_pid
        ~tid:v.worker
        [ ("decisions", J.Int v.decisions); ("path", J.Str v.path) ]
  | Event.Span_begin v ->
      add_record b ~name:v.name
        ~cat:("span." ^ Event.span_kind_name v.kind)
        ~ph:"B" ~ts:v.ts ~pid:(span_pid v.kind) ~tid:v.worker
        [ ("wall_us", J.Float v.wall_us) ]
  | Event.Span_end v ->
      add_record b ~name:v.name
        ~cat:("span." ^ Event.span_kind_name v.kind)
        ~ph:"E" ~ts:v.ts ~pid:(span_pid v.kind) ~tid:v.worker
        [ ("wall_us", J.Float v.wall_us) ]
  | Event.Server_health v ->
      add_record b ~name:"server_health" ~cat:"server" ~ph:"i" ~ts:v.ts
        ~pid:em_pid ~tid:v.worker
        [
          ("action", J.Str (Event.server_action_name v.action));
          ("tenant", J.Str v.tenant);
          ("detail", J.Str v.detail);
        ]

(* One thread_name + thread_sort_index metadata pair per (pid, tid)
   track that actually carries events, so Perfetto labels every worker
   lane and orders them by worker index instead of first-event time. *)
let add_thread_metadata b (evts : Event.t list) =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let track = track_of_event e in
      Hashtbl.replace seen track ())
    evts;
  let tracks = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
  List.iter
    (fun (pid, tid) ->
      let label = if pid = jit_pid then "jit worker" else "worker" in
      Buffer.add_char b ',';
      add_record b ~name:"thread_name" ~cat:"__metadata" ~ph:"M" ~ts:0.0 ~pid
        ~tid
        [ ("name", J.Str (Printf.sprintf "%s %d" label tid)) ];
      Buffer.add_char b ',';
      add_record b ~name:"thread_sort_index" ~cat:"__metadata" ~ph:"M" ~ts:0.0
        ~pid ~tid
        [ ("sort_index", J.Int tid) ])
    (List.sort compare tracks)

(* Timestamps are microseconds (the trace-event format's native [ts]
   unit) under the convention 1 modelled cycle = 1 µs of trace time;
   [displayTimeUnit] selects the viewer's default zoom and only accepts
   "ms" or "ns" — "ms" matches µs-scale data ("ns" here was a bug that
   made viewers zoom 1000x too deep). *)
let to_chrome_json t =
  let b = Buffer.create 4096 in
  let evts = events t in
  Buffer.add_string b "{\"traceEvents\":[";
  add_record b ~name:"process_name" ~cat:"__metadata" ~ph:"M" ~ts:0.0 ~pid:em_pid
    ~tid:0
    [ ("name", J.Str "execution manager") ];
  Buffer.add_char b ',';
  add_record b ~name:"process_name" ~cat:"__metadata" ~ph:"M" ~ts:0.0
    ~pid:jit_pid ~tid:0
    [ ("name", J.Str "dynamic translation") ];
  add_thread_metadata b evts;
  List.iter
    (fun e ->
      Buffer.add_char b ',';
      add_chrome_event b e)
    evts;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\",\"otherData\":";
  J.add b
    (J.Obj
       [
         ("recorded", J.Int (recorded t));
         ("dropped", J.Int (dropped t));
         ("timeUnit", J.Str "us");
         ("cycle_us", J.Int 1);
       ]);
  Buffer.add_char b '}';
  Buffer.contents b

let to_text t =
  let b = Buffer.create 4096 in
  if dropped t > 0 then
    Buffer.add_string b
      (Printf.sprintf "# ring full: %d oldest events dropped\n" (dropped t));
  List.iter (fun e -> Buffer.add_string b (Fmt.str "%a\n" Event.pp e)) (events t);
  Buffer.contents b
