(** Hierarchical span trees, rebuilt from the flat event stream.

    Instrumented code emits flat {!Event.Span_begin}/{!Event.Span_end}
    pairs through the ordinary {!Sink} plumbing (so spans ride the same
    ring buffer, worker-private buffers and worker-order replay as every
    other event, which keeps them domain-safe and deterministic).  This
    module folds a recorded event list back into a tree:

    - spans nest {e per worker}: a worker's [Span_begin] opens a child
      of that worker's innermost open span;
    - compile intervals are synthesized from the existing
      {!Event.Compile_begin}/{!Event.Compile_end} pairs, and subkernel
      executions from {!Event.Subkernel_call} (a complete [ts]+[dur]
      interval), so those subsystems need no duplicate span emission;
    - when exactly one [launch] span is present, the other workers'
      top-level spans are re-parented under it, giving one tree per
      launch.

    The fold also reports balance violations (ends without matching
    begins) and the stack of spans still open at the end of the stream —
    which is precisely the "where was everyone?" information the crash
    bundle wants when a launch dies mid-flight. *)

type t = {
  kind : Event.span_kind;
  name : string;
  worker : int;
  t0 : float;  (** modelled cycles at begin *)
  mutable t1 : float;  (** modelled cycles at end *)
  wall0 : float;  (** monotonic µs at begin *)
  mutable wall1 : float;  (** monotonic µs at end *)
  mutable children : t list;  (** in emission order *)
}

type forest = {
  roots : t list;  (** completed top-level spans, in completion order *)
  open_spans : t list;
      (** innermost first, all workers — non-empty means the stream
          ended (or the launch died) with spans still open *)
  unmatched_ends : int;  (** [Span_end]s with no open matching begin *)
}

let cycles (s : t) = Float.max 0.0 (s.t1 -. s.t0)
let wall_us (s : t) = Float.max 0.0 (s.wall1 -. s.wall0)

(** Is the begin/end structure balanced?  True iff nothing was left open
    and every end matched a begin. *)
let balanced (f : forest) = f.open_spans = [] && f.unmatched_ends = 0

(** Rebuild the span forest from an event list (oldest first, e.g.
    {!Trace.events}). *)
let of_events (evts : Event.t list) : forest =
  let stacks : (int, t list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack w =
    match Hashtbl.find_opt stacks w with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.replace stacks w s;
        s
  in
  let roots = ref [] (* reversed *) in
  let unmatched = ref 0 in
  let attach ~worker span =
    match !(stack worker) with
    | parent :: _ -> parent.children <- parent.children @ [ span ]
    | [] -> roots := span :: !roots
  in
  let open_span ~kind ~name ~worker ~ts ~wall =
    let s =
      { kind; name; worker; t0 = ts; t1 = ts; wall0 = wall; wall1 = wall;
        children = [] }
    in
    let st = stack worker in
    st := s :: !st
  in
  let close_span ~kind ~name ~worker ~ts ~wall =
    let st = stack worker in
    match !st with
    | top :: rest when top.kind = kind && top.name = name ->
        top.t1 <- ts;
        top.wall1 <- wall;
        st := rest;
        attach ~worker top
    | _ -> incr unmatched
  in
  let leaf ~kind ~name ~worker ~t0 ~t1 ~wall =
    attach ~worker
      { kind; name; worker; t0; t1; wall0 = wall; wall1 = wall; children = [] }
  in
  List.iter
    (fun (e : Event.t) ->
      match e with
      | Event.Span_begin v ->
          open_span ~kind:v.kind ~name:v.name ~worker:v.worker ~ts:v.ts
            ~wall:v.wall_us
      | Event.Span_end v ->
          close_span ~kind:v.kind ~name:v.name ~worker:v.worker ~ts:v.ts
            ~wall:v.wall_us
      | Event.Compile_begin v ->
          open_span ~kind:Event.Sk_compile
            ~name:(Printf.sprintf "compile %s.w%d.t%d" v.kernel v.ws v.tier)
            ~worker:v.worker ~ts:v.ts ~wall:0.0
      | Event.Compile_end v ->
          (* compile has no modelled cost (off the measured path); the
             span's wall width is the measured build time *)
          let name = Printf.sprintf "compile %s.w%d.t%d" v.kernel v.ws v.tier in
          let st = stack v.worker in
          (match !st with
          | top :: rest when top.kind = Event.Sk_compile && top.name = name ->
              top.t1 <- v.ts;
              top.wall1 <- top.wall0 +. v.wall_us;
              st := rest;
              attach ~worker:v.worker top
          | _ -> incr unmatched)
      | Event.Subkernel_call v ->
          leaf ~kind:Event.Sk_subkernel
            ~name:(Printf.sprintf "subkernel %s@%d.w%d" v.kernel v.entry_id v.ws)
            ~worker:v.worker ~t0:v.ts ~t1:(v.ts +. v.dur) ~wall:0.0
      | _ -> ())
    evts;
  let open_spans =
    Hashtbl.fold (fun _ st acc -> !st @ acc) stacks []
    |> List.sort (fun a b -> compare (a.worker, a.t0) (b.worker, b.t0))
  in
  let roots = List.rev !roots in
  (* one launch span present: adopt the other top-level spans (e.g. CTA
     spans of workers > 0, whose stacks never saw the root) under it *)
  let roots =
    match List.partition (fun s -> s.kind = Event.Sk_launch) roots with
    | [ launch ], others when others <> [] ->
        launch.children <- launch.children @ others;
        [ launch ]
    | _ -> roots
  in
  { roots; open_spans; unmatched_ends = !unmatched }

(* ---- exports ---- *)

module J = Jsonx

let head_json (s : t) =
  [
    ("kind", J.Str (Event.span_kind_name s.kind));
    ("name", J.Str s.name);
    ("worker", J.Int s.worker);
  ]

let rec span_json (s : t) : J.t =
  J.Obj
    (head_json s
    @ [
        ("cycles", J.Float (cycles s));
        ("wall_us", J.Float (wall_us s));
        ("children", J.List (List.map span_json s.children));
      ])

(** The whole forest as a JSON tree (plus balance diagnostics). *)
let to_json (f : forest) : J.t =
  J.Obj
    [
      ("balanced", J.Bool (balanced f));
      ("unmatched_ends", J.Int f.unmatched_ends);
      ("open", J.List (List.map (fun s -> J.Obj (head_json s)) f.open_spans));
      ("spans", J.List (List.map span_json f.roots));
    ]

(** Indented plain-text rendering of the tree. *)
let pp ppf (f : forest) =
  let rec go indent (s : t) =
    Fmt.pf ppf "%s%-12s %-32s w%d  %10.1f cyc  %10.1f µs@." indent
      (Event.span_kind_name s.kind)
      s.name s.worker (cycles s) (wall_us s);
    List.iter (go (indent ^ "  ")) s.children
  in
  List.iter (go "") f.roots;
  if f.open_spans <> [] then begin
    Fmt.pf ppf "open at end of stream:@.";
    List.iter
      (fun (s : t) ->
        Fmt.pf ppf "  %s %s (w%d)@." (Event.span_kind_name s.kind) s.name
          s.worker)
      f.open_spans
  end

(** Flatten: every span in the forest, preorder. *)
let flatten (f : forest) : t list =
  let rec go acc s = List.fold_left go (s :: acc) s.children in
  List.rev (List.fold_left go [] f.roots)
