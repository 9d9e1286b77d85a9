(** The launch driver (paper §5.2).

    The paper's execution managers are worker threads that each own a
    static partition of the grid's CTAs.  This module runs that
    partition: each worker's slice of CTAs goes through
    {!Exec_manager.run_cta} against the shared global segment and the
    shared {!Translation_cache}, on OCaml 5 domains or in a serial loop
    (the modelled-cycle clocks are per worker, wall cycles take the
    max).

    Two knobs, deliberately separate:

    - [workers] is the {e modelled} partition width — worker [w] owns
      CTAs [w, w+workers, ...] at any domain count, so per-worker
      statistics (and the max-over-workers wall cycles) are
      identical whether the slices run on domains or in a loop.
    - [domains] is the {e physical} parallelism: how many OCaml domains
      execute those worker slices.  Domain [d] runs workers
      [d, d+domains, ...] sequentially.  It defaults to
      [min workers (Domain.recommended_domain_count ())] — OCaml's
      stop-the-world minor GC makes oversubscribing cores strictly
      counterproductive — and with [domains = 1] no domain is spawned
      at all: the launch degenerates to the exact serial loop.

    CTAs are mutually independent (shared memory and barriers are
    CTA-scope), writes to distinct global addresses land in a shared
    [Bytes.t], and global atomics serialize on a process-wide mutex in
    the interpreter.  Serialized add/min/max commute, so the final
    global-memory image is bit-identical to a serial run.  Exchange and
    compare-and-swap do not: their result depends on which CTA's update
    lands first.  Nor does any atomic whose returned value the kernel
    reads: a CTA that branches on it (threadfence's last-CTA election)
    runs a different path, and models different cycles, depending on
    the order.  A kernel with either kind of global atomic (flagged at
    translation, {!Translation_cache.t.order_dependent_atomics}) runs
    its worker slices on one domain.

    {b Determinism of the merged artifacts.}  On more than one domain,
    everything a worker produces is private to its slice while it runs
    and merged only after every domain has been joined, in worker-index
    order:

    - {!Stats.t}: integer totals are partition-independent; float
      cycle totals are merged in worker order, so they are reproducible
      run-to-run (across {e different} worker counts they agree up to
      float summation order, and [wall_cycles] — max over workers —
      genuinely models the parallelism).
    - Events: each worker emits into a private buffer; buffers are
      replayed into the caller's sink worker-by-worker, which
      reproduces exactly the order a one-domain launch emits.
    - {!Obs.Divergence} profiles: one private profile per worker,
      {!Obs.Divergence.merge}d in worker order.

    A worker that raises aborts its domain's remaining slices; every
    domain is still joined and every worker's event buffer replayed
    before anything propagates, and the lowest-indexed worker's error is
    re-raised, so the error surfaced for a given failing launch does not
    depend on domain scheduling.

    Caveats, documented in DESIGN.md §3.4: {!Translation_cache.Tiered}
    promotion points and injected spurious yields depend on cross-domain
    query interleaving, so cycle-level statistics (never memory results)
    can vary run-to-run under those features with [domains > 1]. *)

module Interp = Vekt_vm.Interp
module Obs = Vekt_obs
open Vekt_ptx

(** Run a whole kernel launch: the grid's CTAs are statically
    partitioned over [workers] execution managers, executed on
    [domains] OCaml domains (see the module doc for the distinction).
    [workers] is clamped to [1 .. ncta] and [domains] to
    [1 .. workers].  [sched] is resolved once here: the policy matching
    the cache's vectorization mode when absent, checked against the mode
    when given.

    [ckpt] arms the checkpoint policy (DESIGN.md §3.5): the pool drives
    {!Exec_manager.run_cta}'s safe-point hooks and assembles whole-launch
    snapshots — every worker's stats and position plus the in-flight
    CTA.  [resume] starts the launch from such a snapshot instead of
    from scratch.  Either one forces [domains = 1]: a consistent cut
    needs at most one CTA in flight, and the modelled [workers]
    partition is what the snapshot preserves, so resuming a
    [workers = 4] launch still replays four modelled workers.  So does
    a kernel with order-dependent global atomics (see the module
    doc).  [record]
    and [replay] thread the schedule log through; recording is safe
    under domains (each CTA cell has a single writer). *)
let launch ?(costs = Exec_manager.default_costs) ?fuel ?watchdog
    ?(inject : Fault.t option) ?(workers = 1) ?domains
    ?(sink = Obs.Sink.noop) ?(profile : Obs.Divergence.t option)
    ?(attr : Obs.Attribution.t option) ?sched
    ?(ckpt : Checkpoint.ctx option) ?(resume : Checkpoint.t option)
    ?(record : Replay.recorder option) ?(replay : Replay.t option)
    (cache : Translation_cache.t) ~(grid : Launch.dim3) ~(block : Launch.dim3)
    ~(global : Mem.t) ~(params : Mem.t) ~(consts : Mem.t) : Stats.t =
  let ncta = Launch.count grid in
  let launch_info = { Interp.grid; block } in
  let workers = max 1 (min workers ncta) in
  let domains =
    if
      Option.is_some ckpt || Option.is_some resume
      || cache.Translation_cache.order_dependent_atomics
    then 1
    else
      let d =
        match domains with
        | Some d -> d
        | None -> Domain.recommended_domain_count ()
      in
      max 1 (min d workers)
  in
  (* resolve the policy once per launch, and fail a bad policy × mode
     combination before spawning anything *)
  let mode = cache.Translation_cache.mode in
  let sched =
    Option.value sched
      ~default:(Scheduler.of_kind (Scheduler.default_kind_for mode))
  in
  Scheduler.validate ~mode sched;
  (match profile with
  | Some p ->
      Obs.Divergence.set_entry_names p (Translation_cache.entry_ids cache)
  | None -> ());
  (* Restore the launch-wide pieces of a snapshot before any CTA runs:
     the global image (live prefix; the rest zero-fills back to the
     untouched-allocator state), the parameter block, and the cache's
     hotness/quarantine metadata so recompilation lands each key at the
     tier it had reached — promotion decisions, and therefore dynamic
     instruction counts, match the uninterrupted run exactly. *)
  (match resume with
  | None -> ()
  | Some s ->
      Mem.load_image global s.Checkpoint.global_image;
      Mem.load_image params s.Checkpoint.params_image;
      Translation_cache.restore_meta cache ~hotness:s.Checkpoint.hotness
        ~quarantine:s.Checkpoint.quarantine);
  (* Per-worker launch state lives in arrays so a checkpoint taken while
     worker [w] is mid-CTA can record every sibling's stats and next-CTA
     position.  [next.(v)] is the CTA worker [v] is inside (while
     running) or would start next (between CTAs) — exactly the
     [w_next_cta] contract of {!Checkpoint.worker_snap}.  Each cell has
     a single writer, its worker. *)
  let worker_snap w = Option.map (fun s -> s.Checkpoint.worker_snaps.(w)) resume in
  let wstats =
    Array.init workers (fun w ->
        match worker_snap w with
        | Some snap -> snap.Checkpoint.w_stats
        | None -> Stats.create ())
  in
  let next =
    Array.init workers (fun w ->
        match worker_snap w with
        | Some snap -> snap.Checkpoint.w_next_cta
        | None -> w)
  in
  let inflight =
    Array.init workers (fun w ->
        Option.bind (worker_snap w) (fun snap -> snap.Checkpoint.w_inflight))
  in
  let hooks_for (ctx : Checkpoint.ctx) w : Checkpoint.hooks =
    let write_snap ~fault ~now save =
      let worker_snaps =
        Array.init workers (fun v ->
            {
              Checkpoint.w_next_cta = next.(v);
              w_stats = wstats.(v);
              w_inflight = (if v = w then Some (save ()) else None);
            })
      in
      let hotness, quarantine = Translation_cache.export_meta cache in
      let snap =
        {
          Checkpoint.kernel = cache.Translation_cache.kernel_name;
          grid;
          block;
          workers;
          seq = ctx.Checkpoint.seq + 1;
          global_size = Bytes.length (Mem.bytes global);
          global_image = Mem.image ?live:ctx.Checkpoint.live_bytes global;
          params_image = Mem.image params;
          worker_snaps;
          fault_state = Option.map Fault.export_state inject;
          hotness;
          quarantine;
        }
      in
      let path, bytes = Checkpoint.write ~fault ctx snap in
      if not fault then begin
        if Obs.Sink.enabled sink then
          Obs.Sink.emit sink
            (Obs.Event.Ckpt_write
               { ts = now; worker = w; seq = snap.Checkpoint.seq; bytes });
        Checkpoint.maybe_stop ctx path
      end
    in
    {
      Checkpoint.tick =
        (fun ~now ~save ->
          if Checkpoint.note_iter ctx then write_snap ~fault:false ~now save);
      on_fault = (fun ~now ~save -> write_snap ~fault:true ~now save);
    }
  in
  (* Worker [w]'s slice: CTAs [w, w+workers, ...] from [next.(w)] on,
     finishing first the CTA it was interrupted inside, if any. *)
  let run_slice ~sink ?profile ?attr w =
    let hooks = Option.map (fun ctx -> hooks_for ctx w) ckpt in
    let rec from restore =
      let c = next.(w) in
      if c < ncta then begin
        Exec_manager.run_cta ~costs ?fuel ?watchdog ?inject ~sink ?profile
          ?attr ~worker:w ~sched ?ckpt:hooks ?restore ?record ?replay cache
          ~launch:launch_info ~ctaid:(Launch.unlinear ~dims:grid c) ~global
          ~params ~consts ~stats:wstats.(w) ();
        next.(w) <- c + workers;
        from None
      end
    in
    let restore = inflight.(w) in
    inflight.(w) <- None;
    from restore
  in
  (* On one domain, workers write straight into the caller's sink,
     profile and attribution.  On several, each worker gets private
     ones — a reversed event buffer, and fresh profile and attribution
     tables (Hashtbls must not be shared across domains) — merged after
     the join in worker order.  Integer attribution sums are
     order-independent, so the merge conserves the total bit-exactly. *)
  let private_ = domains > 1 in
  let buffers = Array.init workers (fun _ -> ref []) in
  let wsink w =
    if private_ && Obs.Sink.enabled sink then
      Obs.Sink.fn (fun e -> buffers.(w) := e :: !(buffers.(w)))
    else sink
  in
  let fresh create = Option.map (fun x -> if private_ then create () else x) in
  let wprofiles =
    Array.init workers (fun _ -> fresh Obs.Divergence.create profile)
  in
  let wattrs = Array.init workers (fun _ -> fresh Obs.Attribution.create attr) in
  (* domain d executes worker slices d, d+domains, ... in order; its
     result is the lowest worker index that failed, with the error *)
  let body d () =
    let rec slices w =
      if w >= workers then None
      else
        match
          run_slice ~sink:(wsink w) ?profile:wprofiles.(w) ?attr:wattrs.(w) w
        with
        | () -> slices (w + domains)
        | exception e -> Some (w, e, Printexc.get_raw_backtrace ())
    in
    slices d
  in
  (* join every domain before propagating anything, so a failure never
     leaks running workers *)
  let outcomes =
    if private_ then
      Array.map Domain.join (Array.init domains (fun d -> Domain.spawn (body d)))
    else [| body 0 () |]
  in
  (* replay the buffers before any re-raise, so a crash bundle still sees
     every worker's events — its CTA spans left open where it died *)
  Array.iter
    (fun buf -> List.iter (Obs.Sink.emit sink) (List.rev !buf))
    buffers;
  (* surface the lowest worker's error *)
  (match
     Array.to_list outcomes
     |> List.filter_map Fun.id
     |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
   with
  | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt
  | [] -> ());
  let aggregate = Stats.create () in
  for w = 0 to workers - 1 do
    if private_ then begin
      (match (profile, wprofiles.(w)) with
      | Some into, Some p -> Obs.Divergence.merge ~into p
      | _ -> ());
      match (attr, wattrs.(w)) with
      | Some into, Some a -> Obs.Attribution.merge ~into a
      | _ -> ()
    end;
    Stats.merge_into ~into:aggregate wstats.(w)
  done;
  aggregate
