(** The dynamic execution manager (paper §3, §5.2).

    One execution manager runs per worker thread.  It owns a static
    partition of the kernel grid's CTAs and, for each CTA: the thread
    context pool, the CTA's shared-memory segment, a contiguous local-memory
    arena partitioned per thread, barrier bookkeeping, and the warp
    former/scheduler.

    The scheduling loop itself is a thin driver over three pluggable
    layers: a {!Scheduler.t} policy picks the next thread and packs the
    warp, the {!Translation_cache} supplies the width specialization
    (possibly tiered), and the disposition step routes each lane by the
    warp's resume status (ready / barrier queue / terminated).  Warps
    are formed within a single CTA (lanes share the CTA's shared segment
    and barrier); the policy must satisfy the contract documented in
    {!Scheduler}, in particular [Static_tie] code requires the static
    (consecutive-tid) policy. *)

module Ir = Vekt_ir.Ir
module Interp = Vekt_vm.Interp
module Machine = Vekt_vm.Machine
module Vectorize = Vekt_transform.Vectorize
module Obs = Vekt_obs
open Vekt_ptx

(** Modelled execution-manager overheads, in CPU cycles.  These feed the
    Figure 9 attribution; see DESIGN.md §2 for calibration notes. *)
type costs = {
  per_kernel_call : float;  (** cache query, argument setup, indirect call *)
  per_candidate_scan : float;  (** per context examined during warp formation *)
  per_lane_update : float;  (** status disposition per lane after a yield *)
  per_barrier_release : float;  (** per context moved out of the barrier queue *)
}

let default_costs =
  {
    per_kernel_call = 50.0;
    per_candidate_scan = 1.5;
    per_lane_update = 4.0;
    per_barrier_release = 3.0;
  }

(* The cursor after a dispatch or yield at [start]. *)
let[@inline] after ~n start = if start + 1 = n then 0 else start + 1

(* Built only when a sink is enabled: an untraced CTA formats nothing. *)
let cta_span_name (c : Launch.dim3) =
  Printf.sprintf "cta %d,%d,%d" c.Launch.x c.Launch.y c.Launch.z

(** Execute one CTA to completion under scheduling policy [sched],
    which {!Worker_pool.launch} has already checked against the cache's
    vectorization mode.
    [fuel] bounds the number of subkernel calls (divergent runaway loops
    yield forever otherwise); exhausting it raises a structured
    {!Vekt_error.Fuel} naming the kernel and CTA.

    [watchdog] arms the per-warp livelock watchdog: a thread
    re-dispatched at the same entry point with no resume-point progress
    for that many consecutive calls raises {!Vekt_error.Deadlock}
    ([Livelock]).  Off by default — fuel alone bounds honest long
    loops.  [inject] arms deterministic fault injection ({!Fault}).

    [sink] receives warp-formation / dispatch / yield / barrier events
    timestamped on this worker's modelled-cycle clock; [profile]
    accumulates per-entry-point divergence statistics.  Both default to
    off, in which case the instrumented paths reduce to one branch and
    allocate nothing.

    [ckpt] arms the checkpoint policy: its [tick] hook runs at the top
    of every scheduler iteration — the safe point where no warp is in
    flight and every live value sits spilled in the local arena — and
    its [on_fault] hook runs just before a watchdog raises.  [restore]
    starts the CTA from a {!Checkpoint.cta_snap} instead of fresh
    thread contexts.  [record] logs every scheduling decision;
    [replay] takes each decision from a recorded schedule instead of
    the live policy, through the same loop, and raises a structured
    {!Vekt_error.Checkpoint} if a decision does not fit the live state. *)
let run_cta ?(costs = default_costs) ?(fuel = 5_000_000) ?watchdog
    ?(inject : Fault.t option) ?(sink = Obs.Sink.noop) ?(profile : Obs.Divergence.t option)
    ?(attr : Obs.Attribution.t option) ?(worker = 0)
    ~(sched : Scheduler.t) ?(ckpt : Checkpoint.hooks option)
    ?(restore : Checkpoint.cta_snap option) ?(record : Replay.recorder option)
    ?(replay : Replay.t option) (cache : Translation_cache.t)
    ~(launch : Interp.launch_info) ~(ctaid : Launch.dim3) ~(global : Mem.t)
    ~(params : Mem.t) ~(consts : Mem.t) ~(stats : Stats.t) () : unit =
  let block = launch.Interp.block in
  let n = Launch.count block in
  let bad_snapshot reason =
    raise
      (Vekt_error.Error
         (Vekt_error.Checkpoint { path = "(resume)"; what = "checkpoint"; reason }))
  in
  (* A restored CTA must have been snapshotted under this very shape:
     thread count and memory geometry are part of the safe-point
     invariant, so a mismatch is a damaged/foreign snapshot. *)
  (match restore with
  | None -> ()
  | Some s ->
      if Array.length s.Checkpoint.c_threads <> n then
        bad_snapshot
          (Fmt.str "snapshot has %d thread contexts, CTA has %d"
             (Array.length s.Checkpoint.c_threads) n);
      if s.Checkpoint.c_cursor < 0 || s.Checkpoint.c_cursor >= n then
        bad_snapshot
          (Fmt.str "scheduler cursor %d outside CTA of %d threads"
             s.Checkpoint.c_cursor n);
      if Bytes.length s.Checkpoint.c_shared <> cache.Translation_cache.shared_bytes
      then bad_snapshot "shared-memory image size mismatch";
      if
        Bytes.length s.Checkpoint.c_local
        <> n * cache.Translation_cache.local_bytes
      then bad_snapshot "local-arena image size mismatch");
  let shared, local =
    match restore with
    | None ->
        ( Mem.create ~name:"shared" cache.Translation_cache.shared_bytes,
          Mem.create ~name:"local-arena" (n * cache.Translation_cache.local_bytes)
        )
    | Some s ->
        ( Mem.of_bytes ~name:"shared" (Bytes.copy s.Checkpoint.c_shared),
          Mem.of_bytes ~name:"local-arena" (Bytes.copy s.Checkpoint.c_local) )
  in
  let mem =
    { Interp.global; shared; local; params; consts }
  in
  let threads =
    Array.init n (fun i ->
        let tid = Launch.unlinear ~dims:block i in
        let resume_point, state =
          match restore with
          | None -> (0, Scheduler.Ready)
          | Some s ->
              ( s.Checkpoint.c_threads.(i).Checkpoint.t_resume,
                s.Checkpoint.c_threads.(i).Checkpoint.t_state )
        in
        {
          Scheduler.info =
            {
              Interp.tid;
              ctaid;
              local_base = i * cache.Translation_cache.local_bytes;
              resume_point;
            };
          linear = i;
          row = tid.Launch.y + (block.Launch.y * tid.Launch.z);
          state;
        })
  in
  let pool =
    {
      Scheduler.threads;
      n;
      cursor = (match restore with Some s -> s.Checkpoint.c_cursor | None -> 0);
      buf = Array.make n 0;
    }
  in
  (* a restored CTA's threads were already counted when the snapshot's
     stats accumulated them; only a fresh CTA launches threads *)
  (match restore with
  | None -> stats.Stats.threads_launched <- stats.Stats.threads_launched + n
  | Some _ -> ());
  let remaining =
    ref (match restore with Some s -> s.Checkpoint.c_remaining | None -> n)
  in
  let calls_left =
    ref
      (match restore with
      | Some s -> max 0 (fuel - s.Checkpoint.c_calls_used)
      | None -> fuel)
  in
  let cta = (ctaid.Launch.x, ctaid.Launch.y, ctaid.Launch.z) in
  let cta_linear = Launch.linear ~dims:launch.Interp.grid ctaid in
  (* consecutive same-entry redispatches without resume-point progress,
     per thread; only maintained when the livelock watchdog is armed *)
  let stalls =
    match watchdog with
    | Some _ -> (
        match restore with
        | Some s when Array.length s.Checkpoint.c_stalls = n ->
            Array.copy s.Checkpoint.c_stalls
        | _ -> Array.make n 0)
    | None -> [||]
  in
  (* The safe-point serializer: called by the checkpoint hooks only at
     the top of a scheduler iteration, when no warp is executing and
     the exit handlers have spilled every live value to [local]. *)
  let save () : Checkpoint.cta_snap =
    {
      Checkpoint.c_ctaid = ctaid;
      c_shared = Bytes.copy (Mem.bytes shared);
      c_local = Bytes.copy (Mem.bytes local);
      c_threads =
        Array.map
          (fun (t : Scheduler.thr) ->
            {
              Checkpoint.t_resume = t.Scheduler.info.Interp.resume_point;
              t_state = t.Scheduler.state;
            })
          threads;
      c_cursor = pool.Scheduler.cursor;
      c_remaining = !remaining;
      c_calls_used = fuel - !calls_left;
      c_stalls = Array.copy stalls;
    }
  in
  let on_access =
    match inject with
    | Some inj -> Fault.mem_hook inj ~kernel:cache.Translation_cache.kernel_name
    | None -> None
  in
  (* Modelled-cycle clock for this worker: execution-manager overheads
     plus everything the interpreter has accounted so far.  Monotone
     across the CTAs this worker runs, so trace timestamps nest. *)
  let now () = stats.Stats.em_cycles +. Interp.total_cycles stats.Stats.counters in
  let fuel_error () =
    raise
      (Vekt_error.Error
         (Vekt_error.Fuel
            {
              kernel = cache.Translation_cache.kernel_name;
              cta;
              calls = fuel - !calls_left;
              fuel;
              cycle = now ();
            }))
  in
  (* Snapshot every non-exited thread for a deadlock diagnostic. *)
  let stuck_threads () =
    Array.to_list threads
    |> List.filter_map (fun (t : Scheduler.thr) ->
           if t.Scheduler.state = Scheduler.Done then None
           else
             Some
               {
                 Vekt_error.t_linear = t.Scheduler.linear;
                 t_state = Scheduler.tstate_name t.Scheduler.state;
                 t_entry = t.Scheduler.info.Interp.resume_point;
               })
  in
  let deadlock kind detail =
    (* watchdog fire: drop a diagnostic snapshot first, so the stuck
       state can be inspected (it is not a resume candidate — resuming
       a deterministic deadlock would only re-raise it) *)
    (match ckpt with
    | Some h -> h.Checkpoint.on_fault ~now:(now ()) ~save
    | None -> ());
    raise
      (Vekt_error.Error
         (Vekt_error.Deadlock
            {
              kernel = cache.Translation_cache.kernel_name;
              cta;
              cycle = now ();
              kind;
              detail;
              threads = stuck_threads ();
            }))
  in
  let count_state st =
    Array.fold_left
      (fun acc (t : Scheduler.thr) -> if t.Scheduler.state = st then acc + 1 else acc)
      0 threads
  in
  (* --- the three scheduler-step outcomes.  Each applies one decision,
     live or logged alike, and appends it to the schedule log in record
     mode; only then is a decision record built. *)
  let do_release ~released =
    (* No runnable thread: every live thread is parked at the barrier.
       Release them all (barriers synchronize live threads; threads
       that already exited don't count, same as the oracle). *)
    if released = 0 then
      (* live threads remain but none is runnable and none is parked
         at the barrier: the policy starved them (distinct from the
         normal all-exited loop exit, where [remaining] hits 0) *)
      deadlock Vekt_error.Barrier_starvation
        (Fmt.str
           "scheduler %s found no runnable thread and the barrier queue is \
            empty with %d threads live"
           sched.Scheduler.name !remaining);
    Array.iter
      (fun (t : Scheduler.thr) ->
        if t.state = Scheduler.Blocked then t.state <- Scheduler.Ready)
      threads;
    (match record with
    | Some r -> Replay.record r ~cta:cta_linear (Replay.Barrier { released })
    | None -> ());
    stats.Stats.barrier_releases <- stats.Stats.barrier_releases + released;
    stats.Stats.em_cycles <-
      stats.Stats.em_cycles +. (float_of_int released *. costs.per_barrier_release);
    if Obs.Sink.enabled sink then
      Obs.Sink.emit sink
        (Obs.Event.Barrier_release { ts = now (); worker; released })
  in
  let do_spurious_yield ~start =
    (* spurious yield: skip the dispatch entirely; the selected thread
       stays Ready and is revisited later.  The fuel decrement makes
       even [every=1] terminate. *)
    (match record with
    | Some r -> Replay.record r ~cta:cta_linear (Replay.Yield { start })
    | None -> ());
    pool.Scheduler.cursor <- after ~n start
  in
  (* The first [ws] entries of [members] are threads Ready at
     [entry_id]; the cache query degrades through the fallback chain, so
     the width actually served can be narrower, which only a live
     decision may be, and the warp is then the first [served]. *)
  let do_dispatch ~start ~entry_id ~ws ~scanned ~(members : int array) =
    stats.Stats.em_cycles <-
      stats.Stats.em_cycles
      +. (float_of_int scanned *. costs.per_candidate_scan);
    (* the clock is read only for the events a sink would get *)
    let entry, served =
      Translation_cache.get_fallback cache ~params ~sink
        ?now:(if Obs.Sink.enabled sink then Some (now ()) else None)
        ~worker ~ws ()
    in
    (match replay with
    | Some log when served <> ws ->
        Replay.diverged log ~cta:cta_linear
          (Fmt.str "cache served width %d at entry %d, log recorded %d" served
             entry_id ws)
    | _ -> ());
    let ws = served in
    (match record with
    | Some r ->
        Replay.record r ~cta:cta_linear
          (Replay.Dispatch
             { start; entry_id; ws; scanned; members = List.init ws (Array.get members) })
    | None -> ());
    if Obs.Sink.enabled sink then
      Obs.Sink.emit sink
        (Obs.Event.Warp_formed
           { ts = now (); worker; entry_id; size = ws; scanned });
    let lanes = Array.make ws threads.(start).Scheduler.info in
    for k = 0 to ws - 1 do
      lanes.(k) <- threads.(members.(k)).Scheduler.info
    done;
    let warp = { Interp.lanes; entry_id; status = Ir.Status_exit } in
    Stats.record_warp stats ws;
    stats.Stats.em_cycles <- stats.Stats.em_cycles +. costs.per_kernel_call;
    let restores0 = stats.Stats.counters.Interp.restores in
    let spills0 = stats.Stats.counters.Interp.spills in
    let call_ts = if Obs.Sink.enabled sink then now () else 0.0 in
    Translation_cache.pin entry;
    (match
       Interp.run ?on_access ~counters:stats.Stats.counters ?profile ?attr
         entry.Translation_cache.code ~launch warp mem
     with
    | () -> Translation_cache.unpin entry
    | exception e -> (
        let bt = Printexc.get_raw_backtrace () in
        Translation_cache.unpin entry;
        match e with
        | Interp.Out_of_fuel -> fuel_error ()
        | Vekt_error.Error (Vekt_error.Trap tr) ->
            (* the interpreter attached thread context but only knows
               the specialization's name (e.g. "k.w4"); report the
               source kernel, and the modelled cycle known only here *)
            raise
              (Vekt_error.Error
                 (Vekt_error.Trap
                    {
                      tr with
                      kernel = cache.Translation_cache.kernel_name;
                      cycle = Some (now ());
                    }))
        | e -> Printexc.raise_with_backtrace e bt));
    (match profile with
    | None -> ()
    | Some p ->
        Obs.Divergence.record_entry p ~entry_id ~ws
          ~restores:(stats.Stats.counters.Interp.restores - restores0)
          ~spills:(stats.Stats.counters.Interp.spills - spills0));
    if Obs.Sink.enabled sink then begin
      let ts = now () in
      Obs.Sink.emit sink
        (Obs.Event.Subkernel_call
           {
             ts = call_ts;
             dur = ts -. call_ts;
             worker;
             kernel = cache.Translation_cache.kernel_name;
             entry_id;
             ws;
           });
      let kind =
        match warp.Interp.status with
        | Ir.Status_exit -> Obs.Event.Yield_exit
        | Ir.Status_barrier -> Obs.Event.Yield_barrier
        | Ir.Status_branch -> Obs.Event.Yield_branch
      in
      Obs.Sink.emit sink
        (Obs.Event.Yield { ts; worker; entry_id; kind; lanes = ws })
    end;
    stats.Stats.em_cycles <-
      stats.Stats.em_cycles +. (float_of_int ws *. costs.per_lane_update);
    let next_state =
      match warp.Interp.status with
      | Ir.Status_exit ->
          remaining := !remaining - ws;
          Scheduler.Done
      | Ir.Status_barrier -> Scheduler.Blocked
      | Ir.Status_branch -> Scheduler.Ready
    in
    for k = 0 to ws - 1 do
      threads.(members.(k)).Scheduler.state <- next_state
    done;
    (match watchdog with
    | None -> ()
    | Some limit ->
        (* progress proxy: a thread yielded back Ready at the very
           entry point it was dispatched from made no resume-point
           progress; [limit] such dispatches in a row is a livelock *)
        for k = 0 to ws - 1 do
          let i = members.(k) in
          let t = threads.(i) in
          if
            t.Scheduler.state = Scheduler.Ready
            && t.Scheduler.info.Interp.resume_point = entry_id
          then begin
            stalls.(i) <- stalls.(i) + 1;
            if stalls.(i) >= limit then
              deadlock Vekt_error.Livelock
                (Fmt.str
                   "thread %d re-dispatched at entry %d with no progress \
                    for %d consecutive calls under scheduler %s"
                   i entry_id stalls.(i) sched.Scheduler.name)
          end
          else stalls.(i) <- 0
        done);
    pool.Scheduler.cursor <- after ~n start
  in
  (* A logged decision must be one the live policy could have taken in
     the live state: a log recorded against different code or data, or
     edited by hand, diverges with a structured error before it touches
     memory. *)
  let check log (d : Replay.decision) =
    let fail fmt = Fmt.kstr (Replay.diverged log ~cta:cta_linear) fmt in
    let in_range what i =
      if i < 0 || i >= n then fail "%s %d outside CTA of %d threads" what i n
    in
    match d with
    | Replay.Barrier { released } ->
        let ready = count_state Scheduler.Ready in
        if ready > 0 then fail "barrier released with %d threads runnable" ready;
        let parked = count_state Scheduler.Blocked in
        if parked <> released then
          fail "barrier released %d threads, log recorded %d" parked released
    | Replay.Yield { start } -> in_range "yield start" start
    | Replay.Dispatch { start; entry_id; ws; members; scanned = _ } ->
        in_range "dispatch start" start;
        if ws < 1 then fail "dispatch at width %d" ws;
        let rec go count seen = function
          | [] ->
              if count <> ws then
                fail "warp of %d members, log recorded width %d" count ws
          | i :: rest ->
              in_range "member" i;
              if List.mem i seen then fail "member %d appears twice in one warp" i;
              let t = threads.(i) in
              if t.Scheduler.state <> Scheduler.Ready then
                fail "member %d not runnable at recorded dispatch" i;
              let at = t.Scheduler.info.Interp.resume_point in
              if at <> entry_id then
                fail "member %d parked at entry %d, log recorded entry %d" i at
                  entry_id;
              go (count + 1) (i :: seen) rest
        in
        go 0 [] members
  in
  let spend_call () =
    if !calls_left = 0 then fuel_error ();
    decr calls_left
  in
  let injected () =
    match inject with Some inj -> Fault.spurious_yield inj | None -> false
  in
  let want = Translation_cache.max_width cache in
  (* One scheduler step from the recorded schedule: the logged decision,
     checked against the live state, then applied.  A replayed dispatch
     still consumes the injector's counter, in lockstep, so a later
     transition out of replay stays deterministic. *)
  let replayed log =
    let d = Replay.next log ~cta:cta_linear in
    check log d;
    match d with
    | Replay.Barrier { released } -> do_release ~released
    | Replay.Yield { start } ->
        spend_call ();
        ignore (injected ());
        do_spurious_yield ~start
    | Replay.Dispatch { start; entry_id; ws; scanned; members } ->
        spend_call ();
        ignore (injected ());
        List.iteri (fun k i -> pool.Scheduler.buf.(k) <- i) members;
        do_dispatch ~start ~entry_id ~ws ~scanned ~members:pool.Scheduler.buf
  in
  (* One live step: the policy's decision, or the fault injector's
     spurious yield, applied without building a decision record. *)
  let live () =
    let start = sched.Scheduler.select pool in
    if start = Scheduler.none then do_release ~released:(count_state Scheduler.Blocked)
    else begin
      spend_call ();
      if injected () then do_spurious_yield ~start
      else
        (* the policy already tracked the member count *)
        let w = sched.Scheduler.form pool ~start ~want in
        do_dispatch ~start
          ~entry_id:threads.(start).Scheduler.info.Interp.resume_point
          ~ws:(Translation_cache.best_width cache w.Scheduler.count)
          ~scanned:w.Scheduler.scanned ~members:w.Scheduler.members
    end
  in
  (* CTA span: brackets the whole scheduling loop.  Intentionally not
     exception-protected — a CTA killed mid-flight (fuel, deadlock,
     injected fault) leaves its span open, which is exactly what the
     crash bundle reports as "where was everyone?". *)
  if Obs.Sink.enabled sink then
    Obs.Sink.emit sink
      (Obs.Event.Span_begin
         { ts = now (); wall_us = Clock.now_us (); worker;
           kind = Obs.Event.Sk_cta; name = cta_span_name ctaid });
  while !remaining > 0 do
    (match ckpt with
    | Some h -> h.Checkpoint.tick ~now:(now ()) ~save
    | None -> ());
    match replay with Some log -> replayed log | None -> live ()
  done;
  Option.iter (fun log -> Replay.check_drained log ~cta:cta_linear) replay;
  if Obs.Sink.enabled sink then
    Obs.Sink.emit sink
      (Obs.Event.Span_end
         { ts = now (); wall_us = Clock.now_us (); worker;
           kind = Obs.Event.Sk_cta; name = cta_span_name ctaid })
