(** Admission queue: the scheduler *over* launches (DESIGN.md §3.7).

    The execution manager schedules warps inside one launch; a daemon
    also needs to schedule the launches themselves.  This queue gives
    every tenant a FIFO of submitted jobs and arbitrates between
    tenants with stride scheduling — tenant [T] accrues [1/weight(T)]
    of "pass" per job it runs, and the runnable tenant with the lowest
    pass goes next, so over time tenants receive service proportional
    to their weights.  Strictly higher-priority jobs bypass the stride
    order entirely, and their arrival {e preempts} a lower-priority
    running job: the queue flips the running launch's
    {!Vekt_runtime.Checkpoint.preempt} token, the launch snapshots at
    its next safe point and raises {!Vekt_runtime.Checkpoint.Stop},
    and the job re-enters the *front* of its tenant's FIFO in state
    [Preempted], to be resumed from the snapshot when it next wins
    arbitration.

    Admission control is per tenant: a tenant with [quota] jobs in
    flight (queued + running + preempted) has further submissions
    rejected with a structured {!Vekt_error.Resource} — a structured
    answer, not a crash and not silent queuing without bound.

    Two global backpressure mechanisms sit on top (DESIGN.md §3.8).
    {e Deadlines}: a job may carry an absolute wall-clock budget; if it
    expires while the job is still queued the job is failed with a
    structured {!Vekt_error.Deadline} without ever running, and the
    remaining budget is handed to the launch itself so a running
    overrun is killed at its next safe point.  {e Watermark shedding}:
    when the total backlog crosses [high_watermark] the queue enters
    shedding mode (left again at [low_watermark] — hysteresis, so the
    flag doesn't flap) and rejects new submits that don't strictly beat
    the best queued priority, answering with {!Vekt_error.Overloaded}
    and a [retry_after_ms] computed from an EWMA of recent job run
    times times the backlog still ahead of the caller.

    Locking: one mutex + condvar protect every queue structure.  Jobs
    run on whatever thread calls {!step} / {!worker_loop} (the daemon
    dedicates a domain to the latter), with the lock dropped for the
    duration of the launch; {!submit}/{!poll}/{!cancel} may be called
    from any other domain.  Within one tenant, jobs execute strictly
    in submission order — sessions rely on launch N completing before
    launch N+1 reads its output. *)

module Checkpoint = Vekt_runtime.Checkpoint
module Clock = Vekt_runtime.Clock
module Api = Vekt_runtime.Api
module Obs = Vekt_obs

type outcome = Finished of Api.report | Failed of Vekt_error.t

type state =
  | Queued
  | Running
  | Preempted  (** snapshotted at a safe point, awaiting resume *)
  | Done of outcome
  | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Preempted -> "preempted"
  | Done (Finished _) -> "done"
  | Done (Failed _) -> "failed"
  | Cancelled -> "cancelled"

(* A job's cleanup sweeps its checkpoint directory — filesystem I/O
   that runs while the queue lock is held.  It is allowed to fail (a
   half-swept directory is a leak, not a correctness problem) but it
   must never poison the queue by throwing through the locked
   section. *)
let run_cleanup cleanup = try cleanup () with _ -> ()

type job = {
  id : int;
  tenant : string;
  label : string;
  priority : int;  (** higher runs first; arrival can preempt lower *)
  preempt : Checkpoint.preempt;
  sink : Obs.Sink.t;  (** receives the job's [Sk_queue] wait spans *)
  deadline_ms : int option;  (** the wall budget the submit carried *)
  deadline_us : float option;  (** absolute monotonic expiry, from submit *)
  cleanup : unit -> unit;
      (** called exactly once when the job reaches a terminal state
          (done, failed, cancelled, expired) — the daemon uses it to
          sweep the job's directory (its manifest and its launch's
          snapshot log), so a preempted or crash-interrupted job keeps
          its resume state and a finished one leaves nothing behind *)
  run :
    resume:string option ->
    preempt:Checkpoint.preempt ->
    deadline_ms:int option ->
    wait_us:float ->
    Api.report;
      (** the launch body; [resume] is the snapshot to continue from,
          [deadline_ms] the budget still unspent at dispatch,
          [wait_us] the queue wait since the last (re)enqueue *)
  mutable state : state;
  mutable resume_path : string option;
  mutable cancel_requested : bool;
  mutable enqueued_us : float;  (** monotonic clock at last (re)enqueue *)
  mutable wait_us : float;  (** cumulative time spent waiting in queue *)
  mutable preemptions : int;
}

type tenant = {
  name : string;
  mutable weight : int;  (** stride-scheduling share *)
  mutable quota : int;  (** max jobs in flight (queued+running+preempted) *)
  mutable default_deadline_ms : int option;
      (** deadline applied to this tenant's submits that carry none *)
  mutable pass : float;  (** stride pass value: lowest runnable goes next *)
  mutable active : int;
  mutable pending : job list;  (** runnable FIFO; preempted jobs re-enter front *)
}

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  tenants : (string, tenant) Hashtbl.t;
  jobs : (int, job) Hashtbl.t;
  default_quota : int;
  default_weight : int;
  high_watermark : int;  (** backlog size that trips shedding mode *)
  low_watermark : int;  (** backlog size that clears it (hysteresis) *)
  mutable next_id : int;
  mutable running : job option;
  mutable stopping : bool;
  mutable completed : int;
  mutable preemptions : int;
  mutable rejected : int;
  mutable pending_count : int;  (** jobs queued/preempted across tenants *)
  mutable shedding : bool;
  mutable shed : int;  (** submits rejected as {!Vekt_error.Overloaded} *)
  mutable expired : int;  (** queued jobs whose deadline lapsed unrun *)
  mutable deadline_kills : int;  (** running jobs killed past deadline *)
  mutable run_ewma_us : float;  (** EWMA of job run durations; 0 = no sample *)
}

let create ?(quota = 16) ?(weight = 1) ?(high_watermark = 64)
    ?(low_watermark = 48) () : t =
  let high_watermark = max 1 high_watermark in
  {
    lock = Mutex.create ();
    cond = Condition.create ();
    tenants = Hashtbl.create 8;
    jobs = Hashtbl.create 32;
    default_quota = max 1 quota;
    default_weight = max 1 weight;
    high_watermark;
    low_watermark = min (max 0 low_watermark) (high_watermark - 1);
    next_id = 0;
    running = None;
    stopping = false;
    completed = 0;
    preemptions = 0;
    rejected = 0;
    pending_count = 0;
    shedding = false;
    shed = 0;
    expired = 0;
    deadline_kills = 0;
    run_ewma_us = 0.0;
  }

(* Callers hold t.lock.  A tenant joining late starts at the minimum
   live pass, not 0 — otherwise a newcomer would monopolize the queue
   until it caught up with tenants that have been running for hours. *)
let tenant_of t name : tenant =
  match Hashtbl.find_opt t.tenants name with
  | Some ten -> ten
  | None ->
      let floor_pass =
        Hashtbl.fold (fun _ ten acc -> Float.min acc ten.pass) t.tenants 0.0
      in
      let ten =
        {
          name;
          weight = t.default_weight;
          quota = t.default_quota;
          default_deadline_ms = None;
          pass = floor_pass;
          active = 0;
          pending = [];
        }
      in
      Hashtbl.replace t.tenants name ten;
      ten

(** Create or retune a tenant's fairness weight, admission quota, and
    default per-submit deadline ([deadline_ms = 0] clears it). *)
let set_tenant t ~name ?weight ?quota ?deadline_ms () =
  Mutex.lock t.lock;
  let ten = tenant_of t name in
  Option.iter (fun w -> ten.weight <- max 1 w) weight;
  Option.iter (fun q -> ten.quota <- max 1 q) quota;
  Option.iter
    (fun ms -> ten.default_deadline_ms <- (if ms <= 0 then None else Some ms))
    deadline_ms;
  Mutex.unlock t.lock

let span_name j = "queue " ^ j.label

let emit_wait_span j ~closing =
  if Obs.Sink.enabled j.sink then begin
    let wall_us = Clock.now_us () in
    let ev =
      if closing then
        Obs.Event.Span_end
          { ts = 0.0; wall_us; worker = 0; kind = Obs.Event.Sk_queue;
            name = span_name j }
      else
        Obs.Event.Span_begin
          { ts = 0.0; wall_us; worker = 0; kind = Obs.Event.Sk_queue;
            name = span_name j }
    in
    Obs.Sink.emit j.sink ev
  end

let emit_health sink ~tenant ~action ~detail =
  if Obs.Sink.enabled sink then
    Obs.Sink.emit sink
      (Obs.Event.Server_health
         { ts = Clock.now_us (); worker = 0; action; tenant; detail })

(* ---- overload control (callers hold t.lock) ---- *)

(* Refresh the hysteresis flag from the live backlog: shedding starts at
   the high watermark and only stops once the backlog has drained to the
   low one, so the flag can't flap on every complete/submit pair. *)
let note_backlog t =
  if t.pending_count >= t.high_watermark then t.shedding <- true
  else if t.pending_count <= t.low_watermark then t.shedding <- false

let best_pending_priority t =
  Hashtbl.fold
    (fun _ ten acc ->
      List.fold_left (fun acc j -> max acc j.priority) acc ten.pending)
    t.tenants min_int

(* How long a shed client should wait before retrying: the EWMA of
   recent job run times, times the backlog that must drain before the
   queue re-opens (down to the low watermark).  50 ms/job before the
   first sample; clamped to [10 ms, 30 s]. *)
let retry_after_ms t =
  let per_job_ms =
    if t.run_ewma_us > 0.0 then t.run_ewma_us /. 1000.0 else 50.0
  in
  let backlog = max 1 (t.pending_count - t.low_watermark + 1) in
  int_of_float
    (Float.min 30_000.0 (Float.max 10.0 (per_job_ms *. float_of_int backlog)))

(* Fail a queued/preempted job whose deadline lapsed before it ran.
   Caller holds the lock and has already removed it from its FIFO. *)
let expire_locked t (j : job) =
  let ten = tenant_of t j.tenant in
  ten.active <- ten.active - 1;
  t.pending_count <- t.pending_count - 1;
  t.expired <- t.expired + 1;
  t.completed <- t.completed + 1;
  let elapsed_ms =
    int_of_float ((j.wait_us +. Clock.now_us () -. j.enqueued_us) /. 1000.)
  in
  emit_wait_span j ~closing:true;
  j.state <-
    Done
      (Failed
         (Vekt_error.Deadline
            {
              kernel = j.label;
              deadline_ms = Option.value j.deadline_ms ~default:0;
              elapsed_ms;
              snapshot = j.resume_path;
            }));
  emit_health j.sink ~tenant:j.tenant ~action:Obs.Event.Sv_expired
    ~detail:(Fmt.str "job %d (%s)" j.id j.label);
  run_cleanup j.cleanup;
  note_backlog t;
  Condition.broadcast t.cond

let deadline_lapsed (j : job) =
  match j.deadline_us with
  | Some d -> Clock.now_us () > d
  | None -> false

(** Fail every queued/preempted job whose deadline has lapsed; returns
    how many were expired.  The daemon calls this on its poll cadence so
    expiry doesn't wait for the job to reach the head of the queue. *)
let tick t : int =
  Mutex.lock t.lock;
  let n = ref 0 in
  Hashtbl.iter
    (fun _ ten ->
      let lapsed, live = List.partition deadline_lapsed ten.pending in
      if lapsed <> [] then begin
        ten.pending <- live;
        List.iter
          (fun j ->
            incr n;
            expire_locked t j)
          lapsed
      end)
    t.tenants;
  Mutex.unlock t.lock;
  !n

(* Create a job and put it in its tenant's FIFO, at the head when
   [front].  Caller holds the lock and has admitted the job.  If its
   priority strictly exceeds the running job's, the running job's
   preemption token is flipped: it will snapshot and yield at its next
   safe point. *)
let enqueue_locked t (ten : tenant) ~label ~priority ~sink ~deadline_ms ~front
    ~resume ~cleanup ~run : job =
  let id = t.next_id in
  t.next_id <- id + 1;
  let now = Clock.now_us () in
  let j =
    {
      id;
      tenant = ten.name;
      label;
      priority;
      preempt = Checkpoint.preempt_token ();
      sink;
      deadline_ms;
      deadline_us =
        Option.map (fun ms -> now +. (float_of_int ms *. 1000.)) deadline_ms;
      cleanup;
      run;
      state = Queued;
      resume_path = resume;
      cancel_requested = false;
      enqueued_us = now;
      wait_us = 0.0;
      preemptions = 0;
    }
  in
  Hashtbl.replace t.jobs id j;
  ten.pending <- (if front then j :: ten.pending else ten.pending @ [ j ]);
  ten.active <- ten.active + 1;
  t.pending_count <- t.pending_count + 1;
  note_backlog t;
  emit_wait_span j ~closing:false;
  (match t.running with
  | Some r when priority > r.priority && not r.cancel_requested ->
      Checkpoint.request_preempt r.preempt
  | _ -> ());
  Condition.broadcast t.cond;
  j

(** Submit a job.  Rejected with a structured {!Vekt_error.Resource}
    when the tenant's quota is full, or {!Vekt_error.Overloaded} (with
    a [retry_after_ms] hint) when the queue is in shedding mode and the
    job's priority doesn't strictly beat everything already queued.
    [sink] receives [Sk_queue] span begin/end pairs bracketing each
    stretch the job spends waiting.  [deadline_ms] bounds the job's
    whole life (queue wait + run) from this call. *)
let submit t ~tenant ?(label = "job") ?(priority = 0) ?(sink = Obs.Sink.noop)
    ?deadline_ms ?(cleanup = fun () -> ()) ~run () :
    (job, Vekt_error.t) result =
  Mutex.lock t.lock;
  let ten = tenant_of t tenant in
  note_backlog t;
  let r =
    if t.shedding && priority <= best_pending_priority t then begin
      t.shed <- t.shed + 1;
      t.rejected <- t.rejected + 1;
      emit_health sink ~tenant ~action:Obs.Event.Sv_shed ~detail:label;
      Error
        (Vekt_error.Overloaded
           {
             queued = t.pending_count;
             limit = t.high_watermark;
             retry_after_ms = retry_after_ms t;
           })
    end
    else if ten.active >= ten.quota then begin
      t.rejected <- t.rejected + 1;
      Error
        (Vekt_error.Resource
           {
             what = Fmt.str "tenant %s job quota" tenant;
             requested = ten.active + 1;
             available = ten.quota;
           })
    end
    else
      let deadline_ms =
        match deadline_ms with
        | Some _ -> deadline_ms
        | None -> ten.default_deadline_ms
      in
      Ok
        (enqueue_locked t ten ~label ~priority ~sink ~deadline_ms ~front:false
           ~resume:None ~cleanup ~run)
  in
  Mutex.unlock t.lock;
  r

(** Re-admit a job a dead daemon process had already admitted (restart
    recovery): it goes to the head of its tenant's FIFO, continues from
    [resume] if that snapshot exists, and skips the quota and shedding
    checks, since the job was admitted once.  It still counts toward
    the tenant's active jobs.  It runs without a deadline: its elapsed
    budget died with the predecessor. *)
let readmit t ~tenant ~label ~priority ~sink ?resume ~cleanup ~run () : job =
  Mutex.lock t.lock;
  let j =
    enqueue_locked t (tenant_of t tenant) ~label ~priority ~sink
      ~deadline_ms:None ~front:true ~resume ~cleanup ~run
  in
  Mutex.unlock t.lock;
  j

(* Pick the next job (caller holds the lock): highest head priority
   wins outright; within a priority level the tenant with the lowest
   stride pass goes, names breaking ties for determinism.  A picked job
   whose deadline already lapsed is expired (it never runs) and the
   pick repeats. *)
let rec pick_next t : job option =
  let best = ref None in
  Hashtbl.iter
    (fun _ ten ->
      match ten.pending with
      | [] -> ()
      | j :: _ -> (
          match !best with
          | None -> best := Some (j.priority, ten)
          | Some (bp, bten) ->
              if
                j.priority > bp
                || (j.priority = bp
                    && (ten.pass < bten.pass
                        || (ten.pass = bten.pass && ten.name < bten.name)))
              then best := Some (j.priority, ten)))
    t.tenants;
  match !best with
  | None -> None
  | Some (_, ten) -> (
      match ten.pending with
      | [] -> None
      | j :: rest ->
          ten.pending <- rest;
          if deadline_lapsed j then begin
            expire_locked t j;
            pick_next t
          end
          else begin
            ten.pass <- ten.pass +. (1.0 /. float_of_int (max 1 ten.weight));
            t.pending_count <- t.pending_count - 1;
            note_backlog t;
            Some j
          end)

(* Run one picked job.  Enters and leaves holding the lock; the lock is
   dropped around the launch itself. *)
let run_one t (j : job) =
  j.state <- Running;
  let now = Clock.now_us () in
  let wait = Float.max 0.0 (now -. j.enqueued_us) in
  j.wait_us <- j.wait_us +. wait;
  emit_wait_span j ~closing:true;
  t.running <- Some j;
  (* the budget still unspent after the queue wait; clamped to 1 ms so a
     race between tick and dispatch still dies promptly, at the launch's
     first safe point, with the structured Deadline error *)
  let remaining_ms =
    Option.map
      (fun d -> max 1 (int_of_float ((d -. now) /. 1000.)))
      j.deadline_us
  in
  Mutex.unlock t.lock;
  let run_t0 = Clock.now_us () in
  let result =
    try
      `Report
        (j.run ~resume:j.resume_path ~preempt:j.preempt
           ~deadline_ms:remaining_ms ~wait_us:wait)
    with
    | Checkpoint.Stop path -> `Stopped path
    | Vekt_error.Error e -> `Err e
    | Vekt_chaos.Io.Crash as e ->
        (* simulated process death from the chaos injector (DESIGN.md
           §3.10).  Absorbing it as a job failure would be a lie — a
           dead process marks nothing failed and runs no cleanup.
           Freeze the queue exactly as kill -9 would (the job stays
           Running; the lock was already dropped for the launch) and
           let the crash propagate to the harness. *)
        raise e
    | e ->
        `Err
          (Vekt_error.Trap
             {
               kernel = j.label;
               cta = None;
               tid = None;
               entry = None;
               cycle = None;
               access = None;
               reason = Printexc.to_string e;
             })
  in
  let run_us = Clock.elapsed_us run_t0 in
  Mutex.lock t.lock;
  t.running <- None;
  t.run_ewma_us <-
    (if t.run_ewma_us = 0.0 then run_us
     else (0.8 *. t.run_ewma_us) +. (0.2 *. run_us));
  let ten = tenant_of t j.tenant in
  (match result with
  | `Report r ->
      j.state <- Done (Finished r);
      ten.active <- ten.active - 1;
      t.completed <- t.completed + 1;
      run_cleanup j.cleanup
  | `Err e ->
      (match e with
      | Vekt_error.Deadline _ ->
          t.deadline_kills <- t.deadline_kills + 1;
          emit_health j.sink ~tenant:j.tenant
            ~action:Obs.Event.Sv_deadline_kill
            ~detail:(Fmt.str "job %d (%s)" j.id j.label)
      | _ -> ());
      j.state <- Done (Failed e);
      ten.active <- ten.active - 1;
      t.completed <- t.completed + 1;
      run_cleanup j.cleanup
  | `Stopped path ->
      j.resume_path <- Some path;
      if j.cancel_requested then begin
        j.state <- Cancelled;
        ten.active <- ten.active - 1;
        run_cleanup j.cleanup
      end
      else begin
        j.state <- Preempted;
        j.preemptions <- j.preemptions + 1;
        t.preemptions <- t.preemptions + 1;
        j.enqueued_us <- Clock.now_us ();
        emit_wait_span j ~closing:false;
        (* front of the tenant FIFO: within a tenant, order is preserved *)
        ten.pending <- j :: ten.pending;
        t.pending_count <- t.pending_count + 1;
        note_backlog t
      end);
  Condition.broadcast t.cond

(** Run at most one job to completion (or preemption) on the calling
    thread; [false] when nothing was runnable.  The deterministic
    single-threaded driver the tests use. *)
let step t : bool =
  Mutex.lock t.lock;
  match pick_next t with
  | None ->
      Mutex.unlock t.lock;
      false
  | Some j ->
      run_one t j;
      Mutex.unlock t.lock;
      true

(** The daemon's scheduler loop: run jobs as they become available,
    sleeping on the condvar when idle, until {!shutdown}. *)
let worker_loop t =
  Mutex.lock t.lock;
  let rec go () =
    if t.stopping then Mutex.unlock t.lock
    else
      match pick_next t with
      | Some j ->
          run_one t j;
          go ()
      | None ->
          Condition.wait t.cond t.lock;
          go ()
  in
  go ()

type info = {
  i_id : int;
  i_tenant : string;
  i_label : string;
  i_state : state;
  i_resume_path : string option;
  i_wait_us : float;
  i_preemptions : int;
}

let info t ~id : info option =
  Mutex.lock t.lock;
  let r =
    Option.map
      (fun j ->
        {
          i_id = j.id;
          i_tenant = j.tenant;
          i_label = j.label;
          i_state = j.state;
          i_resume_path = j.resume_path;
          i_wait_us = j.wait_us;
          i_preemptions = j.preemptions;
        })
      (Hashtbl.find_opt t.jobs id)
  in
  Mutex.unlock t.lock;
  r

(* Caller holds the lock. *)
let cancel_locked t (j : job) : bool =
  match j.state with
  | Done _ | Cancelled -> false
  | Running ->
      (* async: the launch yields at its next safe point and run_one
         turns the Stop into Cancelled *)
      j.cancel_requested <- true;
      Checkpoint.request_preempt j.preempt;
      true
  | Queued | Preempted ->
      let ten = tenant_of t j.tenant in
      ten.pending <- List.filter (fun j' -> j'.id <> j.id) ten.pending;
      ten.active <- ten.active - 1;
      t.pending_count <- t.pending_count - 1;
      note_backlog t;
      j.state <- Cancelled;
      run_cleanup j.cleanup;
      Condition.broadcast t.cond;
      true

(** Cancel a job: queued/preempted jobs leave the queue immediately, a
    running job is preempted at its next safe point and discarded.
    [false] when the job is unknown or already finished. *)
let cancel t ~id : bool =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.jobs id with
    | None -> false
    | Some j -> cancel_locked t j
  in
  Mutex.unlock t.lock;
  r

(** Arm [id]'s preemption token directly: the launch snapshots and
    yields at its next safe point.  On a job that has not started yet
    the token is armed before dispatch, so its launch preempts itself
    at its very first safe point — the deterministic way tests and
    recovery drills force a mid-flight snapshot without racing the
    scheduler domain. *)
let request_preempt t ~id =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.jobs id with
  | Some j -> Checkpoint.request_preempt j.preempt
  | None -> ());
  Mutex.unlock t.lock

(** Cancel every job that is not already finished (daemon shutdown). *)
let cancel_all t =
  Mutex.lock t.lock;
  Hashtbl.iter (fun _ j -> ignore (cancel_locked t j)) t.jobs;
  Mutex.unlock t.lock

(** Ask {!worker_loop} to exit once the current job yields. *)
let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

let tenant_stats t : (string * (int * int * int)) list =
  Mutex.lock t.lock;
  let r =
    Hashtbl.fold
      (fun name ten acc -> (name, (ten.weight, ten.quota, ten.active)) :: acc)
      t.tenants []
    |> List.sort compare
  in
  Mutex.unlock t.lock;
  r

let metrics_into t (reg : Obs.Metrics.t) =
  let module M = Obs.Metrics in
  Mutex.lock t.lock;
  M.counter reg "queue.submitted" := t.next_id;
  M.counter reg "queue.completed" := t.completed;
  M.counter reg "queue.preemptions" := t.preemptions;
  M.counter reg "queue.rejected" := t.rejected;
  M.counter reg "queue.shed" := t.shed;
  M.counter reg "queue.expired" := t.expired;
  M.counter reg "queue.deadline_kills" := t.deadline_kills;
  M.set (M.gauge reg "queue.pending") (float_of_int t.pending_count);
  M.set (M.gauge reg "queue.shedding") (if t.shedding then 1.0 else 0.0);
  M.set (M.gauge reg "queue.run_ewma_us") t.run_ewma_us;
  M.set (M.gauge reg "queue.running")
    (if Option.is_some t.running then 1.0 else 0.0);
  Mutex.unlock t.lock
