(** Structured fault taxonomy for the whole stack.

    Every way a launch can fail — the frontend rejecting a construct, a
    specialization failing to build, a guest memory trap, a scheduling
    deadlock, fuel exhaustion, a host-side resource limit — is one
    constructor of {!t}, carrying enough context to diagnose the failure
    without re-running: kernel name, CTA, thread linear id, entry-point
    id, the guest address and space for memory traps, and the modelled
    cycle at which the fault was observed.

    This is a leaf library (depends only on [fmt]): the PTX layer, the
    VM, the transforms and the runtime all raise {!Error}, and [vektc]
    renders every failure through the one {!pp} below.  Layers attach
    the context they own — {!Vekt_ptx.Mem} knows the segment and
    address, the interpreter knows the faulting warp's threads, the
    execution manager knows the modelled cycle — so the payload is
    assembled incrementally on the way up rather than formatted into a
    string at the raise site. *)

(** Pipeline stage at which a compile-class failure occurred. *)
type compile_stage =
  | Parse
  | Lex
  | Typecheck
  | Frontend  (** PTX→IR translation (inlining, if-conversion, lowering) *)
  | Vectorize
  | Optimize
  | Verify
  | Inject  (** deterministic fault injection (testing only) *)

let stage_name = function
  | Parse -> "parse"
  | Lex -> "lex"
  | Typecheck -> "typecheck"
  | Frontend -> "frontend"
  | Vectorize -> "vectorize"
  | Optimize -> "optimize"
  | Verify -> "verify"
  | Inject -> "inject"

(** One guest memory access, as seen by the segment that faulted.
    [space] starts out equal to [segment] (the segment's name) and is
    refined at the interpreter boundary when the PTX address space of
    the access is known. *)
type access = {
  segment : string;  (** memory segment name, e.g. "global", "shared" *)
  space : string;  (** PTX address space of the access, when known *)
  addr : int;  (** guest byte address *)
  width : int;  (** access width in bytes *)
  size : int;  (** segment size in bytes ([-1] when synthesized) *)
  op : string;  (** what kind of access: load, store, typed read, … *)
}

let pp_access ppf (a : access) =
  if a.size >= 0 then
    Fmt.pf ppf "%s: %s of %d bytes at %d outside [0,%d)" a.space a.op a.width
      a.addr a.size
  else Fmt.pf ppf "%s: %s of %d bytes at %d" a.space a.op a.width a.addr

(** Per-thread state snapshot listed by deadlock diagnostics. *)
type thread_diag = {
  t_linear : int;  (** linear thread index within the CTA *)
  t_state : string;  (** scheduler state: ready / blocked / done *)
  t_entry : int;  (** entry-point id the thread is parked at *)
}

type deadlock_kind =
  | Barrier_starvation
      (** the policy found no runnable thread and no thread was parked
          at the barrier, yet threads remain live *)
  | Livelock
      (** the progress watchdog saw a thread re-dispatched at the same
          entry point with no resume-point progress for N calls *)

let deadlock_kind_name = function
  | Barrier_starvation -> "barrier-starvation"
  | Livelock -> "livelock"

type t =
  | Compile of {
      kernel : string;
      ws : int option;  (** warp size being specialized, when applicable *)
      tier : int option;
      stage : compile_stage;
      line : int option;  (** source line for parse/lex/typecheck stages *)
      reason : string;
    }
  | Trap of {
      kernel : string;
      cta : (int * int * int) option;
      tid : int option;  (** linear thread id of (a lane of) the faulting warp *)
      entry : int option;  (** entry-point id the warp was dispatched at *)
      cycle : float option;  (** modelled cycle, attached at the EM boundary *)
      access : access option;  (** present for memory traps *)
      reason : string;
    }
  | Deadlock of {
      kernel : string;
      cta : int * int * int;
      cycle : float;
      kind : deadlock_kind;
      detail : string;
      threads : thread_diag list;  (** stuck (non-exited) threads *)
    }
  | Fuel of {
      kernel : string;
      cta : int * int * int;
      calls : int;  (** subkernel calls actually made *)
      fuel : int;  (** the budget that was exhausted *)
      cycle : float;
    }
  | Resource of { what : string; requested : int; available : int }
  | Checkpoint of {
      path : string;  (** snapshot or schedule-log file involved *)
      what : string;  (** artifact class: "checkpoint" or "replay log" *)
      reason : string;
    }
      (** a checkpoint snapshot or replay schedule log was rejected:
          truncated, failed its integrity checksum, mismatched the
          launch, or (for replay) diverged from the live execution *)
  | Deadline of {
      kernel : string;
      deadline_ms : int;  (** the budget the request carried *)
      elapsed_ms : int;  (** wall time consumed when the launch was killed *)
      snapshot : string option;
          (** partial-progress snapshot written at the safe point where
              the deadline fired, preserving span/attribution data *)
    }
      (** a launch (running or still queued) exceeded its wall-clock
          deadline; running launches are cancelled at their next safe
          point via the preemption token, queued launches are rejected
          at admission without ever running *)
  | Overloaded of {
      queued : int;  (** admission-queue depth when the submit arrived *)
      limit : int;  (** the high watermark that tripped shedding *)
      retry_after_ms : int;  (** server's estimate of when to retry *)
    }
      (** the daemon shed the submit: the admission queue was above its
          high watermark and the job's priority did not beat the
          backlog; clients should back off [retry_after_ms] and retry *)

exception Error of t

(** A compile-class error raised before any specialization exists, so
    with no width or tier: a load or frontend failure. *)
let compile ~kernel ~line stage reason =
  Error (Compile { kernel; ws = None; tier = None; stage; line; reason })

let pp_cta ppf (x, y, z) = Fmt.pf ppf "(%d,%d,%d)" x y z

let pp_thread_diag ppf d =
  Fmt.pf ppf "t%d %s@@entry %d" d.t_linear d.t_state d.t_entry

let pp ppf = function
  | Compile c ->
      Fmt.pf ppf "compile error (%s" (stage_name c.stage);
      Option.iter (fun l -> Fmt.pf ppf ":%d" l) c.line;
      Fmt.pf ppf ")";
      if c.kernel <> "" then Fmt.pf ppf " in kernel %s" c.kernel;
      Option.iter (fun w -> Fmt.pf ppf ", ws %d" w) c.ws;
      Option.iter (fun t -> Fmt.pf ppf ", tier %d" t) c.tier;
      Fmt.pf ppf ": %s" c.reason
  | Trap t ->
      Fmt.pf ppf "trap in kernel %s" t.kernel;
      Option.iter (fun c -> Fmt.pf ppf ", CTA %a" pp_cta c) t.cta;
      Option.iter (fun i -> Fmt.pf ppf ", thread %d" i) t.tid;
      Option.iter (fun e -> Fmt.pf ppf ", entry %d" e) t.entry;
      Option.iter (fun c -> Fmt.pf ppf ", cycle %.0f" c) t.cycle;
      Fmt.pf ppf ": %s" t.reason;
      Option.iter (fun a -> Fmt.pf ppf ": %a" pp_access a) t.access
  | Deadlock d ->
      Fmt.pf ppf "%s in kernel %s, CTA %a, cycle %.0f: %s"
        (deadlock_kind_name d.kind) d.kernel pp_cta d.cta d.cycle d.detail;
      if d.threads <> [] then
        Fmt.pf ppf "; stuck threads: %a"
          Fmt.(list ~sep:(any ", ") pp_thread_diag)
          d.threads
  | Fuel f ->
      Fmt.pf ppf
        "out of fuel in kernel %s, CTA %a: %d subkernel calls made (budget \
         %d, cycle %.0f)"
        f.kernel pp_cta f.cta f.calls f.fuel f.cycle
  | Resource r ->
      Fmt.pf ppf "out of %s: requested %d, available %d" r.what r.requested
        r.available
  | Checkpoint c -> Fmt.pf ppf "bad %s %s: %s" c.what c.path c.reason
  | Deadline d ->
      Fmt.pf ppf "deadline exceeded in kernel %s: %d ms elapsed (budget %d ms)"
        d.kernel d.elapsed_ms d.deadline_ms;
      Option.iter (fun p -> Fmt.pf ppf "; partial snapshot at %s" p) d.snapshot
  | Overloaded o ->
      Fmt.pf ppf
        "server overloaded: %d jobs queued (limit %d); retry after %d ms"
        o.queued o.limit o.retry_after_ms

let to_string e = Fmt.str "%a" pp e

(** The variant's class name (stable machine-readable tag, used by the
    crash bundle). *)
let kind_name = function
  | Compile _ -> "compile"
  | Trap _ -> "trap"
  | Deadlock _ -> "deadlock"
  | Fuel _ -> "fuel"
  | Resource _ -> "resource"
  | Checkpoint _ -> "checkpoint"
  | Deadline _ -> "deadline"
  | Overloaded _ -> "overloaded"

(** Faults a launch can transparently recover from by degrading to the
    reference emulator: anything wrong with the *compiled* path.  Fuel
    exhaustion is excluded — a runaway kernel would also run away (more
    slowly) under the oracle — as are host resource limits.  A rejected
    checkpoint or replay log is recoverable: the artifact is damaged,
    but the oracle can still produce the launch's result from scratch.
    Deadline and overload are policy decisions, not faults: re-running
    under the oracle would only burn more of the budget the policy just
    enforced. *)
let recoverable = function
  | Compile _ | Trap _ | Deadlock _ | Checkpoint _ -> true
  | Fuel _ | Resource _ | Deadline _ | Overloaded _ -> false
