(** The long-lived runtime engine: shared JIT state that outlives any
    single session (DESIGN.md §3.7).

    The paper's premise is that dynamic compilation pays for itself by
    amortizing translation across launches; a persistent engine extends
    the amortization across *clients*.  An engine owns the things that
    are expensive to warm up and safe to share:

    - the table of tiered {!Translation_cache}s, keyed by a fingerprint
      of (PTX source digest, kernel, machine, compilation config) so
      two sessions loading the same module with the same knobs hit the
      same hot specializations — the second tenant's launch of an
      already-hot kernel skips tier-0/tier-1 compilation entirely;
    - an engine-wide observability sink, teed under every session's
      own sink;
    - the default worker-pool width sessions inherit.

    Per-session state (global memory, the bump allocator, launch
    config) stays in {!Api.device} — a session is a thin facade over an
    engine, and the one-shot CLI path is just an engine with one
    session.  The translation caches themselves are domain-safe
    (mutex-guarded build path, lock-free published reads), so sessions
    on different domains share them without further ceremony; this
    module's lock only guards the cache *table* and the counters.

    Caches built with a fault injector armed are deliberately not
    shared: the injector's deterministic RNG schedule is per-module
    state, and leaking one tenant's injected faults into another's
    launches would be absurd.  {!Api} gives such modules private
    caches. *)

module Machine = Vekt_vm.Machine

type t = {
  machine : Machine.t;
  default_workers : int;  (** modelled worker partition sessions inherit *)
  sink : Vekt_obs.Sink.t;  (** engine-wide tap, teed under session sinks *)
  lock : Mutex.t;
  caches : (string, Translation_cache.t) Hashtbl.t;
  created_us : float;  (** monotonic creation time, for the uptime gauge *)
  mutable sessions : int;  (** devices ever attached to this engine *)
  mutable launches : int;  (** launches dispatched through this engine *)
  mutable cache_builds : int;  (** shared caches built (table misses) *)
  mutable cache_reuses : int;  (** lookups served from the shared table *)
}

let create ?(machine = Machine.sse4) ?workers ?(sink = Vekt_obs.Sink.noop) () :
    t =
  {
    machine;
    default_workers = Option.value workers ~default:machine.Machine.cores;
    sink;
    lock = Mutex.create ();
    caches = Hashtbl.create 16;
    created_us = Clock.now_us ();
    sessions = 0;
    launches = 0;
    cache_builds = 0;
    cache_reuses = 0;
  }

(** Wall microseconds this engine has been alive.  The daemon's stats
    scrape and restart-recovery log both report it: a small uptime after
    a crash is how an operator distinguishes "recovered launches" from
    "launches that never died". *)
let uptime_us t = Clock.elapsed_us t.created_us

let machine t = t.machine
let default_workers t = t.default_workers
let sink t = t.sink

let note_session t =
  Mutex.lock t.lock;
  t.sessions <- t.sessions + 1;
  Mutex.unlock t.lock

let note_launch t =
  Mutex.lock t.lock;
  t.launches <- t.launches + 1;
  Mutex.unlock t.lock

(** Get the shared cache under [key], building (and publishing) it with
    [build] on first request.  [build] runs under the table lock so two
    sessions racing on a cold key produce exactly one cache — cache
    construction is cheap (translation itself is lazy, driven by
    launches), so holding the lock across it is fine. *)
let find_or_build t ~key build : Translation_cache.t =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.caches key with
  | Some c ->
      t.cache_reuses <- t.cache_reuses + 1;
      Mutex.unlock t.lock;
      c
  | None -> (
      match build () with
      | c ->
          Hashtbl.replace t.caches key c;
          t.cache_builds <- t.cache_builds + 1;
          Mutex.unlock t.lock;
          c
      | exception e ->
          Mutex.unlock t.lock;
          raise e)

(** Engine-wide counters, for the daemon's [stats] scrape. *)
let metrics_into t (reg : Vekt_obs.Metrics.t) =
  let module M = Vekt_obs.Metrics in
  Mutex.lock t.lock;
  M.counter reg "engine.sessions" := t.sessions;
  M.counter reg "engine.launches" := t.launches;
  M.counter reg "engine.cache_builds" := t.cache_builds;
  M.counter reg "engine.cache_reuses" := t.cache_reuses;
  M.set (M.gauge reg "engine.caches") (float_of_int (Hashtbl.length t.caches));
  M.set (M.gauge reg "engine.uptime_us") (uptime_us t);
  Mutex.unlock t.lock
