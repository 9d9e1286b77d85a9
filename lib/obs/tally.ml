(** Per-session event tallies: a {!Sink.t} that counts JIT and
    checkpoint events into a {!Metrics.t} registry.

    In a shared engine the translation cache's own counters
    ({!Vekt_runtime.Translation_cache.metrics_into}) aggregate over
    every session that touches the cache — useful for the engine-wide
    view, useless for billing a specific tenant.  The events flowing
    through a launch's sink, however, are intrinsically attributable:
    they are emitted by *this* launch.  Teeing a tally sink onto each
    session's sink therefore gives exact per-tenant [jit.*] /
    [fallback.*] / [ckpt.*] counters while the one-shot CLI keeps its
    existing unlabeled registry untouched.  A counter both registries
    export carries the cache's name, so one event has one name.

    Scrape-side, several sessions of one tenant are folded together
    with {!Metrics.merge_into}. *)

(** A sink that increments counters in [reg] for every countable event.
    Span and scheduling events (warp formation, yields, subkernel
    calls) are deliberately not tallied — they are high-frequency and
    already summarized by {!Vekt_runtime.Stats}. *)
let sink (reg : Metrics.t) : Sink.t =
  let hits = Metrics.counter reg "jit.cache_hits" in
  let misses = Metrics.counter reg "jit.cache_misses" in
  let compiles = Metrics.counter reg "jit.compiles" in
  let compile_us = Metrics.gauge reg "jit.compile_wall_us" in
  let fallbacks = Metrics.counter reg "fallback.compile_failures" in
  let quarantined = Metrics.counter reg "fallback.quarantine_adds" in
  let ckpt_writes = Metrics.counter reg "ckpt.writes" in
  let ckpt_resumes = Metrics.counter reg "ckpt.resumes" in
  Sink.fn (function
    | Event.Cache_hit _ -> Metrics.incr hits
    | Event.Cache_miss _ -> Metrics.incr misses
    | Event.Compile_end e ->
        Metrics.incr compiles;
        Metrics.set compile_us (!compile_us +. e.wall_us)
    | Event.Compile_fallback _ -> Metrics.incr fallbacks
    | Event.Quarantine { action = Event.Q_added; _ } -> Metrics.incr quarantined
    | Event.Ckpt_write _ -> Metrics.incr ckpt_writes
    | Event.Ckpt_resume _ -> Metrics.incr ckpt_resumes
    | Event.Server_health e ->
        (* daemon health decisions are per-tenant billing events too:
           [server.shed], [server.deadline_kill], … registered lazily
           because most sessions never suffer any of them *)
        Metrics.incr
          (Metrics.counter reg ("server." ^ Event.server_action_name e.action))
    | _ -> ())
