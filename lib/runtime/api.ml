(** CUDA-Runtime-style host API (paper §3: "the proposed compilation model
    is wrapped by an API front-end for heterogeneous computing").

    Typical use:
    {[
      let dev = Api.create_device () in
      let m = Api.load_module dev ptx_source in
      let a = Api.malloc dev (4 * n) in
      Api.write_f32s dev a data;
      let r = Api.launch dev m ~kernel:"vecadd" ~grid:(Launch.dim3 g)
                ~block:(Launch.dim3 b) ~args:[ Ptr a; I32 n ] in
      Fmt.pr "%.2f GFLOP/s@." r.Api.gflops
    ]} *)

module Machine = Vekt_vm.Machine
module Interp = Vekt_vm.Interp
module Vectorize = Vekt_transform.Vectorize
open Vekt_ptx

(** One session: per-client state layered over a shared {!Engine.t}.
    The device owns what must be private to a client — global memory,
    the allocator, launch bookkeeping — while the engine owns the
    shared JIT state (translation caches, engine-wide sink).  A device
    created without an explicit engine gets a private one, which is
    exactly the old one-shot behavior: "an engine with one session". *)
type device = {
  machine : Machine.t;
  workers : int;
  global : Mem.t;
  mutable brk : int;  (** bump-allocator watermark *)
  em_costs : Exec_manager.costs;
  engine : Engine.t;  (** shared JIT state this session runs over *)
  allocs : (int, int) Hashtbl.t;  (** live allocations: base → padded size *)
  mutable free_blocks : (int * int) list;
      (** freed [(base, size)] blocks below the watermark, sorted by
          base and coalesced; {!malloc} reuses them first-fit *)
}

(** Launch-configuration knobs, fixed when a module is loaded. *)
type config = {
  mode : Vectorize.mode;
  widths : int list;
  optimize : bool;
  affine : bool;
      (** coalesce provably-contiguous/uniform memory accesses (the
          paper's §4 future-work optimization) *)
  specialize_args : bool;
      (** bake concrete kernel-argument values into the code (the paper's
          §5.1 future-work specialization parameter) *)
  verify : bool;
  sched : Scheduler.kind option;
      (** warp-formation policy; [None] follows the vectorization mode
          (dynamic mode → dynamic formation, TIE → static formation) *)
  pipeline : Vekt_transform.Passes.pipeline;
      (** optimization pass pipeline for (tier-1) specializations *)
  tiering : Translation_cache.tiering;
      (** eager full compilation, or tier-0-then-promote-on-hotness *)
  cache_capacity : int option;
      (** bound on live specializations per kernel (LRU eviction) *)
  (* ---- fault tolerance (DESIGN.md §3.3) ---- *)
  inject : Fault.config option;  (** deterministic fault injection plan *)
  watchdog : int option;  (** per-warp livelock watchdog threshold *)
  quarantine_ttl : int;
      (** successful launches a failed width sits out before retry *)
  recover : bool;
      (** on a recoverable fault, roll global memory back and re-run the
          launch under the reference emulator (the oracle) *)
  workers : int option;
      (** execution-manager workers per launch, the modelled partition
          of the grid; [None] follows the device ([machine cores]).
          Clamped to the CTA count; 1 = serial. *)
  domains : int option;
      (** OCaml domains the workers run on; [None] follows the host
          ([Domain.recommended_domain_count]).  Clamped to [workers].
          Physical only: results, counters and modelled cycles are the
          same at any value. *)
  (* ---- checkpoint / record-replay (DESIGN.md §3.5) ---- *)
  checkpoint_every : int;
      (** snapshot the launch every N scheduler iterations; 0 = off.
          Forces the worker pool serial (the modelled [workers]
          partition is preserved in the snapshot). *)
  checkpoint_dir : string;
      (** where a launch keeps its snapshot log, [<kernel>.ckpt] *)
  record : string option;
      (** write the warp-formation schedule of each clean launch to
          this log *)
  replay : string option;
      (** drive launches from a recorded schedule log instead of the
          live scheduler, asserting equivalence at every decision *)
}

let default_config =
  { mode = Vectorize.Dynamic; widths = Translation_cache.default_widths;
    optimize = true; affine = false; specialize_args = false; verify = false;
    sched = None; pipeline = Vekt_transform.Passes.default_pipeline;
    tiering = Translation_cache.Eager; cache_capacity = None;
    inject = None; watchdog = None;
    quarantine_ttl = Translation_cache.default_quarantine_ttl;
    recover = false; workers = None; domains = None;
    checkpoint_every = 0; checkpoint_dir = "vekt-ckpt"; record = None;
    replay = None }

(** Reject malformed configurations at module-load time with a
    structured error, instead of letting a nonsense knob surface as an
    arbitrary crash mid-launch. *)
let validate_config (c : config) =
  let bad what requested available =
    raise
      (Vekt_error.Error (Vekt_error.Resource { what; requested; available }))
  in
  (match c.workers with
  | Some w when w <= 0 -> bad "config.workers (want >= 1)" w 1
  | _ -> ());
  (match c.domains with
  | Some d when d <= 0 -> bad "config.domains (want >= 1)" d 1
  | _ -> ());
  let narrowest = List.fold_left min max_int c.widths in
  if narrowest <> 1 then
    bad "config.widths (want each >= 1, including 1)" narrowest 1;
  if c.checkpoint_every < 0 then
    bad "config.checkpoint_every (want >= 0)" c.checkpoint_every 0;
  if c.quarantine_ttl < 0 then
    bad "config.quarantine_ttl (want >= 0)" c.quarantine_ttl 0;
  if c.pipeline.Vekt_transform.Passes.passes = [] then
    bad "config.pipeline (want at least one pass)" 0 1;
  (match c.cache_capacity with
  | Some cap when cap < 1 -> bad "config.cache_capacity (want >= 1)" cap 1
  | _ -> ());
  match (c.record, c.replay) with
  | Some r, Some _ ->
      raise
        (Vekt_error.Error
           (Vekt_error.Checkpoint
              {
                path = r;
                what = "replay log";
                reason = "record and replay are mutually exclusive";
              }))
  | _ -> ()

(** The scheduling policy a config resolves to. *)
let sched_policy (c : config) : Scheduler.t =
  Scheduler.of_kind
    (Option.value c.sched ~default:(Scheduler.default_kind_for c.mode))

(** Build a {!config} from a string-keyed spec — the one construction
    path shared verbatim by the [-c KEY=VALUE] pairs of [vektc compile],
    [vektc run] and [vektc submit] and the daemon protocol's
    [load-module] request, so the fronts cannot drift.

    Recognized keys (values are strings):
    [mode] (dynamic|static), [static] (bool shorthand for [mode]),
    [affine], [optimize], [verify], [specialize-args] (bools),
    [ws]/[warp-size] (shorthand for [widths = ws,1]), [widths]
    (comma-separated, sorted/deduped descending), [sched]
    (dynamic|static|barrier), [pipeline] (pass-pipeline spec),
    [tiered] (bool), [hot-threshold], [cache-cap], [inject]
    (';'-separated fault specs; implies [recover]), [inject-seed],
    [watchdog], [quarantine-ttl], [recover],
    [workers], [domains], [checkpoint-every], [checkpoint-dir], [record],
    [replay].

    Returns [Error] (not an exception) on an unknown key or a
    malformed value: a daemon must answer a bad client request, not
    die on it.  The result still goes through {!validate_config} at
    module load. *)
let config_of_spec ?(base = default_config) (spec : (string * string) list) :
    (config, string) result =
  let exception Bad of string in
  let fail fmt = Fmt.kstr (fun s -> raise (Bad s)) fmt in
  let bool_of k v =
    match String.lowercase_ascii v with
    | "true" | "1" | "yes" | "on" -> true
    | "false" | "0" | "no" | "off" -> false
    | _ -> fail "%s: bad boolean %S" k v
  in
  let int_of k v =
    match int_of_string_opt (String.trim v) with
    | Some n -> n
    | None -> fail "%s: bad integer %S" k v
  in
  let desc_uniq ws = List.sort_uniq (fun a b -> compare b a) ws in
  try
    let cfg = ref base in
    let ws = ref None and tiered = ref None and hot = ref None in
    let inject_specs = ref [] and inject_seed = ref Fault.default_seed in
    let recover = ref base.recover in
    List.iter
      (fun (k, v) ->
        match k with
        | "mode" -> (
            match String.lowercase_ascii v with
            | "dynamic" -> cfg := { !cfg with mode = Vectorize.Dynamic }
            | "static" | "static-tie" | "tie" ->
                cfg := { !cfg with mode = Vectorize.Static_tie }
            | _ -> fail "mode: want dynamic or static, got %S" v)
        | "static" ->
            cfg :=
              { !cfg with
                mode =
                  (if bool_of k v then Vectorize.Static_tie
                   else Vectorize.Dynamic)
              }
        | "affine" -> cfg := { !cfg with affine = bool_of k v }
        | "optimize" -> cfg := { !cfg with optimize = bool_of k v }
        | "verify" -> cfg := { !cfg with verify = bool_of k v }
        | "specialize-args" ->
            cfg := { !cfg with specialize_args = bool_of k v }
        | "ws" | "warp-size" -> ws := Some (int_of k v)
        | "widths" ->
            let widths = String.split_on_char ',' v |> List.map (int_of k) in
            if widths = [] then fail "widths: empty list";
            cfg := { !cfg with widths = desc_uniq widths }
        | "sched" -> (
            match Scheduler.kind_of_string v with
            | Some s -> cfg := { !cfg with sched = Some s }
            | None ->
                fail "sched: unknown policy %S (dynamic, static, barrier)" v)
        | "pipeline" -> (
            match Vekt_transform.Passes.parse_pipeline v with
            | Ok p -> cfg := { !cfg with pipeline = p }
            | Error e -> fail "pipeline: %s" e)
        | "tiered" -> tiered := Some (bool_of k v)
        | "hot-threshold" -> hot := Some (int_of k v)
        | "cache-cap" -> cfg := { !cfg with cache_capacity = Some (int_of k v) }
        | "inject" ->
            List.iter
              (fun s ->
                if String.trim s <> "" then
                  match Fault.parse_spec (String.trim s) with
                  | Ok sp -> inject_specs := !inject_specs @ [ sp ]
                  | Error e -> fail "inject: %s" e)
              (String.split_on_char ';' v)
        | "inject-seed" -> inject_seed := int_of k v
        | "watchdog" -> cfg := { !cfg with watchdog = Some (int_of k v) }
        | "quarantine-ttl" -> cfg := { !cfg with quarantine_ttl = int_of k v }
        | "recover" -> recover := bool_of k v
        | "workers" -> cfg := { !cfg with workers = Some (int_of k v) }
        | "domains" -> cfg := { !cfg with domains = Some (int_of k v) }
        | "checkpoint-every" ->
            cfg := { !cfg with checkpoint_every = int_of k v }
        | "checkpoint-dir" -> cfg := { !cfg with checkpoint_dir = v }
        | "record" -> cfg := { !cfg with record = Some v }
        | "replay" -> cfg := { !cfg with replay = Some v }
        | k -> fail "unknown config key %S" k)
      spec;
    (match !ws with
    | Some w -> cfg := { !cfg with widths = desc_uniq [ w; 1 ] }
    | None -> ());
    let tiering =
      match !tiered with
      | Some false -> Translation_cache.Eager
      | Some true ->
          Translation_cache.Tiered
            {
              hot_threshold =
                Option.value !hot
                  ~default:Translation_cache.default_hot_threshold;
            }
      | None -> (
          (* hot-threshold alone retunes an already-tiered base config *)
          match ((!cfg).tiering, !hot) with
          | Translation_cache.Tiered _, Some h ->
              Translation_cache.Tiered { hot_threshold = h }
          | t, _ -> t)
    in
    let inject =
      match !inject_specs with
      | [] -> (!cfg).inject
      | specs -> Some { Fault.seed = !inject_seed; specs }
    in
    (* injection without recovery would just crash the launch; arm the
       emulator fallback whenever faults are being injected *)
    Ok { !cfg with tiering; inject; recover = !recover || inject <> None }
  with Bad e -> Error e

type modul = {
  ast : Ast.modul;
  config : config;
  device : device;
  consts : Mem.t;
  caches : (string, Translation_cache.t) Hashtbl.t;
      (** per-module memo of engine-owned (or, under fault injection,
          private) translation caches, keyed by kernel name *)
  cache_key : string;
      (** engine cache-key prefix: digest of PTX source + compilation
          config fingerprint + machine, so sessions loading the same
          module with the same knobs share hot specializations *)
  fault : Fault.t option;  (** armed injector, shared by cache and managers *)
  mutable emulator_runs : int;  (** launches that recovered onto the oracle *)
  mutable last_ckpt : Checkpoint.ctx option;
      (** checkpoint bookkeeping of the most recent launch, for metrics *)
}

let create_device ?machine ?workers ?(global_bytes = 64 * 1024 * 1024)
    ?(em_costs = Exec_manager.default_costs) ?engine () : device =
  let engine =
    match engine with Some e -> e | None -> Engine.create ?machine ?workers ()
  in
  let machine = Option.value machine ~default:(Engine.machine engine) in
  Engine.note_session engine;
  {
    machine;
    workers = Option.value workers ~default:(Engine.default_workers engine);
    global = Mem.create ~name:"global" global_bytes;
    brk = 64 (* keep address 0 unallocated to catch null-ish bugs *);
    em_costs;
    engine;
    allocs = Hashtbl.create 16;
    free_blocks = [];
  }

let align16 n = (n + 15) / 16 * 16

(** Allocate [bytes] of device global memory (16-byte aligned).  Freed
    blocks below the watermark are reused first-fit before the
    watermark bumps, so a long-lived session that {!free}s what it
    {!malloc}s does not grow its arena without bound. *)
let malloc (d : device) bytes : int =
  if bytes < 0 then invalid_arg "malloc: negative size";
  let size = max 16 (align16 bytes) in
  let rec fit acc = function
    | [] -> None
    | (base, bsize) :: rest when bsize >= size ->
        let rest =
          if bsize - size >= 16 then (base + size, bsize - size) :: rest
          else rest
        in
        Some (base, List.rev_append acc rest)
    | b :: rest -> fit (b :: acc) rest
  in
  let base =
    match fit [] d.free_blocks with
    | Some (base, blocks) ->
        d.free_blocks <- blocks;
        base
    | None ->
        let base = align16 d.brk in
        if base + size > Mem.size d.global then
          raise
            (Vekt_error.Error
               (Vekt_error.Resource
                  {
                    what = "device global memory";
                    requested = bytes;
                    available = max 0 (Mem.size d.global - base);
                  }));
        d.brk <- base + size;
        base
  in
  Hashtbl.replace d.allocs base size;
  base

(** Release an allocation made by {!malloc}.  The block is zeroed (a
    later reuse must not leak stale data), returned to the free list
    (coalescing with adjacent free blocks), and when the freed region
    reaches back to the watermark the watermark itself drops.  Freeing
    an address that is not a live allocation is a structured
    {!Vekt_error.Resource} error — the daemon must not crash on a
    client's double-free. *)
let free (d : device) addr =
  match Hashtbl.find_opt d.allocs addr with
  | None ->
      raise
        (Vekt_error.Error
           (Vekt_error.Resource
              {
                what = "free: not a live allocation";
                requested = addr;
                available = 0;
              }))
  | Some size ->
      Hashtbl.remove d.allocs addr;
      Bytes.fill (Mem.bytes d.global) addr size '\000';
      let blocks = List.sort compare ((addr, size) :: d.free_blocks) in
      let rec coalesce = function
        | (a, sa) :: (b, sb) :: rest when a + sa = b ->
            coalesce ((a, sa + sb) :: rest)
        | x :: rest -> x :: coalesce rest
        | [] -> []
      in
      let blocks = coalesce blocks in
      d.free_blocks <-
        (match List.rev blocks with
        | (a, s) :: rev_rest when a + s = d.brk ->
            d.brk <- a;
            List.rev rev_rest
        | _ -> blocks)

(** Reset the session's whole arena: every allocation is dropped, the
    memory touched so far is zeroed, and the watermark returns to its
    initial position — the cheap way for a long-lived session to start
    a fresh problem without reopening. *)
let reset_arena (d : device) =
  Bytes.fill (Mem.bytes d.global) 0 (min d.brk (Mem.size d.global)) '\000';
  Hashtbl.reset d.allocs;
  d.free_blocks <- [];
  d.brk <- 64

(** Bytes of live allocations, for quota accounting and [stats]. *)
let allocated_bytes (d : device) =
  Hashtbl.fold (fun _ size acc -> acc + size) d.allocs 0

(** Advance the arena watermark so the next {!malloc} lands exactly at
    [addr].  Daemon restart recovery uses this to pin a recovered
    launch's buffers at the addresses the dead daemon already handed
    its client (the job manifest records them): a from-scratch rerun
    must put its outputs where the client will look.  [addr] must be
    16-aligned, in bounds, and not behind the watermark; the skipped
    gap is left unallocated. *)
let reserve_to (d : device) addr =
  if addr land 15 <> 0 then invalid_arg "reserve_to: unaligned address";
  if addr > Mem.size d.global then
    raise
      (Vekt_error.Error
         (Vekt_error.Resource
            {
              what = "device global memory";
              requested = addr;
              available = Mem.size d.global;
            }));
  if addr < align16 d.brk then invalid_arg "reserve_to: address already passed";
  d.brk <- addr

let write_f32s d addr xs = Mem.write_f32s d.global ~at:addr xs
let write_i32s d addr xs = Mem.write_i32s d.global ~at:addr xs
let read_f32s d addr n = Mem.read_f32s d.global ~at:addr n
let read_i32s d addr n = Mem.read_i32s d.global ~at:addr n

(** A launch argument parsed from a textual spec, plus the device
    address when the spec allocated a buffer (so the caller can read
    results back, or [free] it). *)
type parsed_arg = { launch_arg : Launch.arg; addr : int option }

(** Parse one textual argument spec — the grammar shared by
    [vektc run -a] and the daemon's [submit-launch] request:
    [i32:42], [i64:42], [f32:1.5], [f64:2.5], [zeros:N] (allocate N
    zeroed bytes, pass the pointer), [f32s:a,b,c] / [i32s:a,b,c]
    (allocate and fill, pass the pointer).  Allocations land in [d]'s
    arena.  Malformed specs are [Error]s; allocator exhaustion still
    raises the structured {!Vekt_error.Resource}. *)
let arg_of_spec (d : device) spec : (parsed_arg, string) result =
  match String.index_opt spec ':' with
  | None -> Error (Fmt.str "bad arg spec %S (want kind:value)" spec)
  | Some i -> (
      let kind = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      try
        match kind with
        | "i32" -> Ok { launch_arg = Launch.I32 (int_of_string rest); addr = None }
        | "i64" ->
            Ok { launch_arg = Launch.I64 (Int64.of_string rest); addr = None }
        | "f32" ->
            Ok { launch_arg = Launch.F32 (float_of_string rest); addr = None }
        | "f64" ->
            Ok { launch_arg = Launch.F64 (float_of_string rest); addr = None }
        | "zeros" ->
            let a = malloc d (int_of_string rest) in
            Ok { launch_arg = Launch.Ptr a; addr = Some a }
        | "f32s" ->
            let vals =
              String.split_on_char ',' rest |> List.map float_of_string
            in
            let a = malloc d (4 * List.length vals) in
            write_f32s d a vals;
            Ok { launch_arg = Launch.Ptr a; addr = Some a }
        | "i32s" ->
            let vals = String.split_on_char ',' rest |> List.map int_of_string in
            let a = malloc d (4 * List.length vals) in
            write_i32s d a vals;
            Ok { launch_arg = Launch.Ptr a; addr = Some a }
        | k -> Error (Fmt.str "unknown arg kind %S" k)
      with Failure _ -> Error (Fmt.str "bad arg spec %S" spec))

(* Canonical fingerprint of every knob that shapes compiled code or
   cache behavior — the config part of the engine's shared-cache key.
   Knobs that only affect the launch driver (workers, checkpointing,
   record/replay, watchdog, recover) are deliberately excluded: they
   don't change what the cache holds. *)
let config_fingerprint (c : config) (machine : Machine.t) : string =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (match c.mode with
    | Vectorize.Dynamic -> "dyn"
    | Vectorize.Static_tie -> "tie");
  List.iter (fun w -> Buffer.add_string b (Fmt.str ",%d" w)) c.widths;
  Buffer.add_string b
    (Fmt.str "|o%b|a%b|s%b|v%b|sched%s|" c.optimize c.affine c.specialize_args
       c.verify
       (match c.sched with
       | Some k -> Scheduler.kind_name k
       | None -> "-"));
  Buffer.add_string b
    (Fmt.str "%a|" Vekt_transform.Passes.pp_pipeline c.pipeline);
  (match c.tiering with
  | Translation_cache.Eager -> Buffer.add_string b "eager"
  | Translation_cache.Tiered { hot_threshold } ->
      Buffer.add_string b (Fmt.str "tiered:%d" hot_threshold));
  Buffer.add_string b
    (Fmt.str "|cap%s|ttl%d|m:%s"
       (match c.cache_capacity with Some n -> string_of_int n | None -> "-")
       c.quarantine_ttl machine.Machine.name);
  Digest.to_hex (Digest.string (Buffer.contents b))

(** Parse, type-check ({!Typecheck.load_with}) and register a PTX
    module; a bad module or configuration raises a structured
    {!Vekt_error.Error}.  Kernels are analyzed and translated lazily on
    first launch (the translation cache is shared by all launches of
    this module).  [sink] receives [parse] and [typecheck] span events
    (worker 0, modelled time 0 — module loading happens before any
    modelled cycle elapses; the spans' width is wall time). *)
let load_module ?(config = default_config) ?(sink = Vekt_obs.Sink.noop)
    (d : device) (src : string) : modul =
  let sink = Vekt_obs.Sink.tee (Engine.sink d.engine) sink in
  let load_span kind name body =
    if Vekt_obs.Sink.enabled sink then begin
      Vekt_obs.Sink.emit sink
        (Vekt_obs.Event.Span_begin
           { ts = 0.0; wall_us = Clock.now_us (); worker = 0; kind; name });
      let r = body () in
      Vekt_obs.Sink.emit sink
        (Vekt_obs.Event.Span_end
           { ts = 0.0; wall_us = Clock.now_us (); worker = 0; kind; name });
      r
    end
    else body ()
  in
  let ast =
    Typecheck.load_with src ~phase:(function
      | Vekt_error.Parse -> load_span Vekt_obs.Event.Sk_parse "parse"
      | _ -> load_span Vekt_obs.Event.Sk_typecheck "typecheck")
  in
  (* reject incompatible policy × vectorization combinations up front;
     a bad policy is a host programming error, not a guest fault *)
  Scheduler.validate ~mode:config.mode (sched_policy config);
  validate_config config;
  let consts, _ = Emulator.build_consts ast in
  {
    ast;
    config;
    device = d;
    consts;
    caches = Hashtbl.create 4;
    cache_key =
      Digest.to_hex (Digest.string src) ^ "-"
      ^ config_fingerprint config d.machine;
    fault = Option.map Fault.create config.inject;
    emulator_runs = 0;
    last_ckpt = None;
  }

let kernel_cache (m : modul) ~kernel : Translation_cache.t =
  match Hashtbl.find_opt m.caches kernel with
  | Some c -> c
  | None ->
      let build () =
        Translation_cache.prepare ~mode:m.config.mode ~affine:m.config.affine
          ~specialize_args:m.config.specialize_args ~machine:m.device.machine
          ~widths:m.config.widths ~optimize:m.config.optimize
          ~pipeline:m.config.pipeline ~tiering:m.config.tiering
          ?capacity:m.config.cache_capacity ~verify:m.config.verify
          ?fault:m.fault ~quarantine_ttl:m.config.quarantine_ttl m.ast ~kernel
      in
      let c =
        (* fault-injecting modules keep private caches: the injector's
           deterministic schedule is per-module state and must not leak
           into other sessions' launches *)
        if Option.is_some m.fault then build ()
        else
          Engine.find_or_build m.device.engine
            ~key:(m.cache_key ^ "/" ^ kernel)
            build
      in
      Hashtbl.replace m.caches kernel c;
      c

type report = {
  stats : Stats.t;
  cycles : float;  (** wall cycles: max over parallel workers *)
  time_ms : float;
  gflops : float;
  avg_warp_size : float;
  recovered : Vekt_error.t option;
      (** the fault this launch transparently recovered from by rolling
          memory back and re-running under the reference emulator *)
}

(** Run a kernel.  [resume] starts the launch from the newest valid
    record of a snapshot log written by a previous (interrupted) run of
    the same launch; [checkpoint_stop] stops the launch by raising
    {!Checkpoint.Stop} after that many snapshots — the
    forced-preemption hook the cross-process resume tests use.  [preempt] arms an asynchronous
    preemption token (see {!Checkpoint.preempt}): when another domain
    requests it, the launch snapshots at its next safe point and raises
    {!Checkpoint.Stop} with the log's path to resume from; [ckpt_dir]
    overrides the config's snapshot directory for this launch (the
    daemon gives every job its own).  With [config.recover] set, a
    recoverable fault first tries to resume from the newest valid
    snapshot this launch wrote (only one numbered above the last one
    tried, so a deterministic fault cannot loop), and only then falls
    back to rolling memory back and re-running under the reference
    emulator.
    [deadline_ms] bounds the launch's wall clock: past the budget it
    snapshots its partial progress at the next safe point and dies with
    a structured {!Vekt_error.Deadline} naming that snapshot. *)
let launch ?fuel ?(sink = Vekt_obs.Sink.noop)
    ?(profile : Vekt_obs.Divergence.t option)
    ?(attr : Vekt_obs.Attribution.t option) ?(resume : string option)
    ?(checkpoint_stop : int option) ?(preempt : Checkpoint.preempt option)
    ?(ckpt_dir : string option) ?(deadline_ms : int option) (m : modul) ~kernel
    ~(grid : Launch.dim3) ~(block : Launch.dim3) ~(args : Launch.arg list) :
    report =
  Engine.note_launch m.device.engine;
  let sink = Vekt_obs.Sink.tee (Engine.sink m.device.engine) sink in
  let k =
    match Ast.find_kernel m.ast kernel with
    | Some k -> k
    | None ->
        raise
          (Vekt_error.compile ~kernel ~line:None Vekt_error.Frontend
             (Fmt.str "no kernel named %s" kernel))
  in
  let params = Launch.param_block k args in
  let ncta = Launch.count grid in
  (* A replay log or a snapshot must have been taken of this very
     launch; [fail] raises the caller's structured error. *)
  let check_shape ~fail ~what ~kernel:k ~grid:g ~block:b =
    if k <> kernel then
      fail (Fmt.str "%s records kernel %s, launch runs %s" what k kernel);
    if g <> grid || b <> block then
      fail (Fmt.str "grid/block shape differs from the %s's launch" what)
  in
  (* replay drives the launch under the partition it was recorded with,
     so worker-keyed decisions land on the workers that made them *)
  let replay_log = Option.map Replay.load m.config.replay in
  Option.iter
    (fun (log : Replay.t) ->
      check_shape ~fail:(Replay.bad ~path:log.Replay.path) ~what:"log"
        ~kernel:log.Replay.kernel ~grid:log.Replay.grid ~block:log.Replay.block)
    replay_log;
  let workers =
    let w =
      match replay_log with
      | Some log -> log.Replay.workers
      | None -> Option.value m.config.workers ~default:m.device.workers
    in
    max 1 (min w ncta)
  in
  (* cross-process resume: validate the snapshot against this launch
     before trusting any of its images.  A damaged or mismatched
     snapshot is a structured error; with [recover] armed it is instead
     counted as rejected and the launch takes the ladder's last rung. *)
  let resumed =
    match resume with
    | None -> Ok None
    | Some path -> (
        let fail reason =
          raise
            (Vekt_error.Error
               (Vekt_error.Checkpoint { path; what = "checkpoint"; reason }))
        in
        match
          let s = Checkpoint.read path in
          check_shape ~fail ~what:"snapshot" ~kernel:s.Checkpoint.kernel
            ~grid:s.Checkpoint.grid ~block:s.Checkpoint.block;
          if s.Checkpoint.workers <> workers then
            fail
              (Fmt.str "snapshot partitions over %d workers, launch over %d"
                 s.Checkpoint.workers workers);
          if s.Checkpoint.global_size > Mem.size m.device.global then
            fail "snapshot's global segment exceeds this device";
          if Bytes.length s.Checkpoint.params_image <> Mem.size params then
            fail "parameter block size differs from the snapshotted launch";
          (* continue the snapshot's deterministic fault schedule
             instead of re-injecting from scratch *)
          (match (m.fault, s.Checkpoint.fault_state) with
          | Some inj, Some st -> Fault.import_state inj st
          | _ -> ());
          s
        with
        | s -> Ok (Some (s.Checkpoint.seq, path, s))
        | exception Vekt_error.Error (Vekt_error.Checkpoint _ as err)
          when m.config.recover ->
            Error err)
  in
  let ctx =
    if
      m.config.checkpoint_every > 0
      || Option.is_some checkpoint_stop
      || Option.is_some resume
      || Option.is_some preempt
      || Option.is_some deadline_ms
    then begin
      let c =
        Checkpoint.create_ctx
          ~dir:(Option.value ckpt_dir ~default:m.config.checkpoint_dir)
          ?stop_after:checkpoint_stop ?preempt ~live_bytes:m.device.brk
          ~kernel ?deadline_ms ~every:m.config.checkpoint_every ()
      in
      (* number snapshots after the one we resume from *)
      (match resumed with
      | Ok (Some (seq, _, _)) -> c.Checkpoint.seq <- seq
      | Ok None -> ()
      | Error _ -> c.Checkpoint.rejected <- c.Checkpoint.rejected + 1);
      Some c
    end
    else None
  in
  m.last_ckpt <- ctx;
  (match replay_log with
  | Some log when Vekt_obs.Sink.enabled sink ->
      Vekt_obs.Sink.emit sink
        (Vekt_obs.Event.Replay_begin
           {
             ts = 0.0;
             worker = 0;
             path = log.Replay.path;
             decisions = Replay.total log;
           })
  | _ -> ());
  let recorder = Option.map (fun _ -> Replay.recorder ~ncta) m.config.record in
  (* When recovery is armed, snapshot global memory before the launch so
     a partially-executed faulty launch can be rolled back before the
     oracle re-runs it; the copy is skipped entirely otherwise. *)
  let snapshot =
    if m.config.recover then Some (Bytes.copy (Mem.bytes m.device.global))
    else None
  in
  let run_vectorized ?(rs : Checkpoint.t option) () =
    let cache = kernel_cache m ~kernel in
    let stats =
      Worker_pool.launch ~costs:m.device.em_costs ?fuel
        ?watchdog:m.config.watchdog ?inject:m.fault ~workers
        ?domains:m.config.domains
        ~sink ?profile ?attr ~sched:(sched_policy m.config) ?ckpt:ctx
        ?resume:rs ?record:recorder ?replay:replay_log cache ~grid ~block
        ~global:m.device.global ~params ~consts:m.consts
    in
    (* one healthy launch elapsed: age the quarantine so failed widths
       eventually get another chance *)
    Translation_cache.tick_quarantine cache ~sink ();
    stats
  in
  (* The ladder's last rung: roll global memory back and re-run the
     launch under the emulator oracle. *)
  let fallback err =
    Option.iter
      (fun b -> Bytes.blit b 0 (Mem.bytes m.device.global) 0 (Bytes.length b))
      snapshot;
    m.emulator_runs <- m.emulator_runs + 1;
    ignore
      (Emulator.run m.ast ~kernel ~args ~global:m.device.global ~grid ~block);
    (Stats.create (), Some err)
  in
  (* Recovery ladder: run from [rs], a [(seq, path, snapshot)] to resume
     from, if any.  On a recoverable fault, resume from the newest valid
     record of the launch's log (only if its seq is above the last one
     tried — a deterministic fault must not loop), and past that fall
     back to the oracle. *)
  let rec attempt rs =
    let last_seq =
      match rs with
      | None -> 0
      | Some (seq, path, _) ->
          Option.iter
            (fun c ->
              c.Checkpoint.resumes <- c.Checkpoint.resumes + 1;
              if Vekt_obs.Sink.enabled sink then
                Vekt_obs.Sink.emit sink
                  (Vekt_obs.Event.Ckpt_resume { ts = 0.0; worker = 0; seq; path }))
            ctx;
          seq
    in
    match run_vectorized ?rs:(Option.map (fun (_, _, s) -> s) rs) () with
    | stats -> (stats, None)
    | exception Vekt_error.Error err
      when m.config.recover && Vekt_error.recoverable err -> (
        let next =
          Option.bind ctx (fun c -> Checkpoint.next_resume c ~last_seq)
        in
        match next with Some _ -> attempt next | None -> fallback err)
  in
  (* Root span of the launch's trace.  The begin sits at modelled cycle 0
     on worker 0; the end is stamped with the launch's wall cycles (max
     over workers) so the span covers the whole modelled timeline.  Not
     exception-protected: a launch that dies leaves its root span open,
     which the crash bundle reports. *)
  if Vekt_obs.Sink.enabled sink then
    Vekt_obs.Sink.emit sink
      (Vekt_obs.Event.Span_begin
         { ts = 0.0; wall_us = Clock.now_us (); worker = 0;
           kind = Vekt_obs.Event.Sk_launch; name = "launch " ^ kernel });
  let stats, recovered =
    (* a rejected snapshot leaves nothing to run from: straight to the
       oracle *)
    match resumed with Ok rs -> attempt rs | Error err -> fallback err
  in
  (* a schedule log is only meaningful for a clean, uninterrupted run *)
  (match (m.config.record, recorder, recovered) with
  | Some path, Some r, None
    when match ctx with Some c -> c.Checkpoint.resumes = 0 | None -> true ->
      Replay.save r ~path ~kernel ~grid ~block ~workers
  | _ -> ());
  if Vekt_obs.Sink.enabled sink then
    Vekt_obs.Sink.emit sink
      (Vekt_obs.Event.Span_end
         { ts = stats.Stats.wall_cycles; wall_us = Clock.now_us (); worker = 0;
           kind = Vekt_obs.Event.Sk_launch; name = "launch " ^ kernel });
  let cycles = Float.max stats.Stats.wall_cycles 1.0 in
  let time_s = cycles /. (m.device.machine.Machine.clock_ghz *. 1e9) in
  let flops = float_of_int stats.Stats.counters.Interp.flops in
  {
    stats;
    cycles;
    time_ms = time_s *. 1e3;
    gflops = (flops /. time_s) /. 1e9;
    avg_warp_size = Stats.average_warp_size stats;
    recovered;
  }

(** Export a launch report plus the kernel's JIT-cache state (hit/miss
    rates, per-specialization compile cost) into one metrics registry —
    the machine-readable form behind [vektc run --metrics]. *)
let metrics (m : modul) ~kernel (r : report) : Vekt_obs.Metrics.t =
  let reg = Stats.to_metrics r.stats in
  let module M = Vekt_obs.Metrics in
  M.set (M.gauge reg "launch.time_ms") r.time_ms;
  M.set (M.gauge reg "launch.gflops") r.gflops;
  (match Hashtbl.find_opt m.caches kernel with
  | Some c -> Translation_cache.metrics_into c reg
  | None -> ());
  M.counter reg "fallback.emulator_runs" := m.emulator_runs;
  Option.iter (fun f -> Fault.metrics_into f reg) m.fault;
  Option.iter (fun c -> Checkpoint.metrics_into c reg) m.last_ckpt;
  reg

(** Run the same launch through the reference PTX emulator (the oracle) on
    a copy of device memory; returns the resulting global memory for
    comparison with the vectorized pipeline's. *)
let launch_reference (m : modul) ~kernel ~grid ~block ~(args : Launch.arg list) :
    Mem.t =
  let global = Mem.copy m.device.global in
  ignore (Emulator.run m.ast ~kernel ~args ~global ~grid ~block);
  global
