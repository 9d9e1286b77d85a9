(** The persistent multi-tenant vekt daemon (DESIGN.md §3.7–3.8).

    One process, one shared {!Vekt_runtime.Engine}, many sessions.  A
    session is a tenant-labelled {!Vekt_runtime.Api.device}: private
    global memory and allocator, private loaded modules, private
    metrics registry — but translation caches, by construction, live
    in the engine and are shared across every session with the same
    (source, config, machine) fingerprint.  The second tenant to
    launch an already-hot kernel skips tier-0/tier-1 compilation
    entirely; that is the whole point of keeping the process alive.

    Launches are not run synchronously on the connection: [submit-launch]
    enqueues a job on the admission {!Queue} and returns a job id; the
    client [poll]s for completion (or [cancel]s).  A dedicated domain
    runs {!Queue.worker_loop}; the socket loop never blocks on a
    launch.  Preemption uses per-job checkpoint directories under the
    server's checkpoint root, cleaned up when the job completes and
    swept entirely at shutdown.

    The daemon is {e crash-only} (DESIGN.md §3.8): the recovery path
    from [kill -9] is the same code that runs at every startup, so
    there is no separate "graceful degradation" mode to rot.  Three
    mechanisms carry state across a crash:

    - every submitted launch writes a [manifest.json] into its job
      directory before admission; a successor process rescans the
      checkpoint root and rebuilds each manifested job through the
      same module-load and admission functions the request handlers
      use, then re-admits it at the front of the queue under its
      original tenant, resuming from the newest snapshot it had
      reached.  A recovered job skips the quota and shedding checks,
      since the dead process acknowledged it, but counts toward its
      tenant's active jobs;
    - per-tenant archived tallies are journalled (line-JSON, atomically
      rewritten) so [stats] attribution survives the restart;
    - a leftover socket path is reclaimed after probing that no live
      daemon is behind it.

    Clean shutdown (SIGTERM / [shutdown]) is decommission, not crash:
    it drains the checkpoint root, journal included.  Persistence is
    for crashes only.

    On top of that, three protections keep a live daemon from being
    wedged by its own clients: per-request (or per-tenant default)
    deadlines that kill an overrunning launch at its next safe point,
    watermark-based overload shedding with [retry_after_ms] hints and
    idempotency-key dedup for safe retries, and TTL-based reaping of
    sessions whose client went away without [close-session].

    Request handling is deliberately split from transport:
    {!handle} maps request JSON to response JSON and is what the tests
    drive; {!serve} adds the Unix-socket line loop, the scheduler
    domain, and SIGTERM-clean shutdown around it.

    Concurrency note: request handling happens on the socket-loop
    domain while launches run on the scheduler domain.  The server
    mutex guards the session table; per-session metric registries are
    pre-registered at session open (including every [server.*] health
    counter the tally sink may bump), so the scheduler domain only
    ever bumps existing refs while [stats] reads them — no table
    mutation races.  Reading a buffer while a launch of the same
    session is in flight is the client's race to avoid, exactly as
    with a real asynchronous device queue. *)

module Api = Vekt_runtime.Api
module Engine = Vekt_runtime.Engine
module Checkpoint = Vekt_runtime.Checkpoint
module Clock = Vekt_runtime.Clock
module Obs = Vekt_obs
module Io = Vekt_chaos.Io
module J = Vekt_obs.Jsonx
module P = Protocol

type mod_entry = {
  me_mod : Api.modul;
  me_src : string;  (** PTX source, kept for job manifests *)
  me_spec : (string * string) list;  (** config spec, same reason *)
}

type session = {
  s_id : int;
  s_tenant : string;
  s_dev : Api.device;
  s_reg : Obs.Metrics.t;  (** per-session tally, merged per tenant on scrape *)
  s_sink : Obs.Sink.t;
  s_modules : (int, mod_entry) Hashtbl.t;
  mutable s_next_module : int;
  mutable s_jobs : int list;
  mutable s_last_active : float;  (** monotonic µs of the last request *)
}

type recovered = {
  r_job : int;
  r_session : int;
  r_tenant : string;
  r_label : string;
}

type t = {
  engine : Engine.t;
  queue : Queue.t;
  lock : Mutex.t;
  sessions : (int, session) Hashtbl.t;
  closed_tallies : (string, Obs.Metrics.t) Hashtbl.t;
      (** per-tenant archive of closed sessions' tallies, so [stats]
          attribution survives session close; LRU-bounded at
          [archive_cap] tenants and journalled for restart recovery *)
  archive_touch : (string, float) Hashtbl.t;  (** LRU clock per tenant *)
  archive_cap : int;
  session_ttl_s : float option;
      (** idle sessions older than this are reaped; [None] = never *)
  dedup : (string, float * J.t) Hashtbl.t;
      (** (tenant × idempotency key) → (birth µs, cached response) *)
  dedup_window_s : float;
  ckpt_dir : string;
  global_bytes : int;  (** per-session arena size *)
  mutable next_session : int;
  mutable next_job_dir : int;
  mutable reaped : int;
  mutable dedup_hits : int;
  mutable archive_evicted : int;
  mutable recovered : recovered list;
      (** jobs re-admitted from a dead predecessor's checkpoint root *)
  mutable stopping : bool;
}

(* All durable-state mutation below goes through Vekt_chaos.Io so the
   chaos engine can enumerate and crash-test every boundary; with the
   default implementation these are the plain syscalls they replace. *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Io.mkdir dir 0o755 with Unix.Unix_error _ -> () | Sys_error _ -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Io.rmdir path with Unix.Unix_error _ -> () | Sys_error _ -> ()
    end
    else try Io.remove path with Unix.Unix_error _ -> () | Sys_error _ -> ()

(* ---- tenant-tally journal (restart recovery of [stats]) ----

   One line of JSON per archived tenant, written with Metrics.to_json
   and read back with its inverse, Metrics.of_json. *)

let journal_path t = Filename.concat t.ckpt_dir "tenant-tallies.journal"

(* Caller holds t.lock.  The whole journal is rewritten (compacted)
   atomically on every archive merge: archives change rarely (session
   close / reap), and a crash mid-write must never corrupt the old
   journal. *)
let save_journal_locked t =
  let buf = Buffer.create 512 in
  Hashtbl.iter
    (fun tenant reg ->
      Buffer.add_string buf
        (J.to_line
           (J.Obj [ ("tenant", J.Str tenant); ("metrics", Obs.Metrics.to_json reg) ])))
    t.closed_tallies;
  try Io.save_atomic ~path:(journal_path t) (Buffer.contents buf)
  with Sys_error _ | Unix.Unix_error _ -> ()

let load_journal t =
  (* a predecessor may have died mid-save: its half-written temp file
     is a crash artifact, never a recovery source — sweep it *)
  let tmp = journal_path t ^ ".tmp" in
  if Sys.file_exists tmp then (
    try Io.remove tmp with Unix.Unix_error _ | Sys_error _ -> ());
  match In_channel.with_open_bin (journal_path t) In_channel.input_all with
  | exception Sys_error _ -> ()
  | data ->
      List.iter
        (fun line ->
          if String.trim line <> "" then
            match J.of_string line with
            | Error _ -> ()  (* torn line: drop it, keep the rest *)
            | Ok j -> (
                match (J.str_mem "tenant" j, J.mem "metrics" j) with
                | Some tenant, Some mj ->
                    Hashtbl.replace t.closed_tallies tenant (Obs.Metrics.of_json mj);
                    Hashtbl.replace t.archive_touch tenant (Clock.now_us ())
                | _ -> ()))
        (String.split_on_char '\n' data)

(* Caller holds t.lock.  Merge a closing session's tallies into its
   tenant's archive, bump the tenant's LRU clock, evict the coldest
   tenants beyond the cap, persist. *)
let archive_session_locked t (s : session) =
  let archive =
    match Hashtbl.find_opt t.closed_tallies s.s_tenant with
    | Some reg -> reg
    | None ->
        let reg = Obs.Metrics.create () in
        Hashtbl.replace t.closed_tallies s.s_tenant reg;
        reg
  in
  Obs.Metrics.merge_into ~into:archive s.s_reg;
  Hashtbl.replace t.archive_touch s.s_tenant (Clock.now_us ());
  let rec enforce_cap () =
    if Hashtbl.length t.closed_tallies > t.archive_cap then
      let victim =
        Hashtbl.fold
          (fun tenant _ acc ->
            let touch =
              Option.value (Hashtbl.find_opt t.archive_touch tenant) ~default:0.0
            in
            match acc with
            | Some (_, best) when best <= touch -> acc
            | _ -> Some (tenant, touch))
          t.closed_tallies None
      in
      match victim with
      | None -> ()
      | Some (tenant, _) ->
          Hashtbl.remove t.closed_tallies tenant;
          Hashtbl.remove t.archive_touch tenant;
          t.archive_evicted <- t.archive_evicted + 1;
          enforce_cap ()
  in
  enforce_cap ();
  save_journal_locked t

(* Fresh session.  Everything the scheduler domain will ever touch in
   the registry is pre-registered here — including the lazily-named
   server.* health counters the tally sink bumps — so scrape never
   races a Hashtbl insert (see the concurrency note above). *)
let new_session t tenant : session =
  let reg = Obs.Metrics.create () in
  ignore (Obs.Metrics.histogram reg "queue.wait_ms");
  ignore (Obs.Metrics.counter reg "launches");
  List.iter
    (fun a ->
      ignore (Obs.Metrics.counter reg ("server." ^ Obs.Event.server_action_name a)))
    [
      Obs.Event.Sv_shed;
      Obs.Event.Sv_deadline_kill;
      Obs.Event.Sv_expired;
      Obs.Event.Sv_reaped;
      Obs.Event.Sv_recovered;
    ];
  let sink = Obs.Tally.sink reg in
  let dev =
    Api.create_device ~engine:t.engine ~global_bytes:t.global_bytes ()
  in
  Mutex.lock t.lock;
  let id = t.next_session in
  t.next_session <- id + 1;
  let s =
    {
      s_id = id;
      s_tenant = tenant;
      s_dev = dev;
      s_reg = reg;
      s_sink = sink;
      s_modules = Hashtbl.create 4;
      s_next_module = 0;
      s_jobs = [];
      s_last_active = Clock.now_us ();
    }
  in
  Hashtbl.replace t.sessions id s;
  Mutex.unlock t.lock;
  s

(* A config arrives as a JSON object of knobs ({"mode":"static",
   "hot-threshold":2,...}); flatten to the string-keyed spec shared
   with the CLI so both paths go through Api.config_of_spec. *)
let config_spec_of_json req : (string * string) list =
  match J.obj_mem "config" req with
  | None -> []
  | Some kvs ->
      List.map
        (fun (k, v) ->
          let sv =
            match v with
            | J.Str s -> s
            | J.Int n -> string_of_int n
            | J.Float x -> Fmt.str "%g" x
            | J.Bool b -> string_of_bool b
            | J.Null | J.List _ | J.Obj _ ->
                P.bad "config key %S: want a scalar value" k
          in
          (k, sv))
        kvs

(* The queue-run closure shared by live submits and restart recovery.
   Snapshot-directory cleanup is NOT done here: the queue's terminal
   cleanup hook owns it, so preempted and crash-interrupted jobs keep
   their resume state on disk. *)
let launch_run (s : session) (m : Api.modul) ~kernel ~grid ~block ~args
    ~preemptible ~jdir ~resume ~preempt ~deadline_ms ~wait_us =
  Obs.Metrics.observe
    (Obs.Metrics.histogram s.s_reg "queue.wait_ms")
    (int_of_float (wait_us /. 1000.0));
  let preempt = if preemptible then Some preempt else None in
  let r =
    Api.launch ?preempt ?resume ?deadline_ms ~ckpt_dir:jdir ~sink:s.s_sink m
      ~kernel ~grid ~block ~args
  in
  Obs.Metrics.incr (Obs.Metrics.counter s.s_reg "launches");
  r

(* ---- job manifests (restart recovery of in-flight launches) ---- *)

let dim3_json (d : Vekt_ptx.Launch.dim3) =
  J.List [ J.Int d.Vekt_ptx.Launch.x; J.Int d.y; J.Int d.z ]

(* Written atomically and durably (tmp + fsync + rename + directory
   fsync) before the job is admitted, so a crash at any instant leaves
   either no manifest (job was never acknowledged) or a complete one —
   and a manifest that was acknowledged cannot be un-renamed by the
   crash.  The chaos engine drills every boundary of this sequence. *)
let write_manifest ~jdir (fields : (string * J.t) list) =
  mkdir_p jdir;
  Io.save_atomic
    ~path:(Filename.concat jdir "manifest.json")
    (J.to_string (J.Obj fields))

(* ---- the one admission path, shared by the handlers and recovery ---- *)

(* Load [req]'s "src" under its "config" into session [s]: the
   [load-module] handler, and restart recovery from a manifest, whose
   keys are the request's. *)
let add_module (s : session) req : int * mod_entry =
  let src = P.req_str req "src" in
  let spec = config_spec_of_json req in
  let config =
    match Api.config_of_spec spec with
    | Ok c -> c
    | Error msg -> raise (P.Bad_request msg)
  in
  let me =
    {
      me_mod = Api.load_module ~config ~sink:s.s_sink s.s_dev src;
      me_src = src;
      me_spec = spec;
    }
  in
  let id = s.s_next_module in
  s.s_next_module <- id + 1;
  Hashtbl.replace s.s_modules id me;
  (id, me)

(* Admit the launch [req] describes against module [me] of session
   [s]: resolve its argument specs in the session's arena and enqueue
   it; also returns the buffer addresses the client is told.  [req] is
   a [submit-launch] request, or a dead predecessor's manifest (same
   keys).  A fresh submit ([recover = None]) writes its manifest into a
   new job directory and must pass the queue's quota and shedding
   checks; a rejection raises the structured error and leaves no
   directory behind.  A recovered job ([recover = Some jdir])
   was admitted once already: its buffers are pinned at the addresses
   the client was told ("arg-addrs"), and it re-enters at the front of
   the queue from the newest snapshot in [jdir], whose global image
   overwrites the fresh arguments, or from scratch if there is none. *)
let admit t (s : session) (me : mod_entry) req ~recover : Queue.job * J.t =
  let kernel = P.req_str req "kernel" in
  let grid = P.req_dim3 req "grid" in
  let block = P.req_dim3 req "block" in
  let priority = Option.value (P.opt_int "priority" req) ~default:0 in
  let label = Option.value (P.opt_str "label" req) ~default:kernel in
  let preemptible = Option.value (P.opt_bool "preemptible" req) ~default:true in
  let deadline_ms = P.opt_int "deadline-ms" req in
  let specs =
    match J.list_mem "args" req with
    | None -> []
    | Some l ->
        List.map
          (function J.Str s -> s | _ -> P.bad "args: want spec strings")
          l
  in
  let pins =
    match (recover, J.list_mem "arg-addrs" req) with
    | Some _, Some l when List.length l = List.length specs ->
        List.map (function J.Int a -> Some a | _ -> None) l
    | _ -> List.map (fun _ -> None) specs
  in
  let parsed =
    List.map2
      (fun spec pin ->
        Option.iter (Api.reserve_to s.s_dev) pin;
        match Api.arg_of_spec s.s_dev spec with
        | Ok a -> a
        | Error msg -> raise (P.Bad_request msg))
      specs pins
  in
  let args = List.map (fun a -> a.Api.launch_arg) parsed in
  let addrs =
    J.List
      (List.map
         (fun a -> match a.Api.addr with None -> J.Null | Some n -> J.Int n)
         parsed)
  in
  let jdir =
    match recover with
    | Some jdir -> jdir
    | None ->
        Mutex.lock t.lock;
        let n = t.next_job_dir in
        t.next_job_dir <- n + 1;
        Mutex.unlock t.lock;
        Filename.concat t.ckpt_dir (Fmt.str "job-%d" n)
  in
  let run =
    launch_run s me.me_mod ~kernel ~grid ~block ~args ~preemptible ~jdir
  in
  let cleanup () = rm_rf jdir in
  let j =
    match recover with
    | Some _ ->
        Queue.readmit t.queue ~tenant:s.s_tenant ~label ~priority
          ~sink:s.s_sink
          ?resume:(Checkpoint.newest_snapshot ~dir:jdir)
          ~cleanup ~run ()
    | None -> (
        write_manifest ~jdir
          ([
             ("tenant", J.Str s.s_tenant);
             ("label", J.Str label);
             ("priority", J.Int priority);
             ("kernel", J.Str kernel);
             ("grid", dim3_json grid);
             ("block", dim3_json block);
             ("args", J.List (List.map (fun s -> J.Str s) specs));
             (* the addresses the client is told, parallel to [args]: a
                from-scratch recovery must re-pin them *)
             ("arg-addrs", addrs);
             ("src", J.Str me.me_src);
             ( "config",
               J.Obj (List.map (fun (k, v) -> (k, J.Str v)) me.me_spec) );
             ("preemptible", J.Bool preemptible);
           ]
          @
          match deadline_ms with
          | None -> []
          | Some ms -> [ ("deadline-ms", J.Int ms) ]);
        match
          Queue.submit t.queue ~tenant:s.s_tenant ~label ~priority
            ~sink:s.s_sink ?deadline_ms ~cleanup ~run ()
        with
        | Ok j -> j
        | Error e ->
            rm_rf jdir;
            raise (Vekt_error.Error e))
  in
  s.s_jobs <- j.Queue.id :: s.s_jobs;
  (j, addrs)

(* Re-admit one job directory left by a dead predecessor, in a fresh
   session for its original tenant.  A job that cannot be rebuilt (torn
   manifest, source that no longer parses) raises, and its session is
   dropped again. *)
let recover_one t ~jdir =
  let mj =
    match
      J.of_string
        (In_channel.with_open_bin (Filename.concat jdir "manifest.json")
           In_channel.input_all)
    with
    | Ok j -> j
    | Error msg -> failwith msg
  in
  let s = new_session t (P.req_str mj "tenant") in
  match admit t s (snd (add_module s mj)) mj ~recover:(Some jdir) with
  | exception e ->
      Mutex.lock t.lock;
      Hashtbl.remove t.sessions s.s_id;
      Mutex.unlock t.lock;
      raise e
  | j, _ ->
      Queue.emit_health s.s_sink ~tenant:s.s_tenant
        ~action:Obs.Event.Sv_recovered
        ~detail:
          (Fmt.str "job %d (%s) from %s" j.Queue.id j.Queue.label
             (Option.value j.Queue.resume_path ~default:"scratch"));
      t.recovered <-
        { r_job = j.Queue.id; r_session = s.s_id; r_tenant = s.s_tenant;
          r_label = j.Queue.label }
        :: t.recovered

(* Rescan the checkpoint root for a dead predecessor's job directories
   and re-admit each, newest submission first: each goes to the front
   of its tenant's queue, so the oldest ends up at the head and the
   original order within a tenant is preserved.  A directory that fails
   to recover — torn manifest, source that no longer parses — is
   skipped and left on disk for post-mortem rather than failing daemon
   startup. *)
let recover_jobs t =
  let entries = try Sys.readdir t.ckpt_dir with Sys_error _ -> [||] in
  let jobdirs =
    Array.to_list entries
    |> List.filter_map (fun name ->
           match String.length name > 4 && String.sub name 0 4 = "job-" with
           | false -> None
           | true -> (
               let path = Filename.concat t.ckpt_dir name in
               match
                 ( int_of_string_opt
                     (String.sub name 4 (String.length name - 4)),
                   Sys.is_directory path )
               with
               | Some n, true -> Some (n, path)
               | _ -> None))
    |> List.sort (fun a b -> compare b a)
  in
  t.next_job_dir <-
    List.fold_left (fun acc (n, _) -> max acc (n + 1)) t.next_job_dir jobdirs;
  List.iter
    (fun (_, jdir) ->
      if Sys.file_exists (Filename.concat jdir "manifest.json") then
        try recover_one t ~jdir
        with _ -> ()
      else
        (* snapshots but no manifest: a pre-manifest leftover; not
           reconstructible, so sweep it *)
        rm_rf jdir)
    jobdirs

let create ?engine ?(quota = 16) ?(weight = 1)
    ?(global_bytes = 64 * 1024 * 1024) ?(ckpt_dir = "vekt-serve-ckpt")
    ?(high_watermark = 64) ?(low_watermark = 48) ?session_ttl_s
    ?(archive_cap = 64) ?(dedup_window_s = 300.0) () : t =
  let engine =
    match engine with Some e -> e | None -> Engine.create ()
  in
  mkdir_p ckpt_dir;
  let t =
    {
      engine;
      queue = Queue.create ~quota ~weight ~high_watermark ~low_watermark ();
      lock = Mutex.create ();
      sessions = Hashtbl.create 8;
      closed_tallies = Hashtbl.create 8;
      archive_touch = Hashtbl.create 8;
      archive_cap = max 1 archive_cap;
      session_ttl_s;
      dedup = Hashtbl.create 8;
      dedup_window_s;
      ckpt_dir;
      global_bytes;
      next_session = 0;
      next_job_dir = 0;
      reaped = 0;
      dedup_hits = 0;
      archive_evicted = 0;
      recovered = [];
      stopping = false;
    }
  in
  load_journal t;
  recover_jobs t;
  t

let queue t = t.queue
let engine t = t.engine
let stopping t = t.stopping
let recovered t = List.rev t.recovered

(** Live bytes across every open session's arena — the number reaping
    must return to baseline when abandoned sessions are swept. *)
let total_allocated_bytes t =
  Mutex.lock t.lock;
  let n =
    Hashtbl.fold (fun _ s acc -> acc + Api.allocated_bytes s.s_dev) t.sessions 0
  in
  Mutex.unlock t.lock;
  n

(* ---- request handlers (each may raise P.Bad_request / Vekt_error) ---- *)

let session_of t req : session =
  let id = P.req_int req "session" in
  Mutex.lock t.lock;
  let s = Hashtbl.find_opt t.sessions id in
  Mutex.unlock t.lock;
  match s with
  | Some s ->
      s.s_last_active <- Clock.now_us ();
      s
  | None -> P.bad "unknown session %d" id

let module_of s req : mod_entry =
  let id = P.req_int req "module" in
  match Hashtbl.find_opt s.s_modules id with
  | Some m -> m
  | None -> P.bad "unknown module %d in session %d" id s.s_id

let open_session t req : J.t =
  let tenant = P.req_str req "tenant" in
  (match
     (P.opt_int "weight" req, P.opt_int "quota" req, P.opt_int "deadline-ms" req)
   with
  | None, None, None -> ()
  | weight, quota, deadline_ms ->
      Queue.set_tenant t.queue ~name:tenant ?weight ?quota ?deadline_ms ());
  let s = new_session t tenant in
  P.ok [ ("session", J.Int s.s_id); ("tenant", J.Str tenant) ]

let close_session t req : J.t =
  let s = session_of t req in
  List.iter (fun id -> ignore (Queue.cancel t.queue ~id)) s.s_jobs;
  Mutex.lock t.lock;
  Hashtbl.remove t.sessions s.s_id;
  archive_session_locked t s;
  Mutex.unlock t.lock;
  P.ok []

let load_module t req : J.t =
  let s = session_of t req in
  let id, _ = add_module s req in
  P.ok [ ("module", J.Int id) ]

let malloc t req : J.t =
  let s = session_of t req in
  let bytes = P.req_int req "bytes" in
  let addr = Api.malloc s.s_dev bytes in
  P.ok [ ("addr", J.Int addr) ]

let free t req : J.t =
  let s = session_of t req in
  Api.free s.s_dev (P.req_int req "addr");
  P.ok []

let reset_arena t req : J.t =
  let s = session_of t req in
  Api.reset_arena s.s_dev;
  P.ok []

let float_of_json k = function
  | J.Int n -> float_of_int n
  | J.Float x -> x
  | _ -> P.bad "field %S: want numbers" k

let write t req : J.t =
  let s = session_of t req in
  let addr = P.req_int req "addr" in
  (match (J.list_mem "f32s" req, J.list_mem "i32s" req) with
  | Some xs, _ -> Api.write_f32s s.s_dev addr (List.map (float_of_json "f32s") xs)
  | None, Some xs ->
      Api.write_i32s s.s_dev addr
        (List.map
           (function
             | J.Int n -> n | _ -> P.bad "field \"i32s\": want integers")
           xs)
  | None, None -> P.bad "write: want \"f32s\" or \"i32s\"");
  P.ok []

let read t req : J.t =
  let s = session_of t req in
  let addr = P.req_int req "addr" in
  let count = P.req_int req "count" in
  if count < 0 || count > 1 lsl 24 then P.bad "read: unreasonable count %d" count;
  let values =
    match P.req_str req "ty" with
    | "f32" -> List.map (fun x -> J.Float x) (Api.read_f32s s.s_dev addr count)
    | "i32" ->
        List.map (fun x -> J.Int x) (Api.read_i32s s.s_dev addr count)
    | ty -> P.bad "read: unknown type %S" ty
  in
  P.ok [ ("values", J.List values) ]

(* ---- idempotent retries ----

   A client retrying after an [Overloaded] response (or a dropped
   connection) must not double-launch work its first attempt actually
   admitted.  Submits may carry an ["idempotency-key"]; the first
   successful admission per (tenant, key) is cached for
   [dedup_window_s] and replayed verbatim on retries.  Failures are
   not cached — a retry after a shed should get a fresh admission
   attempt. *)

let dedup_key (s : session) key = s.s_tenant ^ "\x1f" ^ key

let dedup_find t s key : J.t option =
  let k = dedup_key s key in
  Mutex.lock t.lock;
  let hit =
    match Hashtbl.find_opt t.dedup k with
    | Some (born, resp) when Clock.now_us () -. born <= t.dedup_window_s *. 1e6
      ->
        t.dedup_hits <- t.dedup_hits + 1;
        Some resp
    | _ -> None
  in
  Mutex.unlock t.lock;
  hit

let dedup_store t s key (resp : J.t) =
  if J.bool_mem "ok" resp = Some true then begin
    Mutex.lock t.lock;
    if Hashtbl.length t.dedup > 1024 then begin
      let now = Clock.now_us () in
      let stale =
        Hashtbl.fold
          (fun k (born, _) acc ->
            if now -. born > t.dedup_window_s *. 1e6 then k :: acc else acc)
          t.dedup []
      in
      List.iter (Hashtbl.remove t.dedup) stale
    end;
    Hashtbl.replace t.dedup (dedup_key s key) (Clock.now_us (), resp);
    Mutex.unlock t.lock
  end

let do_submit_launch t (s : session) req : J.t =
  let j, addrs = admit t s (module_of s req) req ~recover:None in
  P.ok [ ("job", J.Int j.Queue.id); ("args", addrs) ]

let submit_launch t req : J.t =
  let s = session_of t req in
  match P.opt_str "idempotency-key" req with
  | None -> do_submit_launch t s req
  | Some key -> (
      match dedup_find t s key with
      | Some resp -> resp
      | None ->
          let resp = do_submit_launch t s req in
          dedup_store t s key resp;
          resp)

let poll t req : J.t =
  let id = P.req_int req "job" in
  match Queue.info t.queue ~id with
  | None -> P.bad "unknown job %d" id
  | Some i ->
      let base =
        [
          ("job", J.Int i.Queue.i_id);
          ("state", J.Str (Queue.state_name i.Queue.i_state));
          ("tenant", J.Str i.Queue.i_tenant);
          ("wait_us", J.Float i.Queue.i_wait_us);
          ("preemptions", J.Int i.Queue.i_preemptions);
        ]
      in
      let extra =
        match i.Queue.i_state with
        | Queue.Done (Queue.Finished r) -> [ ("result", P.report_json r) ]
        | Queue.Done (Queue.Failed e) ->
            [
              ( "error",
                J.Obj
                  ([
                     ("kind", J.Str (Vekt_error.kind_name e));
                     ("message", J.Str (Vekt_error.to_string e));
                   ]
                  @ P.error_extras e) );
            ]
        | _ -> []
      in
      P.ok (base @ extra)

let cancel t req : J.t =
  let id = P.req_int req "job" in
  P.ok [ ("cancelled", J.Bool (Queue.cancel t.queue ~id)) ]

(* ---- dead-tenant reaping ---- *)

let job_terminal t id =
  match Queue.info t.queue ~id with
  | None -> true
  | Some i -> (
      match i.Queue.i_state with
      | Queue.Done _ | Queue.Cancelled -> true
      | Queue.Queued | Queue.Running | Queue.Preempted -> false)

(** Close sessions whose client has been silent past the TTL and whose
    jobs are all terminal (a session with work in flight is not dead,
    however silent).  Goes through the same archive path as
    [close-session] — tallies merged, journal saved — plus
    {!Api.reset_arena} so the arena bytes actually return to the pool.
    Returns how many sessions were reaped; called on the serve loop's
    tick cadence and directly by tests. *)
let reap_idle t : int =
  match t.session_ttl_s with
  | None -> 0
  | Some ttl ->
      let now = Clock.now_us () in
      Mutex.lock t.lock;
      let idle =
        Hashtbl.fold
          (fun _ s acc ->
            if now -. s.s_last_active > ttl *. 1e6 then s :: acc else acc)
          t.sessions []
      in
      Mutex.unlock t.lock;
      let n = ref 0 in
      List.iter
        (fun s ->
          if List.for_all (job_terminal t) s.s_jobs then begin
            incr n;
            (* on the session's own sink *before* archiving, so the
               server.reaped tally lands in the tenant's archive *)
            Queue.emit_health s.s_sink ~tenant:s.s_tenant
              ~action:Obs.Event.Sv_reaped
              ~detail:(Fmt.str "session %d idle" s.s_id);
            Api.reset_arena s.s_dev;
            Mutex.lock t.lock;
            Hashtbl.remove t.sessions s.s_id;
            archive_session_locked t s;
            t.reaped <- t.reaped + 1;
            Mutex.unlock t.lock
          end)
        idle;
      !n

(* stats: engine-wide counters plus per-tenant views.  Each tenant's
   object is the merge of its sessions' tally registries (jit.*,
   fallback.*, ckpt.*, server.*, queue.wait_ms, launches) — so cache
   hits and fallbacks are attributed to the tenant whose launch
   produced them even though the caches themselves are shared. *)
let stats t : J.t =
  let reg = Obs.Metrics.create () in
  Engine.metrics_into t.engine reg;
  Queue.metrics_into t.queue reg;
  let module M = Obs.Metrics in
  M.counter reg "server.reaped" := t.reaped;
  M.counter reg "server.recovered_launches" := List.length t.recovered;
  M.counter reg "server.dedup_hits" := t.dedup_hits;
  M.counter reg "server.archive_evicted" := t.archive_evicted;
  M.set (M.gauge reg "server.allocated_bytes")
    (float_of_int (total_allocated_bytes t));
  Mutex.lock t.lock;
  M.set (M.gauge reg "server.sessions_open")
    (float_of_int (Hashtbl.length t.sessions));
  let by_tenant = Hashtbl.create 4 in
  Hashtbl.iter
    (fun _ s ->
      let prev =
        Option.value (Hashtbl.find_opt by_tenant s.s_tenant) ~default:[]
      in
      Hashtbl.replace by_tenant s.s_tenant (s :: prev))
    t.sessions;
  (* tenants whose sessions have all closed still appear, from the archive *)
  Hashtbl.iter
    (fun tenant _ ->
      if not (Hashtbl.mem by_tenant tenant) then
        Hashtbl.replace by_tenant tenant [])
    t.closed_tallies;
  Mutex.unlock t.lock;
  let tstats = Queue.tenant_stats t.queue in
  let tenants =
    Hashtbl.fold
      (fun tenant sessions acc ->
        let merged = Obs.Metrics.create () in
        (match Hashtbl.find_opt t.closed_tallies tenant with
        | Some archive -> Obs.Metrics.merge_into ~into:merged archive
        | None -> ());
        List.iter (fun s -> Obs.Metrics.merge_into ~into:merged s.s_reg) sessions;
        let extra =
          match List.assoc_opt tenant tstats with
          | None -> []
          | Some (weight, quota, active) ->
              [
                ("weight", J.Int weight);
                ("quota", J.Int quota);
                ("active_jobs", J.Int active);
              ]
        in
        ( tenant,
          J.Obj
            (("sessions", J.Int (List.length sessions))
            :: extra
            @ [ ("metrics", Obs.Metrics.to_json merged) ]) )
        :: acc)
      by_tenant []
    |> List.sort compare
  in
  P.ok
    [
      ("engine", Obs.Metrics.to_json reg);
      ("tenants", J.Obj tenants);
      ( "recovered",
        J.List
          (List.rev_map
             (fun r ->
               J.Obj
                 [
                   ("job", J.Int r.r_job);
                   ("session", J.Int r.r_session);
                   ("tenant", J.Str r.r_tenant);
                   ("label", J.Str r.r_label);
                 ])
             t.recovered) );
    ]

(** Map one request to one response.  Total: malformed or failing
    requests produce [ok:false] responses, never exceptions. *)
let handle t (req : J.t) : J.t =
  match
    match J.str_mem "cmd" req with
    | None -> P.bad_request "missing \"cmd\""
    | Some cmd -> (
        match cmd with
        | "ping" -> P.ok [ ("version", J.Int P.version) ]
        | "open-session" -> open_session t req
        | "close-session" -> close_session t req
        | "load-module" -> load_module t req
        | "malloc" -> malloc t req
        | "free" -> free t req
        | "reset-arena" -> reset_arena t req
        | "write" -> write t req
        | "read" -> read t req
        | "submit-launch" -> submit_launch t req
        | "poll" -> poll t req
        | "cancel" -> cancel t req
        | "stats" -> stats t
        | "shutdown" ->
            t.stopping <- true;
            P.ok []
        | cmd -> P.bad_request (Fmt.str "unknown command %S" cmd))
  with
  | resp -> resp
  | exception P.Bad_request msg -> P.bad_request msg
  | exception Vekt_error.Error e -> P.error_json e
  | exception (Invalid_argument msg | Failure msg) -> P.bad_request msg

let handle_line t (line : string) : string =
  let resp =
    match J.of_string line with
    | Error msg -> P.bad_request (Fmt.str "parse error: %s" msg)
    | Ok req -> handle t req
  in
  J.to_line resp

(* ---- transport: line-delimited JSON over a Unix-domain socket ---- *)

type client = {
  c_fd : Unix.file_descr;
  mutable c_acc : string;
  mutable c_line_start : float option;
      (* monotonic µs when the current (incomplete) line started; not
         refreshed on new bytes, so a one-byte-per-poll trickler hits
         the read deadline just like a fully stalled client *)
}

(* Retries before a stalled peer is declared dead.  Each retry waits
   for writability (below), so this bounds patience, not CPU. *)
let max_write_stalls = 8

(** Put the whole response on the wire.  A bare [write] is wrong on
    every axis a real socket exposes: partial writes (we loop), EINTR
    (retry), EAGAIN/EWOULDBLOCK or a zero-length write from a stalled
    reader (wait for writability and retry, a bounded number of
    times).  EPIPE and a peer that stays stalled past the retry budget
    still raise — the {e caller} owns the connection and drops it
    cleanly; the accept loop never dies for one broken client.  The
    send itself goes through {!Vekt_chaos.Io} so the chaos engine can
    drill mid-response socket failures. *)
let write_all fd s =
  let n = String.length s in
  let wait_writable () =
    match Unix.select [] [ fd ] [] 0.25 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec go off stalls =
    if off < n then
      if stalls > max_write_stalls then
        raise (Unix.Unix_error (Unix.EAGAIN, "write_all", "peer stalled"))
      else
        match Io.send fd s off (n - off) with
        | 0 ->
            wait_writable ();
            go off (stalls + 1)
        | written -> go (off + written) 0
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off stalls
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            wait_writable ();
            go off (stalls + 1)
  in
  go 0 0

(* Peel complete lines off a client's accumulation buffer, answer each. *)
let drain_client t (c : client) =
  let rec go () =
    match String.index_opt c.c_acc '\n' with
    | None -> ()
    | Some i ->
        let line = String.sub c.c_acc 0 i in
        c.c_acc <-
          String.sub c.c_acc (i + 1) (String.length c.c_acc - i - 1);
        if String.trim line <> "" then write_all c.c_fd (handle_line t line);
        go ()
  in
  go ();
  if c.c_acc = "" then c.c_line_start <- None
  else if c.c_line_start = None then c.c_line_start <- Some (Clock.now_us ())

(** Ask the serve loop (and scheduler) to wind down: cancel every live
    job so the scheduler domain reaches a safe point promptly, then
    stop the queue. *)
let initiate_shutdown t =
  t.stopping <- true;
  Queue.cancel_all t.queue;
  Queue.shutdown t.queue

(** Clean shutdown is decommission: stop the queue and sweep the
    checkpoint root, journal included — persistence is for crashes
    only.  Idempotent.  [serve] ends with this; the chaos harness
    calls it directly after driving a recovery to completion, and then
    checks that nothing of the state directory remains. *)
let decommission t =
  initiate_shutdown t;
  rm_rf t.ckpt_dir

(* A left-over socket path from a crashed predecessor must not block
   startup — but a live daemon behind it must.  Probe by connecting:
   refused/failed means dead (unlink and claim), accepted means a live
   daemon owns it. *)
let claim_socket socket =
  if Sys.file_exists socket then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if live then
      failwith (Fmt.str "socket %s is served by a live daemon" socket);
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  end

(** Run the daemon on [socket] until SIGTERM/SIGINT or a [shutdown]
    request.  [read_deadline_s] bounds how long a client may sit on an
    incomplete request line (and, via [SO_SNDTIMEO], how long a write
    to a stalled reader may block) before the connection is dropped —
    one slow client must not wedge the accept loop for everyone else.
    Cleans up on exit: scheduler domain joined, client and listen
    sockets closed, socket path unlinked, checkpoint root (journal
    included) swept — clean shutdown is decommission; persistence is
    for crashes. *)
let serve t ?(read_deadline_s = 10.0) ~socket () =
  claim_socket socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 16;
  let sched = Domain.spawn (fun () -> Queue.worker_loop t.queue) in
  let stop = ref false in
  let on_signal _ = stop := true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  (* a peer that hangs up between select and our write must surface as
     EPIPE on that one connection, not as a process-killing SIGPIPE *)
  let prev_pipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 8 in
  let close_client fd =
    Hashtbl.remove clients fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let buf = Bytes.create 65536 in
  while not (!stop || t.stopping) do
    let fds =
      listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []
    in
    (match Unix.select fds [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listen_fd then begin
              match Unix.accept listen_fd with
              | cfd, _ ->
                  (try Unix.setsockopt_float cfd Unix.SO_SNDTIMEO read_deadline_s
                   with Unix.Unix_error _ | Invalid_argument _ -> ());
                  Hashtbl.replace clients cfd
                    { c_fd = cfd; c_acc = ""; c_line_start = None }
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Hashtbl.find_opt clients fd with
              | None -> ()
              | Some c -> (
                  match Unix.read fd buf 0 (Bytes.length buf) with
                  | 0 -> close_client fd
                  | n ->
                      c.c_acc <- c.c_acc ^ Bytes.sub_string buf 0 n;
                      if String.length c.c_acc > J.max_input then begin
                        (* an endless line: answer once, hang up *)
                        (try
                           write_all c.c_fd
                             (J.to_line (P.bad_request "request line too long"))
                         with Unix.Unix_error _ -> ());
                        close_client fd
                      end
                      else begin
                        try drain_client t c
                        with Unix.Unix_error _ -> close_client fd
                      end
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                  | exception Unix.Unix_error _ -> close_client fd))
          readable);
    (* tick work, on the select cadence: expire queued jobs whose
       deadline lapsed, reap idle sessions, cut off stalled clients *)
    ignore (Queue.tick t.queue);
    ignore (reap_idle t);
    let now = Clock.now_us () in
    let stalled =
      Hashtbl.fold
        (fun fd c acc ->
          match c.c_line_start with
          | Some t0 when now -. t0 > read_deadline_s *. 1e6 -> fd :: acc
          | _ -> acc)
        clients []
    in
    List.iter close_client stalled
  done;
  initiate_shutdown t;
  Domain.join sched;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
    clients;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  (match prev_pipe with
  | Some prev -> ( try Sys.set_signal Sys.sigpipe prev with _ -> ())
  | None -> ());
  (* checkpoint root drained: no orphaned job snapshots survive *)
  decommission t
