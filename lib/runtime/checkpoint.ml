(** Checkpoint/restore of in-flight kernel launches (DESIGN.md §3.5).

    The paper's yield-on-diverge machinery makes a launch serializable
    for free: whenever control returns to the execution manager, every
    live register value has been spilled to the thread's local-memory
    slot by the subkernel's exit handler, and each thread context holds
    the entry-point id it resumes at.  At the top of the scheduling loop
    — the {e safe point} — no warp is executing, so the manager's entire
    state is a handful of arrays and memory images.  This module defines
    that snapshot, its versioned binary serialization with an integrity
    checksum, and the checkpoint policy ({!ctx}) the worker pool drives.

    A snapshot captures, per launch: the global-memory image (trimmed to
    the allocator watermark) and parameter block; per worker, its next
    CTA, accumulated {!Stats.t} and — for the worker interrupted
    mid-CTA — the CTA's thread contexts (resume entry ids + scheduler
    states), shared/local memory images, round-robin cursor, fuel
    consumed and watchdog stall counters; the fault injector's RNG word
    and counters; and the translation cache's hotness/quarantine
    metadata so a resumed launch recompiles each key at the tier it had
    reached (no repeated tier-0 warmup, identical promotion decisions).

    Serialization is little-endian with an MD5 digest over the payload,
    and each snapshot frames itself (magic, version, digest, length), so
    a launch keeps all its snapshots in one append-only log,
    [<dir>/<kernel>.ckpt].  {!of_bytes} rejects truncation, corruption,
    or version skew with a structured {!Vekt_error.Checkpoint} — never a
    crash; {!read} returns the log's newest record that validates. *)

module Interp = Vekt_vm.Interp
module Io = Vekt_chaos.Io
open Vekt_ptx

(* ---- snapshot data model ---- *)

type thread_snap = {
  t_resume : int;  (** entry-point id the thread resumes at *)
  t_state : Scheduler.tstate;
}

(** One CTA interrupted at a safe point: everything {!Exec_manager.run_cta}
    owns between two scheduler iterations. *)
type cta_snap = {
  c_ctaid : Launch.dim3;
  c_shared : Bytes.t;  (** CTA shared-memory image *)
  c_local : Bytes.t;  (** local arena image (spilled registers live here) *)
  c_threads : thread_snap array;
  c_cursor : int;  (** round-robin scheduler cursor *)
  c_remaining : int;  (** threads not yet exited *)
  c_calls_used : int;  (** subkernel calls consumed from the fuel budget *)
  c_stalls : int array;  (** livelock-watchdog counters; [[||]] if unarmed *)
}

type worker_snap = {
  w_next_cta : int;
      (** the in-flight CTA's linear index when [w_inflight] is [Some],
          otherwise the next linear CTA this worker would start *)
  w_stats : Stats.t;  (** statistics accumulated up to the safe point *)
  w_inflight : cta_snap option;
}

type t = {
  kernel : string;
  grid : Launch.dim3;
  block : Launch.dim3;
  workers : int;  (** modelled partition width the snapshot assumes *)
  seq : int;  (** monotone sequence number within the launch *)
  global_size : int;  (** full global segment size, for validation *)
  global_image : Bytes.t;  (** live prefix (allocator watermark) *)
  params_image : Bytes.t;
  worker_snaps : worker_snap array;
  fault_state : int array option;  (** {!Fault.export_state}, when armed *)
  hotness : (int * string * int) list;  (** cache hotness: ws, digest, queries *)
  quarantine : (int * string * int) list;  (** active quarantine TTLs *)
}

(* ---- structured rejection ---- *)

let corrupt ~path reason =
  raise (Vekt_error.Error (Vekt_error.Checkpoint { path; what = "checkpoint"; reason }))

(* ---- binary serialization (version 1, little-endian) ---- *)

let magic = "VEKTCKPT"
let version = 1

(* Header: magic (8) + version (4) + MD5 of payload (16) + payload
   length (8) = 36 bytes, then the payload. *)
let header_bytes = 36

let put_i64 b n = Buffer.add_int64_le b (Int64.of_int n)
let put_f64 b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let put_bytes b (s : Bytes.t) =
  put_i64 b (Bytes.length s);
  Buffer.add_bytes b s

let put_str b s =
  put_i64 b (String.length s);
  Buffer.add_string b s

let put_dim3 b (d : Launch.dim3) =
  put_i64 b d.Launch.x;
  put_i64 b d.Launch.y;
  put_i64 b d.Launch.z

let put_opt put b = function
  | None -> put_i64 b 0
  | Some v ->
      put_i64 b 1;
      put b v

let tstate_code = function
  | Scheduler.Ready -> 0
  | Scheduler.Blocked -> 1
  | Scheduler.Done -> 2

(* Stats serialize through the {!Interp} counter field tables, so a new
   counter added there is picked up here without touching this file.
   The warp histogram is sorted for a canonical byte stream. *)
let put_stats b (s : Stats.t) =
  List.iter
    (fun (_, get, _) -> put_i64 b (get s.Stats.counters))
    Interp.int_counter_fields;
  List.iter
    (fun (_, get, _) -> put_f64 b (get s.Stats.counters))
    Interp.cycle_counter_fields;
  put_f64 b s.Stats.em_cycles;
  put_i64 b s.Stats.barrier_releases;
  put_i64 b s.Stats.threads_launched;
  put_f64 b s.Stats.wall_cycles;
  let hist = Stats.warp_histogram s in
  put_i64 b (List.length hist);
  List.iter
    (fun (ws, c) ->
      put_i64 b ws;
      put_i64 b c)
    hist

let put_cta b (c : cta_snap) =
  put_dim3 b c.c_ctaid;
  put_bytes b c.c_shared;
  put_bytes b c.c_local;
  put_i64 b (Array.length c.c_threads);
  Array.iter
    (fun th ->
      put_i64 b th.t_resume;
      put_i64 b (tstate_code th.t_state))
    c.c_threads;
  put_i64 b c.c_cursor;
  put_i64 b c.c_remaining;
  put_i64 b c.c_calls_used;
  put_i64 b (Array.length c.c_stalls);
  Array.iter (put_i64 b) c.c_stalls

let put_meta b (entries : (int * string * int) list) =
  put_i64 b (List.length entries);
  List.iter
    (fun (ws, digest, v) ->
      put_i64 b ws;
      put_str b digest;
      put_i64 b v)
    entries

let encode (t : t) : Bytes.t =
  let b = Buffer.create 4096 in
  put_str b t.kernel;
  put_dim3 b t.grid;
  put_dim3 b t.block;
  put_i64 b t.workers;
  put_i64 b t.seq;
  put_i64 b t.global_size;
  put_bytes b t.global_image;
  put_bytes b t.params_image;
  put_i64 b (Array.length t.worker_snaps);
  Array.iter
    (fun w ->
      put_i64 b w.w_next_cta;
      put_stats b w.w_stats;
      put_opt put_cta b w.w_inflight)
    t.worker_snaps;
  put_opt
    (fun b a ->
      put_i64 b (Array.length a);
      Array.iter (put_i64 b) a)
    b t.fault_state;
  put_meta b t.hotness;
  put_meta b t.quarantine;
  Buffer.to_bytes b

let to_bytes (t : t) : Bytes.t =
  let payload = encode t in
  let b = Buffer.create (header_bytes + Bytes.length payload) in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int version);
  Buffer.add_string b (Digest.bytes payload);
  Buffer.add_int64_le b (Int64.of_int (Bytes.length payload));
  Buffer.add_bytes b payload;
  Buffer.to_bytes b

(* ---- deserialization ---- *)

type reader = { data : Bytes.t; mutable pos : int; path : string }

let need r n =
  if n < 0 || r.pos + n > Bytes.length r.data then
    corrupt ~path:r.path "truncated payload"

let get_i64 r =
  need r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  Int64.to_int v

let get_f64 r =
  need r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits v

let get_len r what =
  let n = get_i64 r in
  if n < 0 then corrupt ~path:r.path (Fmt.str "negative %s length" what);
  n

let get_bytes r =
  let n = get_len r "bytes" in
  need r n;
  let s = Bytes.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_str r = Bytes.to_string (get_bytes r)

let get_dim3 r =
  let x = get_i64 r in
  let y = get_i64 r in
  let z = get_i64 r in
  { Launch.x; y; z }

let get_opt get r =
  match get_i64 r with
  | 0 -> None
  | 1 -> Some (get r)
  | n -> corrupt ~path:r.path (Fmt.str "bad option tag %d" n)

let get_tstate r =
  match get_i64 r with
  | 0 -> Scheduler.Ready
  | 1 -> Scheduler.Blocked
  | 2 -> Scheduler.Done
  | n -> corrupt ~path:r.path (Fmt.str "bad thread-state code %d" n)

let get_stats r : Stats.t =
  let s = Stats.create () in
  List.iter
    (fun (_, _, set) -> set s.Stats.counters (get_i64 r))
    Interp.int_counter_fields;
  List.iter
    (fun (_, _, set) -> set s.Stats.counters (get_f64 r))
    Interp.cycle_counter_fields;
  s.Stats.em_cycles <- get_f64 r;
  s.Stats.barrier_releases <- get_i64 r;
  s.Stats.threads_launched <- get_i64 r;
  s.Stats.wall_cycles <- get_f64 r;
  let nhist = get_len r "warp-histogram" in
  for _ = 1 to nhist do
    let ws = get_i64 r in
    let c = get_i64 r in
    if ws < 1 || ws > Interp.max_lanes then
      corrupt ~path:r.path (Fmt.str "warp width %d outside 1..%d" ws Interp.max_lanes);
    if c < 0 then corrupt ~path:r.path (Fmt.str "negative warp count %d" c);
    Stats.add_warps s ws c
  done;
  s

let get_cta r : cta_snap =
  let c_ctaid = get_dim3 r in
  let c_shared = get_bytes r in
  let c_local = get_bytes r in
  let nthreads = get_len r "thread array" in
  let c_threads =
    Array.init nthreads (fun _ ->
        let t_resume = get_i64 r in
        let t_state = get_tstate r in
        { t_resume; t_state })
  in
  let c_cursor = get_i64 r in
  let c_remaining = get_i64 r in
  let c_calls_used = get_i64 r in
  let nstalls = get_len r "stall array" in
  let c_stalls = Array.init nstalls (fun _ -> get_i64 r) in
  { c_ctaid; c_shared; c_local; c_threads; c_cursor; c_remaining; c_calls_used;
    c_stalls }

let get_meta r =
  let n = get_len r "metadata list" in
  List.init n (fun _ ->
      let ws = get_i64 r in
      let digest = get_str r in
      let v = get_i64 r in
      (ws, digest, v))

let decode r : t =
  let kernel = get_str r in
  let grid = get_dim3 r in
  let block = get_dim3 r in
  let workers = get_i64 r in
  let seq = get_i64 r in
  let global_size = get_i64 r in
  let global_image = get_bytes r in
  let params_image = get_bytes r in
  let nworkers = get_len r "worker array" in
  let worker_snaps =
    Array.init nworkers (fun _ ->
        let w_next_cta = get_i64 r in
        let w_stats = get_stats r in
        let w_inflight = get_opt get_cta r in
        { w_next_cta; w_stats; w_inflight })
  in
  let fault_state =
    get_opt
      (fun r ->
        let n = get_len r "fault-state array" in
        Array.init n (fun _ -> get_i64 r))
      r
  in
  let hotness = get_meta r in
  let quarantine = get_meta r in
  { kernel; grid; block; workers; seq; global_size; global_image; params_image;
    worker_snaps; fault_state; hotness; quarantine }

(* The frame of the record at [off]: magic, version, and a payload
   length that fits in [data]; returns the payload length. *)
let frame ~path (data : Bytes.t) off =
  if Bytes.length data - off < header_bytes then corrupt ~path "truncated header";
  if Bytes.sub_string data off 8 <> magic then corrupt ~path "bad magic";
  let v = Int32.to_int (Bytes.get_int32_le data (off + 8)) in
  if v <> version then
    corrupt ~path (Fmt.str "unsupported snapshot version %d (want %d)" v version);
  let plen = Int64.to_int (Bytes.get_int64_le data (off + 28)) in
  if plen < 0 || plen > Bytes.length data - off - header_bytes then
    corrupt ~path "truncated payload";
  plen

(* Check the digest of the framed record at [off] and decode it. *)
let payload ~path (data : Bytes.t) off plen =
  let start = off + header_bytes in
  if Digest.subbytes data start plen <> Bytes.sub_string data (off + 12) 16 then
    corrupt ~path "integrity checksum mismatch";
  let r = { data = Bytes.sub data start plen; pos = 0; path } in
  let t = decode r in
  if r.pos <> plen then corrupt ~path "trailing bytes in payload";
  t

(** Decode one serialized snapshot, validating the magic, version,
    length and MD5 integrity digest; every defect, and any byte past
    the record, raises a structured {!Vekt_error.Checkpoint} naming
    [path]. *)
let of_bytes ~path (data : Bytes.t) : t =
  let plen = frame ~path data 0 in
  if header_bytes + plen < Bytes.length data then
    corrupt ~path "trailing bytes after payload";
  payload ~path data 0 plen

(** Read a snapshot log and return its newest record that validates.
    Records are walked in file order; one that fails its digest is
    skipped, and a broken frame ends the walk, since nothing after it
    can be located.  A crash mid-append damages only the tail, so the
    record before it is returned.  With no valid record, raises the
    structured {!Vekt_error.Checkpoint} of the first defect met. *)
let read (path : string) : t =
  let data =
    try Bytes.unsafe_of_string (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg -> corrupt ~path msg
  in
  let newest = ref None and first_err = ref None in
  let note e = if Option.is_none !first_err then first_err := Some e in
  let rec scan off =
    match frame ~path data off with
    | exception (Vekt_error.Error _ as e) -> note e
    | plen ->
        (match payload ~path data off plen with
        | t -> newest := Some t
        | exception (Vekt_error.Error _ as e) -> note e);
        let next = off + header_bytes + plen in
        if next < Bytes.length data then scan next
  in
  scan 0;
  match !newest with Some t -> t | None -> raise (Option.get !first_err)

(* ---- checkpoint policy ---- *)

(** Raised when a launch was asked to stop after its Nth snapshot
    ([stop_after], [vektc run --checkpoint-stop]); carries the path of
    the snapshot to resume from.  This is the forced-preemption hook the
    cross-process resume tests and CI legs use. *)
exception Stop of string

(** Asynchronous preemption token.  The daemon's admission queue hands
    one to each preemptible launch; {!request_preempt} may be called
    from any domain (e.g. the server loop, on arrival of a
    higher-priority job) and the launch observes it at its next safe
    point: {!note_iter} reports a snapshot due, and {!maybe_stop}
    consumes the request and raises {!Stop} with the snapshot path to
    resume from.  An un-requested token costs one atomic load per
    scheduler iteration. *)
type preempt = bool Atomic.t

let preempt_token () : preempt = Atomic.make false
let request_preempt (p : preempt) = Atomic.set p true
let preempt_requested (p : preempt) = Atomic.get p

(** Per-launch checkpoint policy and bookkeeping, shared by every
    worker (checkpointing forces the worker pool serial, so no lock). *)
type ctx = {
  dir : string;
  every : int;  (** snapshot every N scheduler iterations; 0 = never *)
  stop_after : int option;  (** raise {!Stop} after this many snapshots *)
  preempt : preempt option;  (** async preemption token, when armed *)
  live_bytes : int option;  (** allocator watermark bounding the global image *)
  kernel : string;  (** kernel name, for the structured deadline error *)
  start_us : float;  (** monotonic launch start, deadline reference point *)
  deadline_us : float option;
      (** absolute monotonic wall deadline; past it the launch snapshots
          at its next safe point and dies with {!Vekt_error.Deadline} *)
  mutable iter : int;  (** scheduler iterations observed this launch *)
  mutable seq : int;  (** last sequence number written *)
  mutable latest : (int * string) option;
      (** seq and log path of the newest snapshot written; [None] until
          this context starts its log *)
  mutable log_records : int;  (** records in this context's log *)
  mutable writes : int;
  mutable bytes_written : int;
  mutable write_us : float;  (** wall time spent serializing + writing *)
  mutable resumes : int;  (** times this launch resumed from a snapshot *)
  mutable rejected : int;  (** snapshots refused by integrity validation *)
  mutable preempted : int;  (** preemption requests honored at a safe point *)
  mutable deadline_kills : int;  (** deadline expiries honored at a safe point *)
}

let create_ctx ?(dir = "vekt-ckpt") ?stop_after ?preempt ?live_bytes
    ?(kernel = "") ?deadline_ms ~every () : ctx =
  let start_us = Clock.now_us () in
  {
    dir;
    every = max 0 every;
    stop_after;
    preempt;
    live_bytes;
    kernel;
    start_us;
    deadline_us =
      Option.map (fun ms -> start_us +. (float_of_int ms *. 1000.)) deadline_ms;
    iter = 0;
    seq = 0;
    latest = None;
    log_records = 0;
    writes = 0;
    bytes_written = 0;
    write_us = 0.0;
    resumes = 0;
    rejected = 0;
    preempted = 0;
    deadline_kills = 0;
  }

let deadline_exceeded (ctx : ctx) =
  match ctx.deadline_us with
  | Some d -> Clock.now_us () > d
  | None -> false

(** Count one scheduler iteration; [true] when the policy says a
    snapshot is due now — on the periodic schedule, because an
    asynchronous preemption request is pending, or because the launch
    has blown its deadline and must snapshot its partial progress
    before it is killed. *)
let note_iter (ctx : ctx) : bool =
  ctx.iter <- ctx.iter + 1;
  (ctx.every > 0 && ctx.iter mod ctx.every = 0)
  || (match ctx.preempt with Some p -> preempt_requested p | None -> false)
  || deadline_exceeded ctx

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Io.mkdir dir 0o755 with Unix.Unix_error _ -> () | Sys_error _ -> ()

(** The most records a launch's snapshot log holds: the snapshot after
    that many starts the log afresh. *)
let max_log_records = 16

(** Serialize [t] durably into the launch's snapshot log,
    [<ctx.dir>/<kernel>.ckpt], and return the log's path and the
    record's size.  The context's first snapshot replaces any earlier
    log atomically ({!Vekt_chaos.Io.save_atomic}: temp file, fsync,
    rename, directory fsync), so a stale log from another launch is
    never read as this one's; every later snapshot is one
    {!Vekt_chaos.Io.append} and one {!Vekt_chaos.Io.fsync_file}, with no
    new directory entry, until the log holds {!max_log_records}: the
    next snapshot replaces it the first snapshot's way, so a long launch
    keeps a bounded log (only its newest valid record is ever read).
    Either way the record is durable when [write] returns.  [fault]
    marks a diagnostic snapshot written on watchdog fire: it goes to its
    own [<kernel>-fault.ckpt] through [save_atomic] and is {e not}
    recorded as the latest resume candidate, since resuming a
    deterministic deadlock would re-raise it forever. *)
let write ?(fault = false) (ctx : ctx) (t : t) : string * int =
  let t0 = Clock.now_us () in
  let data = Bytes.unsafe_to_string (to_bytes t) in
  let path =
    Filename.concat ctx.dir
      (if fault then t.kernel ^ "-fault.ckpt" else t.kernel ^ ".ckpt")
  in
  if fault || Option.is_none ctx.latest || ctx.log_records >= max_log_records then begin
    ensure_dir ctx.dir;
    Io.save_atomic ~path data;
    if not fault then ctx.log_records <- 1
  end
  else begin
    Io.append path data;
    Io.fsync_file path;
    ctx.log_records <- ctx.log_records + 1
  end;
  ctx.writes <- ctx.writes + 1;
  ctx.bytes_written <- ctx.bytes_written + String.length data;
  ctx.write_us <- ctx.write_us +. Clock.elapsed_us t0;
  if not fault then begin
    ctx.seq <- t.seq;
    ctx.latest <- Some (t.seq, path)
  end;
  (path, String.length data)

(** Raise {!Stop} when the stop-after-N-snapshots policy has been met,
    or when an asynchronous preemption request is pending (the request
    is consumed, so the resumed launch starts with a clean token); or
    raise a structured {!Vekt_error.Deadline} when the launch has
    exceeded its wall-clock budget — the snapshot just written at [path]
    is named in the error so partial span/attribution data survives. *)
let maybe_stop (ctx : ctx) path =
  if deadline_exceeded ctx then begin
    ctx.deadline_kills <- ctx.deadline_kills + 1;
    let elapsed_ms =
      int_of_float ((Clock.now_us () -. ctx.start_us) /. 1000.)
    in
    let deadline_ms =
      match ctx.deadline_us with
      | Some d -> int_of_float ((d -. ctx.start_us) /. 1000.)
      | None -> 0
    in
    raise
      (Vekt_error.Error
         (Vekt_error.Deadline
            { kernel = ctx.kernel; deadline_ms; elapsed_ms;
              snapshot = Some path }))
  end;
  (match ctx.preempt with
  | Some p when preempt_requested p ->
      Atomic.set p false;
      ctx.preempted <- ctx.preempted + 1;
      raise (Stop path)
  | _ -> ());
  match ctx.stop_after with
  | Some k when ctx.seq >= k -> raise (Stop path)
  | _ -> ()

(** Checkpoint callbacks threaded into {!Exec_manager.run_cta}.  [save]
    builds the in-flight CTA's snapshot only when the policy actually
    fires, so an un-due iteration costs one counter bump. *)
type hooks = {
  tick : now:float -> save:(unit -> cta_snap) -> unit;
      (** called at the top of every scheduler iteration (the safe point) *)
  on_fault : now:float -> save:(unit -> cta_snap) -> unit;
      (** called when a watchdog is about to raise {!Vekt_error.Deadlock} *)
}

let metrics_into (ctx : ctx) (m : Vekt_obs.Metrics.t) =
  let module M = Vekt_obs.Metrics in
  M.counter m "ckpt.writes" := ctx.writes;
  M.counter m "ckpt.bytes_written" := ctx.bytes_written;
  M.counter m "ckpt.snapshots" := ctx.seq;
  M.counter m "ckpt.resumes" := ctx.resumes;
  M.counter m "ckpt.rejected" := ctx.rejected;
  M.counter m "ckpt.preemptions" := ctx.preempted;
  M.counter m "ckpt.deadline_kills" := ctx.deadline_kills;
  M.set (M.gauge m "ckpt.write_us") ctx.write_us

(* ---- recovery ---- *)

(** The recovery ladder's next rung after a recoverable fault in a
    launch that started from the snapshot numbered [last_seq] (0 = from
    scratch): the newest valid record of the launch's log, as
    [(seq, path, snapshot)], when the log has grown since and that
    record's own seq is above [last_seq].  A record at or below
    [last_seq] — the newest one is damaged and an older one stands
    behind it — was tried already and would fail the same way; it and a
    log with no valid record both count as rejected and leave the
    ladder to its last rung. *)
let next_resume (ctx : ctx) ~last_seq : (int * string * t) option =
  let reject () =
    ctx.rejected <- ctx.rejected + 1;
    None
  in
  match ctx.latest with
  | Some (seq, path) when seq > last_seq -> (
      match read path with
      | s when s.seq > last_seq -> Some (s.seq, path, s)
      | _ -> reject ()
      | exception Vekt_error.Error (Vekt_error.Checkpoint _) -> reject ())
  | _ -> None

(** Scan [dir] for the newest valid (non-fault) snapshot.  Used by the
    daemon's restart-recovery path: after a kill -9, the job directory
    of every launch that was in flight still holds its snapshot log,
    and this picks the resume candidate the recovery ladder should try
    first.  Logs with no valid record are skipped, not fatal — a crash
    mid-[write] leaves at most a [.tmp] (never renamed), an older
    complete log, or a log whose tail record is damaged, which {!read}
    walks past. *)
let newest_snapshot ~dir : string option =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | names ->
      Array.to_list names
      |> List.filter (fun n ->
             Filename.check_suffix n ".ckpt"
             && not (Filename.check_suffix n "-fault.ckpt"))
      |> List.filter_map (fun n ->
             let path = Filename.concat dir n in
             match read path with
             | snap -> Some (snap.seq, path)
             | exception Vekt_error.Error _ -> None)
      |> List.sort (fun (a, _) (b, _) -> compare b a)
      |> function
      | (_, path) :: _ -> Some path
      | [] -> None
