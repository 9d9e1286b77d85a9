(* daemon-mixed: two tenants driving a `vektc serve` child over its socket.

   The daemon runs with default flags on a private socket and checkpoint
   root under .perfbench-tmp/ in the working directory.  One generator
   (this process, one thread) holds two connections, one per tenant, and
   runs a closed loop with no think time: it advances each tenant by one
   request in turn, so each connection has at most one request in
   flight.  A job mirrors the application's own [setup] over the
   protocol: reset-arena, malloc, write the arena image as i32s,
   submit-launch with i64 pointer arguments, poll until done, read the
   arena back, then run the application's host check locally.

   - interactive: memory-bound applications at scale 1, default config.
   - batch: reduction, scan, fastwalsh and threadfence at scale 1, loaded
     with checkpoint-every so each launch writes snapshots.  binomial and
     matrixmul stay out: their 0.15-1.5 s launches would turn the
     interactive tail into a measure of their length.

   Both tenants submit at equal priority, so nothing is preempted. *)

open Measure
module Api = Vekt_runtime.Api
module J = Vekt_server.Jsonx
module Io = Vekt_chaos.Io
module Launch = Vekt_ptx.Launch
module Workload = Vekt_workloads.Workload
module Registry = Vekt_workloads.Registry

let scale = 1

let interactive_apps =
  [ "vecadd"; "transpose"; "convolution"; "scalarprod"; "sobolqrng";
    "dwthaar"; "boxfilter"; "sobel"; "atomics" ]

let batch_apps = [ "reduction"; "scan"; "fastwalsh"; "threadfence" ]

(* Scheduler iterations between snapshots of a batch launch: a few
   snapshots per launch at scale 1. *)
let checkpoint_every = 128

let poll_interval_s = 200e-6

let vektc = Filename.concat "_build" (Filename.concat "default" "bin/vektc.exe")

(* ---- job templates ---- *)

(* One application's job, prepared once in set-up: its arena image as
   the application's own [setup] left it on a local device, and the
   launch arguments with device pointers as i64 values (the arena is
   rebuilt at the same addresses in the daemon's session). *)
type job = {
  w : Workload.t;
  image : int list;
  words : int;
  args : J.t list;
  grid : Launch.dim3;
  block : Launch.dim3;
  check : Api.device -> (unit, string) result;
}

let arena_base = 64

let prepare local (w : Workload.t) =
  Api.reset_arena local;
  let inst = w.setup ~scale local in
  let words = (local.Api.brk - arena_base) / 4 in
  let spec = function
    | Launch.I32 n -> Printf.sprintf "i32:%d" n
    | Launch.I64 n -> Printf.sprintf "i64:%Ld" n
    | Launch.F32 x -> Printf.sprintf "f32:%.17g" x
    | Launch.F64 x -> Printf.sprintf "f64:%.17g" x
    | Launch.Ptr a -> Printf.sprintf "i64:%d" a
  in
  {
    w;
    image = Api.read_i32s local arena_base words;
    words;
    args = List.map (fun a -> J.Str (spec a)) inst.args;
    grid = inst.grid;
    block = inst.block;
    check = inst.check;
  }

let dim3 (d : Launch.dim3) = J.List [ J.Int d.x; J.Int d.y; J.Int d.z ]

(* ---- the wire ---- *)

(* Client-side timings of every request: round trip per command, and
   the codec's time and bytes in both directions. *)
type wire = {
  rtt_us : Samples.t;
  mutable enc_ns : float;
  mutable enc_bytes : int;
  mutable dec_ns : float;
  mutable dec_bytes : int;
}

let wire () =
  { rtt_us = Samples.create (); enc_ns = 0.0; enc_bytes = 0; dec_ns = 0.0;
    dec_bytes = 0 }

type conn = { ic : in_channel; oc : out_channel }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
      (* a daemon that stops answering fails the run instead of hanging it *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
      Some { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let disconnect c = close_in_noerr c.ic

exception Protocol of string

(* One request, one response.  A response with ok:false raises
   [Protocol] with the daemon's error kind and message. *)
let call (wr : wire) c cmd fields =
  let line, enc_us = timed (fun () -> J.to_string (J.Obj (("cmd", J.Str cmd) :: fields))) in
  let t0 = now_us () in
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let resp = input_line c.ic in
  let rtt = Clock.elapsed_us t0 in
  let parsed, dec_us = timed (fun () -> J.of_string resp) in
  Samples.add wr.rtt_us cmd rtt;
  wr.enc_ns <- wr.enc_ns +. (enc_us *. 1e3);
  wr.enc_bytes <- wr.enc_bytes + String.length line;
  wr.dec_ns <- wr.dec_ns +. (dec_us *. 1e3);
  wr.dec_bytes <- wr.dec_bytes + String.length resp;
  match parsed with
  | Error e -> raise (Protocol ("unparseable response: " ^ e))
  | Ok j when J.bool_mem "ok" j = Some true -> j
  | Ok j ->
      let field k =
        match J.mem "error" j with
        | Some e -> Option.value (J.str_mem k e) ~default:"?"
        | None -> Option.value (J.str_mem k j) ~default:"?"
      in
      raise (Protocol (Printf.sprintf "%s: %s: %s" cmd (field "kind") (field "message")))

let int_field k j =
  match J.int_mem k j with
  | Some n -> n
  | None -> raise (Protocol (Printf.sprintf "response lacks integer %S" k))

(* ---- the daemon child ---- *)

type daemon = { pid : int; dir : string; socket : string; ckpt : string; log : string }

let tmp_root = ".perfbench-tmp"
let daemon_seq = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* The daemon currently running, so that a run that dies half-way still
   stops it and removes its directory. *)
let live = ref None

let () =
  at_exit (fun () ->
      Option.iter
        (fun (pid, dir) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          rm_rf dir;
          try Sys.rmdir tmp_root with Sys_error _ -> ())
        !live)

let start_daemon () =
  incr daemon_seq;
  let dir = Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !daemon_seq) in
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  Sys.mkdir dir 0o755;
  let socket = Filename.concat dir "s.sock" and ckpt = Filename.concat dir "ckpt" in
  let log = Filename.concat dir "serve.log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process vektc
      [| vektc; "serve"; "--socket"; socket; "--ckpt-dir"; ckpt |]
      Unix.stdin out out
  in
  Unix.close out;
  live := Some (pid, dir);
  { pid; dir; socket; ckpt; log }

(* Wait until the daemon accepts connections; fail if it died. *)
let rec await_conn d deadline =
  match connect d.socket with
  | Some c -> c
  | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ -> failwith "vektc serve exited during start-up");
      if now_us () > deadline then failwith "vektc serve did not start listening";
      Unix.sleepf 0.005;
      await_conn d deadline

(* SIGTERM, wait, and check a clean shutdown: exit 0, socket unlinked,
   checkpoint root swept.  Returns the hygiene problems found. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let exit_status =
    match Unix.waitpid [] d.pid with
    | _, Unix.WEXITED 0 -> []
    | _, Unix.WEXITED n -> [ Printf.sprintf "daemon exited with %d" n ]
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        [ Printf.sprintf "daemon killed by signal %d" n ]
    | exception Unix.Unix_error _ -> [ "daemon already reaped" ]
  in
  let problems =
    exit_status
    @ (if Sys.file_exists d.socket then [ "socket left behind" ] else [])
    @ if Sys.file_exists d.ckpt then [ "checkpoint root not swept" ] else []
  in
  live := None;
  if problems <> [] then
    prerr_string (try In_channel.with_open_bin d.log In_channel.input_all with Sys_error _ -> "");
  rm_rf d.dir;
  (try Sys.rmdir tmp_root with Sys_error _ -> ());
  problems

(* ---- tenants ---- *)

type phase =
  | Start
  | Malloc of job
  | Write of job
  | Submit of job
  | Poll of job * int * float  (** job id, submit time *)
  | Read of job

type tenant = {
  name : string;
  conn : conn;
  session : int;
  modules : (string * int) list;  (** application → module id *)
  jobs : job array;
  rng : Random.State.t;
  mutable phase : phase;
  mutable completed : int;  (** jobs checked correct in the timed loop *)
  submit_done_ms : Samples.t;  (** per application *)
  wait_us : float list ref;  (** queue wait, from poll *)
}

let open_tenant wr conn ~name ~config ~rng jobs =
  let session = int_field "session" (call wr conn "open-session" [ ("tenant", J.Str name) ]) in
  let modules =
    List.map
      (fun j ->
        let r =
          call wr conn "load-module"
            [ ("session", J.Int session); ("src", J.Str j.w.src); ("config", J.Obj config) ]
        in
        (j.w.name, int_field "module" r))
      jobs
  in
  {
    name; conn; session; modules; jobs = Array.of_list jobs; rng; phase = Start;
    completed = 0; submit_done_ms = Samples.create (); wait_us = ref [];
  }

let begin_job wr tn j =
  ignore (call wr tn.conn "reset-arena" [ ("session", J.Int tn.session) ]);
  tn.phase <- Malloc j

(* Advance [tn] by one request.  [counting] is false once the timed
   region is over: a job in flight still runs to its end, so the daemon
   is idle at shutdown, but it is no longer counted. *)
let step (t : tally) wr local ~counting tn =
  let req cmd fields = call wr tn.conn cmd (("session", J.Int tn.session) :: fields) in
  try
    match tn.phase with
    | Start ->
        if counting then t.attempted <- t.attempted + 1;
        begin_job wr tn tn.jobs.(Random.State.int tn.rng (Array.length tn.jobs))
    | Malloc j ->
        let addr = int_field "addr" (req "malloc" [ ("bytes", J.Int (4 * j.words)) ]) in
        if addr <> arena_base then
          raise (Protocol (Printf.sprintf "fresh arena starts at %d, not %d" addr arena_base));
        tn.phase <- Write j
    | Write j ->
        ignore
          (req "write"
             [ ("addr", J.Int arena_base); ("i32s", J.List (List.map (fun v -> J.Int v) j.image)) ]);
        tn.phase <- Submit j
    | Submit j ->
        let t0 = now_us () in
        let r =
          req "submit-launch"
            [
              ("module", J.Int (List.assoc j.w.name tn.modules));
              ("kernel", J.Str j.w.kernel);
              ("grid", dim3 j.grid);
              ("block", dim3 j.block);
              ("args", J.List j.args);
            ]
        in
        tn.phase <- Poll (j, int_field "job" r, t0)
    | Poll (j, id, t0) -> (
        let r = call wr tn.conn "poll" [ ("job", J.Int id) ] in
        match J.str_mem "state" r with
        | Some "done" ->
            let ms = Clock.elapsed_us t0 /. 1e3 in
            if counting then begin
              Samples.add tn.submit_done_ms j.w.name ms;
              match J.mem "wait_us" r with
              | Some (J.Float w) -> tn.wait_us := w :: !(tn.wait_us)
              | Some (J.Int w) -> tn.wait_us := float_of_int w :: !(tn.wait_us)
              | _ -> ()
            end;
            tn.phase <- Read j
        | Some ("queued" | "running" | "preempted") ->
            if Clock.elapsed_us t0 > 60e6 then
              raise (Protocol (Printf.sprintf "job %d of %s still not done after 60 s" id j.w.name));
            (* like `vektc submit`, poll at an interval: back-to-back polls
               would keep the daemon's socket loop busy on a core the
               launch needs *)
            Unix.sleepf poll_interval_s
        | s ->
            raise
              (Protocol
                 (Printf.sprintf "job %d of %s ended %s" id j.w.name
                    (Option.value s ~default:"?"))))
    | Read j -> (
        let r =
          req "read" [ ("addr", J.Int arena_base); ("count", J.Int j.words); ("ty", J.Str "i32") ]
        in
        let values =
          match J.list_mem "values" r with
          | Some l -> List.map (function J.Int v -> v | _ -> 0) l
          | None -> raise (Protocol "read: no values")
        in
        tn.phase <- Start;
        Api.reset_arena local;
        Api.write_i32s local arena_base values;
        match j.check local with
        | Ok () -> if counting then tn.completed <- tn.completed + 1
        | Error e ->
            if counting then fail_op t ~wrong:true "%s/%s: wrong output: %s" tn.name j.w.name e)
  with Protocol msg ->
    tn.phase <- Start;
    if counting then fail_op t ~wrong:false "%s: %s" tn.name msg

let idle tn = match tn.phase with Start -> true | _ -> false

(* ---- one daemon lifecycle ---- *)

type env = {
  d : daemon;
  local : Api.device;
  interactive : tenant;
  batch : tenant;
  ctl : conn;  (** a third connection, for the stats scrape only *)
}

(* Start the daemon, open both tenants, load their modules, prepare the
   inputs and run every application once (the daemon compiles here). *)
let setup t wr rng =
  let d = start_daemon () in
  try
    let deadline = now_us () +. 30e6 in
    let c1 = await_conn d deadline in
    let c2 = await_conn d deadline in
    let ctl = await_conn d deadline in
    let local = Api.create_device ~global_bytes:(4 * 1024 * 1024) () in
    let jobs names = List.map (fun n -> prepare local (Registry.find_exn n)) names in
    let interactive =
      open_tenant wr c1 ~name:"interactive" ~config:[] ~rng:(Random.State.copy rng)
        (jobs interactive_apps)
    in
    let batch =
      open_tenant wr c2 ~name:"batch"
        ~config:[ ("checkpoint-every", J.Int checkpoint_every) ]
        ~rng:(Random.State.copy rng) (jobs batch_apps)
    in
    List.iter
      (fun tn ->
        Array.iter
          (fun j ->
            t.attempted <- t.attempted + 1;
            (try begin_job wr tn j
             with Protocol msg -> fail_op t ~wrong:false "%s: %s" tn.name msg);
            while not (idle tn) do step t wr local ~counting:true tn done)
          tn.jobs;
        (* the warm-up jobs (which compile) are not part of the timed loop *)
        tn.completed <- 0;
        Hashtbl.reset tn.submit_done_ms;
        tn.wait_us := [])
      [ interactive; batch ];
    { d; local; interactive; batch; ctl }
  with e ->
    ignore (stop_daemon d);
    raise e

(* Scrape what must be read while the daemon lives — its peak RSS and
   its stats — then shut it down and check the shutdown was clean. *)
let teardown t wr env =
  let rss = peak_rss_mb ~pid:(string_of_int env.d.pid) () in
  let stats = try Some (call wr env.ctl "stats" []) with Protocol _ | End_of_file -> None in
  List.iter disconnect [ env.interactive.conn; env.batch.conn; env.ctl ];
  let problems = stop_daemon env.d in
  List.iter (fun p -> fail_op t ~wrong:true "daemon shutdown: %s" p) problems;
  (rss, stats)

(* The closed loop: advance each tenant by one request in turn until
   [seconds] have passed, then let the jobs in flight finish uncounted.
   Returns the loop's wall seconds. *)
let drive t wr env ~seconds =
  let t0 = now_us () in
  let t_end = t0 +. (seconds *. 1e6) in
  let tenants = [ env.interactive; env.batch ] in
  while now_us () < t_end do
    List.iter (step t wr env.local ~counting:true) tenants
  done;
  let wall_s = Clock.elapsed_us t0 /. 1e6 in
  List.iter
    (fun tn -> while not (idle tn) do step t wr env.local ~counting:false tn done)
    tenants;
  wall_s

(* The daemon's sessions take the engine's default partition: the
   modelled core count. *)
let provenance =
  let w = Vekt_vm.Machine.sse4.cores in
  [
    ("scale", string_of_int scale);
    ("workers", string_of_int w);
    ("domains_interactive", string_of_int (min w (Domain.recommended_domain_count ())));
    ("domains_batch", "1 (a checkpointing launch runs serially)");
    ("checkpoint_every", string_of_int checkpoint_every);
  ]

let timed_run ~seconds ~setups rng =
  let t = tally () and wr = wire () in
  let setup_s = ref [] and env = ref None in
  for i = 1 to setups do
    let e, us = timed (fun () -> setup t wr rng) in
    setup_s := (us /. 1e6) :: !setup_s;
    if i < setups then ignore (teardown t wr e) else env := Some e
  done;
  let env = Option.get !env in
  let wall_s = drive t wr env ~seconds in
  let rss, _ = teardown t wr env in
  let i = env.interactive in
  let all_ms = List.concat_map (Samples.get i.submit_done_ms) (Samples.keys i.submit_done_ms) in
  let p99, q = tail all_ms in
  {
    attempted = t.attempted;
    failed = t.failed;
    correct = correct t;
    metrics =
      [
        ("setup_s", median !setup_s, "s");
        ("op_ms_geomean", Samples.geomean_of ~q:0.5 i.submit_done_ms, "ms");
        ("ops_per_s", float_of_int (i.completed + env.batch.completed) /. wall_s, "1/s");
        ("peak_rss_mb", rss, "MB");
      ];
    provenance =
      provenance
      @ [
          ("interactive_jobs", string_of_int i.completed);
          ("batch_jobs", string_of_int env.batch.completed);
          ("submit_done_ms_p50", Fmt.str "%.4f" (median all_ms));
          (Fmt.str "submit_done_ms_p%g" (100. *. q), Fmt.str "%.4f" p99);
        ];
  }

(* ---- the traced run: per-layer numbers ----

   The daemon's request path has no spans yet, so its layers are seen
   from outside: client-side round trips per command, the codec on the
   lines exchanged, poll's queue wait, the stats scrape, and the
   durable-write primitive every submit's manifest goes through. *)

let scraped stats path =
  let rec go j = function
    | [] -> Some j
    | k :: rest -> Option.bind (J.mem k j) (fun j -> go j rest)
  in
  match Option.bind stats (fun s -> go s path) with
  | Some j -> (
      match J.mem "value" j with
      | Some (J.Int n) -> float_of_int n
      | Some (J.Float x) -> x
      | _ -> nan)
  | None -> nan

(* Median wall µs of [Io.save_atomic] on a manifest-sized file in the
   daemon's directory. *)
let save_atomic_us dir (j : job) =
  let path = Filename.concat dir "probe.json" in
  let data =
    J.to_string
      (J.Obj
         [ ("tenant", J.Str "interactive"); ("kernel", J.Str j.w.kernel);
           ("args", J.List j.args); ("src", J.Str j.w.src) ])
  in
  let us = List.init 50 (fun _ -> snd (timed (fun () -> Io.save_atomic ~path data))) in
  Sys.remove path;
  median us

(* Snapshot writes and bytes of one batch launch, in process: the same
   module config and inputs the batch tenant submits. *)
let checkpoint_bytes dir (jobs : job array) =
  let dev = Api.create_device ~global_bytes:(4 * 1024 * 1024) () in
  let ckdir = Filename.concat dir "ckpt-probe" in
  let config = { Api.default_config with checkpoint_every; checkpoint_dir = ckdir } in
  let per_job =
    Array.to_list jobs
    |> List.map (fun j ->
           let m = Api.load_module ~config dev j.w.src in
           Api.reset_arena dev;
           let inst = j.w.setup ~scale dev in
           ignore
             (Api.launch m ~kernel:j.w.kernel ~grid:inst.grid ~block:inst.block
                ~args:inst.args);
           match m.last_ckpt with
           | Some c -> float_of_int c.Vekt_runtime.Checkpoint.bytes_written
           | None -> 0.0)
  in
  Array.iter
    (fun f -> Sys.remove (Filename.concat ckdir f))
    (try Sys.readdir ckdir with Sys_error _ -> [||]);
  (try Sys.rmdir ckdir with Sys_error _ -> ());
  sum per_job /. float_of_int (List.length per_job)

let traced_run ~seconds rng =
  let t = tally () and wr = wire () in
  let env = setup t wr rng in
  (* the per-command numbers cover the timed loop only *)
  Hashtbl.reset wr.rtt_us;
  wr.enc_ns <- 0.0;
  wr.enc_bytes <- 0;
  wr.dec_ns <- 0.0;
  wr.dec_bytes <- 0;
  ignore (drive t wr env ~seconds);
  let rtt = Samples.get wr.rtt_us in
  let enc = wr.enc_ns /. float_of_int wr.enc_bytes in
  let dec = wr.dec_ns /. float_of_int wr.dec_bytes in
  let io_us = save_atomic_us env.d.dir env.interactive.jobs.(0) in
  let ck_bytes = checkpoint_bytes env.d.dir env.batch.jobs in
  let rss, stats = teardown t wr env in
  ignore rss;
  let eng k = scraped stats [ "engine"; k ] in
  let batch k = scraped stats [ "tenants"; "batch"; "metrics"; k ] in
  let waits = !(env.interactive.wait_us) @ !(env.batch.wait_us) in
  let pct cmd =
    let xs = rtt cmd in
    [ (median xs, "p50"); (fst (tail xs), "p99") ]
  in
  let rtt_metrics =
    List.concat_map
      (fun (name, cmd) ->
        List.map
          (fun (v, p) -> (Printf.sprintf "server.rtt_us.%s.%s" name p, v, "us"))
          (pct cmd))
      [ ("write", "write"); ("read", "read"); ("submit", "submit-launch"); ("poll", "poll") ]
  in
  let launches = batch "launches" in
  {
    attempted = t.attempted;
    failed = t.failed;
    correct = correct t;
    metrics =
      rtt_metrics
      @ [
          ("jsonx.encode_ns_per_byte", enc, "ns/B");
          ("jsonx.decode_ns_per_byte", dec, "ns/B");
          ("queue.wait_us.p50", median waits, "us");
          ("queue.wait_us.p99", fst (tail waits), "us");
          ("queue.shed", eng "queue.shed", "count");
          ("queue.rejected", eng "queue.rejected", "count");
          ("queue.expired", eng "queue.expired", "count");
          ("engine.cache_builds", eng "engine.cache_builds", "count");
          ("engine.cache_reuses", eng "engine.cache_reuses", "count");
          ("checkpoint.writes", batch "ckpt.writes" /. launches, "count");
          ("checkpoint.bytes", ck_bytes, "B");
          ("io.save_atomic_us", io_us, "us");
          ("obs.trace_dropped", 0.0, "count");
        ];
    provenance =
      provenance
      @ List.map
          (fun (name, cmd) ->
            let xs = rtt cmd in
            ( Printf.sprintf "rtt_%s_samples" name,
              Printf.sprintf "%d (p99 column is p%g)" (List.length xs) (100. *. snd (tail xs)) ))
          [ ("write", "write"); ("read", "read"); ("submit", "submit-launch"); ("poll", "poll") ]
      @ [
          ("queue_wait_samples", string_of_int (List.length waits));
          ("checkpoint_writes_per_job", "daemon tally; bytes per job measured in process");
        ];
  }
