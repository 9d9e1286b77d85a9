(* Tests for the chaos engine (DESIGN.md §3.10): the fault-injecting
   I/O layer keeps save_atomic old-or-new at every crash point, and a
   snapshot-log append old-or-new above an intact durable prefix; the
   fsync-less tmp+rename the daemon shipped with (reproduced here by
   wrapping the I/O layer with no-op fsyncs) loses acknowledged
   manifests (the pre-fix bug, demonstrated and kept as a regression);
   the hardened daemon survives a bounded crash-point sweep with zero
   invariant violations; restart recovery pins a recovered launch's
   buffers at the addresses the dead daemon acknowledged; an expired
   deadline beats a pending preemption at the shared safe point; and
   the server's write_all survives every short-write shape a real
   socket exposes.  Failing schedules minimize and round-trip through
   replayable repro files. *)

module Io = Vekt_chaos.Io
module Injector = Vekt_chaos.Injector
module Harness = Vekt_chaos_harness.Harness
module Script = Vekt_chaos_harness.Script
module Server = Vekt_server.Server
module Queue = Vekt_server.Queue
module J = Vekt_server.Jsonx
module Api = Vekt_runtime.Api
module Checkpoint = Vekt_runtime.Checkpoint
open Vekt_workloads

let tmpdir =
  let d = Filename.concat (Filename.get_temp_dir_name ()) "vekt-test-chaos" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The fsync-less tmp+rename the daemon shipped with: the same
   save_atomic protocol over an I/O layer whose fsyncs do nothing. *)
let no_fsync (i : Io.impl) : Io.impl =
  { i with Io.fsync_file = ignore; fsync_dir = ignore }

(* ---- save_atomic is old-or-new at every crash point ---- *)

(* Drill every I/O boundary of one save_atomic over an existing durable
   file: whatever the crash flavor, a reader afterwards must see the
   complete old payload or the complete new one — never a torn mix,
   never nothing.  Holds in both durability modes (rename atomicity is
   not what the fsyncs buy; ack-durability is, and the daemon-level
   regression below covers that). *)
let drill_save_atomic ~durable () =
  let dir =
    Filename.concat tmpdir (if durable then "sa-durable" else "sa-legacy")
  in
  let io = if durable then Fun.id else no_fsync in
  Harness.rm_rf dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "state.json" in
  Io.save_atomic ~path "one";
  let count = Injector.create ~root:dir ~seed:7 ~plan:Injector.Count () in
  Io.with_impl (io (Injector.impl count)) (fun () ->
      Io.save_atomic ~path "two");
  let trace = Injector.trace count in
  Alcotest.(check bool)
    "a save has several boundaries" true
    (List.length trace >= 2);
  List.iteri
    (fun boundary label ->
      List.iter
        (fun flavor ->
          Harness.rm_rf dir;
          Unix.mkdir dir 0o755;
          Io.save_atomic ~path "one";
          let inj =
            Injector.create ~root:dir ~seed:7
              ~plan:(Injector.Crash { boundary; flavor })
              ()
          in
          (match
             Io.with_impl (io (Injector.impl inj)) (fun () ->
                 Io.save_atomic ~path "two")
           with
          | () -> ()
          | exception Io.Crash -> ());
          let got = try read_file path with Sys_error _ -> "(missing)" in
          Alcotest.(check bool)
            (Fmt.str "old-or-new @%d %s [%s]: got %S" boundary
               (Injector.flavor_name flavor) label got)
            true
            (got = "one" || got = "two"))
        (Harness.flavors_for_label label))
    trace;
  Harness.rm_rf dir

let test_save_atomic_durable () = drill_save_atomic ~durable:true ()
let test_save_atomic_legacy () = drill_save_atomic ~durable:false ()

(* ---- a snapshot-log append is old-or-new above its durable prefix ---- *)

let log_snap seq : Checkpoint.t =
  {
    Checkpoint.kernel = "k";
    grid = Vekt_ptx.Launch.dim3 1;
    block = Vekt_ptx.Launch.dim3 4;
    workers = 1;
    seq;
    global_size = 4096;
    global_image = Bytes.init 512 (fun i -> Char.chr ((i * seq) land 0xFF));
    params_image = Bytes.make 16 '\001';
    worker_snaps = [||];
    fault_state = None;
    hotness = [];
    quarantine = [];
  }

(* Drill every I/O boundary of the second snapshot a launch writes — an
   append onto its durable one-record log, then its fsync.  Whatever the
   crash flavor, the first record must survive byte for byte, and the
   newest valid record must be the old snapshot or the new one; once
   the fsync has returned, the new one. *)
let test_append_drill () =
  let dir = Filename.concat tmpdir "log-append" in
  let start () =
    Harness.rm_rf dir;
    Unix.mkdir dir 0o755;
    let ctx = Checkpoint.create_ctx ~dir ~every:1 () in
    let path, _ = Checkpoint.write ctx (log_snap 1) in
    (ctx, path)
  in
  let ctx, path = start () in
  let durable = read_file path in
  let count = Injector.create ~root:dir ~seed:7 ~plan:Injector.Count () in
  Io.with_impl (Injector.impl count) (fun () ->
      ignore (Checkpoint.write ctx (log_snap 2)));
  let trace = Injector.trace count in
  Alcotest.(check (list string))
    "an append and one fsync, no directory entry"
    [ Fmt.str "append k.ckpt (%d B)" (Bytes.length (Checkpoint.to_bytes (log_snap 2)));
      "fsync k.ckpt" ]
    trace;
  List.iteri
    (fun boundary label ->
      List.iter
        (fun flavor ->
          let ctx, path = start () in
          let inj =
            Injector.create ~root:dir ~seed:7
              ~plan:(Injector.Crash { boundary; flavor })
              ()
          in
          (match
             Io.with_impl (Injector.impl inj) (fun () ->
                 ignore (Checkpoint.write ctx (log_snap 2)))
           with
          | () -> ()
          | exception Io.Crash -> ());
          let what =
            Fmt.str "@%d %s [%s]" boundary (Injector.flavor_name flavor) label
          in
          let got = read_file path in
          Alcotest.(check bool)
            (what ^ ": durable prefix intact")
            true
            (String.starts_with ~prefix:durable got);
          let seq = (Checkpoint.read path).Checkpoint.seq in
          Alcotest.(check bool)
            (Fmt.str "%s: old-or-new, got seq %d" what seq)
            true
            (seq = 1 || seq = 2);
          if boundary = 1 && flavor = Injector.After then
            Alcotest.(check int) (what ^ ": fsynced append is durable") 2 seq)
        (Harness.flavors_for_label label))
    trace;
  Harness.rm_rf dir

(* ---- the pre-fix bug: fsync-less renames lose acknowledged jobs ---- *)

(* Two tenants, two acknowledged submits, nothing run yet — the
   smallest schedule the minimizer converges to. *)
let lost_script : Script.step list =
  [
    Script.Open { sid = "a"; tenant = "alice" };
    Script.Load { sid = "a" };
    Script.Open { sid = "b"; tenant = "bob" };
    Script.Load { sid = "b" };
    Script.Submit { sid = "a"; job = "a1" };
    Script.Submit { sid = "b"; job = "b1" };
  ]

(* Under the fsync-less tmp+rename the daemon shipped with, a crash
   shortly after a submit was acknowledged can roll the manifest's
   directory entry back: the successor recovers nothing and the client
   waits forever for a job the daemon no longer knows.  The crash-point
   sweep must find such a point; the full durable protocol (fsync file
   + parent dir) closes it, so this is the committed demonstration of
   the bug the chaos engine surfaced.  The witness then round-trips
   through minimization and a replayable repro file. *)
let test_legacy_lost_manifest () =
  let dir = Filename.concat tmpdir "legacy-lost" in
  let io = no_fsync in
  Fun.protect
    ~finally:(fun () -> Harness.rm_rf dir)
    (fun () ->
      match
        Harness.first_failure ~io ~seed:0x5eed ~dir ~flavor:Injector.Before
          ~sweep_cap:16 lost_script
      with
      | None ->
          Alcotest.fail
            "fsync-less tmp+rename survived the crash sweep: the lost-rename \
             bug should reproduce"
      | Some f ->
          Alcotest.(check bool)
            (Fmt.str "a lost-job violation (%s)"
               (String.concat "; " f.Harness.f_violations))
            true
            (List.exists
               (fun v -> has_substring v "lost job")
               f.Harness.f_violations);
          (* minimize, write the repro, parse it back, replay it *)
          let steps', f' =
            Harness.minimize ~io ~seed:0x5eed ~dir f lost_script
          in
          Alcotest.(check bool)
            "minimization never grows the schedule" true
            (List.length steps' <= List.length lost_script);
          let path = Filename.concat tmpdir "repro.json" in
          Harness.write_repro ~path ~seed:0x5eed f' steps';
          (match Harness.parse_repro (read_file path) with
          | Error e -> Alcotest.failf "repro did not parse back: %s" e
          | Ok r ->
              let violations = Harness.replay ~io ~dir r in
              Alcotest.(check bool)
                "replayed repro still violates" true (violations <> [])))

(* ---- the hardened daemon survives a bounded crash-point sweep ---- *)

let test_durable_sweep_clean () =
  let dir = Filename.concat tmpdir "durable-sweep" in
  let c =
    Harness.run_campaign ~seed:0x5eed ~budget:32 ~dir ~steps:Script.default ()
  in
  Alcotest.(check bool) "drills ran" true (c.Harness.c_drills > 0);
  List.iter
    (fun (f : Harness.failure) ->
      Alcotest.failf "crash point @%d %s [%s]: %s" f.Harness.f_boundary
        (Injector.flavor_name f.Harness.f_flavor)
        f.Harness.f_label
        (String.concat "; " f.Harness.f_violations))
    c.Harness.c_failures

(* ---- recovery pins recovered buffers at acknowledged addresses ---- *)

let test_reserve_to () =
  let dev = Api.create_device () in
  let a1 = Api.malloc dev 16 in
  Api.reserve_to dev 256;
  let a2 = Api.malloc dev 16 in
  Alcotest.(check int) "first alloc at the arena base" 64 a1;
  Alcotest.(check int) "post-reserve alloc lands at the pin" 256 a2;
  (match Api.reserve_to dev 100 with
  | () -> Alcotest.fail "unaligned pin accepted"
  | exception Invalid_argument _ -> ());
  match Api.reserve_to dev 64 with
  | () -> Alcotest.fail "pin behind the watermark accepted"
  | exception Invalid_argument _ -> ()

(* A session's second job sits above the first in its arena; a fresh
   recovery session replaying only the second job's specs would land
   them lower.  The manifest records the acknowledged addresses, so the
   successor must rerun the job from scratch and still put its outputs
   where the dead daemon told the client to look. *)
let test_recovery_pins_addresses () =
  let pin_script =
    [
      Script.Open { sid = "a"; tenant = "t" };
      Script.Load { sid = "a" };
      Script.Submit { sid = "a"; job = "j1" };
      Script.Submit { sid = "a"; job = "j2" };
    ]
  in
  let dirb = Filename.concat tmpdir "pin-baseline" in
  let baseline =
    Harness.run_baseline ~seed:1 ~dir:dirb
      ~steps:(pin_script @ [ Script.Pump 4 ])
      ()
  in
  let dir = Filename.concat tmpdir "pin-crash" in
  Harness.rm_rf dir;
  let w =
    match Harness.run_pass ~alive:(fun () -> true) ~dir pin_script with
    | Some w -> w
    | None -> Alcotest.fail "setup pass crashed"
  in
  (* abandon w.srv with both jobs queued: a kill -9 before either ran *)
  let srv2 = Server.create ~ckpt_dir:dir () in
  let recs = Server.recovered srv2 in
  Alcotest.(check int) "both jobs re-admitted" 2 (List.length recs);
  Alcotest.(check bool) "successor quiesces" true
    (Harness.drain (Server.queue srv2));
  List.iter
    (fun (r : Server.recovered) ->
      let ji = Hashtbl.find w.Harness.jobs r.Server.r_label in
      let addr =
        match ji.Harness.j_out with
        | Some a -> a
        | None -> Alcotest.failf "job %s never acknowledged" r.Server.r_label
      in
      let resp =
        Server.handle srv2
          (J.Obj
             [
               ("cmd", J.Str "read");
               ("session", J.Int r.Server.r_session);
               ("addr", J.Int addr);
               ("ty", J.Str "f32");
               ("count", J.Int 4);
             ])
      in
      match
        ( J.mem "values" resp,
          List.assoc_opt r.Server.r_label baseline.Harness.b_values )
      with
      | Some got, Some want ->
          Alcotest.(check string)
            (Fmt.str "%s recovered at its acknowledged address"
               r.Server.r_label)
            (J.to_string want) (J.to_string got)
      | _ ->
          Alcotest.failf "%s: no values at the acknowledged address (%s)"
            r.Server.r_label (J.to_string resp))
    recs;
  Server.decommission srv2;
  Harness.rm_rf dir

(* ---- an expired deadline beats a pending preemption ---- *)

(* Both conditions mature at the same safe point: the token was armed
   before the launch started and the zero budget lapsed immediately.
   The launch must die with the structured Deadline error (carrying a
   valid snapshot for post-mortem) — honoring the preemption instead
   would requeue-and-resume a job whose budget is already gone. *)
let test_deadline_beats_preempt () =
  let dir = Filename.concat tmpdir "deadline-edge" in
  let w = W_vecadd.workload in
  let config = { Api.default_config with Api.workers = Some 1 } in
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup dev in
  let preempt = Checkpoint.preempt_token () in
  Checkpoint.request_preempt preempt;
  match
    Api.launch ~preempt ~ckpt_dir:dir ~deadline_ms:0 m
      ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
      ~block:inst.Workload.block ~args:inst.Workload.args
  with
  | _ -> Alcotest.fail "zero-budget launch completed"
  | exception Checkpoint.Stop _ ->
      Alcotest.fail
        "preemption won over an expired deadline: the job would resume and \
         overrun its budget"
  | exception Vekt_error.Error (Vekt_error.Deadline { snapshot; _ }) -> (
      match snapshot with
      | None -> Alcotest.fail "deadline kill without a snapshot"
      | Some p ->
          let snap = Checkpoint.read p in
          Alcotest.(check string)
            "snapshot is valid and names the kernel" w.Workload.kernel
            snap.Checkpoint.kernel;
          Harness.rm_rf dir)

(* ---- write_all survives every short-write shape ---- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () -> f a b)

let read_exactly fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off < n then
      match Unix.read fd buf off (n - off) with
      | 0 -> Alcotest.fail "peer closed early"
      | k -> go (off + k)
  in
  go 0;
  Bytes.to_string buf

let test_write_all_short_writes () =
  with_socketpair (fun a b ->
      let calls = ref 0 in
      let impl =
        {
          Io.real with
          Io.send =
            (fun fd s off len ->
              incr calls;
              match !calls mod 3 with
              | 1 -> raise (Unix.Unix_error (Unix.EINTR, "write", ""))
              | 2 -> raise (Unix.Unix_error (Unix.EAGAIN, "write", ""))
              | _ -> Unix.write_substring fd s off (min len 3));
        }
      in
      let msg = "{\"ok\":true,\"payload\":\"0123456789abcdef\"}\n" in
      Io.with_impl impl (fun () -> Server.write_all a msg);
      Alcotest.(check string)
        "every byte arrived, in order" msg
        (read_exactly b (String.length msg)))

let test_write_all_stall_budget () =
  with_socketpair (fun a _ ->
      let impl = { Io.real with Io.send = (fun _ _ _ _ -> 0) } in
      match Io.with_impl impl (fun () -> Server.write_all a "x\n") with
      | () -> Alcotest.fail "a permanently stalled peer went unnoticed"
      | exception Unix.Unix_error (Unix.EAGAIN, "write_all", _) -> ())

let test_write_all_epipe () =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
    (fun () ->
      with_socketpair (fun a b ->
          Unix.close b;
          match Server.write_all a "hello\n" with
          | () -> Alcotest.fail "write to a closed peer succeeded"
          | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()))

let () =
  Alcotest.run "chaos"
    [
      ( "save-atomic",
        [
          Alcotest.test_case "old-or-new, durable protocol" `Quick
            test_save_atomic_durable;
          Alcotest.test_case "old-or-new, legacy protocol" `Quick
            test_save_atomic_legacy;
          Alcotest.test_case "snapshot-log append keeps its durable prefix"
            `Quick test_append_drill;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "legacy io loses acknowledged manifests" `Quick
            test_legacy_lost_manifest;
          Alcotest.test_case "durable sweep finds no violations" `Slow
            test_durable_sweep_clean;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "reserve_to pins the arena" `Quick test_reserve_to;
          Alcotest.test_case "scratch rerun lands at acknowledged addresses"
            `Quick test_recovery_pins_addresses;
        ] );
      ( "edges",
        [
          Alcotest.test_case "deadline beats preemption at a safe point" `Quick
            test_deadline_beats_preempt;
        ] );
      ( "write-all",
        [
          Alcotest.test_case "short writes, EINTR, EAGAIN" `Quick
            test_write_all_short_writes;
          Alcotest.test_case "stalled peer exhausts the retry budget" `Quick
            test_write_all_stall_budget;
          Alcotest.test_case "EPIPE propagates to the connection owner" `Quick
            test_write_all_epipe;
        ] );
    ]
