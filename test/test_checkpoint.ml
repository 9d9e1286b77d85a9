(* Tests for checkpoint/restore and record-replay (DESIGN.md §3.5):
   snapshot serialization round trips bit-identically and rejects any
   corruption; an interrupted-then-resumed launch is indistinguishable
   from an uninterrupted one (memory and integer statistics) across the
   registry at workers 1 and 4; replay reproduces the exact recorded
   warp-formation sequence; a corrupted snapshot is rejected with a
   structured error and falls back to the emulator oracle; a launch's
   snapshots share one log, whose damaged tail resumes from the record
   before it, in another process or on the recovery ladder.  Also covers
   the config-validation and monotonic quarantine-age satellites. *)

module Api = Vekt_runtime.Api
module TC = Vekt_runtime.Translation_cache
module Checkpoint = Vekt_runtime.Checkpoint
module Replay = Vekt_runtime.Replay
module Sched = Vekt_runtime.Scheduler
module Fault = Vekt_runtime.Fault
module Stats = Vekt_runtime.Stats
module M = Vekt_obs.Metrics
module Obs = Vekt_obs
module Interp = Vekt_vm.Interp
open Vekt_ptx
open Vekt_workloads

(* A dozen registry workloads covering every category; enough for the
   differential acceptance criterion (>= 12). *)
let some_workloads = List.filteri (fun i _ -> i < 12) Registry.all

let tmpdir =
  let d = Filename.concat (Filename.get_temp_dir_name ()) "vekt-test-ckpt" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let counter_value m ~kernel report name =
  !(M.counter (Api.metrics m ~kernel report) name)

let is_ckpt_error = function
  | Vekt_error.Error (Vekt_error.Checkpoint _) -> true
  | _ -> false

(* ---- synthetic snapshots: a deterministic generator over one seed ---- *)

let mk_rng seed =
  let r = ref (if seed = 0 then 1 else seed land 0x3FFFFFFF) in
  fun () ->
    r := (!r * 48271 + 11) land 0x3FFFFFFF;
    !r

let mk_stats next =
  let s = Stats.create () in
  List.iter
    (fun (_, _, set) -> set s.Stats.counters (next () land 0xFFFFF))
    Interp.int_counter_fields;
  List.iter
    (fun (_, _, set) -> set s.Stats.counters (float_of_int (next ()) /. 7.0))
    Interp.cycle_counter_fields;
  s.Stats.em_cycles <- float_of_int (next ()) /. 3.0;
  s.Stats.barrier_releases <- next () land 0xFF;
  s.Stats.threads_launched <- next () land 0xFFFF;
  s.Stats.wall_cycles <- float_of_int (next ());
  Stats.add_warps s 1 (next () land 0xFF);
  Stats.add_warps s 4 (next () land 0xFF);
  s

let mk_bytes next n = Bytes.init n (fun _ -> Char.chr (next () land 0xFF))

let mk_cta next : Checkpoint.cta_snap =
  let n = 1 + (next () land 7) in
  {
    Checkpoint.c_ctaid =
      { Launch.x = next () land 3; y = next () land 1; z = 0 };
    c_shared = mk_bytes next (next () land 63);
    c_local = mk_bytes next (n * (next () land 15));
    c_threads =
      Array.init n (fun _ ->
          {
            Checkpoint.t_resume = next () land 7;
            t_state =
              (match next () mod 3 with
              | 0 -> Sched.Ready
              | 1 -> Sched.Blocked
              | _ -> Sched.Done);
          });
    c_cursor = next () mod n;
    c_remaining = next () land 7;
    c_calls_used = next () land 0xFFF;
    c_stalls = (if next () land 1 = 0 then [||] else Array.init n (fun _ -> next () land 3));
  }

let mk_snap seed : Checkpoint.t =
  let next = mk_rng seed in
  let nworkers = 1 + (next () land 3) in
  {
    Checkpoint.kernel = Fmt.str "k%d" (next () land 0xFF);
    grid = { Launch.x = 1 + (next () land 7); y = 1; z = 1 };
    block = { Launch.x = 1 + (next () land 31); y = 1; z = 1 };
    workers = nworkers;
    seq = 1 + (next () land 0xFF);
    global_size = 1 lsl 20;
    global_image = mk_bytes next (next () land 1023);
    params_image = mk_bytes next (next () land 63);
    worker_snaps =
      Array.init nworkers (fun _ ->
          {
            Checkpoint.w_next_cta = next () land 15;
            w_stats = mk_stats next;
            w_inflight =
              (if next () land 1 = 0 then None else Some (mk_cta next));
          });
    fault_state =
      (if next () land 1 = 0 then None
       else Some (Array.init 6 (fun _ -> next ())));
    hotness = [ (4, "digest-a", next () land 0xFF); (2, "digest-b", 1) ];
    quarantine = [ (4, "digest-a", 1 + (next () land 7)) ];
  }

(* ---- serialization round trip and corruption rejection ---- *)

let test_roundtrip_bit_identical =
  QCheck.Test.make ~count:100 ~name:"snapshot serialize/deserialize round trip"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let t = mk_snap seed in
      let data = Checkpoint.to_bytes t in
      let t' = Checkpoint.of_bytes ~path:"(test)" data in
      Bytes.equal data (Checkpoint.to_bytes t'))

let test_truncation_rejected =
  QCheck.Test.make ~count:60 ~name:"truncated snapshot rejected"
    QCheck.(pair (int_bound 1_000_000) (int_bound 10_000))
    (fun (seed, cut) ->
      let data = Checkpoint.to_bytes (mk_snap seed) in
      let cut = cut mod Bytes.length data in
      match
        Checkpoint.of_bytes ~path:"(test)" (Bytes.sub data 0 cut)
      with
      | _ -> false
      | exception e -> is_ckpt_error e)

let test_bitflip_rejected =
  QCheck.Test.make ~count:100 ~name:"corrupted snapshot byte rejected"
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, pos) ->
      let data = Checkpoint.to_bytes (mk_snap seed) in
      let pos = pos mod Bytes.length data in
      let bad = Bytes.copy data in
      Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor 0x5A));
      match Checkpoint.of_bytes ~path:"(test)" bad with
      | _ -> false
      | exception e -> is_ckpt_error e)

let test_trailing_bytes_rejected () =
  let data = Checkpoint.to_bytes (mk_snap 42) in
  let padded = Bytes.cat data (Bytes.make 3 'x') in
  match Checkpoint.of_bytes ~path:"(test)" padded with
  | _ -> Alcotest.fail "trailing bytes accepted"
  | exception e ->
      Alcotest.(check bool) "structured error" true (is_ckpt_error e)

(* A warp width outside 1..511 (the widest warp compiled code holds) in
   a snapshot's histogram is a structured checkpoint error, however far
   outside it lies; 511 itself decodes.  The width is rewritten in an
   encoded snapshot, whose digest is then recomputed. *)
let test_bad_warp_width_rejected () =
  let snap = mk_snap 7 and count = 0x5EED_F00D in
  let stats = snap.Checkpoint.worker_snaps.(0).Checkpoint.w_stats in
  Stats.add_warps stats 8 count;
  let data = Checkpoint.to_bytes snap in
  let pair = Bytes.create 16 in
  Bytes.set_int64_le pair 0 8L;
  Bytes.set_int64_le pair 8 (Int64.of_int count);
  let rec find k =
    if k + 16 > Bytes.length data then Alcotest.fail "histogram pair not found"
    else if Bytes.equal (Bytes.sub data k 16) pair then k
    else find (k + 1)
  in
  let at = find Checkpoint.header_bytes in
  let with_width ws =
    let b = Bytes.copy data in
    Bytes.set_int64_le b at (Int64.of_int ws);
    let plen = Bytes.length b - Checkpoint.header_bytes in
    Bytes.blit_string (Digest.subbytes b Checkpoint.header_bytes plen) 0 b 12 16;
    b
  in
  let ok = Checkpoint.of_bytes ~path:"(test)" (with_width Interp.max_lanes) in
  Alcotest.(check int) "width 511 decodes" count
    (Stats.warp_count ok.Checkpoint.worker_snaps.(0).Checkpoint.w_stats Interp.max_lanes);
  List.iter
    (fun ws ->
      match Checkpoint.of_bytes ~path:"(test)" (with_width ws) with
      | _ -> Alcotest.failf "warp width %d accepted" ws
      | exception e ->
          Alcotest.(check bool) (Fmt.str "width %d: structured error" ws) true (is_ckpt_error e))
    [ 0; -1; Interp.max_lanes + 1; 1 lsl 40; max_int ]

(* ---- interrupted + resumed = uninterrupted, across the registry ---- *)

let fresh_run ?(config = Api.default_config) ?checkpoint_stop (w : Workload.t)
    =
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup dev in
  let report =
    Api.launch ?checkpoint_stop m ~kernel:w.Workload.kernel
      ~grid:inst.Workload.grid ~block:inst.Workload.block
      ~args:inst.Workload.args
  in
  (dev, m, inst, report)

let check_int_stats what ~(expect : Stats.t) ~(got : Stats.t) =
  let ci name a b = Alcotest.(check int) (what ^ ": " ^ name) a b in
  List.iter
    (fun (name, get, _) ->
      ci name (get expect.Stats.counters) (get got.Stats.counters))
    Interp.int_counter_fields;
  ci "barrier_releases" expect.Stats.barrier_releases got.Stats.barrier_releases;
  ci "threads_launched" expect.Stats.threads_launched got.Stats.threads_launched

(* Run the workload once uninterrupted; then again with the checkpoint
   policy stopping the launch after its [stop]th snapshot, and resume
   the interrupted launch from that snapshot in a third, fresh module.
   Final global memory must be bit-identical and the merged integer
   statistics equal. *)
let test_resume_differential ~workers ~stop (w : Workload.t) () =
  let dir = Filename.concat tmpdir (Fmt.str "%s-w%d" w.Workload.name workers) in
  let config =
    {
      Api.default_config with
      workers = Some workers;
      checkpoint_every = 3;
      checkpoint_dir = dir;
    }
  in
  let dev0, _, inst0, r0 =
    fresh_run ~config:{ config with checkpoint_every = 0 } w
  in
  (match inst0.Workload.check dev0 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s uninterrupted: %s" w.Workload.name e);
  match fresh_run ~config ~checkpoint_stop:stop w with
  | dev1, _, inst1, r1 ->
      (* the launch completed before [stop] snapshots accumulated: it
         still ran under the checkpoint policy, so the results must be
         untouched by snapshotting *)
      (match inst1.Workload.check dev1 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s checkpointed: %s" w.Workload.name e);
      Alcotest.(check bool)
        (Fmt.str "%s w%d: checkpointing leaves memory identical"
           w.Workload.name workers)
        true
        (Mem.equal dev0.Api.global dev1.Api.global);
      check_int_stats
        (Fmt.str "%s w%d ckpt-on" w.Workload.name workers)
        ~expect:r0.Api.stats ~got:r1.Api.stats
  | exception Checkpoint.Stop snap_path ->
      let dev2 = Api.create_device () in
      let m2 = Api.load_module ~config dev2 w.Workload.src in
      let inst2 = w.Workload.setup dev2 in
      let r2 =
        Api.launch ~resume:snap_path m2 ~kernel:w.Workload.kernel
          ~grid:inst2.Workload.grid ~block:inst2.Workload.block
          ~args:inst2.Workload.args
      in
      (match inst2.Workload.check dev2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s resumed: %s" w.Workload.name e);
      Alcotest.(check bool)
        (Fmt.str "%s w%d: resumed memory bit-identical to uninterrupted"
           w.Workload.name workers)
        true
        (Mem.equal dev0.Api.global dev2.Api.global);
      check_int_stats
        (Fmt.str "%s w%d resumed" w.Workload.name workers)
        ~expect:r0.Api.stats ~got:r2.Api.stats;
      Alcotest.(check bool)
        (Fmt.str "%s w%d: resume accounted" w.Workload.name workers)
        true
        (counter_value m2 ~kernel:w.Workload.kernel r2 "ckpt.resumes" >= 1)

(* ---- spill/restore round trip at a forced yield point ----

   Two-phase barrier kernel: phase 1 doubles x into tmp, phase 2 reads
   the wrapped right neighbour after bar.sync.  Stopping at the second
   snapshot with checkpoint_every=1 lands inside the CTA with live
   values spilled by the exit handlers and threads parked at the
   barrier; the resumed run must restore them through the entry
   handlers and still produce the exact ring sums. *)
let ringsum_src =
  {|
.entry ringsum (.param .u64 x, .param .u64 tmp, .param .u64 out, .param .u32 n)
{
  .reg .u32 %t, %n, %j;
  .reg .u64 %px, %pt, %po, %off, %offj;
  .reg .f32 %v, %w;
  .reg .pred %p;

  mov.u32 %t, %tid.x;
  ld.param.u32 %n, [n];
  cvt.u64.u32 %off, %t;
  shl.b64 %off, %off, 2;
  ld.param.u64 %px, [x];
  add.u64 %px, %px, %off;
  ld.global.f32 %v, [%px];
  add.f32 %v, %v, %v;
  ld.param.u64 %pt, [tmp];
  add.u64 %pt, %pt, %off;
  st.global.f32 [%pt], %v;

  bar.sync 0;

  add.u32 %j, %t, 1;
  setp.lt.u32 %p, %j, %n;
  @%p bra NOWRAP;
  mov.u32 %j, 0;
NOWRAP:
  cvt.u64.u32 %offj, %j;
  shl.b64 %offj, %offj, 2;
  ld.param.u64 %pt, [tmp];
  add.u64 %pt, %pt, %offj;
  ld.global.f32 %w, [%pt];
  add.f32 %v, %v, %w;
  ld.param.u64 %po, [out];
  add.u64 %po, %po, %off;
  st.global.f32 [%po], %v;
  exit;
}
|}

let ringsum_setup dev =
  let n = 8 in
  let x = Api.malloc dev (4 * n) in
  Api.write_f32s dev x (List.init n (fun i -> float_of_int (i + 1)));
  let tmp = Api.malloc dev (4 * n) in
  let out = Api.malloc dev (4 * n) in
  let args = [ Launch.Ptr x; Launch.Ptr tmp; Launch.Ptr out; Launch.I32 n ] in
  (n, out, args)

let ringsum_expected n =
  List.init n (fun i ->
      float_of_int (2 * (i + 1)) +. float_of_int (2 * (((i + 1) mod n) + 1)))

let test_spill_restore_roundtrip () =
  let dir = Filename.concat tmpdir "ringsum" in
  let config =
    {
      Api.default_config with
      checkpoint_every = 1;
      checkpoint_dir = dir;
      workers = Some 1;
    }
  in
  let launch ?resume ?checkpoint_stop () =
    let dev = Api.create_device () in
    let m = Api.load_module ~config dev ringsum_src in
    let n, out, args = ringsum_setup dev in
    ignore
      (Api.launch ?resume ?checkpoint_stop m ~kernel:"ringsum"
         ~grid:(Launch.dim3 1) ~block:(Launch.dim3 n) ~args);
    Api.read_f32s dev out n
  in
  (* stop at snapshot 2: past the first dispatches, threads blocked at
     the barrier with their registers spilled to the local arena *)
  match launch ~checkpoint_stop:2 () with
  | _ -> Alcotest.fail "expected Checkpoint.Stop"
  | exception Checkpoint.Stop snap ->
      let s = Checkpoint.read snap in
      let parked =
        Array.fold_left
          (fun acc (ws : Checkpoint.worker_snap) ->
            match ws.Checkpoint.w_inflight with
            | None -> acc
            | Some c ->
                acc
                + Array.fold_left
                    (fun a (t : Checkpoint.thread_snap) ->
                      if t.Checkpoint.t_state <> Sched.Done then a + 1 else a)
                    0 c.Checkpoint.c_threads)
          0 s.Checkpoint.worker_snaps
      in
      Alcotest.(check bool) "snapshot holds live thread contexts" true
        (parked > 0);
      Alcotest.(check (list (float 1e-6)))
        "resumed ring sums exact" (ringsum_expected 8)
        (launch ~resume:snap ())

(* ---- record / replay determinism ---- *)

let warp_formed_list events =
  List.filter_map
    (function
      | Obs.Event.Warp_formed { worker; entry_id; size; _ } ->
          Some (worker, entry_id, size)
      | _ -> None)
    events

let test_record_replay_determinism () =
  List.iter
    (fun (w : Workload.t) ->
      let log = Filename.concat tmpdir (w.Workload.name ^ ".sched") in
      let run config =
        let events = ref [] in
        let sink = Obs.Sink.fn (fun e -> events := e :: !events) in
        let dev = Api.create_device () in
        let m = Api.load_module ~config dev w.Workload.src in
        let inst = w.Workload.setup dev in
        ignore
          (Api.launch ~sink m ~kernel:w.Workload.kernel
             ~grid:inst.Workload.grid ~block:inst.Workload.block
             ~args:inst.Workload.args);
        (match inst.Workload.check dev with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" w.Workload.name e);
        List.rev !events
      in
      let base = { Api.default_config with workers = Some 4 } in
      let recorded = run { base with record = Some log } in
      let replayed = run { base with replay = Some log } in
      Alcotest.(check bool)
        (Fmt.str "%s: replay begins" w.Workload.name)
        true
        (List.exists
           (function Obs.Event.Replay_begin _ -> true | _ -> false)
           replayed);
      Alcotest.(check (list (triple int int int)))
        (Fmt.str "%s: identical warp-formation sequence" w.Workload.name)
        (warp_formed_list recorded)
        (warp_formed_list replayed))
    (List.filteri (fun i _ -> i < 6) Registry.all)

let test_replay_divergence_detected () =
  let w = Registry.find_exn "vecadd" in
  let log = Filename.concat tmpdir "diverge.sched" in
  let run config ~grid =
    let dev = Api.create_device () in
    let m = Api.load_module ~config dev w.Workload.src in
    let inst = w.Workload.setup dev in
    ignore
      (Api.launch m ~kernel:w.Workload.kernel ~grid
         ~block:inst.Workload.block ~args:inst.Workload.args)
  in
  let dev = Api.create_device () in
  let inst = (Registry.find_exn "vecadd").Workload.setup dev in
  let grid = inst.Workload.grid in
  run { Api.default_config with record = Some log } ~grid;
  (* a different block shape cannot follow the recorded schedule *)
  (match
     run { Api.default_config with replay = Some log }
       ~grid:{ grid with Launch.x = grid.Launch.x + 1 }
   with
  | () -> Alcotest.fail "replay against a different grid accepted"
  | exception e ->
      Alcotest.(check bool) "structured divergence" true (is_ckpt_error e));
  (* a dispatch edited to repeat a thread, drop one or add one must be
     refused before it runs, not executed with wrong lanes *)
  let base = { Api.default_config with workers = Some 1 } in
  run { base with record = Some log } ~grid;
  let lines = In_channel.with_open_bin log In_channel.input_lines in
  let edited members =
    let path = Filename.concat tmpdir "diverge-edited.sched" in
    let first = ref true in
    Out_channel.with_open_bin path (fun oc ->
        List.iter
          (fun line ->
            let line =
              match String.split_on_char ' ' line with
              | [ "d"; cta; start; entry; scanned; ws; ms ] when !first ->
                  first := false;
                  Alcotest.(check string) "first dispatch packs 0-3" "0,1,2,3" ms;
                  String.concat " " [ "d"; cta; start; entry; scanned; ws; members ]
              | _ -> line
            in
            output_string oc (line ^ "\n"))
          lines);
    path
  in
  List.iter
    (fun members ->
      match run { base with replay = Some (edited members) } ~grid with
      | () -> Alcotest.failf "replay with members %s accepted" members
      | exception Vekt_error.Error (Vekt_error.Checkpoint { reason; _ }) ->
          Alcotest.(check bool)
            (Fmt.str "members %s: %s" members reason)
            true
            (String.starts_with ~prefix:"replay diverged" reason)
      | exception e ->
          Alcotest.failf "members %s: %s" members (Printexc.to_string e))
    [ "0,1,2,2"; "0,1,2"; "0,1,2,3,4" ]

let test_replay_log_truncation_rejected () =
  let w = Registry.find_exn "vecadd" in
  let log = Filename.concat tmpdir "trunc.sched" in
  let dev = Api.create_device () in
  let m =
    Api.load_module ~config:{ Api.default_config with record = Some log } dev
      w.Workload.src
  in
  let inst = w.Workload.setup dev in
  ignore
    (Api.launch m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
       ~block:inst.Workload.block ~args:inst.Workload.args);
  let lines = In_channel.with_open_bin log In_channel.input_lines in
  let keep = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  Out_channel.with_open_bin log (fun oc ->
      List.iter (fun l -> Printf.fprintf oc "%s\n" l) keep);
  match Replay.load log with
  | _ -> Alcotest.fail "truncated log accepted"
  | exception e ->
      Alcotest.(check bool) "structured truncation error" true
        (is_ckpt_error e)

(* ---- corrupted snapshot: structured rejection, oracle fallback ---- *)

let corrupt_copy snap =
  let data =
    In_channel.with_open_bin snap In_channel.input_all |> Bytes.of_string
  in
  let pos = Bytes.length data - 8 in
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0xFF));
  let bad = snap ^ ".bad" in
  Out_channel.with_open_bin bad (fun oc -> Out_channel.output_bytes oc data);
  bad

let test_corrupt_resume () =
  let w = Registry.find_exn "vecadd" in
  let dir = Filename.concat tmpdir "corrupt" in
  let config =
    {
      Api.default_config with
      checkpoint_every = 1;
      checkpoint_dir = dir;
      workers = Some 1;
    }
  in
  let snap =
    match fresh_run ~config ~checkpoint_stop:1 w with
    | _ -> Alcotest.fail "expected Checkpoint.Stop"
    | exception Checkpoint.Stop snap -> snap
  in
  let bad = corrupt_copy snap in
  (* without recovery: the structured error surfaces *)
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup dev in
  (match
     Api.launch ~resume:bad m ~kernel:w.Workload.kernel
       ~grid:inst.Workload.grid ~block:inst.Workload.block
       ~args:inst.Workload.args
   with
  | _ -> Alcotest.fail "corrupted snapshot accepted"
  | exception e ->
      Alcotest.(check bool) "structured rejection" true (is_ckpt_error e));
  (* with recovery armed: rejected, then the emulator oracle completes
     the launch with correct results *)
  let dev2 = Api.create_device () in
  let m2 =
    Api.load_module ~config:{ config with recover = true } dev2 w.Workload.src
  in
  let inst2 = w.Workload.setup dev2 in
  let r =
    Api.launch ~resume:bad m2 ~kernel:w.Workload.kernel
      ~grid:inst2.Workload.grid ~block:inst2.Workload.block
      ~args:inst2.Workload.args
  in
  (match inst2.Workload.check dev2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "oracle fallback results: %s" e);
  (match r.Api.recovered with
  | Some (Vekt_error.Checkpoint _) -> ()
  | _ -> Alcotest.fail "expected Checkpoint recovery cause");
  Alcotest.(check int) "one emulator run" 1
    (counter_value m2 ~kernel:w.Workload.kernel r "fallback.emulator_runs");
  Alcotest.(check bool) "rejection counted" true
    (counter_value m2 ~kernel:w.Workload.kernel r "ckpt.rejected" >= 1)

(* ---- in-launch fault recovery resumes from the newest snapshot ---- *)

let test_fault_recovery_resumes_from_checkpoint () =
  let w = Registry.find_exn "vecadd" in
  let dir = Filename.concat tmpdir "fault-resume" in
  let config =
    {
      Api.default_config with
      checkpoint_every = 2;
      checkpoint_dir = dir;
      workers = Some 1;
      recover = true;
      inject =
        Some
          {
            Fault.seed = 7;
            specs = [ Fault.Mem_trap { nth = 40; kernel = None } ];
          };
    }
  in
  let dev0, _, inst0, _ = fresh_run w (* uninterrupted reference *) in
  ignore inst0;
  let dev, m, inst, r = fresh_run ~config w in
  (match inst.Workload.check dev with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recovered results: %s" e);
  Alcotest.(check bool) "memory identical to clean run" true
    (Mem.equal dev0.Api.global dev.Api.global);
  Alcotest.(check bool) "no oracle run" true (r.Api.recovered = None);
  Alcotest.(check int) "no emulator fallback" 0
    (counter_value m ~kernel:w.Workload.kernel r "fallback.emulator_runs");
  Alcotest.(check bool) "resumed from a snapshot" true
    (counter_value m ~kernel:w.Workload.kernel r "ckpt.resumes" >= 1)

(* ---- the snapshot log ---- *)

(* Byte offset of every record framed in a snapshot log, in file order:
   each header's payload length (at byte 28) locates the next. *)
let record_offsets data =
  let rec go off acc =
    if off + Checkpoint.header_bytes > Bytes.length data then List.rev acc
    else
      let plen = Int64.to_int (Bytes.get_int64_le data (off + 28)) in
      go (off + Checkpoint.header_bytes + plen) (off :: acc)
  in
  go 0 []

let read_bytes path =
  In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string

let write_bytes path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc data)

let ckpt_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".ckpt")
  |> List.sort compare

(* The CI leg's launch: [ringsum_src] over 4 CTAs on one worker, with a
   snapshot at every [every]th safe point (default: every one; 32
   snapshots in all) into [dir]. *)
let ringsum4 ~dir ?(every = 1) ?resume ?checkpoint_stop () =
  let config =
    {
      Api.default_config with
      checkpoint_every = every;
      checkpoint_dir = dir;
      workers = Some 1;
    }
  in
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev ringsum_src in
  let n, out, args = ringsum_setup dev in
  let r =
    Api.launch ?resume ?checkpoint_stop m ~kernel:"ringsum"
      ~grid:(Launch.dim3 4) ~block:(Launch.dim3 n) ~args
  in
  (m, r, Api.read_f32s dev out n)

let fresh_dir name =
  let dir = Filename.concat tmpdir name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  dir

(* Every snapshot of a launch within the log's bound (every other safe
   point: 16 snapshots) lands in one log, [<kernel>.ckpt]; [read]
   returns its newest record, and each record is the snapshot [write]
   reported. *)
let test_log_one_file () =
  let dir = fresh_dir "log-one" in
  let m, r, got = ringsum4 ~dir ~every:2 () in
  Alcotest.(check (list (float 1e-6))) "ring sums" (ringsum_expected 8) got;
  let writes = counter_value m ~kernel:"ringsum" r "ckpt.writes" in
  Alcotest.(check bool) (Fmt.str "%d snapshots >= 3" writes) true (writes >= 3);
  Alcotest.(check bool)
    (Fmt.str "%d snapshots within the bound" writes)
    true
    (writes <= Checkpoint.max_log_records);
  Alcotest.(check (list string)) "exactly one log" [ "ringsum.ckpt" ]
    (ckpt_files dir);
  let path = Filename.concat dir "ringsum.ckpt" in
  let data = read_bytes path in
  Alcotest.(check int) "one record per snapshot" writes
    (List.length (record_offsets data));
  Alcotest.(check int) "bytes_written is the log's size" (Bytes.length data)
    (counter_value m ~kernel:"ringsum" r "ckpt.bytes_written");
  Alcotest.(check int) "read returns the highest seq" writes
    (Checkpoint.read path).Checkpoint.seq;
  (* a new launch into the same directory starts a new log *)
  (match ringsum4 ~dir ~checkpoint_stop:1 () with
  | _ -> Alcotest.fail "expected Checkpoint.Stop"
  | exception Checkpoint.Stop p ->
      Alcotest.(check string) "stop names the log" path p);
  Alcotest.(check int) "the earlier launch's log was replaced" 1
    (List.length (record_offsets (read_bytes path)));
  Alcotest.(check int) "its one record" 1 (Checkpoint.read path).Checkpoint.seq

(* A launch with more snapshots than the log's bound: the log never
   holds more than {!Checkpoint.max_log_records} records, the snapshot
   after the bound starts it afresh, and a launch stopped past the bound
   resumes from its log to the uninterrupted run's ring sums and integer
   statistics. *)
let test_log_bounded () =
  let bound = Checkpoint.max_log_records in
  let dir = fresh_dir "log-bounded" in
  let m, r0, clean = ringsum4 ~dir () in
  Alcotest.(check (list (float 1e-6))) "ring sums" (ringsum_expected 8) clean;
  let writes = counter_value m ~kernel:"ringsum" r0 "ckpt.writes" in
  Alcotest.(check bool) (Fmt.str "%d snapshots > %d" writes bound) true (writes > bound);
  let path = Filename.concat dir "ringsum.ckpt" in
  Alcotest.(check (list string)) "exactly one log" [ "ringsum.ckpt" ] (ckpt_files dir);
  Alcotest.(check int) "the records since the log last started afresh"
    (((writes - 1) mod bound) + 1)
    (List.length (record_offsets (read_bytes path)));
  Alcotest.(check int) "read returns the highest seq" writes
    (Checkpoint.read path).Checkpoint.seq;
  let stop = bound + 4 in
  let log =
    match ringsum4 ~dir:(fresh_dir "log-bounded-stop") ~checkpoint_stop:stop () with
    | _ -> Alcotest.fail "expected Checkpoint.Stop"
    | exception Checkpoint.Stop p -> p
  in
  Alcotest.(check int) "stopped past the bound: the records after it" 4
    (List.length (record_offsets (read_bytes log)));
  Alcotest.(check int) "its newest seq" stop (Checkpoint.read log).Checkpoint.seq;
  let m, r, got = ringsum4 ~dir:(fresh_dir "log-bounded-resume") ~resume:log () in
  Alcotest.(check (list (float 1e-6))) "resumed ring sums" clean got;
  check_int_stats "resumed past the bound" ~expect:r0.Api.stats ~got:r.Api.stats;
  Alcotest.(check int) "resumed once" 1 (counter_value m ~kernel:"ringsum" r "ckpt.resumes")

(* A log stopped after three snapshots, its last record cut short or
   bit-flipped, resumes from the second: the ring sums and the final
   integer statistics equal the uninterrupted run's. *)
let test_damaged_tail_resumes () =
  let _, r0, clean = ringsum4 ~dir:(fresh_dir "tail-clean") () in
  let dir = fresh_dir "tail" in
  let log =
    match ringsum4 ~dir ~checkpoint_stop:3 () with
    | _ -> Alcotest.fail "expected Checkpoint.Stop"
    | exception Checkpoint.Stop p -> p
  in
  Alcotest.(check int) "stopped at seq 3" 3 (Checkpoint.read log).Checkpoint.seq;
  let data = read_bytes log in
  let last =
    match List.rev (record_offsets data) with
    | last :: _ :: _ :: _ -> last
    | _ -> Alcotest.fail "expected three records"
  in
  let len = Bytes.length data in
  let flipped = Bytes.copy data in
  let pos = last + Checkpoint.header_bytes + ((len - last - Checkpoint.header_bytes) / 2) in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x10));
  List.iter
    (fun (what, bad) ->
      let copy = Filename.concat (fresh_dir ("tail-" ^ what)) "ringsum.ckpt" in
      write_bytes copy bad;
      Alcotest.(check int) (what ^ ": newest valid record") 2
        (Checkpoint.read copy).Checkpoint.seq;
      let m, r, got = ringsum4 ~dir ~resume:copy () in
      Alcotest.(check (list (float 1e-6))) (what ^ ": ring sums") clean got;
      check_int_stats (what ^ " resumed") ~expect:r0.Api.stats ~got:r.Api.stats;
      Alcotest.(check int) (what ^ ": resumed once") 1
        (counter_value m ~kernel:"ringsum" r "ckpt.resumes"))
    [
      ("cut", Bytes.sub data 0 (last + ((len - last) / 2)));
      ("cut-header", Bytes.sub data 0 (last + 5));
      ("bitflip", flipped);
    ]

(* A file in which no record validates is the structured error, whatever
   the damage: empty, foreign bytes, a cut first record, or every
   record's digest broken. *)
let test_no_valid_record () =
  let dir = fresh_dir "log-invalid" in
  let one = Checkpoint.to_bytes (mk_snap 3) in
  let two = Bytes.cat one (Checkpoint.to_bytes (mk_snap 4)) in
  let flip_each data =
    let b = Bytes.copy data in
    List.iter
      (fun off ->
        let pos = off + Checkpoint.header_bytes in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1)))
      (record_offsets data);
    b
  in
  List.iter
    (fun (what, data) ->
      let path = Filename.concat dir (what ^ ".ckpt") in
      write_bytes path data;
      match Checkpoint.read path with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception e ->
          Alcotest.(check bool) (what ^ ": structured error") true (is_ckpt_error e))
    [
      ("empty", Bytes.empty);
      ("foreign", Bytes.make 100 'x');
      ("cut-first", Bytes.sub one 0 64);
      ("all-flipped", flip_each two);
    ];
  match Checkpoint.read (Filename.concat dir "absent.ckpt") with
  | _ -> Alcotest.fail "absent log accepted"
  | exception e -> Alcotest.(check bool) "absent: structured error" true (is_ckpt_error e)

(* The ladder's next rung is the newest valid record only when its own
   seq is above the last one tried: with the newest record damaged and
   an older one behind it, that older one is taken once and never
   again. *)
let test_ladder_never_retries () =
  let dir = fresh_dir "ladder" in
  let ctx = Checkpoint.create_ctx ~dir ~every:1 () in
  let snap seq = { (mk_snap 11) with Checkpoint.seq; kernel = "k" } in
  List.iter (fun seq -> ignore (Checkpoint.write ctx (snap seq))) [ 1; 2; 3 ];
  let seq_of = Option.map (fun (seq, _, (s : Checkpoint.t)) -> (seq, s.Checkpoint.seq)) in
  let next last_seq = seq_of (Checkpoint.next_resume ctx ~last_seq) in
  Alcotest.(check (option (pair int int))) "intact: newest" (Some (3, 3)) (next 0);
  Alcotest.(check (option (pair int int))) "nothing newer than 3" None (next 3);
  let path = Filename.concat dir "k.ckpt" in
  let data = read_bytes path in
  let pos = Bytes.length data - 1 in
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0x80));
  write_bytes path data;
  Alcotest.(check (option (pair int int)))
    "damaged newest: the record behind it, under its own seq" (Some (2, 2))
    (next 1);
  Alcotest.(check int) "no rejection yet" 0 ctx.Checkpoint.rejected;
  Alcotest.(check (option (pair int int))) "seq 2 already tried" None (next 2);
  Alcotest.(check int) "counted as rejected" 1 ctx.Checkpoint.rejected;
  write_bytes path (Bytes.sub data 0 10);
  Alcotest.(check (option (pair int int))) "no valid record" None (next 0);
  Alcotest.(check int) "counted as rejected" 2 ctx.Checkpoint.rejected

(* In-process: a launch whose appended records are all damaged on disk
   faults, resumes from the one valid record (its first) and completes
   with memory identical to a clean run, without the oracle. *)
let test_ladder_resumes_behind_damage () =
  let w = Registry.find_exn "vecadd" in
  let config =
    {
      Api.default_config with
      checkpoint_every = 1;
      checkpoint_dir = fresh_dir "ladder-e2e";
      workers = Some 1;
      recover = true;
      inject =
        Some
          { Fault.seed = 7; specs = [ Fault.Mem_trap { nth = 40; kernel = None } ] };
    }
  in
  let dev0, _, _, _ = fresh_run w in
  let damage data =
    let b = Bytes.of_string data in
    let pos = Bytes.length b - 1 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    Bytes.to_string b
  in
  let io =
    { Vekt_chaos.Io.real with
      Vekt_chaos.Io.append = (fun p d -> Vekt_chaos.Io.real.append p (damage d)) }
  in
  let resumed = ref [] in
  let sink =
    Obs.Sink.fn (function
      | Obs.Event.Ckpt_resume { seq; _ } -> resumed := seq :: !resumed
      | _ -> ())
  in
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup dev in
  let r =
    Vekt_chaos.Io.with_impl io (fun () ->
        Api.launch ~sink m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
          ~block:inst.Workload.block ~args:inst.Workload.args)
  in
  Alcotest.(check bool) "memory identical to clean run" true
    (Mem.equal dev0.Api.global dev.Api.global);
  Alcotest.(check bool) "no oracle run" true (r.Api.recovered = None);
  Alcotest.(check (list int)) "resumed once, from the first record" [ 1 ] !resumed;
  Alcotest.(check bool) "the fault came after appended records" true
    (counter_value m ~kernel:w.Workload.kernel r "ckpt.writes" >= 2)

(* ---- satellite: config validation at module load ---- *)

let test_config_validation () =
  let w = Registry.find_exn "vecadd" in
  let dev = Api.create_device () in
  let reject what config =
    match Api.load_module ~config dev w.Workload.src with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Vekt_error.Error (Vekt_error.Resource _) -> ()
    | exception Vekt_error.Error (Vekt_error.Checkpoint _) -> ()
  in
  reject "workers=0" { Api.default_config with workers = Some 0 };
  reject "workers=-2" { Api.default_config with workers = Some (-2) };
  reject "domains=0" { Api.default_config with domains = Some 0 };
  reject "checkpoint_every=-1"
    { Api.default_config with checkpoint_every = -1 };
  reject "cache_capacity=0" { Api.default_config with cache_capacity = Some 0 };
  reject "empty pipeline"
    {
      Api.default_config with
      pipeline =
        {
          Vekt_transform.Passes.default_pipeline with
          Vekt_transform.Passes.passes = [];
        };
    };
  reject "record+replay"
    { Api.default_config with record = Some "a"; replay = Some "b" };
  (* a healthy config still loads *)
  ignore (Api.load_module dev w.Workload.src)

(* ---- registration ---- *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "checkpoint"
    [
      ( "serialization",
        [
          q test_roundtrip_bit_identical;
          q test_truncation_rejected;
          q test_bitflip_rejected;
          Alcotest.test_case "trailing bytes rejected" `Quick
            test_trailing_bytes_rejected;
          Alcotest.test_case "warp width outside 1..511 rejected" `Quick
            test_bad_warp_width_rejected;
        ] );
      ( "resume-differential-w1",
        List.map
          (fun (w : Workload.t) ->
            Alcotest.test_case w.Workload.name `Quick
              (test_resume_differential ~workers:1 ~stop:1 w))
          some_workloads );
      ( "resume-differential-w4",
        List.map
          (fun (w : Workload.t) ->
            Alcotest.test_case w.Workload.name `Quick
              (test_resume_differential ~workers:4 ~stop:2 w))
          some_workloads );
      ( "spill-restore",
        [
          Alcotest.test_case "barrier yield round trip" `Quick
            test_spill_restore_roundtrip;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "determinism across registry" `Quick
            test_record_replay_determinism;
          Alcotest.test_case "divergence detected" `Quick
            test_replay_divergence_detected;
          Alcotest.test_case "truncated log rejected" `Quick
            test_replay_log_truncation_rejected;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "corrupt resume rejects, oracle completes" `Quick
            test_corrupt_resume;
        ] );
      ( "fault-recovery",
        [
          Alcotest.test_case "resumes from newest snapshot" `Quick
            test_fault_recovery_resumes_from_checkpoint;
        ] );
      ( "log",
        [
          Alcotest.test_case "one log per launch, newest seq" `Quick
            test_log_one_file;
          Alcotest.test_case "log bounded, resumes past the bound" `Quick
            test_log_bounded;
          Alcotest.test_case "damaged tail resumes from the previous record"
            `Quick test_damaged_tail_resumes;
          Alcotest.test_case "no valid record rejected" `Quick
            test_no_valid_record;
          Alcotest.test_case "ladder never re-resumes a tried seq" `Quick
            test_ladder_never_retries;
          Alcotest.test_case "ladder resumes behind damaged records" `Quick
            test_ladder_resumes_behind_damage;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation at load" `Quick test_config_validation;
        ] );
    ]
