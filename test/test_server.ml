(* Tests for the engine/session split and the persistent daemon layers:
   the JSON wire codec, the shared config construction path, the
   allocator's free list, cross-session translation-cache sharing
   (second tenant's hot launch compiles nothing), concurrent sessions
   over one engine vs the serial one-shot path, the admission queue's
   fairness / quotas / cancellation, checkpoint-based preemption with
   bit-identical resume, and the protocol dispatcher end to end. *)

module Api = Vekt_runtime.Api
module Engine = Vekt_runtime.Engine
module Checkpoint = Vekt_runtime.Checkpoint
module TC = Vekt_runtime.Translation_cache
module Stats = Vekt_runtime.Stats
module Obs = Vekt_obs
module J = Vekt_server.Jsonx
module Queue = Vekt_server.Queue
module Server = Vekt_server.Server
module Io = Vekt_chaos.Io
open Vekt_ptx
open Vekt_workloads

let tmpdir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Fmt.str "vekt-test-server-%d" (Unix.getpid ()))

let () = (try Sys.mkdir tmpdir 0o755 with Sys_error _ -> ())

let json = Alcotest.testable (Fmt.of_to_string J.to_string) ( = )

(* ---- jsonx: the wire codec ---- *)

let test_jsonx_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Int 42;
      J.Int (-7);
      J.Float 1.5;
      J.Str "hello";
      J.Str "esc \" \\ \n \t end";
      J.List [ J.Int 1; J.Int 2; J.Int 3 ];
      J.Obj
        [
          ("a", J.Int 1);
          ("nested", J.Obj [ ("xs", J.List [ J.Bool false; J.Null ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' -> Alcotest.check json (J.to_string v) v v'
      | Error e -> Alcotest.failf "round-trip %s: %s" (J.to_string v) e)
    cases

let test_jsonx_parse () =
  let ok s v =
    match J.of_string s with
    | Ok v' -> Alcotest.check json s v v'
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok {| {"a": 1, "b": [true, null], "c": "x"} |}
    (J.Obj
       [ ("a", J.Int 1); ("b", J.List [ J.Bool true; J.Null ]); ("c", J.Str "x") ]);
  ok {|"Aé"|} (J.Str "A\xc3\xa9");
  ok {|"😀"|} (J.Str "\xf0\x9f\x98\x80");
  ok "1e3" (J.Float 1000.0);
  ok "-12" (J.Int (-12));
  let bad s =
    match J.of_string s with
    | Ok v -> Alcotest.failf "%s: expected parse error, got %s" s (J.to_string v)
    | Error _ -> ()
  in
  bad "{\"a\":}";
  bad "[1,2";
  bad "tru";
  bad "1 2";
  bad "{\"a\":1,}";
  (* nesting bound: 70 levels of array must be rejected, not crash *)
  bad (String.concat "" (List.init 70 (fun _ -> "[")))

let test_jsonx_accessors () =
  let o = J.Obj [ ("n", J.Int 3); ("f", J.Float 2.0); ("s", J.Str "x") ] in
  Alcotest.(check (option int)) "int" (Some 3) (J.int_mem "n" o);
  Alcotest.(check (option int)) "integral float" (Some 2) (J.int_mem "f" o);
  Alcotest.(check (option int)) "wrong type" None (J.int_mem "s" o);
  Alcotest.(check (option string)) "str" (Some "x") (J.str_mem "s" o);
  Alcotest.(check (option string)) "missing" None (J.str_mem "zz" o)

(* ---- config_of_spec: the shared CLI/daemon construction path ---- *)

let config_ok spec =
  match Api.config_of_spec spec with
  | Ok c -> c
  | Error e -> Alcotest.failf "config_of_spec: unexpected error %s" e

let test_config_of_spec () =
  let c = config_ok [] in
  Alcotest.(check (list int)) "default widths" Api.default_config.Api.widths
    c.Api.widths;
  let c = config_ok [ ("ws", "8") ] in
  Alcotest.(check (list int)) "ws=8 widths" [ 8; 1 ] c.Api.widths;
  let c = config_ok [ ("widths", "2,8,4,8") ] in
  Alcotest.(check (list int)) "widths sorted/deduped" [ 8; 4; 2 ] c.Api.widths;
  let c = config_ok [ ("tiered", "true"); ("hot-threshold", "2") ] in
  (match c.Api.tiering with
  | TC.Tiered { hot_threshold } ->
      Alcotest.(check int) "hot threshold" 2 hot_threshold
  | TC.Eager -> Alcotest.fail "expected tiered");
  let c = config_ok [ ("static", "yes") ] in
  Alcotest.(check bool) "static mode" true
    (c.Api.mode = Vekt_transform.Vectorize.Static_tie);
  let c = config_ok [ ("inject", "yield:every=8") ] in
  Alcotest.(check bool) "inject implies recover" true c.Api.recover;
  Alcotest.(check bool) "inject armed" true (Option.is_some c.Api.inject);
  let c = config_ok [ ("workers", "3"); ("checkpoint-every", "5") ] in
  Alcotest.(check (option int)) "workers" (Some 3) c.Api.workers;
  Alcotest.(check int) "checkpoint-every" 5 c.Api.checkpoint_every;
  let c = config_ok [ ("workers", "4"); ("domains", "2") ] in
  Alcotest.(check (option int)) "domains" (Some 2) c.Api.domains;
  Alcotest.(check string) "domains is physical: same cache key"
    (Api.config_fingerprint { c with domains = None } Vekt_vm.Machine.sse4)
    (Api.config_fingerprint c Vekt_vm.Machine.sse4);
  let contains s frag =
    let n = String.length s and m = String.length frag in
    let rec go i = i + m <= n && (String.sub s i m = frag || go (i + 1)) in
    m = 0 || go 0
  in
  let expect_err spec frag =
    match Api.config_of_spec spec with
    | Ok _ -> Alcotest.failf "expected error on %s" frag
    | Error e ->
        Alcotest.(check bool)
          (Fmt.str "error mentions %s: %s" frag e)
          true (contains e frag)
  in
  expect_err [ ("no-such-knob", "1") ] "unknown config key";
  expect_err [ ("ws", "four") ] "bad integer";
  expect_err [ ("mode", "quantum") ] "mode";
  expect_err [ ("sched", "zzz") ] "sched";
  expect_err [ ("inject", "frobnicate:p=1") ] "inject"

(* ---- the allocator: free-list reuse, coalescing, errors ---- *)

let test_malloc_free_reuse () =
  let dev = Api.create_device () in
  let a = Api.malloc dev 100 in
  Alcotest.(check int) "16-aligned" 0 (a mod 16);
  let b = Api.malloc dev 100 in
  Api.free dev a;
  let a' = Api.malloc dev 64 in
  Alcotest.(check int) "freed block reused" a a';
  Api.free dev a';
  Api.free dev b;
  let c = Api.malloc dev 100 in
  Alcotest.(check int) "brk lowered after tail frees" a c

let test_malloc_coalesce () =
  let dev = Api.create_device () in
  let a = Api.malloc dev 16 in
  let b = Api.malloc dev 16 in
  let _guard = Api.malloc dev 16 in
  Api.free dev a;
  Api.free dev b;
  (* a and b are adjacent; coalesced they fit a 32-byte block *)
  let d = Api.malloc dev 32 in
  Alcotest.(check int) "coalesced neighbours reused" a d

let expect_resource what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Resource error" what
  | exception Vekt_error.Error (Vekt_error.Resource _) -> ()

let test_malloc_errors () =
  let dev = Api.create_device ~global_bytes:1024 () in
  expect_resource "exhaustion" (fun () -> Api.malloc dev 4096);
  let a = Api.malloc dev 64 in
  Api.write_f32s dev a [ 1.0; 2.0 ];
  Api.free dev a;
  Alcotest.(check (list (float 0.0))) "freed memory zeroed" [ 0.0; 0.0 ]
    (Api.read_f32s dev a 2);
  expect_resource "double free" (fun () -> Api.free dev a);
  expect_resource "bogus free" (fun () -> Api.free dev 4)

let test_reset_arena () =
  let dev = Api.create_device () in
  let a = Api.malloc dev 64 in
  Api.write_f32s dev a [ 9.0; 9.0 ];
  Alcotest.(check bool) "live bytes" true (Api.allocated_bytes dev > 0);
  Api.reset_arena dev;
  Alcotest.(check int) "no live allocations" 0 (Api.allocated_bytes dev);
  let a' = Api.malloc dev 64 in
  Alcotest.(check int) "arena restarts at the base" a a';
  Alcotest.(check (list (float 0.0))) "memory zeroed" [ 0.0; 0.0 ]
    (Api.read_f32s dev a' 2)

(* ---- metrics merge (per-tenant scrape aggregation) ---- *)

let test_metrics_merge () =
  let module M = Obs.Metrics in
  let src = M.create () in
  M.incr ~by:2 (M.counter src "jit.cache_hits");
  M.set (M.gauge src "g") 1.5;
  M.observe (M.histogram src "h") 1;
  M.observe (M.histogram src "h") 3;
  let into = M.create () in
  M.merge_into ~into src;
  M.merge_into ~into src;
  Alcotest.(check int) "counters add" 4 !(M.counter into "jit.cache_hits");
  Alcotest.(check (float 0.0)) "gauge takes last" 1.5 !(M.gauge into "g");
  let pref = M.create () in
  M.merge_into ~into:pref ~prefix:"t." src;
  Alcotest.(check int) "prefix applied" 2 !(M.counter pref "t.jit.cache_hits")

(* ---- engine: cross-session cache sharing ---- *)

let vecadd = W_vecadd.workload

let hot_config =
  {
    Api.default_config with
    Api.tiering = TC.Tiered { hot_threshold = 1 };
    workers = Some 1;
  }

let run_in_session ?sink engine (w : Workload.t) =
  let dev = Api.create_device ~engine () in
  let m = Api.load_module ~config:hot_config ?sink dev w.Workload.src in
  let inst = w.Workload.setup dev in
  let r =
    Api.launch ?sink m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
      ~block:inst.Workload.block ~args:inst.Workload.args
  in
  (match inst.Workload.check dev with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" w.Workload.name e);
  (dev, m, r)

let test_engine_cache_sharing () =
  let engine = Engine.create () in
  (* session 1 pays the compilations and promotes the kernel hot *)
  let _ = run_in_session engine vecadd in
  (* session 2: same source, same config -> every specialization is
     already in the shared cache; nothing compiles *)
  let compile_begins = ref 0 in
  let reg = Obs.Metrics.create () in
  let sink =
    Obs.Sink.tee (Obs.Tally.sink reg)
      (Obs.Sink.fn (function
        | Obs.Event.Compile_begin _ -> incr compile_begins
        | _ -> ()))
  in
  let _ = run_in_session ~sink engine vecadd in
  Alcotest.(check int) "no Compile_begin span in second session" 0
    !compile_begins;
  Alcotest.(check int) "tally: second session compiles nothing" 0
    !(Obs.Metrics.counter reg "jit.compiles");
  Alcotest.(check bool) "tally: second session hits the shared cache" true
    (!(Obs.Metrics.counter reg "jit.cache_hits") > 0);
  let ereg = Obs.Metrics.create () in
  Engine.metrics_into engine ereg;
  Alcotest.(check int) "one shared cache built" 1
    !(Obs.Metrics.counter ereg "engine.cache_builds");
  Alcotest.(check bool) "table served the reuse" true
    (!(Obs.Metrics.counter ereg "engine.cache_reuses") >= 1);
  Alcotest.(check int) "two sessions attached" 2
    !(Obs.Metrics.counter ereg "engine.sessions")

let test_engine_private_without_sharing () =
  (* one-shot path: a device without an explicit engine gets a private
     one, so a second one-shot device recompiles from scratch *)
  let compile_begins = ref 0 in
  let sink =
    Obs.Sink.fn (function
      | Obs.Event.Compile_begin _ -> incr compile_begins
      | _ -> ())
  in
  let _ = run_in_session ~sink (Engine.create ()) vecadd in
  let first = !compile_begins in
  Alcotest.(check bool) "cold session compiles" true (first > 0);
  let _ = run_in_session ~sink (Engine.create ()) vecadd in
  Alcotest.(check int) "fresh engine recompiles" (2 * first) !compile_begins

(* ---- concurrent sessions over one engine vs serial one-shot ---- *)

let test_concurrent_sessions_differential () =
  (* serial one-shot reference *)
  let dev0, _, _ = run_in_session (Engine.create ()) vecadd in
  (* two sessions racing on the same shared engine, on real domains *)
  let engine = Engine.create () in
  let spawn () = Domain.spawn (fun () -> run_in_session engine vecadd) in
  let d1 = spawn () and d2 = spawn () in
  let dev1, _, r1 = Domain.join d1 and dev2, _, r2 = Domain.join d2 in
  Alcotest.(check bool) "session 1 memory = serial one-shot" true
    (Mem.equal dev0.Api.global dev1.Api.global);
  Alcotest.(check bool) "session 2 memory = serial one-shot" true
    (Mem.equal dev0.Api.global dev2.Api.global);
  Alcotest.(check int) "same dynamic instruction count"
    r1.Api.stats.Stats.counters.Vekt_vm.Interp.dyn_instrs
    r2.Api.stats.Stats.counters.Vekt_vm.Interp.dyn_instrs;
  let ereg = Obs.Metrics.create () in
  Engine.metrics_into engine ereg;
  Alcotest.(check int) "racing sessions built exactly one shared cache" 1
    !(Obs.Metrics.counter ereg "engine.cache_builds")

(* ---- the admission queue ---- *)

let drain q = while Queue.step q do () done

let test_queue_fairness () =
  let q = Queue.create () in
  Queue.set_tenant q ~name:"a" ~weight:1 ();
  Queue.set_tenant q ~name:"b" ~weight:3 ();
  let order = ref [] in
  let submit tenant n =
    for i = 1 to n do
      match
        Queue.submit q ~tenant ~label:(Fmt.str "%s%d" tenant i)
          ~run:(fun ~resume:_ ~preempt:_ ~deadline_ms:_ ~wait_us:_ ->
            order := tenant :: !order;
            raise Exit)
          ()
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "submit: %a" Vekt_error.pp e
    done
  in
  submit "a" 4;
  submit "b" 4;
  drain q;
  let picks = List.rev !order in
  (* stride scheduling: weight-3 tenant gets 3 of the first 4 slots
     (the very first pick goes to "a" on the alphabetical tie-break) *)
  Alcotest.(check (list string)) "first four picks" [ "a"; "b"; "b"; "b" ]
    (List.filteri (fun i _ -> i < 4) picks);
  Alcotest.(check int) "everything ran" 8 (List.length picks)

let test_queue_priority () =
  let q = Queue.create () in
  let order = ref [] in
  let submit tenant priority label =
    match
      Queue.submit q ~tenant ~priority ~label
        ~run:(fun ~resume:_ ~preempt:_ ~deadline_ms:_ ~wait_us:_ ->
          order := label :: !order;
          raise Exit)
        ()
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "submit: %a" Vekt_error.pp e
  in
  let _ = submit "t" 0 "low1" in
  let _ = submit "t" 0 "low2" in
  let _ = submit "u" 5 "high" in
  drain q;
  (* strictly higher priority bypasses stride order, but tenant "t"'s
     own FIFO order is preserved *)
  Alcotest.(check (list string)) "priority first" [ "high"; "low1"; "low2" ]
    (List.rev !order)

let test_queue_quota () =
  let q = Queue.create ~quota:2 () in
  let submit () =
    Queue.submit q ~tenant:"t"
      ~run:(fun ~resume:_ ~preempt:_ ~deadline_ms:_ ~wait_us:_ -> raise Exit)
      ()
  in
  (match (submit (), submit ()) with
  | Ok _, Ok _ -> ()
  | _ -> Alcotest.fail "first two submissions admitted");
  (match submit () with
  | Ok _ -> Alcotest.fail "third submission should be rejected"
  | Error (Vekt_error.Resource { requested; available; _ }) ->
      Alcotest.(check int) "requested" 3 requested;
      Alcotest.(check int) "available" 2 available
  | Error e -> Alcotest.failf "wrong error: %a" Vekt_error.pp e);
  drain q;
  (* slots free up once jobs finish *)
  match submit () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-drain submit: %a" Vekt_error.pp e

let test_queue_cancel () =
  let q = Queue.create () in
  let ran = ref false in
  let j =
    match
      Queue.submit q ~tenant:"t"
        ~run:(fun ~resume:_ ~preempt:_ ~deadline_ms:_ ~wait_us:_ ->
          ran := true;
          raise Exit)
        ()
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "submit: %a" Vekt_error.pp e
  in
  Alcotest.(check bool) "cancel admitted job" true (Queue.cancel q ~id:j.Queue.id);
  Alcotest.(check bool) "second cancel is a no-op" false
    (Queue.cancel q ~id:j.Queue.id);
  Alcotest.(check bool) "nothing runnable" false (Queue.step q);
  Alcotest.(check bool) "run body never executed" false !ran;
  match Queue.info q ~id:j.Queue.id with
  | Some i ->
      Alcotest.(check string) "state" "cancelled" (Queue.state_name i.Queue.i_state)
  | None -> Alcotest.fail "job vanished"

(* ---- checkpoint preemption: preempt -> resume = uninterrupted ---- *)

let test_api_preempt_resume_bit_identical () =
  let dir = Filename.concat tmpdir "api-preempt" in
  let config = { Api.default_config with Api.workers = Some 1 } in
  (* uninterrupted reference *)
  let dev0 = Api.create_device () in
  let m0 = Api.load_module ~config dev0 vecadd.Workload.src in
  let inst0 = vecadd.Workload.setup dev0 in
  let r0 =
    Api.launch m0 ~kernel:"vecadd" ~grid:inst0.Workload.grid
      ~block:inst0.Workload.block ~args:inst0.Workload.args
  in
  (* preempted run: token armed before launch, so the very first safe
     point snapshots and stops *)
  let dev1 = Api.create_device () in
  let m1 = Api.load_module ~config dev1 vecadd.Workload.src in
  let inst1 = vecadd.Workload.setup dev1 in
  let preempt = Checkpoint.preempt_token () in
  Checkpoint.request_preempt preempt;
  let snap =
    match
      Api.launch ~preempt ~ckpt_dir:dir m1 ~kernel:"vecadd"
        ~grid:inst1.Workload.grid ~block:inst1.Workload.block
        ~args:inst1.Workload.args
    with
    | _ -> Alcotest.fail "expected Checkpoint.Stop"
    | exception Checkpoint.Stop path -> path
  in
  Alcotest.(check bool) "token consumed at the safe point" false
    (Checkpoint.preempt_requested preempt);
  (* resume in a fresh session *)
  let dev2 = Api.create_device () in
  let m2 = Api.load_module ~config dev2 vecadd.Workload.src in
  let inst2 = vecadd.Workload.setup dev2 in
  let r2 =
    Api.launch ~resume:snap m2 ~kernel:"vecadd" ~grid:inst2.Workload.grid
      ~block:inst2.Workload.block ~args:inst2.Workload.args
  in
  (match inst2.Workload.check dev2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "resumed: %s" e);
  Alcotest.(check bool) "preempted-then-resumed memory bit-identical" true
    (Mem.equal dev0.Api.global dev2.Api.global);
  Alcotest.(check int) "dynamic instructions preserved"
    r0.Api.stats.Stats.counters.Vekt_vm.Interp.dyn_instrs
    r2.Api.stats.Stats.counters.Vekt_vm.Interp.dyn_instrs

let test_queue_preempt_resume () =
  let dir = Filename.concat tmpdir "queue-preempt" in
  let config = { Api.default_config with Api.workers = Some 1 } in
  let dev0 = Api.create_device () in
  let m0 = Api.load_module ~config dev0 vecadd.Workload.src in
  let inst0 = vecadd.Workload.setup dev0 in
  let _ =
    Api.launch m0 ~kernel:"vecadd" ~grid:inst0.Workload.grid
      ~block:inst0.Workload.block ~args:inst0.Workload.args
  in
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev vecadd.Workload.src in
  let inst = vecadd.Workload.setup dev in
  let q = Queue.create () in
  let j =
    match
      Queue.submit q ~tenant:"t" ~label:"vecadd"
        ~run:(fun ~resume ~preempt ~deadline_ms:_ ~wait_us:_ ->
          (* first attempt preempts itself at the first safe point;
             the resumed attempt runs to completion *)
          if resume = None then Checkpoint.request_preempt preempt;
          Api.launch ~preempt ?resume ~ckpt_dir:dir m ~kernel:"vecadd"
            ~grid:inst.Workload.grid ~block:inst.Workload.block
            ~args:inst.Workload.args)
        ()
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "submit: %a" Vekt_error.pp e
  in
  Alcotest.(check bool) "first step runs the job" true (Queue.step q);
  (match Queue.info q ~id:j.Queue.id with
  | Some i ->
      Alcotest.(check string) "preempted at the safe point" "preempted"
        (Queue.state_name i.Queue.i_state);
      Alcotest.(check int) "one preemption" 1 i.Queue.i_preemptions;
      Alcotest.(check bool) "snapshot retained" true
        (Option.is_some i.Queue.i_resume_path)
  | None -> Alcotest.fail "job vanished");
  Alcotest.(check bool) "second step resumes it" true (Queue.step q);
  (match Queue.info q ~id:j.Queue.id with
  | Some i ->
      Alcotest.(check string) "done" "done" (Queue.state_name i.Queue.i_state)
  | None -> Alcotest.fail "job vanished");
  (match inst.Workload.check dev with
  | Ok () -> ()
  | Error e -> Alcotest.failf "resumed: %s" e);
  Alcotest.(check bool) "preempt-mid-flight then resume is bit-identical" true
    (Mem.equal dev0.Api.global dev.Api.global)

(* ---- the protocol dispatcher, end to end ---- *)

let req fields = J.Obj fields
let cmd c fields = req (("cmd", J.Str c) :: fields)

let get_ok what (r : J.t) =
  if J.bool_mem "ok" r <> Some true then
    Alcotest.failf "%s: %s" what (J.to_string r);
  r

let get_err what (r : J.t) : string =
  if J.bool_mem "ok" r <> Some false then
    Alcotest.failf "%s: expected ok:false, got %s" what (J.to_string r);
  match Option.bind (J.mem "error" r) (J.str_mem "kind") with
  | Some kind -> kind
  | None -> Alcotest.failf "%s: malformed error %s" what (J.to_string r)

let vecadd_args = [ "f32s:1,2,3,4"; "f32s:5,6,7,8"; "zeros:16"; "i32:4" ]

let submit_vecadd srv session =
  let r =
    get_ok "submit-launch"
      (Server.handle srv
         (cmd "submit-launch"
            [
              ("session", J.Int session);
              ("module", J.Int 0);
              ("kernel", J.Str "vecadd");
              ("grid", J.Int 1);
              ("block", J.Int 4);
              ("args", J.List (List.map (fun s -> J.Str s) vecadd_args));
            ]))
  in
  let job = Option.get (J.int_mem "job" r) in
  let out_addr =
    match J.list_mem "args" r with
    | Some [ _; _; J.Int addr; _ ] -> addr
    | _ -> Alcotest.failf "submit-launch args: %s" (J.to_string r)
  in
  (job, out_addr)

let open_session srv ?quota tenant =
  let fields =
    ("tenant", J.Str tenant)
    :: (match quota with None -> [] | Some q -> [ ("quota", J.Int q) ])
  in
  let r = get_ok "open-session" (Server.handle srv (cmd "open-session" fields)) in
  Option.get (J.int_mem "session" r)

let load_vecadd srv session =
  let r =
    get_ok "load-module"
      (Server.handle srv
         (cmd "load-module"
            [
              ("session", J.Int session);
              ("src", J.Str vecadd.Workload.src);
              ( "config",
                J.Obj
                  [
                    ("tiered", J.Bool true);
                    ("hot-threshold", J.Int 1);
                    ("workers", J.Int 1);
                  ] );
            ]))
  in
  Option.get (J.int_mem "module" r)

let tenant_counter stats tenant name =
  let v =
    Option.bind (J.mem "tenants" stats) (fun t ->
        Option.bind (J.mem tenant t) (fun o ->
            Option.bind (J.mem "metrics" o) (fun m ->
                Option.bind (J.mem name m) (J.int_mem "value"))))
  in
  match v with
  | Some n -> n
  | None -> Alcotest.failf "stats: missing %s for tenant %s" name tenant

let test_server_handle_end_to_end () =
  let srv =
    Server.create ~ckpt_dir:(Filename.concat tmpdir "srv-e2e") ()
  in
  let q = Server.queue srv in
  let r = get_ok "ping" (Server.handle srv (cmd "ping" [])) in
  Alcotest.(check (option int)) "version" (Some 1) (J.int_mem "version" r);
  (* two tenants, one engine *)
  let alice = open_session srv "alice" in
  let bob = open_session srv "bob" in
  Alcotest.(check int) "alice module id" 0 (load_vecadd srv alice);
  Alcotest.(check int) "bob module id" 0 (load_vecadd srv bob);
  (* alice pays the compilations *)
  let job_a, out_a = submit_vecadd srv alice in
  Alcotest.(check bool) "job runs" true (Queue.step q);
  let r = get_ok "poll" (Server.handle srv (cmd "poll" [ ("job", J.Int job_a) ])) in
  Alcotest.(check (option string)) "alice job done" (Some "done")
    (J.str_mem "state" r);
  Alcotest.(check bool) "result attached" true (J.mem "result" r <> None);
  let r =
    get_ok "read"
      (Server.handle srv
         (cmd "read"
            [
              ("session", J.Int alice);
              ("addr", J.Int out_a);
              ("ty", J.Str "f32");
              ("count", J.Int 4);
            ]))
  in
  Alcotest.check json "vecadd output read back"
    (J.List [ J.Float 6.0; J.Float 8.0; J.Float 10.0; J.Float 12.0 ])
    (Option.get (J.mem "values" r));
  (* bob's identical launch must be pure cache hits *)
  let job_b, _ = submit_vecadd srv bob in
  Alcotest.(check bool) "bob's job runs" true (Queue.step q);
  let r = get_ok "poll" (Server.handle srv (cmd "poll" [ ("job", J.Int job_b) ])) in
  Alcotest.(check (option string)) "bob job done" (Some "done")
    (J.str_mem "state" r);
  let stats = get_ok "stats" (Server.handle srv (cmd "stats" [])) in
  Alcotest.(check bool) "alice compiled" true
    (tenant_counter stats "alice" "jit.compiles" > 0);
  Alcotest.(check int) "bob compiled nothing" 0
    (tenant_counter stats "bob" "jit.compiles");
  Alcotest.(check bool) "bob hit the shared cache" true
    (tenant_counter stats "bob" "jit.cache_hits" > 0);
  (* free through the protocol; double free is a structured error *)
  let _ =
    get_ok "free"
      (Server.handle srv
         (cmd "free" [ ("session", J.Int alice); ("addr", J.Int out_a) ]))
  in
  Alcotest.(check string) "double free" "resource"
    (get_err "double free"
       (Server.handle srv
          (cmd "free" [ ("session", J.Int alice); ("addr", J.Int out_a) ])));
  (* malformed requests answered, not crashed on *)
  Alcotest.(check string) "unknown command" "bad-request"
    (get_err "unknown cmd" (Server.handle srv (cmd "frobnicate" [])));
  Alcotest.(check string) "unknown session" "bad-request"
    (get_err "unknown session"
       (Server.handle srv (cmd "malloc" [ ("session", J.Int 99); ("bytes", J.Int 4) ])));
  Alcotest.(check string) "parse error" "bad-request"
    (match J.of_string (Server.handle_line srv "{oops") with
    | Ok r -> get_err "parse" r
    | Error e -> Alcotest.failf "unparseable response: %s" e);
  Alcotest.(check string) "bad config key" "bad-request"
    (get_err "bad config"
       (Server.handle srv
          (cmd "load-module"
             [
               ("session", J.Int alice);
               ("src", J.Str vecadd.Workload.src);
               ("config", J.Obj [ ("no-such-knob", J.Int 1) ]);
             ])));
  (* per-tenant attribution survives session close *)
  let _ =
    get_ok "close" (Server.handle srv (cmd "close-session" [ ("session", J.Int bob) ]))
  in
  let stats = get_ok "stats" (Server.handle srv (cmd "stats" [])) in
  Alcotest.(check int) "bob's tally archived after close" 0
    (tenant_counter stats "bob" "jit.compiles")

(* Widths without the scalar width, or below 1, are refused when the
   module loads: the daemon must not acknowledge a module whose every
   launch would then fail. *)
let test_server_bad_widths () =
  let srv = Server.create ~ckpt_dir:(Filename.concat tmpdir "srv-widths") () in
  let s = open_session srv "dana" in
  List.iter
    (fun widths ->
      Alcotest.(check string) ("widths=" ^ widths) "resource"
        (get_err ("widths=" ^ widths)
           (Server.handle srv
              (cmd "load-module"
                 [
                   ("session", J.Int s);
                   ("src", J.Str vecadd.Workload.src);
                   ("config", J.Obj [ ("widths", J.Str widths) ]);
                 ]))))
    [ "4,2"; "4,0,1" ];
  Alcotest.(check int) "a good module still loads" 0 (load_vecadd srv s)

let test_server_quota_rejection () =
  let srv =
    Server.create ~ckpt_dir:(Filename.concat tmpdir "srv-quota") ()
  in
  let carol = open_session srv ~quota:1 "carol" in
  Alcotest.(check int) "carol module id" 0 (load_vecadd srv carol);
  let _ = submit_vecadd srv carol in
  (* quota 1: a second in-flight submission is rejected with a
     structured resource error *)
  let r =
    Server.handle srv
      (cmd "submit-launch"
         [
           ("session", J.Int carol);
           ("module", J.Int 0);
           ("kernel", J.Str "vecadd");
           ("grid", J.Int 1);
           ("block", J.Int 4);
           ("args", J.List (List.map (fun s -> J.Str s) vecadd_args));
         ])
  in
  Alcotest.(check string) "quota exceeded" "resource" (get_err "quota" r);
  while Queue.step (Server.queue srv) do
    ()
  done

(* ---- jsonx hardening: input bounds + property fuzzing ---- *)

let test_jsonx_limits () =
  let expect_error what s =
    match J.of_string s with
    | Ok _ -> Alcotest.failf "%s: expected a structured parse error" what
    | Error _ -> ()
  in
  expect_error "overlong input" (String.make (J.max_input + 1) ' ');
  expect_error "overlong string"
    ("\"" ^ String.make (J.max_string + 1) 'a' ^ "\"");
  expect_error "too many array items"
    ("[" ^ String.concat "," (List.init (J.max_items + 1) (fun _ -> "1")) ^ "]");
  expect_error "too many object members"
    ("{"
    ^ String.concat ","
        (List.init (J.max_items + 1) (fun i -> Fmt.str "\"k%d\":1" i))
    ^ "}")

(* Random JSON documents.  Floats are kept non-integral on purpose:
   the printer renders integral floats as integer literals, which
   deliberately re-parse as Int — a normalization, not a bug. *)
let json_arb =
  let open QCheck in
  let leaf =
    Gen.oneof
      [
        Gen.return J.Null;
        Gen.map (fun b -> J.Bool b) Gen.bool;
        Gen.map (fun n -> J.Int n) Gen.small_signed_int;
        Gen.map (fun n -> J.Float (float_of_int n +. 0.5)) Gen.small_signed_int;
        Gen.map (fun s -> J.Str s) Gen.string;
      ]
  in
  let gen =
    Gen.sized (fun size ->
        Gen.fix
          (fun self n ->
            if n <= 0 then leaf
            else
              Gen.oneof
                [
                  leaf;
                  Gen.map
                    (fun l -> J.List l)
                    (Gen.list_size (Gen.int_range 0 4) (self (n / 2)));
                  Gen.map
                    (fun l -> J.Obj l)
                    (Gen.list_size (Gen.int_range 0 4)
                       (Gen.pair Gen.string (self (n / 2))));
                ])
          (min size 5))
  in
  QCheck.make ~print:J.to_string gen

let prop_jsonx_roundtrip =
  QCheck.Test.make ~count:500 ~name:"printer output always re-parses" json_arb
    (fun v ->
      match J.of_string (J.to_string v) with Ok v' -> v = v' | Error _ -> false)

let prop_jsonx_no_crash =
  QCheck.Test.make ~count:1000 ~name:"byte soup gets Error, never an exception"
    QCheck.string (fun s ->
      match J.of_string s with Ok _ | Error _ -> true)

let prop_jsonx_truncation =
  QCheck.Test.make ~count:500 ~name:"truncated documents answered with Error"
    QCheck.(pair json_arb small_nat)
    (fun (v, n) ->
      let s = J.to_string v in
      let s = String.sub s 0 (n mod (String.length s + 1)) in
      match J.of_string s with Ok _ | Error _ -> true)

(* One long-lived server shared by the dispatcher fuzzers: hostile
   requests must never crash it or wedge later requests. *)
let fuzz_server =
  lazy (Server.create ~ckpt_dir:(Filename.concat tmpdir "srv-fuzz") ())

let prop_server_line_total =
  QCheck.Test.make ~count:300 ~name:"handle_line is total on arbitrary bytes"
    QCheck.string (fun s ->
      let srv = Lazy.force fuzz_server in
      match J.of_string (String.trim (Server.handle_line srv s)) with
      | Ok r -> Option.is_some (J.bool_mem "ok" r)
      | Error _ -> false)

let prop_server_hostile_requests =
  QCheck.Test.make ~count:300
    ~name:"handle answers hostile well-formed requests"
    QCheck.(
      pair
        (oneofl
           [
             "ping"; "open-session"; "close-session"; "load-module"; "malloc";
             "free"; "reset-arena"; "write"; "read"; "submit-launch"; "poll";
             "cancel"; "stats";
           ])
        json_arb)
    (fun (c, v) ->
      let srv = Lazy.force fuzz_server in
      let fields = match v with J.Obj kvs -> kvs | v -> [ ("x", v) ] in
      let resp = Server.handle srv (J.Obj (("cmd", J.Str c) :: fields)) in
      Option.is_some (J.bool_mem "ok" resp))

(* ---- deadlines: queued expiry and running kill ---- *)

let test_queue_deadline_expiry () =
  let q = Queue.create () in
  let cleaned = ref 0 in
  let ran = ref false in
  let j =
    match
      Queue.submit q ~tenant:"t" ~label:"patience" ~deadline_ms:1
        ~cleanup:(fun () -> incr cleaned)
        ~run:(fun ~resume:_ ~preempt:_ ~deadline_ms:_ ~wait_us:_ ->
          ran := true;
          raise Exit)
        ()
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "submit: %a" Vekt_error.pp e
  in
  Unix.sleepf 0.005;
  Alcotest.(check int) "tick expires one job" 1 (Queue.tick q);
  Alcotest.(check bool) "nothing left to run" false (Queue.step q);
  Alcotest.(check bool) "body never ran" false !ran;
  Alcotest.(check int) "cleanup fired once" 1 !cleaned;
  (match Queue.info q ~id:j.Queue.id with
  | Some i -> (
      match i.Queue.i_state with
      | Queue.Done
          (Queue.Failed (Vekt_error.Deadline { deadline_ms; elapsed_ms; _ })) ->
          Alcotest.(check int) "budget recorded" 1 deadline_ms;
          Alcotest.(check bool) "elapsed counted" true (elapsed_ms >= 1)
      | _ -> Alcotest.fail "expected a structured Deadline failure")
  | None -> Alcotest.fail "job vanished");
  let reg = Obs.Metrics.create () in
  Queue.metrics_into q reg;
  Alcotest.(check int) "queue.expired counted" 1
    !(Obs.Metrics.counter reg "queue.expired")

let test_queue_running_deadline_kill () =
  let dir = Filename.concat tmpdir "deadline-kill" in
  let config = { Api.default_config with Api.workers = Some 1 } in
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev vecadd.Workload.src in
  let inst = vecadd.Workload.setup dev in
  let q = Queue.create () in
  let j =
    match
      Queue.submit q ~tenant:"t" ~label:"vecadd"
        ~run:(fun ~resume ~preempt ~deadline_ms:_ ~wait_us:_ ->
          (* a zero budget has lapsed by the launch's first safe point,
             so the kill path runs deterministically *)
          Api.launch ~preempt ?resume ~ckpt_dir:dir ~deadline_ms:0 m
            ~kernel:"vecadd" ~grid:inst.Workload.grid
            ~block:inst.Workload.block ~args:inst.Workload.args)
        ()
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "submit: %a" Vekt_error.pp e
  in
  Alcotest.(check bool) "job runs" true (Queue.step q);
  (match Queue.info q ~id:j.Queue.id with
  | Some i -> (
      Alcotest.(check string) "killed" "failed"
        (Queue.state_name i.Queue.i_state);
      match i.Queue.i_state with
      | Queue.Done
          (Queue.Failed (Vekt_error.Deadline { deadline_ms; snapshot; _ })) ->
          Alcotest.(check int) "budget recorded" 0 deadline_ms;
          Alcotest.(check bool) "partial snapshot named in the error" true
            (Option.is_some snapshot)
      | _ -> Alcotest.fail "expected a structured Deadline failure")
  | None -> Alcotest.fail "job vanished");
  let reg = Obs.Metrics.create () in
  Queue.metrics_into q reg;
  Alcotest.(check int) "deadline kill counted" 1
    !(Obs.Metrics.counter reg "queue.deadline_kills")

let submit_vecadd_fields srv session extra =
  Server.handle srv
    (cmd "submit-launch"
       ([
          ("session", J.Int session);
          ("module", J.Int 0);
          ("kernel", J.Str "vecadd");
          ("grid", J.Int 1);
          ("block", J.Int 4);
          ("args", J.List (List.map (fun s -> J.Str s) vecadd_args));
        ]
       @ extra))

let engine_counter stats name =
  match
    Option.bind (J.mem "engine" stats) (fun e ->
        Option.bind (J.mem name e) (J.int_mem "value"))
  with
  | Some n -> n
  | None -> Alcotest.failf "stats: missing engine counter %s" name

let test_server_deadline_over_protocol () =
  let srv =
    Server.create ~ckpt_dir:(Filename.concat tmpdir "srv-deadline") ()
  in
  let s = open_session srv "dl" in
  let _ = load_vecadd srv s in
  (* per-request deadline: the job expires in queue, never runs, and
     poll carries the structured error with its budget arithmetic *)
  let r =
    get_ok "submit-launch"
      (submit_vecadd_fields srv s [ ("deadline-ms", J.Int 1) ])
  in
  let job = Option.get (J.int_mem "job" r) in
  Unix.sleepf 0.005;
  Alcotest.(check int) "tick expires it" 1 (Queue.tick (Server.queue srv));
  let r = get_ok "poll" (Server.handle srv (cmd "poll" [ ("job", J.Int job) ])) in
  Alcotest.(check (option string)) "failed" (Some "failed") (J.str_mem "state" r);
  let err = Option.get (J.mem "error" r) in
  Alcotest.(check (option string)) "structured kind" (Some "deadline")
    (J.str_mem "kind" err);
  Alcotest.(check (option int)) "budget in extras" (Some 1)
    (J.int_mem "deadline_ms" err);
  Alcotest.(check bool) "elapsed in extras" true
    (match J.int_mem "elapsed_ms" err with Some n -> n >= 1 | None -> false);
  (* per-tenant default deadline applies to submits that carry none *)
  let s2 =
    let r =
      get_ok "open-session"
        (Server.handle srv
           (cmd "open-session"
              [ ("tenant", J.Str "dl2"); ("deadline-ms", J.Int 1) ]))
    in
    Option.get (J.int_mem "session" r)
  in
  let _ = load_vecadd srv s2 in
  let r = get_ok "submit-launch" (submit_vecadd_fields srv s2 []) in
  let job2 = Option.get (J.int_mem "job" r) in
  Unix.sleepf 0.005;
  Alcotest.(check int) "default deadline expires it" 1
    (Queue.tick (Server.queue srv));
  let r =
    get_ok "poll" (Server.handle srv (cmd "poll" [ ("job", J.Int job2) ]))
  in
  Alcotest.(check (option string)) "tenant default enforced" (Some "deadline")
    (Option.bind (J.mem "error" r) (J.str_mem "kind"))

(* ---- overload control: shedding, hysteresis, idempotent retries ---- *)

let test_queue_shedding () =
  let q = Queue.create ~high_watermark:3 ~low_watermark:1 () in
  let submit ?(priority = 0) () =
    Queue.submit q ~tenant:"t" ~priority
      ~run:(fun ~resume:_ ~preempt:_ ~deadline_ms:_ ~wait_us:_ -> raise Exit)
      ()
  in
  for i = 1 to 3 do
    match submit () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "submit %d: %a" i Vekt_error.pp e
  done;
  (* at the high watermark: same-priority submits are shed with a
     machine-actionable retry hint *)
  (match submit () with
  | Ok _ -> Alcotest.fail "submit above the high watermark admitted"
  | Error (Vekt_error.Overloaded { queued; limit; retry_after_ms }) ->
      Alcotest.(check int) "queued depth" 3 queued;
      Alcotest.(check int) "limit is the high watermark" 3 limit;
      Alcotest.(check bool) "retry hint clamped sane" true
        (retry_after_ms >= 10 && retry_after_ms <= 30_000)
  | Error e -> Alcotest.failf "wrong error: %a" Vekt_error.pp e);
  (* strictly higher priority still cuts through the shed *)
  (match submit ~priority:5 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "priority bypass: %a" Vekt_error.pp e);
  let reg = Obs.Metrics.create () in
  Queue.metrics_into q reg;
  Alcotest.(check int) "one shed counted" 1 !(Obs.Metrics.counter reg "queue.shed");
  Alcotest.(check (float 0.0)) "shedding gauge up" 1.0
    !(Obs.Metrics.gauge reg "queue.shedding");
  (* hysteresis: draining below the low watermark re-opens admission *)
  drain q;
  match submit () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-drain submit still shed: %a" Vekt_error.pp e

let test_server_idempotent_retry () =
  let srv = Server.create ~ckpt_dir:(Filename.concat tmpdir "srv-idem") () in
  let s = open_session srv "ida" in
  let _ = load_vecadd srv s in
  let submit () =
    get_ok "submit-launch"
      (submit_vecadd_fields srv s [ ("idempotency-key", J.Str "retry-1") ])
  in
  let r1 = submit () in
  let r2 = submit () in
  Alcotest.check json "retry replays the original admission verbatim" r1 r2;
  Alcotest.(check bool) "exactly one job admitted" true
    (Queue.step (Server.queue srv));
  Alcotest.(check bool) "no double launch" false (Queue.step (Server.queue srv));
  let stats = get_ok "stats" (Server.handle srv (cmd "stats" [])) in
  Alcotest.(check int) "dedup hit counted" 1
    (engine_counter stats "server.dedup_hits");
  (* a different key is a different request *)
  let r3 =
    get_ok "submit-launch"
      (submit_vecadd_fields srv s [ ("idempotency-key", J.Str "retry-2") ])
  in
  Alcotest.(check bool) "fresh key admits a fresh job" true
    (J.int_mem "job" r3 <> J.int_mem "job" r1);
  drain (Server.queue srv)

(* ---- dead-tenant reaping: the eviction gap closes ---- *)

let test_server_reap_idle () =
  let srv =
    Server.create
      ~ckpt_dir:(Filename.concat tmpdir "srv-reap")
      ~session_ttl_s:0.005 ~archive_cap:2 ()
  in
  let baseline = Server.total_allocated_bytes srv in
  let tenants = [ "t0"; "t1"; "t2"; "t3" ] in
  List.iter
    (fun tn ->
      let s = open_session srv tn in
      let _ = load_vecadd srv s in
      let _ =
        get_ok "malloc"
          (Server.handle srv
             (cmd "malloc" [ ("session", J.Int s); ("bytes", J.Int 4096) ]))
      in
      ())
    tenants;
  Alcotest.(check bool) "abandoned sessions hold arena bytes" true
    (Server.total_allocated_bytes srv > baseline);
  Unix.sleepf 0.02;
  Alcotest.(check int) "all four idle sessions reaped" 4 (Server.reap_idle srv);
  Alcotest.(check int) "arena bytes returned to baseline" baseline
    (Server.total_allocated_bytes srv);
  Alcotest.(check int) "reaping is idempotent" 0 (Server.reap_idle srv);
  let stats = get_ok "stats" (Server.handle srv (cmd "stats" [])) in
  Alcotest.(check int) "server.reaped counted" 4
    (engine_counter stats "server.reaped");
  Alcotest.(check int) "cold archives evicted" 2
    (engine_counter stats "server.archive_evicted");
  (* the archive is LRU-bounded: only archive_cap tenants survive *)
  match J.mem "tenants" stats with
  | Some (J.Obj kvs) ->
      Alcotest.(check int) "archive LRU-bounded" 2 (List.length kvs)
  | _ -> Alcotest.fail "stats: missing tenants"

(* ---- restart recovery: kill mid-launch, resume bit-identical ---- *)

let test_server_restart_recovery () =
  (* uninterrupted reference *)
  let srv0 = Server.create ~ckpt_dir:(Filename.concat tmpdir "srv-ref") () in
  let s0 = open_session srv0 "ref" in
  let _ = load_vecadd srv0 s0 in
  let job0, out0 = submit_vecadd srv0 s0 in
  Alcotest.(check bool) "reference runs" true (Queue.step (Server.queue srv0));
  let read_values srv session addr =
    let r =
      get_ok "read"
        (Server.handle srv
           (cmd "read"
              [
                ("session", J.Int session);
                ("addr", J.Int addr);
                ("ty", J.Str "f32");
                ("count", J.Int 4);
              ]))
    in
    Option.get (J.mem "values" r)
  in
  let reference = read_values srv0 s0 out0 in
  ignore job0;
  (* predecessor: admit a launch, force a mid-flight snapshot, then
     "die" — no shutdown, no cleanup, exactly like kill -9 *)
  let ckpt = Filename.concat tmpdir "srv-crash" in
  let srv1 = Server.create ~ckpt_dir:ckpt () in
  let s1 = open_session srv1 "crash-tenant" in
  let _ = load_vecadd srv1 s1 in
  let job1, out1 = submit_vecadd srv1 s1 in
  Queue.request_preempt (Server.queue srv1) ~id:job1;
  Alcotest.(check bool) "first step snapshots and yields" true
    (Queue.step (Server.queue srv1));
  (match Queue.info (Server.queue srv1) ~id:job1 with
  | Some i ->
      Alcotest.(check string) "preempted mid-flight" "preempted"
        (Queue.state_name i.Queue.i_state);
      Alcotest.(check bool) "snapshot on disk" true
        (Option.is_some i.Queue.i_resume_path)
  | None -> Alcotest.fail "job vanished");
  (* successor on the same checkpoint root: recovery runs at create *)
  let srv2 = Server.create ~ckpt_dir:ckpt () in
  let recs = Server.recovered srv2 in
  Alcotest.(check int) "one launch recovered" 1 (List.length recs);
  let rc = List.hd recs in
  Alcotest.(check string) "re-admitted under its original tenant"
    "crash-tenant" rc.Server.r_tenant;
  drain (Server.queue srv2);
  let r =
    get_ok "poll"
      (Server.handle srv2 (cmd "poll" [ ("job", J.Int rc.Server.r_job) ]))
  in
  Alcotest.(check (option string)) "recovered launch completed" (Some "done")
    (J.str_mem "state" r);
  (* the snapshot's memory image puts the output at the address the
     dead predecessor handed its client *)
  Alcotest.check json "crash + restart + resume is bit-identical" reference
    (read_values srv2 rc.Server.r_session out1);
  let stats = get_ok "stats" (Server.handle srv2 (cmd "stats" [])) in
  Alcotest.(check int) "recovery counted" 1
    (engine_counter stats "server.recovered_launches")

(* ---- restart recovery keeps every acknowledged job ---- *)

(* A predecessor under watermarks 2/1 acknowledges three jobs of one
   tenant: A and B, then C once A has started and drained the backlog
   below the low watermark.  It dies while A writes its preemption
   snapshot, so A stays running and B and C queued, all manifested. *)
let crash_with_three_jobs dir =
  let srv = Server.create ~ckpt_dir:dir ~high_watermark:2 ~low_watermark:1 () in
  let s = open_session srv "t" in
  let _ = load_vecadd srv s in
  let a, _ = submit_vecadd srv s in
  let _ = submit_vecadd srv s in
  Queue.request_preempt (Server.queue srv) ~id:a;
  let crash = { Io.real with Io.write_file = (fun _ _ -> raise Io.Crash) } in
  (match Io.with_impl crash (fun () -> Queue.step (Server.queue srv)) with
  | _ -> Alcotest.fail "A's snapshot write did not crash"
  | exception Io.Crash -> ());
  ignore (submit_vecadd srv s)

let check_all_recovered ~what srv =
  Alcotest.(check int) (what ^ ": all three jobs re-admitted") 3
    (List.length (Server.recovered srv));
  let stats = get_ok "stats" (Server.handle srv (cmd "stats" [])) in
  Alcotest.(check int) (what ^ ": one session per recovered job") 3
    (engine_counter stats "server.sessions_open");
  drain (Server.queue srv);
  List.iter
    (fun (r : Server.recovered) ->
      match Queue.info (Server.queue srv) ~id:r.Server.r_job with
      | Some i ->
          Alcotest.(check string) (what ^ ": recovered job done") "done"
            (Queue.state_name i.Queue.i_state)
      | None -> Alcotest.fail "recovered job vanished")
    (Server.recovered srv)

let test_server_recovery_skips_shedding () =
  let dir = Filename.concat tmpdir "srv-ack-shed" in
  crash_with_three_jobs dir;
  check_all_recovered ~what:"same limits"
    (Server.create ~ckpt_dir:dir ~high_watermark:2 ~low_watermark:1 ())

let test_server_recovery_skips_quota () =
  let dir = Filename.concat tmpdir "srv-ack-quota" in
  crash_with_three_jobs dir;
  (* a job whose source no longer parses cannot be rebuilt: it stays on
     disk for post-mortem and leaves no session behind *)
  let broken = Filename.concat dir "job-99" in
  Sys.mkdir broken 0o755;
  Out_channel.with_open_bin (Filename.concat broken "manifest.json") (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("tenant", J.Str "t");
                ("kernel", J.Str "vecadd");
                ("grid", J.Int 1);
                ("block", J.Int 4);
                ("src", J.Str "not ptx");
              ])));
  let srv = Server.create ~ckpt_dir:dir ~quota:2 () in
  check_all_recovered ~what:"tighter quota" srv;
  Alcotest.(check bool) "unrecoverable job left on disk" true
    (Sys.file_exists broken);
  Alcotest.(check (list string)) "recovered jobs swept once done"
    [ "job-99" ]
    (Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"job-" f))

let test_server_tally_journal () =
  let ckpt = Filename.concat tmpdir "srv-journal" in
  let srv1 = Server.create ~ckpt_dir:ckpt () in
  let s = open_session srv1 "dana" in
  let _ = load_vecadd srv1 s in
  let _ = submit_vecadd srv1 s in
  Alcotest.(check bool) "launch runs" true (Queue.step (Server.queue srv1));
  let _ =
    get_ok "close"
      (Server.handle srv1 (cmd "close-session" [ ("session", J.Int s) ]))
  in
  Alcotest.(check bool) "archiving left compiles on the books" true
    (let stats = get_ok "stats" (Server.handle srv1 (cmd "stats" [])) in
     tenant_counter stats "dana" "jit.compiles" > 0);
  (* crash (no shutdown): the journal in the checkpoint root survives
     and the successor restores per-tenant attribution from it *)
  let srv2 = Server.create ~ckpt_dir:ckpt () in
  let stats = get_ok "stats" (Server.handle srv2 (cmd "stats" [])) in
  Alcotest.(check bool) "dana's compile tally survives the restart" true
    (tenant_counter stats "dana" "jit.compiles" > 0)

(* ---- transport: stale-socket reclaim and the read deadline ---- *)

let test_serve_transport_robustness () =
  let sock = Filename.concat tmpdir "slow.sock" in
  (* a dead predecessor's socket file: serve must probe and reclaim it *)
  (let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
   (try Unix.bind fd (Unix.ADDR_UNIX sock) with Unix.Unix_error _ -> ());
   Unix.close fd);
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists sock);
  let srv = Server.create ~ckpt_dir:(Filename.concat tmpdir "srv-slow") () in
  let d =
    Domain.spawn (fun () -> Server.serve srv ~read_deadline_s:0.2 ~socket:sock ())
  in
  let connect () =
    let rec go n =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> fd
      | exception Unix.Unix_error _ ->
          Unix.close fd;
          if n = 0 then Alcotest.fail "daemon never came up";
          Unix.sleepf 0.05;
          go (n - 1)
    in
    go 100
  in
  let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let recv_line fd =
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    let b = Buffer.create 64 in
    let buf = Bytes.create 1 in
    let rec go () =
      match Unix.read fd buf 0 1 with
      | 0 -> `Eof
      | _ ->
          if Bytes.get buf 0 = '\n' then `Line (Buffer.contents b)
          else begin
            Buffer.add_char b (Bytes.get buf 0);
            go ()
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.fail "timed out waiting for the daemon"
    in
    go ()
  in
  let fd = connect () in
  send fd "{\"cmd\":\"ping\"}\n";
  (match recv_line fd with
  | `Line l -> (
      match J.of_string l with
      | Ok r ->
          Alcotest.(check (option bool)) "ping ok" (Some true) (J.bool_mem "ok" r)
      | Error e -> Alcotest.failf "ping response: %s" e)
  | `Eof -> Alcotest.fail "connection closed on ping");
  (* stall mid-line: the read deadline must hang up on us *)
  send fd "{\"cmd\":\"pi";
  (match recv_line fd with
  | `Eof -> ()
  | `Line l -> Alcotest.failf "expected hang-up, got %s" l);
  Unix.close fd;
  (* ...without wedging service for anyone else *)
  let fd2 = connect () in
  send fd2 "{\"cmd\":\"ping\"}\n";
  (match recv_line fd2 with
  | `Line _ -> ()
  | `Eof -> Alcotest.fail "daemon wedged by the stalled client");
  send fd2 "{\"cmd\":\"shutdown\"}\n";
  (match recv_line fd2 with `Line _ | `Eof -> ());
  Unix.close fd2;
  Domain.join d;
  Alcotest.(check bool) "socket path unlinked at shutdown" false
    (Sys.file_exists sock)

let () =
  Alcotest.run "server"
    [
      ( "jsonx",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "parse" `Quick test_jsonx_parse;
          Alcotest.test_case "accessors" `Quick test_jsonx_accessors;
        ] );
      ( "config-spec",
        [ Alcotest.test_case "config_of_spec" `Quick test_config_of_spec ] );
      ( "allocator",
        [
          Alcotest.test_case "free-list reuse" `Quick test_malloc_free_reuse;
          Alcotest.test_case "coalescing" `Quick test_malloc_coalesce;
          Alcotest.test_case "structured errors" `Quick test_malloc_errors;
          Alcotest.test_case "reset arena" `Quick test_reset_arena;
        ] );
      ( "metrics",
        [ Alcotest.test_case "merge_into" `Quick test_metrics_merge ] );
      ( "engine",
        [
          Alcotest.test_case "cross-session cache sharing" `Quick
            test_engine_cache_sharing;
          Alcotest.test_case "private engines do not share" `Quick
            test_engine_private_without_sharing;
          Alcotest.test_case "concurrent sessions differential" `Quick
            test_concurrent_sessions_differential;
        ] );
      ( "queue",
        [
          Alcotest.test_case "weighted fairness" `Quick test_queue_fairness;
          Alcotest.test_case "priority bypass" `Quick test_queue_priority;
          Alcotest.test_case "quota rejection" `Quick test_queue_quota;
          Alcotest.test_case "cancel" `Quick test_queue_cancel;
        ] );
      ( "preemption",
        [
          Alcotest.test_case "api preempt/resume bit-identical" `Quick
            test_api_preempt_resume_bit_identical;
          Alcotest.test_case "queue preempt mid-flight" `Quick
            test_queue_preempt_resume;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "handle end-to-end" `Quick
            test_server_handle_end_to_end;
          Alcotest.test_case "quota rejection over protocol" `Quick
            test_server_quota_rejection;
          Alcotest.test_case "bad widths rejected at load" `Quick
            test_server_bad_widths;
        ] );
      ( "jsonx-hardening",
        [
          Alcotest.test_case "input bounds" `Quick test_jsonx_limits;
          QCheck_alcotest.to_alcotest prop_jsonx_roundtrip;
          QCheck_alcotest.to_alcotest prop_jsonx_no_crash;
          QCheck_alcotest.to_alcotest prop_jsonx_truncation;
          QCheck_alcotest.to_alcotest prop_server_line_total;
          QCheck_alcotest.to_alcotest prop_server_hostile_requests;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "queued job expires unrun" `Quick
            test_queue_deadline_expiry;
          Alcotest.test_case "running launch killed at safe point" `Quick
            test_queue_running_deadline_kill;
          Alcotest.test_case "structured deadline over protocol" `Quick
            test_server_deadline_over_protocol;
        ] );
      ( "overload",
        [
          Alcotest.test_case "watermark shedding + hysteresis" `Quick
            test_queue_shedding;
          Alcotest.test_case "idempotent retries" `Quick
            test_server_idempotent_retry;
        ] );
      ( "crash-only",
        [
          Alcotest.test_case "reaping closes the eviction gap" `Quick
            test_server_reap_idle;
          Alcotest.test_case "restart recovery bit-identical" `Quick
            test_server_restart_recovery;
          Alcotest.test_case "recovery skips shedding" `Quick
            test_server_recovery_skips_shedding;
          Alcotest.test_case "recovery skips quota" `Quick
            test_server_recovery_skips_quota;
          Alcotest.test_case "tally journal survives restart" `Quick
            test_server_tally_journal;
          Alcotest.test_case "stalled client + stale socket" `Quick
            test_serve_transport_robustness;
        ] );
    ]
