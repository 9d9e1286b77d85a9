(* Tests for the fault-tolerant launch subsystem: the structured error
   taxonomy, the compile-fallback chain with quarantine, the
   barrier-deadlock and livelock watchdogs, deterministic fault
   injection, and the no-fault overhead invariant. *)

module Api = Vekt_runtime.Api
module TC = Vekt_runtime.Translation_cache
module WP = Vekt_runtime.Worker_pool
module Fault = Vekt_runtime.Fault
module Sched = Vekt_runtime.Scheduler
module Stats = Vekt_runtime.Stats
module M = Vekt_obs.Metrics
open Vekt_ptx
open Vekt_workloads

(* A dozen registry workloads covering every category; enough for the
   differential acceptance criterion (>= 10). *)
let some_workloads = List.filteri (fun i _ -> i < 12) Registry.all

let widths = [ 4; 2; 1 ]

let run_with_config (w : Workload.t) (config : Api.config) =
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup dev in
  let report =
    Api.launch m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
      ~block:inst.Workload.block ~args:inst.Workload.args
  in
  (dev, m, inst, report)

let counter_value m ~kernel report name =
  !(M.counter (Api.metrics m ~kernel report) name)

let check_ok (w : Workload.t) dev inst what =
  match inst.Workload.check dev with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s (%s): host check: %s" w.Workload.name what e

(* --- fault spec parsing --- *)

let test_parse_spec () =
  (match Fault.parse_spec "compile-fail:ws=4,tier=1,kernel=k,p=0.5" with
  | Ok (Fault.Compile_fail { ws = Some 4; tier = Some 1; kernel = Some "k"; p })
    ->
      Alcotest.(check (float 1e-9)) "p" 0.5 p
  | Ok _ -> Alcotest.fail "wrong spec shape"
  | Error e -> Alcotest.fail e);
  (match Fault.parse_spec "compile-fail" with
  | Ok (Fault.Compile_fail { ws = None; tier = None; kernel = None; p }) ->
      Alcotest.(check (float 1e-9)) "default p" 1.0 p
  | _ -> Alcotest.fail "filterless compile-fail");
  (match Fault.parse_spec "mem-trap:nth=100" with
  | Ok (Fault.Mem_trap { nth = 100; kernel = None }) -> ()
  | _ -> Alcotest.fail "mem-trap");
  (match Fault.parse_spec "yield:every=8" with
  | Ok (Fault.Spurious_yield { every = 8 }) -> ()
  | _ -> Alcotest.fail "yield");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Fmt.str "%S rejected" bad)
        true
        (Result.is_error (Fault.parse_spec bad)))
    [ "nope"; "compile-fail:ws=x"; "compile-fail:p=2.0"; "mem-trap:nth" ]

(* --- fallback chain: one width fails, narrower ones serve --- *)

let inject_ws4 =
  Some
    {
      Fault.seed = 7;
      specs = [ Fault.Compile_fail { ws = Some 4; tier = None; kernel = None; p = 1.0 } ];
    }

let test_fallback_narrows_width () =
  List.iter
    (fun (w : Workload.t) ->
      let config =
        { Api.default_config with widths; inject = inject_ws4; recover = true }
      in
      let dev, m, inst, report = run_with_config w config in
      check_ok w dev inst "ws=4 build injected to fail";
      Alcotest.(check bool)
        (Fmt.str "%s: no emulator fallback needed" w.Workload.name)
        true
        (report.Api.recovered = None);
      let kernel = w.Workload.kernel in
      Alcotest.(check bool)
        (Fmt.str "%s: >=1 compile fallback" w.Workload.name)
        true
        (counter_value m ~kernel report "fallback.compile_failures" >= 1);
      Alcotest.(check int)
        (Fmt.str "%s: no emulator runs" w.Workload.name)
        0
        (counter_value m ~kernel report "fallback.emulator_runs"))
    some_workloads

(* --- fallback chain exhausted: the emulator oracle takes over --- *)

let test_all_widths_fail_recovers_on_emulator () =
  List.iter
    (fun (w : Workload.t) ->
      let config =
        {
          Api.default_config with
          widths;
          inject =
            Some
              {
                Fault.seed = 7;
                specs =
                  [
                    Fault.Compile_fail
                      { ws = None; tier = None; kernel = None; p = 1.0 };
                  ];
              };
          recover = true;
        }
      in
      let dev, m, inst, report = run_with_config w config in
      (* every tier/width build fails, so the output below comes from the
         reference emulator: host validation proves oracle-identical *)
      check_ok w dev inst "all builds injected to fail";
      (match report.Api.recovered with
      | Some (Vekt_error.Compile c) ->
          Alcotest.(check bool)
            (Fmt.str "%s: injected stage" w.Workload.name)
            true
            (c.stage = Vekt_error.Inject)
      | _ -> Alcotest.failf "%s: expected Compile recovery" w.Workload.name);
      let kernel = w.Workload.kernel in
      Alcotest.(check int)
        (Fmt.str "%s: one emulator run" w.Workload.name)
        1
        (counter_value m ~kernel report "fallback.emulator_runs"))
    some_workloads

(* --- one name per counted event --- *)

(* A launch's tally sink and the cache's own registry count the same
   events; a name both export must hold the same value in both.  An
   injected ws=4 build failure makes the fallback counters non-zero. *)
let test_tally_matches_cache_metrics () =
  let w = Registry.find_exn "vecadd" in
  let config = { Api.default_config with widths; inject = inject_ws4; recover = true } in
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup dev in
  let kernel = w.Workload.kernel in
  let tally = M.create () in
  let report =
    Api.launch ~sink:(Vekt_obs.Tally.sink tally) m ~kernel ~grid:inst.Workload.grid
      ~block:inst.Workload.block ~args:inst.Workload.args
  in
  check_ok w dev inst "tallied launch";
  let cache = Api.metrics m ~kernel report in
  let shared = List.filter (fun n -> M.find cache n <> None) (M.names tally) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exported by both") true (List.mem name shared))
    [ "jit.compiles"; "jit.compile_wall_us"; "fallback.compile_failures";
      "fallback.quarantine_adds" ];
  Alcotest.(check bool) "fallback counted" true
    (M.counter_value tally "fallback.compile_failures" > 0);
  List.iter
    (fun name ->
      match (M.find tally name, M.find cache name) with
      | Some (M.Counter a), Some (M.Counter b) -> Alcotest.(check int) name !b !a
      | Some (M.Gauge a), Some (M.Gauge b) ->
          Alcotest.(check bool) (Fmt.str "%s: %h = %h" name !a !b) true (Float.equal !a !b)
      | _ -> Alcotest.failf "%s: kinds differ" name)
    shared

(* --- quarantine: a failed width is skipped on later launches --- *)

let test_quarantine_skips_failed_width () =
  let w = Registry.find_exn "vecadd" in
  let config =
    { Api.default_config with widths; inject = inject_ws4; recover = true }
  in
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup dev in
  let kernel = w.Workload.kernel in
  let launch () =
    Api.launch m ~kernel ~grid:inst.Workload.grid ~block:inst.Workload.block
      ~args:inst.Workload.args
  in
  let r1 = launch () in
  check_ok w dev inst "first launch";
  Alcotest.(check int) "first launch: one failed build" 1
    (counter_value m ~kernel r1 "fallback.compile_failures");
  Alcotest.(check int) "first launch: width quarantined" 1
    (counter_value m ~kernel r1 "fallback.quarantine_adds");
  let r2 = launch () in
  check_ok w dev inst "second launch";
  (* the quarantined width is skipped without re-attempting the build *)
  Alcotest.(check int) "second launch: no new failed build" 1
    (counter_value m ~kernel r2 "fallback.compile_failures");
  Alcotest.(check bool) "second launch: quarantine skips" true
    (counter_value m ~kernel r2 "fallback.quarantine_skips" > 0);
  (* a direct query is served the narrower width from the published
     snapshot and must count the skip too *)
  let skips = counter_value m ~kernel r2 "fallback.quarantine_skips" in
  let cache = Api.kernel_cache m ~kernel in
  let _, served = TC.get_fallback cache ~ws:4 () in
  Alcotest.(check int) "snapshot query: served the narrower width" 2 served;
  Alcotest.(check int) "snapshot query: skip counted" (skips + 1)
    (counter_value m ~kernel r2 "fallback.quarantine_skips")

let test_quarantine_expires_after_ttl () =
  let w = Registry.find_exn "vecadd" in
  let config =
    {
      Api.default_config with
      widths;
      inject = inject_ws4;
      recover = true;
      quarantine_ttl = 2;
    }
  in
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup dev in
  let kernel = w.Workload.kernel in
  let launch () =
    Api.launch m ~kernel ~grid:inst.Workload.grid ~block:inst.Workload.block
      ~args:inst.Workload.args
  in
  let _ = launch () in
  let _ = launch () in
  (* ttl=2 expired after two successful launches: the third re-attempts
     the width (and the injector fails it again) *)
  let r3 = launch () in
  Alcotest.(check bool) "quarantine expired" true
    (counter_value m ~kernel r3 "fallback.quarantine_expiries" >= 1);
  Alcotest.(check int) "failed width re-attempted" 2
    (counter_value m ~kernel r3 "fallback.compile_failures")

(* --- watchdogs --- *)

(* Thread 0's flag is set, so every warp that pairs it with a
   zero-flagged partner diverges at the loop branch and thread 0 yields
   back Ready at the entry it was dispatched from — the no-progress
   signature the livelock watchdog counts.  (A uniform warp would follow
   the branch inside the subkernel and burn fuel instead, which is why
   divergence is load-bearing here.) *)
let livelock_src =
  {|
.entry spin (.param .u64 flags)
{
  .reg .u64 %fp, %off;
  .reg .u32 %t, %v;
  .reg .pred %p;
LOOP:
  ld.param.u64 %fp, [flags];
  mov.u32 %t, %tid.x;
  cvt.u64.u32 %off, %t;
  shl.b64 %off, %off, 2;
  add.u64 %fp, %fp, %off;
  ld.global.u32 %v, [%fp];
  setp.ne.u32 %p, %v, 0;
  @%p bra LOOP;
  exit;
}
|}

let test_livelock_watchdog () =
  let dev = Api.create_device () in
  let config = { Api.default_config with watchdog = Some 2 } in
  let m = Api.load_module ~config dev livelock_src in
  let flags = Api.malloc dev 12 in
  Api.write_i32s dev flags [ 1; 0; 0 ];
  match
    Api.launch m ~kernel:"spin" ~grid:(Launch.dim3 1) ~block:(Launch.dim3 3)
      ~args:[ Launch.Ptr flags ]
  with
  | _ -> Alcotest.fail "expected a livelock deadlock error"
  | exception Vekt_error.Error (Vekt_error.Deadlock d) ->
      Alcotest.(check bool) "kind" true (d.kind = Vekt_error.Livelock);
      Alcotest.(check string) "kernel" "spin" d.kernel;
      Alcotest.(check bool) "stuck threads listed" true (d.threads <> [])

let barrier_spin_src =
  {|
.entry spin (.param .u64 out)
{
LOOP:
  bar.sync 0;
  bra LOOP;
}
|}

let test_barrier_starvation_diagnostic () =
  (* a policy that never selects anything starves Ready threads: the
     manager must report a structured barrier-starvation deadlock
     listing each stuck thread, not a bare string *)
  let never =
    {
      Sched.name = "never";
      consecutive = false;
      select = (fun _ -> Sched.none);
      form =
        (fun _ ~start ~want:_ -> { Sched.members = [| start |]; count = 1; scanned = 0 });
    }
  in
  let cache = TC.prepare (Parser.parse_module barrier_spin_src) ~kernel:"spin" in
  let k =
    Option.get (Ast.find_kernel (Parser.parse_module barrier_spin_src) "spin")
  in
  let params = Launch.param_block k [ Launch.Ptr 0 ] in
  match
    WP.launch ~workers:4 ~domains:1 ~sched:never cache ~grid:(Launch.dim3 1)
      ~block:(Launch.dim3 4) ~global:(Mem.create 64) ~params
      ~consts:(Mem.create 0)
  with
  | _ -> Alcotest.fail "expected a barrier-starvation deadlock"
  | exception Vekt_error.Error (Vekt_error.Deadlock d) ->
      Alcotest.(check bool) "kind" true (d.kind = Vekt_error.Barrier_starvation);
      Alcotest.(check int) "all four threads stuck" 4 (List.length d.threads);
      List.iter
        (fun (t : Vekt_error.thread_diag) ->
          Alcotest.(check string)
            (Fmt.str "thread %d state" t.Vekt_error.t_linear)
            "ready" t.Vekt_error.t_state)
        d.threads

let test_all_exited_is_not_deadlock () =
  (* regression for the all-exited-vs-blocked boundary: a barrier kernel
     whose threads all run to completion must terminate normally — the
     deadlock diagnostic only fires with live-but-unrunnable threads *)
  let src =
    {|
.entry bk (.param .u64 out)
{
  .reg .u32 %tid;
  .reg .u64 %po, %off;
  mov.u32 %tid, %tid.x;
  bar.sync 0;
  ld.param.u64 %po, [out];
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  add.u64 %po, %po, %off;
  st.global.u32 [%po], %tid;
  exit;
}
|}
  in
  let dev = Api.create_device () in
  let m = Api.load_module dev src in
  let out = Api.malloc dev 64 in
  let r =
    Api.launch m ~kernel:"bk" ~grid:(Launch.dim3 1) ~block:(Launch.dim3 8)
      ~args:[ Launch.Ptr out ]
  in
  Alcotest.(check bool) "completed" true (r.Api.recovered = None);
  Alcotest.(check (list int)) "identity" (List.init 8 Fun.id)
    (Api.read_i32s dev out 8)

(* --- structured load_module failures --- *)

let test_load_module_structured_payloads () =
  let dev = Api.create_device () in
  (match Api.load_module dev ".entry k ( { }" with
  | _ -> Alcotest.fail "parse error expected"
  | exception Vekt_error.Error (Vekt_error.Compile c) ->
      Alcotest.(check bool) "parse stage" true (c.stage = Vekt_error.Parse);
      Alcotest.(check bool) "parse line attached" true (c.line <> None));
  (match Api.load_module dev ".entry k () { § }" with
  | _ -> Alcotest.fail "lex error expected"
  | exception Vekt_error.Error (Vekt_error.Compile c) ->
      Alcotest.(check bool) "lex stage" true (c.stage = Vekt_error.Lex);
      Alcotest.(check bool) "lex line attached" true (c.line <> None));
  match Api.load_module dev {|.entry k () { add.u32 %a, %a, 1; exit; }|} with
  | _ -> Alcotest.fail "type error expected"
  | exception Vekt_error.Error (Vekt_error.Compile c) ->
      Alcotest.(check bool) "typecheck stage" true
        (c.stage = Vekt_error.Typecheck)

(* --- memory fault payloads and trap context --- *)

let test_mem_fault_payload () =
  let t = Mem.create ~name:"global" 16 in
  (match Mem.load t Ast.F32 100 with
  | _ -> Alcotest.fail "expected out-of-bounds fault"
  | exception Mem.Fault a ->
      Alcotest.(check string) "segment" "global" a.Vekt_error.segment;
      Alcotest.(check int) "addr" 100 a.Vekt_error.addr;
      Alcotest.(check int) "width" 4 a.Vekt_error.width;
      Alcotest.(check int) "segment size" 16 a.Vekt_error.size;
      Alcotest.(check string) "op" "load" a.Vekt_error.op);
  match Mem.store t Ast.S64 12 (Scalar_ops.I 1L) with
  | _ -> Alcotest.fail "expected straddling-store fault"
  | exception Mem.Fault a ->
      Alcotest.(check string) "store op" "store" a.Vekt_error.op;
      Alcotest.(check int) "store width" 8 a.Vekt_error.width

let test_trap_attaches_thread_context () =
  let src =
    {|
.entry oob ()
{
  .reg .u64 %a;
  .reg .u32 %v;
  mov.u64 %a, 1073741824;
  mov.u32 %v, 7;
  st.global.u32 [%a], %v;
  exit;
}
|}
  in
  let dev = Api.create_device () in
  let m = Api.load_module dev src in
  match
    Api.launch m ~kernel:"oob" ~grid:(Launch.dim3 1) ~block:(Launch.dim3 4)
      ~args:[]
  with
  | _ -> Alcotest.fail "expected a memory trap"
  | exception Vekt_error.Error (Vekt_error.Trap t) ->
      Alcotest.(check string) "kernel" "oob" t.kernel;
      Alcotest.(check bool) "CTA attached" true (t.cta = Some (0, 0, 0));
      Alcotest.(check bool) "thread attached" true (t.tid <> None);
      Alcotest.(check bool) "entry attached" true (t.entry <> None);
      Alcotest.(check bool) "cycle attached" true (t.cycle <> None);
      (match t.access with
      | Some a ->
          Alcotest.(check string) "space" "global" a.Vekt_error.space;
          Alcotest.(check int) "addr" 1073741824 a.Vekt_error.addr
      | None -> Alcotest.fail "access payload missing")

(* --- deterministic injection: mem traps and spurious yields --- *)

let test_injected_mem_trap_recovers () =
  let w = Registry.find_exn "vecadd" in
  let config =
    {
      Api.default_config with
      widths;
      inject =
        Some
          { Fault.seed = 7; specs = [ Fault.Mem_trap { nth = 5; kernel = None } ] };
      recover = true;
    }
  in
  let dev, m, inst, report = run_with_config w config in
  check_ok w dev inst "mem trap injected";
  (match report.Api.recovered with
  | Some (Vekt_error.Trap t) -> (
      match t.access with
      | Some a ->
          Alcotest.(check string) "injected op" "injected trap" a.Vekt_error.op
      | None -> Alcotest.fail "injected trap lost its access payload")
  | _ -> Alcotest.fail "expected trap recovery");
  let kernel = w.Workload.kernel in
  Alcotest.(check int) "one injected trap" 1
    (counter_value m ~kernel report "fault.injected_mem_traps");
  Alcotest.(check int) "one emulator run" 1
    (counter_value m ~kernel report "fallback.emulator_runs")

let test_spurious_yield_preserves_results () =
  List.iter
    (fun name ->
      let w = Registry.find_exn name in
      let config =
        {
          Api.default_config with
          widths;
          inject =
            Some { Fault.seed = 7; specs = [ Fault.Spurious_yield { every = 4 } ] };
          recover = true;
        }
      in
      let dev, m, inst, report = run_with_config w config in
      (* skipped dispatches delay threads but never corrupt them *)
      check_ok w dev inst "spurious yields injected";
      Alcotest.(check bool) (name ^ ": no recovery needed") true
        (report.Api.recovered = None);
      Alcotest.(check bool) (name ^ ": yields injected") true
        (counter_value m ~kernel:w.Workload.kernel report "fault.injected_yields"
        > 0))
    [ "vecadd"; "reduction"; "matrixmul" ]

(* --- no-fault overhead: armed-but-idle injection is cycle-invisible --- *)

let test_no_fault_overhead_bit_identical_cycles () =
  let w = Registry.find_exn "reduction" in
  let baseline = { Api.default_config with widths } in
  let armed_idle =
    {
      Api.default_config with
      widths;
      recover = true;
      inject =
        Some
          {
            Fault.seed = 7;
            specs =
              [
                (* counts accesses but never reaches the threshold *)
                Fault.Mem_trap { nth = max_int; kernel = None };
                (* filter never matches any kernel *)
                Fault.Compile_fail
                  { ws = None; tier = None; kernel = Some "no-such-kernel"; p = 1.0 };
              ];
          };
    }
  in
  let _, _, _, r1 = run_with_config w baseline in
  let _, _, _, r2 = run_with_config w armed_idle in
  Alcotest.(check bool) "modelled cycles bit-identical" true
    (Float.equal r1.Api.cycles r2.Api.cycles);
  Alcotest.(check int) "same dynamic instructions"
    r1.Api.stats.Stats.counters.Vekt_vm.Interp.dyn_instrs
    r2.Api.stats.Stats.counters.Vekt_vm.Interp.dyn_instrs

let () =
  Alcotest.run "fault"
    [
      ("spec", [ Alcotest.test_case "parse" `Quick test_parse_spec ]);
      ( "fallback",
        [
          Alcotest.test_case "width narrowing differential" `Quick
            test_fallback_narrows_width;
          Alcotest.test_case "emulator recovery differential" `Quick
            test_all_widths_fail_recovers_on_emulator;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "tally names match the cache's" `Quick
            test_tally_matches_cache_metrics;
          Alcotest.test_case "skips failed width" `Quick
            test_quarantine_skips_failed_width;
          Alcotest.test_case "expires after ttl" `Quick
            test_quarantine_expires_after_ttl;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "livelock" `Quick test_livelock_watchdog;
          Alcotest.test_case "barrier starvation" `Quick
            test_barrier_starvation_diagnostic;
          Alcotest.test_case "all-exited is clean" `Quick
            test_all_exited_is_not_deadlock;
        ] );
      ( "errors",
        [
          Alcotest.test_case "load_module payloads" `Quick
            test_load_module_structured_payloads;
          Alcotest.test_case "mem fault payload" `Quick test_mem_fault_payload;
          Alcotest.test_case "trap thread context" `Quick
            test_trap_attaches_thread_context;
        ] );
      ( "injection",
        [
          Alcotest.test_case "mem trap recovery" `Quick
            test_injected_mem_trap_recovers;
          Alcotest.test_case "spurious yields" `Quick
            test_spurious_yield_preserves_results;
          Alcotest.test_case "no-fault overhead" `Quick
            test_no_fault_overhead_bit_identical_cycles;
        ] );
    ]
