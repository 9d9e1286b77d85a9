(* Differential tests for the domain-parallel worker pool: for a fixed
   modelled partition, running the worker slices on real OCaml domains
   must produce bit-identical global memory and identical merged
   statistics to the serial reference — across the registry, on
   barrier-heavy multi-CTA kernels, and under fault injection.  Also
   covers the monotonic compile clock. *)

module Api = Vekt_runtime.Api
module TC = Vekt_runtime.Translation_cache
module EM = Vekt_runtime.Exec_manager
module WP = Vekt_runtime.Worker_pool
module Clock = Vekt_runtime.Clock
module Fault = Vekt_runtime.Fault
module Stats = Vekt_runtime.Stats
module Interp = Vekt_vm.Interp
open Vekt_ptx
open Vekt_workloads

(* A dozen registry workloads covering every category; enough for the
   differential acceptance criterion (>= 12). *)
let some_workloads = List.filteri (fun i _ -> i < 12) Registry.all

(* ---- helpers ---- *)

(* Run one workload through the worker pool with an explicit modelled
   partition [workers] and physical [domains] (forcing domains > 1 even
   on single-core test hosts, where the default would clamp to 1). *)
let run_pool ?(config = Api.default_config) (w : Workload.t) ~workers ~domains
    =
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup dev in
  let cache = Api.kernel_cache m ~kernel:w.Workload.kernel in
  let k =
    match Ast.find_kernel m.Api.ast w.Workload.kernel with
    | Some k -> k
    | None -> Alcotest.failf "%s: kernel missing" w.Workload.name
  in
  let params = Launch.param_block k inst.Workload.args in
  let stats =
    WP.launch ~workers ~domains ?inject:m.Api.fault cache
      ~grid:inst.Workload.grid ~block:inst.Workload.block
      ~global:dev.Api.global ~params ~consts:m.Api.consts
  in
  (dev, m, inst, stats)

(* Integer statistics must be exactly partition-independent; float cycle
   totals agree up to summation order; wall cycles (max over workers)
   legitimately shrink with more workers. *)
let check_stats_match what ~(serial : Stats.t) ~(par : Stats.t) =
  let ci name a b = Alcotest.(check int) (what ^ ": " ^ name) a b in
  let sc = serial.Stats.counters and pc = par.Stats.counters in
  ci "dyn_instrs" sc.Interp.dyn_instrs pc.Interp.dyn_instrs;
  ci "blocks_executed" sc.Interp.blocks_executed pc.Interp.blocks_executed;
  ci "kernel_calls" sc.Interp.kernel_calls pc.Interp.kernel_calls;
  ci "restores" sc.Interp.restores pc.Interp.restores;
  ci "spills" sc.Interp.spills pc.Interp.spills;
  ci "flops" sc.Interp.flops pc.Interp.flops;
  ci "barrier_releases" serial.Stats.barrier_releases par.Stats.barrier_releases;
  ci "threads_launched" serial.Stats.threads_launched par.Stats.threads_launched;
  Alcotest.(check (list (pair int int)))
    (what ^ ": warp histogram")
    (Stats.warp_histogram serial)
    (Stats.warp_histogram par);
  let cf name a b =
    let tol = 1e-6 *. Float.max 1.0 (Float.abs a) in
    if Float.abs (a -. b) > tol then
      Alcotest.failf "%s: %s drifted: serial %f vs parallel %f" what name a b
  in
  cf "em_cycles" serial.Stats.em_cycles par.Stats.em_cycles;
  cf "cycles_body" sc.Interp.cycles_body pc.Interp.cycles_body;
  cf "cycles_scheduler" sc.Interp.cycles_scheduler pc.Interp.cycles_scheduler;
  cf "cycles_entry" sc.Interp.cycles_entry pc.Interp.cycles_entry;
  cf "cycles_exit" sc.Interp.cycles_exit pc.Interp.cycles_exit

(* ---- registry differential: domains {2,4} vs the serial reference ---- *)

(* For each workload and each worker count, the same partition is run
   once serially (domains=1: the loop the seed repo always used) and
   once on real domains; memory and merged stats must match.  Then
   across worker counts, memory and integer totals must still match the
   1-worker run, while wall cycles may only improve. *)
let test_registry_differential (w : Workload.t) () =
  let dev1, _, inst1, stats1 = run_pool w ~workers:1 ~domains:1 in
  (match inst1.Workload.check dev1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s workers=1: %s" w.Workload.name e);
  List.iter
    (fun workers ->
      let _, ms, _, serial = run_pool w ~workers ~domains:1 in
      let devp, mp, instp, par = run_pool w ~workers ~domains:workers in
      (match instp.Workload.check devp with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s workers=%d (parallel): %s" w.Workload.name workers
            e);
      Alcotest.(check bool)
        (Fmt.str "%s workers=%d: memory bit-identical to workers=1"
           w.Workload.name workers)
        true
        (Mem.equal dev1.Api.global devp.Api.global);
      check_stats_match
        (Fmt.str "%s workers=%d domains=%d vs serial slices" w.Workload.name
           workers workers)
        ~serial ~par;
      (* a cache counter means the same on every path: one miss and one
         build per key, every other query a hit.  Hits are compared as
         the sum {!TC.hit_rate} uses; which of the two counters a hit
         lands in depends on the tier its entry has reached. *)
      let cache_counts m =
        let c = Api.kernel_cache m ~kernel:w.Workload.kernel in
        ( c.TC.compile_count,
          c.TC.misses,
          c.TC.hits + Atomic.get c.TC.par_hits )
      in
      Alcotest.(check (triple int int int))
        (Fmt.str "%s workers=%d: compiles, misses, hits match serial"
           w.Workload.name workers)
        (cache_counts ms) (cache_counts mp);
      (* integer totals are partition-independent *)
      Alcotest.(check int)
        (Fmt.str "%s workers=%d: dyn_instrs matches workers=1" w.Workload.name
           workers)
        stats1.Stats.counters.Interp.dyn_instrs
        par.Stats.counters.Interp.dyn_instrs;
      Alcotest.(check int)
        (Fmt.str "%s workers=%d: threads matches workers=1" w.Workload.name
           workers)
        stats1.Stats.threads_launched par.Stats.threads_launched;
      if par.Stats.wall_cycles > stats1.Stats.wall_cycles *. (1. +. 1e-9) then
        Alcotest.failf
          "%s workers=%d: wall cycles grew over serial (%f > %f)"
          w.Workload.name workers par.Stats.wall_cycles
          stats1.Stats.wall_cycles)
    [ 2; 4 ]

let registry_cases =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case w.Workload.name `Quick (test_registry_differential w))
    some_workloads

(* ---- barrier-heavy multi-CTA kernels ---- *)

(* Multi-CTA ringsum: each CTA doubles its slice into tmp, crosses a
   barrier, then sums each element with its ring neighbour within the
   CTA.  Barrier disposition and the divergent wrap branch, spread over
   several CTAs per worker. *)
let ringsum_src =
  {|
.entry ringsum (.param .u64 x, .param .u64 tmp, .param .u64 out, .param .u32 nt)
{
  .reg .u32 %t, %b, %nt, %g, %j, %jg;
  .reg .u64 %px, %pt, %po, %off, %offj;
  .reg .f32 %v, %w;
  .reg .pred %p;

  mov.u32 %t, %tid.x;
  mov.u32 %b, %ctaid.x;
  ld.param.u32 %nt, [nt];
  mad.lo.u32 %g, %b, %nt, %t;

  cvt.u64.u32 %off, %g;
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
  setp.lt.u32 %p, %j, %nt;
  @%p bra HAVEJ;
  mov.u32 %j, 0;
HAVEJ:
  mad.lo.u32 %jg, %b, %nt, %j;
  cvt.u64.u32 %offj, %jg;
  shl.b64 %offj, %offj, 2;
  ld.param.u64 %pt, [tmp];
  add.u64 %pt, %pt, %offj;
  ld.global.f32 %w, [%pt];
  ld.param.u64 %pt, [tmp];
  add.u64 %pt, %pt, %off;
  ld.global.f32 %v, [%pt];
  add.f32 %v, %v, %w;
  ld.param.u64 %po, [out];
  add.u64 %po, %po, %off;
  st.global.f32 [%po], %v;
  exit;
}
|}

(* Divergent odd/even kernel from examples/ (already multi-CTA). *)
let oddeven_src =
  {|
.entry oddeven (.param .u64 x, .param .u64 out, .param .u32 n)
{
  .reg .u32 %r1, %r2, %r3, %i, %n, %b, %v;
  .reg .u64 %px, %po, %off;
  .reg .pred %p;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ctaid.x;
  mov.u32 %r3, %ntid.x;
  mad.lo.u32 %i, %r2, %r3, %r1;
  ld.param.u32 %n, [n];
  setp.ge.u32 %p, %i, %n;
  @%p bra DONE;

  cvt.u64.u32 %off, %i;
  shl.b64 %off, %off, 2;
  ld.param.u64 %px, [x];
  add.u64 %px, %px, %off;
  ld.global.u32 %v, [%px];

  and.b32 %b, %i, 1;
  setp.eq.u32 %p, %b, 0;
  @%p bra EVEN;
  add.u32 %v, %v, 1;
  bra STORE;
EVEN:
  add.u32 %v, %v, %v;
STORE:
  ld.param.u64 %po, [out];
  add.u64 %po, %po, %off;
  st.global.u32 [%po], %v;
DONE:
  exit;
}
|}

let run_raw ~src ~kernel ~grid ~block ~setup ~workers ~domains =
  let dev = Api.create_device () in
  let m = Api.load_module dev src in
  let args = setup dev in
  let cache = Api.kernel_cache m ~kernel in
  let k = Option.get (Ast.find_kernel m.Api.ast kernel) in
  let params = Launch.param_block k args in
  let stats =
    WP.launch ~workers ~domains cache ~grid:(Launch.dim3 grid)
      ~block:(Launch.dim3 block) ~global:dev.Api.global ~params
      ~consts:m.Api.consts
  in
  (dev, stats)

let test_ringsum_parallel () =
  let ncta = 4 and block = 8 in
  let n = ncta * block in
  let xs = List.init n (fun i -> float_of_int ((i mod 7) + 1)) in
  let setup dev =
    let px = Api.malloc dev (4 * n) in
    Api.write_f32s dev px xs;
    let pt = Api.malloc dev (4 * n) and po = Api.malloc dev (4 * n) in
    [ Launch.Ptr px; Launch.Ptr pt; Launch.Ptr po; Launch.I32 block ]
  in
  let dev1, stats1 =
    run_raw ~src:ringsum_src ~kernel:"ringsum" ~grid:ncta ~block ~setup
      ~workers:1 ~domains:1
  in
  (* out buffer starts at the second malloc'd slot: 64 + n*4 aligned *)
  let out dev =
    let base = 64 + (2 * ((4 * n + 15) / 16 * 16)) in
    Api.read_f32s dev base n
  in
  let expected =
    List.init n (fun g ->
        let cta = g / block and t = g mod block in
        let j = if t + 1 < block then t + 1 else 0 in
        let x i = List.nth xs i in
        (2. *. x g) +. (2. *. x ((cta * block) + j)))
  in
  List.iteri
    (fun i (got, want) ->
      if Float.abs (got -. want) > 1e-6 then
        Alcotest.failf "ringsum serial out[%d]: got %f want %f" i got want)
    (List.combine (out dev1) expected);
  List.iter
    (fun workers ->
      let devp, par =
        run_raw ~src:ringsum_src ~kernel:"ringsum" ~grid:ncta ~block ~setup
          ~workers ~domains:workers
      in
      Alcotest.(check bool)
        (Fmt.str "ringsum workers=%d bit-identical" workers)
        true
        (Mem.equal dev1.Api.global devp.Api.global);
      Alcotest.(check int)
        (Fmt.str "ringsum workers=%d barrier releases" workers)
        stats1.Stats.barrier_releases par.Stats.barrier_releases)
    [ 2; 4 ]

let test_oddeven_parallel () =
  let ncta = 8 and block = 8 in
  let n = ncta * block in
  let xs = List.init n (fun i -> (10 * i) + 3) in
  let setup dev =
    let px = Api.malloc dev (4 * n) in
    Api.write_i32s dev px xs;
    let po = Api.malloc dev (4 * n) in
    [ Launch.Ptr px; Launch.Ptr po; Launch.I32 n ]
  in
  let dev1, stats1 =
    run_raw ~src:oddeven_src ~kernel:"oddeven" ~grid:ncta ~block ~setup
      ~workers:1 ~domains:1
  in
  let out dev =
    let base = 64 + ((4 * n + 15) / 16 * 16) in
    Api.read_i32s dev base n
  in
  let expected =
    List.map (fun i -> if i mod 2 = 0 then 2 * List.nth xs i else List.nth xs i + 1)
      (List.init n (fun i -> i))
  in
  Alcotest.(check (list int)) "oddeven serial results" expected (out dev1);
  List.iter
    (fun workers ->
      let devp, par =
        run_raw ~src:oddeven_src ~kernel:"oddeven" ~grid:ncta ~block ~setup
          ~workers ~domains:workers
      in
      Alcotest.(check bool)
        (Fmt.str "oddeven workers=%d bit-identical" workers)
        true
        (Mem.equal dev1.Api.global devp.Api.global);
      Alcotest.(check int)
        (Fmt.str "oddeven workers=%d dyn_instrs" workers)
        stats1.Stats.counters.Interp.dyn_instrs
        par.Stats.counters.Interp.dyn_instrs)
    [ 2; 4 ]

(* ---- order-dependent atomics ---- *)

(* SimpleAtomicIntrinsics ends in a global exch and a cas, whose final
   image depends on which CTA updates first.  Asked for 4 domains, the
   pool must still run such a kernel on one, so every repetition leaves
   memory bit-identical to the serial run of the same partition. *)
let test_order_dependent_atomics () =
  let w = W_atomics.workload in
  let serial, _, _, _ = run_pool w ~workers:4 ~domains:1 in
  for rep = 1 to 20 do
    let dev, _, inst, _ = run_pool w ~workers:4 ~domains:4 in
    (match inst.Workload.check dev with
    | Ok () -> ()
    | Error e -> Alcotest.failf "atomics rep %d: %s" rep e);
    Alcotest.(check bool)
      (Fmt.str "atomics rep %d: memory bit-identical to serial" rep)
      true
      (Mem.equal serial.Api.global dev.Api.global)
  done

(* threadfence elects its last CTA by branching on the value a global
   atom.add returns, so which CTA does the final reduction - and the
   modelled cycles - depend on the order CTAs run in.  Asked for 4
   domains, the pool must run it on one: every repetition reports the
   serial cycles and leaves the serial memory image. *)
let test_returned_atomic_on_one_domain () =
  let w = W_threadfence.workload in
  let serial, m, _, serial_stats = run_pool w ~workers:4 ~domains:1 in
  Alcotest.(check bool) "threadfence flagged order-dependent" true
    (Api.kernel_cache m ~kernel:w.Workload.kernel).TC.order_dependent_atomics;
  for rep = 1 to 5 do
    let dev, _, inst, stats = run_pool w ~workers:4 ~domains:4 in
    (match inst.Workload.check dev with
    | Ok () -> ()
    | Error e -> Alcotest.failf "threadfence rep %d: %s" rep e);
    Alcotest.(check (float 0.0))
      (Fmt.str "threadfence rep %d: cycles match serial" rep)
      serial_stats.Stats.wall_cycles stats.Stats.wall_cycles;
    Alcotest.(check bool)
      (Fmt.str "threadfence rep %d: memory bit-identical to serial" rep)
      true
      (Mem.equal serial.Api.global dev.Api.global)
  done

(* ---- fault-injection differential ---- *)

(* Every 4-wide build fails (p = 1.0, deterministic under the cache
   lock), so every run — serial or parallel — degrades to the 2-wide
   specialization and quarantines width 4.  Memory must still be
   bit-identical across worker counts. *)
let test_fault_differential () =
  let inject =
    Some
      {
        Fault.seed = Fault.default_seed;
        specs = [ Fault.Compile_fail { ws = Some 4; tier = None; kernel = None; p = 1.0 } ];
      }
  in
  let config = { Api.default_config with inject; widths = [ 4; 2; 1 ] } in
  List.iter
    (fun (w : Workload.t) ->
      let dev1, _, inst1, _ = run_pool ~config w ~workers:1 ~domains:1 in
      (match inst1.Workload.check dev1 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s (fault, serial): %s" w.Workload.name e);
      List.iter
        (fun workers ->
          let devp, m, instp, par = run_pool ~config w ~workers ~domains:workers in
          (match instp.Workload.check devp with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s (fault, workers=%d): %s" w.Workload.name
                workers e);
          Alcotest.(check bool)
            (Fmt.str "%s fault workers=%d bit-identical" w.Workload.name workers)
            true
            (Mem.equal dev1.Api.global devp.Api.global);
          (* no warp ever ran 4-wide *)
          Alcotest.(check int)
            (Fmt.str "%s fault workers=%d: no 4-wide warps" w.Workload.name
               workers)
            0
            (Stats.warp_count par 4);
          ignore m)
        [ 2; 4 ])
    (List.filteri (fun i _ -> i < 4) some_workloads)

(* ---- monotonic compile clock ---- *)

let test_clock_monotonic () =
  let t0 = Clock.now_us () in
  let prev = ref t0 in
  for _ = 1 to 1000 do
    let t = Clock.now_us () in
    if t < !prev then Alcotest.failf "clock went backwards: %f < %f" t !prev;
    prev := t
  done;
  Alcotest.(check bool) "elapsed non-negative" true (Clock.elapsed_us t0 >= 0.0)

let test_compile_us_non_negative () =
  let w = List.hd Registry.all in
  let _, m, _, _ = run_pool w ~workers:4 ~domains:2 in
  let cache = Api.kernel_cache m ~kernel:w.Workload.kernel in
  if cache.TC.compile_wall_us < 0.0 then
    Alcotest.failf "compile_wall_us negative: %f" cache.TC.compile_wall_us;
  Hashtbl.iter
    (fun (ws, _) (e : TC.entry) ->
      if e.TC.compile_us < 0.0 then
        Alcotest.failf "w%d compile_us negative: %f" ws e.TC.compile_us)
    cache.TC.specializations

(* ---- event-trace determinism across domains ---- *)

(* For one partition, the per-worker event buffers replayed in worker
   order must reproduce the serial emission: same number of warp
   formations and yields (cache events can migrate between workers —
   whichever domain wins the compile race emits them). *)
let test_event_replay_counts () =
  let w = List.hd Registry.all in
  let count ~domains =
    let formed = ref 0 and yields = ref 0 in
    let sink =
      Vekt_obs.Sink.fn (function
        | Vekt_obs.Event.Warp_formed _ -> incr formed
        | Vekt_obs.Event.Yield _ -> incr yields
        | _ -> ())
    in
    let dev = Api.create_device () in
    let m = Api.load_module dev w.Workload.src in
    let inst = w.Workload.setup dev in
    let cache = Api.kernel_cache m ~kernel:w.Workload.kernel in
    let k = Option.get (Ast.find_kernel m.Api.ast w.Workload.kernel) in
    let params = Launch.param_block k inst.Workload.args in
    ignore
      (WP.launch ~workers:4 ~domains ~sink cache ~grid:inst.Workload.grid
         ~block:inst.Workload.block ~global:dev.Api.global ~params
         ~consts:m.Api.consts);
    (!formed, !yields)
  in
  let serial = count ~domains:1 and par = count ~domains:4 in
  Alcotest.(check (pair int int)) "warp/yield event counts" serial par

(* ---- Api-level --workers plumbing ---- *)

let test_api_workers_config () =
  let w = List.hd Registry.all in
  let run workers =
    let config = { Api.default_config with workers } in
    let dev = Api.create_device () in
    let m = Api.load_module ~config dev w.Workload.src in
    let inst = w.Workload.setup dev in
    let r =
      Api.launch m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
        ~block:inst.Workload.block ~args:inst.Workload.args
    in
    (match inst.Workload.check dev with
    | Ok () -> ()
    | Error e -> Alcotest.failf "api workers=%a: %s" Fmt.(option int) workers e);
    (dev, r)
  in
  let dev1, r1 = run (Some 1) in
  let dev4, r4 = run (Some 4) in
  Alcotest.(check bool) "api workers 4 vs 1 memory" true
    (Mem.equal dev1.Api.global dev4.Api.global);
  Alcotest.(check int) "api workers 4 vs 1 dyn_instrs"
    r1.Api.stats.Stats.counters.Interp.dyn_instrs
    r4.Api.stats.Stats.counters.Interp.dyn_instrs;
  if r4.Api.stats.Stats.wall_cycles > r1.Api.stats.Stats.wall_cycles then
    Alcotest.fail "api workers=4 wall cycles exceed workers=1"

let () =
  Alcotest.run "parallel"
    [
      ("registry-differential", registry_cases);
      ( "barrier-kernels",
        [
          Alcotest.test_case "ringsum multi-CTA" `Quick test_ringsum_parallel;
          Alcotest.test_case "oddeven multi-CTA" `Quick test_oddeven_parallel;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "returned atomic on one domain" `Quick
            test_returned_atomic_on_one_domain;
          Alcotest.test_case "exch/cas on one domain" `Quick
            test_order_dependent_atomics;
        ] );
      ( "fault-differential",
        [ Alcotest.test_case "compile-fail ws=4" `Quick test_fault_differential ]
      );
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "compile_us >= 0" `Quick
            test_compile_us_non_negative;
        ] );
      ( "events",
        [ Alcotest.test_case "replay counts" `Quick test_event_replay_counts ]
      );
      ( "api",
        [ Alcotest.test_case "--workers plumbing" `Quick test_api_workers_config ]
      );
    ]
