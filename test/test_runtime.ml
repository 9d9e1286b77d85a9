(* Tests for the runtime: translation cache, execution manager (warp
   formation policies, barrier bookkeeping, CTA partitioning), statistics
   and the host API. *)

module Api = Vekt_runtime.Api
module TC = Vekt_runtime.Translation_cache
module WP = Vekt_runtime.Worker_pool
module Stats = Vekt_runtime.Stats
module Interp = Vekt_vm.Interp
module Vectorize = Vekt_transform.Vectorize
open Vekt_ptx

let diverging_src =
  {|
.entry div4 (.param .u64 out)
{
  .reg .u32 %tid, %v, %bucket;
  .reg .u64 %po, %off;
  .reg .pred %p;
  mov.u32 %tid, %tid.x;
  and.b32 %bucket, %tid, 3;
  setp.eq.u32 %p, %bucket, 0;
  @%p bra B0;
  setp.eq.u32 %p, %bucket, 1;
  @%p bra B1;
  setp.eq.u32 %p, %bucket, 2;
  @%p bra B2;
  mov.u32 %v, 33;
  bra OUT;
B0: mov.u32 %v, 10;
  bra OUT;
B1: mov.u32 %v, 11;
  bra OUT;
B2: mov.u32 %v, 22;
OUT:
  ld.param.u64 %po, [out];
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  add.u64 %po, %po, %off;
  st.global.u32 [%po], %v;
  exit;
}
|}

let barrier_src =
  {|
.entry bexch (.param .u64 out)
{
  .reg .u32 %tid, %v, %other;
  .reg .u64 %po, %off, %sa;
  .shared .u32 buf[32];
  mov.u32 %tid, %tid.x;
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  mov.u64 %sa, buf;
  add.u64 %sa, %sa, %off;
  st.shared.u32 [%sa], %tid;
  bar.sync 0;
  xor.b32 %other, %tid, 31;
  cvt.u64.u32 %off, %other;
  shl.b64 %off, %off, 2;
  mov.u64 %sa, buf;
  add.u64 %sa, %sa, %off;
  ld.shared.u32 %v, [%sa];
  ld.param.u64 %po, [out];
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  add.u64 %po, %po, %off;
  st.global.u32 [%po], %v;
  exit;
}
|}

(* --- Translation cache --- *)

let prepare ?mode ?widths src ~kernel =
  TC.prepare ?mode ?widths (Parser.parse_module src) ~kernel

let test_cache_lazy_and_memoized () =
  let c = prepare diverging_src ~kernel:"div4" in
  Alcotest.(check int) "nothing compiled yet" 0 c.TC.compile_count;
  let e1 = TC.get c ~ws:4 () in
  Alcotest.(check int) "one compile" 1 c.TC.compile_count;
  let e2 = TC.get c ~ws:4 () in
  Alcotest.(check int) "cached" 1 c.TC.compile_count;
  Alcotest.(check bool) "same entry" true (e1 == e2);
  ignore (TC.get c ~ws:1 ());
  Alcotest.(check int) "second width compiles" 2 c.TC.compile_count

let test_cache_rejects_unknown_width () =
  let c = prepare diverging_src ~kernel:"div4" in
  Alcotest.(check bool) "width 3 invalid" true
    (try
       ignore (TC.get c ~ws:3 ());
       false
     with Invalid_argument _ -> true)

let test_cache_best_width () =
  let c = prepare diverging_src ~kernel:"div4" in
  Alcotest.(check int) "7 -> 4" 4 (TC.best_width c 7);
  Alcotest.(check int) "3 -> 2" 2 (TC.best_width c 3);
  Alcotest.(check int) "1 -> 1" 1 (TC.best_width c 1)

(* The lock-free hit path's counts: with nothing quarantined, a query
   that fits a resident tier-1 entry is served from the snapshot, adds
   one lock-free hit and refreshes the entry's LRU stamp, and nothing
   else moves.  A query between widths gets the widest below it; one
   that no width fits is rejected. *)
let test_cache_hit_counts () =
  let c = prepare diverging_src ~kernel:"div4" in
  let e, served = TC.get_fallback c ~ws:3 () in
  Alcotest.(check int) "width 3 served 2" 2 served;
  Alcotest.(check int) "first query misses" 1 c.TC.misses;
  let par = Atomic.get c.TC.par_hits and stamp = Atomic.get e.TC.last_use in
  let e', served' = TC.get_fallback c ~ws:3 () in
  Alcotest.(check bool) "same entry" true (e == e');
  Alcotest.(check int) "served 2 again" 2 served';
  Alcotest.(check int) "one lock-free hit" (par + 1) (Atomic.get c.TC.par_hits);
  Alcotest.(check bool) "LRU stamp refreshed" true (Atomic.get e.TC.last_use > stamp);
  Alcotest.(check int) "no locked hit" 0 c.TC.hits;
  Alcotest.(check int) "no new miss" 1 c.TC.misses;
  Alcotest.(check int) "no quarantine skip" 0 (Atomic.get c.TC.quarantine_skips);
  Alcotest.(check bool) "width 0 fits nothing" true
    (try
       ignore (TC.get_fallback c ~ws:0 ());
       false
     with Invalid_argument _ -> true)

let test_cache_requires_scalar () =
  Alcotest.(check bool) "widths without 1 rejected" true
    (try
       ignore (prepare ~widths:[ 4; 2 ] diverging_src ~kernel:"div4");
       false
     with Invalid_argument _ -> true)

let test_cache_entry_ids_shared () =
  let c = prepare diverging_src ~kernel:"div4" in
  let ids ws =
    (Vectorize.run ~mode:c.TC.mode ~affine:c.TC.affine ~plan:c.TC.plan c.TC.scalar ~ws)
      .Vectorize.entry_ids
  in
  Alcotest.(check bool) "same entry ids across widths" true (ids 4 = ids 1)

(* The compiled code charges, per block execution, exactly what the
   timing analysis computes for that block: its cycles plus the
   terminator, bit for bit, its flops and its line shares. *)
let test_engine_charges_timing () =
  List.iter
    (fun (w : Vekt_workloads.Workload.t) ->
      List.iter
        (fun mode ->
          let c = TC.prepare ~mode (Typecheck.load w.src) ~kernel:w.kernel in
          List.iter
            (fun ws ->
              let e = TC.get c ~ws () in
              let costs = Vekt_vm.Timing.analyze c.TC.machine e.TC.vfunc in
              Alcotest.(check int)
                (Fmt.str "%s ws=%d blocks" w.name ws)
                (List.length costs)
                (Array.length e.TC.code.Interp.blocks);
              List.iteri
                (fun k (t : Vekt_vm.Timing.block_cost) ->
                  let b = e.TC.code.Interp.blocks.(k) in
                  let what = Fmt.str "%s ws=%d %s" w.name ws b.Interp.label in
                  Alcotest.(check int64) (what ^ " cycles")
                    (Int64.bits_of_float (t.cycles +. 1.0))
                    (Int64.bits_of_float b.cost.cycles);
                  Alcotest.(check int) (what ^ " flops") t.flops b.cost.flops;
                  Alcotest.(check bool) (what ^ " shares") true (t.shares = b.cost.shares))
                costs)
            [ 1; 4 ])
        [ Vectorize.Dynamic; Vectorize.Static_tie ])
    Vekt_workloads.Registry.all

(* --- Execution manager --- *)

let launch ?(mode = Vectorize.Dynamic) ?(block = 32) ?(grid = 1) ?(workers = 4)
    ?fuel src ~kernel =
  let cache = TC.prepare ~mode (Parser.parse_module src) ~kernel in
  let global = Mem.create 1024 in
  let k = Option.get (Ast.find_kernel (Parser.parse_module src) kernel) in
  let params = Launch.param_block k [ Launch.Ptr 0 ] in
  let stats =
    WP.launch ~workers ~domains:1 ?fuel cache ~grid:(Launch.dim3 grid)
      ~block:(Launch.dim3 block) ~global ~params ~consts:(Mem.create 0)
  in
  (stats, global)

let test_em_four_way_divergence () =
  (* four-way bucket switch: after full divergence, reformation should
     rebuild full warps (threads mod 4 reconverge at OUT). *)
  let stats, global = launch diverging_src ~kernel:"div4" in
  let expected = List.init 32 (fun t -> [| 10; 11; 22; 33 |].(t land 3)) in
  Alcotest.(check (list int)) "values" expected (Mem.read_i32s global ~at:0 32);
  Alcotest.(check bool) "warps reformed" true (Stats.average_warp_size stats > 1.5)

(* A restored CTA's scheduler cursor must lie inside the CTA, since the
   policies wrap it by comparison: a damaged snapshot is a structured
   checkpoint error under every policy, never an index error. *)
let test_em_restore_bad_cursor () =
  let m = Parser.parse_module diverging_src in
  let cache = TC.prepare m ~kernel:"div4" in
  let k = Option.get (Ast.find_kernel m "div4") in
  let n = 4 in
  let restore =
    {
      Vekt_runtime.Checkpoint.c_ctaid = Launch.dim3 0;
      c_shared = Bytes.make cache.TC.shared_bytes '\000';
      c_local = Bytes.make (n * cache.TC.local_bytes) '\000';
      c_threads =
        Array.make n
          { Vekt_runtime.Checkpoint.t_resume = 0; t_state = Vekt_runtime.Scheduler.Ready };
      c_cursor = n;
      c_remaining = n;
      c_calls_used = 0;
      c_stalls = [||];
    }
  in
  List.iter
    (fun (sched : Vekt_runtime.Scheduler.t) ->
      match
        Vekt_runtime.Exec_manager.run_cta ~sched ~restore cache
          ~launch:{ Interp.grid = Launch.dim3 1; block = Launch.dim3 n }
          ~ctaid:(Launch.dim3 0) ~global:(Mem.create 1024)
          ~params:(Launch.param_block k [ Launch.Ptr 0 ])
          ~consts:(Mem.create 0) ~stats:(Stats.create ()) ()
      with
      | () -> Alcotest.failf "%s: ran from cursor %d" sched.name n
      | exception Vekt_error.Error (Vekt_error.Checkpoint _) -> ())
    Vekt_runtime.Scheduler.[ dynamic; barrier_aware ]

let test_em_barrier_exchange () =
  let stats, global = launch barrier_src ~kernel:"bexch" in
  let expected = List.init 32 (fun t -> t lxor 31) in
  Alcotest.(check (list int)) "exchange" expected (Mem.read_i32s global ~at:0 32);
  Alcotest.(check bool) "barrier released" true (stats.Stats.barrier_releases >= 32)

let test_em_static_warps_row_aligned () =
  (* static policy with 2-D blocks: warps never cross tid.y rows *)
  let src =
    {|
.entry rows (.param .u64 out)
{
  .reg .u32 %tx, %ty, %idx;
  .reg .u64 %po, %off;
  mov.u32 %tx, %tid.x;
  mov.u32 %ty, %tid.y;
  mad.lo.u32 %idx, %ty, 6, %tx;
  ld.param.u64 %po, [out];
  cvt.u64.u32 %off, %idx;
  shl.b64 %off, %off, 2;
  add.u64 %po, %po, %off;
  st.global.u32 [%po], %idx;
  exit;
}
|}
  in
  let cache = TC.prepare ~mode:Vectorize.Static_tie (Parser.parse_module src) ~kernel:"rows" in
  let global = Mem.create 1024 in
  let k = Option.get (Ast.find_kernel (Parser.parse_module src) "rows") in
  let params = Launch.param_block k [ Launch.Ptr 0 ] in
  let stats =
    WP.launch ~workers:4 ~domains:1 cache ~grid:(Launch.dim3 1)
      ~block:(Launch.dim3 6 ~y:4) (* 6-wide rows: warps must split 4+2 *)
      ~global ~params ~consts:(Mem.create 0)
  in
  Alcotest.(check (list int)) "identity" (List.init 24 Fun.id)
    (Mem.read_i32s global ~at:0 24);
  (* 4 rows x (one warp of 4 + one warp of 2) *)
  Alcotest.(check int) "warps of 4" 4 (Stats.warp_count stats 4);
  Alcotest.(check int) "warps of 2" 4 (Stats.warp_count stats 2)

let test_em_multicta_partitioning () =
  (* results must be independent of the worker count *)
  let run workers =
    let _, global = launch ~grid:8 ~workers diverging_src ~kernel:"div4" in
    Bytes.to_string (Mem.bytes global)
  in
  let r1 = run 1 in
  Alcotest.(check bool) "1 vs 3 workers" true (String.equal r1 (run 3));
  Alcotest.(check bool) "1 vs 8 workers" true (String.equal r1 (run 8))

let test_em_wall_cycles_max_not_sum () =
  let stats1, _ = launch ~grid:4 ~workers:1 diverging_src ~kernel:"div4" in
  let stats4, _ = launch ~grid:4 ~workers:4 diverging_src ~kernel:"div4" in
  Alcotest.(check bool) "parallel wall < serial wall" true
    (stats4.Stats.wall_cycles < stats1.Stats.wall_cycles);
  (* total work is the same *)
  Alcotest.(check int) "same dyn instrs"
    stats1.Stats.counters.Interp.dyn_instrs stats4.Stats.counters.Interp.dyn_instrs

(* --- Stats --- *)

let test_stats_empty_edge_cases () =
  let s = Stats.create () in
  Alcotest.(check (float 0.0)) "avg warp size of empty" 0.0 (Stats.average_warp_size s);
  Alcotest.(check (float 0.0)) "warp fraction of empty" 0.0 (Stats.warp_fraction s 4);
  Alcotest.(check (float 0.0)) "restores/thread of empty" 0.0
    (Stats.average_restores_per_thread s);
  (* restores with no kernel entries must not divide by zero *)
  s.Stats.counters.Interp.restores <- 17;
  Alcotest.(check (float 0.0)) "restores with empty histogram" 0.0
    (Stats.average_restores_per_thread s);
  (* a size never recorded has fraction 0 even with a populated histogram *)
  Stats.record_warp s 4;
  Alcotest.(check (float 0.0)) "absent size fraction" 0.0 (Stats.warp_fraction s 2);
  Alcotest.(check (float 1e-9)) "present size fraction" 1.0 (Stats.warp_fraction s 4)

let test_stats_merge_wall_max_counters_sum () =
  (* wall cycles model parallel workers (max); everything else is total
     work (sum). *)
  let mk em body restores ws =
    let s = Stats.create () in
    s.Stats.em_cycles <- em;
    s.Stats.counters.Interp.cycles_body <- body;
    s.Stats.counters.Interp.restores <- restores;
    Stats.record_warp s ws;
    Stats.record_warp s ws;
    s
  in
  let a = mk 100.0 50.0 3 4 in
  let b = mk 10.0 20.0 4 2 in
  let into = Stats.create () in
  Stats.merge_into ~into a;
  Stats.merge_into ~into b;
  Alcotest.(check (float 1e-9)) "em cycles sum" 110.0 into.Stats.em_cycles;
  Alcotest.(check (float 1e-9)) "body cycles sum" 70.0
    into.Stats.counters.Interp.cycles_body;
  Alcotest.(check int) "restores sum" 7 into.Stats.counters.Interp.restores;
  Alcotest.(check (float 1e-9)) "wall is max worker, not serial sum" 150.0
    into.Stats.wall_cycles;
  Alcotest.(check (float 1e-9)) "serial total is the sum" 180.0
    (Stats.total_cycles into);
  Alcotest.(check int) "hist 4 merged" 2 (Stats.warp_count into 4);
  Alcotest.(check int) "hist 2 merged" 2 (Stats.warp_count into 2);
  (* merging a third worker below the current wall leaves the max *)
  Stats.merge_into ~into (mk 5.0 1.0 0 1);
  Alcotest.(check (float 1e-9)) "wall keeps max" 150.0 into.Stats.wall_cycles

let test_fuel_exhaustion_has_context () =
  (* a loop that diverges every iteration yields forever, burning the
     subkernel-call budget; the error must name the kernel and CTA
     rather than being a bare Out_of_fuel *)
  match
    launch ~block:2 ~fuel:64
      {|
.entry spin (.param .u64 out)
{
  .reg .u32 %tid;
  .reg .pred %p;
LOOP:
  mov.u32 %tid, %tid.x;
  setp.eq.u32 %p, %tid, 0;
  @%p bra LOOP;
  bra LOOP;
}
|}
      ~kernel:"spin"
  with
  | _ -> Alcotest.fail "expected a structured fuel error"
  | exception Vekt_error.Error (Vekt_error.Fuel _ as e) ->
      let msg = Vekt_error.to_string e in
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Fmt.str "message %S mentions %S" msg sub)
            true
            (let n = String.length msg and m = String.length sub in
             let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
             go 0))
        [ "spin"; "out of fuel"; "CTA (0,0,0)"; "subkernel calls made" ]

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.record_warp a 4;
  Stats.record_warp b 4;
  Stats.record_warp b 2;
  a.Stats.em_cycles <- 100.0;
  b.Stats.em_cycles <- 50.0;
  let into = Stats.create () in
  Stats.merge_into ~into a;
  Stats.merge_into ~into b;
  Alcotest.(check int) "hist 4" 2 (Stats.warp_count into 4);
  Alcotest.(check (float 1e-9)) "em sums" 150.0 into.Stats.em_cycles;
  Alcotest.(check (float 0.01)) "avg ws" (10.0 /. 3.0) (Stats.average_warp_size into)

(* --- API --- *)

let test_api_malloc_alignment_and_oom () =
  let dev = Api.create_device ~global_bytes:4096 () in
  let a = Api.malloc dev 10 in
  let b = Api.malloc dev 10 in
  Alcotest.(check int) "aligned" 0 (a mod 16);
  Alcotest.(check bool) "disjoint" true (b >= a + 10);
  Alcotest.(check bool) "oom" true
    (try
       ignore (Api.malloc dev 100_000);
       false
     with Vekt_error.Error (Vekt_error.Resource r) ->
       r.what = "device global memory" && r.requested = 100_000)

let test_api_bad_module () =
  let dev = Api.create_device () in
  Alcotest.(check bool) "parse error surfaced" true
    (try
       ignore (Api.load_module dev ".entry k ( { }");
       false
     with Vekt_error.Error (Vekt_error.Compile c) ->
       c.stage = Vekt_error.Parse && c.line <> None);
  Alcotest.(check bool) "type error surfaced" true
    (try
       ignore (Api.load_module dev {|.entry k () { add.u32 %a, %a, 1; exit; }|});
       false
     with Vekt_error.Error (Vekt_error.Compile c) ->
       c.stage = Vekt_error.Typecheck);
  (* the reason names every type error, not just the first *)
  match Api.load_module dev {|.entry k () { add.u32 %a, %a, 1; bra NOPE; }|} with
  | _ -> Alcotest.fail "ill-typed module loaded"
  | exception Vekt_error.Error (Vekt_error.Compile c) ->
      let mentions sub =
        let n = String.length sub in
        let rec at i =
          i + n <= String.length c.reason
          && (String.sub c.reason i n = sub || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) "first error named" true (mentions "%a not declared");
      Alcotest.(check bool) "last error named" true (mentions "NOPE")

(* A width below 1, or a width list without the scalar width 1, is a
   structured error at load, before any launch needs the fallback. *)
let test_api_bad_widths () =
  List.iter
    (fun (key, value, narrowest) ->
      let config = Result.get_ok (Api.config_of_spec [ (key, value) ]) in
      let dev = Api.create_device ~global_bytes:4096 () in
      match Api.load_module ~config dev {|.entry k () { exit; }|} with
      | _ -> Alcotest.failf "%s=%s loaded" key value
      | exception Vekt_error.Error (Vekt_error.Resource r) ->
          Alcotest.(check int)
            (Fmt.str "%s=%s: narrowest width" key value)
            narrowest r.requested)
    [ ("widths", "4,2", 2); ("ws", "0", 0) ]

(* The dump is what runs: [vektc compile] prints TC.build's IR, which
   must be the IR of the specialization a launch's cache miss builds,
   under the default configuration, optimize=false and static mode. *)
let test_compile_dump_is_what_runs () =
  let dump spec (w : Vekt_workloads.Workload.t) =
    let config = Result.get_ok (Api.config_of_spec spec) in
    let dev = Api.create_device ~global_bytes:4096 () in
    let m = Api.load_module ~config dev w.src in
    let c = Api.kernel_cache m ~kernel:w.kernel in
    let ws = TC.max_width c in
    let ir (e : TC.entry) = Fmt.str "%a" Vekt_ir.Pp.func e.TC.vfunc in
    let shown = ir (TC.build c ~ws ~tier:1) in
    Alcotest.(check string) (Fmt.str "%s: dump is the cache's build" w.name)
      (ir (TC.get c ~ws ())) shown;
    shown
  in
  (* the apps whose pipeline changes the IR beyond tier 0's DCE sweep *)
  let optimized_apps =
    [ "reduction"; "matrixmul"; "scan"; "histogram"; "transpose"; "scalarprod";
      "bitonic"; "binomial"; "montecarlo"; "fastwalsh"; "atomics"; "threadfence" ]
  in
  List.iter
    (fun (w : Vekt_workloads.Workload.t) ->
      let default = dump [] w in
      ignore (dump [ ("mode", "static") ] w);
      let unoptimized = dump [ ("optimize", "false") ] w in
      if List.mem w.name optimized_apps then
        Alcotest.(check bool)
          (w.name ^ ": optimize=false shows the unoptimized build")
          true (default <> unoptimized))
    Vekt_workloads.Registry.all

let test_api_unknown_kernel () =
  let dev = Api.create_device () in
  let m = Api.load_module dev {|.entry k () { exit; }|} in
  Alcotest.(check bool) "unknown kernel" true
    (try
       ignore (Api.launch m ~kernel:"nope" ~grid:(Launch.dim3 1) ~block:(Launch.dim3 1) ~args:[]);
       false
     with Vekt_error.Error (Vekt_error.Compile c) ->
       c.kernel = "nope" && c.stage = Vekt_error.Frontend)

let test_api_arg_mismatch () =
  let dev = Api.create_device () in
  let m = Api.load_module dev {|.entry k (.param .u32 n) { exit; }|} in
  Alcotest.(check bool) "arity" true
    (try
       ignore (Api.launch m ~kernel:"k" ~grid:(Launch.dim3 1) ~block:(Launch.dim3 1) ~args:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "kind" true
    (try
       ignore
         (Api.launch m ~kernel:"k" ~grid:(Launch.dim3 1) ~block:(Launch.dim3 1)
            ~args:[ Launch.F32 1.0 ]);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "runtime"
    [
      ( "translation_cache",
        [
          Alcotest.test_case "lazy+memoized" `Quick test_cache_lazy_and_memoized;
          Alcotest.test_case "unknown width" `Quick test_cache_rejects_unknown_width;
          Alcotest.test_case "best width" `Quick test_cache_best_width;
          Alcotest.test_case "hit counts" `Quick test_cache_hit_counts;
          Alcotest.test_case "requires scalar" `Quick test_cache_requires_scalar;
          Alcotest.test_case "entry ids shared" `Quick test_cache_entry_ids_shared;
          Alcotest.test_case "engine charges timing" `Quick test_engine_charges_timing;
        ] );
      ( "exec_manager",
        [
          Alcotest.test_case "4-way divergence" `Quick test_em_four_way_divergence;
          Alcotest.test_case "barrier exchange" `Quick test_em_barrier_exchange;
          Alcotest.test_case "restore bad cursor" `Quick test_em_restore_bad_cursor;
          Alcotest.test_case "static rows" `Quick test_em_static_warps_row_aligned;
          Alcotest.test_case "partitioning" `Quick test_em_multicta_partitioning;
          Alcotest.test_case "wall cycles" `Quick test_em_wall_cycles_max_not_sum;
          Alcotest.test_case "fuel error context" `Quick
            test_fuel_exhaustion_has_context;
        ] );
      ( "stats",
        [
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "merge wall max" `Quick
            test_stats_merge_wall_max_counters_sum;
          Alcotest.test_case "empty edge cases" `Quick test_stats_empty_edge_cases;
        ] );
      ( "api",
        [
          Alcotest.test_case "malloc" `Quick test_api_malloc_alignment_and_oom;
          Alcotest.test_case "bad module" `Quick test_api_bad_module;
          Alcotest.test_case "unknown kernel" `Quick test_api_unknown_kernel;
          Alcotest.test_case "arg mismatch" `Quick test_api_arg_mismatch;
          Alcotest.test_case "bad widths" `Quick test_api_bad_widths;
          Alcotest.test_case "compile dump is what runs" `Quick
            test_compile_dump_is_what_runs;
        ] );
    ]
