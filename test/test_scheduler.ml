(* Tests for the policy-driven runtime: scheduler policies (differential
   matrix against the oracle), the declarative pass manager (spec parsing
   and the fixpoint-is-no-worse-than-two-rounds guarantee), and the tiered
   translation cache (hotness promotion, LRU eviction, pinning). *)

module Api = Vekt_runtime.Api
module TC = Vekt_runtime.Translation_cache
module WP = Vekt_runtime.Worker_pool
module Sched = Vekt_runtime.Scheduler
module Stats = Vekt_runtime.Stats
module Passes = Vekt_transform.Passes
module Vectorize = Vekt_transform.Vectorize
open Vekt_ptx
open Vekt_workloads

(* --- differential matrix: policy × width × cache tier vs the oracle --- *)

let tiered = TC.Tiered { hot_threshold = 2 }

(* Dynamic vectorization runs under any formation policy; Static_tie code
   is only legal under the static policy (validated) and is already
   matrixed in test_pipeline. *)
let matrix_configs =
  let base sched widths =
    { Api.default_config with sched = Some sched; widths }
  in
  List.concat_map
    (fun (pname, policy) ->
      [
        (Fmt.str "%s/w1" pname, base policy [ 1 ]);
        (Fmt.str "%s/w2" pname, base policy [ 2; 1 ]);
        (Fmt.str "%s/w4" pname, base policy [ 4; 2; 1 ]);
        ( Fmt.str "%s/w4-tiered" pname,
          { (base policy [ 4; 2; 1 ]) with tiering = tiered; cache_capacity = Some 2 }
        );
      ])
    [
      ("dynamic", Sched.Dynamic);
      ("static", Sched.Static);
      ("barrier", Sched.Barrier_aware);
    ]

let run_workload (w : Workload.t) (config : Api.config) =
  let dev = Api.create_device () in
  let m = Api.load_module ~config dev w.Workload.src in
  let inst = w.Workload.setup dev in
  let reference =
    Api.launch_reference m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
      ~block:inst.Workload.block ~args:inst.Workload.args
  in
  let report =
    Api.launch m ~kernel:w.Workload.kernel ~grid:inst.Workload.grid
      ~block:inst.Workload.block ~args:inst.Workload.args
  in
  (dev, inst, reference, report)

let test_workload_config (w : Workload.t) name config () =
  let dev, inst, reference, _report = run_workload w config in
  (match inst.Workload.check dev with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s/%s: host check: %s" w.Workload.name name e);
  Alcotest.(check bool)
    (Fmt.str "%s/%s bit-exact vs oracle" w.Workload.name name)
    true
    (Mem.equal reference dev.Api.global)

let matrix_cases =
  List.concat_map
    (fun (w : Workload.t) ->
      List.map
        (fun (name, config) ->
          Alcotest.test_case
            (Fmt.str "%s/%s" w.Workload.name name)
            `Quick
            (test_workload_config w name config))
        matrix_configs)
    Registry.all

(* --- scheduler policy behaviour --- *)

let test_static_tie_requires_consecutive_policy () =
  let dev = Api.create_device () in
  let bad =
    {
      Api.default_config with
      mode = Vectorize.Static_tie;
      sched = Some Sched.Barrier_aware;
    }
  in
  Alcotest.(check bool) "barrier policy on TIE code rejected" true
    (try
       ignore (Api.load_module ~config:bad dev W_vecadd.src);
       false
     with Invalid_argument _ -> true);
  (* the explicit static policy on TIE code is fine *)
  let ok =
    { Api.default_config with mode = Vectorize.Static_tie; sched = Some Sched.Static }
  in
  ignore (Api.load_module ~config:ok dev W_vecadd.src)

let test_barrier_aware_exercises_barriers () =
  let config = { Api.default_config with sched = Some Sched.Barrier_aware } in
  let _, _, _, report = run_workload W_reduction.workload config in
  Alcotest.(check bool) "barrier releases happened" true
    (report.Api.stats.Stats.barrier_releases > 0);
  Alcotest.(check bool) "warps formed" true (report.Api.avg_warp_size > 1.0)

(* --- fuel accounting --- *)

let test_fuel_exact_budget_suffices () =
  (* fuel is a per-CTA budget of subkernel calls; with the former
     off-by-one the nth call raised before executing, so a budget equal
     to the exact call count failed.  Measure the count on a single-CTA
     launch, then require that exactly that much fuel succeeds and one
     unit less does not. *)
  let single_cta ?fuel () =
    let dev = Api.create_device () in
    let m = Api.load_module dev W_reduction.src in
    let inst = W_reduction.workload.Workload.setup dev in
    Api.launch ?fuel m ~kernel:W_reduction.workload.Workload.kernel
      ~grid:(Launch.dim3 1) ~block:inst.Workload.block ~args:inst.Workload.args
  in
  let r = single_cta () in
  let calls = Stats.total_warps r.Api.stats in
  Alcotest.(check bool) "kernel makes several calls" true (calls > 1);
  (* exact budget: every one of the [calls] calls must execute *)
  ignore (single_cta ~fuel:calls ());
  (* one less must exhaust *)
  Alcotest.(check bool) "fuel = calls - 1 exhausts" true
    (try
       ignore (single_cta ~fuel:(calls - 1) ());
       false
     with Vekt_error.Error (Vekt_error.Fuel _) -> true)

let test_fuel_error_reports_exact_calls () =
  (* the barrier makes every loop iteration yield back to the execution
     manager, so each iteration costs exactly one subkernel call *)
  let spin_src =
    {|
.entry spin (.param .u64 out)
{
LOOP:
  bar.sync 0;
  bra LOOP;
}
|}
  in
  let cache = TC.prepare (Parser.parse_module spin_src) ~kernel:"spin" in
  let k = Option.get (Ast.find_kernel (Parser.parse_module spin_src) "spin") in
  let params = Launch.param_block k [ Launch.Ptr 0 ] in
  match
    WP.launch ~workers:4 ~domains:1 ~fuel:64 cache ~grid:(Launch.dim3 1)
      ~block:(Launch.dim3 2) ~global:(Mem.create 64) ~params
      ~consts:(Mem.create 0)
  with
  | _ -> Alcotest.fail "expected a structured fuel error"
  | exception Vekt_error.Error (Vekt_error.Fuel _ as e) ->
      let msg = Vekt_error.to_string e in
      let contains sub s =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      (* all 64 budgeted calls really executed, and the count is exact *)
      Alcotest.(check bool)
        (Fmt.str "message %S reports 64 calls" msg)
        true
        (contains "64 subkernel calls made" msg)

(* --- pass manager --- *)

let test_pipeline_parse () =
  (match Passes.parse_pipeline "constfold,cse,dce,fusion:fix" with
  | Ok p ->
      Alcotest.(check int) "4 passes" 4 (List.length p.Passes.passes);
      Alcotest.(check bool) "fixpoint" true p.Passes.fixpoint;
      Alcotest.(check int) "default bound" Passes.default_max_rounds
        p.Passes.max_rounds
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Passes.parse_pipeline "cse,dce:fix=3" with
  | Ok p ->
      Alcotest.(check bool) "fixpoint" true p.Passes.fixpoint;
      Alcotest.(check int) "bound 3" 3 p.Passes.max_rounds
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Passes.parse_pipeline "dce" with
  | Ok p ->
      Alcotest.(check int) "1 pass" 1 (List.length p.Passes.passes);
      Alcotest.(check bool) "single round" false p.Passes.fixpoint
  | Error e -> Alcotest.failf "parse failed: %s" e);
  Alcotest.(check bool) "unknown pass rejected" true
    (Result.is_error (Passes.parse_pipeline "constfold,nosuchpass"));
  Alcotest.(check bool) "bad bound rejected" true
    (Result.is_error (Passes.parse_pipeline "dce:fix=0"));
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Passes.parse_pipeline ""))

(* Acceptance criterion: the fixpoint pass manager yields static
   instruction counts <= the frozen two-round pipeline on every kernel. *)
let test_fixpoint_no_worse_than_two_rounds () =
  List.iter
    (fun (w : Workload.t) ->
      let instrs pipeline =
        let c =
          TC.prepare ~pipeline (Parser.parse_module w.Workload.src)
            ~kernel:w.Workload.kernel
        in
        (TC.get c ~ws:4 ()).TC.static_instrs
      in
      let fix = instrs Passes.default_pipeline in
      let two = instrs Passes.two_round_pipeline in
      Alcotest.(check bool)
        (Fmt.str "%s: fixpoint %d <= two-round %d" w.Workload.name fix two)
        true (fix <= two))
    Registry.all

(* --- tiered translation cache --- *)

let div_src =
  {|
.entry div4 (.param .u64 out)
{
  .reg .u32 %tid, %v;
  .reg .u64 %po, %off;
  .reg .pred %p;
  mov.u32 %tid, %tid.x;
  setp.eq.u32 %p, %tid, 0;
  @%p bra B0;
  mov.u32 %v, 33;
  bra OUT;
B0: mov.u32 %v, 10;
OUT:
  ld.param.u64 %po, [out];
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  add.u64 %po, %po, %off;
  st.global.u32 [%po], %v;
  exit;
}
|}

let prepare_tiered ?capacity ~hot_threshold () =
  TC.prepare
    ~tiering:(TC.Tiered { hot_threshold })
    ?capacity (Parser.parse_module div_src) ~kernel:"div4"

let test_tier_promotion_at_exact_threshold () =
  let c = prepare_tiered ~hot_threshold:3 () in
  let e1 = TC.get c ~ws:4 () in
  Alcotest.(check int) "first query: tier 0" 0 e1.TC.tier;
  Alcotest.(check int) "one compile" 1 c.TC.compile_count;
  let e2 = TC.get c ~ws:4 () in
  Alcotest.(check int) "below threshold: still tier 0" 0 e2.TC.tier;
  Alcotest.(check int) "no recompile below threshold" 1 c.TC.compile_count;
  Alcotest.(check int) "no promotion yet" 0 c.TC.promotions;
  let e3 = TC.get c ~ws:4 () in
  Alcotest.(check int) "at threshold: promoted to tier 1" 1 e3.TC.tier;
  Alcotest.(check int) "promotion recompiled" 2 c.TC.compile_count;
  Alcotest.(check int) "promotion counted" 1 c.TC.promotions;
  let e4 = TC.get c ~ws:4 () in
  Alcotest.(check bool) "promoted entry is stable" true (e3 == e4);
  Alcotest.(check int) "no further compiles" 2 c.TC.compile_count;
  (* the optimized result must be no larger than the tier-0 build *)
  Alcotest.(check bool) "tier 1 no larger than tier 0" true
    (e3.TC.static_instrs <= e1.TC.static_instrs)

let test_eager_compiles_optimized_immediately () =
  let c = TC.prepare (Parser.parse_module div_src) ~kernel:"div4" in
  let e = TC.get c ~ws:4 () in
  Alcotest.(check int) "eager builds tier 1" 1 e.TC.tier;
  Alcotest.(check int) "no promotions under eager" 0 c.TC.promotions

let test_eviction_lru_and_capacity () =
  let c = prepare_tiered ~capacity:2 ~hot_threshold:100 () in
  ignore (TC.get c ~ws:4 ());
  ignore (TC.get c ~ws:2 ());
  Alcotest.(check int) "at capacity" 2 (Hashtbl.length c.TC.specializations);
  (* refresh ws=4 so ws=2 is the LRU victim *)
  ignore (TC.get c ~ws:4 ());
  ignore (TC.get c ~ws:1 ());
  Alcotest.(check int) "still at capacity" 2 (Hashtbl.length c.TC.specializations);
  Alcotest.(check int) "one eviction" 1 c.TC.evictions;
  Alcotest.(check bool) "LRU (ws=2) evicted" true
    (Hashtbl.find_opt c.TC.specializations (2, "") = None);
  Alcotest.(check bool) "recently-used ws=4 survives" true
    (Hashtbl.find_opt c.TC.specializations (4, "") <> None);
  (* a re-query of the evicted width recompiles *)
  let compiles = c.TC.compile_count in
  ignore (TC.get c ~ws:2 ());
  Alcotest.(check int) "evicted width recompiles" (compiles + 1) c.TC.compile_count

(* Regression: a tier-1 hit served from the published snapshot must
   refresh its LRU stamp.  Without it the hottest width (4) is the
   oldest entry when width 1 needs room, so it is evicted and rebuilt:
   4 compiles and 2 evictions instead of 3 and 1. *)
let test_eviction_lru_refreshed_by_snapshot_hits () =
  let w = Registry.find_exn "vecadd" in
  let c =
    TC.prepare ~capacity:2 (Parser.parse_module w.Workload.src)
      ~kernel:w.Workload.kernel
  in
  List.iter
    (fun ws -> ignore (TC.get_fallback c ~ws ()))
    ([ 4; 2 ] @ List.init 5 (fun _ -> 4) @ [ 1; 4 ]);
  Alcotest.(check int) "three compiles" 3 c.TC.compile_count;
  Alcotest.(check int) "one eviction" 1 c.TC.evictions;
  Alcotest.(check bool) "hot ws=4 still resident" true
    (Hashtbl.mem c.TC.specializations (4, ""))

let test_eviction_never_evicts_executing_entry () =
  let c = prepare_tiered ~capacity:1 ~hot_threshold:100 () in
  let e4 = TC.get c ~ws:4 () in
  TC.pin e4;
  (* inserting another width would need to evict ws=4, but it is pinned
     (currently executing): the table must temporarily exceed the bound *)
  ignore (TC.get c ~ws:2 ());
  Alcotest.(check bool) "pinned entry survives over-capacity insert" true
    (Hashtbl.find_opt c.TC.specializations (4, "") <> None);
  Alcotest.(check int) "nothing evicted while pinned" 0 c.TC.evictions;
  TC.unpin e4;
  (* with the pin released, the next insert evicts normally *)
  ignore (TC.get c ~ws:1 ());
  Alcotest.(check bool) "unpinned entries evictable again" true
    (c.TC.evictions > 0);
  Alcotest.(check int) "back within bound" 1 (Hashtbl.length c.TC.specializations)

let test_tiered_metrics_exported () =
  let dev = Api.create_device () in
  let config =
    {
      Api.default_config with
      tiering = TC.Tiered { hot_threshold = 2 };
      widths = [ 4; 2; 1 ];
    }
  in
  let m = Api.load_module ~config dev W_reduction.src in
  let inst = W_reduction.workload.Workload.setup dev in
  let r =
    Api.launch m ~kernel:W_reduction.workload.Workload.kernel
      ~grid:inst.Workload.grid ~block:inst.Workload.block
      ~args:inst.Workload.args
  in
  let reg = Api.metrics m ~kernel:W_reduction.workload.Workload.kernel r in
  let module M = Vekt_obs.Metrics in
  Alcotest.(check bool) "hits exported" true (!(M.counter reg "jit.cache_hits") > 0);
  Alcotest.(check bool) "promotions exported" true
    (!(M.counter reg "jit.promotions") > 0);
  Alcotest.(check bool) "per-pass stats exported" true
    (!(M.counter reg "opt.dce.changes") > 0)

let () =
  Alcotest.run "scheduler"
    [
      ("policy_matrix", matrix_cases);
      ( "policies",
        [
          Alcotest.test_case "TIE needs consecutive warps" `Quick
            test_static_tie_requires_consecutive_policy;
          Alcotest.test_case "barrier-aware runs barriers" `Quick
            test_barrier_aware_exercises_barriers;
        ] );
      ( "fuel",
        [
          Alcotest.test_case "exact budget suffices" `Quick
            test_fuel_exact_budget_suffices;
          Alcotest.test_case "error reports exact calls" `Quick
            test_fuel_error_reports_exact_calls;
        ] );
      ( "pass_manager",
        [
          Alcotest.test_case "pipeline parse" `Quick test_pipeline_parse;
          Alcotest.test_case "fixpoint <= two rounds" `Quick
            test_fixpoint_no_worse_than_two_rounds;
        ] );
      ( "tiered_cache",
        [
          Alcotest.test_case "promotion at threshold" `Quick
            test_tier_promotion_at_exact_threshold;
          Alcotest.test_case "eager is tier 1" `Quick
            test_eager_compiles_optimized_immediately;
          Alcotest.test_case "LRU eviction" `Quick test_eviction_lru_and_capacity;
          Alcotest.test_case "LRU refreshed by snapshot hits" `Quick
            test_eviction_lru_refreshed_by_snapshot_hits;
          Alcotest.test_case "pinned never evicted" `Quick
            test_eviction_never_evicts_executing_entry;
          Alcotest.test_case "metrics exported" `Quick test_tiered_metrics_exported;
        ] );
    ]
