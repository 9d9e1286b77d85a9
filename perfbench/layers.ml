(* Every metric the benchmark prints: its unit, its direction, the
   workload that exercises it and — for a per-layer metric — the
   end-to-end metric it should move.  BENCHMARK.json lists the same
   names; the smoke check compares the two. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  workload : string;  (** "all" or the workload that exercises it *)
  moves : string;  (** the end-to-end metric a change here should move *)
}

let m ?(better = Lower) workload name unit moves = { name; unit; better; workload; moves }

(* End-to-end: every workload reports every one, each with its own
   notion of an operation (a warm launch, a cold build, a daemon job). *)
let end_to_end =
  [
    m "all" "setup_s" "s" "";
    m "all" "op_ms_geomean" "ms" "";
    m ~better:Higher "all" "ops_per_s" "1/s" "";
    m "all" "peak_rss_mb" "MB" "";
  ]

let sw = "suite-warm" and jc = "jit-cold" and dm = "daemon-mixed"
let warm = "op_ms_geomean, ops_per_s"

let per_layer =
  [
    (* suite-warm: the execution side *)
    m sw "interp.dyn_instrs" "instrs" warm;
    m ~better:Higher sw "interp.minstr_per_s" "Minstr/s" warm;
    m sw "interp.spills" "count" "op_ms_geomean (divergent apps)";
    m sw "interp.restores" "count" "op_ms_geomean (divergent apps)";
    m sw "exec_manager.kernel_calls" "count" "op_ms_geomean (divergent apps)";
    m ~better:Higher sw "exec_manager.avg_warp_size" "threads" "op_ms_geomean (divergent apps)";
    m ~better:Higher sw "timing.cycles_body_pct" "%" "timing.modelled_cycles_geomean";
    m sw "timing.cycles_scheduler_pct" "%" "timing.modelled_cycles_geomean";
    m sw "timing.cycles_entry_pct" "%" "timing.modelled_cycles_geomean";
    m sw "timing.cycles_exit_pct" "%" "timing.modelled_cycles_geomean";
    m sw "timing.modelled_cycles_geomean" "cycles" "the paper figures (fig6 vec4 column)";
    m sw "exec_manager.cta_us" "us" "op_ms_geomean";
    m sw "translation_cache.lookup_us" "us" "op_ms_geomean";
    m ~better:Higher sw "translation_cache.hits" "count" "op_ms_geomean";
    m ~better:Higher sw "translation_cache.hits_lockfree" "count" "op_ms_geomean";
    m sw "translation_cache.misses" "count" "op_ms_geomean";
    m ~better:Higher sw "worker_pool.parallel_speedup" "x" warm;
    m sw "gc.minor_words_per_instr" "words" "op_ms_geomean";
    m sw "gc.minor_collections_per_launch" "count" "op_ms_geomean";
    m sw "obs.trace_overhead_pct" "%" "nothing";
    (* jit-cold: the compile side *)
    m jc "parser.parse_us" "us" "op_ms_geomean";
    m jc "typecheck.check_us" "us" "op_ms_geomean";
    m jc "ptx_to_ir.frontend_us" "us" "op_ms_geomean";
    m jc "plan.compute_us" "us" "op_ms_geomean";
    m jc "vectorize.run_us" "us" "op_ms_geomean";
    m jc "passes.constfold_us" "us" "op_ms_geomean";
    m jc "passes.cse_us" "us" "op_ms_geomean";
    m jc "passes.dce_us" "us" "op_ms_geomean";
    m jc "passes.fusion_us" "us" "op_ms_geomean";
    m jc "timing.analyze_us" "us" "op_ms_geomean";
    m ~better:Higher jc "passes.constfold_changes" "count" "ir.static_instrs_total";
    m ~better:Higher jc "passes.cse_changes" "count" "ir.static_instrs_total";
    m ~better:Higher jc "passes.dce_changes" "count" "ir.static_instrs_total";
    m ~better:Higher jc "passes.fusion_changes" "count" "ir.static_instrs_total";
    m jc "passes.rounds" "count" "op_ms_geomean";
    m jc "ir.instrs_vectorized" "instrs" "ir.static_instrs_total";
    m jc "ir.instrs_optimized" "instrs" "ir.static_instrs_total";
    m jc "ir.static_instrs_total" "instrs" "op_ms_geomean (suite-warm)";
    m jc "translation_cache.compile_us" "us" "op_ms_geomean";
    m jc "translation_cache.compiles" "count" "op_ms_geomean";
    m jc "translation_cache.unattributed_pct" "%" "op_ms_geomean";
    m jc "gc.minor_words_per_build" "words" "op_ms_geomean";
    (* daemon-mixed: the serving side *)
    m dm "server.rtt_us.write.p50" "us" "ops_per_s, op_ms_geomean";
    m dm "server.rtt_us.write.p99" "us" "ops_per_s";
    m dm "server.rtt_us.read.p50" "us" "ops_per_s, op_ms_geomean";
    m dm "server.rtt_us.read.p99" "us" "ops_per_s";
    m dm "server.rtt_us.submit.p50" "us" "op_ms_geomean";
    m dm "server.rtt_us.submit.p99" "us" "op_ms_geomean";
    m dm "server.rtt_us.poll.p50" "us" "op_ms_geomean";
    m dm "server.rtt_us.poll.p99" "us" "op_ms_geomean";
    m dm "jsonx.encode_ns_per_byte" "ns/B" "server.rtt_us.write.p50, ops_per_s";
    m dm "jsonx.decode_ns_per_byte" "ns/B" "server.rtt_us.read.p50, ops_per_s";
    m dm "queue.wait_us.p50" "us" "op_ms_geomean";
    m dm "queue.wait_us.p99" "us" "op_ms_geomean";
    m dm "queue.shed" "count" "failed";
    m dm "queue.rejected" "count" "failed";
    m dm "queue.expired" "count" "failed";
    m dm "engine.cache_builds" "count" "setup_s";
    m ~better:Higher dm "engine.cache_reuses" "count" "setup_s";
    m dm "checkpoint.writes" "count" "ops_per_s";
    m dm "checkpoint.bytes" "B" "ops_per_s";
    m dm "io.save_atomic_us" "us" "server.rtt_us.submit.p50";
    (* every traced run *)
    m "all" "obs.trace_dropped" "count" "nothing: must be 0";
  ]

let better_name x = match x.better with Lower -> "lower" | Higher -> "higher"
