(* vektc — command-line driver for the vekt dynamic kernel compiler.

   Subcommands:
     check    parse and type-check a PTX module
     compile  dump the IR the translation cache builds for a kernel
     run      launch a kernel on the simulated vector machine
     emulate  launch a kernel on the reference scalar emulator
     info     static facts about a kernel (entry points, invariance, ...)

   Argument values for `run`/`emulate` are comma-separated specs:
     i32:42         32-bit integer argument
     i64:42         64-bit integer argument
     f32:1.5        float argument
     zeros:N        allocate N bytes of zeroed device memory, pass pointer
     f32s:a,b,c     allocate and fill with floats, pass pointer
     i32s:a,b,c     allocate and fill with ints, pass pointer
   e.g.  vektc run k.ptx -k vecadd --grid 8 --block 128 \
           -a f32s:1,2,3,4 -a f32s:5,6,7,8 -a zeros:16 -a i32:4 --dump f32:2:4

   Module configuration for `compile`, `run` and `submit` is given only
   as repeatable `-c KEY=VALUE` pairs (e.g. `-c ws=4 -c static`); with
   none, a launch runs under Api.default_config. *)

module Ir = Vekt_ir.Ir
module Pp = Vekt_ir.Pp
module Plan = Vekt_transform.Plan
module Passes = Vekt_transform.Passes
module Affine = Vekt_analysis.Affine
module Api = Vekt_runtime.Api
module TC = Vekt_runtime.Translation_cache
module Stats = Vekt_runtime.Stats
module Obs = Vekt_obs
module Jsonx = Vekt_obs.Jsonx
open Vekt_ptx
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Read [path] and hand its source to [load], one of the library's
   loaders (Typecheck.load, Api.load_module); a structured load error
   names the file and exits 1. *)
let load path load =
  let src = read_file path in
  try (src, load src)
  with Vekt_error.Error e ->
    Fmt.epr "%s: %a@." path Vekt_error.pp e;
    exit 1

let pick_kernel m = function
  | Some k -> k
  | None -> (
      match m.Ast.m_kernels with
      | [ k ] -> k.Ast.k_name
      | ks ->
          Fmt.epr "module has %d kernels; pick one with -k@." (List.length ks);
          exit 1)

(* ---- common options ---- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ptx" ~doc:"PTX source file")

let kernel_arg =
  Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~docv:"NAME" ~doc:"Kernel name")

(* -c KEY=VALUE, shared by compile, run and submit: the pairs go
   unchanged to Api.config_of_spec (run, compile) or to the daemon's
   load-module request (submit), which calls the same function. *)
let config_arg =
  let parse kv =
    match String.index_opt kv '=' with
    | Some i ->
        Ok (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
    | None -> Ok (kv, "true")
  in
  let print ppf (k, v) = Fmt.pf ppf "%s=%s" k v in
  Arg.(
    value
    & opt_all (conv' ~docv:"KEY=VALUE" (parse, print)) []
    & info [ "c"; "config" ] ~docv:"KEY=VALUE"
        ~doc:
          "Module configuration (repeatable); a bare KEY means KEY=true. The \
           keys are those of the daemon's load-module request: mode, static, \
           affine, optimize, verify, specialize-args, ws, widths, sched, \
           pipeline, tiered, hot-threshold, cache-cap, inject, inject-seed, \
           watchdog, quarantine-ttl, recover, workers, domains, checkpoint-every, \
           checkpoint-dir, record, replay. Keys not given keep their default \
           (dynamic warp formation at widths 4,2,1).")

let config_of_pairs pairs =
  match Api.config_of_spec pairs with
  | Ok c -> c
  | Error e ->
      Fmt.epr "bad configuration: %s@." e;
      exit 1

(* The translation cache a launch of [kernel] under [config] runs from;
   compile and info print what it holds.  Nothing is launched, so the
   device arena stays small. *)
let load_cache file kernel config =
  let dev = Api.create_device ~global_bytes:4096 () in
  let _, m = load file (Api.load_module ~config dev) in
  let kernel = pick_kernel m.Api.ast kernel in
  (kernel, Api.kernel_cache m ~kernel)

(* ---- check ---- *)

let check_cmd =
  let run file =
    let _, m = load file Typecheck.load in
    Fmt.pr "%s: %d kernel(s), %d const bank(s) — OK@." file
      (List.length m.Ast.m_kernels) (List.length m.Ast.m_consts);
    List.iter
      (fun (k : Ast.kernel) ->
        Fmt.pr "  %s(%d params): %d registers, %d statements@." k.Ast.k_name
          (List.length k.Ast.k_params) (List.length k.Ast.k_regs)
          (List.length k.Ast.k_body))
      m.Ast.m_kernels
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and type-check a PTX module")
    Term.(const run $ file_arg)

(* ---- compile ---- *)

let compile_cmd =
  let run file kernel config stage =
    let _, c = load_cache file kernel (config_of_pairs config) in
    match stage with
    | None -> Fmt.pr "%a@." Pp.func c.TC.scalar
    | Some tier ->
        let e = TC.build c ~ws:(TC.max_width c) ~tier in
        Fmt.pr "%a@." Pp.func e.TC.vfunc;
        let changes name =
          Option.map (Fmt.str "%s %d" name) (Hashtbl.find_opt c.TC.pass_stats name)
        in
        Fmt.epr "; tier %d, %s — %d instructions@." e.TC.tier
          (if c.TC.optimize && e.TC.tier >= 1 then
             Fmt.str "optimized (%a): %s" Passes.pp_pipeline c.TC.pipeline
               (String.concat ", " (List.filter_map changes (Passes.pass_names ())))
           else "not optimized")
          e.TC.static_instrs
  in
  let stage_arg =
    let stages = [ ("scalar", None); ("vectorized", Some 0); ("optimized", Some 1) ] in
    Arg.(
      value & opt (enum stages) (Some 1)
      & info [ "stage" ]
          ~doc:"IR to dump: scalar, vectorized (tier 0) or optimized (tier 1)")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Dump the IR the translation cache builds for a kernel")
    Term.(const run $ file_arg $ kernel_arg $ config_arg $ stage_arg)

(* ---- argument specs for run/emulate ---- *)

(* Spec parsing lives in Api (shared with the daemon's submit-launch
   request); the CLI just turns an Error into an exit. *)
let parse_arg_spec (dev : Api.device) spec : Api.parsed_arg =
  match Api.arg_of_spec dev spec with
  | Ok a -> a
  | Error e -> Fmt.failwith "%s" e

(* --dump TY:ARG:N, shared by run, emulate and submit: after the launch,
   print N values of type TY from the buffer passed as argument ARG, on
   one line. *)
type dump = { spec : string; ty : string; arg : int; count : int }

let dump_conv =
  let parse spec =
    let bad () =
      Error (Fmt.str "bad dump spec %S (want TY:ARG:N, TY f32 or i32)" spec)
    in
    match String.split_on_char ':' spec with
    | [ (("f32" | "i32") as ty); arg; count ] -> (
        match (int_of_string_opt arg, int_of_string_opt count) with
        | Some arg, Some count when arg >= 0 && count >= 0 ->
            Ok { spec; ty; arg; count }
        | _ -> bad ())
    | _ -> bad ()
  in
  Arg.conv' ~docv:"TY:ARG:N" (parse, fun ppf d -> Fmt.string ppf d.spec)

(* [addr i] is the device address of argument [i] if it is a buffer;
   [read ty addr count] renders the values. *)
let print_dumps ~addr ~read dumps =
  List.iter
    (fun d ->
      match addr d.arg with
      | None ->
          Fmt.failwith "bad dump spec %S: no buffer at argument %d" d.spec d.arg
      | Some a ->
          Fmt.pr "arg%d: %s@." d.arg (String.concat " " (read d.ty a d.count)))
    dumps

let print_device_dumps dev (args : Api.parsed_arg list) =
  print_dumps
    ~addr:(fun i -> Option.bind (List.nth_opt args i) (fun a -> a.Api.addr))
    ~read:(fun ty a n ->
      if ty = "f32" then List.map (Fmt.str "%g") (Api.read_f32s dev a n)
      else List.map string_of_int (Api.read_i32s dev a n))

let grid_arg = Arg.(value & opt int 1 & info [ "grid" ] ~docv:"N" ~doc:"Grid size (x)")
let block_arg = Arg.(value & opt int 32 & info [ "block" ] ~docv:"N" ~doc:"CTA size (x)")

let args_arg =
  Arg.(value & opt_all string [] & info [ "a"; "arg" ] ~docv:"SPEC" ~doc:"Kernel argument spec")

let dump_arg =
  Arg.(
    value & opt_all dump_conv []
    & info [ "dump" ] ~docv:"TY:ARG:N"
        ~doc:
          "Print $(i,N) values of type $(i,TY) (f32 or i32) from buffer \
           argument $(i,ARG) after the run, on one line")

(* ---- run ---- *)

(* The one writer for run's artifacts: [-] prints [stdout] on standard
   output; any other path gets [file ()] and [note] announces it. *)
let write_artifact path ~stdout ~file ~note =
  if path = "-" then stdout Fmt.stdout
  else begin
    Out_channel.with_open_bin path (fun oc -> output_string oc (file ()));
    note path
  end

let run_cmd =
  let run file kernel grid block arg_specs dumps config checkpoint_stop resume
      deadline_ms trace profile metrics report =
    let config = config_of_pairs config in
    let dev = Api.create_device () in
    (* --report is the full observatory: it force-enables the tracer
       (spans), line attribution and the divergence profile even when
       their individual flags are off *)
    let tracer =
      if Option.is_some trace || Option.is_some report then
        Some (Obs.Trace.create ())
      else None
    in
    let sink =
      match tracer with Some t -> Obs.Trace.sink t | None -> Obs.Sink.noop
    in
    let attr = Option.map (fun _ -> Obs.Attribution.create ()) report in
    let prof =
      if profile || Option.is_some report then Some (Obs.Divergence.create ())
      else None
    in
    let src, api_m = load file (Api.load_module ~config ~sink dev) in
    let kernel = pick_kernel api_m.Api.ast kernel in
    let args = List.map (parse_arg_spec dev) arg_specs in
    (* flight recorder: a launch that dies on a structured error dumps
       the ring tail, the open span stack and the error itself before
       the error propagates *)
    let crash_dump (err : Vekt_error.t) =
      match (report, tracer) with
      | Some rpath, Some t ->
          let bundle () =
            Jsonx.to_string
              (Vekt_runtime.Report.crash_bundle ~kernel ~error:err ~trace:t ())
          in
          write_artifact
            (if rpath = "-" then rpath else rpath ^ ".crash.json")
            ~stdout:(fun ppf -> Fmt.pf ppf "%s@." (bundle ()))
            ~file:bundle
            ~note:(Fmt.epr "crash bundle -> %s@.")
      | _ -> ()
    in
    let r =
      try
        Api.launch ~sink ?profile:prof ?attr ?resume ?checkpoint_stop
          ?deadline_ms api_m ~kernel ~grid:(Launch.dim3 grid)
          ~block:(Launch.dim3 block)
          ~args:(List.map (fun a -> a.Api.launch_arg) args)
      with
      | Vekt_runtime.Checkpoint.Stop path ->
          Fmt.pr "checkpointed and stopped; resume with --resume %s@." path;
          exit 0
      | Vekt_error.Error err ->
          crash_dump err;
          raise (Vekt_error.Error err)
    in
    (match r.Api.recovered with
    | Some err ->
        Fmt.epr "recovered from fault via reference emulator: %a@."
          Vekt_error.pp err
    | None -> ());
    print_device_dumps dev args dumps;
    let em, yld, body = Stats.cycle_breakdown r.Api.stats in
    Fmt.pr
      "%.0f cycles (%.3f ms), %.2f GFLOP/s, avg warp %.2f; cycles: EM %.0f%% yield %.0f%% kernel %.0f%%@."
      r.Api.cycles r.Api.time_ms r.Api.gflops r.Api.avg_warp_size (100. *. em)
      (100. *. yld) (100. *. body);
    (match (trace, tracer) with
    | Some path, Some t ->
        write_artifact path
          ~stdout:(fun ppf -> Fmt.string ppf (Obs.Trace.to_text t))
          ~file:(fun () ->
            if String.ends_with ~suffix:".txt" path then Obs.Trace.to_text t
            else Obs.Trace.to_chrome_json t)
          ~note:
            (Fmt.pr "trace: %d events (%d dropped) -> %s@."
               (Obs.Trace.recorded t) (Obs.Trace.dropped t))
    | _ -> ());
    (match prof with
    | Some p when profile ->
        Obs.Divergence.report Fmt.stdout p;
        Fmt.pr
          "profile totals: %d warps, %d restores (stats: %d warps, %d restores)@."
          (Obs.Divergence.total_entries p)
          (Obs.Divergence.total_restores p)
          (Stats.total_warps r.Api.stats)
          r.Api.stats.Stats.counters.Vekt_vm.Interp.restores
    | _ -> ());
    (match (report, tracer) with
    | Some rpath, Some t ->
        let rep =
          Vekt_runtime.Report.build ~kernel ~src
            ~workers:(Option.value config.Api.workers ~default:dev.Api.workers)
            ~trace:t
            ~attr:(Option.value attr ~default:(Obs.Attribution.create ()))
            ?profile:prof r
        in
        write_artifact rpath
          ~stdout:(fun ppf -> Fmt.string ppf (Vekt_runtime.Report.render rep))
          ~file:(fun () ->
            Jsonx.to_string (Vekt_runtime.Report.to_json rep))
          ~note:(Fmt.pr "report -> %s@.")
    | _ -> ());
    match metrics with
    | Some path ->
        let reg = Api.metrics api_m ~kernel r in
        write_artifact path
          ~stdout:(fun ppf -> Obs.Metrics.pp ppf reg)
          ~file:(fun () ->
            if String.ends_with ~suffix:".json" path then
              Jsonx.to_string (Obs.Metrics.to_json reg)
            else Obs.Metrics.to_csv reg)
          ~note:
            (Fmt.pr "metrics: %d series -> %s@."
               (List.length (Obs.Metrics.names reg)))
    | None -> ()
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record an event trace and write it to $(docv): Chrome \
             trace-event JSON (open in Perfetto), or plain text if $(docv) \
             ends in .txt")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print the per-entry-point divergence profile after the run")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Export the metrics registry to $(docv): CSV by default, JSON if \
             $(docv) ends in .json, human-readable on stdout if $(docv) is -")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write a post-launch report to $(docv) (JSON), or print the \
             human-readable form on stdout if $(docv) is -. Implies span \
             tracing, source-line cycle attribution and divergence \
             profiling. If the launch dies on a structured error, a crash \
             bundle is dumped to $(docv).crash.json instead.")
  in
  let checkpoint_stop_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-stop" ] ~docv:"K"
          ~doc:
            "Stop the launch (exit 0) right after its $(docv)th snapshot \
             is written — a forced preemption, to be continued later with \
             $(b,--resume)")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"SNAP"
          ~doc:
            "Resume an interrupted launch from snapshot file $(docv) \
             instead of starting from scratch (same kernel, grid, block \
             and $(b,-c workers) as the snapshotted run)")
  in
  let deadline_ms_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for the launch: past $(docv) milliseconds \
             the launch is killed at its next safe point with a structured \
             deadline error (a partial snapshot is kept when checkpointing \
             is on)")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Launch a kernel on the simulated vector machine")
    Term.(
      const run $ file_arg $ kernel_arg $ grid_arg $ block_arg $ args_arg $ dump_arg
      $ config_arg $ checkpoint_stop_arg $ resume_arg $ deadline_ms_arg
      $ trace_arg $ profile_arg $ metrics_arg $ report_arg)

(* ---- emulate ---- *)

let emulate_cmd =
  let run file kernel grid block arg_specs dumps =
    let dev = Api.create_device () in
    let _, api_m = load file (Api.load_module dev) in
    let kernel = pick_kernel api_m.Api.ast kernel in
    let args = List.map (parse_arg_spec dev) arg_specs in
    let g =
      Api.launch_reference api_m ~kernel ~grid:(Launch.dim3 grid)
        ~block:(Launch.dim3 block)
        ~args:(List.map (fun a -> a.Api.launch_arg) args)
    in
    (* copy emulator results back so dumps read them *)
    Bytes.blit (Mem.bytes g) 0 (Mem.bytes dev.Api.global) 0 (Mem.size g);
    print_device_dumps dev args dumps;
    Fmt.pr "emulated OK@."
  in
  Cmd.v
    (Cmd.info "emulate" ~doc:"Launch a kernel on the reference scalar emulator")
    Term.(const run $ file_arg $ kernel_arg $ grid_arg $ block_arg $ args_arg $ dump_arg)

(* ---- info ---- *)

let info_cmd =
  let run file kernel =
    let kernel, c = load_cache file kernel Api.default_config in
    let f = c.TC.scalar and plan = c.TC.plan in
    Fmt.pr "kernel %s@." kernel;
    Fmt.pr "  scalar IR: %d instructions in %d blocks@." (Ir.size f)
      (List.length (Ir.blocks f));
    (* local: the declared area as laid out (16-aligned), then the spills *)
    Fmt.pr "  shared memory: %d bytes/CTA; local: %d bytes/thread (+%d spill)@."
      c.TC.shared_bytes
      (c.TC.local_bytes - plan.Plan.spill_bytes)
      plan.Plan.spill_bytes;
    Fmt.pr "  entry points:@.";
    List.iter
      (fun (l, id) ->
        Fmt.pr "    %d: %s (restores %d values)@." id l
          (Vekt_analysis.Liveness.ISet.cardinal (Plan.entry_live plan l)))
      plan.Plan.entry_ids;
    Fmt.pr "  thread-invariant instructions: %.1f%% (%.1f%% under static warps)@."
      (100. *. Affine.invariant_fraction ~static_warps:false f)
      (100. *. Affine.invariant_fraction ~static_warps:true f);
    Fmt.pr "  uniform branches: %d@."
      (List.length (Affine.uniform_branches f))
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Static facts about a kernel")
    Term.(const run $ file_arg $ kernel_arg)

(* ---- fuzz: differential kernel fuzzing (DESIGN.md §3.9) ---- *)

let fuzz_cmd =
  let run seed count budget_s repro_dir replay_file =
    match replay_file with
    | Some file ->
        (* replay one kernel (e.g. a corpus file) through the full matrix *)
        let src = read_file file in
        let spec = Vekt_fuzz.Gen.spec_of_src src in
        (match Vekt_fuzz.Runner.run_spec spec with
        | Vekt_fuzz.Runner.Clean n -> Fmt.pr "clean: %d configurations agree@." n
        | Vekt_fuzz.Runner.Rejected tag ->
            Fmt.pr "rejected: %s@." tag;
            exit 2
        | Vekt_fuzz.Runner.Diverged divs ->
            List.iter
              (fun d ->
                Fmt.pr "[%s] %s@." d.Vekt_fuzz.Runner.cfg d.Vekt_fuzz.Runner.what)
              divs;
            exit 1)
    | None ->
        let s =
          Vekt_fuzz.Runner.run_campaign ~log:(Fmt.pr "%s@.") ?budget_s ~seed
            ~count ()
        in
        Fmt.pr "%a" Vekt_fuzz.Runner.pp_summary s;
        (* write each shrunk reproducer next to the campaign *)
        if s.Vekt_fuzz.Runner.failures <> [] then begin
          (try Sys.mkdir repro_dir 0o755 with Sys_error _ -> ());
          List.iter
            (fun (f : Vekt_fuzz.Runner.failure) ->
              let path =
                Filename.concat repro_dir (Fmt.str "repro-seed-%d.ptx" f.seed)
              in
              let oc = open_out path in
              output_string oc f.repro.Vekt_fuzz.Gen.src;
              close_out oc;
              Fmt.pr "shrunk reproducer written to %s@." path)
            s.Vekt_fuzz.Runner.failures;
          exit 1
        end
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"First seed")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of kernels to generate")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget; the campaign stops early when exceeded")
  in
  let repro_arg =
    Arg.(
      value & opt string "_fuzz"
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Where shrunk reproducers are written")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay one PTX kernel (fuzz protocol, [// vekt-fuzz] header) \
             through the full configuration matrix instead of generating")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the compiler: generated well-typed kernels run \
          through the emulator oracle and every execution configuration; any \
          mismatch is shrunk to a minimal reproducer")
    Term.(
      const run $ seed_arg $ count_arg $ budget_arg $ repro_arg $ replay_arg)

(* ---- serve / submit / client: the persistent daemon ---- *)

module Server = Vekt_server.Server

let socket_arg =
  Arg.(
    value & opt string "vekt.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let serve_cmd =
  let run socket ckpt_dir quota weight global_mb high_watermark low_watermark
      session_ttl archive_cap read_deadline =
    let t =
      Server.create ~quota ~weight ~ckpt_dir
        ~global_bytes:(global_mb * 1024 * 1024) ~high_watermark ~low_watermark
        ?session_ttl_s:session_ttl ~archive_cap ()
    in
    (match Server.recovered t with
    | [] -> ()
    | rs ->
        List.iter
          (fun (r : Server.recovered) ->
            Fmt.pr "recovered job %d (%s, tenant %s) from previous instance@."
              r.Server.r_job r.Server.r_label r.Server.r_tenant)
          rs);
    Fmt.pr "vekt daemon listening on %s@." socket;
    Server.serve t ~read_deadline_s:read_deadline ~socket ();
    Fmt.pr "vekt daemon: clean shutdown@."
  in
  let ckpt_dir_arg =
    Arg.(
      value & opt string "vekt-serve-ckpt"
      & info [ "ckpt-dir" ] ~docv:"DIR"
          ~doc:
            "Checkpoint root: each preemptible job snapshots into its own \
             subdirectory, swept on completion and at clean shutdown. After \
             a crash, the next serve on the same root re-admits the jobs it \
             finds there and resumes them from their newest snapshots.")
  in
  let quota_arg =
    Arg.(
      value & opt int 16
      & info [ "quota" ] ~docv:"N"
          ~doc:"Default per-tenant limit on jobs in flight")
  in
  let weight_arg =
    Arg.(
      value & opt int 1
      & info [ "weight" ] ~docv:"N"
          ~doc:"Default tenant fairness weight (stride scheduling)")
  in
  let global_mb_arg =
    Arg.(
      value & opt int 64
      & info [ "global-mb" ] ~docv:"MB" ~doc:"Per-session global memory size")
  in
  let high_watermark_arg =
    Arg.(
      value & opt int 64
      & info [ "high-watermark" ] ~docv:"N"
          ~doc:
            "Backlog size that trips overload shedding: past $(docv) queued \
             jobs, new submits that don't beat the best queued priority are \
             rejected with a structured overloaded error and a \
             retry_after_ms hint")
  in
  let low_watermark_arg =
    Arg.(
      value & opt int 48
      & info [ "low-watermark" ] ~docv:"N"
          ~doc:
            "Backlog size at which shedding stops again (hysteresis; must \
             be below the high watermark)")
  in
  let session_ttl_arg =
    Arg.(
      value & opt (some float) None
      & info [ "session-ttl" ] ~docv:"SECONDS"
          ~doc:
            "Reap sessions idle longer than $(docv) whose jobs have all \
             finished: their arenas are freed and their tallies archived, \
             exactly as on close-session. Default: never reap.")
  in
  let archive_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "archive-cap" ] ~docv:"N"
          ~doc:
            "Keep archived tallies for at most $(docv) tenants, evicting \
             the least recently closed")
  in
  let read_deadline_arg =
    Arg.(
      value & opt float 10.0
      & info [ "read-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Drop a connection that sits on an incomplete request line (or \
             stalls reading a response) longer than $(docv)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent multi-tenant vekt daemon: sessions over a \
          Unix-domain socket share one engine, so hot kernels compiled for \
          one tenant are cache hits for the next")
    Term.(
      const run $ socket_arg $ ckpt_dir_arg $ quota_arg $ weight_arg
      $ global_mb_arg $ high_watermark_arg $ low_watermark_arg
      $ session_ttl_arg $ archive_cap_arg $ read_deadline_arg)

(* A tiny synchronous client: one request line out, one response line
   back. *)
let connect socket =
  try Unix.open_connection (Unix.ADDR_UNIX socket)
  with Unix.Unix_error (e, _, _) ->
    Fmt.epr "cannot connect to %s: %s (is `vektc serve` running?)@." socket
      (Unix.error_message e);
    exit 1

let request (ic, oc) (j : Jsonx.t) : Jsonx.t =
  output_string oc (Jsonx.to_string j);
  output_char oc '\n';
  flush oc;
  let line = try input_line ic with End_of_file ->
    Fmt.epr "daemon closed the connection@.";
    exit 1
  in
  match Jsonx.of_string line with
  | Ok r -> r
  | Error e ->
      Fmt.epr "malformed response: %s@." e;
      exit 1

(* Unwrap a response, exiting with the daemon's structured error. *)
let expect_ok what (r : Jsonx.t) : Jsonx.t =
  if Jsonx.bool_mem "ok" r = Some true then r
  else begin
    let kind =
      Option.value ~default:"?"
        (Option.bind (Jsonx.mem "error" r) (Jsonx.str_mem "kind"))
    in
    let message =
      Option.value ~default:(Jsonx.to_string r)
        (Option.bind (Jsonx.mem "error" r) (Jsonx.str_mem "message"))
    in
    Fmt.epr "%s: %s error: %s@." what kind message;
    exit 1
  end

(* Capped exponential backoff with full jitter for shed submits: the
   daemon's overloaded error carries a retry_after_ms hint computed
   from its live backlog; we honor it (floored by our own doubling
   backoff, capped at 10 s), and jitter the sleep so a burst of shed
   clients doesn't reconverge in lockstep.  Safe to retry because the
   request carries an idempotency key: if the daemon actually admitted
   an earlier attempt, the retry is answered from its dedup cache
   instead of double-launching. *)
let submit_with_backoff ~req ~max_retries fields : Jsonx.t =
  let rec go attempt backoff_ms =
    let r = req "submit-launch" fields in
    let kind =
      Option.bind (Jsonx.mem "error" r) (Jsonx.str_mem "kind")
    in
    if
      Jsonx.bool_mem "ok" r <> Some true
      && kind = Some "overloaded"
      && attempt < max_retries
    then begin
      let hint =
        Option.value ~default:backoff_ms
          (Option.bind (Jsonx.mem "error" r) (Jsonx.int_mem "retry_after_ms"))
      in
      let wait = min 10_000 (max hint backoff_ms) in
      let wait = (wait / 2) + Random.int (max 1 ((wait / 2) + 1)) in
      Fmt.epr "daemon overloaded; retry %d/%d in %d ms@." (attempt + 1)
        max_retries wait;
      Unix.sleepf (float_of_int wait /. 1000.0);
      go (attempt + 1) (min 10_000 (backoff_ms * 2))
    end
    else expect_ok "submit-launch" r
  in
  go 0 100

let submit_cmd =
  let run file kernel grid block arg_specs dumps socket tenant priority label
      config_pairs poll_ms deadline_ms max_retries idem_key =
    Random.self_init ();
    let src, m = load file Typecheck.load in
    let kernel = pick_kernel m kernel in
    let conn = connect socket in
    let req cmd fields = request conn (Jsonx.Obj (("cmd", Jsonx.Str cmd) :: fields)) in
    let r = expect_ok "open-session" (req "open-session" [ ("tenant", Jsonx.Str tenant) ]) in
    let session = Option.get (Jsonx.int_mem "session" r) in
    let sfield = ("session", Jsonx.Int session) in
    let config = Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) config_pairs) in
    let r =
      expect_ok "load-module"
        (req "load-module" [ sfield; ("src", Jsonx.Str src); ("config", config) ])
    in
    let modul = Option.get (Jsonx.int_mem "module" r) in
    let idem_key =
      match idem_key with
      | Some k -> k
      | None ->
          (* fresh per invocation: retries of *this* submit dedup, a
             re-run of the command is a new launch *)
          Fmt.str "vektc-%d-%.0f" (Unix.getpid ())
            (Unix.gettimeofday () *. 1e6)
    in
    let r =
      submit_with_backoff ~req ~max_retries
        ([
           sfield;
           ("module", Jsonx.Int modul);
           ("kernel", Jsonx.Str kernel);
           ("grid", Jsonx.Int grid);
           ("block", Jsonx.Int block);
           ("args", Jsonx.List (List.map (fun s -> Jsonx.Str s) arg_specs));
           ("priority", Jsonx.Int priority);
           ("label", Jsonx.Str (Option.value label ~default:kernel));
           ("idempotency-key", Jsonx.Str idem_key);
         ]
        @
        match deadline_ms with
        | None -> []
        | Some ms -> [ ("deadline-ms", Jsonx.Int ms) ])
    in
    let job = Option.get (Jsonx.int_mem "job" r) in
    let arg_addrs = Option.value (Jsonx.list_mem "args" r) ~default:[] in
    Fmt.pr "job %d submitted (tenant %s)@." job tenant;
    let rec poll () =
      let r = expect_ok "poll" (req "poll" [ ("job", Jsonx.Int job) ]) in
      match Option.get (Jsonx.str_mem "state" r) with
      | "done" -> r
      | "failed" | "cancelled" ->
          Fmt.epr "job %d: %s@." job (Jsonx.to_string r);
          exit 1
      | _ ->
          Unix.sleepf (float_of_int poll_ms /. 1000.0);
          poll ()
    in
    let r = poll () in
    (match Jsonx.mem "result" r with
    | Some res ->
        let f k = Option.value ~default:0.0 (match Jsonx.mem k res with
          | Some (Jsonx.Float x) -> Some x
          | Some (Jsonx.Int n) -> Some (float_of_int n)
          | _ -> None)
        in
        Fmt.pr "%.0f cycles (%.3f ms), %.2f GFLOP/s, avg warp %.2f@."
          (f "cycles") (f "time_ms") (f "gflops") (f "avg_warp_size")
    | None -> ());
    (match (Jsonx.int_mem "preemptions" r, Jsonx.mem "wait_us" r) with
    | Some p, Some (Jsonx.Float w) when p > 0 ->
        Fmt.pr "preempted %d time(s); queue wait %.1f ms@." p (w /. 1000.)
    | _ -> ());
    (* dumps read buffers back through the protocol, by submit-time addr *)
    print_dumps dumps
      ~addr:(fun i ->
        match List.nth_opt arg_addrs i with
        | Some (Jsonx.Int a) -> Some a
        | _ -> None)
      ~read:(fun ty addr count ->
        let r =
          expect_ok "read"
            (req "read"
               [
                 sfield;
                 ("addr", Jsonx.Int addr);
                 ("ty", Jsonx.Str ty);
                 ("count", Jsonx.Int count);
               ])
        in
        List.filter_map
          (function
            | Jsonx.Int n -> Some (string_of_int n)
            | Jsonx.Float x -> Some (Fmt.str "%g" x)
            | _ -> None)
          (Option.value (Jsonx.list_mem "values" r) ~default:[]));
    ignore (expect_ok "close-session" (req "close-session" [ sfield ]))
  in
  let tenant_arg =
    Arg.(
      value & opt string "default"
      & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant to submit as")
  in
  let priority_arg =
    Arg.(
      value & opt int 0
      & info [ "priority" ] ~docv:"N"
          ~doc:
            "Job priority: strictly higher priorities run first and preempt \
             a running lower-priority launch at its next safe point")
  in
  let label_arg =
    Arg.(
      value & opt (some string) None
      & info [ "label" ] ~docv:"NAME" ~doc:"Job label (default: kernel name)")
  in
  let poll_ms_arg =
    Arg.(
      value & opt int 20
      & info [ "poll-ms" ] ~docv:"MS" ~doc:"Completion polling interval")
  in
  let deadline_ms_arg =
    Arg.(
      value & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Whole-job wall-clock budget (queue wait + run): a job past it \
             is failed with a structured deadline error — expired unrun if \
             still queued, killed at its next safe point if running")
  in
  let max_retries_arg =
    Arg.(
      value & opt int 5
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Retries when the daemon sheds the submit as overloaded \
             (capped exponential backoff with jitter, honoring the \
             daemon's retry_after_ms hint)")
  in
  let idem_key_arg =
    Arg.(
      value & opt (some string) None
      & info [ "idempotency-key" ] ~docv:"KEY"
          ~doc:
            "Idempotency key sent with the submit so retries never \
             double-launch (default: generated fresh per invocation)")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a kernel launch to a running vekt daemon and wait for the \
          result")
    Term.(
      const run $ file_arg $ kernel_arg $ grid_arg $ block_arg $ args_arg
      $ dump_arg $ socket_arg $ tenant_arg $ priority_arg $ label_arg
      $ config_arg $ poll_ms_arg $ deadline_ms_arg $ max_retries_arg
      $ idem_key_arg)

let client_cmd =
  let run socket exprs =
    let ((ic, oc) as conn) = connect socket in
    let send line =
      if String.trim line <> "" then
        match Jsonx.of_string line with
        | Error e -> Fmt.epr "request not sent, parse error: %s@." e
        | Ok j -> Fmt.pr "%s@." (Jsonx.to_string (request conn j))
    in
    (match exprs with
    | [] -> ( try
        while true do
          send (input_line stdin)
        done
      with End_of_file -> ())
    | es -> List.iter send es);
    close_out_noerr oc;
    close_in_noerr ic
  in
  let expr_arg =
    Arg.(
      value & opt_all string []
      & info [ "e"; "expr" ] ~docv:"JSON"
          ~doc:
            "Request to send (repeatable); without it, requests are read \
             line by line from stdin")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Speak raw protocol JSON to a running vekt daemon (one request per \
          line)")
    Term.(const run $ socket_arg $ expr_arg)

(* ---- chaos: crash-point enumeration over the daemon ---- *)

let chaos_cmd =
  let module H = Vekt_chaos_harness.Harness in
  let module Injector = Vekt_chaos.Injector in
  let run seed budget state_dir repro_dir stop_on_first replay_file =
    let dir =
      match state_dir with
      | Some d -> d
      | None ->
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Fmt.str "vekt-chaos-%d" (Unix.getpid ()))
    in
    match replay_file with
    | Some file -> (
        match H.parse_repro (read_file file) with
        | Error msg ->
            Fmt.epr "bad repro file: %s@." msg;
            exit 2
        | Ok r -> (
            Fmt.pr "replaying crash @%d (%s) over %d steps, seed %d@."
              r.H.r_boundary
              (Injector.flavor_name r.H.r_flavor)
              (List.length r.H.r_steps) r.H.r_seed;
            match H.replay ~dir r with
            | [] -> Fmt.pr "no violation: the schedule no longer fails@."
            | violations ->
                List.iter (Fmt.pr "violation: %s@.") violations;
                exit 1))
    | None ->
        let c =
          H.run_campaign ~seed ~budget ~stop_on_first ~log:(Fmt.pr "%s@.") ~dir
            ~steps:Vekt_chaos_harness.Script.default ()
        in
        Fmt.pr "chaos: %d boundaries, %d drills, %d failing crash points@."
          c.H.c_boundaries c.H.c_drills
          (List.length c.H.c_failures);
        if c.H.c_failures <> [] then begin
          (try Sys.mkdir repro_dir 0o755 with Sys_error _ -> ());
          List.iter
            (fun (f : H.failure) ->
              let steps, f' =
                H.minimize ~seed ~dir f Vekt_chaos_harness.Script.default
              in
              let path =
                Filename.concat repro_dir
                  (Fmt.str "chaos-%d-%s.json" f.H.f_boundary
                     (Injector.flavor_name f.H.f_flavor))
              in
              H.write_repro ~path ~seed f' steps;
              Fmt.pr "minimized repro (%d steps) written to %s@."
                (List.length steps) path)
            c.H.c_failures;
          exit 1
        end
  in
  let seed_arg =
    Arg.(
      value & opt int 0x5eed
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the injector's worst-case rollback choices")
  in
  let budget_arg =
    Arg.(
      value & opt int 0
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Cap on crash points drilled (evenly thinned across the \
             timeline); 0 drills every one")
  in
  let state_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:"Server state directory to torture (default: a temp dir)")
  in
  let repro_arg =
    Arg.(
      value & opt string "_chaos"
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Where minimized repro schedules are written")
  in
  let stop_arg =
    Arg.(
      value & flag
      & info [ "stop-on-first" ] ~doc:"Stop at the first failing crash point")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay one minimized repro schedule instead of enumerating")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Crash-test the daemon: enumerate every I/O boundary a scripted \
          multi-tenant workload reaches, simulate a process death at each \
          (torn writes, lost renames, bit-flipped tails included), restart \
          on the surviving state and verify no acknowledged job is lost, \
          duplicated or corrupted; failing schedules are minimized to \
          replayable repro files")
    Term.(
      const run $ seed_arg $ budget_arg $ state_arg $ repro_arg $ stop_arg
      $ replay_arg)

let () =
  let doc = "dynamic compilation of data-parallel kernels for vector processors" in
  try
    exit
      (Cmd.eval ~catch:false
         (Cmd.group (Cmd.info "vektc" ~version:"1.0.0" ~doc)
            [
              check_cmd; compile_cmd; run_cmd; emulate_cmd; info_cmd;
              fuzz_cmd; serve_cmd; submit_cmd; client_cmd; chaos_cmd;
            ]))
  with
  | Failure e | Invalid_argument e ->
      Fmt.epr "error: %s@." e;
      exit 1
  | Vekt_ptx.Emulator.Trap e | Vekt_vm.Interp.Trap e ->
      Fmt.epr "runtime trap: %s@." e;
      exit 1
  | Vekt_ptx.Mem.Fault a ->
      Fmt.epr "memory fault: %a@." Vekt_error.pp_access a;
      exit 1
  | Vekt_error.Error e ->
      Fmt.epr "error: %a@." Vekt_error.pp e;
      exit 1
