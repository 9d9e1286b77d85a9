(** Differential harness: run one fuzz kernel through the reference
    emulator (the oracle) and the full execution-configuration matrix,
    asserting bit-identical memory images and conserved integer stats
    (DESIGN.md §3.9).

    The matrix crosses warp width {1, 4, 8} × vectorization mode
    (dynamic / static-TIE) × affine coalescing (off / on) × every
    scheduler policy legal for the mode, plus a worker-pool twin
    (1 vs 4 domains must produce identical memory {e and} identical
    integer counters) and a checkpoint leg (stop after the first
    snapshot, resume from it, compare the stitched result).  All legs of
    one kernel share one {!Vekt_runtime.Engine} so the worker twin and
    the checkpoint leg reuse compiled code (the cache fingerprint
    excludes worker count and checkpointing).

    A kernel the frontend rejects is not a failure: its [Unsupported]
    construct is normalized and tallied, and the tally doubles as the
    ISA-growth worklist. *)

module A = Vekt_ptx.Ast
module Mem = Vekt_ptx.Mem
module Launch = Vekt_ptx.Launch
module Typecheck = Vekt_ptx.Typecheck
module Emulator = Vekt_ptx.Emulator
module Scalar_ops = Vekt_ptx.Scalar_ops
module Vectorize = Vekt_transform.Vectorize
module Api = Vekt_runtime.Api
module Engine = Vekt_runtime.Engine
module Scheduler = Vekt_runtime.Scheduler
module Checkpoint = Vekt_runtime.Checkpoint
module Stats = Vekt_runtime.Stats

type divergence = { cfg : string; what : string }

type outcome =
  | Clean of int  (** number of configurations compared against the oracle *)
  | Rejected of string  (** normalized construct tag for the tally *)
  | Diverged of divergence list

(* Instruction budget per launch / per emulated CTA: bounds runaway loops
   in shrink candidates without ever firing on a generated kernel. *)
let default_fuel = 3_000_000

(* Small device: comparing full global images per leg must stay cheap. *)
let device_bytes = 64 * 1024

(* --------------------------------------------------------------- *)
(* Tally normalization: map a construct message to a stable bucket by
   blanking register names, numbers and quoted identifiers, so "unknown
   variable %foo" and "unknown variable %bar" count as one construct. *)

let normalize msg =
  let buf = Buffer.create (String.length msg) in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '.' || c = '-'
  in
  let n = String.length msg in
  let i = ref 0 in
  while !i < n do
    let c = msg.[!i] in
    if c = '%' || (c >= '0' && c <= '9') then begin
      (* swallow the whole register name / number *)
      Buffer.add_char buf '_';
      incr i;
      while !i < n && (is_word msg.[!i] || (msg.[!i] >= '0' && msg.[!i] <= '9'))
      do
        incr i
      done
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* --------------------------------------------------------------- *)
(* Launch plumbing                                                  *)

let input_word k = Int64.of_int (k * 2654435761 land 0xffffffff)

let setup (d : Api.device) =
  let o = Api.malloc d Gen.out_bytes in
  let i = Api.malloc d Gen.in_bytes in
  let a = Api.malloc d Gen.acc_bytes in
  for k = 0 to Gen.in_cells - 1 do
    Mem.store d.Api.global A.U32 (i + (4 * k)) (Scalar_ops.I (input_word k))
  done;
  [ Launch.Ptr o; Launch.Ptr i; Launch.Ptr a; Launch.I32 (Gen.in_cells) ]

(* one leg of the matrix *)
type leg = {
  cname : string;
  mode : Vectorize.mode;
  ws : int;
  affine : bool;
  sched : Scheduler.kind option;
  twin : bool;  (** also run with 4 worker domains and compare stats *)
}

let leg_name ~ws ~mode ~sched ~affine =
  Fmt.str "ws%d-%s-%s%s" ws
    (match mode with Vectorize.Dynamic -> "dyn" | Vectorize.Static_tie -> "tie")
    (match sched with None -> "def" | Some k -> Scheduler.kind_name k)
    (if affine then "-affine" else "")

let matrix : leg list =
  { cname = "scalar"; mode = Vectorize.Dynamic; ws = 1; affine = false;
    sched = None; twin = false }
  :: List.concat_map
       (fun ws ->
         List.concat_map
           (fun affine ->
             [ { cname = leg_name ~ws ~mode:Vectorize.Dynamic
                   ~sched:(Some Scheduler.Dynamic) ~affine;
                 mode = Vectorize.Dynamic; ws; affine;
                 sched = Some Scheduler.Dynamic; twin = not affine };
               { cname = leg_name ~ws ~mode:Vectorize.Dynamic
                   ~sched:(Some Scheduler.Barrier_aware) ~affine;
                 mode = Vectorize.Dynamic; ws; affine;
                 sched = Some Scheduler.Barrier_aware; twin = false };
               { cname = leg_name ~ws ~mode:Vectorize.Dynamic
                   ~sched:(Some Scheduler.Static) ~affine;
                 mode = Vectorize.Dynamic; ws; affine;
                 sched = Some Scheduler.Static; twin = false };
               (* TIE requires consecutive (static) warp formation *)
               { cname = leg_name ~ws ~mode:Vectorize.Static_tie
                   ~sched:(Some Scheduler.Static) ~affine;
                 mode = Vectorize.Static_tie; ws; affine;
                 sched = Some Scheduler.Static; twin = affine } ])
           [ false; true ])
       [ 4; 8 ]

let config_of_leg (leg : leg) : Api.config =
  { Api.default_config with
    mode = leg.mode;
    widths = List.filter (fun w -> w <= leg.ws) [ 8; 4; 1 ];
    affine = leg.affine;
    sched = leg.sched;
    workers = Some 1;
    verify = true }

let int_counters (s : Stats.t) =
  [ ("dyn_instrs", s.counters.dyn_instrs);
    ("blocks_executed", s.counters.blocks_executed);
    ("kernel_calls", s.counters.kernel_calls);
    ("restores", s.counters.restores);
    ("spills", s.counters.spills);
    ("flops", s.counters.flops);
    ("barrier_releases", s.barrier_releases);
    ("threads_launched", s.threads_launched) ]

let error_tag = function
  | Vekt_error.Error e -> Fmt.str "%a" Vekt_error.pp e
  | Scalar_ops.Unsupported s -> "scalar-ops: " ^ s
  | e -> Printexc.to_string e

let run_spec ?(fuel = default_fuel) (spec : Gen.t) : outcome =
  match Typecheck.load spec.src with
  | exception Vekt_error.Error (Vekt_error.Compile c) ->
      Rejected (Vekt_error.stage_name c.stage ^ ": " ^ normalize c.reason)
  | ast -> (
      let grid = Launch.dim3 spec.grid
      and block = Launch.dim3 ~y:spec.block_y spec.block in
      let engine = Engine.create ~workers:1 () in
      let fresh_device () =
        Api.create_device ~engine ~workers:1 ~global_bytes:device_bytes ()
      in
      (* oracle: serialize every thread through the reference emulator *)
      let dref = fresh_device () in
      let args = setup dref in
      match
        let global = Mem.copy dref.Api.global in
        ignore
          (Emulator.run ~fuel ast ~kernel:spec.kernel ~args ~global ~grid
             ~block);
        global
      with
      | exception e -> Rejected ("oracle: " ^ normalize (error_tag e))
      | oracle -> (
          let divs = ref [] in
          let compared = ref 0 in
          let rejected = ref None in
          let diverge cfg what = divs := { cfg; what } :: !divs in
          let launch_leg cname config =
            let d = fresh_device () in
            let m = Api.load_module ~config d spec.src in
            let args = setup d in
            let rep =
              Api.launch ~fuel m ~kernel:spec.kernel ~grid ~block ~args
            in
            incr compared;
            if not (Mem.equal d.Api.global oracle) then
              diverge cname "memory image differs from the oracle";
            rep
          in
          let guarded cname f =
            match f () with
            | r -> Some r
            | exception Vekt_error.Error (Vekt_error.Compile c)
              when c.stage = Vekt_error.Frontend ->
                (* width-independent frontend gap: tally, not a bug *)
                rejected := Some ("frontend: " ^ normalize c.reason);
                None
            | exception e ->
                diverge cname ("raised: " ^ error_tag e);
                None
          in
          let baseline = ref None in
          List.iter
            (fun leg ->
              let config = config_of_leg leg in
              match
                guarded leg.cname (fun () -> launch_leg leg.cname config)
              with
              | None -> ()
              | Some rep ->
                  (* integer stats conservation across the matrix *)
                  if rep.Api.stats.threads_launched <> Launch.count grid * Launch.count block
                  then
                    diverge leg.cname
                      (Fmt.str "threads_launched %d, expected %d"
                         rep.Api.stats.threads_launched
                         (Launch.count grid * Launch.count block));
                  (match !baseline with
                  | None ->
                      baseline :=
                        Some (leg.cname, rep.Api.stats.barrier_releases)
                  | Some (bname, releases) ->
                      if rep.Api.stats.barrier_releases <> releases then
                        diverge leg.cname
                          (Fmt.str
                             "barrier_releases %d, but %s released %d"
                             rep.Api.stats.barrier_releases bname releases));
                  if leg.twin then
                    ignore
                      (guarded (leg.cname ^ "-w4") (fun () ->
                           let d4 = fresh_device () in
                           let m4 =
                             Api.load_module
                               ~config:{ config with workers = Some 4; domains = Some 4 }
                               d4 spec.src
                           in
                           let args4 = setup d4 in
                           let rep4 =
                             Api.launch ~fuel m4 ~kernel:spec.kernel ~grid
                               ~block ~args:args4
                           in
                           incr compared;
                           if not (Mem.equal d4.Api.global oracle) then
                             diverge (leg.cname ^ "-w4")
                               "memory image differs from the oracle";
                           List.iter2
                             (fun (what, a) (_, b) ->
                               if a <> b then
                                 diverge (leg.cname ^ "-w4")
                                   (Fmt.str "%s: %d with 4 workers, %d with 1"
                                      what b a))
                             (int_counters rep.Api.stats)
                             (int_counters rep4.Api.stats);
                           rep4)))
            matrix;
          (* checkpoint leg: force a snapshot, resume from it, and the
             stitched run must land on the oracle image *)
          ignore
            (guarded "ckpt-resume" (fun () ->
                 let dir = Filename.concat "_fuzz" "ckpt" in
                 (try Sys.mkdir "_fuzz" 0o755 with Sys_error _ -> ());
                 (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
                 let config =
                   { (config_of_leg
                        { cname = "ckpt"; mode = Vectorize.Dynamic; ws = 4;
                          affine = false; sched = None; twin = false })
                     with checkpoint_every = 2; checkpoint_dir = dir }
                 in
                 let d = fresh_device () in
                 let m = Api.load_module ~config d spec.src in
                 let args = setup d in
                 let snapshot = ref None in
                 (match
                    Api.launch ~fuel ~checkpoint_stop:1 m ~kernel:spec.kernel
                      ~grid ~block ~args
                  with
                 | _rep -> ()  (* too short to reach a safe point *)
                 | exception Checkpoint.Stop path ->
                     snapshot := Some path;
                     ignore
                       (Api.launch ~fuel ~resume:path m ~kernel:spec.kernel
                          ~grid ~block ~args));
                 incr compared;
                 if not (Mem.equal d.Api.global oracle) then
                   diverge "ckpt-resume"
                     "memory image differs from the oracle after resume";
                 (* the resume run keeps checkpointing to completion, so
                    sweep every snapshot this kernel left behind *)
                 Array.iter
                   (fun f ->
                     if Filename.check_suffix f ".ckpt" then
                       try Sys.remove (Filename.concat dir f)
                       with Sys_error _ -> ())
                   (try Sys.readdir dir with Sys_error _ -> [||])));
          match (!divs, !rejected) with
          | [], None -> Clean !compared
          | [], Some tag -> Rejected tag
          | divs, _ -> Diverged (List.rev divs)))

(* --------------------------------------------------------------- *)
(* Campaign driver                                                  *)

type failure = {
  seed : int;
  divergences : divergence list;
  repro : Gen.t;  (** shrunk reproducer *)
}

type summary = {
  mutable generated : int;
  mutable clean : int;
  mutable rejected_n : int;
  tally : (string, int * int) Hashtbl.t;  (** construct -> count, first seed *)
  mutable failures : failure list;
  mutable elapsed_s : float;
}

let note_tally t ~seed construct =
  match Hashtbl.find_opt t construct with
  | Some (n, first) -> Hashtbl.replace t construct (n + 1, first)
  | None -> Hashtbl.replace t construct (1, seed)

let run_campaign ?(fuel = default_fuel) ?(log = fun (_ : string) -> ())
    ?budget_s ~seed ~count () : summary =
  let s =
    { generated = 0; clean = 0; rejected_n = 0; tally = Hashtbl.create 16;
      failures = []; elapsed_s = 0.0 }
  in
  let t0 = Unix.gettimeofday () in
  let over_budget () =
    match budget_s with
    | None -> false
    | Some b -> Unix.gettimeofday () -. t0 > b
  in
  (try
     for i = seed to seed + count - 1 do
       if over_budget () then raise Exit;
       let spec = Gen.generate ~seed:i in
       s.generated <- s.generated + 1;
       (match run_spec ~fuel spec with
       | Clean _ -> s.clean <- s.clean + 1
       | Rejected construct ->
           s.rejected_n <- s.rejected_n + 1;
           note_tally s.tally ~seed:i construct
       | Diverged divergences ->
           log (Fmt.str "seed %d: %d divergent configuration(s), shrinking…" i
                  (List.length divergences));
           let still_fails sp =
             match run_spec ~fuel sp with Diverged _ -> true | _ -> false
           in
           let repro = Shrink.minimize ~still_fails spec in
           s.failures <- { seed = i; divergences; repro } :: s.failures);
       if (i - seed + 1) mod 25 = 0 then
         log
           (Fmt.str "%d/%d kernels: %d clean, %d rejected, %d divergent"
              (i - seed + 1) count s.clean s.rejected_n
              (List.length s.failures))
     done
   with Exit -> log "budget exhausted, stopping early");
  s.elapsed_s <- Unix.gettimeofday () -. t0;
  s.failures <- List.rev s.failures;
  s

let pp_tally ppf (t : (string, int * int) Hashtbl.t) =
  let rows = Hashtbl.fold (fun c (n, first) acc -> (c, n, first) :: acc) t [] in
  let rows = List.sort (fun (_, a, _) (_, b, _) -> compare b a) rows in
  List.iter
    (fun (c, n, first) -> Fmt.pf ppf "  %4d× %s (e.g. seed %d)@." n c first)
    rows

let pp_summary ppf (s : summary) =
  Fmt.pf ppf "fuzz: %d kernels in %.1fs: %d clean, %d rejected, %d divergent@."
    s.generated s.elapsed_s s.clean s.rejected_n (List.length s.failures);
  if Hashtbl.length s.tally > 0 then begin
    Fmt.pf ppf "unsupported constructs (ISA-growth worklist):@.";
    pp_tally ppf s.tally
  end;
  List.iter
    (fun f ->
      Fmt.pf ppf "seed %d diverged:@." f.seed;
      List.iter
        (fun d -> Fmt.pf ppf "  [%s] %s@." d.cfg d.what)
        f.divergences)
    s.failures
