(* The benchmark's own smoke check (perfbench/run.sh smoke): one short
   timed and one traced iteration of every workload, then

   - the printed metric names and units against BENCHMARK.json;
   - the determinism guard across runs: the traced runs' deterministic
     counts must equal the timed runs';
   - the fig6 cross-check: per-application modelled cycles of the
     suite-warm launches must equal the vec4 column of
     `bench/main.exe fig6 --scale 2`, so the benchmark and the paper
     figures measure one program. *)

open Measure
module J = Vekt_server.Jsonx

let problems = ref 0

let problem fmt =
  Fmt.kstr
    (fun s ->
      incr problems;
      Fmt.epr "smoke: FAIL %s@." s)
    fmt

(* (name, unit, better) of every metric BENCHMARK.json lists under [key]. *)
let listed key json =
  Option.value (J.list_mem key json) ~default:[]
  |> List.map (fun m ->
         let f k = Option.value (J.str_mem k m) ~default:"" in
         (f "name", f "unit", f "better"))

let check_names ~what expected printed =
  let sort = List.sort compare in
  let show l = String.concat "; " (List.map (fun (n, u, b) -> String.concat " " [ n; u; b ]) (sort l)) in
  if sort expected <> sort printed then
    problem "%s: BENCHMARK.json lists [%s], the run printed [%s]" what (show expected)
      (show printed)

(* vec4 column of the fig6 table: "<app> <scalar> <vec4> <speedup> <paper>". *)
let fig6_vec4 () =
  let exe = Filename.concat "_build" (Filename.concat "default" "bench/main.exe") in
  let ic = Unix.open_process_args_in exe [| exe; "fig6"; "--scale"; "2" |] in
  let rows = ref [] in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
       | [ app; _; vec4; _; _ ] -> rows := (app, vec4) :: !rows
       | _ -> ()
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> problem "bench/main.exe fig6 failed");
  !rows

let run ~workloads ~run ~complete =
  let bench =
    match J.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let bench_workloads =
    Option.value (J.list_mem "workloads" bench) ~default:[]
    |> List.filter_map (J.str_mem "name")
  in
  if List.sort compare bench_workloads <> List.sort compare workloads then
    problem "BENCHMARK.json workloads [%s]" (String.concat "; " bench_workloads);
  let reports = Hashtbl.create 8 in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let r = run ~workload ~seed:0 ~seconds:1.0 ~trace in
          let metrics = complete ~workload ~trace r in
          Fmt.epr "smoke: %s trace=%b: correct=%b attempted=%d failed=%d@." workload trace
            r.correct r.attempted r.failed;
          if not r.correct || r.failed > 0 then problem "%s trace=%b: failed operations" workload trace;
          let table = if trace then Layers.per_layer else Layers.end_to_end in
          check_names
            ~what:(Printf.sprintf "%s trace=%b" workload trace)
            (listed (if trace then "per_layer" else "end_to_end") bench)
            (List.map
               (fun (n, _, u) ->
                 let x = List.find (fun (x : Layers.metric) -> x.name = n) table in
                 (n, u, Layers.better_name x))
               metrics);
          Hashtbl.replace reports (workload, trace) (r, metrics))
        [ false; true ])
    workloads;
  (* the deterministic quantities of a timed run reappear in the traced
     run of the same workload *)
  let prov w k = List.assoc_opt k (fst (Hashtbl.find reports (w, false))).provenance in
  let layer w k =
    List.find_map (fun (n, v, _) -> if n = k then Some v else None)
      (snd (Hashtbl.find reports (w, true)))
  in
  let same what a b =
    match (a, b) with
    | Some a, Some b when Float.abs (a -. b) <= 1e-9 *. Float.abs a -> ()
    | _ -> problem "determinism: %s differs between runs" what
  in
  same "static_instrs_total"
    (Option.bind (prov "jit-cold" "static_instrs_total") float_of_string_opt)
    (layer "jit-cold" "ir.static_instrs_total");
  (* a fresh engine at the default config, for the traced run's modelled
     cycles and the fig6 cross-check *)
  let g = Guard.create () in
  ignore (Suite_warm.setup (tally ()) g);
  same "modelled_cycles_geomean" (Some (Suite_warm.modelled_cycles_geomean g))
    (layer "suite-warm" "timing.modelled_cycles_geomean");
  let fig6 = fig6_vec4 () in
  List.iter
    (fun (w : Vekt_workloads.Workload.t) ->
      if not (List.mem w.name Suite_warm.racy_wall_cycles) then
        match (Guard.find g (Printf.sprintf "default.%s.cycles" w.name), List.assoc_opt w.name fig6) with
        | Some ours, Some theirs when Printf.sprintf "%.0f" ours = theirs -> ()
        | ours, theirs ->
            problem "fig6: %s cycles %s here, %s in fig6 --scale 2" w.name
              (Option.fold ~none:"-" ~some:(Printf.sprintf "%.0f") ours)
              (Option.value theirs ~default:"-"))
    Vekt_workloads.Registry.all;
  if !Guard.violations > 0 then problem "determinism guard: %d violations" !Guard.violations;
  if !problems = 0 then Fmt.epr "smoke: ok@." else Fmt.epr "smoke: %d problems@." !problems;
  if !problems = 0 then 0 else 1
