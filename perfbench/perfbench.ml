(* vekt's benchmark: three workloads, measured end to end (--trace 0) or
   per layer (--trace 1).  See perfbench/README.md.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe smoke

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; the line before it is
   the run's provenance. *)

open Measure
module J = Vekt_server.Jsonx

let workloads = [ "suite-warm"; "jit-cold"; "daemon-mixed" ]

(* Setups per timed run; set-up time is their median. *)
let setups = 3

let run ~workload ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  match (workload, trace) with
  | "suite-warm", false -> Suite_warm.timed_run ~seconds ~setups rng
  | "suite-warm", true -> Suite_warm.traced_run rng
  | "jit-cold", false -> Jit_cold.timed_run ~seconds ~setups rng
  | "jit-cold", true -> Jit_cold.traced_run rng
  | "daemon-mixed", false -> Daemon_mixed.timed_run ~seconds ~setups rng
  | "daemon-mixed", true -> Daemon_mixed.traced_run ~seconds rng
  | _ -> invalid_arg workload

(* The printed metric set is the table in [Layers], in its order.  A
   traced run reports 0 for the layers its workload does not exercise. *)
let complete ~workload ~trace (r : report) =
  let table = if trace then Layers.per_layer else Layers.end_to_end in
  List.iter
    (fun (name, _, _) ->
      if not (List.exists (fun (x : Layers.metric) -> x.name = name) table) then
        Fmt.failwith "metric %s is not in the table" name)
    r.metrics;
  List.map
    (fun (x : Layers.metric) ->
      match List.find_opt (fun (n, _, _) -> n = x.name) r.metrics with
      | Some (_, v, _) -> (x.name, v, x.unit)
      | None when x.workload <> workload && x.workload <> "all" -> (x.name, 0.0, x.unit)
      | None -> Fmt.failwith "%s did not report %s" workload x.name)
    table

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic ->
      let n = try String.trim (input_line ic) with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      n
  | exception Unix.Unix_error _ -> "unknown"

let provenance ~workload ~seed ~trace (r : report) =
  let commit =
    match Sys.getenv_opt "VEKT_COMMIT" with
    | Some c when c <> "" -> c
    | _ -> "unknown"
  in
  J.Obj
    (List.map
       (fun (k, v) -> (k, J.Str v))
       ([
          ("workload", workload);
          ("seed", string_of_int seed);
          ("trace", string_of_bool trace);
          ("commit", commit);
          ("ocaml", Sys.ocaml_version);
          ("nproc", nproc ());
          ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
        ]
       @ r.provenance))

let result_json (r : report) metrics =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, v, unit) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
             metrics) );
    ]

let usage () =
  Fmt.epr
    "usage: perfbench --workload %s --seed N --seconds S --trace 0|1@.       perfbench smoke@."
    (String.concat "|" workloads);
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "smoke" ] -> exit (Smoke.run ~workloads ~run ~complete)
  | args ->
      let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
      let rec parse = function
        | "--workload" :: v :: rest -> workload := v; parse rest
        | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
        | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
        | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
        | [] -> ()
        | _ -> usage ()
      in
      (try parse args with Failure _ -> usage ());
      if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then usage ();
      let trace = !trace = 1 in
      let r = run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace in
      let metrics = complete ~workload:!workload ~trace r in
      print_endline (J.to_string (provenance ~workload:!workload ~seed:!seed ~trace r));
      print_endline (J.to_string (result_json r metrics))
