(** Declarative optimization pass manager ("the translation cache applies
    existing LLVM transformation passes including traditional compiler
    optimizations such as basic block fusion and common subexpression
    elimination", paper §5.1; Revec's lesson is that the pipeline should
    be retargetable data, not frozen code).

    Passes are named entries in a {!registry}; a {!pipeline} is a pass
    sequence plus an optional run-to-fixpoint bound, parseable from a
    spec string:

    {v
      constfold,cse,dce,fusion          one round, in order
      constfold,cse,dce,fusion:fix      repeat until no pass changes
                                        anything (bounded)
      cse,dce:fix=3                     fixpoint with an explicit bound
    v}

    The default pipeline runs every registered pass to fixpoint: constant
    folding exposes copies and dead branches; CSE turns redundant
    computations (including the thread-invariant replicas of §6.2) into
    copies; DCE sweeps the dead copies and pack/unpack traffic; fusion
    merges the straightened control flow, exposing work for the next
    round.  Every pass is size-non-increasing, so the fixpoint result is
    never larger than any fixed number of rounds. *)

module Ir = Vekt_ir.Ir

(** A named transformation: [run] mutates the function in place and
    returns the number of changes it made (folds, replacements,
    removals, fusions). *)
type pass = { name : string; run : Ir.func -> int }

let registry : pass list =
  [
    {
      name = "constfold";
      run =
        (fun f ->
          let s = Constfold.run f in
          s.Constfold.folded + s.Constfold.substituted
          + s.Constfold.branches_folded);
    };
    { name = "cse"; run = Cse.run };
    { name = "dce"; run = Dce.run };
    { name = "fusion"; run = Fusion.run };
  ]

let find_pass name = List.find_opt (fun p -> p.name = name) registry

let pass_names () = List.map (fun p -> p.name) registry

type pipeline = {
  passes : pass list;
  fixpoint : bool;
  max_rounds : int;  (** bound on fixpoint iteration (≥ 1) *)
}

let default_max_rounds = 10

let default_pipeline =
  { passes = registry; fixpoint = true; max_rounds = default_max_rounds }

(** The paper's frozen pipeline before this refactor: two rounds of
    every pass, no convergence check.  Kept for comparison benches and
    the fixpoint-is-no-worse regression test. *)
let two_round_pipeline = { passes = registry; fixpoint = false; max_rounds = 2 }

let pp_pipeline ppf (p : pipeline) =
  Fmt.pf ppf "%s%s"
    (String.concat "," (List.map (fun x -> x.name) p.passes))
    (if p.fixpoint then Fmt.str ":fix=%d" p.max_rounds else "")

(** Parse a pipeline spec string (see module doc for the grammar). *)
let parse_pipeline (spec : string) : (pipeline, string) result =
  let body, fixpoint, max_rounds =
    match String.index_opt spec ':' with
    | None -> (spec, false, 1)
    | Some i -> (
        let body = String.sub spec 0 i in
        let suffix = String.sub spec (i + 1) (String.length spec - i - 1) in
        match suffix with
        | "fix" -> (body, true, default_max_rounds)
        | s when String.length s > 4 && String.sub s 0 4 = "fix=" -> (
            match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
            | Some n when n >= 1 -> (body, true, n)
            | _ -> (body, true, -1))
        | _ -> (body, true, -1))
  in
  if max_rounds < 1 then
    Error (Fmt.str "bad pipeline suffix in %S (want :fix or :fix=N, N>=1)" spec)
  else if body = "" then Error "empty pipeline"
  else
    let names = String.split_on_char ',' body in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match find_pass (String.trim n) with
          | Some p -> resolve (p :: acc) rest
          | None ->
              Error
                (Fmt.str "unknown pass %S (available: %s)" n
                   (String.concat ", " (pass_names ()))))
    in
    Result.map
      (fun passes -> { passes; fixpoint; max_rounds })
      (resolve [] names)

(** Per-pass cumulative change counts (first-occurrence order) plus the
    number of rounds actually run. *)
type stats = { per_pass : (string * int) list; rounds : int }

let changes_of (s : stats) name =
  Option.value (List.assoc_opt name s.per_pass) ~default:0

(** Run [pipeline] over [f] in place.  Non-fixpoint pipelines run
    [max_rounds] rounds unconditionally; fixpoint pipelines stop at the
    first round in which no pass reports a change, or at the bound.

    [observe] is middleware around each individual pass execution: it
    receives the pass name, the 1-based round number and a thunk that
    runs the pass, and must return the thunk's result.  The pass manager
    itself stays clock- and sink-free; callers that want per-pass spans
    (the translation cache) wrap the thunk with their own timing. *)
let run ?(observe : (pass:string -> round:int -> (unit -> int) -> int) option)
    ?(pipeline = default_pipeline) (f : Ir.func) : stats =
  let totals : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let bump name c =
    (match Hashtbl.find_opt totals name with
    | None ->
        order := name :: !order;
        Hashtbl.replace totals name c
    | Some prev -> Hashtbl.replace totals name (prev + c));
    c
  in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < pipeline.max_rounds do
    incr rounds;
    let run_pass p =
      match observe with
      | None -> p.run f
      | Some obs -> obs ~pass:p.name ~round:!rounds (fun () -> p.run f)
    in
    let changed =
      List.fold_left (fun acc p -> acc + bump p.name (run_pass p)) 0 pipeline.passes
    in
    if pipeline.fixpoint && changed = 0 then continue_ := false
  done;
  {
    per_pass =
      List.rev_map (fun n -> (n, Hashtbl.find totals n)) !order;
    rounds = !rounds;
  }

(** Optimize with the default (fixpoint) pipeline. *)
let optimize (f : Ir.func) : stats = run f
