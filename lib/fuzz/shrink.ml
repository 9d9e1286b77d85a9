(** Greedy delta-debugging of a failing fuzz kernel down to a minimal
    reproducer (DESIGN.md §3.9).

    The shrinker works on the parsed kernel body: it deletes chunks of
    statements (halving the chunk size as progress stalls), keeps a
    candidate only if it still typechecks {e and} still fails the
    caller's predicate, and finishes by dropping register declarations
    the surviving body no longer mentions.  Typechecking candidates
    before running them discards dangling branch targets and
    use-before-decl garbage cheaply; the predicate (usually "the
    differential harness still reports a divergence") does the expensive
    confirmation.  Every accepted candidate is a well-typed kernel, so
    the final artifact can be committed to [test/corpus/] as-is.  The
    deletion loop itself is {!chunks}, a generic list function the chaos
    harness's schedule minimizer shares. *)

module A = Vekt_ptx.Ast
module Printer = Vekt_ptx.Printer
module Typecheck = Vekt_ptx.Typecheck

(* Cap on deletion candidates: each well-typed one replays the whole
   config matrix, so a pathological shrink must not dominate the
   campaign. *)
let max_evals = 250

let rebuild (spec : Gen.t) (m : A.modul) (k : A.kernel) body regs : Gen.t =
  let k = { k with A.k_body = body; k_regs = regs } in
  let m = { m with A.m_kernels = [ k ] } in
  { spec with
    src =
      Gen.header ~grid:spec.grid ~block:spec.block ~block_y:spec.block_y ()
      ^ Printer.to_string m }

let used_reg_names body =
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | A.Label _ -> ()
      | A.Inst (g, i, _) ->
          List.iter (fun r -> Hashtbl.replace tbl r ()) (A.used_regs g i);
          Option.iter (fun r -> Hashtbl.replace tbl r ()) (A.defined_reg i))
    body;
  tbl

(* remove [len] elements starting at [at] *)
let cut l ~at ~len =
  List.filteri (fun i _ -> i < at || i >= at + len) l

(** Greedy chunk deletion over a list, shared by this shrinker and the
    chaos harness's schedule minimizer: delete chunks of elements
    (starting at half the list, halving the chunk size whenever a full
    pass removes nothing) and keep a candidate whenever [try_candidate]
    returns [Some witness] — "this shorter list still fails, and here
    is how".  At most [max_evals] candidates are tried.  Returns the
    shortest failing list found and the witness of the last accepted
    candidate ([None] when no deletion was kept). *)
let chunks ~max_evals ~(try_candidate : 'a list -> 'w option) (l : 'a list) :
    'a list * 'w option =
  let evals = ref 0 in
  let best = ref l and witness = ref None in
  let chunk = ref (max 1 (List.length l / 2)) in
  while !chunk >= 1 && !evals < max_evals do
    let shrunk_this_pass = ref false in
    let i = ref 0 in
    while !i + !chunk <= List.length !best && !evals < max_evals do
      let cand = cut !best ~at:!i ~len:!chunk in
      incr evals;
      match try_candidate cand with
      | Some w ->
          best := cand;
          witness := Some w;
          shrunk_this_pass := true
          (* don't advance: the next chunk slid into place *)
      | None -> i := !i + !chunk
    done;
    if not !shrunk_this_pass then chunk := !chunk / 2
  done;
  (!best, !witness)

let minimize ~(still_fails : Gen.t -> bool) (spec : Gen.t) : Gen.t =
  match Typecheck.load spec.src with
  | exception _ -> spec
  | m -> (
      match A.find_kernel m spec.kernel with
      | None -> spec
      | Some k ->
          (* only well-typed candidates reach the expensive predicate *)
          let try_candidate regs body =
            let cand = rebuild spec m k body regs in
            match Typecheck.load cand.src with
            | exception _ -> None
            | _ -> if still_fails cand then Some cand else None
          in
          let body, best =
            chunks ~max_evals ~try_candidate:(try_candidate k.A.k_regs)
              k.A.k_body
          in
          let best = Option.value best ~default:spec in
          (* drop register declarations the body no longer touches *)
          let used = used_reg_names body in
          let live = List.filter (fun (r, _) -> Hashtbl.mem used r) k.A.k_regs in
          Option.value (try_candidate live body) ~default:best)
