(** Source-line cycle attribution.

    Buckets modelled execution cost per PTX source line, keyed by the
    entry point the warp was dispatched at.  Costs arrive as {e integer}
    sub-cycle units (the timing model fixes the scale; see
    [Vekt_vm.Timing.attr_scale]): every dynamic block execution charges a
    precomputed per-line share array whose elements sum exactly to the
    block's total units.  Because everything is integer addition, the
    conservation invariant

    {[ sum over (entry, line) buckets = total_units ]}

    holds bit-exactly under any accumulation order — including merging
    per-worker attributions from a multi-domain run — which a test
    asserts against the interpreter's own cycle counters.

    Line 0 is the "runtime overhead" bucket: block terminators and
    instructions synthesized by the compiler with no source provenance
    (scheduler dispatch, entry/exit handlers, spill and resume glue). *)

type t = {
  mutable total_units : int;
  by_entry : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (** entry_id -> (source line -> accumulated units) *)
}

let create () = { total_units = 0; by_entry = Hashtbl.create 8 }

let entry_tbl t entry_id =
  match Hashtbl.find_opt t.by_entry entry_id with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 32 in
      Hashtbl.replace t.by_entry entry_id tbl;
      tbl

(** Charge one dynamic execution of a block: [shares] is the per-line
    split as [[| line; units; line; units; ... |]], [units] its exact sum
    (both precomputed by the timing model). *)
let charge t ~entry_id ((shares, units) : int array * int) =
  t.total_units <- t.total_units + units;
  let tbl = entry_tbl t entry_id in
  for k = 0 to (Array.length shares / 2) - 1 do
    let line = shares.(2 * k) and u = shares.((2 * k) + 1) in
    Hashtbl.replace tbl line (Option.value (Hashtbl.find_opt tbl line) ~default:0 + u)
  done

(** Fold [d] into [into].  Pure integer sums, so merge order cannot
    change any bucket or the total. *)
let merge ~(into : t) (d : t) =
  into.total_units <- into.total_units + d.total_units;
  Hashtbl.iter
    (fun entry_id tbl ->
      let dst = entry_tbl into entry_id in
      Hashtbl.iter
        (fun line u ->
          Hashtbl.replace dst line
            (Option.value (Hashtbl.find_opt dst line) ~default:0 + u))
        tbl)
    d.by_entry

(** The conservation invariant: buckets sum exactly to the total. *)
let bucket_sum t =
  Hashtbl.fold
    (fun _ tbl acc -> Hashtbl.fold (fun _ u acc -> acc + u) tbl acc)
    t.by_entry 0

let conserved t = bucket_sum t = t.total_units

(** Per-line totals collapsed across entry points, sorted by line. *)
let by_line t : (int * int) list =
  let tbl = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ et ->
      Hashtbl.iter
        (fun line u ->
          Hashtbl.replace tbl line
            (Option.value (Hashtbl.find_opt tbl line) ~default:0 + u))
        et)
    t.by_entry;
  Hashtbl.fold (fun l u acc -> (l, u) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** The [n] costliest source lines (line 0 overhead included), heaviest
    first; ties broken by line number for determinism. *)
let hottest ?(n = 10) t : (int * int) list =
  by_line t
  |> List.sort (fun (la, ua) (lb, ub) ->
         if ua <> ub then compare ub ua else compare la lb)
  |> List.filteri (fun i _ -> i < n)

let entries t =
  Hashtbl.fold (fun e _ acc -> e :: acc) t.by_entry [] |> List.sort compare

(** JSON export.  [scale] is units per modelled cycle (the timing model's
    [attr_scale]); cycles are reported as floats alongside exact units. *)
let to_json ~scale t : Jsonx.t =
  let cyc u = Jsonx.Float (float_of_int u /. float_of_int scale) in
  let entry e =
    let lines =
      Hashtbl.fold (fun l u acc -> (l, u) :: acc) (Hashtbl.find t.by_entry e) []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    Jsonx.Obj
      [
        ("entry", Jsonx.Int e);
        ( "lines",
          Jsonx.List
            (List.map
               (fun (l, u) ->
                 Jsonx.Obj
                   [ ("line", Jsonx.Int l); ("units", Jsonx.Int u); ("cycles", cyc u) ])
               lines) );
      ]
  in
  Jsonx.Obj
    [
      ("total_units", Jsonx.Int t.total_units);
      ("units_per_cycle", Jsonx.Int scale);
      ("total_cycles", cyc t.total_units);
      ("conserved", Jsonx.Bool (conserved t));
      ("entries", Jsonx.List (List.map entry (entries t)));
    ]
