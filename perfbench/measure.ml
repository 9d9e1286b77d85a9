(* Clocks, statistics, outcome accounting, the determinism guard and span
   folding shared by the three workloads. *)

module Clock = Vekt_runtime.Clock

let now_us = Clock.now_us

(* Wall time of [f ()] in microseconds, with its result. *)
let timed f =
  let t0 = now_us () in
  let r = f () in
  (r, Clock.elapsed_us t0)

let sorted xs = List.sort compare xs

(* Quantile by linear interpolation between closest ranks (the rule
   Python's [statistics.quantiles(method="inclusive")] and numpy's
   default use). *)
let quantile xs q =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else
        let frac = pos -. float_of_int i in
        a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* A tail percentile is only reported where at least ten samples lie
   beyond it; with fewer samples this falls back to the highest
   quantile that still has ten beyond it.  Returns the value and the
   quantile actually used. *)
let tail ?(q = 0.99) xs =
  let n = List.length xs in
  let q = Float.min q (1.0 -. (10.0 /. float_of_int (max n 1))) in
  let q = Float.max q 0.5 in
  (quantile xs q, q)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Growable per-key sample table. *)
module Samples = struct
  type t = (string, float list ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add (t : t) key x =
    match Hashtbl.find_opt t key with
    | Some r -> r := x :: !r
    | None -> Hashtbl.replace t key (ref [ x ])

  let get (t : t) key =
    match Hashtbl.find_opt t key with Some r -> !r | None -> []

  let keys (t : t) = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> sorted

  (* Geomean over keys of each key's [q]-quantile (0.5: median, 0: the
     fastest of the run). *)
  let geomean_of ~q (t : t) = geomean (List.map (fun k -> quantile (get t k) q) (keys t))

  (* Sum over keys of each key's [q]-quantile. *)
  let sum_of ~q (t : t) = sum (List.map (fun k -> quantile (get t k) q) (keys t))
end

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:nan

(* A seeded Fisher-Yates shuffle: the only place the benchmark seed
   shapes a run of the in-process workloads. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* What one workload run reports.  [metrics] are (name, value, unit);
   [provenance] is printed beside the result line. *)
type report = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float * string) list;
  provenance : (string * string) list;
}

(* Operation outcome accounting: every operation is attempted once;
   a wrong output or a structured error is a failure, and the first few
   failure messages go to stderr. *)
type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let tally () = { attempted = 0; failed = 0; wrong = 0 }

let fail_op (t : tally) ~wrong fmt =
  t.failed <- t.failed + 1;
  if wrong then t.wrong <- t.wrong + 1;
  Fmt.kstr
    (fun msg -> if t.failed <= 5 then Fmt.epr "perfbench: failure: %s@." msg)
    fmt

(* Deterministic quantities that must read the same on every repetition
   within a run; a mismatch fails the run (the determinism guard). *)
module Guard = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let violations = ref 0

  let check (t : t) key v =
    match Hashtbl.find_opt t key with
    | None -> Hashtbl.replace t key v
    | Some v0 when v0 = v -> ()
    | Some v0 ->
        incr violations;
        Fmt.epr "perfbench: determinism guard: %s was %.17g, now %.17g@." key
          v0 v

  let find (t : t) key = Hashtbl.find_opt t key
end

let correct (t : tally) = t.wrong = 0 && !Guard.violations = 0

(* Per-span-kind wall µs and modelled cycles, summed over folded traces. *)
module Spans = struct
  module Obs = Vekt_obs
  module Report = Vekt_runtime.Report

  type t = (string, float ref * float ref) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let dropped = ref 0

  (* Fold [tr]'s events into [acc] (one launch or build batch at a time:
     [Span.of_events] is quadratic in a parent's children) and clear it.
     The ring buffer silently drops its oldest events when full, and an
     unbalanced forest would misattribute time: either fails the run. *)
  let fold (t : tally) (acc : t) (tr : Obs.Trace.t) ~what =
    let lost = Obs.Trace.dropped tr in
    let forest = Obs.Span.of_events (Obs.Trace.events tr) in
    tr.next <- 0;
    tr.total <- 0;
    dropped := !dropped + lost;
    if lost > 0 then fail_op t ~wrong:true "%s: trace dropped %d events" what lost
    else if not (Obs.Span.balanced forest) then
      fail_op t ~wrong:true "%s: unbalanced span forest" what;
    List.iter
      (fun (p : Report.phase) ->
        let w, c =
          match Hashtbl.find_opt acc p.ph_kind with
          | Some cell -> cell
          | None ->
              let cell = (ref 0.0, ref 0.0) in
              Hashtbl.replace acc p.ph_kind cell;
              cell
        in
        w := !w +. p.ph_wall_us;
        c := !c +. p.ph_cycles)
      (Report.phases_of_forest forest)

  let wall (acc : t) kind =
    match Hashtbl.find_opt acc kind with Some (w, _) -> !w | None -> 0.0

  let print label (acc : t) =
    Fmt.epr "perfbench: span kinds, %s:@." label;
    Hashtbl.iter (fun k (w, c) -> Fmt.epr "  %-14s %14.0f us %16.0f cycles@." k !w !c) acc
end
