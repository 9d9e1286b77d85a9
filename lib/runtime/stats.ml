(** Launch statistics collected by the execution managers.

    These are the raw series behind the paper's evaluation figures:
    warp-size histogram (Fig. 7), restores per entry (Fig. 8), cycle
    attribution between execution manager, yield handlers and subkernel
    bodies (Fig. 9), and total cycles (speedups, Fig. 6/10). *)

module Interp = Vekt_vm.Interp

type t = {
  counters : Interp.counters;  (** VM-side counters, summed over workers *)
  mutable warp_counts : int array;
      (** kernel entries by warp size, indexed by width and grown on
          demand; read through the accessors below *)
  mutable em_cycles : float;  (** cycles modelled inside the execution manager *)
  mutable barrier_releases : int;
  mutable threads_launched : int;
  mutable wall_cycles : float;  (** max over workers (parallel execution) *)
}

let create () =
  {
    counters = Interp.fresh_counters ();
    warp_counts = Array.make 9 0;
    em_cycles = 0.0;
    barrier_releases = 0;
    threads_launched = 0;
    wall_cycles = 0.0;
  }

(** Count [n] more kernel entries at warp size [ws] (0 or more). *)
let add_warps t ws n =
  let a = t.warp_counts in
  if ws < Array.length a then a.(ws) <- a.(ws) + n
  else begin
    let a' = Array.make (max (ws + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'.(ws) <- n;
    t.warp_counts <- a'
  end

let record_warp t ws = add_warps t ws 1

(** Kernel entries made at warp size [ws]. *)
let warp_count t ws =
  if ws >= 0 && ws < Array.length t.warp_counts then t.warp_counts.(ws) else 0

(** [f ws count acc] over every warp size entered, widest last. *)
let fold_warps f t acc =
  let acc = ref acc in
  Array.iteri (fun ws c -> if c <> 0 then acc := f ws c !acc) t.warp_counts;
  !acc

(** Kernel entries, at every warp size. *)
let total_warps t = fold_warps (fun _ c acc -> acc + c) t 0

(** [(ws, count)] for every warp size entered, by width. *)
let warp_histogram t = List.rev (fold_warps (fun ws c acc -> (ws, c) :: acc) t [])

(* Threads over all kernel entries. *)
let warp_threads t = fold_warps (fun ws c acc -> acc + (ws * c)) t 0

(** Mean number of threads per formed warp (Figure 7's metric). *)
let average_warp_size t =
  let n = total_warps t in
  if n = 0 then 0.0 else float_of_int (warp_threads t) /. float_of_int n

(** Fraction of kernel entries made at warp size [ws]. *)
let warp_fraction t ws =
  let total = total_warps t in
  if total = 0 then 0.0 else float_of_int (warp_count t ws) /. float_of_int total

(** Mean values restored per thread per kernel entry (Figure 8). *)
let average_restores_per_thread t =
  let entries_threads = warp_threads t in
  if entries_threads = 0 then 0.0
  else float_of_int t.counters.Interp.restores /. float_of_int entries_threads

(** Total modelled cycles: subkernel + yield handlers + execution manager.
    [wall_cycles] is the parallel (max-over-workers) version used for
    speedups; this is the serial sum used for attribution fractions. *)
let total_cycles t = Interp.total_cycles t.counters +. t.em_cycles

(** Figure 9's three fractions: (execution manager, yields, subkernel). *)
let cycle_breakdown t =
  let em = t.em_cycles +. t.counters.Interp.cycles_scheduler in
  let yield = t.counters.Interp.cycles_entry +. t.counters.Interp.cycles_exit in
  let body = t.counters.Interp.cycles_body in
  let total = em +. yield +. body in
  if total = 0.0 then (0.0, 0.0, 0.0)
  else (em /. total, yield /. total, body /. total)

(** Merge per-worker statistics into an aggregate; wall cycles take the
    maximum (workers run in parallel), everything else sums.  VM-side
    counters merge via {!Interp.merge_counters}, driven by the field
    tables in {!Interp} — one place to extend when adding a counter. *)
let merge_into ~(into : t) (w : t) =
  Interp.merge_counters ~into:into.counters w.counters;
  fold_warps (fun ws count () -> add_warps into ws count) w ();
  into.em_cycles <- into.em_cycles +. w.em_cycles;
  into.barrier_releases <- into.barrier_releases + w.barrier_releases;
  into.threads_launched <- into.threads_launched + w.threads_launched;
  into.wall_cycles <- Float.max into.wall_cycles (total_cycles w)

(** Snapshot every statistic into a metrics registry (names are stable:
    [vm.*] for interpreter counters, [em.*] for execution-manager ones,
    [warp.*] for the formation histogram and derived means). *)
let to_metrics ?(metrics = Vekt_obs.Metrics.create ()) (t : t) :
    Vekt_obs.Metrics.t =
  let module M = Vekt_obs.Metrics in
  List.iter
    (fun (name, get, _) -> M.counter metrics ("vm." ^ name) := get t.counters)
    Interp.int_counter_fields;
  List.iter
    (fun (name, get, _) ->
      M.set (M.gauge metrics ("vm." ^ name)) (get t.counters))
    Interp.cycle_counter_fields;
  M.set (M.gauge metrics "em.cycles") t.em_cycles;
  M.counter metrics "em.barrier_releases" := t.barrier_releases;
  M.counter metrics "em.threads_launched" := t.threads_launched;
  M.set (M.gauge metrics "wall.cycles") t.wall_cycles;
  M.set (M.gauge metrics "total.cycles") (total_cycles t);
  let h = M.histogram metrics "warp.size" in
  fold_warps (fun ws count () -> M.observe_n h ~bin:ws count) t ();
  M.set (M.gauge metrics "warp.avg_size") (average_warp_size t);
  M.set
    (M.gauge metrics "warp.restores_per_thread")
    (average_restores_per_thread t);
  let em, yld, body = cycle_breakdown t in
  M.set (M.gauge metrics "breakdown.em") em;
  M.set (M.gauge metrics "breakdown.yield") yld;
  M.set (M.gauge metrics "breakdown.subkernel") body;
  metrics
