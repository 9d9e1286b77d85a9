(** Warp-formation scheduling policies (paper §5.2 as one point in a
    policy space; DARM shows divergence-aware formation choices are a
    live design axis).

    The execution manager used to hardwire round-robin pick + greedy
    same-entry packing inside [run_cta].  This module makes the policy a
    first-class value over a thread-context {!pool}: [select] picks the
    thread to schedule next, [form] packs a warp around it.  The driver
    in {!Exec_manager} is policy-agnostic; any policy that only selects
    [Ready] threads and only packs [Ready] threads parked at the same
    entry point preserves results bit-exactly (barrier semantics release
    the parked set only when [select] returns {!none}).

    Three built-in policies:

    - {b dynamic}: round-robin pick, greedy same-entry packing scanning
      the whole pool with wraparound (the paper's dynamic warp
      formation).
    - {b static}: round-robin pick, packing only consecutive linear
      thread indices of one [tid.y]/[tid.z] row.  The only policy whose
      warps satisfy the consecutive-tid assumption of thread-invariant
      elimination, so {!Vekt_transform.Vectorize.Static_tie} code
      requires it (enforced by {!validate}).
    - {b barrier-aware}: while any CTA-mate is parked at a barrier, pick
      the ready thread whose same-entry cohort is largest so the
      remaining runnable threads drain to the barrier in the fewest,
      fullest warps; with nobody parked it reduces to round-robin.
      Packing is dynamic-greedy. *)

module Interp = Vekt_vm.Interp
module Vectorize = Vekt_transform.Vectorize

type tstate = Ready | Blocked | Done

let tstate_name = function Ready -> "ready" | Blocked -> "blocked" | Done -> "done"

type thr = {
  info : Interp.thread_info;
  linear : int;  (** linear thread index within the CTA *)
  row : int;  (** tid.y/tid.z row identifier (static warps never cross rows) *)
  mutable state : tstate;
}

(** One CTA's thread contexts, the round-robin cursor the driver
    advances after each dispatch, and [buf], [n] slots the built-in
    policies form each warp's members in. *)
type pool = { threads : thr array; n : int; mutable cursor : int; buf : int array }

(** A formed warp: its member indices in scan order, the first [count]
    entries of [members] (the built-in policies return the pool's [buf],
    so a warp is read before the next one is formed), and the number of
    candidate contexts examined (charged to the EM cycle model). *)
type warp = { members : int array; count : int; scanned : int }

type t = {
  name : string;
  consecutive : bool;
      (** warps are guaranteed to be consecutive linear tids of one row
          (the contract {!Vekt_transform.Vectorize.Static_tie} code needs) *)
  select : pool -> int;  (** the thread to schedule next, or {!none} *)
  form : pool -> start:int -> want:int -> warp;
}

type kind = Dynamic | Static | Barrier_aware

(* ---- selection ---- *)

(** What [select] returns when no thread is ready. *)
let none = -1

(* The index after [i] in a pool of [n], wrapping to 0: a compare where
   [mod] would divide, once per candidate examined. *)
let[@inline] next ~n i = if i + 1 = n then 0 else i + 1

let round_robin (p : pool) : int =
  let rec go tried i =
    if tried >= p.n then none
    else if p.threads.(i).state = Ready then i
    else go (tried + 1) (next ~n:p.n i)
  in
  go 0 p.cursor

(* With part of the CTA parked at a barrier, prefer the ready thread
   whose entry-point cohort is largest (ties: first in round-robin order
   from the cursor), so the barrier opens in as few dispatches as
   possible. *)
let barrier_aware_select (p : pool) : int =
  let any_blocked =
    Array.exists (fun (t : thr) -> t.state = Blocked) p.threads
  in
  if not any_blocked then round_robin p
  else begin
    let cohort : (int, int) Hashtbl.t = Hashtbl.create 8 in
    Array.iter
      (fun (t : thr) ->
        if t.state = Ready then
          let e = t.info.Interp.resume_point in
          Hashtbl.replace cohort e
            (Option.value (Hashtbl.find_opt cohort e) ~default:0 + 1))
      p.threads;
    let best = ref none and best_c = ref 0 and i = ref p.cursor in
    for _ = 0 to p.n - 1 do
      let t = p.threads.(!i) in
      (if t.state = Ready then
         let c =
           Option.value
             (Hashtbl.find_opt cohort t.info.Interp.resume_point)
             ~default:0
         in
         if !best = none || c > !best_c then begin
           best := !i;
           best_c := c
         end);
      i := next ~n:p.n !i
    done;
    !best
  end

(* ---- formation ---- *)

(* The one scan loop behind every packing strategy.  [consecutive]
   restricts members to threads adjacent to [start] (first mismatch ends
   the warp, and only accepted candidates count as scanned — the static
   scan stops at the mismatch rather than examining past it);
   otherwise the scan wraps around the whole pool, skipping mismatches
   and counting every context examined.  Members go straight into the
   pool's [buf], in scan order. *)
let[@inline] joins (t : thr) ~entry ~row ~same_row =
  t.state = Ready && t.info.Interp.resume_point = entry && ((not same_row) || t.row = row)

let scan (p : pool) ~start ~want ~consecutive ~same_row : warp =
  let t0 = p.threads.(start) in
  let entry = t0.info.Interp.resume_point and row = t0.row in
  let buf = p.buf in
  buf.(0) <- start;
  let count = ref 1 in
  let scanned = ref 0 in
  if consecutive then begin
    let i = ref (start + 1) in
    while !count < want && !i < p.n && joins p.threads.(!i) ~entry ~row ~same_row do
      incr scanned;
      buf.(!count) <- !i;
      incr count;
      incr i
    done
  end
  else begin
    let i = ref (next ~n:p.n start) in
    while !count < want && !i <> start do
      incr scanned;
      if joins p.threads.(!i) ~entry ~row ~same_row then begin
        buf.(!count) <- !i;
        incr count
      end;
      i := next ~n:p.n !i
    done
  end;
  { members = buf; count = !count; scanned = !scanned }

(* ---- built-in policies ---- *)

let dynamic =
  {
    name = "dynamic";
    consecutive = false;
    select = round_robin;
    form = (fun p ~start ~want -> scan p ~start ~want ~consecutive:false ~same_row:false);
  }

let static_policy =
  {
    name = "static";
    consecutive = true;
    select = round_robin;
    form = (fun p ~start ~want -> scan p ~start ~want ~consecutive:true ~same_row:true);
  }

let barrier_aware =
  {
    name = "barrier-aware";
    consecutive = false;
    select = barrier_aware_select;
    form = (fun p ~start ~want -> scan p ~start ~want ~consecutive:false ~same_row:false);
  }

let of_kind = function
  | Dynamic -> dynamic
  | Static -> static_policy
  | Barrier_aware -> barrier_aware

let kind_name = function
  | Dynamic -> "dynamic"
  | Static -> "static"
  | Barrier_aware -> "barrier-aware"

let kind_of_string = function
  | "dynamic" -> Some Dynamic
  | "static" -> Some Static
  | "barrier" | "barrier-aware" -> Some Barrier_aware
  | _ -> None

(** The policy matching the paper's behaviour for a vectorization mode:
    dynamic formation for dynamically-vectorized code, consecutive-tid
    formation for TIE code. *)
let default_kind_for (mode : Vectorize.mode) : kind =
  match mode with Vectorize.Dynamic -> Dynamic | Vectorize.Static_tie -> Static

(** Thread-invariant elimination bakes "lane [i] = lane 0's tid + [i]"
    into the code, so [Static_tie] specializations are only correct
    under policies whose warps are consecutive-tid. *)
let validate ~(mode : Vectorize.mode) (p : t) : unit =
  match mode with
  | Vectorize.Static_tie when not p.consecutive ->
      invalid_arg
        (Fmt.str
           "scheduler policy %s cannot run Static_tie-vectorized code (TIE \
            assumes consecutive-tid warps; use the static policy)"
           p.name)
  | _ -> ()
