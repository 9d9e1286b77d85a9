(** Deterministic record/replay of warp-formation schedules
    (DESIGN.md §3.5).

    Under domain parallelism the warp-formation sequence depends on
    dynamic ready-queue order, cache publication races and injected
    spurious yields, which makes divergence/scheduling heisenbugs
    unreproducible.  Record mode logs every scheduler decision the
    execution manager takes — barrier releases, spurious yields, and
    dispatches with their start thread, entry id, served width, scan
    count and member set — keyed by the CTA's linear index.  A replay
    run feeds the log back in place of the live policy, through the
    same scheduling loop: the manager re-executes the exact schedule and
    {e checks} each recorded decision against the live state before
    applying it (a dispatch names exactly [ws] distinct members, each
    ready at the recorded entry, and the cache serves that width; a
    barrier release finds nothing runnable and the recorded count
    parked), raising a structured {!Vekt_error.Checkpoint} on any
    divergence.

    CTAs are keyed by linear index, not worker, so a log records the
    complete schedule regardless of how CTAs were physically
    interleaved; replaying with the same [workers] partition reproduces
    each worker's event stream exactly.

    The log is a line-oriented text file (one decision per line,
    [end]-terminated so truncation is detectable), deliberately
    greppable and diffable. *)

open Vekt_ptx

type decision =
  | Barrier of { released : int }
      (** no runnable thread: the barrier parked set was released *)
  | Yield of { start : int }
      (** injected spurious yield: the selected thread was skipped *)
  | Dispatch of {
      start : int;  (** selected thread (linear index in the CTA) *)
      entry_id : int;  (** entry point the warp was dispatched at *)
      ws : int;  (** specialization width actually served *)
      scanned : int;  (** contexts examined by warp formation *)
      members : int list;  (** member linear indices, post width-trim *)
    }

(* ---- record mode ---- *)

(** Per-launch decision recorder.  Each CTA's cell is written only by
    the worker that owns the CTA, so recording is safe under domain
    parallelism without locks. *)
type recorder = { r_ncta : int; cells : decision list ref array }

let recorder ~ncta : recorder =
  { r_ncta = ncta; cells = Array.init (max 1 ncta) (fun _ -> ref []) }

let record (r : recorder) ~cta (d : decision) =
  let cell = r.cells.(cta) in
  cell := d :: !cell

(* ---- replay mode ---- *)

type t = {
  path : string;  (** log file (or "(memory)") — names divergence errors *)
  kernel : string;
  grid : Launch.dim3;
  block : Launch.dim3;
  workers : int;  (** partition width the schedule was recorded under *)
  steps : decision array array;  (** per-CTA decision sequences *)
  pos : int array;  (** per-CTA replay cursor *)
}

let bad ~path reason =
  raise
    (Vekt_error.Error (Vekt_error.Checkpoint { path; what = "replay log"; reason }))

let total (t : t) = Array.fold_left (fun a s -> a + Array.length s) 0 t.steps

(** The live execution did something the log did not record (or
    vice-versa): structured rejection, never an assert. *)
let diverged (t : t) ~cta reason =
  bad ~path:t.path (Fmt.str "replay diverged at CTA %d: %s" cta reason)

(** Pop the next recorded decision for [cta]. *)
let next (t : t) ~cta : decision =
  if cta < 0 || cta >= Array.length t.steps then
    diverged t ~cta "CTA outside the recorded grid";
  let p = t.pos.(cta) in
  if p >= Array.length t.steps.(cta) then
    diverged t ~cta
      (Fmt.str "schedule exhausted after %d decisions but threads remain live" p);
  t.pos.(cta) <- p + 1;
  t.steps.(cta).(p)

(** A CTA finished: every recorded decision must have been consumed. *)
let check_drained (t : t) ~cta =
  if cta >= 0 && cta < Array.length t.steps then begin
    let left = Array.length t.steps.(cta) - t.pos.(cta) in
    if left > 0 then
      diverged t ~cta
        (Fmt.str "CTA completed with %d recorded decisions left unplayed" left)
  end

(* ---- text serialization ---- *)

let pp_members ppf = function
  | [] -> Fmt.pf ppf "-"
  | ms -> Fmt.pf ppf "%a" Fmt.(list ~sep:(any ",") int) ms

let pp_decision ppf (cta, d) =
  match d with
  | Barrier b -> Fmt.pf ppf "b %d %d" cta b.released
  | Yield y -> Fmt.pf ppf "y %d %d" cta y.start
  | Dispatch p ->
      Fmt.pf ppf "d %d %d %d %d %d %a" cta p.start p.entry_id p.scanned p.ws
        pp_members p.members

(** Finish a recording into a replayable log; {!load} rebuilds one
    from the file {!save} writes. *)
let of_recorder ~path (r : recorder) ~kernel ~grid ~block ~workers : t =
  {
    path;
    kernel;
    grid;
    block;
    workers;
    steps = Array.map (fun cell -> Array.of_list (List.rev !cell)) r.cells;
    pos = Array.make (Array.length r.cells) 0;
  }

(** Write a recorded schedule to [path] ([end]-terminated text). *)
let save (r : recorder) ~path ~kernel ~(grid : Launch.dim3)
    ~(block : Launch.dim3) ~workers =
  Out_channel.with_open_bin path (fun oc ->
      let p fmt = Printf.fprintf oc fmt in
      p "vekt-replay 1\n";
      p "kernel %s\n" kernel;
      p "grid %d %d %d\n" grid.Launch.x grid.Launch.y grid.Launch.z;
      p "block %d %d %d\n" block.Launch.x block.Launch.y block.Launch.z;
      p "workers %d\n" workers;
      p "ncta %d\n" r.r_ncta;
      Array.iteri
        (fun cta cell ->
          List.iter
            (fun d -> p "%s\n" (Fmt.str "%a" pp_decision (cta, d)))
            (List.rev !cell))
        r.cells;
      p "end\n")

(* ---- parsing ---- *)

let parse_members ~path s =
  if s = "-" then []
  else
    String.split_on_char ',' s
    |> List.map (fun x ->
           match int_of_string_opt x with
           | Some n -> n
           | None -> bad ~path (Fmt.str "bad member index %S" x))

let parse_int ~path ~what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> bad ~path (Fmt.str "bad %s %S" what s)

(** Load and validate a schedule log written by {!save}; malformed or
    truncated logs raise a structured {!Vekt_error.Checkpoint}. *)
let load (path : string) : t =
  let lines =
    try In_channel.with_open_bin path In_channel.input_lines
    with Sys_error msg -> bad ~path msg
  in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  let int = parse_int ~path in
  let dim3 ~what = function
    | [ x; y; z ] ->
        { Launch.x = int ~what x; y = int ~what y; z = int ~what z }
    | _ -> bad ~path (Fmt.str "malformed %s line" what)
  in
  match lines with
  | "vekt-replay 1"
    :: kernel_line :: grid_line :: block_line :: workers_line :: ncta_line
    :: rest -> (
      let field name line =
        match String.split_on_char ' ' line with
        | key :: vals when key = name -> vals
        | _ -> bad ~path (Fmt.str "expected %s line, got %S" name line)
      in
      let kernel =
        match field "kernel" kernel_line with
        | [ k ] -> k
        | _ -> bad ~path "malformed kernel line"
      in
      let grid = dim3 ~what:"grid" (field "grid" grid_line) in
      let block = dim3 ~what:"block" (field "block" block_line) in
      let workers =
        match field "workers" workers_line with
        | [ w ] -> int ~what:"workers" w
        | _ -> bad ~path "malformed workers line"
      in
      let ncta =
        match field "ncta" ncta_line with
        | [ n ] -> int ~what:"ncta" n
        | _ -> bad ~path "malformed ncta line"
      in
      if ncta < 1 || ncta <> Launch.count grid then
        bad ~path (Fmt.str "ncta %d does not match the recorded grid" ncta);
      let r = recorder ~ncta in
      let add cta d =
        if cta < 0 || cta >= ncta then
          bad ~path (Fmt.str "decision for CTA %d outside grid of %d" cta ncta);
        record r ~cta d
      in
      let rec go = function
        | [] -> bad ~path "missing end marker (truncated log)"
        | [ "end" ] -> ()
        | line :: rest ->
            (match String.split_on_char ' ' line with
            | [ "b"; cta; released ] ->
                add
                  (int ~what:"cta" cta)
                  (Barrier { released = int ~what:"released" released })
            | [ "y"; cta; start ] ->
                add
                  (int ~what:"cta" cta)
                  (Yield { start = int ~what:"start" start })
            | [ "d"; cta; start; entry; scanned; ws; members ] ->
                add
                  (int ~what:"cta" cta)
                  (Dispatch
                     {
                       start = int ~what:"start" start;
                       entry_id = int ~what:"entry" entry;
                       scanned = int ~what:"scanned" scanned;
                       ws = int ~what:"ws" ws;
                       members = parse_members ~path members;
                     })
            | _ -> bad ~path (Fmt.str "malformed decision line %S" line));
            go rest
      in
      go rest;
      of_recorder ~path r ~kernel ~grid ~block ~workers)
  | _ -> bad ~path "missing or unsupported header"
