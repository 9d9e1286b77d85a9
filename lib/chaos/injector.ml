(** Seeded deterministic fault injection over {!Io} (DESIGN.md §3.10).

    An injector impersonates the filesystem and socket for one run of
    a workload.  In [Count] mode it behaves exactly like the real
    implementation but numbers every mutating call — the run's
    {e I/O boundaries}.  In [Crash] mode it replays the same run and
    simulates a process death at one chosen boundary, in one chosen
    {!flavor}:

    - [Before]  — die before the call takes effect;
    - [Torn]    — a write or append lands as a strict prefix, then
                  death (partial page write);
    - [Bitflip] — a write or append lands whole but with one bit
                  flipped near the tail, then death (torn sector /
                  cheap firmware);
    - [After]   — the call completes in-process, then death before
                  anything further is flushed.

    Death is not just an exception: the injector models the volatile
    page cache.  Every un-fsynced effect (a written file or an append
    before [fsync_file], a rename before the parent's [fsync_dir]) sits
    in an undo journal, and at the crash instant the journal is rolled
    back {e worst-case} — un-fsynced file contents may vanish, survive
    truncated, or survive bit-flipped; an un-fsynced append may do the
    same to the bytes it added, but never cuts the file below the
    length it had when the append began (that prefix was durable or is
    rolled back by an older effect); un-fsynced renames are undone and
    the old directory entry restored.  What remains on disk is a
    state the kernel was allowed to leave behind.  After the crash
    every further call on the same injector is absorbed as a silent
    no-op: the dead process can keep executing OCaml code (the queue
    wraps exceptions), but it can no longer touch the disk.

    Simplifications, on the pessimistic side where it matters:
    [remove]/[mkdir]/[rmdir] are treated as immediately durable, and a
    crash-rollback choice is made per-file rather than per-page.  All
    choices are drawn from a seed mixed with the boundary index, so a
    (seed, boundary, flavor) triple replays bit-identically. *)

type flavor = Before | Torn | Bitflip | After

let flavor_name = function
  | Before -> "before"
  | Torn -> "torn"
  | Bitflip -> "bitflip"
  | After -> "after"

let flavor_of_string = function
  | "before" -> Some Before
  | "torn" -> Some Torn
  | "bitflip" -> Some Bitflip
  | "after" -> Some After
  | _ -> None

(** Flavors that make sense for a given op: only payload-carrying
    writes and appends can land torn or bit-flipped. *)
let flavors_for_write = [ Before; Torn; Bitflip; After ]
let flavors_for_other = [ Before; After ]

type plan = Count | Crash of { boundary : int; flavor : flavor }

(* Volatile (un-fsynced) effects, newest first. *)
type effect_ =
  | Created of { path : string; prior : string option }
      (** [write_file] over [prior] (None = file did not exist) *)
  | Appended of { path : string; durable_len : int }
      (** [append] onto a file that was [durable_len] bytes long *)
  | Renamed of { src : string; dst : string; prior_dst : string option }

type t = {
  seed : int;
  plan : plan;
  root : string;  (** prefix stripped from labels, for stable traces *)
  mutable rng : int;
  mutable ops : int;  (** boundaries seen so far *)
  mutable crashed : bool;
  mutable labels : string list;  (** op trace, newest first *)
  mutable journal : effect_ list;  (** volatile effects, newest first *)
}

let create ?(root = "") ~seed ~plan () : t =
  let salt =
    match plan with
    | Count -> 0
    | Crash { boundary; flavor } ->
        (boundary * 4)
        + (match flavor with Before -> 0 | Torn -> 1 | Bitflip -> 2 | After -> 3)
  in
  {
    seed;
    plan;
    root;
    rng = (seed lxor (salt * 0x9e3779b9) lxor 0x2545f491) lor 1;
    ops = 0;
    crashed = false;
    labels = [];
    journal = [];
  }

let ops t = t.ops
let crashed t = t.crashed
let trace t = List.rev t.labels

let rand t bound =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x;
  if bound <= 1 then 0 else (x land max_int) mod bound

let rel t path =
  let n = String.length t.root in
  if n > 0 && String.length path >= n && String.sub path 0 n = t.root then
    let rest = String.sub path n (String.length path - n) in
    if String.length rest > 0 && rest.[0] = '/' then
      String.sub rest 1 (String.length rest - 1)
    else rest
  else path

(* ---- raw helpers (never routed through Io: the injector IS the fs) ---- *)

let read_opt path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let raw_write path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let flip_tail t data =
  let n = String.length data in
  if n = 0 then data
  else begin
    let window = max 1 (min n (max 1 (n / 4))) in
    let pos = n - 1 - rand t window in
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl rand t 8)));
    Bytes.to_string b
  end

let raw_append path data =
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644
    path (fun oc -> Out_channel.output_string oc data)

(* Worst-case the undo journal: newest effect first, exactly the order
   a real page-cache loss would unwind.  Un-fsynced renames are undone
   (old entry restored); un-fsynced creations may vanish, survive as a
   prefix, or survive bit-flipped; an un-fsynced append's tail may do
   the same above its durable length. *)
let rollback t =
  List.iter
    (function
      | Appended { path; durable_len } -> (
          match read_opt path with
          | Some data when String.length data > durable_len -> (
              let keep = String.sub data 0 durable_len in
              let tail =
                String.sub data durable_len (String.length data - durable_len)
              in
              match rand t 3 with
              | 0 -> raw_write path keep
              | 1 -> raw_write path (keep ^ String.sub tail 0 (rand t (String.length tail)))
              | _ -> raw_write path (keep ^ flip_tail t tail))
          | _ -> ())
      | Renamed { src; dst; prior_dst } ->
          (if Sys.file_exists dst then
             try Unix.rename dst src with Unix.Unix_error _ | Sys_error _ -> ());
          Option.iter (raw_write dst) prior_dst
      | Created { path; prior } -> (
          match prior with
          | Some data -> raw_write path data
          | None ->
              if Sys.file_exists path then (
                match rand t 3 with
                | 0 -> ( try Sys.remove path with Sys_error _ -> ())
                | 1 ->
                    let data =
                      Option.value (read_opt path) ~default:""
                    in
                    raw_write path
                      (String.sub data 0 (rand t (String.length data)))
                | _ ->
                    let data = Option.value (read_opt path) ~default:"" in
                    raw_write path (flip_tail t data))))
    t.journal;
  t.journal <- []

let crash t =
  rollback t;
  t.crashed <- true;
  raise Io.Crash

(* Journal maintenance on the durability calls. *)
let drop_created t path =
  t.journal <-
    List.filter
      (function
        | Created { path = p; _ } | Appended { path = p; _ } -> p <> path
        | Renamed _ -> true)
      t.journal

let drop_renames_under t dir =
  t.journal <-
    List.filter
      (function
        | Renamed { dst; _ } -> Filename.dirname dst <> dir
        | Created _ | Appended _ -> true)
      t.journal

let drop_path t path =
  t.journal <-
    List.filter
      (function
        | Created { path = p; _ } | Appended { path = p; _ } -> p <> path
        | Renamed { dst; _ } -> dst <> path)
      t.journal

(* The gate every op goes through: absorb when dead, count the
   boundary, fire the drill when this is the one.  [full] applies the
   op for real (recording volatility); [partial] applies the torn /
   bit-flipped variant of the trigger and must leave its damage
   durable (it IS the post-crash state). *)
let op (type a) t ~label ~(absorbed : a) ~(full : unit -> a)
    ~(partial : flavor -> unit) : a =
  if t.crashed then absorbed
  else begin
    t.labels <- label :: t.labels;
    let here = t.ops in
    t.ops <- here + 1;
    match t.plan with
    | Crash { boundary; flavor } when boundary = here ->
        (match flavor with
        | Before -> ()
        | Torn | Bitflip -> partial flavor
        | After -> ignore (full ()));
        crash t
    | _ -> full ()
  end

(* ---- the impersonated impl ---- *)

let impl (t : t) : Io.impl =
  let write_file path data =
    op t
      ~label:(Fmt.str "write %s (%d B)" (rel t path) (String.length data))
      ~absorbed:()
      ~full:(fun () ->
        let prior = read_opt path in
        raw_write path data;
        t.journal <- Created { path; prior } :: t.journal)
      ~partial:(fun flavor ->
        (* durable damage: deliberately not journalled *)
        match flavor with
        | Torn -> raw_write path (String.sub data 0 (rand t (String.length data)))
        | _ -> raw_write path (flip_tail t data))
  in
  let append path data =
    op t
      ~label:(Fmt.str "append %s (%d B)" (rel t path) (String.length data))
      ~absorbed:()
      ~full:(fun () ->
        let durable_len = (Unix.stat path).Unix.st_size in
        raw_append path data;
        t.journal <- Appended { path; durable_len } :: t.journal)
      ~partial:(fun flavor ->
        (* durable damage: deliberately not journalled *)
        match flavor with
        | Torn -> raw_append path (String.sub data 0 (rand t (String.length data)))
        | _ -> raw_append path (flip_tail t data))
  in
  let fsync_file path =
    op t
      ~label:(Fmt.str "fsync %s" (rel t path))
      ~absorbed:()
      ~full:(fun () -> drop_created t path)
      ~partial:(fun _ -> ())
  in
  let rename src dst =
    op t
      ~label:(Fmt.str "rename %s -> %s" (rel t src) (rel t dst))
      ~absorbed:()
      ~full:(fun () ->
        let prior_dst = read_opt dst in
        Unix.rename src dst;
        t.journal <- Renamed { src; dst; prior_dst } :: t.journal)
      ~partial:(fun _ -> ())
  in
  let fsync_dir dir =
    op t
      ~label:(Fmt.str "fsyncdir %s" (rel t dir))
      ~absorbed:()
      ~full:(fun () -> drop_renames_under t dir)
      ~partial:(fun _ -> ())
  in
  let remove path =
    op t
      ~label:(Fmt.str "remove %s" (rel t path))
      ~absorbed:()
      ~full:(fun () ->
        (* treated as immediately durable; whatever volatility the
           path carried is moot once it is gone in both worlds *)
        drop_path t path;
        Unix.unlink path)
      ~partial:(fun _ -> ())
  in
  let mkdir path perms =
    op t
      ~label:(Fmt.str "mkdir %s" (rel t path))
      ~absorbed:()
      ~full:(fun () -> Unix.mkdir path perms)
      ~partial:(fun _ -> ())
  in
  let rmdir path =
    op t
      ~label:(Fmt.str "rmdir %s" (rel t path))
      ~absorbed:()
      ~full:(fun () -> Unix.rmdir path)
      ~partial:(fun _ -> ())
  in
  let send fd s off len =
    op t
      ~label:(Fmt.str "send %d B" len)
      ~absorbed:len (* the dead process "sends" into the void *)
      ~full:(fun () -> Unix.write_substring fd s off len)
      ~partial:(fun _ ->
        (* mid-response drop: a strict prefix reaches the peer *)
        ignore (Unix.write_substring fd s off (rand t len)))
  in
  { Io.write_file; append; fsync_file; rename; fsync_dir; remove; mkdir; rmdir; send }
