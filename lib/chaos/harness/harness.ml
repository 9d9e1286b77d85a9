(** Crash-point enumeration over the daemon (DESIGN.md §3.10).

    The harness answers one question exhaustively: {e is there any
    instant at which this process can die and lose something it
    promised a client?}  It runs the scripted workload ({!Script})
    three ways on the same state directory:

    + a {b counting pass} under an {!Vekt_chaos.Injector} in [Count]
      mode — behaviourally identical to the real filesystem, but every
      mutating I/O call is numbered.  This same uninterrupted run
      records the {e baseline}: each job's expected output values and
      each closed tenant's archived launch tally.
    + one {b drill} per (boundary × flavor): the injector simulates a
      process death at that call — before it, after it, or with the
      write landing torn or bit-flipped — and worst-cases every
      un-fsynced effect.  The dead server is abandoned (its in-memory
      state frozen mid-flight, exactly as [kill -9] leaves it); a
      successor is created on the surviving directory with the real
      I/O implementation, recovery runs, and the invariants below are
      checked.
    + during {b minimization}, candidate sub-scripts of a failing
      schedule, shrunk by the fuzzer's greedy chunk deletion
      ({!Vekt_fuzz.Shrink.chunks}).

    Invariants checked after every recovery:
    - {b no lost job}: every launch that was acknowledged to a client
      and not yet terminal when the process died is re-admitted by the
      successor — exactly once — and completes with the baseline's
      output values at the address the dead daemon handed the client;
    - {b no double launch}: no job label is re-admitted twice;
    - {b tally conservation}: a tenant whose session close completed
      before the crash shows exactly its archived launch count in the
      successor's [stats];
    - {b no leaks}: after the successor drains, nothing remains in the
      state directory but the journal; after {!Server.decommission},
      nothing at all.

    The harness drives the daemon in-process ([Server.handle] +
    [Queue.step], no domains, no sockets), so every drill is
    deterministic and replayable from a (seed, boundary, flavor,
    script) quadruple. *)

module Server = Vekt_server.Server
module Queue = Vekt_server.Queue
module J = Vekt_obs.Jsonx
module Io = Vekt_chaos.Io
module Injector = Vekt_chaos.Injector

(* ---- local fs helpers (never routed through Io: the harness itself
   is not under test) ---- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

(* ---- the interpreted world: what a client of the dead daemon can
   legitimately know, plus the oracle's view of the queue ---- *)

type jobinfo = {
  j_name : string;
  j_sid : string;
  j_tenant : string;
  mutable j_id : int option;  (** server job id — Some iff acknowledged *)
  mutable j_out : int option;  (** output address from the ack *)
  mutable j_state : string;  (** queue state at the knowledge cutoff *)
  mutable j_values : J.t option;  (** outputs read back after completion *)
}

type world = {
  srv : Server.t;
  alive : unit -> bool;
  sessions : (string, int) Hashtbl.t;  (* sid -> session id *)
  tenants : (string, string) Hashtbl.t;  (* sid -> tenant *)
  modules : (string, int) Hashtbl.t;  (* sid -> module id *)
  jobs : (string, jobinfo) Hashtbl.t;  (* job name -> info *)
  mutable closed : string list;  (* sids whose Close completed pre-crash *)
}

exception Harness_bug of string

let handle w c fields = Server.handle w.srv (J.Obj (("cmd", J.Str c) :: fields))

let get_ok what (r : J.t) =
  if J.bool_mem "ok" r <> Some true then
    raise (Harness_bug (Fmt.str "%s: %s" what (J.to_string r)));
  r

let session_id w sid =
  match Hashtbl.find_opt w.sessions sid with
  | Some s -> s
  | None -> raise (Harness_bug ("unknown session handle " ^ sid))

(* Update the oracle's view: poll every acknowledged job and read back
   the outputs of freshly-completed ones.  Called between queue steps
   — one [Queue.step] runs exactly one job, so polling at every step
   boundary gives an exact knowledge cutoff when a crash hits. *)
let oracle_sweep w =
  Hashtbl.iter
    (fun _ ji ->
      match ji.j_id with
      | None -> ()
      | Some id -> (
          (match Queue.info (Server.queue w.srv) ~id with
          | Some i -> ji.j_state <- Queue.state_name i.Queue.i_state
          | None -> ());
          if ji.j_state = "done" && ji.j_values = None then
            match (Hashtbl.find_opt w.sessions ji.j_sid, ji.j_out) with
            | Some session, Some addr ->
                let r =
                  get_ok "read"
                    (handle w "read"
                       [
                         ("session", J.Int session);
                         ("addr", J.Int addr);
                         ("ty", J.Str "f32");
                         ("count", J.Int 4);
                       ])
                in
                ji.j_values <- J.mem "values" r
            | _ -> ()))
    w.jobs

(* After a crash, update job states (only) from the dead server's
   frozen queue — the kill -9 core dump.  A job whose terminal
   transition and the crash landed inside the same [Queue.step] (e.g.
   the drilled boundary was the job's own cleanup sweep) went terminal
   before the process died, so the successor is free to sweep it; the
   between-steps [oracle_sweep] cannot have seen that.  No protocol
   reads here: [Queue.info] takes only the queue lock, which a mid-run
   crash provably leaves unlocked, while [Server.handle] would touch
   server locks the crash may have poisoned. *)
let post_crash_states w =
  Hashtbl.iter
    (fun _ ji ->
      match ji.j_id with
      | None -> ()
      | Some id -> (
          match Queue.info (Server.queue w.srv) ~id with
          | Some i -> ji.j_state <- Queue.state_name i.Queue.i_state
          | None -> ()))
    w.jobs

let exec w (st : Script.step) =
  match st with
  | Script.Open { sid; tenant } ->
      let r =
        get_ok "open-session"
          (handle w "open-session" [ ("tenant", J.Str tenant) ])
      in
      Hashtbl.replace w.sessions sid (Option.get (J.int_mem "session" r));
      Hashtbl.replace w.tenants sid tenant
  | Script.Load { sid } ->
      let r =
        get_ok "load-module"
          (handle w "load-module"
             [
               ("session", J.Int (session_id w sid));
               ("src", J.Str Script.kernel_src);
               ( "config",
                 J.Obj
                   [
                     ("tiered", J.Bool true);
                     ("hot-threshold", J.Int 1);
                     ("workers", J.Int 1);
                     ("checkpoint-every", J.Int 1);
                   ] );
             ])
      in
      Hashtbl.replace w.modules sid (Option.get (J.int_mem "module" r))
  | Script.Submit { sid; job } ->
      let tenant =
        match Hashtbl.find_opt w.tenants sid with
        | Some t -> t
        | None -> raise (Harness_bug ("submit on unknown session " ^ sid))
      in
      let ji =
        {
          j_name = job;
          j_sid = sid;
          j_tenant = tenant;
          j_id = None;
          j_out = None;
          j_state = "unsubmitted";
          j_values = None;
        }
      in
      (* recorded before the request: a crash mid-submit leaves the
         job known but unacknowledged *)
      Hashtbl.replace w.jobs job ji;
      let mid =
        match Hashtbl.find_opt w.modules sid with
        | Some m -> m
        | None -> raise (Harness_bug ("submit before load on " ^ sid))
      in
      let r =
        get_ok "submit-launch"
          (handle w "submit-launch"
             [
               ("session", J.Int (session_id w sid));
               ("module", J.Int mid);
               ("kernel", J.Str Script.kernel_name);
               ("grid", J.Int 1);
               ("block", J.Int 8);
               ("label", J.Str job);
               ( "args",
                 J.List (List.map (fun s -> J.Str s) (Script.args_for job)) );
             ])
      in
      ji.j_id <- J.int_mem "job" r;
      ji.j_state <- "queued";
      (match J.list_mem "args" r with
      | Some [ _; _; J.Int addr; _ ] -> ji.j_out <- Some addr
      | _ -> raise (Harness_bug ("submit ack without addresses: " ^ J.to_string r)))
  | Script.Pump n ->
      for _ = 1 to n do
        if w.alive () then begin
          ignore (Queue.step (Server.queue w.srv));
          if w.alive () then oracle_sweep w
        end
      done
  | Script.Preempt { job } -> (
      match Hashtbl.find_opt w.jobs job with
      | Some { j_id = Some id; _ } ->
          ignore (Queue.request_preempt (Server.queue w.srv) ~id)
      | _ -> raise (Harness_bug ("preempt of unsubmitted job " ^ job)))
  | Script.Close { sid } ->
      let s = session_id w sid in
      let _ = get_ok "close-session" (handle w "close-session" [ ("session", J.Int s) ]) in
      Hashtbl.remove w.sessions sid;
      w.closed <- sid :: w.closed

(** Run [steps] against a fresh server on [dir].  Returns the world as
    known at the end — or, when the injector fired, at the crash
    instant (the knowledge cutoff).  [None] when the process "died"
    during [Server.create] itself. *)
let run_pass ~(alive : unit -> bool) ~dir steps : world option =
  match Server.create ~ckpt_dir:dir () with
  | exception Io.Crash -> None
  | srv ->
      let w =
        {
          srv;
          alive;
          sessions = Hashtbl.create 4;
          tenants = Hashtbl.create 4;
          modules = Hashtbl.create 4;
          jobs = Hashtbl.create 8;
          closed = [];
        }
      in
      (try
         List.iter (fun st -> if alive () then exec w st) steps
       with Io.Crash -> ());
      Some w

(* ---- baseline ---- *)

type baseline = {
  b_boundaries : int;
  b_trace : string list;  (** one label per boundary, in order *)
  b_values : (string * J.t) list;  (** job name -> expected outputs *)
  b_tallies : (string * int) list;  (** closed tenant -> launch count *)
}

let tenant_counter stats tenant name =
  Option.bind (J.mem "tenants" stats) (fun t ->
      Option.bind (J.mem tenant t) (fun o ->
          Option.bind (J.mem "metrics" o) (fun m ->
              Option.bind (J.mem name m) (J.int_mem "value"))))

let drain ?(max_steps = 10_000) q =
  let n = ref 0 in
  while Queue.step q && !n < max_steps do incr n done;
  !n < max_steps

(* [io] wraps the injector's implementation in this pass and in
   [drill]'s, and is threaded through [first_failure], [minimize] and
   [replay]: the hook a test uses to run the harness over a deliberately
   weakened I/O layer.  It defaults to the identity. *)
let run_baseline ?(io = Fun.id) ~seed ~dir ~steps () : baseline =
  rm_rf dir;
  let inj = Injector.create ~root:dir ~seed ~plan:Injector.Count () in
  let w =
    Io.with_impl (io (Injector.impl inj)) (fun () ->
        run_pass ~alive:(fun () -> not (Injector.crashed inj)) ~dir steps)
  in
  let w =
    match w with
    | Some w -> w
    | None -> raise (Harness_bug "baseline pass crashed without an injector")
  in
  if not (drain (Server.queue w.srv)) then
    raise (Harness_bug "baseline did not quiesce");
  oracle_sweep w;
  let values =
    Hashtbl.fold
      (fun name ji acc ->
        match ji.j_values with
        | Some v -> (name, v) :: acc
        | None ->
            raise
              (Harness_bug
                 (Fmt.str "baseline job %s never completed (state %s)" name
                    ji.j_state)))
      w.jobs []
  in
  let stats = get_ok "stats" (handle w "stats" []) in
  let tallies =
    List.filter_map
      (fun sid ->
        let tenant = Hashtbl.find w.tenants sid in
        Option.map (fun n -> (tenant, n)) (tenant_counter stats tenant "launches"))
      w.closed
  in
  Server.decommission w.srv;
  {
    b_boundaries = Injector.ops inj;
    b_trace = Injector.trace inj;
    b_values = values;
    b_tallies = tallies;
  }

(* ---- one drill ---- *)

let terminal = function "done" | "failed" | "cancelled" -> true | _ -> false

(** Crash at [boundary] with [flavor], recover, check the invariants.
    Returns the violations (empty = this crash point is safe). *)
let drill ?(io = Fun.id) ~seed ~dir ~steps ~(baseline : baseline) ~boundary
    ~flavor () : string list =
  rm_rf dir;
  let inj =
    Injector.create ~root:dir ~seed
      ~plan:(Injector.Crash { boundary; flavor })
      ()
  in
  let w =
    Io.with_impl (io (Injector.impl inj)) (fun () ->
        run_pass ~alive:(fun () -> not (Injector.crashed inj)) ~dir steps)
  in
  if not (Injector.crashed inj) then []
    (* boundary beyond this (possibly minimized) script's reach *)
  else begin
    let violations = ref [] in
    let fail fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
    (* what the dead daemon owed its clients *)
    let must_recover =
      match w with
      | None -> []
      | Some w ->
          post_crash_states w;
          Hashtbl.fold
            (fun name ji acc ->
              if ji.j_id <> None && not (terminal ji.j_state) then
                (name, ji) :: acc
              else acc)
            w.jobs []
    in
    (* the successor: real I/O, same directory *)
    let srv2 = Server.create ~ckpt_dir:dir () in
    let recs = Server.recovered srv2 in
    let count_label l =
      List.length
        (List.filter (fun r -> String.equal r.Server.r_label l) recs)
    in
    List.iter
      (fun (name, _) ->
        match count_label name with
        | 0 -> fail "lost job %s: acknowledged, in flight, not recovered" name
        | 1 -> ()
        | n -> fail "job %s re-admitted %d times" name n)
      must_recover;
    List.iter
      (fun (r : Server.recovered) ->
        if count_label r.Server.r_label > 1 then
          fail "job %s re-admitted %d times" r.Server.r_label
            (count_label r.Server.r_label))
      recs;
    if not (drain (Server.queue srv2)) then
      fail "successor queue did not quiesce"
    else begin
      (* every re-admitted job must finish, and the ones a client was
         promised must land the baseline values at the original address *)
      List.iter
        (fun (r : Server.recovered) ->
          match Queue.info (Server.queue srv2) ~id:r.Server.r_job with
          | None -> fail "recovered job %s vanished" r.Server.r_label
          | Some i -> (
              let state = Queue.state_name i.Queue.i_state in
              if state <> "done" then
                fail "recovered job %s ended %s" r.Server.r_label state
              else
                let promised =
                  List.find_opt
                    (fun (n, _) -> String.equal n r.Server.r_label)
                    must_recover
                in
                match promised with
                | Some (name, ji) -> (
                    let addr =
                      match ji.j_out with Some a -> a | None -> -1
                    in
                    let resp =
                      Server.handle srv2
                        (J.Obj
                           [
                             ("cmd", J.Str "read");
                             ("session", J.Int r.Server.r_session);
                             ("addr", J.Int addr);
                             ("ty", J.Str "f32");
                             ("count", J.Int 4);
                           ])
                    in
                    match
                      (J.mem "values" resp, List.assoc_opt name baseline.b_values)
                    with
                    | Some got, Some want when got = want -> ()
                    | Some got, Some want ->
                        fail "job %s recovered with wrong output: %s, want %s"
                          name (J.to_string got) (J.to_string want)
                    | _ ->
                        fail "job %s: could not read recovered output (%s)"
                          name (J.to_string resp))
                | None -> ()))
        recs;
      (* tally conservation for tenants whose close committed pre-crash *)
      (match w with
      | None -> ()
      | Some w ->
          let stats = Server.handle srv2 (J.Obj [ ("cmd", J.Str "stats") ]) in
          List.iter
            (fun sid ->
              let tenant = Hashtbl.find w.tenants sid in
              match
                ( List.assoc_opt tenant baseline.b_tallies,
                  tenant_counter stats tenant "launches" )
              with
              | Some want, Some got when got = want -> ()
              | Some want, got ->
                  fail "tenant %s tally not conserved: %s, want %d" tenant
                    (match got with
                    | Some g -> string_of_int g
                    | None -> "missing")
                    want
              | None, _ -> ())
            w.closed);
      (* leak check: after the drain nothing may remain but the journal *)
      Array.iter
        (fun name ->
          if name <> "tenant-tallies.journal" then
            fail "stale state leaked after recovery: %s" name)
        (try Sys.readdir dir with Sys_error _ -> [||]);
      Server.decommission srv2;
      if Sys.file_exists dir then fail "decommission left %s behind" dir
    end;
    List.rev !violations
  end

(* ---- the campaign ---- *)

type failure = {
  f_boundary : int;
  f_flavor : Injector.flavor;
  f_label : string;  (** the drilled op, from the counting trace *)
  f_violations : string list;
}

type campaign = {
  c_seed : int;
  c_boundaries : int;
  c_trace : string list;
  c_drills : int;
  c_failures : failure list;
}

let flavors_for_label label =
  if
    String.starts_with ~prefix:"write " label
    || String.starts_with ~prefix:"append " label
  then Injector.flavors_for_write
  else Injector.flavors_for_other

(** Every (boundary × applicable flavor) pair, evenly thinned to at
    most [budget] drills (0 = no cap) so a bounded CI run still spans
    the whole timeline rather than only its start. *)
let enumerate ~(baseline : baseline) ~budget =
  let all =
    List.concat
      (List.mapi
         (fun b label ->
           List.map (fun f -> (b, f, label)) (flavors_for_label label))
         baseline.b_trace)
  in
  let total = List.length all in
  if budget <= 0 || total <= budget then all
  else
    List.filteri
      (fun i _ -> i * budget / total <> (i + 1) * budget / total)
      all

let run_campaign ?(seed = 0x5eed) ?(budget = 0) ?(stop_on_first = false)
    ?(log = fun _ -> ()) ~dir ~steps () : campaign =
  let baseline = run_baseline ~seed ~dir ~steps () in
  log
    (Fmt.str "chaos: %d I/O boundaries in the scripted workload"
       baseline.b_boundaries);
  let drills = enumerate ~baseline ~budget in
  log (Fmt.str "chaos: drilling %d crash points" (List.length drills));
  let failures = ref [] in
  let ran = ref 0 in
  (try
     List.iter
       (fun (boundary, flavor, label) ->
         incr ran;
         let violations = drill ~seed ~dir ~steps ~baseline ~boundary ~flavor () in
         if violations <> [] then begin
           log
             (Fmt.str "chaos: FAIL @%d %s [%s]: %s" boundary
                (Injector.flavor_name flavor) label
                (String.concat "; " violations));
           failures :=
             { f_boundary = boundary; f_flavor = flavor; f_label = label;
               f_violations = violations }
             :: !failures;
           if stop_on_first then raise Exit
         end)
       drills
   with Exit -> ());
  rm_rf dir;
  {
    c_seed = seed;
    c_boundaries = baseline.b_boundaries;
    c_trace = baseline.b_trace;
    c_drills = !ran;
    c_failures = List.rev !failures;
  }

(* ---- minimization ---- *)

(* Cap on candidate schedules: each one replays a bounded drill sweep,
   so a pathological shrink must not dominate the campaign. *)
let max_evals = 48

(* Does any crash point of [steps] with this flavor still violate?
   Scans boundaries in order, stopping at the first failure — in
   practice durability bugs sit early in the timeline, so this is
   cheap.  Returns the witness. *)
let first_failure ?io ~seed ~dir ~flavor ~sweep_cap steps : failure option =
  match run_baseline ?io ~seed ~dir ~steps () with
  | exception _ -> None
  | baseline ->
      let cap = min baseline.b_boundaries sweep_cap in
      let rec go b =
        if b >= cap then None
        else
          let violations =
            drill ?io ~seed ~dir ~steps ~baseline ~boundary:b ~flavor ()
          in
          if violations <> [] then
            Some
              {
                f_boundary = b;
                f_flavor = flavor;
                f_label = (try List.nth baseline.b_trace b with _ -> "?");
                f_violations = violations;
              }
          else go (b + 1)
      in
      go 0

(** Shrink a failing script with {!Vekt_fuzz.Shrink.chunks}, keeping a
    candidate only if some crash point with the failing flavor still
    violates.  The final script, boundary and violations are returned
    together so the repro file records exactly what the minimized
    schedule does. *)
let minimize ?io ~seed ~dir (f : failure) (steps : Script.step list) :
    Script.step list * failure =
  let sweep_cap = f.f_boundary + 8 in
  let try_candidate cand =
    match first_failure ?io ~seed ~dir ~flavor:f.f_flavor ~sweep_cap cand with
    | found -> found
    | exception Harness_bug _ -> None
  in
  let best, witness = Vekt_fuzz.Shrink.chunks ~max_evals ~try_candidate steps in
  rm_rf dir;
  (best, Option.value witness ~default:f)

(* ---- replayable repro files ---- *)

let repro_json ~seed (f : failure) (steps : Script.step list) : J.t =
  J.Obj
    [
      ("vekt-chaos-repro", J.Int 1);
      ("seed", J.Int seed);
      ("boundary", J.Int f.f_boundary);
      ("flavor", J.Str (Injector.flavor_name f.f_flavor));
      ("label", J.Str f.f_label);
      ("steps", J.List (List.map Script.step_json steps));
      ("violations", J.List (List.map (fun v -> J.Str v) f.f_violations));
    ]

let write_repro ~path ~seed (f : failure) steps =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_line (repro_json ~seed f steps)))

type repro = {
  r_seed : int;
  r_boundary : int;
  r_flavor : Injector.flavor;
  r_steps : Script.step list;
}

let parse_repro (data : string) : (repro, string) result =
  match J.of_string (String.trim data) with
  | Error msg -> Error msg
  | Ok j -> (
      match
        ( J.int_mem "seed" j,
          J.int_mem "boundary" j,
          Option.bind (J.str_mem "flavor" j) Injector.flavor_of_string,
          J.list_mem "steps" j )
      with
      | Some seed, Some boundary, Some flavor, Some steps_j -> (
          let steps =
            List.fold_left
              (fun acc sj ->
                match (acc, Script.step_of_json sj) with
                | Error e, _ -> Error e
                | Ok acc, Ok s -> Ok (s :: acc)
                | Ok _, Error e -> Error e)
              (Ok []) steps_j
          in
          match steps with
          | Error e -> Error e
          | Ok rev ->
              Ok
                {
                  r_seed = seed;
                  r_boundary = boundary;
                  r_flavor = flavor;
                  r_steps = List.rev rev;
                })
      | _ -> Error "repro: want seed, boundary, flavor, steps")

(** Re-run exactly the drill a repro file records.  Returns the
    violations it reproduces (empty = no longer fails). *)
let replay ?io ~dir (r : repro) : string list =
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let baseline = run_baseline ?io ~seed:r.r_seed ~dir ~steps:r.r_steps () in
      drill ?io ~seed:r.r_seed ~dir ~steps:r.r_steps ~baseline
        ~boundary:r.r_boundary ~flavor:r.r_flavor ())
