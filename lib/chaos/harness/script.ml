(** The scripted multi-tenant workload the chaos engine drills
    (DESIGN.md §3.10).

    A script is a list of protocol-level steps against one daemon —
    open sessions for several tenants, load a module, submit launches,
    pump the admission queue, preempt, close sessions.  The harness
    runs the same script three ways: once uninterrupted to record the
    expected world (the {e baseline}), once per enumerated I/O
    boundary with a simulated crash there, and once per surviving
    candidate while a failing script is being minimized.  Steps are
    JSON round-trippable so minimized failures can be written as
    replayable repro files. *)

module J = Vekt_obs.Jsonx

type step =
  | Open of { sid : string; tenant : string }
      (** open a session; [sid] is the script-local handle *)
  | Load of { sid : string }  (** load the workload module into [sid] *)
  | Submit of { sid : string; job : string }
      (** submit one launch, labelled [job] (labels are unique) *)
  | Pump of int  (** drive up to [n] admission-queue steps *)
  | Preempt of { job : string }  (** request preemption at a safe point *)
  | Close of { sid : string }  (** close the session, archiving tallies *)

let step_json : step -> J.t = function
  | Open { sid; tenant } ->
      J.Obj [ ("op", J.Str "open"); ("sid", J.Str sid); ("tenant", J.Str tenant) ]
  | Load { sid } -> J.Obj [ ("op", J.Str "load"); ("sid", J.Str sid) ]
  | Submit { sid; job } ->
      J.Obj [ ("op", J.Str "submit"); ("sid", J.Str sid); ("job", J.Str job) ]
  | Pump n -> J.Obj [ ("op", J.Str "pump"); ("n", J.Int n) ]
  | Preempt { job } -> J.Obj [ ("op", J.Str "preempt"); ("job", J.Str job) ]
  | Close { sid } -> J.Obj [ ("op", J.Str "close"); ("sid", J.Str sid) ]

let step_of_json (j : J.t) : (step, string) result =
  let str k = J.str_mem k j in
  match J.str_mem "op" j with
  | Some "open" -> (
      match (str "sid", str "tenant") with
      | Some sid, Some tenant -> Ok (Open { sid; tenant })
      | _ -> Error "open: want sid, tenant")
  | Some "load" -> (
      match str "sid" with
      | Some sid -> Ok (Load { sid })
      | None -> Error "load: want sid")
  | Some "submit" -> (
      match (str "sid", str "job") with
      | Some sid, Some job -> Ok (Submit { sid; job })
      | _ -> Error "submit: want sid, job")
  | Some "pump" -> (
      match J.int_mem "n" j with
      | Some n -> Ok (Pump n)
      | None -> Error "pump: want n")
  | Some "preempt" -> (
      match str "job" with
      | Some job -> Ok (Preempt { job })
      | None -> Error "preempt: want job")
  | Some "close" -> (
      match str "sid" with
      | Some sid -> Ok (Close { sid })
      | None -> Error "close: want sid")
  | Some op -> Error ("unknown step op: " ^ op)
  | None -> Error "step without op"

(** The canonical streaming kernel, same source the server tests use. *)
let kernel_name = "vecadd"
let kernel_src = Vekt_workloads.W_vecadd.workload.Vekt_workloads.Workload.src

(** Per-job argument specs, derived from the job name so every job
    computes a distinct (but deterministic) result — cross-job output
    confusion after a crash cannot go unnoticed. *)
let args_for (job : string) : string list =
  let h = Hashtbl.hash job in
  let v i = ((h lsr (3 * i)) land 7) + i + 1 in
  [
    Fmt.str "f32s:%d,%d,%d,%d" (v 0) (v 1) (v 2) (v 3);
    Fmt.str "f32s:%d,%d,%d,%d" (v 4) (v 5) (v 6) (v 7);
    "zeros:16";
    "i32:4";
  ]

(** The default multi-tenant workload: two tenants sharing the engine,
    jobs submitted while others run, a mid-flight preemption (which
    writes a snapshot), a session closed mid-script (which rewrites
    the tally journal), and a final burst after the close.  Each launch
    runs two warps and snapshots at every safe point, so it starts its
    snapshot log and appends to it.  Short enough to drill every
    boundary, broad enough to cross every persistence path: manifests,
    snapshot logs and their appends, the journal, and their sweeps. *)
let default : step list =
  [
    Open { sid = "a"; tenant = "alice" };
    Load { sid = "a" };
    Open { sid = "b"; tenant = "bob" };
    Load { sid = "b" };
    Submit { sid = "a"; job = "a1" };
    Submit { sid = "b"; job = "b1" };
    Preempt { job = "b1" };
    Pump 2;
    (* b1 snapshots and yields; a1 (or b1's resume) runs *)
    Submit { sid = "a"; job = "a2" };
    Pump 6;
    (* everything admitted so far runs to completion *)
    Close { sid = "a" };
    (* alice's tallies hit the journal *)
    Submit { sid = "b"; job = "b2" };
    Pump 4;
    Close { sid = "b" };
  ]
