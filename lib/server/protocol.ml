(** Wire-protocol vocabulary for the vekt daemon.

    Requests and responses are single lines of JSON over a Unix-domain
    socket.  Every request is an object with a ["cmd"] field; every
    response is an object with ["ok"] — [true] plus result fields, or
    [false] plus a structured ["error"] object carrying the stable
    {!Vekt_error.kind_name} tag and a human-readable message.  This
    module owns the response shapes so {!Server} and the [vektc]
    client agree by construction. *)

module J = Vekt_obs.Jsonx

let version = 1

(** Raised by request handlers on malformed input; the dispatcher
    renders it as an [ok:false] response.  A daemon answers a bad
    request — it does not die on one. *)
exception Bad_request of string

let bad fmt = Fmt.kstr (fun s -> raise (Bad_request s)) fmt

let ok fields : J.t = J.Obj (("ok", J.Bool true) :: fields)

let err ?(extras = []) ~kind ~message () : J.t =
  J.Obj
    [
      ("ok", J.Bool false);
      ( "error",
        J.Obj
          ([ ("kind", J.Str kind); ("message", J.Str message) ] @ extras) );
    ]

(* Machine-actionable payload fields, per error kind: an overloaded
   client needs [retry_after_ms] to back off without parsing prose, a
   deadline victim gets its budget arithmetic and the partial-progress
   snapshot path. *)
let error_extras : Vekt_error.t -> (string * J.t) list = function
  | Vekt_error.Overloaded o ->
      [
        ("retry_after_ms", J.Int o.retry_after_ms);
        ("queued", J.Int o.queued);
        ("limit", J.Int o.limit);
      ]
  | Vekt_error.Deadline d ->
      [ ("deadline_ms", J.Int d.deadline_ms); ("elapsed_ms", J.Int d.elapsed_ms) ]
      @ (match d.snapshot with
        | None -> []
        | Some p -> [ ("snapshot", J.Str p) ])
  | _ -> []

let error_json (e : Vekt_error.t) : J.t =
  err ~extras:(error_extras e) ~kind:(Vekt_error.kind_name e)
    ~message:(Vekt_error.to_string e) ()

let bad_request message : J.t = err ~kind:"bad-request" ~message ()

(* ---- request field accessors (raise Bad_request on absence) ---- *)

let req_str j k =
  match J.str_mem k j with
  | Some s -> s
  | None -> bad "missing or non-string field %S" k

let req_int j k =
  match J.int_mem k j with
  | Some n -> n
  | None -> bad "missing or non-integer field %S" k

let opt_int = J.int_mem
let opt_str = J.str_mem
let opt_bool = J.bool_mem

(** A launch dimension: either an integer ([8] means [(8,1,1)]) or a
    1–3 element array [[x,y,z]]. *)
let req_dim3 j k : Vekt_ptx.Launch.dim3 =
  match J.mem k j with
  | Some (J.Int x) -> Vekt_ptx.Launch.dim3 x
  | Some (J.List l) -> (
      let ints =
        List.map
          (function
            | J.Int n -> n | _ -> bad "field %S: dimensions must be integers" k)
          l
      in
      match ints with
      | [ x ] -> Vekt_ptx.Launch.dim3 x
      | [ x; y ] -> Vekt_ptx.Launch.dim3 ~y x
      | [ x; y; z ] -> Vekt_ptx.Launch.dim3 ~y ~z x
      | _ -> bad "field %S: want 1-3 dimensions" k)
  | Some _ | None -> bad "missing or malformed dim3 field %S" k

(** Render a finished launch report for [poll] responses. *)
let report_json (r : Vekt_runtime.Api.report) : J.t =
  J.Obj
    [
      ("cycles", J.Float r.Vekt_runtime.Api.cycles);
      ("time_ms", J.Float r.time_ms);
      ("gflops", J.Float r.gflops);
      ("avg_warp_size", J.Float r.avg_warp_size);
      ( "recovered",
        match r.recovered with
        | None -> J.Null
        | Some e -> J.Str (Vekt_error.kind_name e) );
    ]
