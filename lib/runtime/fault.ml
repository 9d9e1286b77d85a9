(** Deterministic fault injection (the test double for the
    fault-tolerance subsystem).

    Faults are described by declarative {!spec}s — parsed from
    [inject] config strings or built programmatically — and
    armed per launch through {!Api.config}.  All decisions are
    deterministic: probabilistic specs draw from a seeded xorshift
    generator, counting specs ("the Nth memory access", "every Kth
    dispatch") use plain counters, so a given (module, config, seed)
    triple always injects the same faults at the same points.  With no
    specs armed the runtime never consults this module on the hot path,
    keeping modelled cycles bit-identical to an uninstrumented run. *)

open Vekt_ptx

(** One fault site.  [None] filters match anything. *)
type spec =
  | Compile_fail of {
      ws : int option;  (** only this warp width *)
      tier : int option;  (** only this compile tier *)
      kernel : string option;
      p : float;  (** injection probability; 1.0 = always *)
    }
      (** vectorizer/pipeline failure at specialization-build time;
          exercises the fallback chain and quarantine *)
  | Mem_trap of { nth : int; kernel : string option }
      (** out-of-band memory trap raised at the [nth] memory
          instruction executed under the interpreter *)
  | Spurious_yield of { every : int }
      (** every [every]th warp dispatch is skipped (the warp yields
          back to the manager without running); consumes fuel so even
          [every = 1] terminates *)

type config = { seed : int; specs : spec list }

let default_seed = 0x5eed

(* ---- spec parsing ("kind:k=v,k=v") ---- *)

let parse_field (k, v) acc =
  match acc with
  | Error _ as e -> e
  | Ok fields -> (
      match k with
      | "ws" | "tier" | "nth" | "every" -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> Ok ((k, `I n) :: fields)
          | _ -> Error (Fmt.str "field %s wants a non-negative integer, got %S" k v))
      | "p" -> (
          match float_of_string_opt v with
          | Some p when p >= 0.0 && p <= 1.0 -> Ok ((k, `F p) :: fields)
          | _ -> Error (Fmt.str "field p wants a probability in [0;1], got %S" v))
      | "kernel" -> Ok ((k, `S v) :: fields)
      | _ -> Error (Fmt.str "unknown field %S" k))

let find_i fields k = List.assoc_opt k fields |> Option.map (function `I n -> n | _ -> 0)
let find_s fields k =
  List.assoc_opt k fields |> Option.map (function `S s -> s | _ -> "")

(** Parse one fault spec of an [inject] config value, e.g.
    ["compile-fail:ws=4,tier=1,p=0.5"], ["mem-trap:nth=100,kernel=saxpy"],
    ["yield:every=8"]. *)
let parse_spec s : (spec, string) result =
  let kind, body =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let fields =
    if body = "" then Ok []
    else
      List.fold_left
        (fun acc f ->
          match String.index_opt f '=' with
          | None -> Error (Fmt.str "malformed field %S (expected key=value)" f)
          | Some i ->
              parse_field
                ( String.sub f 0 i,
                  String.sub f (i + 1) (String.length f - i - 1) )
                acc)
        (Ok [])
        (String.split_on_char ',' body)
  in
  match fields with
  | Error e -> Error (Fmt.str "bad fault spec %S: %s" s e)
  | Ok fields -> (
      match kind with
      | "compile-fail" ->
          let p =
            match List.assoc_opt "p" fields with Some (`F p) -> p | _ -> 1.0
          in
          Ok
            (Compile_fail
               {
                 ws = find_i fields "ws";
                 tier = find_i fields "tier";
                 kernel = find_s fields "kernel";
                 p;
               })
      | "mem-trap" ->
          Ok
            (Mem_trap
               {
                 nth = Option.value (find_i fields "nth") ~default:1;
                 kernel = find_s fields "kernel";
               })
      | "yield" ->
          Ok
            (Spurious_yield
               { every = max 1 (Option.value (find_i fields "every") ~default:8) })
      | _ ->
          Error
            (Fmt.str
               "bad fault spec %S: unknown kind %S (want compile-fail, \
                mem-trap or yield)"
               s kind))

(* ---- armed injector ---- *)

(* The counters are atomic because one injector is shared by every
   worker domain of a launch ({!Worker_pool}); plain mutable ints would
   lose updates under concurrent bumping.  [rng] stays plain mutable: it
   is only consulted from {!check_compile}, which the translation cache
   always calls under its own mutex. *)
type t = {
  config : config;
  mutable rng : int;  (** xorshift state; never 0 *)
  mem_seen : int Atomic.t;  (** memory instructions observed so far *)
  dispatches : int Atomic.t;  (** warp dispatches observed so far *)
  compile_fails : int Atomic.t;  (** injected specialization-build failures *)
  mem_traps : int Atomic.t;  (** injected memory traps *)
  yields : int Atomic.t;  (** injected spurious yields *)
}

let create (config : config) =
  let s = if config.seed = 0 then default_seed else config.seed in
  {
    config;
    rng = s;
    mem_seen = Atomic.make 0;
    dispatches = Atomic.make 0;
    compile_fails = Atomic.make 0;
    mem_traps = Atomic.make 0;
    yields = Atomic.make 0;
  }

(** Serializable injector state — the xorshift word plus every counter,
    in a fixed order (rng, mem_seen, dispatches, compile_fails,
    mem_traps, yields).  Checkpoints capture it so a cross-process
    resume continues the same deterministic fault schedule instead of
    replaying injections from scratch. *)
let export_state t : int array =
  [|
    t.rng;
    Atomic.get t.mem_seen;
    Atomic.get t.dispatches;
    Atomic.get t.compile_fails;
    Atomic.get t.mem_traps;
    Atomic.get t.yields;
  |]

let import_state t (s : int array) =
  if Array.length s <> 6 then invalid_arg "Fault.import_state: want 6 fields";
  t.rng <- (if s.(0) = 0 then default_seed else s.(0));
  Atomic.set t.mem_seen s.(1);
  Atomic.set t.dispatches s.(2);
  Atomic.set t.compile_fails s.(3);
  Atomic.set t.mem_traps s.(4);
  Atomic.set t.yields s.(5)

(* 62-bit xorshift, uniform draw in [0;1). *)
let draw t =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = (x lxor (x lsl 17)) land max_int in
  t.rng <- (if x = 0 then default_seed else x);
  float_of_int x /. (float_of_int max_int +. 1.0)

let kernel_matches filter kernel =
  match filter with None -> true | Some k -> String.equal k kernel

let opt_matches filter v = match filter with None -> true | Some x -> x = v

(** Should the build of [kernel]'s [ws]-wide tier-[tier] specialization
    fail?  Returns the injected failure reason. *)
let check_compile t ~kernel ~ws ~tier : string option =
  List.find_map
    (function
      | Compile_fail c
        when kernel_matches c.kernel kernel && opt_matches c.ws ws
             && opt_matches c.tier tier ->
          if c.p >= 1.0 || draw t < c.p then begin
            Atomic.incr t.compile_fails;
            Some (Fmt.str "injected compile failure (ws=%d, tier=%d)" ws tier)
          end
          else None
      | _ -> None)
    t.config.specs

(** Per-access hook for {!Vekt_vm.Interp.run}: raises {!Mem.Fault} at
    the configured [nth] memory instruction.  [None] when no mem-trap
    spec targets [kernel], so the un-injected interpreter path is
    untouched. *)
let mem_hook t ~kernel : (Ast.space -> addr:int -> width:int -> unit) option =
  List.find_map
    (function
      | Mem_trap m when kernel_matches m.kernel kernel -> Some m.nth
      | _ -> None)
    t.config.specs
  |> Option.map (fun nth sp ~addr ~width ->
         let seen = Atomic.fetch_and_add t.mem_seen 1 + 1 in
         if seen = nth then begin
           Atomic.incr t.mem_traps;
           raise
             (Mem.Fault
                {
                  Vekt_error.segment = Printer.space_str sp;
                  space = Printer.space_str sp;
                  addr;
                  width;
                  size = -1;
                  op = "injected trap";
                })
         end)

(** Should this warp dispatch be skipped (spurious yield)?  Counts every
    dispatch; fires on every [every]th one. *)
let spurious_yield t : bool =
  match
    List.find_map
      (function Spurious_yield y -> Some y.every | _ -> None)
      t.config.specs
  with
  | None -> false
  | Some every ->
      let d = Atomic.fetch_and_add t.dispatches 1 + 1 in
      if d mod every = 0 then begin
        Atomic.incr t.yields;
        true
      end
      else false

let metrics_into (t : t) (m : Vekt_obs.Metrics.t) =
  let module M = Vekt_obs.Metrics in
  M.counter m "fault.injected_compile_fails" := Atomic.get t.compile_fails;
  M.counter m "fault.injected_mem_traps" := Atomic.get t.mem_traps;
  M.counter m "fault.injected_yields" := Atomic.get t.yields
