(** The dynamic translation cache (paper §5.1), tiered.

    Holds, per kernel, the scalar IR produced by the PTX→IR frontend and
    lazily built specializations per warp size.  Execution managers query
    it with a warp size; a miss triggers vectorization, optimization and
    a lowering that costs every block ("JIT compilation").  The build's
    simulated cost is charged to compilation statistics rather than
    kernel cycles (the paper translates at kernel granularity, off the
    measured path).

    Compilation is policy-driven:

    - {b Eager} (the paper's behaviour, the default): the first query
      for a (warp size, argument digest) builds the fully optimized
      specialization.
    - {b Tiered}: the first query builds an {e unoptimized} tier-0
      specialization immediately (vectorize + DCE swept to a fixpoint,
      no pass pipeline — cheap, so the warp is never stalled behind the
      optimizer); a per-key hotness counter then promotes the
      specialization through the full pass pipeline once it has been
      requested [hot_threshold] times.  Promotion replaces the table
      entry; warps already executing the tier-0 code keep their
      reference.

    The specialization table can be bounded ([capacity]): before an
    insert would exceed the bound, the least-recently-used entry that is
    not currently pinned by an executing warp is evicted.  Hotness
    counters survive eviction, so a re-queried hot key recompiles
    straight to tier 1.

    {b Domain safety} (DESIGN.md §3.4).  One cache is shared by every
    execution-manager worker of a launch, which under
    {!Vekt_runtime.Worker_pool} means several OCaml domains.  All
    mutation — compiling, inserting, promoting, evicting, quarantining —
    happens under a single per-cache mutex, and after every mutation the
    table is {e published}: an immutable snapshot of the entry and
    quarantine tables is stored into [Atomic.t] cells.  A resident
    tier-1 hit — the per-dispatch steady state — is served from that
    snapshot by {!get} and {!get_fallback} alike, at any domain count,
    so it never takes the lock and never serializes the workers: the
    hit refreshes the entry's (atomic) LRU stamp and counts in
    [par_hits].  A snapshot read can race a concurrent publish only by
    being slightly stale, which costs at most a trip through the locked
    slow path; that path re-checks the current snapshot first, so the
    hit is still served and counted by the same code.  Tier-0 entries
    are never served from the snapshot: their hotness must accrue under
    the lock toward promotion. *)

module Ir = Vekt_ir.Ir
module Verify = Vekt_ir.Verify
module Ptx_to_ir = Vekt_transform.Ptx_to_ir
module Plan = Vekt_transform.Plan
module Vectorize = Vekt_transform.Vectorize
module Dce = Vekt_transform.Dce
module Passes = Vekt_transform.Passes
module Machine = Vekt_vm.Machine
module Interp = Vekt_vm.Interp
open Vekt_ptx

module Obs = Vekt_obs

type entry = {
  vfunc : Ir.func;
  code : Interp.t;
      (** [vfunc] lowered once, each block with its modelled cost: what
          warps run *)
  static_instrs : int;  (** static instruction count after optimization *)
  compile_us : float;  (** measured wall time this specialization cost to build *)
  tier : int;  (** 0 = unoptimized fast build, 1 = full pass pipeline *)
  last_use : int Atomic.t;
      (** LRU stamp (cache query clock); refreshed by lock-free hits *)
  in_use : int Atomic.t;
      (** pin count held by currently-executing warps (pinned/unpinned
          from any domain, hence atomic) *)
}

(** When (and whether) a specialization is promoted through the full
    pass pipeline. *)
type tiering =
  | Eager
  | Tiered of { hot_threshold : int }
      (** queries of one (ws, digest) key before full optimization;
          values ≤ 1 behave like {!Eager} *)

(** One quarantined specialization key.  The TTL counts successful
    launches (decremented by {!tick_quarantine}). *)
type quarantine_entry = {
  mutable q_ttl : int;  (** remaining successful launches to sit out *)
  q_error : Vekt_error.t option;
      (** the build failure that put the key here ([None] when restored
          from a checkpoint); re-raised when every width is quarantined *)
}

type t = {
  kernel_name : string;
  scalar : Ir.func;
  plan : Plan.t;
  classes : Vectorize.classes;
      (** [scalar]'s uniformity classes under [mode], shared by every
          width's build of it *)
  shared_bytes : int;
  local_bytes : int;  (** per-thread local memory: declared + spill area *)
  order_dependent_atomics : bool;
      (** the kernel has a global [atom.exch] or [atom.cas], or a global
          atomic whose returned value is read: its memory image or its
          modelled cycles depend on the order CTAs run in, so its
          launches stay on one domain ({!Worker_pool.launch}) *)
  mode : Vectorize.mode;
  affine : bool;  (** coalesce affine/uniform memory accesses (§4 future work) *)
  specialize_args : bool;
      (** specialize on concrete kernel-argument values (§5.1 future work) *)
  machine : Machine.t;
  optimize : bool;
  pipeline : Passes.pipeline;  (** pass pipeline for tier-1 builds *)
  tiering : tiering;
  capacity : int option;  (** max live specializations; None = unbounded *)
  widths : int list;  (** available specializations, descending *)
  specializations : (int * string, entry) Hashtbl.t;
      (** keyed by (warp size, parameter-block digest; "" = generic) *)
  hotness : (int * string, int) Hashtbl.t;
      (** per-key query counts; drive tier promotion, survive eviction *)
  pass_stats : (string, int) Hashtbl.t;
      (** cumulative per-pass change counts over all tier-1 builds *)
  (* ---- domain safety (DESIGN.md §3.4) ---- *)
  lock : Mutex.t;
      (** guards every mutation of the tables and counters below;
          tier-1 hits bypass it via [published] *)
  published : ((int * string) * entry) list Atomic.t;
      (** immutable snapshot of [specializations], republished under
          [lock] after every mutation; read lock-free by tier-1 hits *)
  pub_quarantine : (int * string) list Atomic.t;
      (** immutable snapshot of the active quarantine keys *)
  par_hits : int Atomic.t;
      (** hits served from the published snapshot (folded into
          {!hit_rate} and the metrics next to [hits]) *)
  clock : int Atomic.t;  (** LRU stamp source, bumped per query *)
  mutable compile_count : int;
  mutable promotions : int;  (** tier-0 → tier-1 recompilations *)
  mutable evictions : int;
  mutable hits : int;
      (** queries answered under the lock without compiling: tier-0
          entries, whose hotness accrues toward promotion *)
  mutable misses : int;
  mutable compile_wall_us : float;  (** total wall time spent compiling *)
  mutable verify : bool;
  (* ---- fault tolerance (see DESIGN.md §3.3) ---- *)
  fault : Fault.t option;  (** armed injector, shared with the manager *)
  quarantine_ttl : int;
      (** successful launches a quarantined width sits out before retry *)
  quarantine : (int * string, quarantine_entry) Hashtbl.t;
      (** known-bad specialization keys -> remaining TTL *)
  mutable fallbacks : int;  (** builds that failed and fell to a narrower width *)
  mutable quarantine_adds : int;
  quarantine_skips : int Atomic.t;
      (** bumped by the locked fallback chain and by lock-free hits *)
  mutable quarantine_expiries : int;
}

let default_widths = [ 4; 2; 1 ]
let default_hot_threshold = 3
let default_quarantine_ttl = 3

(* A global atomic makes a launch depend on the order CTAs run in when
   its update does not commute (exchange, compare-and-swap) or when the
   old value it returns is read: a kernel that elects its last CTA by
   branching on that value (threadfence) takes different paths, and so
   models different cycles, depending on which CTA got there first.
   Add, min and max whose result nothing reads leave the same image in
   any order. *)
let has_order_dependent_atomics (f : Ir.func) =
  let blocks = Ir.blocks f in
  let read = Hashtbl.create 64 in
  let mark = List.iter (fun r -> Hashtbl.replace read r ()) in
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun (li : Ir.li) -> mark (Ir.uses li.Ir.i)) b.Ir.insts;
      mark (Ir.term_uses b.Ir.term))
    blocks;
  List.exists
    (fun (b : Ir.block) ->
      List.exists
        (fun (li : Ir.li) ->
          match li.Ir.i with
          | Ir.Atomic (Ast.Global, (Ast.Atom_exch | Ast.Atom_cas), _, _, _, _, _, _) ->
              true
          | Ir.Atomic (Ast.Global, _, _, d, _, _, _, _) -> Hashtbl.mem read d
          | _ -> false)
        b.Ir.insts)
    blocks

(** Parse-time preparation of one kernel: frontend to scalar IR plus the
    divergence plan shared by all specializations.  A construct the
    frontend rejects is a structured {!Vekt_error.Compile}. *)
let prepare ?(mode = Vectorize.Dynamic) ?(affine = false) ?(specialize_args = false)
    ?(machine = Machine.sse4) ?(widths = default_widths) ?(optimize = true)
    ?(pipeline = Passes.default_pipeline) ?(tiering = Eager) ?capacity
    ?(verify = false) ?fault ?(quarantine_ttl = default_quarantine_ttl)
    (m : Ast.modul) ~kernel : t =
  let widths = List.sort_uniq (fun a b -> compare b a) widths in
  if widths = [] || List.exists (fun w -> w < 1) widths then
    invalid_arg "Translation_cache.prepare: invalid widths";
  if not (List.mem 1 widths) then
    invalid_arg "Translation_cache.prepare: a scalar (width 1) specialization is required";
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Translation_cache.prepare: capacity must be >= 1"
  | _ -> ());
  let tr =
    try Ptx_to_ir.frontend m ~kernel
    with Ptx_to_ir.Unsupported u ->
      raise
        (Vekt_error.compile ~kernel ~line:None Vekt_error.Frontend u.construct)
  in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:tr.Ptx_to_ir.local_decl_bytes in
  {
    kernel_name = kernel;
    scalar = tr.Ptx_to_ir.func;
    plan;
    classes = Vectorize.classes ~mode ~plan tr.Ptx_to_ir.func;
    shared_bytes = tr.Ptx_to_ir.shared_bytes;
    local_bytes = Plan.local_bytes plan ~local_decl_bytes:tr.Ptx_to_ir.local_decl_bytes;
    order_dependent_atomics = has_order_dependent_atomics tr.Ptx_to_ir.func;
    mode;
    affine;
    specialize_args;
    machine;
    optimize;
    pipeline;
    tiering;
    capacity;
    widths;
    specializations = Hashtbl.create 4;
    hotness = Hashtbl.create 4;
    pass_stats = Hashtbl.create 8;
    lock = Mutex.create ();
    published = Atomic.make [];
    pub_quarantine = Atomic.make [];
    par_hits = Atomic.make 0;
    clock = Atomic.make 0;
    compile_count = 0;
    promotions = 0;
    evictions = 0;
    hits = 0;
    misses = 0;
    compile_wall_us = 0.0;
    verify;
    fault;
    quarantine_ttl = max 1 quarantine_ttl;
    quarantine = Hashtbl.create 4;
    fallbacks = 0;
    quarantine_adds = 0;
    quarantine_skips = Atomic.make 0;
    quarantine_expiries = 0;
  }

(* ---- pinning (entries held by currently-executing warps) ---- *)

let pin (e : entry) = Atomic.incr e.in_use
let unpin (e : entry) = ignore (Atomic.fetch_and_add e.in_use (-1))

(* ---- publication (lock must be held) ---- *)

(* Republish immutable snapshots of the specialization and quarantine
   tables for the lock-free hit path.  Called after every mutation; the
   fold allocates a fresh list, so readers of the old snapshot are never
   disturbed. *)
let republish (t : t) =
  Atomic.set t.published
    (Hashtbl.fold (fun key e acc -> (key, e) :: acc) t.specializations []);
  Atomic.set t.pub_quarantine
    (Hashtbl.fold
       (fun key q acc -> if q.q_ttl > 0 then key :: acc else acc)
       t.quarantine [])

(* Run [f] under the cache mutex and republish on the way out, even when
   [f] raises: hotness and miss counters moved. *)
let locked (t : t) f =
  Mutex.protect t.lock (fun () ->
      Fun.protect ~finally:(fun () -> republish t) f)

(* Next LRU stamp: one per query, whichever path answers it. *)
let next_stamp (t : t) = Atomic.fetch_and_add t.clock 1 + 1

(* Evict least-recently-used unpinned entries until an insert fits the
   capacity bound.  A pinned (currently-executing) entry is never a
   victim; if everything is pinned the table temporarily exceeds the
   bound rather than dropping running code. *)
let evict_for_insert (t : t) =
  match t.capacity with
  | None -> ()
  | Some cap ->
      let continue_ = ref (Hashtbl.length t.specializations >= cap) in
      while !continue_ do
        let victim =
          Hashtbl.fold
            (fun key (e : entry) acc ->
              if Atomic.get e.in_use > 0 then acc
              else
                match acc with
                | Some (_, stamp) when stamp <= Atomic.get e.last_use -> acc
                | _ -> Some (key, Atomic.get e.last_use))
            t.specializations None
        in
        (match victim with
        | Some (key, _) ->
            Hashtbl.remove t.specializations key;
            t.evictions <- t.evictions + 1
        | None -> continue_ := false);
        if Hashtbl.length t.specializations < cap then continue_ := false
      done

(* ---- compilation ---- *)

let compile_error (t : t) ~ws ~tier ~stage reason =
  Vekt_error.Error
    (Vekt_error.Compile
       {
         kernel = t.kernel_name;
         ws = Some ws;
         tier = Some tier;
         stage;
         line = None;
         reason;
       })

(* Tier 0 skips the pass pipeline entirely ({!Dce.run}, which repeats
   sweeps until one removes nothing, keeps the pack/unpack traffic
   bounded); tier 1 runs the configured pipeline and accumulates its
   per-pass stats.  With an enabled [sink], every
   individual pass execution is bracketed by Sk_pass span events —
   modelled time stands still ([ts = now]: compilation is off the
   measured path) while the wall clock ticks, so the span tree shows
   exactly where build wall time went. *)
let compile_build (t : t) ~sink ~now ~worker ~scalar ~ws ~tier : entry =
  let wall0 = Clock.now_us () in
  (* a copy specialized on argument values has classes of its own *)
  let classes = if scalar == t.scalar then Some t.classes else None in
  let vect = Vectorize.run ~mode:t.mode ~affine:t.affine ?classes ~plan:t.plan scalar ~ws in
  if t.optimize && tier > 0 then begin
    let observe =
      if Obs.Sink.enabled sink then
        Some
          (fun ~pass ~round run ->
            let name = Printf.sprintf "%s.r%d" pass round in
            Obs.Sink.emit sink
              (Obs.Event.Span_begin
                 { ts = now; wall_us = Clock.now_us (); worker;
                   kind = Obs.Event.Sk_pass; name });
            let changes = run () in
            Obs.Sink.emit sink
              (Obs.Event.Span_end
                 { ts = now; wall_us = Clock.now_us (); worker;
                   kind = Obs.Event.Sk_pass; name });
            changes)
      else None
    in
    let st = Passes.run ?observe ~pipeline:t.pipeline vect.Vectorize.func in
    List.iter
      (fun (name, c) ->
        Hashtbl.replace t.pass_stats name
          (Option.value (Hashtbl.find_opt t.pass_stats name) ~default:0 + c))
      st.Passes.per_pass
  end
  else ignore (Dce.run vect.Vectorize.func);
  if t.verify then Verify.check_exn vect.Vectorize.func;
  let code = Interp.compile ~machine:t.machine vect.Vectorize.func in
  let compile_us = Clock.elapsed_us wall0 in
  t.compile_count <- t.compile_count + 1;
  t.compile_wall_us <- t.compile_wall_us +. compile_us;
  {
    vfunc = vect.Vectorize.func;
    code;
    static_instrs = Ir.size vect.Vectorize.func;
    compile_us;
    tier;
    last_use = Atomic.make (Atomic.get t.clock);
    in_use = Atomic.make 0;
  }

(* Build one specialization, folding build-time failures — injected or
   genuine — into the structured {!Vekt_error.Compile} taxonomy so the
   fallback chain can react uniformly. *)
let compile_entry (t : t) ~sink ~now ~worker ~scalar ~ws ~tier : entry =
  (match t.fault with
  | Some inj -> (
      match Fault.check_compile inj ~kernel:t.kernel_name ~ws ~tier with
      | Some reason ->
          raise (compile_error t ~ws ~tier ~stage:Vekt_error.Inject reason)
      | None -> ())
  | None -> ());
  try compile_build t ~sink ~now ~worker ~scalar ~ws ~tier with
  | Vekt_error.Error _ as e -> raise e
  | Failure msg | Invalid_argument msg ->
      raise (compile_error t ~ws ~tier ~stage:Vekt_error.Vectorize msg)

(** Build the generic [ws]-wide specialization at [tier] as a miss or a
    promotion would, without entering it in the table ([vektc compile]). *)
let build (t : t) ~ws ~tier : entry =
  Mutex.protect t.lock (fun () ->
      compile_entry t ~sink:Obs.Sink.noop ~now:0.0 ~worker:0 ~scalar:t.scalar
        ~ws ~tier)

let emit_compile (t : t) sink ~now ~worker ~ws (e : entry) =
  if Obs.Sink.enabled sink then begin
    Obs.Sink.emit sink
      (Obs.Event.Compile_begin
         { ts = now; worker; kernel = t.kernel_name; ws; tier = e.tier });
    Obs.Sink.emit sink
      (Obs.Event.Compile_end
         {
           ts = now +. e.compile_us;
           worker;
           kernel = t.kernel_name;
           ws;
           tier = e.tier;
           wall_us = e.compile_us;
           static_instrs = e.static_instrs;
         })
  end

(* The scalar function a specialization starts from: the shared frontend
   result, or a copy with concrete argument values baked in. *)
let scalar_for (t : t) params =
  match params with
  | None -> t.scalar
  | Some p ->
      let copy = Ir.copy_func t.scalar in
      ignore (Vekt_transform.Specialize.params copy ~params:p);
      copy

(* The digest half of a specialization key: the parameter block's hash
   when the cache specializes on argument values, "" (generic) otherwise. *)
let digest_of (t : t) params =
  match params with
  | Some p when t.specialize_args -> Digest.to_hex (Digest.bytes (Mem.bytes p))
  | _ -> ""

let emit_quarantine (t : t) sink ~now ~worker ~ws action =
  if Obs.Sink.enabled sink then
    Obs.Sink.emit sink
      (Obs.Event.Quarantine
         { ts = now; worker; kernel = t.kernel_name; ws; action })

(* The one tier-1 hit path, shared by {!get} and {!get_fallback} at any
   domain count: serve [key] from the published snapshot if it is
   resident at tier 1 — anything else (absent, or tier 0 whose hotness
   must keep accruing toward promotion) answers [None] and the caller
   takes the locked slow path.  The hit refreshes the entry's LRU stamp
   and counts in [par_hits]; [skipped] are quarantined widths the caller
   passed over on the way, counted only when this serves the hit (on a
   fall-through the locked chain skips and counts them itself). *)
let rec published_entry ws digest = function
  | [] -> None
  | ((w, d), e) :: rest ->
      if Int.equal w ws && String.equal d digest then Some e else published_entry ws digest rest

let snapshot_hit (t : t) ?(skipped = []) ~sink ~now ~worker ~ws digest =
  match published_entry ws digest (Atomic.get t.published) with
  | Some (e : entry) when e.tier >= 1 ->
      Atomic.set e.last_use (next_stamp t);
      List.iter
        (fun ws ->
          Atomic.incr t.quarantine_skips;
          emit_quarantine t sink ~now ~worker ~ws Obs.Event.Q_skipped)
        skipped;
      Atomic.incr t.par_hits;
      if Obs.Sink.enabled sink then
        Obs.Sink.emit sink
          (Obs.Event.Cache_hit { ts = now; worker; kernel = t.kernel_name; ws });
      Some e
  | _ -> None

(* The slow path for one key; the lock must be held.  It re-checks the
   snapshot first — under the lock the snapshot holds every key this
   query can ask for, so a lock-free read that was merely stale is
   still served by {!snapshot_hit}.  What remains is a tier-0 hit (which
   may promote) or a miss (which compiles).

   Under {!Tiered} compilation a miss builds an unoptimized tier-0
   entry, and the query that takes a key's hotness to the threshold
   promotes it through the full pipeline (the query itself is still a
   hit: it is answered from cache, the recompile is the cache's own
   policy). *)
let get_locked (t : t) ?params ~sink ~now ~worker ((ws, digest) as key) : entry =
  match snapshot_hit t ~sink ~now ~worker ~ws digest with
  | Some e -> e
  | None -> (
      let params = if t.specialize_args then params else None in
      let stamp = next_stamp t in
      let queries =
        Option.value (Hashtbl.find_opt t.hotness key) ~default:0 + 1
      in
      Hashtbl.replace t.hotness key queries;
      let hot_threshold =
        match t.tiering with
        | Eager -> 1
        | Tiered { hot_threshold } -> hot_threshold
      in
      match Hashtbl.find_opt t.specializations key with
      | Some e ->
          t.hits <- t.hits + 1;
          Atomic.set e.last_use stamp;
          if Obs.Sink.enabled sink then
            Obs.Sink.emit sink
              (Obs.Event.Cache_hit
                 { ts = now; worker; kernel = t.kernel_name; ws });
          if e.tier = 0 && t.optimize && queries >= hot_threshold then begin
            (* hot: promote through the full pipeline.  A failed promotion
               (injected or genuine) keeps serving the working tier-0 code
               rather than surfacing an error for a cache-internal policy. *)
            match
              compile_entry t ~sink ~now ~worker ~scalar:(scalar_for t params)
                ~ws ~tier:1
            with
            | e' ->
                t.promotions <- t.promotions + 1;
                Hashtbl.replace t.specializations key e';
                emit_compile t sink ~now ~worker ~ws e';
                e'
            | exception Vekt_error.Error (Vekt_error.Compile _) -> e
          end
          else e
      | None ->
          if not (List.mem ws t.widths) then
            invalid_arg
              (Fmt.str "no %d-wide specialization of %s" ws t.kernel_name);
          t.misses <- t.misses + 1;
          if Obs.Sink.enabled sink then
            Obs.Sink.emit sink
              (Obs.Event.Cache_miss
                 { ts = now; worker; kernel = t.kernel_name; ws });
          let tier =
            if t.optimize && queries < hot_threshold then 0 else 1
          in
          let e =
            compile_entry t ~sink ~now ~worker ~scalar:(scalar_for t params)
              ~ws ~tier
          in
          evict_for_insert t;
          Hashtbl.replace t.specializations key e;
          emit_compile t sink ~now ~worker ~ws e;
          e)

(** Get (or build) the specialization for exactly [ws] lanes.  With
    [params] (and the cache built with [specialize_args]), the scalar
    kernel is first specialized on the concrete argument values and the
    result is cached under the parameter block's digest.  A resident
    tier-1 hit is served lock-free ({!snapshot_hit}); everything else
    takes the cache mutex.

    [sink] receives cache hit/miss and compile begin/end events; [now]
    is the caller's modelled-cycle clock at query time (events from
    different subsystems share one timeline per worker). *)
let get (t : t) ?params ?(sink = Obs.Sink.noop) ?(now = 0.0) ?(worker = 0) ~ws
    () : entry =
  let digest = digest_of t params in
  match snapshot_hit t ~sink ~now ~worker ~ws digest with
  | Some e -> e
  | None -> locked t (fun () -> get_locked t ?params ~sink ~now ~worker (ws, digest))

(* ---- fallback chain + quarantine (DESIGN.md §3.3) ---- *)

let quarantined (t : t) key =
  match Hashtbl.find_opt t.quarantine key with
  | Some q when q.q_ttl > 0 -> true
  | _ -> false

(* The widest of [widths] (descending) not above [ws]; 0 when none is. *)
let rec fitting ws = function
  | [] -> 0
  | w :: rest -> if w <= ws then w else fitting ws rest

(** Get a specialization for at most [ws] lanes, degrading gracefully:
    a width whose build fails (injected or genuine) is quarantined and
    the next narrower available width is tried, down to the scalar
    build.  Quarantined widths are skipped outright on later queries
    until {!tick_quarantine} expires them.  Returns the entry and the
    width actually served; raises the scalar build's
    {!Vekt_error.Compile} when every candidate width is failed or
    quarantined — the caller's last resort is the reference emulator.

    The first width not quarantined in the published snapshot is served
    lock-free when it is resident at tier 1 ({!snapshot_hit}); every
    other outcome takes the cache mutex.  With nothing quarantined, that
    hit walks the snapshot and builds no list. *)
let get_fallback (t : t) ?params ?(sink = Obs.Sink.noop) ?(now = 0.0)
    ?(worker = 0) ~ws () : entry * int =
  let digest = digest_of t params in
  let widest = fitting ws t.widths in
  if widest = 0 then
    invalid_arg (Fmt.str "no specialization of %s fits width %d" t.kernel_name ws);
  let fast =
    match Atomic.get t.pub_quarantine with
    | [] -> (
        match snapshot_hit t ~sink ~now ~worker ~ws:widest digest with
        | Some e -> Some (e, widest)
        | None -> None)
    | quar -> (
        let shut w = List.exists (fun (w', d) -> w' = w && String.equal d digest) quar in
        let rec first_open skipped = function
          | w :: rest when w > ws -> first_open skipped rest
          | w :: rest when shut w -> first_open (w :: skipped) rest
          | w :: _ -> Some (List.rev skipped, w)
          | [] -> None
        in
        match first_open [] t.widths with
        | Some (skipped, w) -> (
            match snapshot_hit t ~skipped ~sink ~now ~worker ~ws:w digest with
            | Some e -> Some (e, w)
            | None -> None)
        | None -> None)
  in
  match fast with
  | Some hit -> hit
  | None ->
      let candidates = List.filter (fun w -> w <= ws) t.widths in
      let emit_fallback ~from_ws ~to_ws reason =
        if Obs.Sink.enabled sink then
          Obs.Sink.emit sink
            (Obs.Event.Compile_fallback
               { ts = now; worker; kernel = t.kernel_name; from_ws; to_ws; reason })
      in
      let rec try_widths last_err = function
        | [] -> (
            match last_err with
            | Some e -> raise (Vekt_error.Error e)
            | None ->
                (* every candidate was quarantined without a recorded
                   failure (restored from a checkpoint) *)
                raise
                  (compile_error t ~ws ~tier:(-1) ~stage:Vekt_error.Vectorize
                     "all specialization widths quarantined"))
        | w :: rest -> (
            let next_ws = match rest with w' :: _ -> w' | [] -> 0 in
            if quarantined t (w, digest) then begin
              Atomic.incr t.quarantine_skips;
              emit_quarantine t sink ~now ~worker ~ws:w Obs.Event.Q_skipped;
              (* a skipped width fails with the error that quarantined
                 it, so the error raised when every width is out does
                 not depend on whether this query or an earlier one
                 (perhaps another domain's) ran the failing builds *)
              let q = Hashtbl.find t.quarantine (w, digest) in
              try_widths (if Option.is_some q.q_error then q.q_error else last_err) rest
            end
            else
              match get_locked t ?params ~sink ~now ~worker (w, digest) with
              | e -> (e, w)
              | exception Vekt_error.Error (Vekt_error.Compile _ as err) ->
                  Hashtbl.replace t.quarantine (w, digest)
                    { q_ttl = t.quarantine_ttl; q_error = Some err };
                  t.quarantine_adds <- t.quarantine_adds + 1;
                  t.fallbacks <- t.fallbacks + 1;
                  emit_fallback ~from_ws:w ~to_ws:next_ws (Vekt_error.to_string err);
                  emit_quarantine t sink ~now ~worker ~ws:w Obs.Event.Q_added;
                  try_widths (Some err) rest)
      in
      (* the slow path (miss / fallback chain / tier promotion) gets a
         cache_lookup span; a snapshot hit is too cheap to be worth a
         begin/end pair per dispatch.  Closed via Fun.protect so a
         raising chain (all widths failed) still leaves the tree
         balanced — the raise itself is the signal there. *)
      let span_name = Printf.sprintf "lookup %s.w%d" t.kernel_name ws in
      if Obs.Sink.enabled sink then
        Obs.Sink.emit sink
          (Obs.Event.Span_begin
             { ts = now; wall_us = Clock.now_us (); worker;
               kind = Obs.Event.Sk_cache_lookup; name = span_name });
      Fun.protect
        ~finally:(fun () ->
          if Obs.Sink.enabled sink then
            Obs.Sink.emit sink
              (Obs.Event.Span_end
                 { ts = now; wall_us = Clock.now_us (); worker;
                   kind = Obs.Event.Sk_cache_lookup; name = span_name }))
        (fun () -> locked t (fun () -> try_widths None candidates))

(** One successful launch elapsed: age every quarantine entry, retiring
    those whose TTL reaches zero, so the failed width gets re-tried. *)
let tick_quarantine (t : t) ?(sink = Obs.Sink.noop) ?(now = 0.0) ?(worker = 0)
    () =
  Mutex.protect t.lock (fun () ->
      let dead q = q.q_ttl <= 1 in
      let expired =
        Hashtbl.fold
          (fun key q acc -> if dead q then key :: acc else acc)
          t.quarantine []
      in
      Hashtbl.filter_map_inplace
        (fun _ q ->
          if dead q then None
          else begin
            q.q_ttl <- q.q_ttl - 1;
            Some q
          end)
        t.quarantine;
      List.iter
        (fun (w, _) ->
          t.quarantine_expiries <- t.quarantine_expiries + 1;
          emit_quarantine t sink ~now ~worker ~ws:w Obs.Event.Q_expired)
        expired;
      republish t)

(* ---- checkpoint metadata (DESIGN.md §3.5) ---- *)

(** Snapshot the cache's policy metadata for a checkpoint: per-key
    hotness counters and live quarantine TTLs, each as sorted
    [(ws, digest, value)] triples so serialization is canonical.
    Compiled entries themselves are not captured — code rebuilds on
    demand, and the restored hotness makes each key rebuild at the tier
    it had reached, so a resumed launch pays no extra tier-0 warmup and
    makes the same promotion decisions as the uninterrupted run. *)
let export_meta (t : t) : (int * string * int) list * (int * string * int) list
    =
  Mutex.protect t.lock (fun () ->
      let hot =
        Hashtbl.fold (fun (w, d) q acc -> (w, d, q) :: acc) t.hotness []
      in
      let quar =
        Hashtbl.fold
          (fun (w, d) q acc ->
            if q.q_ttl > 0 then (w, d, q.q_ttl) :: acc else acc)
          t.quarantine []
      in
      (List.sort compare hot, List.sort compare quar))

(** Restore {!export_meta} state.  The specialization table is cleared
    (nothing is pinned at a checkpoint's safe point): leaving entries
    compiled under post-snapshot hotness would let a resumed launch see
    tiers the uninterrupted run hadn't reached yet. *)
let restore_meta (t : t) ~(hotness : (int * string * int) list)
    ~(quarantine : (int * string * int) list) =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.specializations;
      Hashtbl.reset t.hotness;
      List.iter (fun (w, d, q) -> Hashtbl.replace t.hotness (w, d) q) hotness;
      Hashtbl.reset t.quarantine;
      List.iter
        (fun (w, d, ttl) ->
          Hashtbl.replace t.quarantine (w, d) { q_ttl = ttl; q_error = None })
        quarantine;
      republish t)

(** Largest available width not exceeding [n]. *)
let best_width (t : t) n =
  match fitting n t.widths with 0 -> raise Not_found | w -> w

let max_width (t : t) = List.hd t.widths

(** Entry IDs shared by all specializations of this kernel. *)
let entry_ids (t : t) = t.plan.Plan.entry_ids

(** Hit rate of the cache so far, in [0;1] ([0.0] before any query).
    Counts both locked hits and lock-free published hits. *)
let hit_rate (t : t) =
  let hits = t.hits + Atomic.get t.par_hits in
  let total = hits + t.misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

(** Snapshot JIT-side state (hit/miss rate, tier traffic, per-pass
    optimization stats, per-specialization compile cost and size) into a
    metrics registry. *)
let metrics_into (t : t) (m : Obs.Metrics.t) =
  let module M = Obs.Metrics in
  M.counter m "jit.compiles" := t.compile_count;
  M.counter m "jit.cache_hits" := t.hits + Atomic.get t.par_hits;
  M.counter m "jit.cache_hits_lockfree" := Atomic.get t.par_hits;
  M.counter m "jit.cache_misses" := t.misses;
  M.counter m "jit.promotions" := t.promotions;
  M.counter m "jit.evictions" := t.evictions;
  M.set (M.gauge m "jit.hit_rate") (hit_rate t);
  M.set (M.gauge m "jit.compile_wall_us") t.compile_wall_us;
  M.counter m "fallback.compile_failures" := t.fallbacks;
  M.counter m "fallback.quarantine_adds" := t.quarantine_adds;
  M.counter m "fallback.quarantine_skips" := Atomic.get t.quarantine_skips;
  M.counter m "fallback.quarantine_expiries" := t.quarantine_expiries;
  M.counter m "fallback.quarantine_active" := Hashtbl.length t.quarantine;
  List.iter
    (fun name ->
      M.counter m (Fmt.str "opt.%s.changes" name)
      := Option.value (Hashtbl.find_opt t.pass_stats name) ~default:0)
    (Passes.pass_names ());
  Hashtbl.iter
    (fun (ws, digest) (e : entry) ->
      let key =
        if digest = "" then Fmt.str "jit.w%d" ws
        else Fmt.str "jit.w%d.%s" ws (String.sub digest 0 8)
      in
      M.set (M.gauge m (key ^ ".compile_us")) e.compile_us;
      M.counter m (key ^ ".static_instrs") := e.static_instrs;
      M.counter m (key ^ ".tier") := e.tier)
    t.specializations
