(** Vectorization (paper §4, Algorithms 1–4).

    Transforms a scalar kernel function into a warp-size-[ws]
    specialization in which one execution of each block is equivalent to
    all [ws] threads of a warp executing the scalar block:

    - {b Algorithm 1}: every instruction is replicated per thread; bundles
      whose operator and element type the target supports are promoted to a
      single vector-typed instruction.  Loads, stores, atomics and context
      reads are never promoted — their values are explicitly packed
      ([Insert]) into vectors and unpacked ([Extract]) at boundaries.
    - {b Algorithm 2}: conditional branches become a lane-predicate sum and
      a switch: sum 0 → uniform fall-through, sum [ws] → uniform taken,
      anything else → a divergent yield through an exit handler.
    - {b Algorithm 3}: a scheduler block dispatches on the warp's entry ID
      to per-entry handlers that restore live registers from thread-local
      spill slots.
    - {b Algorithm 4}: exit handlers spill live registers, record each
      lane's resume entry ID (a [select] over the lane's branch predicate)
      and the warp's resume status, then return to the execution manager.

    With [mode = Static_tie], thread-invariant expression elimination
    (paper §6.2) is applied: warps are assumed to be consecutive [tid.x]
    threads, invariant instructions are emitted once for the whole warp
    instead of once per lane, and lane thread IDs are computed as
    [lane0.tid.x + lane]. *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty
module Builder = Vekt_ir.Builder
module Liveness = Vekt_analysis.Liveness
module Affine = Vekt_analysis.Affine

open Vekt_ptx

type mode = Dynamic | Static_tie

type vectorized = {
  func : Ir.func;
  mode : mode;
  entry_ids : (string * int) list;
  restores_per_entry : (int * int) list;
      (** entry id → live registers restored per thread (Figure 8) *)
}

(** How a scalar virtual register is realized in the specialized function. *)
type rep =
  | Vec of Ir.vreg  (** one vector register, lane = thread *)
  | Lanes of Ir.vreg array  (** one scalar register per thread *)
  | Uni of Ir.vreg  (** one scalar shared by all threads (invariant) *)

(** Element types with vector-register support on the modelled targets
    (SSE/AVX-class): 32-bit integers and predicates, single and double
    floats.  64-bit integer arithmetic and narrow types stay scalar. *)
let vectorizable_elt = function
  | Ast.F32 | Ast.F64 | Ast.S32 | Ast.U32 | Ast.B32 | Ast.Pred -> true
  | _ -> false

(** Operators the target supports lane-parallel at the given element type
    (integer division and [mul.hi] have no SSE/AVX forms). *)
let vectorizable_binop op (elt : Ast.dtype) =
  match (op, Ast.is_float elt) with
  | (Ast.Div | Ast.Min | Ast.Max), true -> true
  | (Ast.Div | Ast.Rem | Ast.Mul_hi), false -> false
  | Ast.Rem, true -> false
  | _ -> true

let instr_vectorizable (i : Ir.instr) =
  match i with
  | Ir.Bin (op, ty, _, _, _) -> vectorizable_elt ty.Ty.elt && vectorizable_binop op ty.elt
  | Ir.Un (_, ty, _, _) -> vectorizable_elt ty.Ty.elt
  | Ir.Fma (ty, _, _, _, _) -> vectorizable_elt ty.Ty.elt
  | Ir.Cmp (_, ty, _, _, _) -> vectorizable_elt ty.Ty.elt
  | Ir.Select (ty, _, _, _, _) -> vectorizable_elt ty.Ty.elt
  | Ir.Mov (ty, _, _) -> vectorizable_elt ty.Ty.elt
  | Ir.Cvt (dt, st, _, _) -> vectorizable_elt dt.Ty.elt && vectorizable_elt st.Ty.elt
  | Ir.Load _ | Ir.Store _ | Ir.Atomic _ | Ir.Ctx_read _ -> false
  | _ -> false

let entry_label l id = l ^ ".entry" ^ string_of_int id

(** The uniformity classes a build of [scalar] under [plan] and a warp
    formation reads.  They do not depend on the width, so a caller that
    builds several widths of one kernel computes them once ({!classes})
    and passes them to each {!run}; each is computed on first use. *)
type classes = {
  static_warps : bool;  (** computed for [Static_tie] builds *)
  invariant : Affine.cls array Lazy.t;
      (** thread-invariant elimination's classes ([Static_tie] only) *)
  addresses : Affine.cls array Lazy.t;
      (** address classes for coalesced accesses ([affine], width > 1) *)
}

let classes ?(mode = Dynamic) ~(plan : Plan.t) (scalar : Ir.func) : classes =
  let slotted = List.map fst (Plan.slotted plan) in
  let static_warps = mode = Static_tie in
  {
    static_warps;
    (* Thread-invariance holds among threads sharing a path history, so
       a register with a spill slot stays per lane ({!Affine.invariant}). *)
    invariant = lazy (Affine.invariant ~slotted scalar);
    (* Registers live into entry points take their strong classes: their
       uniform component may differ per lane after warp reformation. *)
    addresses = lazy (Affine.classify ~static_warps ~slotted scalar);
  }

(** Build the [ws]-wide specialization of [scalar].  [classes], when
    given, must come from {!classes} for the same [scalar], [plan] and
    [mode]; without it they are computed for this build alone. *)
let run ?(mode = Dynamic) ?(affine = false) ?classes:cls ~(plan : Plan.t) (scalar : Ir.func)
    ~(ws : int) : vectorized =
  if ws < 1 then invalid_arg "Vectorize.run: ws must be >= 1";
  let b = Builder.create ~warp_size:ws (scalar.Ir.fname ^ ".w" ^ string_of_int ws) in
  let static = mode = Static_tie in
  let cls = match cls with Some c -> c | None -> classes ~mode ~plan scalar in
  if cls.static_warps <> static then
    invalid_arg "Vectorize.run: classes computed for the other warp formation";
  let uniform =
    if static then
      let inv = Lazy.force cls.invariant in
      fun r -> Affine.is_uniform inv.(r)
    else fun _ -> false
  in
  (* The realization of each scalar register, made on first use, so
     registers are numbered in the order the build meets them; [unset]
     marks one not made yet. *)
  let unset = Lanes [||] in
  let reps = Array.make scalar.Ir.nregs unset in
  let rep_of (r : Ir.vreg) : rep =
    let rep = reps.(r) in
    if rep != unset then rep
    else
      let ty = Ir.reg_ty scalar r in
      let rep =
        if uniform r then Uni (Builder.fresh_reg b ty)
        else if ws > 1 && vectorizable_elt ty.Ty.elt then
          Vec (Builder.fresh_reg b (Ty.vector ty.Ty.elt ws))
        else Lanes (Array.init ws (fun _ -> Builder.fresh_reg b ty))
      in
      reps.(r) <- rep;
      rep
  in
  (* Affine/uniform address classification for the coalesced-memory-access
     optimization (paper §4 future work), under this build's warp
     formation. *)
  let affine_cls = if affine && ws > 1 then Some (Lazy.force cls.addresses) else None in
  (* Per-block local refinement of the flow-insensitive classes: the
     translator reuses PTX registers heavily, so the global join is often
     Unknown while the reaching definition inside the current block is
     plainly affine.  [local_cls] tracks in-block definitions (reset at
     each body block); block-entry values fall back to the global table,
     which is reformation-safe by construction. *)
  let local_cls : Affine.cls Ir.Itbl.t = Ir.Itbl.create 16 in
  let reg_cls r =
    match Ir.Itbl.find_opt local_cls r with
    | Some c -> c
    | None -> (
        match affine_cls with
        | None -> Affine.Unknown
        | Some cls -> cls.(r))
  in
  let addr_cls (base : Ir.operand) : Affine.cls =
    match base with
    | Ir.Imm (Scalar_ops.I v, _) -> Affine.Const v
    | Ir.Imm _ -> Affine.Unknown
    | Ir.R r -> reg_cls r
  in
  let local_cls_update (i : Ir.instr) =
    if affine_cls <> None then
      let d = Ir.def i in
      if d >= 0 then
        Ir.Itbl.replace local_cls d (Affine.transfer ~static_warps:static ~get:reg_cls i)
  in
  (* Per-block broadcast memo: a Uni register used in a vector position is
     splat once per block. *)
  let bcast_memo : Ir.vreg Ir.Itbl.t = Ir.Itbl.create 16 in
  let vector_operand elt (o : Ir.operand) : Ir.operand =
    match o with
    | Ir.Imm _ -> o (* immediates splat implicitly *)
    | Ir.R r -> (
        match rep_of r with
        | Vec v -> Ir.R v
        | Uni u -> (
            match Ir.Itbl.find_opt bcast_memo u with
            | Some bc -> Ir.R bc
            | None ->
                let bc =
                  Builder.emit_val b (Ty.vector elt ws) (fun d ->
                      Ir.Broadcast (Ty.vector elt ws, d, Ir.R u))
                in
                Ir.Itbl.replace bcast_memo u bc;
                Ir.R bc)
        | Lanes _ ->
            invalid_arg
              (Fmt.str "vectorize: scalar-only register %%%d in vector position" r))
  in
  (* Lane [l]'s scalar value of an operand. *)
  let lane_operand l (o : Ir.operand) : Ir.operand =
    match o with
    | Ir.Imm _ -> o
    | Ir.R r -> (
        match rep_of r with
        | Lanes a -> Ir.R a.(l)
        | Uni u -> Ir.R u
        | Vec v ->
            let elt = (Ir.reg_ty scalar r).Ty.elt in
            Ir.R (Builder.emit_val b (Ty.scalar elt) (fun d -> Ir.Extract (elt, d, Ir.R v, l))))
  in
  (* Write lane [l] of destination [d] from a maker of scalar instrs. *)
  let define_lane (d : Ir.vreg) l (mk : Ir.vreg -> Ir.instr) =
    match rep_of d with
    | Lanes a -> Builder.emit b (mk a.(l))
    | Uni u ->
        (* Only lane 0 defines a uniform destination. *)
        if l = 0 then Builder.emit b (mk u)
    | Vec v ->
        let elt = (Ir.reg_ty scalar d).Ty.elt in
        let tmp = Builder.emit_val b (Ty.scalar elt) mk in
        Builder.emit b (Ir.Insert (Ty.vector elt ws, v, Ir.R v, l, Ir.R tmp))
  in
  (* Is every register operand available as a vector or uniform?  Lanes
     realizations force the scalar path. *)
  let operands_promotable ops =
    List.for_all
      (fun o ->
        match o with
        | Ir.Imm _ -> true
        | Ir.R r -> ( match rep_of r with Lanes _ -> false | Vec _ | Uni _ -> true))
      ops
  in
  let scalar_reg_elt r = (Ir.reg_ty scalar r).Ty.elt in
  (* Coalesced memory accesses (paper §4 future work, enabled by [affine]):
     - an address that is affine in tid.x with stride = element size touches
       contiguous memory across a consecutive-tid warp → one vector load or
       store (static warp formation only);
     - a warp-uniform address → one scalar load broadcast to all lanes, or,
       for stores, the last lane's value (sequential lane stores to one
       address leave exactly that).
     Returns true when it handled the instruction. *)
  let coalesce_memory (i : Ir.instr) : bool =
    if ws = 1 || affine_cls = None then false
    else
      match i with
      | Ir.Load (sp, ty, d, base, off) -> (
          match addr_cls base with
          | Affine.Affine s
            when static
                 && Int64.equal s (Int64.of_int (Ast.size_of ty))
                 && (match rep_of d with Vec _ -> true | _ -> false) ->
              let v = match rep_of d with Vec v -> v | _ -> assert false in
              Builder.emit b (Ir.Vload (sp, ty, v, lane_operand 0 base, off));
              true
          | Affine.Uniform | Affine.Const _ ->
              let s =
                Builder.emit_val b (Ty.scalar ty) (fun dd ->
                    Ir.Load (sp, ty, dd, lane_operand 0 base, off))
              in
              (match rep_of d with
              | Vec v -> Builder.emit b (Ir.Broadcast (Ty.vector ty ws, v, Ir.R s))
              | Lanes a ->
                  Array.iter
                    (fun r -> Builder.emit b (Ir.Mov (Ty.scalar ty, r, Ir.R s)))
                    a
              | Uni u -> Builder.emit b (Ir.Mov (Ty.scalar ty, u, Ir.R s)));
              true
          | _ -> false)
      | Ir.Store (sp, ty, base, off, v) -> (
          match addr_cls base with
          | Affine.Affine s
            when static && Int64.equal s (Int64.of_int (Ast.size_of ty)) -> (
              match v with
              | Ir.R r -> (
                  match rep_of r with
                  | Vec vv ->
                      Builder.emit b
                        (Ir.Vstore (sp, ty, lane_operand 0 base, off, Ir.R vv));
                      true
                  | _ -> false)
              | Ir.Imm _ ->
                  (* A scalar immediate is not a legal vector value operand:
                     splat it explicitly (the verifier rejects the shortcut). *)
                  let vv =
                    Builder.emit_val b (Ty.vector ty ws) (fun d ->
                        Ir.Broadcast (Ty.vector ty ws, d, v))
                  in
                  Builder.emit b (Ir.Vstore (sp, ty, lane_operand 0 base, off, Ir.R vv));
                  true)
          | Affine.Uniform | Affine.Const _ ->
              Builder.emit b
                (Ir.Store (sp, ty, lane_operand 0 base, off, lane_operand (ws - 1) v));
              true
          | _ -> false)
      | _ -> false
  in
  (* Algorithm 1: Vectorize(i, ws). *)
  let vectorize_instr (i : Ir.instr) =
    let dst = Ir.def i in
    (* An instruction is emitted once for the warp iff its destination is
       realized uniformly — which {!Affine.invariant} guarantees happens
       only when every definition (including this one) is uniform and has
       uniform register operands. *)
    let invariant =
      static && dst >= 0 && match rep_of dst with Uni _ -> true | _ -> false
    in
    let promote =
      (not invariant) && ws > 1 && instr_vectorizable i
      && dst >= 0
      && (match rep_of dst with Vec _ -> true | _ -> false)
      && operands_promotable
           (match i with
           | Ir.Bin (_, _, _, a, c) -> [ a; c ]
           | Ir.Un (_, _, _, a) -> [ a ]
           | Ir.Fma (_, _, a, c, e) -> [ a; c; e ]
           | Ir.Cmp (_, _, _, a, c) -> [ a; c ]
           | Ir.Select (_, _, c, a, e) -> [ c; a; e ]
           | Ir.Mov (_, _, a) -> [ a ]
           | Ir.Cvt (_, _, _, a) -> [ a ]
           | _ -> [])
    in
    if invariant then begin
      (* §6.2: emit the warp's single copy; operands are uniform or imm. *)
      let uni_operand (o : Ir.operand) =
        match o with
        | Ir.Imm _ -> o
        | Ir.R r -> (
            match rep_of r with
            | Uni u -> Ir.R u
            | _ -> invalid_arg "vectorize: variant operand in invariant instruction")
      in
      let u = match rep_of dst with Uni u -> u | _ -> assert false in
      Builder.emit b (Ir.with_def u (Ir.map_operands uni_operand i));
      (* Non-SSA: a redefinition invalidates any memoized splat of the old
         value within this block. *)
      Ir.Itbl.remove bcast_memo u
    end
    else if promote then begin
      let v = match rep_of dst with Vec v -> v | _ -> assert false in
      let widen (t : Ty.t) = Ty.vector t.Ty.elt ws in
      let vec_i =
        match i with
        | Ir.Bin (op, ty, _, a, c) ->
            Ir.Bin (op, widen ty, v, vector_operand ty.elt a, vector_operand ty.elt c)
        | Ir.Un (op, ty, _, a) -> Ir.Un (op, widen ty, v, vector_operand ty.elt a)
        | Ir.Fma (ty, _, a, c, e) ->
            Ir.Fma
              ( widen ty,
                v,
                vector_operand ty.elt a,
                vector_operand ty.elt c,
                vector_operand ty.elt e )
        | Ir.Cmp (op, ty, _, a, c) ->
            Ir.Cmp (op, widen ty, v, vector_operand ty.elt a, vector_operand ty.elt c)
        | Ir.Select (ty, _, c, a, e) ->
            Ir.Select
              ( widen ty,
                v,
                vector_operand Ast.Pred c,
                vector_operand ty.elt a,
                vector_operand ty.elt e )
        | Ir.Mov (ty, _, a) -> Ir.Mov (widen ty, v, vector_operand ty.elt a)
        | Ir.Cvt (dt, st, _, a) -> Ir.Cvt (widen dt, widen st, v, vector_operand st.elt a)
        | _ -> assert false
      in
      Builder.emit b vec_i
    end
    else if coalesce_memory i then ()
    else begin
      (* Replicate per lane, packing/unpacking at vector boundaries. *)
      for l = 0 to ws - 1 do
        match i with
        | Ir.Ctx_read (d, Ir.Warp_width, _) ->
            define_lane d l (fun dd ->
                Ir.Mov (Ty.scalar Ast.U32, dd, Ir.Imm (Scalar_ops.I (Int64.of_int ws), Ast.U32)))
        | Ir.Ctx_read (d, Ir.Tid Ast.X, _) when static ->
            (* Static warp formation: lane l's tid.x = lane 0's + l. *)
            if l = 0 then define_lane d 0 (fun dd -> Ir.Ctx_read (dd, Ir.Tid Ast.X, 0))
            else
              define_lane d l (fun dd ->
                  let base = lane_operand 0 (Ir.R d) in
                  Ir.Bin
                    ( Ast.Add,
                      Ty.scalar (scalar_reg_elt d),
                      dd,
                      base,
                      Ir.Imm (Scalar_ops.I (Int64.of_int l), scalar_reg_elt d) ))
        | Ir.Ctx_read (d, field, _) ->
            define_lane d l (fun dd -> Ir.Ctx_read (dd, field, l))
        | Ir.Load (sp, ty, d, base, off) ->
            let base = lane_operand l base in
            define_lane d l (fun dd -> Ir.Load (sp, ty, dd, base, off))
        | Ir.Store (sp, ty, base, off, v) ->
            let base = lane_operand l base in
            let v = lane_operand l v in
            Builder.emit b (Ir.Store (sp, ty, base, off, v))
        | Ir.Atomic (sp, op, ty, d, base, off, v, c) ->
            let base = lane_operand l base in
            let v = lane_operand l v in
            let c = Option.map (lane_operand l) c in
            define_lane d l (fun dd -> Ir.Atomic (sp, op, ty, dd, base, off, v, c))
        | _ ->
            let i' = Ir.map_operands (lane_operand l) i in
            if dst >= 0 then define_lane dst l (fun dd -> Ir.with_def dd i')
            else Builder.emit b i'
      done
    end
  in
  (* --- Algorithm 3: scheduler --- *)
  let sched = Builder.start_block ~kind:Ir.Scheduler b "$scheduler" in
  ignore sched;
  let eid = Builder.emit_val b (Ty.scalar Ast.S32) (fun d -> Ir.Ctx_read (d, Ir.Entry_id, 0)) in
  (* Cases filled in after entry handlers exist. *)
  let entry_cases =
    List.map (fun (l, id) -> (id, entry_label l id)) plan.Plan.entry_ids
  in
  Builder.set_term b
    (Ir.Switch (Ir.R eid, entry_cases, entry_label scalar.Ir.entry 0));
  (* A register with a spill slot is never [Uni]: values that cross a
     yield stay per lane. *)
  let slotted_uniform r =
    invalid_arg (Fmt.str "vectorize: slotted register %%%d realized uniformly" r)
  in
  (* --- Entry handlers --- *)
  let restores_per_entry = ref [] in
  List.iter
    (fun (l, id) ->
      ignore (Builder.start_block ~kind:Ir.Entry_handler b (entry_label l id));
      Ir.Itbl.reset bcast_memo;
      let live = Plan.entry_live_bits plan l in
      restores_per_entry := (id, Liveness.Bits.cardinal live) :: !restores_per_entry;
      Liveness.Bits.iter
        (fun r ->
          let slot =
            match Plan.slot plan r with
            | Some s -> s
            | None -> invalid_arg (Fmt.str "no spill slot for live-in %%%d" r)
          in
          let elt = scalar_reg_elt r in
          match rep_of r with
          | Lanes a ->
              Array.iteri
                (fun lane dst -> Builder.emit b (Ir.Restore (dst, lane, slot, elt)))
                a
          | Uni _ -> slotted_uniform r
          | Vec v ->
              for lane = 0 to ws - 1 do
                let tmp =
                  Builder.emit_val b (Ty.scalar elt) (fun d ->
                      Ir.Restore (d, lane, slot, elt))
                in
                Builder.emit b (Ir.Insert (Ty.vector elt ws, v, Ir.R v, lane, Ir.R tmp))
              done)
        live;
      Builder.set_term b (Ir.Jump l))
    plan.Plan.entry_ids;
  (* --- Exit-handler emission (Algorithm 4) --- *)
  let spill_regs live =
    Liveness.Bits.iter
      (fun r ->
        match Plan.slot plan r with
        | None -> ()
        | Some slot ->
            let elt = scalar_reg_elt r in
            (match rep_of r with
            | Lanes a ->
                Array.iteri
                  (fun lane src -> Builder.emit b (Ir.Spill (lane, slot, elt, Ir.R src)))
                  a
            | Uni _ -> slotted_uniform r
            | Vec v ->
                for lane = 0 to ws - 1 do
                  Builder.emit b (Ir.Spill (lane, slot, elt, Ir.R v))
                done))
      live
  in
  (* --- Bodies --- *)
  List.iter
    (fun (blk : Ir.block) -> ignore (Builder.start_block ~kind:Ir.Body b blk.Ir.label))
    (Ir.blocks scalar);
  List.iter
    (fun (blk : Ir.block) ->
      Builder.switch_to b blk.Ir.label;
      Ir.Itbl.reset bcast_memo;
      Ir.Itbl.reset local_cls;
      List.iter
        (fun ({ Ir.i; line } : Ir.li) ->
          (* Every replica/pack/unpack of a scalar instruction inherits its
             source line. *)
          Builder.set_line b line;
          vectorize_instr i;
          local_cls_update i)
        blk.Ir.insts;
      (* Divergence checks, spills and resume bookkeeping are scheduler
         overhead, not source code: attribute them to line 0. *)
      Builder.set_line b 0;
      match blk.Ir.term with
      | Ir.Jump l -> Builder.set_term b (Ir.Jump l)
      | Ir.Switch _ -> invalid_arg "vectorize: switch in scalar input"
      | Ir.Branch (cond, taken, ft) -> (
          let id_taken =
            match Plan.id_of_label plan taken with
            | Some id -> id
            | None -> invalid_arg "branch target is not an entry point"
          in
          let id_ft =
            match Plan.id_of_label plan ft with
            | Some id -> id
            | None -> invalid_arg "branch fall-through is not an entry point"
          in
          let cond_rep =
            match cond with
            | Ir.R r -> Some (rep_of r)
            | Ir.Imm _ -> None
          in
          match (cond_rep, cond) with
          | None, cond ->
              (* Constant condition: a uniform jump.  (cond_rep is None only
                 for immediates.) *)
              let v = match cond with Ir.Imm (v, _) -> v | _ -> assert false in
              Builder.set_term b
                (Ir.Jump (if Scalar_ops.to_bool v then taken else ft))
          | Some (Uni u), _ ->
              (* Thread-invariant condition: provably convergent branch. *)
              Builder.set_term b (Ir.Branch (Ir.R u, taken, ft))
          | Some crep, _ ->
              let sum =
                match crep with
                | Vec v ->
                    Builder.emit_val b (Ty.scalar Ast.S32) (fun d ->
                        Ir.Reduce_add (d, Ir.R v))
                | Lanes a ->
                    (* per-lane predicates (ws=1 or non-vectorizable): sum
                       them as integers *)
                    let acc =
                      Builder.emit_val b (Ty.scalar Ast.S32) (fun d ->
                          Ir.Reduce_add (d, Ir.R a.(0)))
                    in
                    Array.fold_left
                      (fun acc p ->
                        let pi =
                          Builder.emit_val b (Ty.scalar Ast.S32) (fun d ->
                              Ir.Reduce_add (d, Ir.R p))
                        in
                        Builder.emit_val b (Ty.scalar Ast.S32) (fun d ->
                            Ir.Bin (Ast.Add, Ty.scalar Ast.S32, d, Ir.R acc, Ir.R pi)))
                      acc
                      (Array.sub a 1 (Array.length a - 1))
                | Uni _ -> assert false
              in
              let exit_l = blk.Ir.label ^ ".exit" in
              Builder.set_term b
                (Ir.Switch (Ir.R sum, [ (0, ft); (ws, taken) ], exit_l));
              (* Exit handler: spill live-outs, per-lane resume points. *)
              ignore (Builder.start_block ~kind:Ir.Exit_handler b exit_l);
              spill_regs (Liveness.live_out_bits plan.Plan.live blk.Ir.label);
              for lane = 0 to ws - 1 do
                let p_lane = lane_operand lane cond in
                let rid =
                  Builder.emit_val b (Ty.scalar Ast.S32) (fun d ->
                      Ir.Select
                        ( Ty.scalar Ast.S32,
                          d,
                          p_lane,
                          Ir.Imm (Scalar_ops.I (Int64.of_int id_taken), Ast.S32),
                          Ir.Imm (Scalar_ops.I (Int64.of_int id_ft), Ast.S32) ))
                in
                Builder.emit b (Ir.Set_resume (lane, Ir.R rid))
              done;
              Builder.emit b (Ir.Set_status Ir.Status_branch);
              Builder.set_term b Ir.Return)
      | Ir.Barrier l ->
          let id_l =
            match Plan.id_of_label plan l with
            | Some id -> id
            | None -> invalid_arg "barrier continuation is not an entry point"
          in
          let exit_l = blk.Ir.label ^ ".barexit" in
          Builder.set_term b (Ir.Jump exit_l);
          ignore (Builder.start_block ~kind:Ir.Exit_handler b exit_l);
          spill_regs (Liveness.live_out_bits plan.Plan.live blk.Ir.label);
          for lane = 0 to ws - 1 do
            Builder.emit b
              (Ir.Set_resume (lane, Ir.Imm (Scalar_ops.I (Int64.of_int id_l), Ast.S32)))
          done;
          Builder.emit b (Ir.Set_status Ir.Status_barrier);
          Builder.set_term b Ir.Return
      | Ir.Return ->
          let exit_l = blk.Ir.label ^ ".exitterm" in
          Builder.set_term b (Ir.Jump exit_l);
          ignore (Builder.start_block ~kind:Ir.Exit_handler b exit_l);
          Builder.emit b (Ir.Set_status Ir.Status_exit);
          Builder.set_term b Ir.Return)
    (Ir.blocks scalar);
  let func = Builder.func b in
  {
    func;
    mode;
    entry_ids = plan.Plan.entry_ids;
    restores_per_entry = List.rev !restores_per_entry;
  }
