(** Uniformity analysis: the one place that decides whether a value holds
    the same in every lane of a warp.  It serves thread-invariant
    elimination (paper §6.2) and the affine coalescing of the paper's §4
    future work, after Collange et al.'s uniform/affine detection.

    Classifies each register as an affine function of the thread index:

      [Const c]   — the compile-time constant [c]
      [Uniform]   — the same (unknown) value in every thread of a warp
      [Affine s]  — [uniform + s * tid.x]
      [Unknown]   — anything else

    Warps never span CTAs, so constants, parameters, grid and block
    dimensions and the CTA index are uniform under any warp formation.
    [tid.y]/[tid.z] are uniform only under {e static warp formation}
    ([static_warps]), whose warps are consecutive [tid.x] threads of one
    row; dynamic formation packs threads of different rows into one warp.
    Under static formation, a load whose address is [Affine s] with [s]
    equal to the element size touches contiguous memory across the warp
    and can become a single vector load.

    The analysis is a flow-insensitive fixpoint over the non-SSA
    registers: a register's class is the join of all its definitions.
    Index arithmetic is assumed not to wrap across a widening [cvt], so a
    thread term that cancels ([x - x], a shift past the width) leaves a
    uniform value, though its operands are per lane; {!invariant}, which
    decides what a warp computes once, keeps such a value per lane. *)

module Ir = Vekt_ir.Ir
module A = Vekt_ptx.Ast

type cls =
  | Bot  (** no definition seen yet (fixpoint bottom) *)
  | Const of int64
  | Uniform
  | Affine of int64
  | Unknown

let pp_cls fmt = function
  | Bot -> Fmt.string fmt "bot"
  | Const c -> Fmt.pf fmt "const %Ld" c
  | Uniform -> Fmt.string fmt "uniform"
  | Affine s -> Fmt.pf fmt "affine(+%Ld*tid)" s
  | Unknown -> Fmt.string fmt "unknown"

let equal_cls a b =
  match (a, b) with
  | Bot, Bot -> true
  | Const x, Const y -> Int64.equal x y
  | Uniform, Uniform | Unknown, Unknown -> true
  | Affine x, Affine y -> Int64.equal x y
  | _ -> false

(** Lattice join for merging multiple definitions of one register. *)
let join a b =
  match (a, b) with
  | x, y when equal_cls x y -> x
  | Bot, x | x, Bot -> x
  | Const _, Const _ -> Uniform
  | (Const _ | Uniform), (Const _ | Uniform) -> Uniform
  | _ -> Unknown

let add_cls a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Const x, Const y -> Const (Int64.add x y)
  | (Const _ | Uniform), (Const _ | Uniform) -> Uniform
  | Affine s, (Const _ | Uniform) | (Const _ | Uniform), Affine s -> Affine s
  | Affine x, Affine y -> Affine (Int64.add x y)
  | _ -> Unknown

let sub_cls a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Const x, Const y -> Const (Int64.sub x y)
  | (Const _ | Uniform), (Const _ | Uniform) -> Uniform
  | Affine s, (Const _ | Uniform) -> Affine s
  | (Const _ | Uniform), Affine s -> Affine (Int64.neg s)
  | Affine x, Affine y when Int64.equal x y -> Uniform
  | _ -> Unknown

let mul_cls a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Const x, Const y -> Const (Int64.mul x y)
  | Const c, Affine s | Affine s, Const c -> Affine (Int64.mul c s)
  | (Const _ | Uniform), (Const _ | Uniform) -> Uniform
  | _ -> Unknown

(** [bits] is the width of the shifted type: the in-range bound must match
    {!Vekt_ptx.Scalar_ops}' total-shift semantics (amount >= width yields
    0), and a 32-bit cap on 64-bit shifts would drop the [cvt.u64.u32] +
    [shl.b64] address idiom to [Unknown]. *)
let shl_cls ~bits a b =
  let in_range y = y >= 0L && y < Int64.of_int bits in
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Const x, Const y when in_range y -> Const (Int64.shift_left x (Int64.to_int y))
  | (Const _ | Uniform | Affine _), Const y when y >= Int64.of_int bits && y >= 0L ->
      (* total shift: every lane's value is exactly 0 *)
      Const 0L
  | Affine s, Const y when in_range y -> Affine (Int64.shift_left s (Int64.to_int y))
  | (Const _ | Uniform), (Const _ | Uniform) -> Uniform
  | _ -> Unknown

(** Abstract transfer function: the class an instruction's destination
    takes given a lookup for its register operands. *)
let transfer ~static_warps ~(get : Ir.vreg -> cls) (i : Ir.instr) : cls =
  let of_operand = function
    | Ir.Imm (Vekt_ptx.Scalar_ops.I v, _) -> Const v
    | Ir.Imm (Vekt_ptx.Scalar_ops.F _, _) -> Uniform
    | Ir.R r -> get r
  in
  match i with
  | Ir.Ctx_read (_, Ir.Tid A.X, _) -> Affine 1L
  | Ir.Ctx_read (_, Ir.Tid (A.Y | A.Z), _) -> if static_warps then Uniform else Unknown
  | Ir.Ctx_read (_, (Ir.Ntid _ | Ir.Nctaid _ | Ir.Ctaid _ | Ir.Warp_width | Ir.Entry_id), _)
    ->
      Uniform
  | Ir.Ctx_read (_, (Ir.Lane | Ir.Local_base), _) -> Unknown
  | Ir.Load ((A.Param | A.Const), _, _, base, _) -> (
      match of_operand base with Bot -> Bot | Const _ | Uniform -> Uniform | _ -> Unknown)
  | Ir.Bin (A.Add, _, _, a, b2) -> add_cls (of_operand a) (of_operand b2)
  | Ir.Bin (A.Sub, _, _, a, b2) -> sub_cls (of_operand a) (of_operand b2)
  | Ir.Bin (A.Mul_lo, _, _, a, b2) -> mul_cls (of_operand a) (of_operand b2)
  | Ir.Bin (A.Shl, ty, _, a, b2) ->
      shl_cls ~bits:(8 * A.size_of ty.Vekt_ir.Ty.elt) (of_operand a) (of_operand b2)
  | Ir.Fma (_, _, a, b2, c) ->
      add_cls (mul_cls (of_operand a) (of_operand b2)) (of_operand c)
  | Ir.Mov (_, _, a) -> of_operand a
  | Ir.Cvt (dt, st, _, a)
    when A.is_integer dt.Vekt_ir.Ty.elt
         && A.is_integer st.Vekt_ir.Ty.elt
         && A.size_of dt.elt >= A.size_of st.elt ->
      of_operand a
  | i'
    when Ir.is_pure i' && (match i' with Ir.Restore _ -> false | _ -> true) -> (
      (* any pure function of uniform inputs is uniform *)
      let ops = List.map of_operand (List.map (fun r -> Ir.R r) (Ir.uses i')) in
      if List.exists (fun c -> c = Bot) ops then Bot
      else if List.for_all (function Const _ | Uniform -> true | _ -> false) ops then
        Uniform
      else Unknown)
  | _ -> Unknown

(** Class of each register of [f] under [transfer], indexed by register.
    A register without a definition reads its initial zero.  [clamp]
    fixes the classes of the given registers; under [multi_def_unknown]
    every multiply-defined register is fixed at [Unknown].

    Widening integer conversions preserve the affine form (addresses are
    built by [cvt.u64.u32] of small indices; a kernel whose index
    arithmetic wraps 32 bits is out of scope, like the paper's). *)
let solve ~transfer ?(clamp = []) ?(multi_def_unknown = false) (f : Ir.func) : cls array =
  let defs = Array.make f.Ir.nregs 0 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun { Ir.i; _ } ->
          let d = Ir.def i in
          if d >= 0 then defs.(d) <- defs.(d) + 1)
        b.Ir.insts)
    (Ir.blocks f);
  let fixed = Array.map (fun n -> multi_def_unknown && n > 1) defs in
  let cls =
    Array.mapi (fun r n -> if fixed.(r) then Unknown else if n = 0 then Const 0L else Bot) defs
  in
  List.iter
    (fun (r, c) ->
      cls.(r) <- c;
      fixed.(r) <- true)
    clamp;
  let get = Array.get cls in
  let iterate () =
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun { Ir.i; _ } ->
              let d = Ir.def i in
              if d >= 0 && not fixed.(d) then
                match cls.(d) with
                | Unknown -> () (* the top class: no definition can raise it *)
                | cur ->
                    let joined = join cur (transfer ~get i) in
                    if not (equal_cls joined cur) then begin
                      cls.(d) <- joined;
                      changed := true
                    end)
            b.Ir.insts)
        (Ir.blocks f)
    done
  in
  iterate ();
  (* A register still at bottom is defined only from registers read
     before their definition (say [r = r + 1]), so it also holds its
     initial zero.  That is a second definition: the weak pass joins in
     [Const 0], the strong pass makes the register [Unknown]. *)
  if Array.exists (fun c -> c = Bot) cls then begin
    Array.iteri
      (fun r c -> if c = Bot then cls.(r) <- (if multi_def_unknown then Unknown else Const 0L))
      cls;
    iterate ()
  end;
  cls

(** {!solve} under this module's transfer function and a warp formation. *)
let fixpoint ~static_warps = solve ~transfer:(transfer ~static_warps)

(** Classification that is sound in the presence of yield-on-diverge warp
    reformation.

    A register live into an entry point ("slotted") is restored per lane
    after reformation; lanes may have reached the entry along different
    paths, so such a value is trustworthy only if it is a fixed function of
    CTA-stable inputs — which a flow-insensitive analysis can guarantee
    only for chains of {e single-definition} registers.  We therefore run
    a strong pass in which every multiply-defined register is [Unknown],
    clamp the slotted registers to their strong classes, and re-run the
    ordinary (weak) fixpoint for everything else: within one region all
    lanes share their post-entry history, so the weak classes are valid at
    use sites there. *)
let classify ~static_warps ?(slotted = []) (f : Ir.func) : cls array =
  let strong = fixpoint ~static_warps ~multi_def_unknown:true f in
  fixpoint ~static_warps ~clamp:(List.map (fun r -> (r, strong.(r))) slotted) f

(** [Const] and [Uniform] values hold the same in every lane of a warp. *)
let is_uniform = function Const _ | Uniform -> true | Bot | Affine _ | Unknown -> false

(** Classes for thread-invariant elimination (paper §6.2), which needs
    static warps: the weak fixpoint with every [slotted] register clamped
    to [Unknown].  A value live into an entry point can reach it along
    different paths in different lanes after warp reformation, so it
    stays per lane; only values produced and consumed between yields may
    be computed once per warp.

    The warp's one copy of a value is computed from the one copies of its
    operands, so a value is uniform here only if its register operands
    are too.  A thread term that cancels ([x - x], a shift past the
    width) therefore stays per lane: its operands have no one copy. *)
let invariant ~slotted (f : Ir.func) : cls array =
  let transfer ~get i =
    match transfer ~static_warps:true ~get i with
    | (Const _ | Uniform) as c ->
        let ops = List.map get (Ir.uses i) in
        if List.mem Bot ops then Bot else if List.for_all is_uniform ops then c else Unknown
    | c -> c
  in
  solve ~transfer ~clamp:(List.map (fun r -> (r, Unknown)) slotted) f

(** Fraction of the instructions of [f] that compute a uniform value —
    comparable to the ~15% of PTX operands Collange et al. report (paper
    §6.2). *)
let invariant_fraction ~static_warps (f : Ir.func) : float =
  let get = Array.get (fixpoint ~static_warps f) in
  let total = ref 0 and inv = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun { Ir.i; _ } ->
          incr total;
          if Ir.is_pure i && is_uniform (transfer ~static_warps ~get i) then incr inv)
        b.Ir.insts)
    (Ir.blocks f);
  if !total = 0 then 0.0 else float_of_int !inv /. float_of_int !total

(** Labels of the blocks whose conditional branch can never diverge under
    any warp formation: its condition is uniform. *)
let uniform_branches (f : Ir.func) : string list =
  let get = Array.get (fixpoint ~static_warps:false f) in
  List.filter_map
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.Branch (Ir.R r, _, _) when is_uniform (get r) -> Some b.Ir.label
      | Ir.Branch (Ir.Imm _, _, _) -> Some b.Ir.label
      | _ -> None)
    (Ir.blocks f)
