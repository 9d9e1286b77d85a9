(** Affine address analysis (the paper's §4 future-work optimization,
    after Collange et al.'s uniform/affine detection).

    Classifies each register as an affine function of the thread index:

      [Const c]   — the compile-time constant [c]
      [Uniform]   — the same (unknown) value in every thread of a warp
      [Affine s]  — [uniform + s * tid.x]
      [Unknown]   — anything else

    When warps are formed of consecutive [tid.x] threads (static warp
    formation), a load whose address is [Affine s] with [s] equal to the
    element size touches contiguous memory across the warp and can become
    a single vector load.

    Like {!Invariance}, the analysis is a flow-insensitive fixpoint over
    the non-SSA registers: a register's class is the join of all its
    definitions. *)

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
  | Uniform, Const _ -> Uniform
  | _ -> Unknown

(** Abstract transfer function: the class an instruction's destination
    takes given a lookup for its register operands. *)
let transfer ~(get : Ir.vreg -> cls) (i : Ir.instr) : cls =
  let of_operand = function
    | Ir.Imm (Vekt_ptx.Scalar_ops.I v, _) -> Const v
    | Ir.Imm (Vekt_ptx.Scalar_ops.F _, _) -> Uniform
    | Ir.R r -> get r
  in
  match i with
  | Ir.Ctx_read (_, Ir.Tid A.X, _) -> Affine 1L
  | Ir.Ctx_read
      ( _,
        (Ir.Ntid _ | Ir.Nctaid _ | Ir.Ctaid _ | Ir.Warp_width | Ir.Entry_id
        | Ir.Tid (A.Y | A.Z)),
        _ ) ->
      Uniform
  | Ir.Ctx_read (_, (Ir.Lane | Ir.Local_base), _) -> Unknown
  | Ir.Load ((A.Param | A.Const), _, _, base, _) -> (
      match of_operand base with Const _ | Uniform -> Uniform | _ -> Unknown)
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

(** Class of each register in [f].

    Widening integer conversions preserve the affine form (addresses are
    built by [cvt.u64.u32] of small indices; a kernel whose index
    arithmetic wraps 32 bits is out of scope, like the paper's). *)
let fixpoint ?(clamp = Hashtbl.create 0) ?(multi_def_unknown = false) (f : Ir.func) :
    (Ir.vreg, cls) Hashtbl.t =
  let cls : (Ir.vreg, cls) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter (fun r c -> Hashtbl.replace cls r c) clamp;
  let def_count = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun { Ir.i; _ } ->
          match Ir.def i with
          | Some d ->
              Hashtbl.replace def_count d
                (Option.value (Hashtbl.find_opt def_count d) ~default:0 + 1)
          | None -> ())
        b.Ir.insts)
    (Ir.blocks f);
  let fixed r =
    Hashtbl.mem clamp r
    || (multi_def_unknown
       && Option.value (Hashtbl.find_opt def_count r) ~default:0 > 1)
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun { Ir.i; _ } ->
          match Ir.def i with
          | Some d when multi_def_unknown && fixed d && not (Hashtbl.mem clamp d) ->
              Hashtbl.replace cls d Unknown
          | _ -> ())
        b.Ir.insts)
    (Ir.blocks f);
  (* bottom for registers that have definitions; a register with no
     definition anywhere reads its initial zero *)
  let get r =
    match Hashtbl.find_opt cls r with
    | Some c -> c
    | None ->
        if Option.value (Hashtbl.find_opt def_count r) ~default:0 > 0 then Bot
        else Const 0L
  in
  (* Start from bottom ([Const 0], the value of an uninitialized register)
     and iterate joins to a fixpoint. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun { Ir.i; _ } ->
            match Ir.def i with
            | None -> ()
            | Some d ->
                let v = transfer ~get i in
                if not (fixed d) then begin
                  let joined = join (get d) v in
                  if not (equal_cls joined (get d)) then begin
                    Hashtbl.replace cls d joined;
                    changed := true
                  end
                end)
          b.Ir.insts)
      (Ir.blocks f)
  done;
  cls

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
let classify ?(slotted = []) (f : Ir.func) : (Ir.vreg, cls) Hashtbl.t =
  let strong = fixpoint ~multi_def_unknown:true f in
  let clamp = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace clamp r
        (Option.value (Hashtbl.find_opt strong r) ~default:Unknown))
    slotted;
  fixpoint ~clamp f
