(** Thread-invariance analysis (paper §6.2).

    A value is {e thread-invariant} when every thread of a warp executing
    the same path computes the same value: constants, kernel parameters,
    grid/block dimensions, the CTA index (warps never span CTAs), and pure
    functions of invariant values.  Anything derived from the thread index,
    the lane number, thread-local memory or data loaded from mutable
    address spaces is {e variant}.

    The analysis is flow-insensitive over the non-SSA registers (a register
    is variant if {e any} of its definitions is variant), which is the
    conservative direction. *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty


module ISet = Set.Make (Int)

(** Inherent variance of an instruction, ignoring its register operands:
    [`Variant] taints the destination, [`Invariant] leaves the decision to
    the operands.

    Under {e static warp formation} ([static_warps = true]) warps are
    consecutive [tid.x] threads of one CTA row, so [tid.y]/[tid.z] are
    warp-uniform and only [tid.x], the lane index and the thread-local base
    remain variant. *)
let inherent ?(static_warps = false) = function
  | Ir.Ctx_read (_, (Tid Vekt_ptx.Ast.X | Lane | Local_base), _) -> `Variant
  | Ir.Ctx_read (_, Tid (Vekt_ptx.Ast.Y | Vekt_ptx.Ast.Z), _) -> if static_warps then `Invariant else `Variant
  | Ir.Ctx_read (_, (Ntid _ | Nctaid _ | Ctaid _ | Warp_width | Entry_id), _) ->
      `Invariant
  | Ir.Load (sp, _, _, _, _) -> (
      match sp with
      | Vekt_ptx.Ast.Param | Vekt_ptx.Ast.Const -> `Invariant
      | Vekt_ptx.Ast.Global | Vekt_ptx.Ast.Shared | Vekt_ptx.Ast.Local -> `Variant)
  | Ir.Atomic _ -> `Variant
  | Ir.Restore _ -> `Variant
  | _ -> `Invariant

(** Registers that may hold thread-variant values anywhere in [f].
    [seed] adds registers the caller knows to be variant for reasons
    outside the dataflow (e.g. values restored per-lane at entry points);
    their taint propagates through the fixpoint. *)
let variant_regs ?(static_warps = false) ?(seed = ISet.empty) (f : Ir.func) : ISet.t =
  let variant = ref seed in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        List.iter
          (fun { Ir.i; _ } ->
            match Ir.def i with
            | None -> ()
            | Some d ->
                if not (ISet.mem d !variant) then
                  let tainted =
                    inherent ~static_warps i = `Variant
                    || List.exists (fun r -> ISet.mem r !variant) (Ir.uses i)
                  in
                  if tainted then begin
                    variant := ISet.add d !variant;
                    changed := true
                  end)
          b.Ir.insts)
      (Ir.blocks f)
  done;
  !variant

(** An instruction is thread-invariant when it computes the same value in
    every lane: pure, inherently invariant, and all register operands
    invariant. *)
let instr_invariant ?(static_warps = false) variants i =
  Ir.is_pure i
  && inherent ~static_warps i = `Invariant
  && List.for_all (fun r -> not (ISet.mem r variants)) (Ir.uses i)

(** Fraction of instructions in [f] that are thread-invariant — comparable
    to the ~15% of PTX operands Collange et al. report (paper §6.2).
    [static_warps] counts under consecutive-tid warps, as {!variant_regs}. *)
let invariant_fraction ?static_warps (f : Ir.func) : float =
  let variants = variant_regs ?static_warps f in
  let total = ref 0 and inv = ref 0 in
  List.iter
    (fun b ->
      List.iter
        (fun { Ir.i; _ } ->
          incr total;
          if instr_invariant ?static_warps variants i then incr inv)
        b.Ir.insts)
    (Ir.blocks f);
  if !total = 0 then 0.0 else float_of_int !inv /. float_of_int !total

(** Uniform-branch detection: a conditional branch whose condition is
    thread-invariant can never diverge. *)
let uniform_branches (f : Ir.func) : string list =
  let variants = variant_regs f in
  List.filter_map
    (fun b ->
      match b.Ir.term with
      | Ir.Branch (Ir.R r, _, _) when not (ISet.mem r variants) -> Some b.Ir.label
      | Ir.Branch (Ir.Imm _, _, _) -> Some b.Ir.label
      | _ -> None)
    (Ir.blocks f)
