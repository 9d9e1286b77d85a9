(** Constant folding and local constant propagation.

    Within each block, registers holding known scalar constants are
    substituted into operand positions, pure instructions with all-constant
    operands are evaluated with the shared {!Vekt_ptx.Scalar_ops} semantics
    (so folding can never change results), and constant branch/switch
    terminators are collapsed to jumps.

    Vector-typed operations fold too when their operands are (splat)
    constants — the result is a splat immediate, which the interpreter and
    verifier both accept in vector positions. *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty
open Vekt_ptx

(** [substituted] counts register operands rewritten to their constant. *)
type stats = { folded : int; substituted : int; branches_folded : int }

let eval_pure (i : Ir.instr) : (Scalar_ops.value * Ast.dtype) option =
  let imm = function Ir.Imm (v, ty) -> Some (v, ty) | Ir.R _ -> None in
  match i with
  | Ir.Bin (op, ty, _, a, b) -> (
      match (imm a, imm b) with
      | Some (x, _), Some (y, _) -> (
          try Some (Scalar_ops.binop op ty.Ty.elt x y, ty.Ty.elt)
          with Scalar_ops.Unsupported _ -> None)
      | _ -> None)
  | Ir.Un (op, ty, _, a) -> (
      match imm a with
      | Some (x, _) -> (
          try Some (Scalar_ops.unop op ty.Ty.elt x, ty.Ty.elt)
          with Scalar_ops.Unsupported _ -> None)
      | None -> None)
  | Ir.Fma (ty, _, a, b, c) -> (
      match (imm a, imm b, imm c) with
      | Some (x, _), Some (y, _), Some (z, _) ->
          Some (Scalar_ops.mad ty.Ty.elt x y z, ty.Ty.elt)
      | _ -> None)
  | Ir.Cmp (op, ty, _, a, b) -> (
      match (imm a, imm b) with
      | Some (x, _), Some (y, _) ->
          Some (Scalar_ops.of_bool (Scalar_ops.cmp op ty.Ty.elt x y), Ast.Pred)
      | _ -> None)
  | Ir.Select (ty, _, c, a, b) -> (
      match (imm c, imm a, imm b) with
      | Some (cv, _), Some (x, _), Some (y, _) ->
          Some ((if Scalar_ops.to_bool cv then x else y), ty.Ty.elt)
      | _ -> None)
  | Ir.Cvt (dt, st, _, a) -> (
      match imm a with
      | Some (x, _) -> Some (Scalar_ops.cvt ~dst:dt.Ty.elt ~src:st.Ty.elt x, dt.Ty.elt)
      | None -> None)
  | Ir.Mov (ty, _, a) -> (
      match imm a with Some (x, _) -> Some (x, ty.Ty.elt) | None -> None)
  | _ -> None

let run (f : Ir.func) : stats =
  let folded = ref 0 and substituted = ref 0 and branches_folded = ref 0 in
  (* register -> known constant, in dense tables: [known.(r) = gen] while
     the current block (generation [gen]) holds [r]'s constant, so a
     redefinition invalidates it and the next block starts empty *)
  let known = Array.make f.Ir.nregs 0 in
  let cval = Array.make f.Ir.nregs (Scalar_ops.I 0L) in
  let cty = Array.make f.Ir.nregs Ast.Pred in
  let gen = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      incr gen;
      let gen = !gen in
      let subst o =
        match o with
        | Ir.R r when known.(r) = gen && (Ir.reg_ty f r).Ty.width = 1 ->
            Ir.Imm (cval.(r), cty.(r))
        | Ir.R _ | Ir.Imm _ -> o
      in
      let subst_counted o =
        let o' = subst o in
        if o' != o then incr substituted;
        o'
      in
      b.Ir.insts <-
        List.map
          (fun (li : Ir.li) ->
            let i = Ir.map_operands subst_counted li.Ir.i in
            let d = Ir.def i in
            if d < 0 then { li with Ir.i }
            else begin
              known.(d) <- 0;
              match eval_pure i with
              | Some (v, vty) when Ir.is_pure i ->
                  let dty = Ir.reg_ty f d in
                  if dty.Ty.width = 1 then begin
                    known.(d) <- gen;
                    cval.(d) <- v;
                    cty.(d) <- vty
                  end;
                  (* an immediate move is already in folded form *)
                  (match i with
                  | Ir.Mov (_, _, Ir.Imm _) -> { li with Ir.i }
                  | _ ->
                      incr folded;
                      { li with Ir.i = Ir.Mov (dty, d, Ir.Imm (v, vty)) })
              | _ -> { li with Ir.i }
            end)
          b.Ir.insts;
      (* Fold constant control flow. *)
      b.Ir.term <-
        (match b.Ir.term with
        | Ir.Branch (c, t, e) -> (
            match subst c with
            | Ir.Imm (v, _) ->
                incr branches_folded;
                Ir.Jump (if Scalar_ops.to_bool v then t else e)
            | c -> Ir.Branch (c, t, e))
        | Ir.Switch (v, cases, d) -> (
            match subst v with
            | Ir.Imm (x, _) ->
                incr branches_folded;
                let x = Int64.to_int (Scalar_ops.as_int Ast.S32 x) in
                Ir.Jump (match List.assoc_opt x cases with Some l -> l | None -> d)
            | v -> Ir.Switch (v, cases, d))
        | t -> t))
    (Ir.blocks f);
  { folded = !folded; substituted = !substituted;
    branches_folded = !branches_folded }
