(** PTX→PTX if-conversion (paper §5.1: "a PTX to PTX transformation
    replaces non-branch predicated instructions with select").

    After this pass, guards appear only on branches, so the translator to IR
    never sees predicated instructions:

    - guarded pure instructions writing a data register become an
      unconditional compute into a fresh register followed by a [selp]
      keeping the old destination when the guard is false;
    - guarded memory/atomic instructions and guarded predicate-writers
      (PTX's [selp] cannot select predicates) are isolated into a branch
      diamond around a single-instruction block. *)

open Vekt_ptx
open Ast

type state = {
  mutable fresh_regs : (reg * dtype) list;  (* extra declarations, reversed *)
  mutable counter : int;
}

let fresh_reg st ty =
  st.counter <- st.counter + 1;
  let r = "%__ifc" ^ string_of_int st.counter in
  st.fresh_regs <- (r, ty) :: st.fresh_regs;
  r

(* Destination register and its type for pure, selp-convertible
   instructions. *)
let pure_dst = function
  (* [mul.wide] defines at twice the instruction type's width, so the
     select temp must be declared at the widened type. *)
  | Binary (Mul_wide, ty, d, _, _) ->
      Some (d, Option.value ~default:ty (widened ty))
  | Binary (_, ty, d, _, _) when ty <> Pred -> Some (d, ty)
  | Unary (_, ty, d, _) when ty <> Pred -> Some (d, ty)
  | Mad (ty, d, _, _, _) -> Some (d, ty)
  | Selp (ty, d, _, _, _) -> Some (d, ty)
  | Mov (ty, d, _) when ty <> Pred -> Some (d, ty)
  | Cvt (dty, _, d, _) when dty <> Pred -> Some (d, dty)
  | _ -> None

let retarget i d =
  match i with
  | Binary (op, ty, _, a, b) -> Binary (op, ty, d, a, b)
  | Unary (op, ty, _, a) -> Unary (op, ty, d, a)
  | Mad (ty, _, a, b, c) -> Mad (ty, d, a, b, c)
  | Selp (ty, _, a, b, p) -> Selp (ty, d, a, b, p)
  | Mov (ty, _, a) -> Mov (ty, d, a)
  | Cvt (dty, sty, _, a) -> Cvt (dty, sty, d, a)
  | _ -> assert false

(** Convert one guarded instruction into unguarded statements, possibly
    splitting the enclosing block.  Works directly on the statement list;
    diamonds introduce fresh labels. *)
let run (k : kernel) : kernel =
  let st = { fresh_regs = []; counter = 0 } in
  let label_counter = ref 0 in
  let existing_labels = Hashtbl.create 16 in
  List.iter
    (function Label l -> Hashtbl.replace existing_labels l () | Inst _ -> ())
    k.k_body;
  let fresh_label () =
    incr label_counter;
    let rec pick () =
      let l = "$__ifc" ^ string_of_int !label_counter in
      if Hashtbl.mem existing_labels l then (
        incr label_counter;
        pick ())
      else (
        Hashtbl.replace existing_labels l ();
        l)
    in
    pick ()
  in
  (* Converted statements inherit the guarded instruction's source line so
     attribution survives if-conversion. *)
  let convert (g : guard) (i : instr) (line : int) : stmt list =
    match (g, i) with
    | Always, _ | _, Bra _ -> [ Inst (g, i, line) ]
    | (If p | Ifnot p), _ -> (
        let sense = match g with If _ -> true | _ -> false in
        match pure_dst i with
        | Some (d, ty) ->
            (* t = op(...); d = selp(t, d) or selp(d, t) depending on sense *)
            let t = fresh_reg st ty in
            let sel =
              if sense then Selp (ty, d, Reg t, Reg d, p)
              else Selp (ty, d, Reg d, Reg t, p)
            in
            [ Inst (Always, retarget i t, line); Inst (Always, sel, line) ]
        | None ->
            (* Diamond: branch around a single-instruction block. *)
            let skip = fresh_label () in
            let inv_guard = if sense then Ifnot p else If p in
            [ Inst (inv_guard, Bra skip, line); Inst (Always, i, line); Label skip ])
  in
  let body =
    List.concat_map
      (function Label l -> [ Label l ] | Inst (g, i, line) -> convert g i line)
      k.k_body
  in
  { k with k_regs = k.k_regs @ List.rev st.fresh_regs; k_body = body }

(** True when no non-branch instruction carries a guard (the pass's
    postcondition; checked in tests). *)
let is_clean (k : kernel) =
  List.for_all
    (function
      | Inst ((If _ | Ifnot _), Bra _, _) | Inst (Always, _, _) | Label _ -> true
      | Inst ((If _ | Ifnot _), _, _) -> false)
    k.k_body
