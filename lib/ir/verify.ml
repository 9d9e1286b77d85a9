(** Structural and type verification of IR functions.

    Run after every transformation in tests (and at translation-cache
    boundaries under a debug flag) to catch malformed IR early, in the
    spirit of LLVM's verifier. *)

open Vekt_ptx

type error = string

exception Invalid_ir of string

let check_func (f : Ir.func) : error list =
  let errors = ref [] in
  let add fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  if f.entry = "" || not (Ir.Stbl.mem f.btab f.entry) then add "missing entry block";
  let labels = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem labels l then add "duplicate label %s in order" l
      else Hashtbl.add labels l ())
    f.order;
  Ir.Stbl.iter
    (fun l _ -> if not (Hashtbl.mem labels l) then add "block %s not in order" l)
    f.btab;
  let ty_of_operand o =
    match o with
    | Ir.R r -> if Ir.has_reg f r then Some (Ir.reg_ty f r) else None
    | Ir.Imm (_, ty) -> Some (Ty.scalar ty)
  in
  let check_block (b : Ir.block) =
    List.iter
      (fun (li : Ir.li) ->
        let i = li.Ir.i in
        (* The "fname/label: instr" context is printed only for an
           instruction that has an error. *)
        let where fmt =
          Fmt.kstr
            (fun s ->
              add "%s/%s: %s: %s" f.fname b.label (Fmt.to_to_string Pp.instr i) s)
            fmt
        in
        (* All used registers must have known types. *)
        Ir.iter_uses
          (fun r -> if not (Ir.has_reg f r) then where "use of unknown %%%d" r)
          i;
        (let d = Ir.def i in
         if d >= 0 && not (Ir.has_reg f d) then where "def of unknown %%%d" d);
        let expect_operand o (ty : Ty.t) =
          match ty_of_operand o with
          | None -> ()
          | Some t ->
              (* Immediates are scalar and splat into vector positions. *)
              let ok =
                match o with
                | Ir.Imm _ -> t.Ty.elt = ty.Ty.elt || Ast.size_of t.elt = Ast.size_of ty.elt
                | Ir.R _ ->
                    t.Ty.width = ty.Ty.width
                    && (t.Ty.elt = ty.Ty.elt
                       || (Ast.size_of t.elt = Ast.size_of ty.elt
                          && Ast.is_float t.elt = Ast.is_float ty.elt
                          && t.elt <> Ast.Pred && ty.elt <> Ast.Pred))
              in
              if not ok then
                where "operand %s has type %s, expected %s"
                  (Fmt.to_to_string Pp.operand o)
                  (Ty.to_string t) (Ty.to_string ty)
        in
        let expect_def d (ty : Ty.t) =
          if Ir.has_reg f d then
            let t = Ir.reg_ty f d in
            if
              not
                (t.Ty.width = ty.Ty.width
                && (t.Ty.elt = ty.Ty.elt
                   || (Ast.size_of t.elt = Ast.size_of ty.elt
                      && Ast.is_float t.elt = Ast.is_float ty.elt
                      && t.elt <> Ast.Pred && ty.elt <> Ast.Pred)))
            then
              where "def %%%d has type %s, expected %s" d (Ty.to_string t)
                (Ty.to_string ty)
        in
        match i with
        | Bin (op, ty, d, a, b) ->
            expect_def d ty;
            expect_operand a ty;
            (* Shift amounts are 32-bit regardless of the value type. *)
            if op = Ast.Shl || op = Ast.Shr then
              expect_operand b (Ty.with_width (Ty.scalar Ast.U32) ty.Ty.width)
            else expect_operand b ty
        | Un (_, ty, d, a) ->
            expect_def d ty;
            expect_operand a ty
        | Fma (ty, d, a, b, c) ->
            expect_def d ty;
            expect_operand a ty;
            expect_operand b ty;
            expect_operand c ty
        | Cmp (_, ty, d, a, b) ->
            expect_def d (Ty.with_width (Ty.scalar Ast.Pred) ty.Ty.width);
            expect_operand a ty;
            expect_operand b ty
        | Select (ty, d, c, a, b) ->
            expect_def d ty;
            expect_operand c (Ty.with_width (Ty.scalar Ast.Pred) ty.Ty.width);
            expect_operand a ty;
            expect_operand b ty
        | Mov (ty, d, a) ->
            expect_def d ty;
            expect_operand a ty
        | Cvt (dt, st, d, a) ->
            if dt.Ty.width <> st.Ty.width then where "cvt width mismatch";
            expect_def d dt;
            expect_operand a st
        | Load (_, ty, d, base, _) ->
            expect_def d (Ty.scalar ty);
            (match ty_of_operand base with
            | Some t when t.Ty.width <> 1 -> where "vector base address"
            | _ -> ())
        | Store (_, ty, base, _, v) ->
            expect_operand v (Ty.scalar ty);
            (match ty_of_operand base with
            | Some t when t.Ty.width <> 1 -> where "vector base address"
            | _ -> ())
        | Vload (_, ty, d, base, _) ->
            expect_def d (Ty.make ty f.warp_size);
            (match ty_of_operand base with
            | Some t when t.Ty.width <> 1 -> where "vector base address"
            | _ -> ())
        | Vstore (_, ty, base, _, v) ->
            (* The value operand must be an actual vector register: scalar
               immediates splat implicitly elsewhere, but a coalesced store
               writes [warp_size] lanes and requires an explicit Broadcast
               (a scalar here has historically meant a dropped splat). *)
            (match v with
            | Ir.Imm _ -> where "scalar immediate as vector store value"
            | Ir.R _ -> ());
            expect_operand v (Ty.make ty f.warp_size);
            (match ty_of_operand base with
            | Some t when t.Ty.width <> 1 -> where "vector base address"
            | _ -> ())
        | Atomic (_, _, ty, d, base, _, b2, c) ->
            expect_def d (Ty.scalar ty);
            expect_operand b2 (Ty.scalar ty);
            Option.iter (fun c -> expect_operand c (Ty.scalar ty)) c;
            (match ty_of_operand base with
            | Some t when t.Ty.width <> 1 -> where "vector base address"
            | _ -> ())
        | Broadcast (ty, d, a) ->
            if not (Ty.is_vector ty) then where "broadcast to scalar";
            expect_def d ty;
            expect_operand a (Ty.scalar ty.Ty.elt)
        | Extract (ty, d, a, lane) ->
            expect_def d (Ty.scalar ty);
            (match ty_of_operand a with
            | Some t ->
                if lane < 0 || lane >= t.Ty.width then where "lane out of range"
            | None -> ())
        | Insert (ty, d, v, lane, s) ->
            if lane < 0 || lane >= ty.Ty.width then where "lane out of range";
            expect_def d ty;
            expect_operand v ty;
            expect_operand s (Ty.scalar ty.Ty.elt)
        | Reduce_add (d, a) ->
            expect_def d (Ty.scalar Ast.S32);
            (match ty_of_operand a with
            | Some t when Ast.is_float t.Ty.elt -> where "reduce.add on float"
            | _ -> ())
        | Ctx_read (_, _, lane) | Restore (_, lane, _, _) | Spill (lane, _, _, _)
        | Set_resume (lane, _) ->
            if lane < 0 || lane >= f.warp_size then
              where "lane %d out of warp %d" lane f.warp_size
        | Set_status _ -> ())
      b.insts;
    (* Terminator checks. *)
    List.iter
      (fun s ->
        if not (Hashtbl.mem labels s) then
          add "%s: branch to unknown block %s" b.label s)
      (Ir.successors b);
    match b.term with
    | Branch (c, _, _) -> (
        match ty_of_operand c with
        | Some t when not (Ty.is_pred t) || t.Ty.width <> 1 ->
            add "%s: branch condition must be scalar pred" b.label
        | _ -> ())
    | Switch (v, _, _) -> (
        match ty_of_operand v with
        | Some t when t.Ty.width <> 1 || Ast.is_float t.Ty.elt ->
            add "%s: switch value must be scalar integer" b.label
        | _ -> ())
    | _ -> ()
  in
  List.iter check_block (Ir.blocks f);
  List.rev !errors

let check_exn f =
  match check_func f with
  | [] -> ()
  | e :: _ as all ->
      raise
        (Invalid_ir (Fmt.str "%s (%d total):\n%s" e (List.length all) (String.concat "\n" all)))
