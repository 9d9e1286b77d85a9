(** Static checks on a parsed PTX kernel: every register is declared exactly
    once, operand register classes match instruction types (predicate
    vs. data registers), branch targets exist, labels are unique, and
    address bases refer to declared variables.

    PTX tolerates width-compatible register reuse (e.g. a [.b32] register in
    an [.s32] add); we check bit-width compatibility rather than exact type
    equality, matching the PTX spec's untyped-register semantics. *)

open Ast

type error = { what : string; where : string }

let err what where = { what; where }
let pp_error fmt e = Fmt.pf fmt "%s (in %s)" e.what e.where

let width_class ty =
  match ty with Pred -> `Pred | _ -> `Bits (size_of ty * 8)

let compatible declared used =
  match (width_class declared, width_class used) with
  | `Pred, `Pred -> true
  | `Bits a, `Bits b -> a = b
  | _ -> false

(* Names are looked up through monomorphic string tables. *)
module Stbl = Hashtbl.Make (String)

let check_kernel ?(consts = []) ?(funcs = []) (k : kernel) : error list =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let where = k.k_name in
  (* Registers: unique declaration, build env. *)
  let regs = Stbl.create 64 in
  List.iter
    (fun (r, ty) ->
      if Stbl.mem regs r then add (err (Fmt.str "register %s declared twice" r) where)
      else Stbl.add regs r ty)
    k.k_regs;
  let vars = Stbl.create 16 in
  List.iter (fun p -> Stbl.replace vars p.p_name `Param) k.k_params;
  List.iter (fun a -> Stbl.replace vars a.a_name `Shared) k.k_shared;
  List.iter (fun a -> Stbl.replace vars a.a_name `Local) k.k_local;
  List.iter (fun c -> Stbl.replace vars c `Const) consts;
  (* Labels: unique, collect for branch-target checking. *)
  let labels = Stbl.create 16 in
  List.iter
    (function
      | Label l ->
          if Stbl.mem labels l then add (err (Fmt.str "label %s defined twice" l) where)
          else Stbl.add labels l ()
      | Inst _ -> ())
    k.k_body;
  (* [ctx] is the instruction being checked; it is printed into the
     error only when one is recorded. *)
  let err_at what ctx = err what (Printer.instr_str ctx) in
  let check_reg r expect ctx =
    match Stbl.find_opt regs r with
    | None -> add (err_at (Fmt.str "register %s not declared" r) ctx)
    | Some declared ->
        if not (compatible declared expect) then
          add
            (err_at
               (Fmt.str "register %s has type %s, incompatible with %s" r
                  (Printer.dtype_str declared) (Printer.dtype_str expect))
               ctx)
  in
  let check_operand o expect ctx =
    match o with
    | Reg r -> check_reg r expect ctx
    | Imm_int _ ->
        if is_float expect && size_of expect < 4 then
          add (err_at "integer immediate used as narrow float" ctx)
    | Imm_float _ ->
        if not (is_float expect) then add (err_at "float immediate in integer context" ctx)
    | Special _ ->
        (* Special registers are 32-bit unsigned. *)
        if not (compatible U32 expect) then
          add (err_at "special register used at non-32-bit width" ctx)
    | Var v ->
        (* Address-of a declared variable; must land in an integer register
           wide enough for an address. *)
        if not (Stbl.mem vars v) then
          add (err_at (Fmt.str "unknown variable %s" v) ctx)
        else if not (is_integer expect) || size_of expect < 4 then
          add (err_at (Fmt.str "address of %s needs a 32/64-bit integer" v) ctx)
  in
  let check_addr (a : address) ctx =
    match a.base with
    | Areg r -> (
        match Stbl.find_opt regs r with
        | None -> add (err_at (Fmt.str "address register %s not declared" r) ctx)
        | Some ty ->
            if size_of ty <> 8 && size_of ty <> 4 then
              add (err_at (Fmt.str "address register %s must be 32 or 64 bit" r) ctx))
    | Avar v ->
        if not (Stbl.mem vars v) then
          add (err_at (Fmt.str "unknown variable %s in address" v) ctx)
  in
  let check_space_var (a : address) (sp : space) ctx =
    match (a.base, sp) with
    | Avar v, Param when Stbl.find_opt vars v <> Some `Param ->
        add (err_at (Fmt.str "%s is not a parameter" v) ctx)
    | Avar v, Shared when Stbl.find_opt vars v <> Some `Shared ->
        add (err_at (Fmt.str "%s is not a shared array" v) ctx)
    | Avar v, Local when Stbl.find_opt vars v <> Some `Local ->
        add (err_at (Fmt.str "%s is not a local array" v) ctx)
    | Avar v, Const when Stbl.find_opt vars v <> Some `Const ->
        add (err_at (Fmt.str "%s is not a constant array" v) ctx)
    | _ -> ()
  in
  let check_instr g ctx =
    (match g with
    | Always -> ()
    | If r | Ifnot r -> check_reg r Pred ctx);
    match ctx with
    | Binary (op, ty, d, a, b) ->
        if ty = Pred && not (List.mem op [ And; Or; Xor ]) then
          add (err_at "arithmetic on predicates" ctx);
        if is_float ty && List.mem op [ And; Or; Xor; Shl; Shr; Mul_hi; Mul_wide; Rem ]
        then add (err_at "bitwise/integer op on float type" ctx);
        (* mul.wide reads at the source type but defines a register of
           twice the width; 64-bit sources have no 128-bit destination. *)
        (match op with
        | Mul_wide -> (
            match widened ty with
            | Some wide -> check_reg d wide ctx
            | None -> add (err_at "mul.wide needs an integer type of at most 32 bits" ctx))
        | _ -> check_reg d ty ctx);
        check_operand a ty ctx;
        (* Shift amounts are .u32 regardless of the value type. *)
        if op = Shl || op = Shr then check_operand b U32 ctx else check_operand b ty ctx
    | Unary (op, ty, d, a) ->
        if
          List.mem op [ Sqrt; Rsqrt; Rcp; Sin; Cos; Ex2; Lg2 ] && not (is_float ty)
        then add (err_at "transcendental on integer type" ctx);
        if op = Not && is_float ty then add (err_at "bitwise not on float" ctx);
        check_reg d ty ctx;
        check_operand a ty ctx
    | Mad (ty, d, a, b, c) ->
        check_reg d ty ctx;
        check_operand a ty ctx;
        check_operand b ty ctx;
        check_operand c ty ctx
    | Setp (_, ty, d, a, b) ->
        if ty = Pred then add (err_at "setp on predicate type" ctx);
        check_reg d Pred ctx;
        check_operand a ty ctx;
        check_operand b ty ctx
    | Selp (ty, d, a, b, p) ->
        check_reg d ty ctx;
        check_operand a ty ctx;
        check_operand b ty ctx;
        check_reg p Pred ctx
    | Mov (ty, d, a) ->
        check_reg d ty ctx;
        check_operand a ty ctx
    | Cvt (dty, sty, d, a) ->
        check_reg d dty ctx;
        check_operand a sty ctx
    | Ld (sp, ty, d, addr) ->
        if ty = Pred then add (err_at "loads of predicates are not addressable" ctx);
        check_reg d ty ctx;
        check_addr addr ctx;
        check_space_var addr sp ctx
    | St (sp, ty, addr, v) ->
        if ty = Pred then add (err_at "stores of predicates are not addressable" ctx);
        if sp = Param || sp = Const then add (err_at "store to read-only space" ctx);
        check_addr addr ctx;
        check_space_var addr sp ctx;
        check_operand v ty ctx
    | Atom (sp, op, ty, d, addr, b, c) ->
        if sp <> Shared && sp <> Global then add (err_at "atomics only on shared/global" ctx);
        if is_float ty && op <> Atom_add && op <> Atom_exch then
          add (err_at "float atomic other than add/exch" ctx);
        check_reg d ty ctx;
        check_addr addr ctx;
        check_space_var addr sp ctx;
        check_operand b ty ctx;
        Option.iter (fun c -> check_operand c ty ctx) c
    | Bra t ->
        if not (Stbl.mem labels t) then
          add (err_at (Fmt.str "branch to undefined label %s" t) ctx)
    | Call (rets, fname, args) -> (
        match List.find_opt (fun (f : func_decl) -> f.f_name = fname) funcs with
        | None -> add (err_at (Fmt.str "call of undefined .func %s" fname) ctx)
        | Some f ->
            if List.length rets <> List.length f.f_rets then
              add (err_at (Fmt.str "call of %s: wrong number of return registers" fname) ctx)
            else
              List.iter2 (fun r (_, ty) -> check_reg r ty ctx) rets f.f_rets;
            if List.length args <> List.length f.f_params then
              add (err_at (Fmt.str "call of %s: wrong number of arguments" fname) ctx)
            else List.iter2 (fun a (_, ty) -> check_operand a ty ctx) args f.f_params)
    | Bar | Ret | Exit -> ()
  in
  List.iter (function Inst (g, i, _) -> check_instr g i | Label _ -> ()) k.k_body;
  (* Guarded non-branch instructions are permitted in source PTX; the
     if-conversion pass removes them before translation. Guarded barriers
     are rejected outright (divergent barrier = UB in the execution model). *)
  List.iter
    (function
      | Inst ((If _ | Ifnot _), Bar, _) -> add (err "guarded barrier" where)
      | _ -> ())
    k.k_body;
  List.rev !errors

(** Check a device function body: registers declared, labels resolved, no
    barriers, no nested shared state. *)
let check_func_decl ?(funcs = []) (f : func_decl) : error list =
  let as_kernel =
    {
      k_name = "(func " ^ f.f_name ^ ")";
      k_params = [];
      k_regs = f.f_rets @ f.f_params @ f.f_regs;
      k_shared = [];
      k_local = [];
      k_body = f.f_body;
    }
  in
  let bar_errors =
    List.filter_map
      (function
        | Inst (_, Bar, _) ->
            Some (err "barrier inside .func" ("(func " ^ f.f_name ^ ")"))
        | _ -> None)
      f.f_body
  in
  bar_errors @ check_kernel ~funcs as_kernel

let check_module (m : modul) : error list =
  let dup_errors =
    let seen = Stbl.create 8 in
    List.filter_map
      (fun k ->
        if Stbl.mem seen k.k_name then
          Some (err (Fmt.str "kernel %s defined twice" k.k_name) "module")
        else (
          Stbl.add seen k.k_name ();
          None))
      m.m_kernels
  in
  let consts = List.map (fun c -> c.c_decl.a_name) m.m_consts in
  dup_errors
  @ List.concat_map (check_func_decl ~funcs:m.m_funcs) m.m_funcs
  @ List.concat_map (check_kernel ~consts ~funcs:m.m_funcs) m.m_kernels

(** The one PTX loader: parse [src], then type-check the module.  A
    failure raises the structured {!Vekt_error.Compile} of its stage
    ([Lex], [Parse] with its line, or [Typecheck], whose reason names
    every error).  [phase] wraps each stage's work: {!load} runs them
    bare, and the host API runs each inside a span. *)
let load_with ~phase src : modul =
  let fail line stage reason =
    raise (Vekt_error.compile ~kernel:"" ~line stage reason)
  in
  let m =
    phase Vekt_error.Parse (fun () ->
        try Parser.parse_module src with
        | Parser.Error (msg, line) -> fail (Some line) Vekt_error.Parse msg
        | Lexer.Error (msg, line) -> fail (Some line) Vekt_error.Lex msg)
  in
  phase Vekt_error.Typecheck (fun () ->
      match check_module m with
      | [] -> m
      | errs ->
          fail None Vekt_error.Typecheck
            (String.concat "; " (List.map (Fmt.str "%a" pp_error) errs)))

let load src = load_with ~phase:(fun _ run -> run ()) src
