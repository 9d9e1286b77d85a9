(** Translation from PTX kernels to scalar IR (the analogue of Ocelot's
    PTX→LLVM translator, [16] in the paper).

    Precondition: the kernel has been if-converted ({!Ifconv}), so only
    branches carry guards.  The result is a width-1 IR function in which

    - PTX registers map 1:1 to virtual registers,
    - special registers become context-object reads,
    - named variables become constant byte offsets within their address
      space, and thread-local accesses are rebased onto the thread's
      [Local_base] context field (thread-local memory is a contiguous
      arena partitioned per thread, as in the paper's implementation),
    - barriers and exits become the dedicated terminators that the
      yield-on-diverge transformation later expands. *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty
module Builder = Vekt_ir.Builder
module Verify = Vekt_ir.Verify
open Vekt_ptx
open Ast

(** A PTX construct the frontend cannot translate.  The payload is
    structured so callers (the translation cache, the host API) can fold
    it into the {!Vekt_error.Compile} taxonomy without string parsing:
    [kernel] is filled in by {!frontend} ([""] while translating),
    [construct] names what was rejected. *)
exception Unsupported of { kernel : string; construct : string }

let unsupported fmt =
  Fmt.kstr (fun construct -> raise (Unsupported { kernel = ""; construct })) fmt

type t = {
  func : Ir.func;
  shared_bytes : int;  (** static [.shared] allocation for one CTA *)
  local_decl_bytes : int;  (** declared [.local] bytes per thread *)
  reg_map : (string, Ir.vreg) Hashtbl.t;
}

let ctx_field_of_special = function
  | Tid d -> Ir.Tid d
  | Ntid d -> Ir.Ntid d
  | Ctaid d -> Ir.Ctaid d
  | Nctaid d -> Ir.Nctaid d
  | Laneid -> Ir.Lane
  | Warpsize -> Ir.Warp_width

let translate (m : modul) (k : kernel) : t =
  let b = Builder.create ~warp_size:1 k.k_name in
  let reg_map = Hashtbl.create 64 in
  List.iter
    (fun (r, ty) -> Hashtbl.replace reg_map r (Builder.fresh_reg b (Ty.scalar ty)))
    k.k_regs;
  let vreg r =
    match Hashtbl.find_opt reg_map r with
    | Some v -> v
    | None -> unsupported "undeclared register %s" r
  in
  let shared_layout, shared_bytes = Mem.layout k.k_shared in
  let local_layout, local_decl_bytes = Mem.layout k.k_local in
  let const_layout, _ = Mem.layout (List.map (fun c -> c.c_decl) m.m_consts) in
  let param_layout = Ast.param_layout k.k_params in
  let var_offset v =
    match List.assoc_opt v shared_layout with
    | Some off -> off
    | None -> (
        match List.assoc_opt v local_layout with
        | Some off -> off
        | None -> (
            match List.assoc_opt v const_layout with
            | Some off -> off
            | None -> (
                match List.assoc_opt v param_layout with
                | Some (off, _) -> off
                | None -> unsupported "unknown variable %s" v)))
  in
  (* Operands in a context expecting type [ty]. *)
  let operand ty (o : Ast.operand) : Ir.operand =
    match o with
    | Reg r -> Ir.R (vreg r)
    | Imm_int i -> Ir.Imm (Scalar_ops.I (Scalar_ops.norm_int ty i), ty)
    | Imm_float f -> Ir.Imm (Scalar_ops.F f, ty)
    | Var v -> Ir.Imm (Scalar_ops.I (Int64.of_int (var_offset v)), ty)
    | Special s ->
        (* A special register used directly as an operand: read it into a
           temporary first. *)
        let tmp = Builder.fresh_reg b (Ty.scalar U32) in
        Builder.emit b (Ir.Ctx_read (tmp, ctx_field_of_special s, 0));
        if Ast.size_of ty = 4 then Ir.R tmp
        else begin
          let w = Builder.fresh_reg b (Ty.scalar ty) in
          Builder.emit b (Ir.Cvt (Ty.scalar ty, Ty.scalar U32, w, Ir.R tmp));
          Ir.R w
        end
  in
  (* Addresses: a base operand plus constant offset; thread-local accesses
     are rebased on the lane's Local_base context field. *)
  let address space ({ base; offset } : address) : Ir.operand * int =
    let base_op =
      match base with
      | Areg r -> Ir.R (vreg r)
      | Avar v -> Ir.Imm (Scalar_ops.I (Int64.of_int (var_offset v)), S64)
    in
    match space with
    | Local ->
        let lb = Builder.fresh_reg b (Ty.scalar S64) in
        Builder.emit b (Ir.Ctx_read (lb, Ir.Local_base, 0));
        let base_ty =
          match base_op with Ir.R r -> (Ir.reg_ty b.Builder.func r).Ty.elt | Ir.Imm (_, t) -> t
        in
        let base64 =
          if Ast.size_of base_ty = 8 then base_op
          else begin
            let w = Builder.fresh_reg b (Ty.scalar S64) in
            Builder.emit b (Ir.Cvt (Ty.scalar S64, Ty.scalar base_ty, w, base_op));
            Ir.R w
          end
        in
        let sum = Builder.fresh_reg b (Ty.scalar S64) in
        Builder.emit b (Ir.Bin (Add, Ty.scalar S64, sum, Ir.R lb, base64));
        (Ir.R sum, offset)
    | _ -> (base_op, offset)
  in
  let translate_instr (i : instr) =
    match i with
    | Binary (Mul_wide, ty, d, a, bb) ->
        (* mul.wide has no IR form: widen both operands (sign/zero extend
           per the source type) and multiply at the destination width —
           exact, because the product of two n-bit values fits in 2n bits. *)
        let wide =
          match Ast.widened ty with
          | Some w -> w
          | None -> unsupported "mul.wide at type %s" (Printer.dtype_str ty)
        in
        let widen_op o =
          let w = Builder.fresh_reg b (Ty.scalar wide) in
          Builder.emit b (Ir.Cvt (Ty.scalar wide, Ty.scalar ty, w, operand ty o));
          Ir.R w
        in
        let wa = widen_op a in
        let wb = widen_op bb in
        Builder.emit b (Ir.Bin (Mul_lo, Ty.scalar wide, vreg d, wa, wb))
    | Binary (op, ty, d, a, bb) ->
        let amt_ty = if op = Shl || op = Shr then U32 else ty in
        Builder.emit b (Ir.Bin (op, Ty.scalar ty, vreg d, operand ty a, operand amt_ty bb))
    | Unary (op, ty, d, a) ->
        Builder.emit b (Ir.Un (op, Ty.scalar ty, vreg d, operand ty a))
    | Mad (ty, d, a, bb, c) ->
        Builder.emit b
          (Ir.Fma (Ty.scalar ty, vreg d, operand ty a, operand ty bb, operand ty c))
    | Setp (op, ty, d, a, bb) ->
        Builder.emit b (Ir.Cmp (op, Ty.scalar ty, vreg d, operand ty a, operand ty bb))
    | Selp (ty, d, a, bb, p) ->
        Builder.emit b
          (Ir.Select (Ty.scalar ty, vreg d, Ir.R (vreg p), operand ty a, operand ty bb))
    | Mov (ty, d, Special s) ->
        let field = ctx_field_of_special s in
        if Ast.size_of ty = 4 then Builder.emit b (Ir.Ctx_read (vreg d, field, 0))
        else begin
          let tmp = Builder.fresh_reg b (Ty.scalar U32) in
          Builder.emit b (Ir.Ctx_read (tmp, field, 0));
          Builder.emit b (Ir.Cvt (Ty.scalar ty, Ty.scalar U32, vreg d, Ir.R tmp))
        end
    | Mov (ty, d, a) -> Builder.emit b (Ir.Mov (Ty.scalar ty, vreg d, operand ty a))
    | Cvt (dty, sty, d, a) ->
        Builder.emit b (Ir.Cvt (Ty.scalar dty, Ty.scalar sty, vreg d, operand sty a))
    | Ld (sp, ty, d, addr) ->
        let base, off = address sp addr in
        Builder.emit b (Ir.Load (sp, ty, vreg d, base, off))
    | St (sp, ty, addr, v) ->
        let base, off = address sp addr in
        Builder.emit b (Ir.Store (sp, ty, base, off, operand ty v))
    | Atom (sp, op, ty, d, addr, v, c) ->
        let base, off = address sp addr in
        Builder.emit b
          (Ir.Atomic (sp, op, ty, vreg d, base, off, operand ty v, Option.map (operand ty) c))
    | Call _ -> unsupported "call survived inlining"
    | Bra _ | Bar | Ret | Exit ->
        unsupported "control flow must come from CFG terminators"
  in
  let cfg = Cfg.of_kernel k in
  (* Create all blocks first so terminators can reference them. *)
  List.iter (fun (blk : Cfg.block) -> ignore (Builder.start_block b blk.label)) cfg.blocks;
  b.Builder.func.Ir.entry <- cfg.entry;
  List.iter
    (fun (blk : Cfg.block) ->
      Builder.switch_to b blk.label;
      List.iter
        (fun (g, i, line) ->
          (* Helper instructions emitted while translating this PTX
             instruction (address arithmetic, special-register reads)
             inherit its source line. *)
          Builder.set_line b line;
          match g with
          | Always -> translate_instr i
          | If _ | Ifnot _ ->
              unsupported "guarded instruction survived if-conversion")
        blk.insts;
      Builder.set_line b 0;
      let term =
        match blk.term with
        | Cfg.Br l -> Ir.Jump l
        | Cfg.Cbr (p, sense, taken, ft) ->
            if sense then Ir.Branch (Ir.R (vreg p), taken, ft)
            else Ir.Branch (Ir.R (vreg p), ft, taken)
        | Cfg.Bar_then l -> Ir.Barrier l
        | Cfg.Exit_term -> Ir.Return
      in
      Builder.set_term b term)
    cfg.blocks;
  { func = Builder.func b; shared_bytes; local_decl_bytes; reg_map }

(** Full frontend pipeline for one kernel: inline, if-convert,
    translate, verify.

    Precondition: [m] is type-checked, as {!Vekt_ptx.Typecheck.load} and
    {!Vekt_runtime.Api.load_module} leave it.  Only a kernel that
    inlining changed is checked again. *)
let frontend (m : modul) ~kernel : t =
  let k0 =
    match find_kernel m kernel with
    | Some k -> k
    | None -> raise (Unsupported { kernel; construct = Fmt.str "no kernel named %s" kernel })
  in
  (* device functions are exhaustively inlined first (paper §4.1 treats
     true calls as future work; see Inline) *)
  let k =
    try Inline.expand m k0
    with Inline.Error e -> raise (Unsupported { kernel; construct = e })
  in
  (if k != k0 then
     let consts = List.map (fun c -> c.c_decl.a_name) m.m_consts in
     match Typecheck.check_kernel ~consts k with
     | [] -> ()
     | e :: _ ->
         raise
           (Unsupported
              { kernel; construct = Fmt.str "type error: %a" Typecheck.pp_error e }));
  let k = Ifconv.run k in
  let t =
    try translate m k
    with Unsupported { kernel = ""; construct } -> raise (Unsupported { kernel; construct })
  in
  Verify.check_exn t.func;
  t
