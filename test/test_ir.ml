(* Tests for the IR substrate: types, builder, printer, verifier, and the
   analyses (liveness, uniformity) that the transforms rely
   on. *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty
module Builder = Vekt_ir.Builder
module Verify = Vekt_ir.Verify
module Pp = Vekt_ir.Pp
module Liveness = Vekt_analysis.Liveness
module Affine = Vekt_analysis.Affine
module ISet = Set.Make (Int)
open Vekt_ptx

let imm n = Ir.Imm (Scalar_ops.I (Int64.of_int n), Ast.S32)
let s32 = Ty.scalar Ast.S32

(* A diamond: entry -> (then | else) -> join, computing into %acc. *)
let build_diamond () =
  let b = Builder.create "diamond" in
  ignore (Builder.start_block b "entry");
  let x = Builder.emit_val b s32 (fun d -> Ir.Mov (s32, d, imm 5)) in
  let p =
    Builder.emit_val b (Ty.scalar Ast.Pred) (fun d ->
        Ir.Cmp (Ast.Lt, s32, d, Ir.R x, imm 10))
  in
  let acc = Builder.fresh_reg b s32 in
  Builder.set_term b (Ir.Branch (Ir.R p, "then", "else"));
  ignore (Builder.start_block b "then");
  Builder.emit b (Ir.Bin (Ast.Add, s32, acc, Ir.R x, imm 1));
  Builder.set_term b (Ir.Jump "join");
  ignore (Builder.start_block b "else");
  Builder.emit b (Ir.Bin (Ast.Add, s32, acc, Ir.R x, imm 2));
  Builder.set_term b (Ir.Jump "join");
  ignore (Builder.start_block b "join");
  Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 0, 0, Ir.R acc));
  Builder.set_term b Ir.Return;
  (Builder.func b, x, p, acc)

(* --- Ty --- *)

let test_ty_basics () =
  Alcotest.(check bool) "scalar" false (Ty.is_vector s32);
  Alcotest.(check bool) "vector" true (Ty.is_vector (Ty.vector Ast.F32 4));
  Alcotest.(check int) "bytes" 16 (Ty.byte_size (Ty.vector Ast.F32 4));
  Alcotest.(check string) "pp" "<4 x .f32>" (Ty.to_string (Ty.vector Ast.F32 4));
  Alcotest.(check bool) "width 1 rejected" true
    (try
       ignore (Ty.vector Ast.F32 1);
       false
     with Invalid_argument _ -> true)

(* --- Builder / structure --- *)

let test_builder_entry_is_first () =
  let f, _, _, _ = build_diamond () in
  Alcotest.(check string) "entry" "entry" f.Ir.entry;
  Alcotest.(check int) "blocks" 4 (List.length (Ir.blocks f))

let test_successors_and_preds () =
  let f, _, _, _ = build_diamond () in
  Alcotest.(check (list string)) "entry succs" [ "then"; "else" ]
    (Ir.successors (Ir.block f "entry"));
  let preds = Ir.predecessors f in
  Alcotest.(check (list string)) "join preds" [ "else"; "then" ]
    (List.sort compare (Ir.Stbl.find preds "join"))

let test_def_uses () =
  let f, x, p, acc = build_diamond () in
  ignore f;
  let i = Ir.Bin (Ast.Add, s32, acc, Ir.R x, imm 1) in
  Alcotest.(check int) "def" acc (Ir.def i);
  Alcotest.(check (list int)) "uses" [ x ] (Ir.uses i);
  Alcotest.(check (list int)) "term uses"
    [ p ]
    (Ir.term_uses (Ir.Branch (Ir.R p, "a", "b")))

let test_map_operands_with_def () =
  let i = Ir.Bin (Ast.Add, s32, 7, Ir.R 1, Ir.R 2) in
  let j = Ir.map_operands (function Ir.R r -> Ir.R (r + 10) | o -> o) i in
  Alcotest.(check (list int)) "mapped uses" [ 11; 12 ] (Ir.uses j);
  let k = Ir.with_def 9 j in
  Alcotest.(check int) "new def" 9 (Ir.def k);
  Alcotest.(check int) "no def" (-1) (Ir.def (Ir.Store (Ast.Global, Ast.S32, Ir.R 1, 0, Ir.R 2)))

(* Large build: 2000 blocks x 100 instructions, plus block revisits via
   switch_to.  The builder accumulates instructions and block order in
   reverse and flushes on block switches, so this completes in
   milliseconds; the old append-per-emit representation was quadratic
   and took minutes at this size.  Structure is verified exactly. *)
let test_builder_large_linear () =
  let nblocks = 2000 and ninsts = 100 in
  let b = Builder.create "big" in
  let r = Builder.fresh_reg b s32 in
  for blk = 0 to nblocks - 1 do
    ignore (Builder.start_block b (Fmt.str "b%d" blk));
    for _ = 1 to ninsts do
      Builder.emit b (Ir.Bin (Ast.Add, s32, r, Ir.R r, imm 1))
    done;
    Builder.set_term b
      (if blk = nblocks - 1 then Ir.Return else Ir.Jump (Fmt.str "b%d" (blk + 1)))
  done;
  (* revisit earlier blocks: flushed instructions must be preserved and
     appended to, not clobbered *)
  Builder.switch_to b "b0";
  Builder.emit b (Ir.Bin (Ast.Add, s32, r, Ir.R r, imm 2));
  let f = Builder.func b in
  Alcotest.(check int) "block count" nblocks (List.length (Ir.blocks f));
  Alcotest.(check (list string)) "order preserved"
    (List.init nblocks (Fmt.str "b%d"))
    f.Ir.order;
  Alcotest.(check int) "b0 insts (revisit appended)" (ninsts + 1)
    (List.length (Ir.block f "b0").Ir.insts);
  Alcotest.(check int) "b1 insts" ninsts
    (List.length (Ir.block f "b1").Ir.insts);
  Alcotest.(check int) "total size" ((nblocks * ninsts) + 1) (Ir.size f)

(* --- Verifier --- *)

let test_verify_clean () =
  let f, _, _, _ = build_diamond () in
  Alcotest.(check int) "no errors" 0 (List.length (Verify.check_func f))

let test_verify_bad_target () =
  let b = Builder.create "bad" in
  ignore (Builder.start_block b "entry");
  Builder.set_term b (Ir.Jump "nowhere");
  Alcotest.(check bool) "caught" true (Verify.check_func (Builder.func b) <> [])

let test_verify_type_mismatch () =
  let b = Builder.create "bad" in
  ignore (Builder.start_block b "entry");
  let x = Builder.fresh_reg b (Ty.scalar Ast.F32) in
  let d = Builder.fresh_reg b s32 in
  (* f32 operand in an s32 add *)
  Builder.emit b (Ir.Bin (Ast.Add, s32, d, Ir.R x, imm 1));
  Builder.set_term b Ir.Return;
  Alcotest.(check bool) "caught" true (Verify.check_func (Builder.func b) <> [])

(* The exact diagnostics, text included: each names the function, block
   and instruction it was found in, printed only when an error is
   recorded. *)
let test_verify_diagnostics_exact () =
  let b = Builder.create "bad" in
  ignore (Builder.start_block b "entry");
  let x = Builder.fresh_reg b (Ty.scalar Ast.F32) in
  let d = Builder.fresh_reg b s32 in
  Builder.emit b (Ir.Bin (Ast.Add, s32, d, Ir.R 7, imm 1));
  Builder.emit b (Ir.Bin (Ast.Add, s32, d, Ir.R x, imm 1));
  Builder.set_term b Ir.Return;
  Alcotest.(check (list string))
    "errors"
    [
      "bad/entry: %1 = add .s32 %7, 1:.s32: use of unknown %7";
      "bad/entry: %1 = add .s32 %0, 1:.s32: operand %0 has type .f32, expected .s32";
    ]
    (Verify.check_func (Builder.func b))

let test_reg_ty_unknown () =
  let f, _, _, _ = build_diamond () in
  List.iter
    (fun r ->
      match Ir.reg_ty f r with
      | _ -> Alcotest.failf "reg_ty %d accepted" r
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            "message"
            ("Ir.reg_ty: unknown register %" ^ string_of_int r)
            msg)
    [ -1; f.Ir.nregs ]

let test_verify_lane_bounds () =
  let b = Builder.create ~warp_size:2 "bad" in
  ignore (Builder.start_block b "entry");
  let d = Builder.fresh_reg b (Ty.scalar Ast.U32) in
  Builder.emit b (Ir.Ctx_read (d, Ir.Lane, 5));
  Builder.set_term b Ir.Return;
  Alcotest.(check bool) "caught" true (Verify.check_func (Builder.func b) <> [])

let test_verify_vector_cond_select () =
  let b = Builder.create ~warp_size:4 "v" in
  ignore (Builder.start_block b "entry");
  let v4 = Ty.vector Ast.F32 4 in
  let p4 = Ty.vector Ast.Pred 4 in
  let c = Builder.fresh_reg b p4 in
  let x = Builder.fresh_reg b v4 in
  let d = Builder.fresh_reg b v4 in
  Builder.emit b (Ir.Select (v4, d, Ir.R c, Ir.R x, Ir.R x));
  Builder.set_term b Ir.Return;
  Alcotest.(check int) "clean" 0 (List.length (Verify.check_func (Builder.func b)))

let test_verify_scalar_cond_on_vector_select () =
  let b = Builder.create ~warp_size:4 "v" in
  ignore (Builder.start_block b "entry");
  let v4 = Ty.vector Ast.F32 4 in
  let c = Builder.fresh_reg b (Ty.scalar Ast.Pred) in
  let x = Builder.fresh_reg b v4 in
  let d = Builder.fresh_reg b v4 in
  Builder.emit b (Ir.Select (v4, d, Ir.R c, Ir.R x, Ir.R x));
  Builder.set_term b Ir.Return;
  Alcotest.(check bool) "caught" true (Verify.check_func (Builder.func b) <> [])

(* --- Liveness --- *)

let test_liveness_diamond () =
  let f, x, _, acc = build_diamond () in
  let live = Liveness.compute f in
  (* x is live into both arms; acc is live into the join. *)
  Alcotest.(check bool) "x live into then" true (ISet.mem x (Liveness.live_in live "then"));
  Alcotest.(check bool) "x live into else" true (ISet.mem x (Liveness.live_in live "else"));
  Alcotest.(check bool) "acc live into join" true
    (ISet.mem acc (Liveness.live_in live "join"));
  Alcotest.(check bool) "x dead into join" false
    (ISet.mem x (Liveness.live_in live "join"));
  Alcotest.(check bool) "entry live-in empty" true
    (ISet.is_empty (Liveness.live_in live "entry"))

let test_liveness_loop () =
  (* A counted loop: the counter must be live around the back edge. *)
  let b = Builder.create "loop" in
  ignore (Builder.start_block b "entry");
  let i = Builder.fresh_reg b s32 in
  Builder.emit b (Ir.Mov (s32, i, imm 0));
  Builder.set_term b (Ir.Jump "head");
  ignore (Builder.start_block b "head");
  Builder.emit b (Ir.Bin (Ast.Add, s32, i, Ir.R i, imm 1));
  let p = Builder.fresh_reg b (Ty.scalar Ast.Pred) in
  Builder.emit b (Ir.Cmp (Ast.Lt, s32, p, Ir.R i, imm 10));
  Builder.set_term b (Ir.Branch (Ir.R p, "head", "exit"));
  ignore (Builder.start_block b "exit");
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  let live = Liveness.compute f in
  Alcotest.(check bool) "i live into head" true (ISet.mem i (Liveness.live_in live "head"));
  Alcotest.(check bool) "i live out of head" true
    (ISet.mem i (Liveness.live_out live "head"))

let test_liveness_per_instruction () =
  let f, x, _, acc = build_diamond () in
  let live = Liveness.compute f in
  let entry = Ir.block f "entry" in
  (* Walk back from the block's exit to the point after its first
     instruction (the def of x), as DCE and the pressure walk do. *)
  let after0 = Liveness.live_out_copy live "entry" in
  List.iter (Liveness.Bits.add after0) (Ir.term_uses entry.Ir.term);
  List.iter
    (fun (li : Ir.li) -> Liveness.step after0 li.Ir.i)
    (List.rev (List.tl entry.Ir.insts));
  Alcotest.(check bool) "x live after def" true (Liveness.Bits.mem after0 x);
  Alcotest.(check bool) "acc not yet live" false (Liveness.Bits.mem after0 acc)

let test_max_pressure () =
  let f, _, _, _ = build_diamond () in
  let t = Vekt_vm.Timing.analyze Vekt_vm.Machine.sse4 f in
  (* Every register of the diamond is a scalar integer or predicate, so
     the GPR pressure is the plain count of live registers. *)
  let p =
    List.fold_left
      (fun acc (c : Vekt_vm.Timing.block_cost) -> max acc c.max_gpr_pressure)
      0 t
  in
  Alcotest.(check bool) "pressure sane" true (p >= 1 && p <= 4)

(* --- Uniformity (thread-invariance) --- *)

let uniform ?(static_warps = false) f r =
  Affine.is_uniform (Affine.fixpoint ~static_warps f).(r)

let build_tid_kernel () =
  (* %a = ntid.x * ctaid.x (invariant); %b = a + tid.x (variant) *)
  let b = Builder.create "inv" in
  ignore (Builder.start_block b "entry");
  let u32 = Ty.scalar Ast.U32 in
  let ntid = Builder.emit_val b u32 (fun d -> Ir.Ctx_read (d, Ir.Ntid Ast.X, 0)) in
  let ctaid = Builder.emit_val b u32 (fun d -> Ir.Ctx_read (d, Ir.Ctaid Ast.X, 0)) in
  let a =
    Builder.emit_val b u32 (fun d -> Ir.Bin (Ast.Mul_lo, u32, d, Ir.R ntid, Ir.R ctaid))
  in
  let tid = Builder.emit_val b u32 (fun d -> Ir.Ctx_read (d, Ir.Tid Ast.X, 0)) in
  let v = Builder.emit_val b u32 (fun d -> Ir.Bin (Ast.Add, u32, d, Ir.R a, Ir.R tid)) in
  Builder.emit b (Ir.Store (Ast.Global, Ast.U32, Ir.R v, 0, Ir.R a));
  Builder.set_term b Ir.Return;
  (Builder.func b, a, tid, v)

let test_invariance_basic () =
  let f, a, tid, v = build_tid_kernel () in
  Alcotest.(check bool) "block-index product invariant" true (uniform f a);
  Alcotest.(check bool) "tid variant" false (uniform f tid);
  Alcotest.(check bool) "variance propagates" false (uniform f v)

let test_invariance_tid_y_static () =
  let b = Builder.create "inv" in
  ignore (Builder.start_block b "entry");
  let u32 = Ty.scalar Ast.U32 in
  let ty = Builder.emit_val b u32 (fun d -> Ir.Ctx_read (d, Ir.Tid Ast.Y, 0)) in
  Builder.emit b (Ir.Store (Ast.Global, Ast.U32, imm 0, 0, Ir.R ty));
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  Alcotest.(check bool) "tid.y variant dynamically" false (uniform f ty);
  Alcotest.(check bool) "tid.y invariant under static warps" true
    (uniform ~static_warps:true f ty)

let test_invariance_loads () =
  (* every lane of a warp that loads one address at one point reads one
     value; a load from a per-lane address does not *)
  let b = Builder.create "inv" in
  ignore (Builder.start_block b "entry");
  let pl = Builder.emit_val b (Ty.scalar Ast.U64) (fun d ->
      Ir.Load (Ast.Param, Ast.U64, d, imm 0, 0)) in
  let gl = Builder.emit_val b (Ty.scalar Ast.F32) (fun d ->
      Ir.Load (Ast.Global, Ast.F32, d, Ir.R pl, 0)) in
  let lb = Builder.emit_val b (Ty.scalar Ast.U64) (fun d ->
      Ir.Ctx_read (d, Ir.Local_base, 0)) in
  let ll = Builder.emit_val b (Ty.scalar Ast.F32) (fun d ->
      Ir.Load (Ast.Local, Ast.F32, d, Ir.R lb, 0)) in
  Builder.emit b (Ir.Store (Ast.Global, Ast.F32, Ir.R pl, 0, Ir.R gl));
  Builder.emit b (Ir.Store (Ast.Global, Ast.F32, Ir.R pl, 4, Ir.R ll));
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  Alcotest.(check bool) "param load invariant" true (uniform f pl);
  Alcotest.(check bool) "global load from a uniform address invariant" true (uniform f gl);
  Alcotest.(check bool) "thread-local load variant" false (uniform f ll)

let test_invariance_self_defined () =
  (* %r = %r + tid.x and %c = %c + 1 are read before their definitions, so
     each also holds its initial zero: %r varies and taints %q, whose other
     definition is a constant; %c stays uniform *)
  let b = Builder.create "inv" in
  ignore (Builder.start_block b "entry");
  let u32 = Ty.scalar Ast.U32 in
  let tid = Builder.emit_val b u32 (fun d -> Ir.Ctx_read (d, Ir.Tid Ast.X, 0)) in
  let r = Builder.fresh_reg b u32 and c = Builder.fresh_reg b u32 in
  let q = Builder.fresh_reg b u32 in
  Builder.emit b (Ir.Mov (u32, q, imm 5));
  Builder.emit b (Ir.Bin (Ast.Add, u32, r, Ir.R r, Ir.R tid));
  Builder.emit b (Ir.Bin (Ast.Add, u32, c, Ir.R c, imm 1));
  Builder.emit b (Ir.Mov (u32, q, Ir.R r));
  Builder.emit b (Ir.Store (Ast.Global, Ast.U32, Ir.R q, 0, Ir.R c));
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  Alcotest.(check bool) "self-defined from tid variant" false (uniform f r);
  Alcotest.(check bool) "its join with a constant variant" false (uniform f q);
  Alcotest.(check bool) "self-defined counter invariant" true (uniform f c)

let test_invariant_fraction () =
  let f, _, _, _ = build_tid_kernel () in
  let frac = Affine.invariant_fraction ~static_warps:false f in
  Alcotest.(check bool) "fraction in (0,1)" true (frac > 0.0 && frac < 1.0)

let test_uniform_branches () =
  let b = Builder.create "ub" in
  ignore (Builder.start_block b "entry");
  let u32 = Ty.scalar Ast.U32 in
  let n = Builder.emit_val b u32 (fun d -> Ir.Ctx_read (d, Ir.Ntid Ast.X, 0)) in
  let p = Builder.emit_val b (Ty.scalar Ast.Pred) (fun d ->
      Ir.Cmp (Ast.Gt, u32, d, Ir.R n, imm 64)) in
  Builder.set_term b (Ir.Branch (Ir.R p, "a", "b"));
  ignore (Builder.start_block b "a");
  Builder.set_term b Ir.Return;
  ignore (Builder.start_block b "b");
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  Alcotest.(check (list string)) "entry branch uniform" [ "entry" ]
    (Affine.uniform_branches f)

let () =
  Alcotest.run "ir"
    [
      ("ty", [ Alcotest.test_case "basics" `Quick test_ty_basics ]);
      ( "structure",
        [
          Alcotest.test_case "entry first" `Quick test_builder_entry_is_first;
          Alcotest.test_case "succs/preds" `Quick test_successors_and_preds;
          Alcotest.test_case "def/uses" `Quick test_def_uses;
          Alcotest.test_case "reg_ty unknown" `Quick test_reg_ty_unknown;
          Alcotest.test_case "map/with_def" `Quick test_map_operands_with_def;
          Alcotest.test_case "large build is linear" `Quick
            test_builder_large_linear;
        ] );
      ( "verify",
        [
          Alcotest.test_case "clean" `Quick test_verify_clean;
          Alcotest.test_case "bad target" `Quick test_verify_bad_target;
          Alcotest.test_case "type mismatch" `Quick test_verify_type_mismatch;
          Alcotest.test_case "diagnostics exact" `Quick test_verify_diagnostics_exact;
          Alcotest.test_case "lane bounds" `Quick test_verify_lane_bounds;
          Alcotest.test_case "vector select" `Quick test_verify_vector_cond_select;
          Alcotest.test_case "scalar cond rejected" `Quick
            test_verify_scalar_cond_on_vector_select;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "diamond" `Quick test_liveness_diamond;
          Alcotest.test_case "loop" `Quick test_liveness_loop;
          Alcotest.test_case "per instruction" `Quick test_liveness_per_instruction;
          Alcotest.test_case "pressure" `Quick test_max_pressure;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "basic" `Quick test_invariance_basic;
          Alcotest.test_case "tid.y static" `Quick test_invariance_tid_y_static;
          Alcotest.test_case "loads" `Quick test_invariance_loads;
          Alcotest.test_case "self-defined" `Quick test_invariance_self_defined;
          Alcotest.test_case "fraction" `Quick test_invariant_fraction;
          Alcotest.test_case "uniform branches" `Quick test_uniform_branches;
        ] );
    ]
