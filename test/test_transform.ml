(* Tests for the compilation transforms: if-conversion, PTX→IR translation,
   the divergence plan, the vectorizer (Algorithms 1-4) and DCE. *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty
module Verify = Vekt_ir.Verify
module Ifconv = Vekt_transform.Ifconv
module Ptx_to_ir = Vekt_transform.Ptx_to_ir
module Plan = Vekt_transform.Plan
module Vectorize = Vekt_transform.Vectorize
module Dce = Vekt_transform.Dce
module Liveness = Vekt_analysis.Liveness
module ISet = Set.Make (Int)
open Vekt_ptx

let parse src = Parser.parse_module src
let kernel_of src =
  match (parse src).Ast.m_kernels with
  | [ k ] -> k
  | ks -> Alcotest.failf "kernel_of: %d kernels" (List.length ks)

(* --- Ifconv --- *)

let test_ifconv_arith_to_selp () =
  let k =
    kernel_of
      {|.entry k () { .reg .pred %p; .reg .u32 %r;
         @%p add.u32 %r, %r, 1; exit; }|}
  in
  let k' = Ifconv.run k in
  Alcotest.(check bool) "clean" true (Ifconv.is_clean k');
  (* add into temp + selp *)
  match k'.Ast.k_body with
  | [ Ast.Inst (Ast.Always, Ast.Binary (Ast.Add, _, t, _, _), _);
      Ast.Inst (Ast.Always, Ast.Selp (_, "%r", Ast.Reg t', Ast.Reg "%r", "%p"), _); _ ] ->
      Alcotest.(check string) "selp takes temp when guard true" t t'
  | _ -> Alcotest.fail "unexpected if-conversion shape"

let test_ifconv_negated_guard () =
  let k =
    kernel_of
      {|.entry k () { .reg .pred %p; .reg .u32 %r;
         @!%p mov.u32 %r, 7; exit; }|}
  in
  let k' = Ifconv.run k in
  match k'.Ast.k_body with
  | [ _; Ast.Inst (Ast.Always, Ast.Selp (_, "%r", Ast.Reg "%r", Ast.Reg _, "%p"), _); _ ] ->
      ()
  | _ -> Alcotest.fail "negated guard should select old value when p is true"

let test_ifconv_store_diamond () =
  let k =
    kernel_of
      {|.entry k (.param .u64 out) { .reg .pred %p; .reg .u64 %a; .reg .u32 %r;
         ld.param.u64 %a, [out];
         @%p st.global.u32 [%a], %r; exit; }|}
  in
  let k' = Ifconv.run k in
  Alcotest.(check bool) "clean" true (Ifconv.is_clean k');
  (* A branch around the store must have been introduced. *)
  let has_branch =
    List.exists
      (function Ast.Inst ((Ast.If _ | Ast.Ifnot _), Ast.Bra _, _) -> true | _ -> false)
      k'.Ast.k_body
  in
  Alcotest.(check bool) "diamond" true has_branch;
  (* And the transformed kernel must still typecheck and build a CFG. *)
  Alcotest.(check int) "typechecks" 0 (List.length (Typecheck.check_kernel k'));
  ignore (Cfg.of_kernel k')

let test_ifconv_guarded_setp_diamond () =
  let k =
    kernel_of
      {|.entry k () { .reg .pred %p, %q; .reg .u32 %r;
         @%p setp.eq.u32 %q, %r, 0; exit; }|}
  in
  let k' = Ifconv.run k in
  Alcotest.(check bool) "clean" true (Ifconv.is_clean k')

let test_ifconv_semantics_preserved () =
  (* Same results from emulator before and after the transform. *)
  let src =
    {|
.entry k (.param .u64 out)
{
  .reg .u32 %tid, %v; .reg .u64 %o, %off; .reg .pred %p;
  mov.u32 %tid, %tid.x;
  setp.gt.u32 %p, %tid, 3;
  mov.u32 %v, 10;
  @%p add.u32 %v, %v, 100;
  @!%p mul.lo.u32 %v, %v, 3;
  ld.param.u64 %o, [out];
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  add.u64 %o, %o, %off;
  st.global.u32 [%o], %v;
  exit;
}
|}
  in
  let m = parse src in
  let k' = Ifconv.run (List.hd m.Ast.m_kernels) in
  let m' = { m with Ast.m_kernels = [ k' ] } in
  let run m =
    let g = Mem.create 32 in
    ignore
      (Emulator.run m ~kernel:"k" ~args:[ Launch.Ptr 0 ] ~global:g
         ~grid:(Launch.dim3 1) ~block:(Launch.dim3 8));
    Mem.read_i32s g ~at:0 8
  in
  Alcotest.(check (list int)) "same results" (run m) (run m')

(* --- Ptx_to_ir --- *)

let vecadd_src =
  {|
.entry vecadd (.param .u64 a, .param .u64 c, .param .u32 n)
{
  .reg .u32 %i, %n; .reg .u64 %pa, %pc, %off; .reg .f32 %x; .reg .pred %p;
  mov.u32 %i, %tid.x;
  ld.param.u32 %n, [n];
  setp.ge.u32 %p, %i, %n;
  @%p bra DONE;
  cvt.u64.u32 %off, %i;
  shl.b64 %off, %off, 2;
  ld.param.u64 %pa, [a];
  ld.param.u64 %pc, [c];
  add.u64 %pa, %pa, %off;
  add.u64 %pc, %pc, %off;
  ld.global.f32 %x, [%pa];
  st.global.f32 [%pc], %x;
DONE:
  exit;
}
|}

let test_translate_verifies () =
  let tr = Ptx_to_ir.frontend (parse vecadd_src) ~kernel:"vecadd" in
  Alcotest.(check int) "verifier clean" 0
    (List.length (Verify.check_func tr.Ptx_to_ir.func));
  Alcotest.(check int) "warp 1" 1 tr.Ptx_to_ir.func.Ir.warp_size

let test_translate_specials_to_ctx () =
  let tr = Ptx_to_ir.frontend (parse vecadd_src) ~kernel:"vecadd" in
  let has_tid_read =
    List.exists
      (fun (b : Ir.block) ->
        List.exists
          (function
            | { Ir.i = Ir.Ctx_read (_, Ir.Tid Ast.X, 0); _ } -> true | _ -> false)
          b.Ir.insts)
      (Ir.blocks tr.Ptx_to_ir.func)
  in
  Alcotest.(check bool) "tid.x becomes ctx read" true has_tid_read

let test_translate_terminators () =
  let src =
    {|.entry k () { .reg .u32 %r; L: add.u32 %r, %r, 1; bar.sync 0; bra L; }|}
  in
  let tr = Ptx_to_ir.frontend (parse src) ~kernel:"k" in
  let terms = List.map (fun b -> b.Ir.term) (Ir.blocks tr.Ptx_to_ir.func) in
  Alcotest.(check bool) "has barrier" true
    (List.exists (function Ir.Barrier _ -> true | _ -> false) terms)

let test_translate_local_rebased () =
  let src =
    {|.entry k () { .local .u32 scratch[4]; .reg .u64 %a; .reg .u32 %v;
       mov.u64 %a, scratch; st.local.u32 [%a], 3; ld.local.u32 %v, [%a]; exit; }|}
  in
  let tr = Ptx_to_ir.frontend (parse src) ~kernel:"k" in
  Alcotest.(check int) "local bytes" 16 tr.Ptx_to_ir.local_decl_bytes;
  (* Local accesses read Local_base from the context. *)
  let base_reads =
    List.fold_left
      (fun acc (b : Ir.block) ->
        acc
        + List.length
            (List.filter
               (function
                 | { Ir.i = Ir.Ctx_read (_, Ir.Local_base, _); _ } -> true
                 | _ -> false)
               b.Ir.insts))
      0 (Ir.blocks tr.Ptx_to_ir.func)
  in
  Alcotest.(check int) "one base read per access" 2 base_reads

let test_translate_rejects_guards () =
  (* frontend if-converts, so guards never reach translate; but calling
     translate directly with a guarded kernel must fail. *)
  let k =
    kernel_of {|.entry k () { .reg .pred %p; .reg .u32 %r; @%p add.u32 %r, %r, 1; exit; }|}
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Ptx_to_ir.translate { Ast.m_consts = []; m_funcs = []; m_kernels = [ k ] } k);
       false
     with Ptx_to_ir.Unsupported _ -> true)

(* --- Plan --- *)

let test_plan_entry_ids () =
  let tr = Ptx_to_ir.frontend (parse vecadd_src) ~kernel:"vecadd" in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:0 in
  (* entry (id 0) + two branch successors *)
  Alcotest.(check int) "three entries" 3 (List.length plan.Plan.entry_ids);
  Alcotest.(check (option int)) "entry is 0" (Some 0)
    (Plan.id_of_label plan tr.Ptx_to_ir.func.Ir.entry);
  Alcotest.(check (option string)) "id 0 roundtrip"
    (Some tr.Ptx_to_ir.func.Ir.entry)
    (Plan.label_of_id plan 0)

let test_plan_slots_cover_live_ins () =
  let tr = Ptx_to_ir.frontend (parse vecadd_src) ~kernel:"vecadd" in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:0 in
  List.iter
    (fun (l, _) ->
      ISet.iter
        (fun r ->
          match Plan.slot plan r with
          | Some _ -> ()
          | None -> Alcotest.failf "live-in %%%d at %s has no slot" r l)
        (Plan.entry_live plan l))
    plan.Plan.entry_ids

let test_plan_slots_disjoint () =
  let tr = Ptx_to_ir.frontend (parse vecadd_src) ~kernel:"vecadd" in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:32 in
  let slots = Plan.slotted plan in
  List.iter
    (fun (r1, o1) ->
      let s1 = Ast.size_of (Ir.reg_ty tr.Ptx_to_ir.func r1).Ty.elt in
      Alcotest.(check bool) "after locals" true (o1 >= 32);
      List.iter
        (fun (r2, o2) ->
          if r1 <> r2 then
            let s2 = Ast.size_of (Ir.reg_ty tr.Ptx_to_ir.func r2).Ty.elt in
            Alcotest.(check bool) "no overlap" true (o1 + s1 <= o2 || o2 + s2 <= o1))
        slots)
    slots

(* --- Vectorize --- *)

let vectorized ?mode ws =
  let tr = Ptx_to_ir.frontend (parse vecadd_src) ~kernel:"vecadd" in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:0 in
  (tr, Vectorize.run ?mode ~plan tr.Ptx_to_ir.func ~ws)

let test_vectorize_verifies_all_widths () =
  List.iter
    (fun ws ->
      let _, v = vectorized ws in
      match Verify.check_func v.Vectorize.func with
      | [] -> ()
      | e :: _ -> Alcotest.failf "ws=%d: %s" ws e)
    [ 1; 2; 4; 8 ]

let test_vectorize_scheduler_first () =
  let _, v = vectorized 4 in
  let f = v.Vectorize.func in
  let entry = Ir.block f f.Ir.entry in
  Alcotest.(check bool) "entry is scheduler" true (entry.Ir.kind = Ir.Scheduler);
  match entry.Ir.term with
  | Ir.Switch (_, cases, _) ->
      Alcotest.(check int) "one case per entry point" (List.length v.Vectorize.entry_ids)
        (List.length cases)
  | _ -> Alcotest.fail "scheduler must switch on entry id"

let test_vectorize_divergence_check () =
  let _, v = vectorized 4 in
  let f = v.Vectorize.func in
  (* The block with the bounds check must end in switch(sum) with cases 0
     and 4 and an exit-handler default. *)
  let found =
    List.exists
      (fun (b : Ir.block) ->
        match b.Ir.term with
        | Ir.Switch (_, [ (0, _); (4, _) ], d) ->
            (Ir.block f d).Ir.kind = Ir.Exit_handler
        | _ -> false)
      (Ir.blocks f)
  in
  Alcotest.(check bool) "sum switch present" true found

let test_vectorize_vector_ops_present () =
  let _, v = vectorized 4 in
  let has_vec_op =
    List.exists
      (fun (b : Ir.block) ->
        List.exists
          (function
            | { Ir.i = Ir.Cmp (_, ty, _, _, _); _ } -> ty.Ty.width = 4
            | _ -> false)
          b.Ir.insts)
      (Ir.blocks v.Vectorize.func)
  in
  Alcotest.(check bool) "4-wide compare promoted" true has_vec_op

let test_vectorize_loads_stay_scalar () =
  List.iter
    (fun ws ->
      let _, v = vectorized ws in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun ({ Ir.i; _ } : Ir.li) ->
              match i with
              | Ir.Load (_, _, _, base, _) | Ir.Store (_, _, base, _, _) -> (
                  match base with
                  | Ir.R r ->
                      Alcotest.(check int) "scalar base" 1
                        (Ir.reg_ty v.Vectorize.func r).Ty.width
                  | Ir.Imm _ -> ())
              | _ -> ())
            b.Ir.insts)
        (Ir.blocks v.Vectorize.func))
    [ 2; 4 ]

let test_vectorize_ws1_structure () =
  let _, v = vectorized 1 in
  (* Scalar specialization: no vector types anywhere. *)
  let f = v.Vectorize.func in
  for r = 0 to f.Ir.nregs - 1 do
    Alcotest.(check int) "width 1" 1 (Ir.reg_ty f r).Ty.width
  done

let test_vectorize_exit_sets_status () =
  let _, v = vectorized 4 in
  List.iter
    (fun (b : Ir.block) ->
      if b.Ir.term = Ir.Return then
        Alcotest.(check bool)
          (Fmt.str "%s sets status" b.Ir.label)
          true
          (List.exists
             (function { Ir.i = Ir.Set_status _; _ } -> true | _ -> false)
             b.Ir.insts))
    (Ir.blocks v.Vectorize.func)

let test_vectorize_restores_match_plan () =
  let tr, v = vectorized 4 in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:0 in
  List.iter
    (fun (id, count) ->
      match Plan.label_of_id plan id with
      | None -> Alcotest.fail "unknown entry id"
      | Some l ->
          Alcotest.(check int)
            (Fmt.str "restores at entry %d" id)
            (ISet.cardinal (Plan.entry_live plan l))
            count)
    v.Vectorize.restores_per_entry

let test_vectorize_static_uniform_branch () =
  (* Under TIE, the bounds check (tid-free in a 1-thread-per-lane uniform
     sense) stays divergent, but a branch on ntid must become uniform. *)
  let src =
    {|
.entry k (.param .u64 out)
{
  .reg .u32 %n, %v; .reg .u64 %o; .reg .pred %p;
  mov.u32 %n, %ntid.x;
  setp.gt.u32 %p, %n, 64;
  @%p bra BIG;
  mov.u32 %v, 1;
  bra OUT;
BIG:
  mov.u32 %v, 2;
OUT:
  ld.param.u64 %o, [out];
  st.global.u32 [%o], %v;
  exit;
}
|}
  in
  let tr = Ptx_to_ir.frontend (parse src) ~kernel:"k" in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:0 in
  let v = Vectorize.run ~mode:Vectorize.Static_tie ~plan tr.Ptx_to_ir.func ~ws:4 in
  Verify.check_exn v.Vectorize.func;
  let has_uniform_branch =
    List.exists
      (fun (b : Ir.block) ->
        match b.Ir.term with Ir.Branch _ -> true | _ -> false)
      (Ir.blocks v.Vectorize.func)
  in
  Alcotest.(check bool) "uniform branch kept scalar" true has_uniform_branch

let test_vectorize_static_fewer_instrs () =
  let _, dyn = vectorized ~mode:Vectorize.Dynamic 4 in
  let _, sta = vectorized ~mode:Vectorize.Static_tie 4 in
  ignore (Dce.run dyn.Vectorize.func);
  ignore (Dce.run sta.Vectorize.func);
  Alcotest.(check bool) "TIE reduces static instructions" true
    (Ir.size sta.Vectorize.func < Ir.size dyn.Vectorize.func)

(* --- DCE --- *)

let test_dce_removes_dead_pure () =
  let b = Vekt_ir.Builder.create "d" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let s32 = Ty.scalar Ast.S32 in
  let dead = Vekt_ir.Builder.fresh_reg b s32 in
  Vekt_ir.Builder.emit b (Ir.Mov (s32, dead, Ir.Imm (Scalar_ops.I 5L, Ast.S32)));
  let live = Vekt_ir.Builder.fresh_reg b s32 in
  Vekt_ir.Builder.emit b (Ir.Mov (s32, live, Ir.Imm (Scalar_ops.I 6L, Ast.S32)));
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, Ir.Imm (Scalar_ops.I 0L, Ast.S64), 0, Ir.R live));
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  let removed = Dce.run f in
  Alcotest.(check int) "one removed" 1 removed;
  Alcotest.(check int) "two remain" 2 (Ir.size f)

let test_dce_transitive () =
  let b = Vekt_ir.Builder.create "d" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let s32 = Ty.scalar Ast.S32 in
  let a = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Mov (s32, d, Ir.Imm (Scalar_ops.I 1L, Ast.S32))) in
  let c = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Add, s32, d, Ir.R a, Ir.R a)) in
  ignore c;
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  Alcotest.(check int) "both removed" 2 (Dce.run f)

let test_dce_keeps_side_effects () =
  let b = Vekt_ir.Builder.create "d" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let s32 = Ty.scalar Ast.S32 in
  let old = Vekt_ir.Builder.fresh_reg b s32 in
  (* atomic's destination is dead but the RMW must stay *)
  Vekt_ir.Builder.emit b
    (Ir.Atomic (Ast.Global, Ast.Atom_add, Ast.S32, old,
                Ir.Imm (Scalar_ops.I 0L, Ast.S64), 0, Ir.Imm (Scalar_ops.I 1L, Ast.S32), None));
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  Alcotest.(check int) "nothing removed" 0 (Dce.run f)


(* --- Constfold / CSE / Fusion / Passes --- *)

module Constfold = Vekt_transform.Constfold
module Cse = Vekt_transform.Cse
module Fusion = Vekt_transform.Fusion
module Passes = Vekt_transform.Passes

let s32 = Ty.scalar Ast.S32
let imm n = Ir.Imm (Scalar_ops.I (Int64.of_int n), Ast.S32)

let test_constfold_arith () =
  let b = Vekt_ir.Builder.create "cf" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let x = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Mov (s32, d, imm 6)) in
  let y = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Mul_lo, s32, d, Ir.R x, imm 7)) in
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 0, 0, Ir.R y));
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  let st = Constfold.run f in
  Alcotest.(check int) "folded" 1 st.Constfold.folded;
  (* y must now be a constant move of 42 *)
  let has42 =
    List.exists
      (function
        | { Ir.i = Ir.Mov (_, d, Ir.Imm (Scalar_ops.I 42L, _)); _ } -> d = y
        | _ -> false)
      (Ir.block f "entry").Ir.insts
  in
  Alcotest.(check bool) "42" true has42

(* A substitution alone is a change: a fixpoint pipeline must not stop
   after a round that rewrote an operand to an immediate. *)
let test_constfold_substitution_counts () =
  let store_of_const () =
    let b = Vekt_ir.Builder.create "cf" in
    ignore (Vekt_ir.Builder.start_block b "entry");
    let x = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Mov (s32, d, imm 6)) in
    Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 0, 0, Ir.R x));
    Vekt_ir.Builder.set_term b Ir.Return;
    Vekt_ir.Builder.func b
  in
  let st = Constfold.run (store_of_const ()) in
  Alcotest.(check int) "substituted" 1 st.Constfold.substituted;
  Alcotest.(check int) "folded" 0 st.Constfold.folded;
  let pass = Option.get (Passes.find_pass "constfold") in
  Alcotest.(check int) "one change reported" 1 (pass.Passes.run (store_of_const ()))

let test_constfold_kill_on_redef () =
  let b = Vekt_ir.Builder.create "cf" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let x = Vekt_ir.Builder.fresh_reg b s32 in
  Vekt_ir.Builder.emit b (Ir.Mov (s32, x, imm 6));
  (* redefinition from memory: x is no longer constant *)
  Vekt_ir.Builder.emit b (Ir.Load (Ast.Global, Ast.S32, x, imm 0, 0));
  let y = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Add, s32, d, Ir.R x, imm 1)) in
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 8, 0, Ir.R y));
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  let st = Constfold.run f in
  Alcotest.(check int) "nothing folded" 0 st.Constfold.folded

let test_constfold_branch () =
  let b = Vekt_ir.Builder.create "cf" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let p = Vekt_ir.Builder.emit_val b (Ty.scalar Ast.Pred) (fun d ->
      Ir.Cmp (Ast.Lt, s32, d, imm 1, imm 2)) in
  Vekt_ir.Builder.set_term b (Ir.Branch (Ir.R p, "a", "bb"));
  ignore (Vekt_ir.Builder.start_block b "a");
  Vekt_ir.Builder.set_term b Ir.Return;
  ignore (Vekt_ir.Builder.start_block b "bb");
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  let st = Constfold.run f in
  Alcotest.(check int) "branch folded" 1 st.Constfold.branches_folded;
  Alcotest.(check bool) "now a jump" true
    ((Ir.block f "entry").Ir.term = Ir.Jump "a")

let test_cse_basic () =
  let b = Vekt_ir.Builder.create "cse" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let x = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Load (Ast.Global, Ast.S32, d, imm 0, 0)) in
  let a = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Add, s32, d, Ir.R x, imm 3)) in
  let c = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Add, s32, d, Ir.R x, imm 3)) in
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 8, 0, Ir.R a));
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 16, 0, Ir.R c));
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  Alcotest.(check int) "one replaced" 1 (Cse.run f);
  let is_copy =
    List.exists
      (function
        | { Ir.i = Ir.Mov (_, d, Ir.R s); _ } -> d = c && s = a | _ -> false)
      (Ir.block f "entry").Ir.insts
  in
  Alcotest.(check bool) "copy of first" true is_copy

let test_cse_signed_zeros () =
  (* x + 0.0 and x + -0.0 differ (-0.0 + -0.0 is -0.0), so only the
     repeated x + 0.0 collapses. *)
  let f32 = Ty.scalar Ast.F32 in
  let fimm v = Ir.Imm (Scalar_ops.F v, Ast.F32) in
  let b = Vekt_ir.Builder.create "cse" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let x =
    Vekt_ir.Builder.emit_val b f32 (fun d -> Ir.Load (Ast.Global, Ast.F32, d, imm 0, 0))
  in
  let add z = Vekt_ir.Builder.emit_val b f32 (fun d -> Ir.Bin (Ast.Add, f32, d, Ir.R x, fimm z)) in
  let pos = add 0.0 in
  let neg = add (-0.0) in
  let pos' = add 0.0 in
  List.iteri
    (fun k r -> Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.F32, imm (4 * (k + 1)), 0, Ir.R r)))
    [ pos; neg; pos' ];
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  Alcotest.(check int) "only the repeat replaced" 1 (Cse.run f);
  let copies =
    List.filter_map
      (function { Ir.i = Ir.Mov (_, d, Ir.R s); _ } -> Some (d, s) | _ -> None)
      (Ir.block f "entry").Ir.insts
  in
  Alcotest.(check (list (pair int int))) "copy of the +0.0 sum" [ (pos', pos) ] copies

let test_cse_respects_redefinition () =
  (* non-SSA: x is redefined between the two identical expressions, so the
     second must NOT be replaced. *)
  let b = Vekt_ir.Builder.create "cse" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let x = Vekt_ir.Builder.fresh_reg b s32 in
  Vekt_ir.Builder.emit b (Ir.Mov (s32, x, imm 1));
  let a = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Add, s32, d, Ir.R x, imm 3)) in
  Vekt_ir.Builder.emit b (Ir.Mov (s32, x, imm 2));
  let c = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Add, s32, d, Ir.R x, imm 3)) in
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 8, 0, Ir.R a));
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 16, 0, Ir.R c));
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  Alcotest.(check int) "nothing replaced" 0 (Cse.run f)

let test_cse_result_clobbered () =
  (* the previous result register is overwritten before the reuse point *)
  let b = Vekt_ir.Builder.create "cse" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let x = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Mov (s32, d, imm 1)) in
  let a = Vekt_ir.Builder.fresh_reg b s32 in
  Vekt_ir.Builder.emit b (Ir.Bin (Ast.Add, s32, a, Ir.R x, imm 3));
  Vekt_ir.Builder.emit b (Ir.Load (Ast.Global, Ast.S32, a, imm 0, 0));
  let c = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Add, s32, d, Ir.R x, imm 3)) in
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 8, 0, Ir.R a));
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 16, 0, Ir.R c));
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  Alcotest.(check int) "nothing replaced" 0 (Cse.run f)

let test_cse_many_redefinitions () =
  (* A key holds each operand's register and version apart, so %0 at
     its 1,000,001st version is not %1 at its first, however many times
     the block redefines %0. *)
  let b = Vekt_ir.Builder.create "cse" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let x = Vekt_ir.Builder.fresh_reg b s32 in
  let y = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Load (Ast.Global, Ast.S32, d, imm 0, 0)) in
  Vekt_ir.Builder.emit b (Ir.Mov (s32, x, imm 1));
  let a = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Add, s32, d, Ir.R y, imm 3)) in
  let c = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Add, s32, d, Ir.R x, imm 3)) in
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 8, 0, Ir.R a));
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 16, 0, Ir.R c));
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  Alcotest.(check (pair int int)) "registers" (0, 1) (x, y);
  let entry = Ir.block f "entry" in
  (match entry.Ir.insts with
  | load :: mov :: rest ->
      entry.Ir.insts <- load :: List.rev_append (List.init 1_000_001 (fun _ -> mov)) rest
  | _ -> assert false);
  Alcotest.(check int) "nothing replaced" 0 (Cse.run f)

let test_fusion_chain () =
  let b = Vekt_ir.Builder.create "fuse" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let x = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Mov (s32, d, imm 1)) in
  Vekt_ir.Builder.set_term b (Ir.Jump "mid");
  ignore (Vekt_ir.Builder.start_block b "mid");
  let y = Vekt_ir.Builder.emit_val b s32 (fun d -> Ir.Bin (Ast.Add, s32, d, Ir.R x, imm 1)) in
  Vekt_ir.Builder.set_term b (Ir.Jump "last");
  ignore (Vekt_ir.Builder.start_block b "last");
  Vekt_ir.Builder.emit b (Ir.Store (Ast.Global, Ast.S32, imm 0, 0, Ir.R y));
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  Alcotest.(check int) "two fused" 2 (Fusion.run f);
  Alcotest.(check int) "one block" 1 (List.length (Ir.blocks f));
  Alcotest.(check int) "verifies" 0 (List.length (Verify.check_func f))

let test_fusion_respects_kinds () =
  let b = Vekt_ir.Builder.create "fuse" in
  ignore (Vekt_ir.Builder.start_block b ~kind:Ir.Entry_handler "entry");
  Vekt_ir.Builder.set_term b (Ir.Jump "body");
  ignore (Vekt_ir.Builder.start_block b "body");
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  Alcotest.(check int) "no fusion across kinds" 0 (Fusion.run f)

let test_fusion_multiple_preds () =
  let b = Vekt_ir.Builder.create "fuse" in
  ignore (Vekt_ir.Builder.start_block b "entry");
  let p = Vekt_ir.Builder.fresh_reg b (Ty.scalar Ast.Pred) in
  Vekt_ir.Builder.emit b (Ir.Cmp (Ast.Lt, s32, p, imm 1, imm 2));
  Vekt_ir.Builder.set_term b (Ir.Branch (Ir.R p, "a", "bb"));
  ignore (Vekt_ir.Builder.start_block b "a");
  Vekt_ir.Builder.set_term b (Ir.Jump "join");
  ignore (Vekt_ir.Builder.start_block b "bb");
  Vekt_ir.Builder.set_term b (Ir.Jump "join");
  ignore (Vekt_ir.Builder.start_block b "join");
  Vekt_ir.Builder.set_term b Ir.Return;
  let f = Vekt_ir.Builder.func b in
  Alcotest.(check int) "join not fused" 0 (Fusion.run f)

let test_passes_semantics_preserved () =
  (* optimize must not change results of a whole-pipeline run; this is also
     covered by the pipeline differential suite, but here we check the
     pass-pipeline on the raw scalar translation. *)
  let tr = Ptx_to_ir.frontend (parse vecadd_src) ~kernel:"vecadd" in
  let st = Passes.optimize tr.Ptx_to_ir.func in
  Alcotest.(check bool) "did something or nothing, but verified" true
    (Passes.changes_of st "dce" >= 0);
  Alcotest.(check int) "verifies after passes" 0
    (List.length (Verify.check_func tr.Ptx_to_ir.func))


(* --- Affine analysis & coalesced memory accesses --- *)

module Affine = Vekt_analysis.Affine

let classify_of src ~kernel =
  let tr = Ptx_to_ir.frontend (parse src) ~kernel in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:0 in
  let slotted = List.map fst (Plan.slotted plan) in
  (tr, plan, Affine.classify ~static_warps:true ~slotted tr.Ptx_to_ir.func)

let cls_of tr cls name = cls.(Hashtbl.find tr.Ptx_to_ir.reg_map name)

let test_affine_straightline () =
  let src =
    {|.entry k (.param .u64 p)
      { .reg .u32 %t; .reg .u64 %a, %o; .reg .f32 %v;
        mov.u32 %t, %tid.x;
        cvt.u64.u32 %o, %t;
        shl.b64 %o, %o, 2;
        ld.param.u64 %a, [p];
        add.u64 %a, %a, %o;
        ld.global.f32 %v, [%a];
        st.global.f32 [%a], %v;
        exit; }|}
  in
  let tr, _, cls = classify_of src ~kernel:"k" in
  Alcotest.(check bool) "tid affine 1" true
    (Affine.equal_cls (cls_of tr cls "%t") (Affine.Affine 1L));
  (* %a and %o are redefined, so the flow-insensitive class degrades — the
     vectorizer's per-block refinement recovers them (tested below) *)
  Alcotest.(check bool) "param base uniform before add" true
    (cls_of tr cls "%a" <> Affine.Affine 4L)

let test_affine_transfer_local () =
  (* the transfer function itself computes the refined classes *)
  let get = function 0 -> Affine.Affine 1L | 1 -> Affine.Uniform | _ -> Affine.Unknown in
  let s32t = Ty.scalar Ast.S32 in
  Alcotest.(check bool) "add" true
    (Affine.equal_cls
       (Affine.transfer ~static_warps:true ~get (Ir.Bin (Ast.Add, s32t, 9, Ir.R 0, Ir.R 1)))
       (Affine.Affine 1L));
  Alcotest.(check bool) "shl" true
    (Affine.equal_cls
       (Affine.transfer ~static_warps:true ~get
          (Ir.Bin (Ast.Shl, s32t, 9, Ir.R 0, Ir.Imm (Scalar_ops.I 2L, Ast.U32))))
       (Affine.Affine 4L));
  Alcotest.(check bool) "mul by const" true
    (Affine.equal_cls
       (Affine.transfer ~static_warps:true ~get
          (Ir.Bin (Ast.Mul_lo, s32t, 9, Ir.Imm (Scalar_ops.I 12L, Ast.S32), Ir.R 0)))
       (Affine.Affine 12L));
  Alcotest.(check bool) "affine - affine is uniform" true
    (Affine.equal_cls
       (Affine.transfer ~static_warps:true ~get (Ir.Bin (Ast.Sub, s32t, 9, Ir.R 0, Ir.R 0)))
       Affine.Uniform);
  Alcotest.(check bool) "affine * affine unknown" true
    (Affine.equal_cls
       (Affine.transfer ~static_warps:true ~get (Ir.Bin (Ast.Mul_lo, s32t, 9, Ir.R 0, Ir.R 0)))
       Affine.Unknown);
  (* tid.y is warp-uniform only when warps are consecutive tid.x threads
     of one row; dynamic formation mixes rows in one warp *)
  let tid_y = Ir.Ctx_read (9, Ir.Tid Ast.Y, 0) in
  Alcotest.(check bool) "tid.y uniform under static warps" true
    (Affine.equal_cls (Affine.transfer ~static_warps:true ~get tid_y) Affine.Uniform);
  Alcotest.(check bool) "tid.y unknown under dynamic warps" true
    (Affine.equal_cls (Affine.transfer ~static_warps:false ~get tid_y) Affine.Unknown)

let vecadd_affine_src =
  {|
.entry va (.param .u64 a, .param .u64 c, .param .u32 n)
{
  .reg .u32 %i, %n; .reg .u64 %pa, %pc, %off; .reg .f32 %x; .reg .pred %p;
  mov.u32 %i, %tid.x;
  ld.param.u32 %n, [n];
  setp.ge.u32 %p, %i, %n;
  @%p bra DONE;
  cvt.u64.u32 %off, %i;
  shl.b64 %off, %off, 2;
  ld.param.u64 %pa, [a];
  ld.param.u64 %pc, [c];
  add.u64 %pa, %pa, %off;
  add.u64 %pc, %pc, %off;
  ld.global.f32 %x, [%pa];
  st.global.f32 [%pc], %x;
DONE:
  exit;
}
|}

let count_kind f pred =
  List.fold_left
    (fun acc (b : Ir.block) ->
      acc
      + List.length
          (List.filter (fun ({ Ir.i; _ } : Ir.li) -> pred i) b.Ir.insts))
    0 (Ir.blocks f)

let test_affine_vectorize_emits_vload () =
  let tr = Ptx_to_ir.frontend (parse vecadd_affine_src) ~kernel:"va" in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:0 in
  let v =
    Vectorize.run ~mode:Vectorize.Static_tie ~affine:true ~plan tr.Ptx_to_ir.func ~ws:4
  in
  Verify.check_exn v.Vectorize.func;
  Alcotest.(check int) "one vload" 1
    (count_kind v.Vectorize.func (function Ir.Vload _ -> true | _ -> false));
  Alcotest.(check int) "one vstore" 1
    (count_kind v.Vectorize.func (function Ir.Vstore _ -> true | _ -> false));
  Alcotest.(check int) "no scalar global loads remain" 0
    (count_kind v.Vectorize.func (function
      | Ir.Load (Ast.Global, _, _, _, _) -> true
      | _ -> false))

let test_affine_dynamic_no_vload () =
  (* dynamic warps are not consecutive, so affine vector loads must not be
     emitted; uniform loads are still allowed *)
  let tr = Ptx_to_ir.frontend (parse vecadd_affine_src) ~kernel:"va" in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:0 in
  let v = Vectorize.run ~mode:Vectorize.Dynamic ~affine:true ~plan tr.Ptx_to_ir.func ~ws:4 in
  Verify.check_exn v.Vectorize.func;
  Alcotest.(check int) "no vloads" 0
    (count_kind v.Vectorize.func (function Ir.Vload _ | Ir.Vstore _ -> true | _ -> false))

let test_affine_off_no_vload () =
  let tr = Ptx_to_ir.frontend (parse vecadd_affine_src) ~kernel:"va" in
  let plan = Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:0 in
  let v = Vectorize.run ~mode:Vectorize.Static_tie ~plan tr.Ptx_to_ir.func ~ws:4 in
  Alcotest.(check int) "no vloads without the flag" 0
    (count_kind v.Vectorize.func (function Ir.Vload _ | Ir.Vstore _ -> true | _ -> false))

let () =
  Alcotest.run "transform"
    [
      ( "ifconv",
        [
          Alcotest.test_case "arith to selp" `Quick test_ifconv_arith_to_selp;
          Alcotest.test_case "negated guard" `Quick test_ifconv_negated_guard;
          Alcotest.test_case "store diamond" `Quick test_ifconv_store_diamond;
          Alcotest.test_case "guarded setp" `Quick test_ifconv_guarded_setp_diamond;
          Alcotest.test_case "semantics" `Quick test_ifconv_semantics_preserved;
        ] );
      ( "ptx_to_ir",
        [
          Alcotest.test_case "verifies" `Quick test_translate_verifies;
          Alcotest.test_case "specials" `Quick test_translate_specials_to_ctx;
          Alcotest.test_case "terminators" `Quick test_translate_terminators;
          Alcotest.test_case "local rebased" `Quick test_translate_local_rebased;
          Alcotest.test_case "rejects guards" `Quick test_translate_rejects_guards;
        ] );
      ( "plan",
        [
          Alcotest.test_case "entry ids" `Quick test_plan_entry_ids;
          Alcotest.test_case "slots cover live-ins" `Quick test_plan_slots_cover_live_ins;
          Alcotest.test_case "slots disjoint" `Quick test_plan_slots_disjoint;
        ] );
      ( "vectorize",
        [
          Alcotest.test_case "verifies all widths" `Quick test_vectorize_verifies_all_widths;
          Alcotest.test_case "scheduler first" `Quick test_vectorize_scheduler_first;
          Alcotest.test_case "divergence check" `Quick test_vectorize_divergence_check;
          Alcotest.test_case "vector ops" `Quick test_vectorize_vector_ops_present;
          Alcotest.test_case "loads scalar" `Quick test_vectorize_loads_stay_scalar;
          Alcotest.test_case "ws1 structure" `Quick test_vectorize_ws1_structure;
          Alcotest.test_case "exit status" `Quick test_vectorize_exit_sets_status;
          Alcotest.test_case "restores match plan" `Quick test_vectorize_restores_match_plan;
          Alcotest.test_case "static uniform branch" `Quick test_vectorize_static_uniform_branch;
          Alcotest.test_case "TIE fewer instrs" `Quick test_vectorize_static_fewer_instrs;
        ] );
      ( "dce",
        [
          Alcotest.test_case "dead pure" `Quick test_dce_removes_dead_pure;
          Alcotest.test_case "transitive" `Quick test_dce_transitive;
          Alcotest.test_case "side effects" `Quick test_dce_keeps_side_effects;
        ] );
      ( "constfold",
        [
          Alcotest.test_case "arith" `Quick test_constfold_arith;
          Alcotest.test_case "kill on redef" `Quick test_constfold_kill_on_redef;
          Alcotest.test_case "branch" `Quick test_constfold_branch;
          Alcotest.test_case "substitution counts" `Quick
            test_constfold_substitution_counts;
        ] );
      ( "cse",
        [
          Alcotest.test_case "basic" `Quick test_cse_basic;
          Alcotest.test_case "operand redefined" `Quick test_cse_respects_redefinition;
          Alcotest.test_case "result clobbered" `Quick test_cse_result_clobbered;
          Alcotest.test_case "signed zeros" `Quick test_cse_signed_zeros;
          Alcotest.test_case "many redefinitions" `Quick test_cse_many_redefinitions;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "chain" `Quick test_fusion_chain;
          Alcotest.test_case "kinds" `Quick test_fusion_respects_kinds;
          Alcotest.test_case "multiple preds" `Quick test_fusion_multiple_preds;
        ] );
      ( "passes",
        [ Alcotest.test_case "semantics preserved" `Quick test_passes_semantics_preserved ] );
      ( "affine",
        [
          Alcotest.test_case "straightline" `Quick test_affine_straightline;
          Alcotest.test_case "transfer" `Quick test_affine_transfer_local;
          Alcotest.test_case "vload emitted" `Quick test_affine_vectorize_emits_vload;
          Alcotest.test_case "dynamic no vload" `Quick test_affine_dynamic_no_vload;
          Alcotest.test_case "flag off" `Quick test_affine_off_no_vload;
        ] );
    ]
