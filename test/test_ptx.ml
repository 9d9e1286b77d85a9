(* Tests for the PTX frontend: lexer, parser, printer round-trip, type
   checker, CFG construction and the reference emulator. *)

open Vekt_ptx

(* the one kernel of a single-kernel module *)
let parse_kernel_exn src =
  match (Parser.parse_module src).Ast.m_kernels with
  | [ k ] -> k
  | ks -> Alcotest.failf "parse_kernel_exn: %d kernels" (List.length ks)

let vecadd_src =
  {|
.entry vecadd (.param .u64 a, .param .u64 b, .param .u64 c, .param .u32 n)
{
  .reg .u32 %r1, %r2, %r3, %r4, %n;
  .reg .u64 %rd1, %rd2, %rd3, %rd4, %off;
  .reg .f32 %f1, %f2, %f3;
  .reg .pred %p1;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ctaid.x;
  mov.u32 %r3, %ntid.x;
  mad.lo.u32 %r4, %r2, %r3, %r1;     // global thread index
  ld.param.u32 %n, [n];
  setp.ge.u32 %p1, %r4, %n;
  @%p1 bra DONE;

  cvt.u64.u32 %off, %r4;
  shl.b64 %off, %off, 2;
  ld.param.u64 %rd1, [a];
  ld.param.u64 %rd2, [b];
  ld.param.u64 %rd3, [c];
  add.u64 %rd1, %rd1, %off;
  add.u64 %rd2, %rd2, %off;
  add.u64 %rd4, %rd3, %off;
  ld.global.f32 %f1, [%rd1];
  ld.global.f32 %f2, [%rd2];
  add.f32 %f3, %f1, %f2;
  st.global.f32 [%rd4], %f3;

DONE:
  exit;
}
|}

let check_no_type_errors m =
  match Typecheck.check_module m with
  | [] -> ()
  | errs ->
      Alcotest.failf "type errors: %a" (Fmt.list ~sep:Fmt.comma Typecheck.pp_error) errs

(* --- Lexer --- *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "add.f32 %f1, %f2, 0f3f800000; // cmt" in
  let kinds = List.map fst toks in
  Alcotest.(check int) "token count" 8 (List.length kinds);
  (match kinds with
  | [ Ident "add.f32"; Ident "%f1"; Comma; Ident "%f2"; Comma; Float f; Semi; Eof ] ->
      Alcotest.(check (float 0.0)) "hex float" 1.0 f
  | _ -> Alcotest.fail "unexpected token stream")

let test_lexer_numbers () =
  let one tok src =
    match Lexer.tokenize src with
    | [ (t, _); (Lexer.Eof, _) ] -> Alcotest.(check bool) src true (t = tok)
    | _ -> Alcotest.failf "bad lex of %s" src
  in
  one (Lexer.Int 42L) "42";
  one (Lexer.Int 255L) "0xff";
  one (Lexer.Float 2.5) "2.5";
  one (Lexer.Float 1e3) "1e3";
  one (Lexer.Float 1.5e-3) "1.5e-3";
  one (Lexer.Float 1.0) "0f3F800000";
  one (Lexer.Float 1.0) "0d3FF0000000000000"

let test_lexer_comments () =
  let toks = Lexer.tokenize "/* block\ncomment */ mov.u32 // line\n %r1" in
  Alcotest.(check int) "tokens" 3 (List.length toks)

let test_lexer_error () =
  Alcotest.check_raises "bad char"
    (Lexer.Error ("unexpected character '#'", 1))
    (fun () -> ignore (Lexer.tokenize "#"))

(* --- Parser --- *)

let test_parse_vecadd () =
  let m = Parser.parse_module vecadd_src in
  Alcotest.(check int) "one kernel" 1 (List.length m.Ast.m_kernels);
  let k = List.hd m.Ast.m_kernels in
  Alcotest.(check string) "name" "vecadd" k.Ast.k_name;
  Alcotest.(check int) "params" 4 (List.length k.Ast.k_params);
  Alcotest.(check int) "regs" 14 (List.length k.Ast.k_regs);
  check_no_type_errors m

let test_parse_guard () =
  let k =
    parse_kernel_exn
      {|.entry g () { .reg .pred %p; .reg .u32 %r; @!%p add.u32 %r, %r, 1; exit; }|}
  in
  match k.Ast.k_body with
  | [ Ast.Inst (Ast.Ifnot "%p", Ast.Binary (Ast.Add, Ast.U32, "%r", _, _), _); _ ] -> ()
  | _ -> Alcotest.fail "guard not parsed"

let test_parse_shared_local () =
  let k =
    parse_kernel_exn
      {|.entry s ()
        { .shared .f32 tile[128]; .local .u32 scratch[4]; .reg .u64 %a;
          mov.u64 %a, tile; exit; }|}
  in
  Alcotest.(check int) "shared" 1 (List.length k.Ast.k_shared);
  Alcotest.(check int) "local" 1 (List.length k.Ast.k_local);
  match k.Ast.k_body with
  | [ Ast.Inst (_, Ast.Mov (_, _, Ast.Var "tile"), _); _ ] -> ()
  | _ -> Alcotest.fail "address-of shared not parsed as Var"

let test_parse_const () =
  let m =
    Parser.parse_module
      {|.const .f32 coeffs[4] = { 1.0, 2.0, 3.0, 4.0 };
        .entry k () { exit; }|}
  in
  match m.Ast.m_consts with
  | [ { Ast.c_decl = { a_name = "coeffs"; a_elems = 4; _ }; c_init = Some (Ast.Init_float fs) } ]
    ->
      Alcotest.(check int) "init count" 4 (List.length fs)
  | _ -> Alcotest.fail "const decl not parsed"

(* typecheck helper used by the .func tests below *)
let tc_errors_fwd src = Typecheck.check_module (Parser.parse_module src)

let func_src =
  {|
.func (.reg .f32 %out) axpy (.reg .f32 %a, .reg .f32 %x, .reg .f32 %y)
{
  fma.rn.f32 %out, %a, %x, %y;
  ret;
}

.entry k (.param .u64 p)
{
  .reg .f32 %r, %v;
  .reg .u64 %po;
  mov.f32 %v, 3.0;
  call (%r), axpy, (2.0, %v, 1.0);
  call (%r), axpy, (%r, %r, %r);
  ld.param.u64 %po, [p];
  st.global.f32 [%po], %r;
  exit;
}
|}

let test_parse_func_and_call () =
  let m = Parser.parse_module func_src in
  Alcotest.(check int) "one func" 1 (List.length m.Ast.m_funcs);
  check_no_type_errors m;
  let f = List.hd m.Ast.m_funcs in
  Alcotest.(check int) "rets" 1 (List.length f.Ast.f_rets);
  Alcotest.(check int) "params" 3 (List.length f.Ast.f_params);
  (* and it round-trips through the printer *)
  Alcotest.(check bool) "roundtrip" true
    (Ast.equal_modul m (Parser.parse_module (Printer.to_string m)))

let test_call_undefined_func () =
  Alcotest.(check bool) "undefined callee flagged" true
    (tc_errors_fwd {|.entry k () { .reg .u32 %r; call (%r), nope, (%r); exit; }|} <> [])

let test_func_barrier_rejected () =
  Alcotest.(check bool) "barrier in .func flagged" true
    (tc_errors_fwd
       {|.func f () { bar.sync 0; ret; }
         .entry k () { call f; exit; }|}
    <> [])

let test_inline_semantics () =
  (* axpy(2, 3, 1) = 7; axpy(7,7,7) = 56 *)
  let m = Parser.parse_module func_src in
  let global = Mem.create 4 in
  ignore
    (Emulator.run m ~kernel:"k" ~args:[ Launch.Ptr 0 ] ~global ~grid:(Launch.dim3 1)
       ~block:(Launch.dim3 1));
  Alcotest.(check (float 0.0)) "nested result" 56.0 (Mem.read_f32 global 0)

let test_inline_recursion_rejected () =
  let m =
    Parser.parse_module
      {|.func f (.reg .u32 %x) { call f, (%x); ret; }
        .entry k () { .reg .u32 %r; call f, (%r); exit; }|}
  in
  Alcotest.(check bool) "recursion rejected" true
    (try
       ignore (Inline.expand m (List.hd m.Ast.m_kernels));
       false
     with Inline.Error _ -> true)

let test_inline_divergent_call_sites () =
  (* functions called under divergent control flow: inlining must preserve
     per-thread semantics *)
  let src =
    {|
.func (.reg .u32 %r) double_or_inc (.reg .u32 %v, .reg .u32 %sel)
{
  .reg .pred %p;
  setp.eq.u32 %p, %sel, 0;
  @%p bra DBL;
  add.u32 %r, %v, 1;
  ret;
DBL:
  shl.b32 %r, %v, 1;
  ret;
}

.entry k (.param .u64 p)
{
  .reg .u32 %tid, %sel, %out;
  .reg .u64 %po, %off;
  mov.u32 %tid, %tid.x;
  and.b32 %sel, %tid, 1;
  call (%out), double_or_inc, (%tid, %sel);
  ld.param.u64 %po, [p];
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  add.u64 %po, %po, %off;
  st.global.u32 [%po], %out;
  exit;
}
|}
  in
  let m = Parser.parse_module src in
  check_no_type_errors m;
  let global = Mem.create 64 in
  ignore
    (Emulator.run m ~kernel:"k" ~args:[ Launch.Ptr 0 ] ~global ~grid:(Launch.dim3 1)
       ~block:(Launch.dim3 16));
  let expected = List.init 16 (fun t -> if t land 1 = 0 then t * 2 else t + 1) in
  Alcotest.(check (list int)) "per-thread" expected (Mem.read_i32s global ~at:0 16)

let test_parse_atom () =
  let k =
    parse_kernel_exn
      {|.entry a (.param .u64 p)
        { .reg .u32 %old, %v; .reg .u64 %addr; ld.param.u64 %addr, [p];
          atom.global.add.u32 %old, [%addr], %v; exit; }|}
  in
  match k.Ast.k_body with
  | [ _; Ast.Inst (_, Ast.Atom (Ast.Global, Ast.Atom_add, Ast.U32, "%old", _, _, None), _); _ ]
    ->
      ()
  | _ -> Alcotest.fail "atom not parsed"

let test_parse_error_line () =
  match Parser.parse_module ".entry k (\n) {\n  bogus.u32 %r;\n}" with
  | exception Parser.Error (_, line) -> Alcotest.(check int) "error line" 3 line
  | _ -> Alcotest.fail "expected parse error"

(* --- Printer round-trip --- *)

let test_roundtrip_vecadd () =
  let m = Parser.parse_module vecadd_src in
  let printed = Printer.to_string m in
  let m' = Parser.parse_module printed in
  Alcotest.(check bool) "roundtrip equal" true (Ast.equal_modul m m')

(* --- Typecheck --- *)

let tc_errors src = Typecheck.check_module (Parser.parse_module src)

let test_tc_undeclared_reg () =
  Alcotest.(check bool) "undeclared" true
    (tc_errors {|.entry k () { .reg .u32 %a; add.u32 %a, %a, %b; exit; }|} <> [])

let test_tc_width_mismatch () =
  Alcotest.(check bool) "width mismatch" true
    (tc_errors {|.entry k () { .reg .u32 %a; .reg .u64 %b; add.u32 %a, %a, %b; exit; }|}
    <> [])

(* The exact diagnostics, text included: each names the instruction it
   was found in, printed only when an error is recorded. *)
let diag_src =
  {|.entry k () {
  .reg .u32 %a;
  .reg .u64 %w;
  add.u32 %a, %a, %b;
  add.u32 %a, %a, %w;
  add.u32 %a, %a, 1.5;
  exit;
}|}

let diag_errors =
  [
    ("register %b not declared", "add.u32 %a, %a, %b");
    ("register %w has type .u64, incompatible with .u32", "add.u32 %a, %a, %w");
    ("float immediate in integer context", "add.u32 %a, %a, 0d3ff8000000000000");
  ]

let test_tc_diagnostics_exact () =
  Alcotest.(check (list (pair string string)))
    "errors" diag_errors
    (List.map (fun (e : Typecheck.error) -> (e.what, e.where)) (tc_errors diag_src));
  match Typecheck.load diag_src with
  | _ -> Alcotest.fail "load accepted an ill-typed kernel"
  | exception Vekt_error.Error (Vekt_error.Compile c) ->
      Alcotest.(check string)
        "load reason"
        (String.concat "; " (List.map (fun (w, i) -> w ^ " (in " ^ i ^ ")") diag_errors))
        c.reason

let test_tc_b32_compatible () =
  Alcotest.(check int) "b32 as s32 ok" 0
    (List.length (tc_errors {|.entry k () { .reg .b32 %a; add.s32 %a, %a, 1; exit; }|}))

let test_tc_pred_in_arith () =
  Alcotest.(check bool) "pred arith" true
    (tc_errors {|.entry k () { .reg .pred %p; add.pred %p, %p, %p; exit; }|} <> [])

let test_tc_bad_branch () =
  Alcotest.(check bool) "bad branch" true
    (tc_errors {|.entry k () { bra NOWHERE; exit; }|} <> [])

let test_tc_dup_label () =
  Alcotest.(check bool) "dup label" true
    (tc_errors {|.entry k () { L: exit; L: exit; }|} <> [])

let test_tc_store_to_param () =
  Alcotest.(check bool) "store to param" true
    (tc_errors
       {|.entry k (.param .u32 n) { .reg .u32 %r; st.param.u32 [n], %r; exit; }|}
    <> [])

let test_tc_float_bitwise () =
  Alcotest.(check bool) "float and" true
    (tc_errors {|.entry k () { .reg .f32 %f; and.f32 %f, %f, %f; exit; }|} <> [])

let test_tc_clean_vecadd () =
  Alcotest.(check int) "vecadd clean" 0 (List.length (tc_errors vecadd_src))

(* --- CFG --- *)

let test_cfg_blocks () =
  let k = parse_kernel_exn vecadd_src in
  let cfg = Cfg.of_kernel k in
  (* entry block, fallthrough block, DONE *)
  Alcotest.(check int) "block count" 3 (List.length cfg.Cfg.blocks);
  let entry = Cfg.find_block cfg cfg.Cfg.entry in
  match entry.Cfg.term with
  | Cfg.Cbr ("%p1", true, "DONE", ft) ->
      let ftb = Cfg.find_block cfg ft in
      Alcotest.(check (list string)) "ft successors" [ "DONE" ] (Cfg.successors ftb)
  | _ -> Alcotest.fail "entry should end in cbr to DONE"

let test_cfg_barrier_splits () =
  let k =
    parse_kernel_exn
      {|.entry b () { .reg .u32 %r; add.u32 %r, %r, 1; bar.sync 0; add.u32 %r, %r, 2; exit; }|}
  in
  let cfg = Cfg.of_kernel k in
  Alcotest.(check int) "blocks" 2 (List.length cfg.Cfg.blocks);
  match (List.hd cfg.Cfg.blocks).Cfg.term with
  | Cfg.Bar_then _ -> ()
  | _ -> Alcotest.fail "barrier should terminate the block"

let test_cfg_guarded_exit () =
  let k =
    parse_kernel_exn
      {|.entry e () { .reg .pred %p; .reg .u32 %r; @%p exit; add.u32 %r, %r, 1; exit; }|}
  in
  let cfg = Cfg.of_kernel k in
  let entry = Cfg.find_block cfg cfg.Cfg.entry in
  match entry.Cfg.term with
  | Cfg.Cbr (_, true, stub, _) ->
      let sb = Cfg.find_block cfg stub in
      Alcotest.(check bool) "stub exits" true (sb.Cfg.term = Cfg.Exit_term)
  | _ -> Alcotest.fail "guarded exit should become cbr to exit stub"

let test_cfg_roundtrip_body () =
  let k = parse_kernel_exn vecadd_src in
  let cfg = Cfg.of_kernel k in
  let k2 = { k with Ast.k_body = Cfg.to_body cfg } in
  (* Rebuilt body must still typecheck and produce an equivalent CFG. *)
  (match Typecheck.check_kernel k2 with
  | [] -> ()
  | e :: _ -> Alcotest.failf "rebuilt kernel: %a" Typecheck.pp_error e);
  let cfg2 = Cfg.of_kernel k2 in
  Alcotest.(check int) "same block count"
    (List.length cfg.Cfg.blocks)
    (List.length cfg2.Cfg.blocks)

(* --- Emulator --- *)

let run_vecadd n =
  let m = Parser.parse_module vecadd_src in
  let global = Mem.create (3 * 4 * n) in
  let a_base = 0 and b_base = 4 * n and c_base = 8 * n in
  Mem.write_f32s global ~at:a_base (List.init n float_of_int);
  Mem.write_f32s global ~at:b_base (List.init n (fun i -> float_of_int (10 * i)));
  let block = 64 in
  let grid = (n + block - 1) / block in
  ignore
    (Emulator.run m ~kernel:"vecadd"
       ~args:[ Launch.Ptr a_base; Launch.Ptr b_base; Launch.Ptr c_base; Launch.I32 n ]
       ~global ~grid:(Launch.dim3 grid) ~block:(Launch.dim3 block));
  Mem.read_f32s global ~at:c_base n

let test_emu_vecadd () =
  let n = 100 in
  let out = run_vecadd n in
  List.iteri
    (fun i v -> Alcotest.(check (float 0.0)) (Fmt.str "c[%d]" i) (float_of_int (11 * i)) v)
    out

let test_emu_vecadd_nonmultiple () =
  (* n not a multiple of the block size: the guard must keep extra threads
     from faulting. *)
  let out = run_vecadd 37 in
  Alcotest.(check int) "length" 37 (List.length out)

let test_emu_barrier_reduction () =
  (* Tree reduction over shared memory: hard dependency on barrier order. *)
  let src =
    {|
.entry reduce (.param .u64 inp, .param .u64 outp)
{
  .reg .u32 %tid, %i, %half;
  .reg .u64 %in, %out, %addr, %off, %saddr;
  .reg .f32 %a, %b;
  .reg .pred %p, %q;
  .shared .f32 buf[64];

  mov.u32 %tid, %tid.x;
  ld.param.u64 %in, [inp];
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  add.u64 %addr, %in, %off;
  ld.global.f32 %a, [%addr];
  mov.u64 %saddr, buf;
  add.u64 %saddr, %saddr, %off;
  st.shared.f32 [%saddr], %a;
  bar.sync 0;

  mov.u32 %half, 32;
LOOP:
  setp.ge.u32 %p, %tid, %half;
  @%p bra SKIP;
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  mov.u64 %saddr, buf;
  add.u64 %saddr, %saddr, %off;
  ld.shared.f32 %a, [%saddr];
  cvt.u64.u32 %off, %half;
  shl.b64 %off, %off, 2;
  add.u64 %off, %saddr, %off;
  ld.shared.f32 %b, [%off];
  add.f32 %a, %a, %b;
  st.shared.f32 [%saddr], %a;
SKIP:
  bar.sync 0;
  shr.u32 %half, %half, 1;
  setp.gt.u32 %q, %half, 0;
  @%q bra LOOP;

  setp.ne.u32 %p, %tid, 0;
  @%p bra DONE;
  ld.param.u64 %out, [outp];
  mov.u64 %saddr, buf;
  ld.shared.f32 %a, [%saddr];
  st.global.f32 [%out], %a;
DONE:
  exit;
}
|}
  in
  let m = Parser.parse_module src in
  check_no_type_errors m;
  let n = 64 in
  let global = Mem.create ((n + 1) * 4) in
  Mem.write_f32s global ~at:0 (List.init n (fun i -> float_of_int (i + 1)));
  ignore
    (Emulator.run m ~kernel:"reduce"
       ~args:[ Launch.Ptr 0; Launch.Ptr (4 * n) ]
       ~global ~grid:(Launch.dim3 1) ~block:(Launch.dim3 n));
  Alcotest.(check (float 0.0)) "sum 1..64" 2080.0 (Mem.read_f32 global (4 * n))

let test_emu_atomics () =
  let src =
    {|
.entry count (.param .u64 p)
{
  .reg .u64 %addr; .reg .u32 %old;
  ld.param.u64 %addr, [p];
  atom.global.add.u32 %old, [%addr], 1;
  exit;
}
|}
  in
  let m = Parser.parse_module src in
  check_no_type_errors m;
  let global = Mem.create 4 in
  ignore
    (Emulator.run m ~kernel:"count" ~args:[ Launch.Ptr 0 ] ~global
       ~grid:(Launch.dim3 4) ~block:(Launch.dim3 32));
  Alcotest.(check int) "counter" 128 (Mem.read_i32 global 0)

let test_emu_divergent_loop () =
  (* Each thread loops tid times: heavily divergent trip counts. *)
  let src =
    {|
.entry loops (.param .u64 outp)
{
  .reg .u32 %tid, %i, %acc;
  .reg .u64 %out, %off;
  .reg .pred %p;
  mov.u32 %tid, %tid.x;
  mov.u32 %i, 0;
  mov.u32 %acc, 0;
LOOP:
  setp.ge.u32 %p, %i, %tid;
  @%p bra DONE;
  add.u32 %acc, %acc, %i;
  add.u32 %i, %i, 1;
  bra LOOP;
DONE:
  ld.param.u64 %out, [outp];
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  add.u64 %out, %out, %off;
  st.global.u32 [%out], %acc;
  exit;
}
|}
  in
  let m = Parser.parse_module src in
  check_no_type_errors m;
  let n = 16 in
  let global = Mem.create (4 * n) in
  ignore
    (Emulator.run m ~kernel:"loops" ~args:[ Launch.Ptr 0 ] ~global
       ~grid:(Launch.dim3 1) ~block:(Launch.dim3 n));
  List.iteri
    (fun i v -> Alcotest.(check int) (Fmt.str "acc[%d]" i) (i * (i - 1) / 2) v)
    (Mem.read_i32s global ~at:0 n)

let test_emu_const_bank () =
  let src =
    {|
.const .f32 scale[2] = { 2.0, 3.0 };
.entry sc (.param .u64 outp)
{
  .reg .f32 %a, %b, %c; .reg .u64 %out;
  ld.const.f32 %a, [scale];
  ld.const.f32 %b, [scale+4];
  mul.f32 %c, %a, %b;
  ld.param.u64 %out, [outp];
  st.global.f32 [%out], %c;
  exit;
}
|}
  in
  let m = Parser.parse_module src in
  check_no_type_errors m;
  let global = Mem.create 4 in
  ignore
    (Emulator.run m ~kernel:"sc" ~args:[ Launch.Ptr 0 ] ~global ~grid:(Launch.dim3 1)
       ~block:(Launch.dim3 1));
  Alcotest.(check (float 0.0)) "2*3" 6.0 (Mem.read_f32 global 0)

let test_emu_barrier_after_exit () =
  (* Thread 0 exits before the barrier.  Our defined semantics: barriers
     synchronize the remaining live threads, so the launch completes (and
     the surviving threads still see thread 0's pre-exit store). *)
  let src =
    {|
.entry dl (.param .u64 p)
{
  .reg .u32 %tid, %v; .reg .pred %q; .reg .u64 %out;
  .shared .u32 flag[1];
  mov.u32 %tid, %tid.x;
  setp.ne.u32 %q, %tid, 0;
  @%q bra WAIT;
  st.shared.u32 [flag], 7;
  exit;
WAIT:
  bar.sync 0;
  ld.shared.u32 %v, [flag];
  ld.param.u64 %out, [p];
  st.global.u32 [%out], %v;
  exit;
}
|}
  in
  let m = Parser.parse_module src in
  check_no_type_errors m;
  let global = Mem.create 4 in
  ignore
    (Emulator.run m ~kernel:"dl" ~args:[ Launch.Ptr 0 ] ~global ~grid:(Launch.dim3 1)
       ~block:(Launch.dim3 4));
  Alcotest.(check int) "flag visible" 7 (Mem.read_i32 global 0)

let test_emu_out_of_fuel () =
  let src = {|.entry spin () { L: bra L; }|} in
  let m = Parser.parse_module src in
  Alcotest.check_raises "fuel" Emulator.Out_of_fuel (fun () ->
      ignore
        (Emulator.run ~fuel:1000 m ~kernel:"spin" ~args:[] ~global:(Mem.create 0)
           ~grid:(Launch.dim3 1) ~block:(Launch.dim3 1)))

let test_emu_f32_rounding () =
  (* f32 arithmetic must round to single precision: 1e8 + 1 == 1e8 in f32. *)
  let src =
    {|
.entry round (.param .u64 outp)
{
  .reg .f32 %a, %b; .reg .u64 %out;
  mov.f32 %a, 0f4CBEBC20;   // 1.0e8f
  add.f32 %b, %a, 1.0;
  sub.f32 %b, %b, %a;
  ld.param.u64 %out, [outp];
  st.global.f32 [%out], %b;
  exit;
}
|}
  in
  let m = Parser.parse_module src in
  let global = Mem.create 4 in
  ignore
    (Emulator.run m ~kernel:"round" ~args:[ Launch.Ptr 0 ] ~global
       ~grid:(Launch.dim3 1) ~block:(Launch.dim3 1));
  Alcotest.(check (float 0.0)) "absorbed" 0.0 (Mem.read_f32 global 0)

(* --- Scalar_ops unit tests --- *)

let test_ops_unsigned_div () =
  match Scalar_ops.(binop Ast.Div Ast.U32 (I 0xFFFFFFFFL) (I 2L)) with
  | Scalar_ops.I v -> Alcotest.(check int64) "u32 div" 0x7FFFFFFFL v
  | _ -> Alcotest.fail "expected int"

let test_ops_signed_div () =
  match Scalar_ops.(binop Ast.Div Ast.S32 (I (-7L)) (I 2L)) with
  | Scalar_ops.I v -> Alcotest.(check int64) "s32 div" (-3L) v
  | _ -> Alcotest.fail "expected int"

let test_ops_div_by_zero () =
  match Scalar_ops.(binop Ast.Div Ast.S32 (I 5L) (I 0L)) with
  | Scalar_ops.I v -> Alcotest.(check int64) "div0 deterministic" 0L v
  | _ -> Alcotest.fail "expected int"

let test_ops_shift_clamp () =
  (match Scalar_ops.(binop Ast.Shl Ast.U32 (I 1L) (I 40L)) with
  | Scalar_ops.I v -> Alcotest.(check int64) "shl clamp" 0L v
  | _ -> Alcotest.fail "int");
  match Scalar_ops.(binop Ast.Shr Ast.S32 (I (-8L)) (I 50L)) with
  | Scalar_ops.I v -> Alcotest.(check int64) "sar clamp" (-1L) v
  | _ -> Alcotest.fail "int"

let test_ops_mul_hi () =
  match Scalar_ops.(binop Ast.Mul_hi Ast.U32 (I 0xFFFFFFFFL) (I 0xFFFFFFFFL)) with
  | Scalar_ops.I v -> Alcotest.(check int64) "mul.hi.u32" 0xFFFFFFFEL v
  | _ -> Alcotest.fail "int"

let test_ops_norm_sign () =
  Alcotest.(check int64) "s8 norm" (-1L) (Scalar_ops.norm_int Ast.S8 255L);
  Alcotest.(check int64) "u8 norm" 255L (Scalar_ops.norm_int Ast.U8 255L);
  Alcotest.(check int64) "s16 norm" (-32768L) (Scalar_ops.norm_int Ast.S16 32768L)

let test_ops_cvt_trunc () =
  (match Scalar_ops.(cvt ~dst:Ast.S32 ~src:Ast.F32 (F 2.9)) with
  | Scalar_ops.I v -> Alcotest.(check int64) "trunc pos" 2L v
  | _ -> Alcotest.fail "int");
  match Scalar_ops.(cvt ~dst:Ast.S32 ~src:Ast.F32 (F (-2.9))) with
  | Scalar_ops.I v -> Alcotest.(check int64) "trunc neg" (-2L) v
  | _ -> Alcotest.fail "int"

let test_ops_cvt_saturates () =
  (* PTX clamps float->int conversions to the destination range and
     converts NaN to 0; in-range values still truncate toward zero. *)
  let inputs = [ ("1e10", 1e10); ("-1e10", -1e10); ("inf", infinity);
                 ("-inf", neg_infinity); ("nan", nan); ("-3.7", -3.7); ("200.9", 200.9) ] in
  let expect =
    [ (Ast.S32, [ 2147483647L; -2147483648L; 2147483647L; -2147483648L; 0L; -3L; 200L ]);
      (Ast.U32, [ 4294967295L; 0L; 4294967295L; 0L; 0L; 0L; 200L ]);
      (Ast.S16, [ 32767L; -32768L; 32767L; -32768L; 0L; -3L; 200L ]);
      (Ast.U8, [ 255L; 0L; 255L; 0L; 0L; 0L; 200L ]) ]
  in
  List.iter
    (fun (dst, want) ->
      List.iter2
        (fun (name, x) want ->
          List.iter
            (fun src ->
              let what =
                Fmt.str "cvt%s%s %s" (Printer.dtype_str dst) (Printer.dtype_str src) name
              in
              match Scalar_ops.cvt ~dst ~src (Scalar_ops.F x) with
              | Scalar_ops.I v -> Alcotest.(check int64) what want v
              | Scalar_ops.F _ -> Alcotest.failf "%s: float result" what)
            [ Ast.F32; Ast.F64 ])
        inputs want)
    expect

let test_ops_ucompare () =
  Alcotest.(check bool) "unsigned lt" false
    Scalar_ops.(cmp Ast.Lt Ast.U32 (I 0xFFFFFFFFL) (I 1L));
  Alcotest.(check bool) "signed lt" true Scalar_ops.(cmp Ast.Lt Ast.S32 (I (-1L)) (I 1L))

let test_ops_bits_roundtrip () =
  List.iter
    (fun f ->
      let bits = Scalar_ops.to_bits Ast.F32 (Scalar_ops.F f) in
      match Scalar_ops.of_bits Ast.F32 bits with
      | Scalar_ops.F f' ->
          Alcotest.(check bool) "f32 bits roundtrip" true
            (Scalar_ops.equal_value Ast.F32 (Scalar_ops.F f) (Scalar_ops.F f'))
      | _ -> Alcotest.fail "float")
    [ 0.0; 1.5; -2.25; Float.infinity; Float.nan; 1e-38 ]

(* --- QCheck properties --- *)

let arb_dtype =
  QCheck.make ~print:Ast.show_dtype
    (QCheck.Gen.oneofl [ Ast.U8; Ast.U16; Ast.U32; Ast.U64; Ast.S8; Ast.S16; Ast.S32; Ast.S64 ])

let prop_norm_idempotent =
  QCheck.Test.make ~name:"norm_int idempotent" ~count:500
    (QCheck.pair arb_dtype (QCheck.map Int64.of_int QCheck.int))
    (fun (ty, v) ->
      let n = Scalar_ops.norm_int ty v in
      Int64.equal n (Scalar_ops.norm_int ty n))

let prop_binop_normalized =
  QCheck.Test.make ~name:"binop results are normalized" ~count:500
    (QCheck.triple arb_dtype
       (QCheck.map Int64.of_int QCheck.int)
       (QCheck.map Int64.of_int QCheck.int))
    (fun (ty, a, b) ->
      List.for_all
        (fun op ->
          match Scalar_ops.(binop op ty (I a) (I b)) with
          | Scalar_ops.I v -> Int64.equal v (Scalar_ops.norm_int ty v)
          | _ -> false)
        [ Ast.Add; Ast.Sub; Ast.Mul_lo; Ast.Min; Ast.Max; Ast.And; Ast.Or; Ast.Xor ])

let prop_printer_roundtrip =
  (* Round-trip arbitrary straight-line integer kernels through the printer. *)
  let gen_kernel =
    let open QCheck.Gen in
    let reg i = Fmt.str "%%r%d" i in
    let nregs = 6 in
    let op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul_lo; Ast.And; Ast.Or; Ast.Xor; Ast.Min; Ast.Max ] in
    let operand =
      oneof
        [ map (fun i -> Ast.Reg (reg (abs i mod nregs))) small_int;
          map (fun i -> Ast.Imm_int (Int64.of_int i)) small_signed_int ]
    in
    let inst = map3 (fun op a b -> (op, a, b)) op operand operand in
    list_size (int_range 1 20) inst
    |> map (fun insts ->
           {
             Ast.k_name = "gen";
             k_params = [];
             k_regs = List.init nregs (fun i -> (reg i, Ast.U32));
             k_shared = [];
             k_local = [];
             k_body =
               List.mapi
                 (fun i (op, a, b) ->
                   Ast.Inst (Ast.Always, Ast.Binary (op, Ast.U32, reg (i mod nregs), a, b), 0))
                 insts
               @ [ Ast.Inst (Ast.Always, Ast.Exit, 0) ];
           })
  in
  QCheck.Test.make ~name:"printer/parser roundtrip" ~count:200
    (QCheck.make ~print:Printer.kernel_to_string gen_kernel)
    (fun k ->
      let m = { Ast.m_consts = []; m_funcs = []; m_kernels = [ k ] } in
      Ast.equal_modul m (Parser.parse_module (Printer.to_string m)))

(* [Scalar_ops.round_f32] is a C stub that the emulator and the vector
   machine both call, so a wrong stub would pass every differential
   test.  Hold it to OCaml's own single-precision round trip, and check
   that converting its result to f32 bits gives the bits of converting
   the unrounded value (why stores and spills need not round first). *)
let round_f32_agrees x =
  let bits = Int64.bits_of_float in
  let r = Scalar_ops.round_f32 x in
  Int64.equal (bits r) (bits (Int32.float_of_bits (Int32.bits_of_float x)))
  && Int32.equal (Int32.bits_of_float r) (Int32.bits_of_float x)

(* NaN payloads (quiet, signalling, payload only below the f32 mantissa),
   signed zeros and infinities, f32 max and the overflow tie, the
   subnormal boundaries, and ties to even in the normal range; each with
   its neighbours one double ulp either side. *)
let round_f32_edges =
  let centres =
    [ 0x7FF8000000000000L; 0x7FF0000000000001L; 0x7FF4000000000000L; 0xFFF8000000000001L;
      0x7FF0000020000000L; 0x7FFFFFFFFFFFFFFFL; 0L; 0x8000000000000000L; 0x7FF0000000000000L;
      0xFFF0000000000000L; 0x47EFFFFFE0000000L; 0x47EFFFFFF0000000L; 0xC7EFFFFFF0000000L;
      0x36A0000000000000L; 0x3690000000000000L; 0x3698000000000000L; 0x380FFFFFC0000000L;
      0x3810000000000000L; 0x380FFFFFE0000000L; 0x3FF0000010000000L; 0x3FF0000030000000L;
      0xBFF0000010000000L; 0x3FB999999999999AL ]
  in
  List.concat_map
    (fun c -> List.map Int64.float_of_bits [ Int64.pred c; c; Int64.succ c ])
    centres

let test_round_f32_edges () =
  List.iter
    (fun x ->
      Alcotest.(check bool) (Fmt.str "round_f32 %Lx" (Int64.bits_of_float x)) true
        (round_f32_agrees x))
    round_f32_edges

let prop_round_f32 =
  (* any 64-bit pattern, and doubles near the f32 range: an f32 with
     random bits below its mantissa *)
  let near_f32 =
    QCheck.Gen.map2
      (fun f low ->
        Int64.float_of_bits
          (Int64.logor (Int64.bits_of_float (Int32.float_of_bits f)) (Int64.of_int (low land 0x1FFFFFFF))))
      QCheck.Gen.int32 QCheck.Gen.int
  in
  QCheck.Test.make ~name:"round_f32 = Int32 round trip" ~count:20_000
    (QCheck.make ~print:(fun x -> Fmt.str "%h (%Lx)" x (Int64.bits_of_float x))
       QCheck.Gen.(oneof [ map Int64.float_of_bits ui64; near_f32; oneofl round_f32_edges ]))
    round_f32_agrees

(* [cvt] in both directions against an independent statement of PTX's
   conversions over [Int64], in integer arithmetic only.  The emulator
   and the vector machine share [Scalar_ops.cvt], so a wrong conversion
   would pass every differential test. *)

let int_types = [ Ast.U8; Ast.U16; Ast.U32; Ast.U64; Ast.S8; Ast.S16; Ast.S32; Ast.S64 ]
let width_of ty = 8 * Ast.size_of ty

(* The value of pattern [p] read as [ty]: its sign and its magnitude as
   an unsigned 64-bit pattern. *)
let int_value ty p =
  let w = width_of ty in
  let low = if w = 64 then p else Int64.logand p (Int64.pred (Int64.shift_left 1L w)) in
  let top_set = Int64.logand low (Int64.shift_left 1L (w - 1)) <> 0L in
  if Ast.is_signed ty && top_set then
    (true, if w = 64 then Int64.neg low else Int64.sub (Int64.shift_left 1L w) low)
  else (false, low)

(* [p] as [ty], rounded to [prec] significant bits, ties to even. *)
let model_int_to_float ~prec ty p =
  let neg, m = int_value ty p in
  let rec bit_length k =
    if k = 0 || Int64.shift_right_logical m (k - 1) <> 0L then k else bit_length (k - 1)
  in
  let n = bit_length 64 in
  let q, e =
    if n <= prec then (m, 0)
    else
      let sh = n - prec in
      let q = Int64.shift_right_logical m sh
      and r = Int64.logand m (Int64.pred (Int64.shift_left 1L sh))
      and half = Int64.shift_left 1L (sh - 1) in
      let up = r > half || (r = half && Int64.logand q 1L = 1L) in
      ((if up then Int64.succ q else q), sh)
  in
  (* [q] has at most [prec] + 1 bits: exact in a double *)
  let x = Float.ldexp (Int64.to_float q) e in
  if neg then -.x else x

(* Sources that sit on or beside a rounding boundary of f32 or f64: the
   64-bit extremes, 2^k + 1 past each precision, and exact ties with an
   even and an odd kept part, each with its neighbours. *)
let int_to_float_edges =
  let tie prec q n =
    Int64.add (Int64.shift_left q (n - prec)) (Int64.shift_left 1L (n - prec - 1))
  in
  let centres =
    [ 0L; 1L; Int64.min_int; Int64.max_int; -1L; 0x1000001L; 0x20000000000001L;
      0x1000001000000001L; 0x1000001000000000L; 0x1000003000000000L;
      tie 24 0x800000L 40; tie 24 0x800001L 40; tie 24 0xFFFFFFL 64;
      tie 53 0x10000000000000L 60; tie 53 0x10000000000001L 60; tie 53 0x1FFFFFFFFFFFFFL 64;
      0x80000000L; 0xFFFFFFFFL; 0x8000L; 0xFFFFL; 0x80L; 0xFFL ]
  in
  List.concat_map
    (fun c -> List.concat_map (fun x -> [ x; Int64.neg x ]) [ Int64.pred c; c; Int64.succ c ])
    centres

let int_to_float_agrees (src, dst, p) =
  let prec = if dst = Ast.F32 then 24 else 53 in
  let want = Int64.bits_of_float (model_int_to_float ~prec src p) in
  let got =
    Int64.bits_of_float
      (Scalar_ops.int_to_float (Scalar_ops.int_to_float_mode ~src ~dst) (Scalar_ops.norm_int src p))
  in
  want = got
  &&
  match Scalar_ops.cvt ~dst ~src (Scalar_ops.I p) with
  | Scalar_ops.F x -> Int64.bits_of_float x = want
  | Scalar_ops.I _ -> false

let prop_int_to_float =
  (* random patterns, patterns of every bit length, and the edges *)
  let pattern =
    QCheck.Gen.(
      oneof
        [ ui64; map2 (fun x k -> Int64.shift_right_logical x k) ui64 (int_range 0 63);
          oneofl int_to_float_edges ])
  in
  QCheck.Test.make ~name:"cvt int->float = round-to-nearest-even model" ~count:20_000
    (QCheck.make
       ~print:(fun (s, d, p) -> Fmt.str "cvt%s%s %Lx" (Printer.dtype_str d) (Printer.dtype_str s) p)
       QCheck.Gen.(triple (oneofl int_types) (oneofl [ Ast.F32; Ast.F64 ]) pattern))
    int_to_float_agrees

let test_int_to_float_edges () =
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          List.iter
            (fun p ->
              Alcotest.(check bool)
                (Fmt.str "cvt%s%s %Lx" (Printer.dtype_str dst) (Printer.dtype_str src) p)
                true
                (int_to_float_agrees (src, dst, p)))
            int_to_float_edges)
        [ Ast.F32; Ast.F64 ])
    int_types

(* [x] truncated toward zero and clamped to [dst]'s range (NaN to 0),
   decoded from the double's fields: the normalized pattern of [dst]. *)
let model_float_to_int dst x =
  let b = Int64.bits_of_float x in
  let neg = b < 0L and e = Int64.to_int (Int64.shift_right_logical b 52) land 0x7FF in
  let frac = Int64.logand b 0xFFFFFFFFFFFFFL in
  if e = 0x7FF && frac <> 0L then 0L
  else
    let w = width_of dst and signed = Ast.is_signed dst in
    (* the largest magnitude on [x]'s side, as an unsigned pattern *)
    let limit =
      if neg then if signed then Int64.shift_left 1L (w - 1) else 0L
      else if signed then Int64.pred (Int64.shift_left 1L (w - 1))
      else if w = 64 then -1L
      else Int64.pred (Int64.shift_left 1L w)
    in
    let sh = e - 1075 and m = Int64.logor frac 0x10000000000000L in
    (* the truncated magnitude, or [None] past 2^64 (infinities too) *)
    let mag =
      if e = 0x7FF then None
      else if e < 1023 then Some 0L
      else if sh <= 0 then Some (Int64.shift_right_logical m (-sh))
      else if sh <= 11 then Some (Int64.shift_left m sh)
      else None
    in
    let mag =
      match mag with
      | Some v when Int64.unsigned_compare v limit <= 0 -> v
      | _ -> limit
    in
    if neg then Int64.neg mag else mag

let float_to_int_agrees (dst, src, x) =
  (* an f32 source reads its operand rounded to single first *)
  let x = if src = Ast.F32 then Int32.float_of_bits (Int32.bits_of_float x) else x in
  match Scalar_ops.cvt ~dst ~src (Scalar_ops.F x) with
  | Scalar_ops.I v -> v = model_float_to_int dst x
  | Scalar_ops.F _ -> false

let prop_float_to_int =
  (* random doubles and f32s, and values at every destination's bounds:
     +-2^k and their neighbours, fractional parts, NaN and infinities *)
  let bounds =
    List.concat_map
      (fun k ->
        let x = Float.ldexp 1.0 k in
        List.concat_map (fun y -> [ y; -.y; Float.pred y; Float.succ y; y -. 0.5 ]) [ x; x -. 1.0 ])
      [ 0; 1; 7; 8; 15; 16; 31; 32; 52; 53; 63; 64 ]
    @ [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 0.5; -0.5 ]
  in
  QCheck.Test.make ~name:"cvt float->int = saturating truncation model" ~count:20_000
    (QCheck.make
       ~print:(fun (d, s, x) ->
         Fmt.str "cvt%s%s %h" (Printer.dtype_str d) (Printer.dtype_str s) x)
       QCheck.Gen.(
         triple (oneofl int_types) (oneofl [ Ast.F32; Ast.F64 ])
           (oneof
              [ map Int64.float_of_bits ui64; map Int32.float_of_bits int32; oneofl bounds ])))
    float_to_int_agrees

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_norm_idempotent; prop_binop_normalized; prop_printer_roundtrip; prop_round_f32;
      prop_int_to_float; prop_float_to_int ]

let () =
  Alcotest.run "ptx"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "error" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "vecadd" `Quick test_parse_vecadd;
          Alcotest.test_case "guard" `Quick test_parse_guard;
          Alcotest.test_case "shared/local" `Quick test_parse_shared_local;
          Alcotest.test_case "const" `Quick test_parse_const;
          Alcotest.test_case "func and call" `Quick test_parse_func_and_call;
          Alcotest.test_case "atom" `Quick test_parse_atom;
          Alcotest.test_case "error line" `Quick test_parse_error_line;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_vecadd;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "undeclared reg" `Quick test_tc_undeclared_reg;
          Alcotest.test_case "width mismatch" `Quick test_tc_width_mismatch;
          Alcotest.test_case "diagnostics exact" `Quick test_tc_diagnostics_exact;
          Alcotest.test_case "b32 compatible" `Quick test_tc_b32_compatible;
          Alcotest.test_case "pred arith" `Quick test_tc_pred_in_arith;
          Alcotest.test_case "bad branch" `Quick test_tc_bad_branch;
          Alcotest.test_case "dup label" `Quick test_tc_dup_label;
          Alcotest.test_case "store to param" `Quick test_tc_store_to_param;
          Alcotest.test_case "float bitwise" `Quick test_tc_float_bitwise;
          Alcotest.test_case "vecadd clean" `Quick test_tc_clean_vecadd;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "blocks" `Quick test_cfg_blocks;
          Alcotest.test_case "barrier splits" `Quick test_cfg_barrier_splits;
          Alcotest.test_case "guarded exit" `Quick test_cfg_guarded_exit;
          Alcotest.test_case "roundtrip body" `Quick test_cfg_roundtrip_body;
        ] );
      ( "inline",
        [
          Alcotest.test_case "undefined callee" `Quick test_call_undefined_func;
          Alcotest.test_case "barrier in func" `Quick test_func_barrier_rejected;
          Alcotest.test_case "semantics" `Quick test_inline_semantics;
          Alcotest.test_case "recursion" `Quick test_inline_recursion_rejected;
          Alcotest.test_case "divergent call sites" `Quick test_inline_divergent_call_sites;
        ] );
      ( "emulator",
        [
          Alcotest.test_case "vecadd" `Quick test_emu_vecadd;
          Alcotest.test_case "vecadd non-multiple" `Quick test_emu_vecadd_nonmultiple;
          Alcotest.test_case "barrier reduction" `Quick test_emu_barrier_reduction;
          Alcotest.test_case "atomics" `Quick test_emu_atomics;
          Alcotest.test_case "divergent loops" `Quick test_emu_divergent_loop;
          Alcotest.test_case "const bank" `Quick test_emu_const_bank;
          Alcotest.test_case "barrier after exit" `Quick test_emu_barrier_after_exit;
          Alcotest.test_case "out of fuel" `Quick test_emu_out_of_fuel;
          Alcotest.test_case "f32 rounding" `Quick test_emu_f32_rounding;
        ] );
      ( "scalar_ops",
        [
          Alcotest.test_case "unsigned div" `Quick test_ops_unsigned_div;
          Alcotest.test_case "signed div" `Quick test_ops_signed_div;
          Alcotest.test_case "div by zero" `Quick test_ops_div_by_zero;
          Alcotest.test_case "shift clamp" `Quick test_ops_shift_clamp;
          Alcotest.test_case "mul hi" `Quick test_ops_mul_hi;
          Alcotest.test_case "norm sign" `Quick test_ops_norm_sign;
          Alcotest.test_case "cvt trunc" `Quick test_ops_cvt_trunc;
          Alcotest.test_case "cvt saturates" `Quick test_ops_cvt_saturates;
          Alcotest.test_case "cvt int->float edges" `Quick test_int_to_float_edges;
          Alcotest.test_case "ucompare" `Quick test_ops_ucompare;
          Alcotest.test_case "bits roundtrip" `Quick test_ops_bits_roundtrip;
          Alcotest.test_case "round_f32 edges" `Quick test_round_f32_edges;
        ] );
      ("properties", qcheck_tests);
    ]
