(* Fuzzer regression suite.

   - replays every kernel in corpus/ (shrunk reproducers and gap-closure
     kernels) through the full differential configuration matrix;
   - property-checks the generator's own invariants (well-typedness,
     seed determinism);
   - unit-tests the fixes the fuzzer forced: the widened select temp for
     guarded mul.wide, mul.wide scalar semantics, the 64-bit-aware shift
     transfer in the affine analysis, and the verifier's rejection of
     scalar immediates as vector store values. *)

open Vekt_ptx
open Vekt_ir
open Vekt_fuzz

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                       *)

(* Under [dune runtest] the cwd is the staged test directory; under
   [dune exec test/test_fuzz.exe] it is the project root. *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ptx")
  |> List.sort compare
  |> List.map (Filename.concat corpus_dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let replay path () =
  let spec = Gen.spec_of_src (read_file path) in
  match Runner.run_spec spec with
  | Runner.Clean n -> Alcotest.(check bool) "ran some configs" true (n > 0)
  | Runner.Rejected why -> Alcotest.failf "%s rejected: %s" path why
  | Runner.Diverged ds ->
      Alcotest.failf "%s diverged: %a" path
        Fmt.(list ~sep:semi (fun fmt (d : Runner.divergence) ->
                 Fmt.pf fmt "[%s] %s" d.cfg d.what))
        ds

let corpus_tests () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus has >= 5 kernels" true (List.length files >= 5);
  List.map
    (fun f -> Alcotest.test_case (Filename.basename f) `Slow (replay f))
    files

(* ------------------------------------------------------------------ *)
(* Generator invariants                                                *)

(* Everything the generator emits that the parser accepts must be
   well-typed; parse failures are legitimate only as frontier probes,
   which the campaign tallies rather than runs. *)
let gen_well_typed =
  QCheck.Test.make ~name:"generated kernels are well-typed" ~count:40
    Gen.arbitrary (fun spec ->
      match Parser.parse_module spec.Gen.src with
      | exception _ -> true
      | m -> Typecheck.check_module m = [])

let gen_deterministic () =
  for seed = 0 to 24 do
    let a = Gen.generate ~seed and b = Gen.generate ~seed in
    Alcotest.(check string) (Fmt.str "seed %d src" seed) a.Gen.src b.Gen.src;
    Alcotest.(check int) (Fmt.str "seed %d grid" seed) a.Gen.grid b.Gen.grid;
    Alcotest.(check int) (Fmt.str "seed %d block" seed) a.Gen.block b.Gen.block
  done

let header_round_trip () =
  let spec = Gen.generate ~seed:3 in
  let spec' = Gen.spec_of_src spec.Gen.src in
  Alcotest.(check int) "grid survives reparse" spec.Gen.grid spec'.Gen.grid;
  Alcotest.(check int) "block survives reparse" spec.Gen.block spec'.Gen.block;
  Alcotest.(check int) "1-D block" 1 spec'.Gen.block_y;
  (* a 1-D header keeps its old form, so corpus files and generated
     kernels print as before *)
  Alcotest.(check string) "1-D header" "// vekt-fuzz grid=3 block=8\n"
    (Gen.header ~grid:3 ~block:8 ());
  let two_d = Gen.spec_of_src (Gen.header ~grid:2 ~block:2 ~block_y:4 ()) in
  Alcotest.(check (pair int int)) "2-D block survives reparse" (2, 4)
    (two_d.Gen.block, two_d.Gen.block_y)

(* ------------------------------------------------------------------ *)
(* Guarded mul.wide (fuzz seed 16): the select temp introduced by
   if-conversion must live at the widened type. *)

let ifconv_guarded_mul_wide () =
  let src =
    ".entry k (.param .u64 p) {\n\
    \  .reg .s32 %s0;\n\
    \  .reg .s64 %w0;\n\
    \  .reg .pred %q0;\n\
    \  @%q0 mul.wide.s32 %w0, 14, %s0;\n\
    \  ret;\n\
     }"
  in
  let k = List.hd (Parser.parse_module src).Ast.m_kernels in
  let k' = Vekt_transform.Ifconv.run k in
  Alcotest.(check bool) "postcondition" true (Vekt_transform.Ifconv.is_clean k');
  match List.assoc_opt "%__ifc1" k'.Ast.k_regs with
  | Some ty ->
      Alcotest.(check bool)
        "select temp declared at widened type (.s64)" true (ty = Ast.S64)
  | None -> Alcotest.fail "if-conversion introduced no temp register"

(* ------------------------------------------------------------------ *)
(* mul.wide scalar semantics *)

let scalar_mul_wide () =
  let open Scalar_ops in
  let check name exp got =
    Alcotest.(check int64) name exp (match got with I x -> x | F _ -> -1L)
  in
  check "u32 max square" 0xFFFF_FFFE_0000_0001L
    (binop Ast.Mul_wide Ast.U32 (I 0xFFFF_FFFFL) (I 0xFFFF_FFFFL));
  check "s32 sign-extends operands" (-15L)
    (binop Ast.Mul_wide Ast.S32 (I (-3L)) (I 5L));
  check "s32 negative product wide" (Int64.mul (-2147483648L) 2L)
    (binop Ast.Mul_wide Ast.S32 (I 0x8000_0000L) (I 2L));
  check "u16 widens to u32" 0xFFFE_0001L
    (binop Ast.Mul_wide Ast.U16 (I 0xFFFFL) (I 0xFFFFL));
  Alcotest.check_raises "64-bit rejected"
    (Unsupported "mul.wide on 64-bit types") (fun () ->
      ignore (binop Ast.Mul_wide Ast.U64 (I 1L) (I 1L)))

(* ------------------------------------------------------------------ *)
(* Affine shift transfer: 64-bit aware bound *)

let cls = Alcotest.testable Vekt_analysis.Affine.pp_cls Vekt_analysis.Affine.equal_cls

let affine_shl () =
  let open Vekt_analysis.Affine in
  let check name exp got = Alcotest.check cls name exp got in
  (* the address idiom: affine tid stride scaled by an element size *)
  check "affine << 2 @64" (Affine 4L) (shl_cls ~bits:64 (Affine 1L) (Const 2L));
  check "affine << 3 @64" (Affine 32L) (shl_cls ~bits:64 (Affine 4L) (Const 3L));
  (* shifts in [32, 64) are in range for 64-bit values — the old 32-bit
     bound classified these as total shifts *)
  check "const << 40 @64" (Const (Int64.shift_left 1L 40))
    (shl_cls ~bits:64 (Const 1L) (Const 40L));
  check "affine << 33 @64" (Affine (Int64.shift_left 1L 33))
    (shl_cls ~bits:64 (Affine 1L) (Const 33L));
  (* total shifts really do zero every lane *)
  check "affine << 35 @32" (Const 0L) (shl_cls ~bits:32 (Affine 4L) (Const 35L));
  check "const << 64 @64" (Const 0L) (shl_cls ~bits:64 (Const 7L) (Const 64L));
  check "uniform << const" Uniform (shl_cls ~bits:32 Uniform (Const 31L));
  check "affine << uniform" Unknown (shl_cls ~bits:32 (Affine 1L) Uniform);
  check "bot propagates" Bot (shl_cls ~bits:32 Bot (Const 1L))

(* ------------------------------------------------------------------ *)
(* Verifier rejects scalar immediates as vector store values, and
   accepts the Broadcast + Vstore shape vectorize now emits. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let verify_vstore_imm_rejected () =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry");
  let base = Builder.fresh_reg b (Ty.scalar Ast.U64) in
  Builder.emit b
    (Ir.Vstore (Ast.Global, Ast.U32, Ir.R base, 0, Ir.Imm (Scalar_ops.I 7L, Ast.U32)));
  Builder.set_term b Ir.Return;
  let errs = Verify.check_func (Builder.func b) in
  Alcotest.(check bool)
    "flags scalar immediate" true
    (List.exists (fun e -> contains e "scalar immediate") errs)

let verify_vstore_broadcast_ok () =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry");
  let base = Builder.fresh_reg b (Ty.scalar Ast.U64) in
  let v = Builder.fresh_reg b (Ty.make Ast.U32 4) in
  Builder.emit b (Ir.Broadcast (Ty.make Ast.U32 4, v, Ir.Imm (Scalar_ops.I 7L, Ast.U32)));
  Builder.emit b (Ir.Vstore (Ast.Global, Ast.U32, Ir.R base, 0, Ir.R v));
  Builder.set_term b Ir.Return;
  let errs = Verify.check_func (Builder.func b) in
  Alcotest.(check (list string)) "broadcast + vstore verifies" [] errs

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fuzz"
    [
      ("corpus", corpus_tests ());
      ( "generator",
        [
          QCheck_alcotest.to_alcotest gen_well_typed;
          Alcotest.test_case "seed determinism" `Quick gen_deterministic;
          Alcotest.test_case "header round trip" `Quick header_round_trip;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "ifconv guarded mul.wide" `Quick ifconv_guarded_mul_wide;
          Alcotest.test_case "mul.wide scalar semantics" `Quick scalar_mul_wide;
          Alcotest.test_case "affine shl transfer" `Quick affine_shl;
          Alcotest.test_case "vstore imm rejected" `Quick verify_vstore_imm_rejected;
          Alcotest.test_case "broadcast vstore ok" `Quick verify_vstore_broadcast_ok;
        ] );
    ]
