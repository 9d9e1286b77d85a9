(* The build layers against their reference models (models.ml): on random
   fuzz-generator kernels, vectorized at every width in both warp-formation
   modes, the bitset liveness, DCE, the structurally keyed CSE and the
   timing model's running-sum register pressure and line shares must
   compute exactly what the textbook versions compute.  The affine
   lattice's uniform classes must keep every register the invariance
   taint proves, and match it exactly on the registry's kernels. *)

module Ir = Vekt_ir.Ir
module Pp = Vekt_ir.Pp
module Liveness = Vekt_analysis.Liveness
module Ptx_to_ir = Vekt_transform.Ptx_to_ir
module Plan = Vekt_transform.Plan
module Vectorize = Vekt_transform.Vectorize
module Constfold = Vekt_transform.Constfold
module Cse = Vekt_transform.Cse
module Dce = Vekt_transform.Dce
module Passes = Vekt_transform.Passes
module Timing = Vekt_vm.Timing
module Machine = Vekt_vm.Machine
module Affine = Vekt_analysis.Affine
module Gen = Vekt_fuzz.Gen
module ISet = Models.ISet

let modes = [ Vectorize.Dynamic; Vectorize.Static_tie ]
let widths = [ 1; 2; 4; 8 ]

(* The scalar function and divergence plan of a kernel. *)
let prepare src ~kernel =
  let tr = Ptx_to_ir.frontend (Vekt_ptx.Typecheck.load src) ~kernel in
  (tr, Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:tr.Ptx_to_ir.local_decl_bytes)

(* Every (mode, width) specialization of a generated kernel; a kernel the
   frontend rejects (a frontier probe) has none. *)
let specializations (spec : Gen.t) : (string * (unit -> Ir.func)) list =
  match prepare spec.Gen.src ~kernel:spec.kernel with
  | exception _ -> []
  | tr, plan ->
      List.concat_map
        (fun mode ->
          List.map
            (fun ws ->
              let name =
                match mode with Vectorize.Dynamic -> "dynamic" | Vectorize.Static_tie -> "static"
              in
              ( Fmt.str "%s ws=%d" name ws,
                fun () -> (Vectorize.run ~mode ~plan tr.Ptx_to_ir.func ~ws).Vectorize.func ))
            widths)
        modes

let fail where fmt = Fmt.kstr (fun s -> QCheck.Test.fail_reportf "%s: %s" where s) fmt

let check_liveness where (f : Ir.func) =
  let live = Liveness.compute f and model = Models.Liveness.compute f in
  List.iter
    (fun (b : Ir.block) ->
      let l = b.Ir.label in
      if not (ISet.equal (Liveness.live_in live l) (Models.Liveness.live_in model l)) then
        fail where "live_in %s differs" l;
      if not (ISet.equal (Liveness.live_out live l) (Models.Liveness.live_out model l)) then
        fail where "live_out %s differs" l)
    (Ir.blocks f)

let prop_liveness =
  QCheck.Test.make ~name:"bitset liveness == set-based model" ~count:40 Gen.arbitrary
    (fun spec ->
      List.iter
        (fun (where, build) ->
          let f = build () in
          check_liveness where f;
          ignore (Passes.run f);
          check_liveness (where ^ " optimized") f)
        (specializations spec);
      true)

(* CSE runs on constant-folded code, as in the pipeline, where folding has
   turned operands into the immediates the keys must tell apart. *)
let prop_cse =
  QCheck.Test.make ~name:"structural CSE == printed-key model" ~count:40 Gen.arbitrary
    (fun spec ->
      List.iter
        (fun (where, build) ->
          let f = build () in
          ignore (Constfold.run f);
          let g = Ir.copy_func f in
          let n = Cse.run f and n_model = Models.cse g in
          if n <> n_model then fail where "%d replacements, model %d" n n_model;
          if Pp.func_to_string f <> Pp.func_to_string g then fail where "IR differs")
        (specializations spec);
      true)

(* DCE on the vectorized code, where it sweeps pack/unpack traffic, and
   after constant folding and CSE, where it sweeps the copies they leave. *)
let prop_dce =
  QCheck.Test.make ~name:"DCE to fixpoint == set-based sweep model" ~count:40 Gen.arbitrary
    (fun spec ->
      List.iter
        (fun (where, build) ->
          List.iter
            (fun (stage, prepare) ->
              let f = build () in
              prepare f;
              let g = Ir.copy_func f in
              let n = Dce.run f and n_model = Models.dce g in
              if n <> n_model then fail where "%s: %d removed, model %d" stage n n_model;
              if Pp.func_to_string f <> Pp.func_to_string g then
                fail where "%s: IR differs" stage)
            [
              ("bare", ignore);
              ( "after constfold+cse",
                fun f ->
                  ignore (Constfold.run f);
                  ignore (Cse.run f) );
            ])
        (specializations spec);
      true)

(* The µop count of each instruction of [b], paired with its line. *)
let line_uops m f (b : Ir.block) =
  List.map
    (fun (li : Ir.li) ->
      let n = ref 0 in
      Timing.iter_uops m f li.Ir.i (fun _ _ -> incr n);
      (li.Ir.line, !n))
    b.Ir.insts

let prop_shares =
  QCheck.Test.make ~name:"line shares == largest-remainder model" ~count:40 Gen.arbitrary
    (fun spec ->
      let m = Machine.sse4 in
      List.iter
        (fun (where, build) ->
          let f = build () in
          List.iter
            (fun optimize ->
              if optimize then ignore (Passes.run f);
              List.iter2
                (fun (b : Ir.block) (c : Timing.block_cost) ->
                  let shares, total = c.shares in
                  let expect = Timing.units_of_cycles (c.cycles +. Timing.term_cost) in
                  if total <> expect then fail where "%s total %d, want %d" b.Ir.label total expect;
                  let sum = ref 0 in
                  Array.iteri (fun k u -> if k land 1 = 1 then sum := !sum + u) shares;
                  if !sum <> total then fail where "%s shares sum to %d of %d" b.Ir.label !sum total;
                  if shares <> Models.line_shares (line_uops m f b) ~total then
                    fail where "%s shares differ from the model" b.Ir.label)
                (Ir.blocks f) (Timing.analyze m f))
            [ false; true ])
        (specializations spec);
      true)

let prop_pressure =
  QCheck.Test.make ~name:"running-sum pressure == per-instruction model" ~count:40
    Gen.arbitrary (fun spec ->
      let m = Machine.sse4 in
      List.iter
        (fun (where, build) ->
          let f = build () in
          List.iter
            (fun optimize ->
              if optimize then ignore (Passes.run f);
              let t = Timing.analyze m f and model = Models.Liveness.compute f in
              List.iter2
                (fun (b : Ir.block) (c : Timing.block_cost) ->
                  let v, g = Models.pressure m f model b in
                  if (c.max_vec_pressure, c.max_gpr_pressure) <> (v, g) then
                    fail where "%s pressure (%d, %d), model (%d, %d)" b.Ir.label
                      c.max_vec_pressure c.max_gpr_pressure v g)
                (Ir.blocks f) t)
            [ false; true ])
        (specializations spec);
      true)

(* Uniform classes against the invariance taint in both warp formations,
   over the bare function and with the plan's slotted registers per lane
   (seeded variant in the model, clamped [Unknown] in the lattice, as
   static builds realize them).  Every register the model calls invariant
   must be uniform; with [exact], every uniform register invariant too. *)
let check_uniformity ~exact where (f : Ir.func) (plan : Plan.t) =
  let slots = List.map fst (Plan.slotted plan) in
  List.iter
    (fun (static_warps, slotted) ->
      let cls =
        if static_warps then Affine.invariant ~slotted f
        else
          Affine.fixpoint ~static_warps
            ~clamp:(List.map (fun r -> (r, Affine.Unknown)) slotted)
            f
      in
      let variant = Models.Invariance.variant_regs ~static_warps ~seed:(ISet.of_list slotted) f in
      Array.iteri
        (fun r c ->
          let invariant = not (ISet.mem r variant) in
          if invariant <> Affine.is_uniform c && (invariant || exact) then
            fail where "%s warps%s: %%%d is %a, model %s"
              (if static_warps then "static" else "dynamic")
              (if slotted = [] then "" else ", slots per lane")
              r Affine.pp_cls c
              (if invariant then "invariant" else "variant"))
        cls)
    [ (false, []); (false, slots); (true, []); (true, slots) ]

let prop_uniformity =
  QCheck.Test.make ~name:"uniform classes keep every invariant of the taint model"
    ~count:200 Gen.arbitrary (fun spec ->
      (match prepare spec.Gen.src ~kernel:spec.kernel with
      | exception _ -> ()
      | tr, plan -> check_uniformity ~exact:false "fuzz kernel" tr.Ptx_to_ir.func plan);
      true)

(* The shared scalar semantics against the PTX integer model: every
   integer operation the interpreter specializes, at every integer type,
   on patterns drawn from the types' edges and from the whole 64-bit
   range. *)
module Int_ops = Models.Int_ops
module Ast = Vekt_ptx.Ast
module Scalar_ops = Vekt_ptx.Scalar_ops

let int_types = Ast.[ B8; B16; B32; B64; U8; U16; U32; U64; S8; S16; S32; S64 ]
let int_binops = Ast.[ Add; Sub; Mul_lo; And; Or; Xor; Shl; Shr; Min; Max ]
let int_cmps = Ast.[ Eq; Ne; Lt; Le; Gt; Ge ]

let int_pattern =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ 0L; 1L; -1L; 7L; 8L; 16L; 31L; 32L; 33L; 63L; 64L; 65L; 0x7FL; 0x80L; 0xFFL; -128L;
            0x7FFFL; 0x8000L; 0xFFFFL; -32768L; 0x7FFF_FFFFL; 0x8000_0000L; 0xFFFF_FFFFL;
            -0x8000_0000L; Int64.max_int; Int64.min_int ];
        map Int64.of_int (int_range 0 70);
        ui64;
      ])

let prop_int_ops =
  let gen = QCheck.Gen.(quad (oneofl int_types) (oneofl int_binops) (oneofl int_cmps) (triple int_pattern int_pattern int_pattern)) in
  let print (ty, op, c, (a, b, x)) =
    Fmt.str "%s %s/%s %#Lx %#Lx %#Lx" (Ast.show_dtype ty) (Vekt_ptx.Printer.binop_str op)
      (Vekt_ptx.Printer.cmp_str c) a b x
  in
  QCheck.Test.make ~name:"Scalar_ops integer binop/cmp/mad/cvt == PTX model" ~count:5000
    (QCheck.make ~print gen) (fun (ty, op, c, (a, b, x)) ->
      let int_of where = function
        | Scalar_ops.I v -> v
        | Scalar_ops.F _ -> fail where "float result"
      in
      let same where got want =
        if not (Int64.equal got want) then fail where "got %#Lx, want %#Lx" got want
      in
      same "binop" (int_of "binop" (Scalar_ops.binop op ty (I a) (I b))) (Int_ops.binop op ty a b);
      if Scalar_ops.cmp c ty (I a) (I b) <> Int_ops.cmp c ty a b then fail "cmp" "differs";
      same "mad" (int_of "mad" (Scalar_ops.mad ty (I a) (I b) (I x))) (Int_ops.mad ty a b x);
      List.iter
        (fun src ->
          same "cvt" (int_of "cvt" (Scalar_ops.cvt ~dst:ty ~src (I x))) (Int_ops.cvt ~dst:ty ~src x))
        int_types;
      true)

let registry_uniformity () =
  List.iter
    (fun (w : Vekt_workloads.Workload.t) ->
      let tr, plan = prepare w.src ~kernel:w.kernel in
      check_uniformity ~exact:true w.name tr.Ptx_to_ir.func plan)
    Vekt_workloads.Registry.all

let () =
  Alcotest.run "models"
    [
      ( "models",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_liveness;
            prop_dce;
            prop_cse;
            prop_pressure;
            prop_shares;
            prop_uniformity;
            prop_int_ops;
          ]
        @ [
            Alcotest.test_case "registry uniform classes == taint model" `Quick
              registry_uniformity;
          ] );
    ]
