(* Tests for the vector-machine substrate: machine descriptions, the µop
   timing model (scoreboard, chunking, register-pressure spills) and the
   compiled IR engine (built with [Builder], lowered by [Interp.compile],
   executed by [Interp.run]). *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty
module Builder = Vekt_ir.Builder
module Machine = Vekt_vm.Machine
module Timing = Vekt_vm.Timing
module Interp = Vekt_vm.Interp
open Vekt_ptx

let s32 = Ty.scalar Ast.S32
let f32 = Ty.scalar Ast.F32
let imm_i n = Ir.Imm (Scalar_ops.I (Int64.of_int n), Ast.S32)
let imm_f x = Ir.Imm (Scalar_ops.F x, Ast.F32)

(* --- Machine --- *)

let test_machine_peak () =
  Alcotest.(check (float 0.1)) "sse4 peak" 108.8 (Machine.peak_sp_gflops Machine.sse4);
  Alcotest.(check (float 0.1)) "avx peak" 217.6 (Machine.peak_sp_gflops Machine.avx)

let test_machine_chunks () =
  Alcotest.(check int) "4xf32 on sse" 1 (Machine.chunks Machine.sse4 Ast.F32 4);
  Alcotest.(check int) "8xf32 on sse" 2 (Machine.chunks Machine.sse4 Ast.F32 8);
  Alcotest.(check int) "8xf32 on avx" 1 (Machine.chunks Machine.avx Ast.F32 8);
  Alcotest.(check int) "4xf64 on sse" 2 (Machine.chunks Machine.sse4 Ast.F64 4)

(* --- Timing --- *)

(* A block of [n] dependent vector fmas (a serial chain) vs [n] independent
   ones: the chain must cost roughly latency*n, the independent set roughly
   n/throughput. *)
let fma_block ~dependent n =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry");
  let v4 = Ty.vector Ast.F32 4 in
  let acc = Builder.fresh_reg b v4 in
  Builder.emit b (Ir.Mov (v4, acc, imm_f 1.0));
  let regs = Array.init n (fun _ -> Builder.fresh_reg b v4) in
  for i = 0 to n - 1 do
    let src = if dependent then (if i = 0 then acc else regs.(i - 1)) else acc in
    Builder.emit b (Ir.Fma (v4, regs.(i), Ir.R src, imm_f 0.5, imm_f 0.25))
  done;
  (* keep everything alive through a store of the last value *)
  Builder.emit b
    (Ir.Store (Ast.Global, Ast.F32, Ir.Imm (Scalar_ops.I 0L, Ast.S64), 0,
               Ir.Imm (Scalar_ops.F 0.0, Ast.F32)));
  Builder.set_term b Ir.Return;
  Builder.func b

(* The cost of a one-block function's only block. *)
let cost1 f = List.hd (Timing.analyze Machine.sse4 f)

let test_timing_dependent_slower () =
  let dep = cost1 (fma_block ~dependent:true 32) in
  let ind = cost1 (fma_block ~dependent:false 32) in
  let c (t : Timing.block_cost) = t.cycles in
  Alcotest.(check bool)
    (Fmt.str "chain %.0f >> independent %.0f" (c dep) (c ind))
    true
    (c dep > 2.0 *. c ind)

let test_timing_flops_counted () =
  (* 10 fmas x 4 lanes x 2 flops *)
  Alcotest.(check int) "flops" 80 (cost1 (fma_block ~dependent:false 10)).flops

let test_timing_wide_vectors_chunked () =
  let mk w =
    let b = Builder.create ~warp_size:w "t" in
    ignore (Builder.start_block b "entry");
    let v = Ty.vector Ast.F32 w in
    let x = Builder.fresh_reg b v in
    Builder.emit b (Ir.Bin (Ast.Add, v, x, imm_f 1.0, imm_f 2.0));
    Builder.emit b
      (Ir.Store (Ast.Global, Ast.F32, Ir.Imm (Scalar_ops.I 0L, Ast.S64), 0, imm_f 0.0));
    Builder.set_term b Ir.Return;
    Builder.func b
  in
  let u w = (cost1 (mk w)).uops in
  (* the store contributes 1 µop; the add contributes chunks *)
  Alcotest.(check int) "4-wide 1 chunk" 2 (u 4);
  Alcotest.(check int) "8-wide 2 chunks" 3 (u 8);
  Alcotest.(check int) "16-wide 4 chunks" 5 (u 16)

let test_timing_pressure_spills () =
  (* many simultaneously-live vector registers -> spill penalty *)
  let mk n =
    let b = Builder.create ~warp_size:4 "t" in
    ignore (Builder.start_block b "entry");
    let v4 = Ty.vector Ast.F32 4 in
    let regs = Array.init n (fun _ -> Builder.fresh_reg b v4) in
    Array.iter (fun r -> Builder.emit b (Ir.Mov (v4, r, imm_f 1.0))) regs;
    (* keep all alive: a use after all defs *)
    let acc = Builder.fresh_reg b v4 in
    Builder.emit b (Ir.Mov (v4, acc, imm_f 0.0));
    Array.iter
      (fun r -> Builder.emit b (Ir.Bin (Ast.Add, v4, acc, Ir.R acc, Ir.R r)))
      regs;
    Builder.emit b
      (Ir.Store (Ast.Global, Ast.F32, Ir.Imm (Scalar_ops.I 0L, Ast.S64), 0, imm_f 0.0));
    Builder.set_term b Ir.Return;
    Builder.func b
  in
  let cost n = cost1 (mk n) in
  Alcotest.(check int) "8 regs fit" 0 (cost 8).Timing.spill_uops;
  Alcotest.(check bool) "40 regs spill" true ((cost 40).Timing.spill_uops > 0);
  Alcotest.(check bool) "pressure reported" true ((cost 40).Timing.max_vec_pressure > 16)

let test_timing_scalar_cheaper_ports () =
  (* a vector f32 add and a scalar f32 add cost the same port slots, so
     4x the work at equal cost: the vector machine's raison d'etre *)
  let mk width =
    let b = Builder.create ~warp_size:width "t" in
    ignore (Builder.start_block b "entry");
    let ty = Ty.make Ast.F32 width in
    for _ = 1 to 16 do
      let r = Builder.fresh_reg b ty in
      Builder.emit b (Ir.Bin (Ast.Add, ty, r, imm_f 1.0, imm_f 2.0));
      Builder.emit b
        (Ir.Store (Ast.Global, Ast.F32, Ir.Imm (Scalar_ops.I 0L, Ast.S64), 0,
                   (if width = 1 then Ir.R r else imm_f 0.0)))
    done;
    Builder.set_term b Ir.Return;
    Builder.func b
  in
  let c w = (cost1 (mk w)).cycles in
  Alcotest.(check bool) "within 30%" true (Float.abs (c 4 -. c 1) /. c 1 < 0.3)

(* --- Interp --- *)

let compile = Interp.compile ~machine:Machine.sse4

let mems ?(global = 64) ?(shared = 64) ?(local = 256) () =
  {
    Interp.global = Mem.create global;
    shared = Mem.create shared;
    local = Mem.create local;
    params = Mem.create 16;
    consts = Mem.create 16;
  }

let warp4 ?(entry = 0) () =
  {
    Interp.lanes =
      Array.init 4 (fun i ->
          {
            Interp.tid = Launch.dim3 i;
            ctaid = Launch.dim3 0;
            local_base = i * 64;
            resume_point = 0;
          });
    entry_id = entry;
    status = Ir.Status_exit;
  }

let launch1 = { Interp.grid = Launch.dim3 2; block = Launch.dim3 4 }

let test_interp_vector_arith () =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry");
  let v4 = Ty.vector Ast.S32 4 in
  let tid = Builder.fresh_reg b v4 in
  for l = 0 to 3 do
    let s = Builder.fresh_reg b s32 in
    Builder.emit b (Ir.Ctx_read (s, Ir.Tid Ast.X, l));
    Builder.emit b (Ir.Insert (v4, tid, Ir.R tid, l, Ir.R s))
  done;
  let sq = Builder.fresh_reg b v4 in
  Builder.emit b (Ir.Bin (Ast.Mul_lo, v4, sq, Ir.R tid, Ir.R tid));
  (* store each lane to global[4*lane] *)
  for l = 0 to 3 do
    let s = Builder.fresh_reg b s32 in
    Builder.emit b (Ir.Extract (Ast.S32, s, Ir.R sq, l));
    Builder.emit b
      (Ir.Store (Ast.Global, Ast.S32, Ir.Imm (Scalar_ops.I (Int64.of_int (4 * l)), Ast.S64), 0, Ir.R s))
  done;
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  Vekt_ir.Verify.check_exn f;
  let mem = mems () in
  Interp.run (compile f) ~launch:launch1 (warp4 ()) mem;
  Alcotest.(check (list int)) "squares" [ 0; 1; 4; 9 ] (Mem.read_i32s mem.Interp.global ~at:0 4)

let test_interp_spill_restore_roundtrip () =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry");
  let v4 = Ty.vector Ast.F32 4 in
  let x = Builder.fresh_reg b v4 in
  for l = 0 to 3 do
    let s = Builder.fresh_reg b (Ty.scalar Ast.U32) in
    Builder.emit b (Ir.Ctx_read (s, Ir.Tid Ast.X, l));
    let c = Builder.fresh_reg b f32 in
    Builder.emit b (Ir.Cvt (f32, Ty.scalar Ast.U32, c, Ir.R s));
    Builder.emit b (Ir.Insert (v4, x, Ir.R x, l, Ir.R c))
  done;
  for l = 0 to 3 do
    Builder.emit b (Ir.Spill (l, 16, Ast.F32, Ir.R x))
  done;
  (* restore into fresh scalars and write out *)
  for l = 0 to 3 do
    let r = Builder.fresh_reg b f32 in
    Builder.emit b (Ir.Restore (r, l, 16, Ast.F32));
    Builder.emit b
      (Ir.Store (Ast.Global, Ast.F32, Ir.Imm (Scalar_ops.I (Int64.of_int (4 * l)), Ast.S64), 0, Ir.R r))
  done;
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  Vekt_ir.Verify.check_exn f;
  let mem = mems () in
  let counters = Interp.fresh_counters () in
  Interp.run ~counters (compile f) ~launch:launch1 (warp4 ()) mem;
  Alcotest.(check (list (float 0.0))) "roundtrip" [ 0.; 1.; 2.; 3. ]
    (Mem.read_f32s mem.Interp.global ~at:0 4);
  Alcotest.(check int) "restores counted" 4 counters.Interp.restores;
  Alcotest.(check int) "spills counted" 4 counters.Interp.spills

let test_interp_switch_and_resume () =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry" ~kind:Ir.Scheduler);
  let eid = Builder.emit_val b s32 (fun d -> Ir.Ctx_read (d, Ir.Entry_id, 0)) in
  Builder.set_term b (Ir.Switch (Ir.R eid, [ (0, "a"); (7, "bb") ], "a"));
  ignore (Builder.start_block b "a");
  Builder.emit b (Ir.Set_status Ir.Status_exit);
  Builder.set_term b Ir.Return;
  ignore (Builder.start_block b "bb");
  for l = 0 to 3 do
    Builder.emit b (Ir.Set_resume (l, imm_i (100 + l)))
  done;
  Builder.emit b (Ir.Set_status Ir.Status_barrier);
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  let mem = mems () in
  let w = warp4 ~entry:7 () in
  Interp.run (compile f) ~launch:launch1 w mem;
  Alcotest.(check bool) "status barrier" true (w.Interp.status = Ir.Status_barrier);
  Alcotest.(check int) "lane 2 resume" 102 w.Interp.lanes.(2).Interp.resume_point

let test_interp_reduce_add () =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry");
  let p4 = Ty.vector Ast.Pred 4 in
  let v4 = Ty.vector Ast.S32 4 in
  let tid = Builder.fresh_reg b v4 in
  for l = 0 to 3 do
    let s = Builder.fresh_reg b s32 in
    Builder.emit b (Ir.Ctx_read (s, Ir.Tid Ast.X, l));
    Builder.emit b (Ir.Insert (v4, tid, Ir.R tid, l, Ir.R s))
  done;
  let p = Builder.fresh_reg b p4 in
  Builder.emit b (Ir.Cmp (Ast.Ge, v4, p, Ir.R tid, imm_i 2));
  let sum = Builder.fresh_reg b s32 in
  Builder.emit b (Ir.Reduce_add (sum, Ir.R p));
  Builder.emit b
    (Ir.Store (Ast.Global, Ast.S32, Ir.Imm (Scalar_ops.I 0L, Ast.S64), 0, Ir.R sum));
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  let mem = mems () in
  Interp.run (compile f) ~launch:launch1 (warp4 ()) mem;
  Alcotest.(check int) "two lanes >= 2" 2 (Mem.read_i32 mem.Interp.global 0)

let test_interp_wrong_warp_width () =
  let b = Builder.create ~warp_size:2 "t" in
  ignore (Builder.start_block b "entry");
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  Alcotest.(check bool) "trapped with warp context" true
    (try
       Interp.run (compile f) ~launch:launch1 (warp4 ()) (mems ());
       false
     with Vekt_error.Error (Vekt_error.Trap { kernel = "t"; _ }) -> true)

let test_interp_fuel () =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry");
  Builder.set_term b (Ir.Jump "entry");
  let f = Builder.func b in
  Alcotest.check_raises "fuel" Interp.Out_of_fuel (fun () ->
      Interp.run ~fuel:100 (compile f) ~launch:launch1 (warp4 ()) (mems ()))

let test_interp_imm_splat () =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry");
  let v4 = Ty.vector Ast.F32 4 in
  let x = Builder.fresh_reg b v4 in
  Builder.emit b (Ir.Bin (Ast.Add, v4, x, imm_f 1.5, imm_f 2.0));
  let s = Builder.fresh_reg b f32 in
  Builder.emit b (Ir.Extract (Ast.F32, s, Ir.R x, 3));
  Builder.emit b
    (Ir.Store (Ast.Global, Ast.F32, Ir.Imm (Scalar_ops.I 0L, Ast.S64), 0, Ir.R s));
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  let mem = mems () in
  Interp.run (compile f) ~launch:launch1 (warp4 ()) mem;
  Alcotest.(check (float 0.0)) "splat lane 3" 3.5 (Mem.read_f32 mem.Interp.global 0)

(* Exactly [fuel] blocks may run: an [n]-block chain needs [~fuel:n]. *)
let test_interp_fuel_exact () =
  let n = 5 in
  let b = Builder.create ~warp_size:4 "t" in
  for k = 0 to n - 1 do
    ignore (Builder.start_block b (Fmt.str "b%d" k));
    Builder.set_term b (if k = n - 1 then Ir.Return else Ir.Jump (Fmt.str "b%d" (k + 1)))
  done;
  let c = compile (Builder.func b) in
  Interp.run ~fuel:n c ~launch:launch1 (warp4 ()) (mems ());
  Alcotest.check_raises "one block short" Interp.Out_of_fuel (fun () ->
      Interp.run ~fuel:(n - 1) c ~launch:launch1 (warp4 ()) (mems ()))

(* Entry 0 inserts 5 into lane 0 and entry 1 inserts 9 into lane 1 of a
   vector register nothing else writes; both then store all four lanes.
   Each run must start from the zero register, whatever the previous run
   of the same compiled code left behind. *)
let insert_kernel () =
  let b = Builder.create ~warp_size:4 "t" in
  let v4 = Ty.vector Ast.S32 4 in
  let x = Builder.fresh_reg b v4 in
  ignore (Builder.start_block b "entry" ~kind:Ir.Scheduler);
  let eid = Builder.emit_val b s32 (fun d -> Ir.Ctx_read (d, Ir.Entry_id, 0)) in
  Builder.set_term b (Ir.Switch (Ir.R eid, [ (0, "e0"); (1, "e1") ], "e0"));
  List.iter
    (fun (label, lane, v) ->
      ignore (Builder.start_block b label);
      Builder.emit b (Ir.Insert (v4, x, Ir.R x, lane, imm_i v));
      Builder.set_term b (Ir.Jump "out"))
    [ ("e0", 0, 5); ("e1", 1, 9) ];
  ignore (Builder.start_block b "out");
  for l = 0 to 3 do
    let s = Builder.emit_val b s32 (fun d -> Ir.Extract (Ast.S32, d, Ir.R x, l)) in
    Builder.emit b
      (Ir.Store (Ast.Global, Ast.S32, Ir.Imm (Scalar_ops.I (Int64.of_int (4 * l)), Ast.S64), 0,
                 Ir.R s))
  done;
  Builder.set_term b Ir.Return;
  compile (Builder.func b)

let test_interp_runs_isolated () =
  let c = insert_kernel () in
  let run entry =
    let mem = mems () in
    Interp.run c ~launch:launch1 (warp4 ~entry ()) mem;
    Mem.read_i32s mem.Interp.global ~at:0 4
  in
  Alcotest.(check (list int)) "first run" [ 5; 0; 0; 0 ] (run 0);
  Alcotest.(check (list int)) "second run" [ 0; 9; 0; 0 ] (run 1);
  (* a run started while another holds this domain's register file *)
  let inner = ref [] in
  let mem = mems () in
  let on_access _ ~addr ~width:_ =
    if addr = 0 && !inner = [] then inner := run 1
  in
  Interp.run ~on_access c ~launch:launch1 (warp4 ()) mem;
  Alcotest.(check (list int)) "nested run" [ 0; 9; 0; 0 ] !inner;
  Alcotest.(check (list int)) "outer run" [ 5; 0; 0; 0 ]
    (Mem.read_i32s mem.Interp.global ~at:0 4)

(* Lane [l] of CTA [k] stores [(tid + 1) * 1.5 + ctaid] at
   [16 * ctaid + 4 * l]: one compiled function, two warps. *)
let test_interp_shared_across_domains () =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry");
  let f4 = Ty.vector Ast.F32 4 in
  let x = Builder.fresh_reg b f4 in
  for l = 0 to 3 do
    let t = Builder.emit_val b (Ty.scalar Ast.U32) (fun d -> Ir.Ctx_read (d, Ir.Tid Ast.X, l)) in
    let tf = Builder.emit_val b f32 (fun d -> Ir.Cvt (f32, Ty.scalar Ast.U32, d, Ir.R t)) in
    Builder.emit b (Ir.Insert (f4, x, Ir.R x, l, Ir.R tf))
  done;
  let cta = Builder.emit_val b (Ty.scalar Ast.U32) (fun d -> Ir.Ctx_read (d, Ir.Ctaid Ast.X, 0)) in
  let ctaf = Builder.emit_val b f32 (fun d -> Ir.Cvt (f32, Ty.scalar Ast.U32, d, Ir.R cta)) in
  let y = Builder.emit_val b f4 (fun d -> Ir.Bin (Ast.Add, f4, d, Ir.R x, imm_f 1.0)) in
  let ctav = Builder.emit_val b f4 (fun d -> Ir.Broadcast (f4, d, Ir.R ctaf)) in
  let z = Builder.emit_val b f4 (fun d -> Ir.Fma (f4, d, Ir.R y, imm_f 1.5, Ir.R ctav)) in
  let u64 = Ty.scalar Ast.U64 in
  let cta64 = Builder.emit_val b u64 (fun d -> Ir.Cvt (u64, Ty.scalar Ast.U32, d, Ir.R cta)) in
  let base =
    Builder.emit_val b u64 (fun d ->
        Ir.Bin (Ast.Mul_lo, u64, d, Ir.R cta64, Ir.Imm (Scalar_ops.I 16L, Ast.U64)))
  in
  Builder.emit b (Ir.Vstore (Ast.Global, Ast.F32, Ir.R base, 0, Ir.R z));
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  Vekt_ir.Verify.check_exn f;
  let c = compile f in
  let warp cta =
    {
      Interp.lanes =
        Array.init 4 (fun i ->
            { Interp.tid = Launch.dim3 i; ctaid = Launch.dim3 cta; local_base = i * 64;
              resume_point = 0 });
      entry_id = 0;
      status = Ir.Status_exit;
    }
  in
  let serial = mems () in
  Interp.run c ~launch:launch1 (warp 0) serial;
  Interp.run c ~launch:launch1 (warp 1) serial;
  Alcotest.(check (list (float 0.0))) "serial"
    [ 1.5; 3.0; 4.5; 6.0; 2.5; 4.0; 5.5; 7.0 ]
    (Mem.read_f32s serial.Interp.global ~at:0 8);
  let shared = mems () in
  let spin cta () =
    for _ = 1 to 500 do
      Interp.run c ~launch:launch1 (warp cta) shared
    done
  in
  let d0 = Domain.spawn (spin 0) and d1 = Domain.spawn (spin 1) in
  Domain.join d0;
  Domain.join d1;
  Alcotest.(check bool) "two domains match serial" true
    (Mem.equal serial.Interp.global shared.Interp.global)

(* --- f32 exactness ({!Interp.infer_tags}) --- *)

let test_exactness () =
  let b = Builder.create ~warp_size:1 "t" in
  ignore (Builder.start_block b "entry");
  let f64 = Ty.scalar Ast.F64 and at0 = Ir.Imm (Scalar_ops.I 0L, Ast.S64) in
  let mov src = Builder.emit_val b f32 (fun d -> Ir.Mov (f32, d, src)) in
  let tenth = mov (imm_f 0.1) and half = mov (imm_f 0.5) in
  let ld = Builder.emit_val b f32 (fun d -> Ir.Load (Ast.Global, Ast.F32, d, at0, 0)) in
  let ld64 = Builder.emit_val b f64 (fun d -> Ir.Load (Ast.Global, Ast.F64, d, at0, 8)) in
  let sum64 = Builder.emit_val b f64 (fun d -> Ir.Bin (Ast.Add, f64, d, Ir.R ld64, Ir.R ld64)) in
  let sum = Builder.emit_val b f32 (fun d -> Ir.Bin (Ast.Add, f32, d, Ir.R ld, imm_f 0.1)) in
  let wide = Builder.emit_val b f64 (fun d -> Ir.Cvt (f64, f32, d, Ir.R ld)) in
  let narrow = Builder.emit_val b f32 (fun d -> Ir.Cvt (f32, f64, d, Ir.R sum64)) in
  let p = Builder.emit_val b (Ty.scalar Ast.Pred) (fun d -> Ir.Cmp (Ast.Lt, f32, d, Ir.R ld, Ir.R sum)) in
  let select x y = Builder.emit_val b f32 (fun d -> Ir.Select (f32, d, Ir.R p, Ir.R x, Ir.R y)) in
  let mixed = select ld tenth and both = select ld half in
  let chain = mov (Ir.R (mov (Ir.R sum))) and chain64 = mov (Ir.R (mov (Ir.R sum64))) in
  let default = Builder.fresh_reg b f32 in
  let early = Builder.fresh_reg b f32 and late = Builder.fresh_reg b f32 in
  Builder.set_term b (Ir.Jump "loop");
  ignore (Builder.start_block b "loop");
  (* [early] reads [late] before the layout reaches [late]'s definition *)
  Builder.emit b (Ir.Mov (f32, early, Ir.R late));
  Builder.emit b (Ir.Mov (f32, late, Ir.R chain64));
  let cycle_a = Builder.fresh_reg b f32 and cycle_b = Builder.fresh_reg b f32 in
  Builder.emit b (Ir.Mov (f32, cycle_a, Ir.R cycle_b));
  Builder.emit b (Ir.Mov (f32, cycle_b, Ir.R cycle_a));
  let keep = [ default; cycle_b ] in
  List.iter
    (fun r -> Builder.emit b (Ir.Store (Ast.Global, Ast.F32, at0, 0, Ir.R r)))
    keep;
  Builder.set_term b (Ir.Branch (Ir.R p, "loop", "exit"));
  ignore (Builder.start_block b "exit");
  Builder.set_term b Ir.Return;
  let f = Builder.func b in
  let facts = Interp.infer_tags f ~used:(Array.make f.Ir.nregs true) in
  List.iter
    (fun (what, r, want) -> Alcotest.(check bool) what want (Interp.exact facts r))
    [
      ("decimal immediate 0.1", tenth, false);
      ("immediate 0.5", half, true);
      ("f32 load", ld, true);
      ("f64 load", ld64, false);
      ("f64 result", sum64, false);
      ("f32 result of an inexact operand", sum, true);
      ("cvt.f64.f32", wide, false);
      ("cvt.f32.f64", narrow, true);
      ("selp of exact and 0.1", mixed, false);
      ("selp of two exact values", both, true);
      ("mov chain from f32", chain, true);
      ("mov chain from f64", chain64, false);
      ("zero default", default, true);
      ("use before the definition in layout", early, false);
      ("cycle of exact moves", cycle_b, true);
    ]

(* --- f32 fast paths against Scalar_ops, bit for bit --- *)

(* Operand values: f32-exact or not, ties to even, the overflow tie,
   subnormals, NaN, signed zero and infinities.  -0.1 makes [x + 0.1]
   depend on whether 0.1 is rounded first. *)
let fp_pool =
  [| 0.1; -0.1; -0.3; 0x1.000001p0; 0x1.ffffffp127; 1e-45; 0.7; -2.5; 1e30; Float.nan; -0.0;
     Float.infinity; 0.5; 2.0; 1e-39; 12345.678; -1.0; 3.0; 0x1.0000018p-126 |]

(* A case: name, operand count, the type its result lanes are stored
   as, how to emit it on vector operands, and its Scalar_ops model. *)
let fp_cases =
  let v b vty elt mk = Ir.R (Builder.emit_val b (vty elt) mk) in
  let bin op =
    ( "bin " ^ Printer.binop_str op, 2, Ast.F64,
      (fun b vty -> function
        | [ x; y ] -> v b vty Ast.F32 (fun d -> Ir.Bin (op, vty Ast.F32, d, x, y))
        | _ -> assert false),
      function [ x; y ] -> Scalar_ops.binop op Ast.F32 x y | _ -> assert false )
  in
  let un op =
    ( "un " ^ Printer.unop_str op, 1, Ast.F64,
      (fun b vty -> function
        | [ x ] -> v b vty Ast.F32 (fun d -> Ir.Un (op, vty Ast.F32, d, x))
        | _ -> assert false),
      function [ x ] -> Scalar_ops.unop op Ast.F32 x | _ -> assert false )
  in
  let cmp op =
    ( "cmp " ^ Printer.cmp_str op, 2, Ast.U32,
      (fun b vty -> function
        | [ x; y ] -> v b vty Ast.Pred (fun d -> Ir.Cmp (op, vty Ast.F32, d, x, y))
        | _ -> assert false),
      function
      | [ x; y ] -> Scalar_ops.of_bool (Scalar_ops.cmp op Ast.F32 x y)
      | _ -> assert false )
  in
  let cvt dst src =
    ( Fmt.str "cvt %s.%s" (Ast.show_dtype dst) (Ast.show_dtype src), 1,
      (if dst = Ast.S32 then Ast.S32 else Ast.F64),
      (fun b vty -> function
        | [ x ] -> v b vty dst (fun d -> Ir.Cvt (vty dst, vty src, d, x))
        | _ -> assert false),
      function [ x ] -> Scalar_ops.cvt ~dst ~src x | _ -> assert false )
  in
  List.map bin Ast.[ Add; Sub; Mul_lo; Div; Min; Max ]
  @ List.map un Ast.[ Neg; Abs; Sqrt; Rsqrt; Rcp; Sin; Cos; Ex2; Lg2 ]
  @ List.map cmp Ast.[ Eq; Ne; Lt; Le; Gt; Ge ]
  @ List.map (fun (d, s) -> cvt d s) Ast.[ (F64, F32); (F32, F32); (F32, F64); (S32, F32) ]
  @ [
      ( "fma", 3, Ast.F64,
        (fun b vty -> function
          | [ x; y; z ] -> v b vty Ast.F32 (fun d -> Ir.Fma (vty Ast.F32, d, x, y, z))
          | _ -> assert false),
        function [ x; y; z ] -> Scalar_ops.mad Ast.F32 x y z | _ -> assert false );
      ( "add 0.1 immediate", 1, Ast.F64,
        (fun b vty -> function
          | [ x ] -> v b vty Ast.F32 (fun d -> Ir.Bin (Ast.Add, vty Ast.F32, d, x, imm_f 0.1))
          | _ -> assert false),
        function [ x ] -> Scalar_ops.binop Ast.Add Ast.F32 x (Scalar_ops.F 0.1) | _ -> assert false );
      (* the lanes stored as f32 are the store under test *)
      ( "store", 1, Ast.F32,
        (fun _ _ -> function [ x ] -> x | _ -> assert false),
        function [ x ] -> x | _ -> assert false );
      ( "spill/restore", 1, Ast.F64,
        (fun b vty -> function
          | [ x ] ->
              let ws = (vty Ast.F32).Ty.width in
              let r = Builder.fresh_reg b (vty Ast.F32) in
              for l = 0 to ws - 1 do
                Builder.emit b (Ir.Spill (l, 8, Ast.F32, x));
                let s = Builder.emit_val b f32 (fun d -> Ir.Restore (d, l, 8, Ast.F32)) in
                Builder.emit b
                  (if ws = 1 then Ir.Mov (f32, r, Ir.R s) else Ir.Insert (vty Ast.F32, r, Ir.R r, l, Ir.R s))
              done;
              Ir.R r
          | _ -> assert false),
        function
        | [ x ] -> Scalar_ops.of_bits Ast.F32 (Scalar_ops.to_bits Ast.F32 x)
        | _ -> assert false );
    ]

let warpn ws =
  {
    Interp.lanes =
      Array.init ws (fun i ->
          { Interp.tid = Launch.dim3 i; ctaid = Launch.dim3 0; local_base = i * 64; resume_point = 0 });
    entry_id = 0;
    status = Ir.Status_exit;
  }

(* Operand [j] lane [l] is loaded from global[8 (j ws + l)], as f32 (an
   exact register) or as f64 (an inexact one); result lane [l] is stored
   after the operands.  Every round rotates the pool through the lanes. *)
let check_fast_path ~ws ~exact (name, nargs, out, emit, model) =
  let b = Builder.create ~warp_size:ws "t" in
  ignore (Builder.start_block b "entry");
  let vty elt = Ty.make elt ws and ld = if exact then Ast.F32 else Ast.F64 in
  let at k = Ir.Imm (Scalar_ops.I (Int64.of_int (8 * k)), Ast.S64) in
  let arg j =
    let lane l =
      Builder.emit_val b (Ty.scalar ld) (fun d -> Ir.Load (Ast.Global, ld, d, at ((j * ws) + l), 0))
    in
    if ws = 1 then Ir.R (lane 0)
    else begin
      let v = Builder.fresh_reg b (vty Ast.F32) in
      for l = 0 to ws - 1 do
        Builder.emit b (Ir.Insert (vty Ast.F32, v, Ir.R v, l, Ir.R (lane l)))
      done;
      Ir.R v
    end
  in
  let res = emit b vty (List.init nargs arg) in
  for l = 0 to ws - 1 do
    let s =
      if ws = 1 then res
      else Ir.R (Builder.emit_val b (Ty.scalar out) (fun d -> Ir.Extract (out, d, res, l)))
    in
    Builder.emit b (Ir.Store (Ast.Global, out, at ((nargs * ws) + l), 0, s))
  done;
  Builder.set_term b Ir.Return;
  let c = compile (Builder.func b) in
  let n = Array.length fp_pool in
  for round = 0 to n - 1 do
    let mem = mems ~global:(8 * (nargs + 1) * ws) () in
    let g = mem.Interp.global in
    for j = 0 to nargs - 1 do
      for l = 0 to ws - 1 do
        Mem.store g ld (8 * ((j * ws) + l)) (Scalar_ops.F fp_pool.((round + (5 * j) + (3 * l)) mod n))
      done
    done;
    Interp.run c ~launch:launch1 (warpn ws) mem;
    for l = 0 to ws - 1 do
      let want = model (List.init nargs (fun j -> Mem.load g ld (8 * ((j * ws) + l)))) in
      let got = Mem.load g out (8 * ((nargs * ws) + l)) in
      Alcotest.(check int64)
        (Fmt.str "%s ws=%d %s round %d lane %d" name ws
           (if exact then "exact" else "inexact") round l)
        (Scalar_ops.to_bits out want) (Scalar_ops.to_bits out got)
    done
  done

let test_fast_paths () =
  List.iter
    (fun case ->
      List.iter
        (fun ws -> List.iter (fun exact -> check_fast_path ~ws ~exact case) [ true; false ])
        [ 1; 4 ])
    fp_cases

(* --- integer fast paths against the PTX model (models.ml) --- *)

(* Register patterns: 0, 1, -1, every integer type's min and max, shift
   amounts below, at and beyond each width, and patterns whose high bits
   differ from their low ones' extension. *)
let int_pool =
  [| 0L; 1L; -1L; 7L; 8L; 9L; 15L; 16L; 31L; 32L; 33L; 63L; 64L; 65L; 0x7FL; 0x80L; 0xFFL;
     -128L; 0x7FFFL; 0x8000L; 0xFFFFL; -32768L; 0x7FFF_FFFFL; 0x8000_0000L; 0xFFFF_FFFFL;
     -0x8000_0000L; Int64.max_int; Int64.min_int; 0x1_0000_0001L; 0x1234_5678_9ABC_DEF0L |]

let int_types = Ast.[ U8; U16; U32; S32; U64; S64; B32 ]

(* A case: name, operand count, how to emit it on operands of the given
   vector type, and its model on register patterns.  Operands are loaded
   as b64, so their registers hold every pool pattern unnormalized, and
   each result lane is stored as b64, whole. *)
let int_cases =
  let ty_str ty = String.lowercase_ascii (Ast.show_dtype ty) in
  let v b vty elt mk = Ir.R (Builder.emit_val b (vty elt) mk) in
  let bin ty op =
    ( Fmt.str "%s.%s" (Printer.binop_str op) (ty_str ty), 2,
      (fun b vty -> function
        | [ x; y ] -> v b vty ty (fun d -> Ir.Bin (op, vty ty, d, x, y))
        | _ -> assert false),
      function [ x; y ] -> Models.Int_ops.binop op ty x y | _ -> assert false )
  in
  let cmp ty op =
    ( Fmt.str "setp.%s.%s" (Printer.cmp_str op) (ty_str ty), 2,
      (fun b vty -> function
        | [ x; y ] -> v b vty Ast.Pred (fun d -> Ir.Cmp (op, vty ty, d, x, y))
        | _ -> assert false),
      function [ x; y ] -> if Models.Int_ops.cmp op ty x y then 1L else 0L | _ -> assert false )
  in
  let mad ty =
    ( "mad.lo." ^ ty_str ty, 3,
      (fun b vty -> function
        | [ x; y; z ] -> v b vty ty (fun d -> Ir.Fma (vty ty, d, x, y, z))
        | _ -> assert false),
      function [ x; y; z ] -> Models.Int_ops.mad ty x y z | _ -> assert false )
  in
  let cvt (dst, src) =
    ( Fmt.str "cvt.%s.%s" (ty_str dst) (ty_str src), 1,
      (fun b vty -> function
        | [ x ] -> v b vty dst (fun d -> Ir.Cvt (vty dst, vty src, d, x))
        | _ -> assert false),
      function [ x ] -> Models.Int_ops.cvt ~dst ~src x | _ -> assert false )
  in
  List.concat_map
    (fun ty ->
      List.map (bin ty) Ast.[ Add; Sub; Mul_lo; And; Or; Xor; Shl; Shr; Min; Max ]
      @ List.map (cmp ty) Ast.[ Eq; Ne; Lt; Le; Gt; Ge ]
      @ [ mad ty ])
    int_types
  @ List.map cvt
      Ast.[ (U64, U32); (S64, S32); (U32, U64); (S32, S64); (U8, S32); (S32, U8); (U16, S64); (B32, S32) ]

(* Operand [j] lane [l] is register pattern [args.(j).(l)], loaded as
   b64 from global[8 (j ws + l)]; with [imm], the last operand is
   instead the immediate [imm], which has stride 0. *)
let check_int_case ~ws ?imm (name, nargs, emit, model) =
  let b = Builder.create ~warp_size:ws "t" in
  ignore (Builder.start_block b "entry");
  let vty elt = Ty.make elt ws and b64 = Ty.scalar Ast.B64 in
  let at k = Ir.Imm (Scalar_ops.I (Int64.of_int (8 * k)), Ast.S64) in
  let loaded = match imm with None -> nargs | Some _ -> nargs - 1 in
  let arg j =
    match imm with
    | Some x when j = loaded -> Ir.Imm (Scalar_ops.I x, Ast.B64)
    | _ ->
        let lane l =
          Builder.emit_val b b64 (fun d -> Ir.Load (Ast.Global, Ast.B64, d, at ((j * ws) + l), 0))
        in
        if ws = 1 then Ir.R (lane 0)
        else begin
          let v = Builder.fresh_reg b (vty Ast.B64) in
          for l = 0 to ws - 1 do
            Builder.emit b (Ir.Insert (vty Ast.B64, v, Ir.R v, l, Ir.R (lane l)))
          done;
          Ir.R v
        end
  in
  let res = emit b vty (List.init nargs arg) in
  for l = 0 to ws - 1 do
    let s =
      if ws = 1 then res
      else Ir.R (Builder.emit_val b b64 (fun d -> Ir.Extract (Ast.B64, d, res, l)))
    in
    Builder.emit b (Ir.Store (Ast.Global, Ast.B64, at ((loaded * ws) + l), 0, s))
  done;
  Builder.set_term b Ir.Return;
  let c = compile (Builder.func b) in
  let n = Array.length int_pool in
  (* every pair of pool patterns for the first two loaded operands; a
     third runs through the pool seven ahead of the second *)
  let runs = ((n * n) + ws - 1) / ws in
  for run = 0 to runs - 1 do
    let mem = mems ~global:(8 * (loaded + 1) * ws) () in
    let g = mem.Interp.global in
    let pick j l =
      let k = (run * ws) + l in
      int_pool.((if j = 0 then k / n else if j = 1 then k else k + 7) mod n)
    in
    for j = 0 to loaded - 1 do
      for l = 0 to ws - 1 do
        Mem.store g Ast.B64 (8 * ((j * ws) + l)) (Scalar_ops.I (pick j l))
      done
    done;
    Interp.run c ~launch:launch1 (warpn ws) mem;
    for l = 0 to ws - 1 do
      let ops = List.init loaded (fun j -> pick j l) @ Option.to_list imm in
      let want = model ops in
      match Mem.load g Ast.B64 (8 * ((loaded * ws) + l)) with
      | Scalar_ops.I got when Int64.equal got want -> ()
      | got ->
          Alcotest.failf "%s ws=%d%s on %s: got %a, want %Ld" name ws
            (if imm = None then "" else " (immediate)")
            (String.concat ", " (List.map (Fmt.str "%#Lx") ops))
            Scalar_ops.pp_value got want
    done
  done

let test_int_fast_paths () =
  List.iter
    (fun ((_, nargs, _, _) as case) ->
      List.iter
        (fun ws ->
          check_int_case ~ws case;
          if nargs = 2 then List.iter (fun imm -> check_int_case ~ws ~imm case) [ 1L; 33L; -1L ])
        [ 1; 4 ])
    int_cases

(* --- run-time contracts of the lowering --- *)

let trap_of f =
  match f () with
  | () -> None
  | exception Vekt_error.Error (Vekt_error.Trap { kernel; access; _ }) -> Some (kernel, access)

(* The counter contract of a glue run: a trap part-way through a block
   leaves [dyn_instrs], [restores] and [spills] counting exactly the
   instructions up to and including the faulting one, as if each had
   run on its own.  Lane [l]'s [tid] is spilled and restored, then a
   global load at 4096 faults (64-byte segment) ahead of more glue; with
   [bad_slot] the restore of lane 2 faults first, inside the glue run. *)
let test_interp_fault_counters () =
  let v4 = Ty.vector Ast.S32 4 in
  let kernel ~bad_slot =
    let b = Builder.create ~warp_size:4 "t" in
    ignore (Builder.start_block b "entry");
    let x = Builder.fresh_reg b v4 in
    for l = 0 to 3 do
      let s = Builder.emit_val b s32 (fun d -> Ir.Ctx_read (d, Ir.Tid Ast.X, l)) in
      Builder.emit b (Ir.Insert (v4, x, Ir.R x, l, Ir.R s))
    done;
    for l = 0 to 3 do
      Builder.emit b (Ir.Spill (l, 0, Ast.S32, Ir.R x))
    done;
    let r =
      Array.init 4 (fun l ->
          let slot = if l = 2 && bad_slot then 200 else 0 in
          Builder.emit_val b s32 (fun d -> Ir.Restore (d, l, slot, Ast.S32)))
    in
    let m = Builder.emit_val b s32 (fun d -> Ir.Mov (s32, d, Ir.R r.(0))) in
    let y =
      Builder.emit_val b s32 (fun d ->
          Ir.Load (Ast.Global, Ast.S32, d, Ir.Imm (Scalar_ops.I 4096L, Ast.S64), 0))
    in
    Builder.emit b (Ir.Spill (0, 4, Ast.S32, Ir.R y));
    Builder.emit b (Ir.Spill (1, 4, Ast.S32, Ir.R m));
    ignore (Builder.emit_val b s32 (fun d -> Ir.Restore (d, 3, 4, Ast.S32)));
    Builder.set_term b Ir.Return;
    compile (Builder.func b)
  in
  let check ~bad_slot ~addr ~dyn ~spills ~restores =
    let counters = Interp.fresh_counters () in
    let what = if bad_slot then "restore" else "load" in
    match
      trap_of (fun () ->
          Interp.run ~counters (kernel ~bad_slot) ~launch:launch1 (warp4 ()) (mems ()))
    with
    | Some (_, Some a) ->
        Alcotest.(check int) (what ^ " fault address") addr a.Vekt_error.addr;
        Alcotest.(check int) (what ^ ": dyn_instrs") dyn counters.Interp.dyn_instrs;
        Alcotest.(check int) (what ^ ": spills") spills counters.Interp.spills;
        Alcotest.(check int) (what ^ ": restores") restores counters.Interp.restores
    | _ -> Alcotest.failf "%s: no structured memory fault" what
  in
  (* 4 context reads, 4 inserts, 4 spills, 4 restores, a move, the load *)
  check ~bad_slot:false ~addr:4096 ~dyn:18 ~spills:4 ~restores:4;
  (* lane 2's block starts at 128: 128 + 200 is past the 256-byte arena *)
  check ~bad_slot:true ~addr:328 ~dyn:15 ~spills:4 ~restores:3

(* The counter contract of the folds.  Lane [l]'s [tid] is packed into
   [x] (context reads folded into their inserts), then one of: a global
   load at 4096 (64-byte segment) feeding a folded insert, counted
   without its insert; an extract feeding a faulting store, both
   counted; or [x] spilled (one merged run) and restored from offset
   140, a merged restore run whose lane 2 (block at 128) is past the
   256-byte arena, counting restores 0-2 and, for lanes 0 and 1, their
   folded inserts. *)
let test_interp_fold_fault_counters () =
  let v4 = Ty.vector Ast.S32 4 in
  let at = Ir.Imm (Scalar_ops.I 4096L, Ast.S64) in
  let kernel tail =
    let b = Builder.create ~warp_size:4 "t" in
    ignore (Builder.start_block b "entry");
    let x = Builder.fresh_reg b v4 in
    for l = 0 to 3 do
      let s = Builder.emit_val b s32 (fun d -> Ir.Ctx_read (d, Ir.Tid Ast.X, l)) in
      Builder.emit b (Ir.Insert (v4, x, Ir.R x, l, Ir.R s))
    done;
    tail b x;
    Builder.set_term b Ir.Return;
    let f = Builder.func b in
    Vekt_ir.Verify.check_exn f;
    (compile f, Ir.size f)
  in
  let load b x =
    let y = Builder.emit_val b s32 (fun d -> Ir.Load (Ast.Global, Ast.S32, d, at, 0)) in
    Builder.emit b (Ir.Insert (v4, x, Ir.R x, 0, Ir.R y))
  in
  let store b x =
    let e = Builder.emit_val b s32 (fun d -> Ir.Extract (Ast.S32, d, Ir.R x, 1)) in
    Builder.emit b (Ir.Store (Ast.Global, Ast.S32, at, 0, Ir.R e))
  in
  let restore b x =
    for l = 0 to 3 do
      Builder.emit b (Ir.Spill (l, 0, Ast.S32, Ir.R x))
    done;
    let w = Builder.fresh_reg b v4 in
    for l = 0 to 3 do
      let r = Builder.emit_val b s32 (fun d -> Ir.Restore (d, l, 140, Ast.S32)) in
      Builder.emit b (Ir.Insert (v4, w, Ir.R w, l, Ir.R r))
    done
  in
  let check what tail ~size ~addr ~dyn ~spills ~restores =
    let c, instrs = kernel tail in
    (* 4 folded context reads; the rest folded or merged as named *)
    Alcotest.(check int) (what ^ ": closures and steps of " ^ string_of_int instrs) size
      (Interp.size c);
    let counters = Interp.fresh_counters () in
    match trap_of (fun () -> Interp.run ~counters c ~launch:launch1 (warp4 ()) (mems ())) with
    | Some (_, Some a) ->
        Alcotest.(check int) (what ^ ": fault address") addr a.Vekt_error.addr;
        Alcotest.(check int) (what ^ ": dyn_instrs") dyn counters.Interp.dyn_instrs;
        Alcotest.(check int) (what ^ ": spills") spills counters.Interp.spills;
        Alcotest.(check int) (what ^ ": restores") restores counters.Interp.restores
    | _ -> Alcotest.failf "%s: no structured memory fault" what
  in
  check "load into insert" load ~size:5 ~addr:4096 ~dyn:9 ~spills:0 ~restores:0;
  check "extract into store" store ~size:5 ~addr:4096 ~dyn:10 ~spills:0 ~restores:0;
  check "merged restores" restore ~size:6 ~addr:268 ~dyn:17 ~spills:4 ~restores:3

(* Every fold against the same kernel with that fold blocked by one more
   use of the folded register: the blocking instruction replaces a move
   from an immediate, so both kernels run as many instructions, and
   every register they keep ends up in memory.  Results and counters
   must agree, and the blocked kernel must lower to more pieces. *)
let test_interp_folded_vs_unfolded () =
  let vi = Ty.vector Ast.S32 4 and vf = Ty.vector Ast.F32 4 in
  let g k = Ir.Imm (Scalar_ops.I (Int64.of_int k), Ast.S64) in
  (* [kernel blocked]: the registers each fold would remove, by name;
     the one named [blocked] gets a second use at the end *)
  let kernel blocked =
    let b = Builder.create ~warp_size:4 "t" in
    ignore (Builder.start_block b "entry");
    let keep = ref [] in
    let mark name r = keep := (name, r) :: !keep in
    let x = Builder.fresh_reg b vi and y = Builder.fresh_reg b vf in
    let z = Builder.fresh_reg b vf and w = Builder.fresh_reg b vf in
    for l = 0 to 3 do
      let t = Builder.emit_val b s32 (fun d -> Ir.Ctx_read (d, Ir.Tid Ast.X, l)) in
      if l = 0 then mark "ctx" t;
      Builder.emit b (Ir.Insert (vi, x, Ir.R x, l, Ir.R t))
    done;
    for l = 0 to 3 do
      let e = Builder.emit_val b s32 (fun d -> Ir.Extract (Ast.S32, d, Ir.R x, l)) in
      let c = Builder.emit_val b f32 (fun d -> Ir.Cvt (f32, s32, d, Ir.R e)) in
      if l = 0 then (mark "extract" e; mark "cvt" c);
      Builder.emit b (Ir.Insert (vf, y, Ir.R y, l, Ir.R c))
    done;
    for l = 0 to 3 do
      let v = Builder.emit_val b f32 (fun d -> Ir.Load (Ast.Global, Ast.F32, d, g (4 * l), 0)) in
      if l = 0 then mark "load" v;
      Builder.emit b (Ir.Insert (vf, z, Ir.R z, l, Ir.R v))
    done;
    Builder.emit b (Ir.Bin (Ast.Add, vf, y, Ir.R y, Ir.R z));
    for l = 0 to 3 do
      Builder.emit b (Ir.Spill (l, 16, Ast.F32, Ir.R y))
    done;
    for l = 0 to 3 do
      let r = Builder.emit_val b f32 (fun d -> Ir.Restore (d, l, 16, Ast.F32)) in
      if l = 0 then mark "restore" r;
      Builder.emit b (Ir.Insert (vf, w, Ir.R w, l, Ir.R r))
    done;
    List.iteri
      (fun k (v, ty) ->
        for l = 0 to 3 do
          let e = Builder.emit_val b (Ty.scalar ty) (fun d -> Ir.Extract (ty, d, Ir.R v, l)) in
          if k = 0 && l = 0 then mark "store" e;
          Builder.emit b (Ir.Store (Ast.Global, ty, g (64 + (16 * k) + (4 * l)), 0, Ir.R e))
        done)
      [ (w, Ast.F32); (x, Ast.S32); (z, Ast.F32) ];
    List.iter
      (fun (name, r) ->
        let ty = Vekt_ir.Ir.reg_ty (Builder.func b) r in
        let from =
          if name = blocked then Ir.R r
          else if Ast.is_float ty.Ty.elt then imm_f 0.0
          else imm_i 0
        in
        ignore (Builder.emit_val b ty (fun d -> Ir.Mov (ty, d, from))))
      (List.rev !keep);
    Builder.set_term b Ir.Return;
    let f = Builder.func b in
    Vekt_ir.Verify.check_exn f;
    let c = compile f in
    let mem = mems ~global:128 () in
    Mem.write_f32s mem.Interp.global ~at:0 [ 0.5; 1.5; 2.5; 3.5 ];
    let counters = Interp.fresh_counters () in
    Interp.run ~counters c ~launch:launch1 (warp4 ()) mem;
    (Interp.size c, Bytes.to_string (Mem.bytes mem.Interp.global), counters)
  in
  let size, global, counters = kernel "" in
  Alcotest.(check (list (float 0.0))) "w = tid + global" [ 0.5; 2.5; 4.5; 6.5 ]
    (Mem.read_f32s (Mem.of_bytes (Bytes.of_string global)) ~at:64 4);
  List.iter
    (fun name ->
      let size', global', counters' = kernel name in
      Alcotest.(check bool) (name ^ ": blocked lowers to more pieces") true (size' > size);
      Alcotest.(check string) (name ^ ": memory") global global';
      List.iter
        (fun (field, get, _) ->
          Alcotest.(check int) (name ^ ": " ^ field) (get counters) (get counters'))
        Interp.int_counter_fields)
    [ "ctx"; "extract"; "cvt"; "load"; "restore"; "store" ]

(* The vectorizer's glue around ringsum's barrier lowers to fewer
   closures and steps than ringsum has instructions: the lane moves fold
   into their neighbours and the per-lane spills and restores merge, so
   at least half of the extracts and inserts leave nothing behind. *)
let test_interp_ringsum_folds () =
  let src = In_channel.with_open_text "../examples/ringsum.ptx" In_channel.input_all in
  let tr =
    Vekt_transform.Ptx_to_ir.frontend (Typecheck.load src) ~kernel:"ringsum"
  in
  let scalar = tr.Vekt_transform.Ptx_to_ir.func in
  let plan =
    Vekt_transform.Plan.compute scalar
      ~local_decl_bytes:tr.Vekt_transform.Ptx_to_ir.local_decl_bytes
  in
  let f = (Vekt_transform.Vectorize.run ~plan scalar ~ws:4).Vekt_transform.Vectorize.func in
  ignore (Vekt_transform.Passes.run f);
  let moves = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun ({ Ir.i; _ } : Ir.li) ->
          match i with Ir.Extract _ | Ir.Insert _ -> incr moves | _ -> ())
        b.Ir.insts)
    (Ir.blocks f);
  let instrs = Ir.size f and size = Interp.size (compile f) in
  Alcotest.(check bool)
    (Fmt.str "%d closures and steps < %d instructions - %d lane moves / 2" size instrs !moves)
    true
    (!moves > 0 && size < instrs - (!moves / 2))

(* A guest address near [max_int], where [addr + width] wraps, is a
   structured fault like any other out-of-range access. *)
let test_interp_huge_address () =
  let b = Builder.create ~warp_size:4 "t" in
  ignore (Builder.start_block b "entry");
  let at = Ir.Imm (Scalar_ops.I (Int64.of_int (max_int - 1)), Ast.S64) in
  ignore (Builder.emit_val b s32 (fun d -> Ir.Load (Ast.Global, Ast.S32, d, at, 0)));
  Builder.set_term b Ir.Return;
  let c = compile (Builder.func b) in
  match trap_of (fun () -> Interp.run c ~launch:launch1 (warp4 ()) (mems ())) with
  | Some (_, Some a) -> Alcotest.(check int) "fault address" (max_int - 1) a.Vekt_error.addr
  | _ -> Alcotest.fail "no structured memory fault"

(* Lowering proves every register slot and lane in range, so run time
   checks none: an instruction that would reach past its operands or
   its warp compiles to a trap, raised as a structured error when it
   runs, never as [Invalid_argument] or a stray access. *)
let test_interp_rejects_out_of_range () =
  let v2 = Ty.vector Ast.S32 2 and v4 = Ty.vector Ast.S32 4 in
  let kernel emit =
    let b = Builder.create ~warp_size:4 "t" in
    ignore (Builder.start_block b "entry");
    let narrow = Builder.fresh_reg b v2 and wide = Builder.fresh_reg b v4 in
    emit b ~narrow ~wide;
    Builder.set_term b Ir.Return;
    compile (Builder.func b)
  in
  let cases =
    [
      ( "too-narrow vector operand",
        fun b ~narrow ~wide ->
          Builder.emit b (Ir.Bin (Ast.Add, v4, wide, Ir.R narrow, imm_i 1)) );
      ( "extract past the width",
        fun b ~narrow ~wide:_ ->
          ignore (Builder.emit_val b s32 (fun d -> Ir.Extract (Ast.S32, d, Ir.R narrow, 2))) );
      ( "insert past the width",
        fun b ~narrow:_ ~wide -> Builder.emit b (Ir.Insert (v4, wide, Ir.R wide, 4, imm_i 1)) );
      ( "spill past its operand",
        fun b ~narrow ~wide:_ -> Builder.emit b (Ir.Spill (3, 0, Ast.S32, Ir.R narrow)) );
      ( "context read past the warp",
        fun b ~narrow:_ ~wide:_ ->
          ignore (Builder.emit_val b s32 (fun d -> Ir.Ctx_read (d, Ir.Tid Ast.X, 4))) );
    ]
  in
  List.iter
    (fun (what, emit) ->
      let c = kernel emit in
      match trap_of (fun () -> Interp.run c ~launch:launch1 (warp4 ()) (mems ())) with
      | Some ("t", None) -> ()
      | Some _ -> Alcotest.failf "%s: trap without the kernel's context" what
      | None -> Alcotest.failf "%s: ran without a trap" what
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    cases

let () =
  Alcotest.run "vm"
    [
      ( "machine",
        [
          Alcotest.test_case "peak" `Quick test_machine_peak;
          Alcotest.test_case "chunks" `Quick test_machine_chunks;
        ] );
      ( "timing",
        [
          Alcotest.test_case "dependent slower" `Quick test_timing_dependent_slower;
          Alcotest.test_case "flops" `Quick test_timing_flops_counted;
          Alcotest.test_case "chunking" `Quick test_timing_wide_vectors_chunked;
          Alcotest.test_case "pressure spills" `Quick test_timing_pressure_spills;
          Alcotest.test_case "vector parity" `Quick test_timing_scalar_cheaper_ports;
        ] );
      ( "interp",
        [
          Alcotest.test_case "vector arith" `Quick test_interp_vector_arith;
          Alcotest.test_case "spill/restore" `Quick test_interp_spill_restore_roundtrip;
          Alcotest.test_case "switch/resume" `Quick test_interp_switch_and_resume;
          Alcotest.test_case "reduce add" `Quick test_interp_reduce_add;
          Alcotest.test_case "warp width" `Quick test_interp_wrong_warp_width;
          Alcotest.test_case "fuel" `Quick test_interp_fuel;
          Alcotest.test_case "imm splat" `Quick test_interp_imm_splat;
          Alcotest.test_case "fuel exact" `Quick test_interp_fuel_exact;
          Alcotest.test_case "runs isolated" `Quick test_interp_runs_isolated;
          Alcotest.test_case "shared across domains" `Quick
            test_interp_shared_across_domains;
          Alcotest.test_case "f32 exactness" `Quick test_exactness;
          Alcotest.test_case "f32 fast paths" `Quick test_fast_paths;
          Alcotest.test_case "integer fast paths" `Quick test_int_fast_paths;
          Alcotest.test_case "fault counters" `Quick test_interp_fault_counters;
          Alcotest.test_case "fold fault counters" `Quick test_interp_fold_fault_counters;
          Alcotest.test_case "folded vs unfolded" `Quick test_interp_folded_vs_unfolded;
          Alcotest.test_case "ringsum folds" `Quick test_interp_ringsum_folds;
          Alcotest.test_case "out-of-range lowering" `Quick test_interp_rejects_out_of_range;
          Alcotest.test_case "huge address" `Quick test_interp_huge_address;
        ] );
    ]
