(** Seeded generator of well-typed PTX kernels for differential fuzzing
    (DESIGN.md §3.9).

    Every generated kernel satisfies two invariants by construction:

    - {b well-typed}: the kernel passes {!Vekt_ptx.Typecheck} (asserted
      after generation — a type error here is a generator bug, not a
      finding), so the differential harness spends its budget on the
      middle-end and backend rather than on frontend rejections;

    - {b schedule-deterministic}: the final memory image is a function of
      the launch alone, never of warp width, warp-formation policy,
      worker count or checkpoint placement.  Concretely:
      - every global store site writes its own 64-cell region of the
        output buffer at a thread-unique index (the linear thread id, or
        the id XOR a constant — a bijection), so no two threads ever
        write the same cell and cross-thread store order cannot matter;
      - atomics go to a dedicated accumulator buffer, use commutative
        ops only ([add]/[min]/[max]), and their (order-dependent) old
        value is returned into a sink register that is never read;
      - barriers appear only on reconvergent paths: at top level or in
        loops with a CTA-uniform trip count, never under divergent
        control flow, and never in kernels with an early thread exit;
      - shared-memory shuffles bracket the store→load exchange with two
        barriers (the second closes the read phase against the next
        section's writes);
      - [%laneid] and [%warpsize] are never read (their values
        legitimately differ across the configuration matrix);
      - operations with undefined or machine-dependent results are
        avoided or made total by {!Vekt_ptx.Scalar_ops} (division by
        zero, oversized shifts), and loops bound their trip counts.

    Generation is driven by a splittable [Random.State] seeded from a
    single integer, so a seed fully reproduces a kernel.  A small
    fraction of seeds instead yields a {e frontier probe}: a fixed
    template exercising a real-PTX construct just outside the supported
    subset.  Probes feed the [Unsupported]-tally worklist; when a gap
    closes, the probe starts executing and is differentially checked
    like any other kernel. *)

module A = Vekt_ptx.Ast
module Printer = Vekt_ptx.Printer
module Typecheck = Vekt_ptx.Typecheck

type t = {
  seed : int;
  src : string;  (** PTX text, starting with the [// vekt-fuzz] header *)
  kernel : string;
  grid : int;  (** CTAs along x *)
  block : int;  (** threads per CTA along x *)
  block_y : int;  (** threads per CTA along y; 1 in every generated kernel *)
}

let kernel_name = "fz"

(* Buffer protocol shared with the runner: every kernel takes
   (out, in, acc, n).  The output buffer is partitioned into [out_sites]
   disjoint 64-cell regions, one per static store site. *)
let out_sites = 8
let out_region_cells = 64
let out_bytes = out_sites * out_region_cells * 4
let in_cells = 64
let in_bytes = in_cells * 4
let acc_cells = 16
let acc_bytes = acc_cells * 4

(** The [// vekt-fuzz] header line: [block=X], or [block=XxY] for a
    2-D CTA. *)
let header ?(block_y = 1) ~grid ~block () =
  if block_y = 1 then Fmt.str "// vekt-fuzz grid=%d block=%d\n" grid block
  else Fmt.str "// vekt-fuzz grid=%d block=%dx%d\n" grid block block_y

let parse_header src =
  let scan fmt k =
    try Some (Scanf.sscanf src fmt k)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  match scan "// vekt-fuzz grid=%d block=%dx%d" (fun g x y -> (g, x, y)) with
  | Some _ as dims -> dims
  | None -> scan "// vekt-fuzz grid=%d block=%d" (fun g x -> (g, x, 1))

(** Wrap existing PTX text (e.g. a corpus file) as a runnable spec,
    taking grid/block from the [// vekt-fuzz] header when present. *)
let spec_of_src ?(seed = -1) src =
  let grid, block, block_y = Option.value (parse_header src) ~default:(1, 8, 1) in
  { seed; src; kernel = kernel_name; grid; block; block_y }

(* ------------------------------------------------------------------ *)
(* Generator state                                                     *)

type st = {
  rng : Random.State.t;
  mutable body : A.stmt list;  (* reversed *)
  mutable extra_regs : (string * A.dtype) list;  (* reversed *)
  mutable labels : int;
  mutable scratch : int;
  mutable sites : int;  (* store-site regions handed out (0..out_sites-2) *)
  blockdim : int;
  nthr : int;
  barrier_ok : bool;
}

let emitg st g i = st.body <- A.Inst (g, i, 0) :: st.body
let emit st i = emitg st A.Always i

let emit_label st l = st.body <- A.Label l :: st.body

let fresh_label st =
  let n = st.labels in
  st.labels <- n + 1;
  Fmt.str "L%d" n

let fresh st ty =
  let n = st.scratch in
  st.scratch <- n + 1;
  let r = Fmt.str "%%x%d" n in
  st.extra_regs <- (r, ty) :: st.extra_regs;
  r

let rint st n = Random.State.int st.rng n
let pick st l = List.nth l (rint st (List.length l))
let chance st pct = rint st 100 < pct

(* Register pools: the random instruction mix reads and writes these.
   Prologue/address/loop registers live outside the pools so sections
   cannot clobber loop counters or base pointers. *)
let pool_u32 = [ "%r0"; "%r1"; "%r2"; "%r3" ]
let pool_s32 = [ "%s0"; "%s1"; "%s2" ]
let pool_u64 = [ "%w0"; "%w1" ]
let pool_f32 = [ "%f0"; "%f1"; "%f2" ]
let pool_f64 = [ "%d0"; "%d1" ]
let pool_pred = [ "%q0"; "%q1"; "%q2" ]

let pool_of = function
  | A.U32 | A.B32 -> pool_u32
  | A.S32 -> pool_s32
  | A.U64 | A.S64 | A.B64 -> pool_u64
  | A.F32 -> pool_f32
  | A.F64 -> pool_f64
  | A.Pred -> pool_pred
  | _ -> pool_u32

let imm_for st (ty : A.dtype) : A.operand =
  match ty with
  | A.F32 | A.F64 ->
      (* quarter-steps in [-4, 28): exact in both f32 and f64 *)
      A.Imm_float ((float_of_int (rint st 128) /. 4.0) -. 4.0)
  | _ -> A.Imm_int (Int64.of_int (rint st 128 - 16))

let operand st ty =
  if chance st 75 then A.Reg (pick st (pool_of ty)) else imm_for st ty

(* Shift amounts are U32 and may exceed the value width (total semantics:
   oversized shifts yield 0 / sign). *)
let shift_amount st =
  if chance st 60 then A.Imm_int (Int64.of_int (rint st 40))
  else A.Reg (pick st pool_u32)

let maybe_guard st i =
  (* guards only on pure register ops; the caller guarantees purity *)
  if chance st 15 then
    let p = pick st pool_pred in
    emitg st (if chance st 50 then A.If p else A.Ifnot p) i
  else emit st i

(* ------------------------------------------------------------------ *)
(* Random pure instructions                                            *)

let int32_ops =
  [ A.Add; A.Sub; A.Mul_lo; A.Mul_hi; A.Div; A.Rem; A.Min; A.Max; A.And;
    A.Or; A.Xor; A.Shl; A.Shr ]

(* no Mul_hi / Mul_wide at 64 bits (Scalar_ops rejects them) *)
let int64_ops =
  [ A.Add; A.Sub; A.Mul_lo; A.Div; A.Rem; A.Min; A.Max; A.And; A.Or; A.Xor;
    A.Shl; A.Shr ]

let float_ops = [ A.Add; A.Sub; A.Mul_lo; A.Div; A.Min; A.Max ]

(* integer↔integer and integer↔float conversion pairs over pool types *)
let cvt_pairs =
  [ (A.U32, A.S32); (A.S32, A.U32); (A.U64, A.U32); (A.U64, A.S32);
    (A.U32, A.U64); (A.F32, A.U32); (A.F32, A.S32); (A.S32, A.F32);
    (A.U32, A.F32); (A.F64, A.F32); (A.F32, A.F64); (A.F64, A.S32);
    (A.S32, A.F64) ]

let rand_pure st =
  match rint st 100 with
  | n when n < 26 ->
      let ty = pick st [ A.U32; A.S32 ] in
      let op = pick st int32_ops in
      let b =
        if op = A.Shl || op = A.Shr then shift_amount st else operand st ty
      in
      maybe_guard st (A.Binary (op, ty, pick st (pool_of ty), operand st ty, b))
  | n when n < 34 ->
      let op = pick st int64_ops in
      let b =
        if op = A.Shl || op = A.Shr then shift_amount st else operand st A.U64
      in
      maybe_guard st
        (A.Binary (op, A.U64, pick st pool_u64, operand st A.U64, b))
  | n when n < 40 ->
      (* mul.wide: 32-bit sources, 64-bit destination *)
      let sty = pick st [ A.U32; A.S32 ] in
      maybe_guard st
        (A.Binary (A.Mul_wide, sty, pick st pool_u64, operand st sty, operand st sty))
  | n when n < 54 ->
      let ty = pick st [ A.F32; A.F64 ] in
      maybe_guard st
        (A.Binary
           (pick st float_ops, ty, pick st (pool_of ty), operand st ty, operand st ty))
  | n when n < 62 ->
      if chance st 60 then
        let ty = pick st [ A.F32; A.F64 ] in
        let op =
          pick st [ A.Neg; A.Abs; A.Sqrt; A.Rsqrt; A.Rcp; A.Sin; A.Cos; A.Ex2; A.Lg2 ]
        in
        maybe_guard st (A.Unary (op, ty, pick st (pool_of ty), operand st ty))
      else
        let ty = pick st [ A.U32; A.S32; A.U64 ] in
        maybe_guard st
          (A.Unary (pick st [ A.Neg; A.Not; A.Abs ], ty, pick st (pool_of ty), operand st ty))
  | n when n < 69 ->
      let ty = pick st [ A.U32; A.S32; A.F32; A.F64 ] in
      maybe_guard st
        (A.Mad (ty, pick st (pool_of ty), operand st ty, operand st ty, operand st ty))
  | n when n < 78 ->
      let ty = pick st [ A.U32; A.S32; A.U64; A.F32; A.F64 ] in
      maybe_guard st
        (A.Setp
           ( pick st [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ],
             ty, pick st pool_pred, operand st ty, operand st ty ))
  | n when n < 84 ->
      let ty = pick st [ A.U32; A.S32; A.F32 ] in
      maybe_guard st
        (A.Selp
           (ty, pick st (pool_of ty), operand st ty, operand st ty, pick st pool_pred))
  | n when n < 92 ->
      let dty, sty = pick st cvt_pairs in
      maybe_guard st
        (A.Cvt (dty, sty, pick st (pool_of dty), A.Reg (pick st (pool_of sty))))
  | n when n < 97 ->
      if chance st 70 then
        maybe_guard st
          (A.Binary
             ( pick st [ A.And; A.Or; A.Xor ],
               A.Pred, pick st pool_pred,
               A.Reg (pick st pool_pred), A.Reg (pick st pool_pred) ))
      else
        maybe_guard st
          (A.Unary (A.Not, A.Pred, pick st pool_pred, A.Reg (pick st pool_pred)))
  | _ ->
      let ty = pick st [ A.U32; A.S32; A.F32 ] in
      maybe_guard st (A.Mov (ty, pick st (pool_of ty), operand st ty))

let arith_run st = for _ = 1 to 2 + rint st 5 do rand_pure st done

(* ------------------------------------------------------------------ *)
(* Addressing: base + 4*idx through one of three idioms, exercising the
   affine analysis (cvt+shl, the widened-shift transfer), mul.wide, and
   plain 64-bit multiply. *)

let addr_calc st ~base ~idx =
  let a = fresh st A.U64 in
  (match rint st 3 with
  | 0 ->
      emit st (A.Cvt (A.U64, A.U32, a, A.Reg idx));
      emit st (A.Binary (A.Shl, A.B64, a, A.Reg a, A.Imm_int 2L))
  | 1 -> emit st (A.Binary (A.Mul_wide, A.U32, a, A.Reg idx, A.Imm_int 4L))
  | _ ->
      emit st (A.Cvt (A.U64, A.U32, a, A.Reg idx));
      emit st (A.Binary (A.Mul_lo, A.U64, a, A.Reg a, A.Imm_int 4L)));
  emit st (A.Binary (A.Add, A.U64, a, A.Reg base, A.Reg a));
  a

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)

let load_global st =
  let idx = fresh st A.U32 in
  if chance st 50 then emit st (A.Mov (A.U32, idx, A.Reg "%gid"))
  else
    emit st
      (A.Binary
         (A.And, A.U32, idx, A.Reg (pick st pool_u32),
          A.Imm_int (Int64.of_int (in_cells - 1))));
  let a = addr_calc st ~base:"%pi" ~idx in
  let addr = { A.base = A.Areg a; offset = 0 } in
  if chance st 33 then emit st (A.Ld (A.Global, A.F32, pick st pool_f32, addr))
  else
    let ty = pick st [ A.U32; A.S32 ] in
    emit st (A.Ld (A.Global, ty, pick st (pool_of ty), addr))

(* A store site owns region [site]: cells are written at a thread-unique
   index so the image is schedule-independent. *)
let store_global st =
  if st.sites >= out_sites - 2 then arith_run st
  else begin
    let site = st.sites in
    st.sites <- site + 1;
    let idx = fresh st A.U32 in
    if chance st 55 then emit st (A.Mov (A.U32, idx, A.Reg "%gid"))
    else
      (* gid XOR c is a bijection on [0, 64): still thread-unique *)
      emit st
        (A.Binary
           (A.Xor, A.U32, idx, A.Reg "%gid", A.Imm_int (Int64.of_int (1 + rint st 63))));
    let a = addr_calc st ~base:"%po" ~idx in
    let addr = { A.base = A.Areg a; offset = site * out_region_cells * 4 } in
    match rint st 5 with
    | 0 ->
        (* immediate store: the Vstore-splat path under affine coalescing *)
        let ty = pick st [ A.U32; A.S32 ] in
        emit st (A.St (A.Global, ty, addr, imm_for st ty))
    | 1 -> emit st (A.St (A.Global, A.F32, addr, A.Reg (pick st pool_f32)))
    | _ ->
        let ty = pick st [ A.U32; A.S32 ] in
        emit st (A.St (A.Global, ty, addr, A.Reg (pick st (pool_of ty))))
  end

let atomics st =
  if chance st 70 then begin
    (* global accumulator: commutative op, sink destination *)
    let idx = fresh st A.U32 in
    emit st
      (A.Binary
         (A.And, A.U32, idx, A.Reg (pick st pool_u32),
          A.Imm_int (Int64.of_int (acc_cells - 1))));
    let a = addr_calc st ~base:"%pa" ~idx in
    let op = pick st [ A.Atom_add; A.Atom_min; A.Atom_max ] in
    let ty = pick st [ A.U32; A.S32 ] in
    emit st
      (A.Atom (A.Global, op, ty, "%sk", { A.base = A.Areg a; offset = 0 },
               operand st ty, None))
  end
  else begin
    (* shared accumulator: result observable only through codegen crashes
       (shared memory dies with the CTA), still worth the coverage *)
    let off = fresh st A.U32 in
    emit st
      (A.Binary (A.And, A.U32, off, A.Reg (pick st pool_u32), A.Imm_int 7L));
    emit st (A.Binary (A.Shl, A.B32, off, A.Reg off, A.Imm_int 2L));
    let b = fresh st A.U32 in
    emit st (A.Mov (A.U32, b, A.Var "sacc"));
    emit st (A.Binary (A.Add, A.U32, off, A.Reg off, A.Reg b));
    emit st
      (A.Atom (A.Shared, A.Atom_add, A.U32, "%sk",
               { A.base = A.Areg off; offset = 0 }, operand st A.U32, None))
  end

(* store→barrier→load→barrier shuffle through shared memory; only legal
   on reconvergent paths *)
let shuffle st =
  let a1 = fresh st A.U32 in
  emit st (A.Binary (A.Shl, A.B32, a1, A.Reg "%ti", A.Imm_int 2L));
  let b = fresh st A.U32 in
  emit st (A.Mov (A.U32, b, A.Var "smem"));
  emit st (A.Binary (A.Add, A.U32, a1, A.Reg a1, A.Reg b));
  emit st
    (A.St (A.Shared, A.U32, { A.base = A.Areg a1; offset = 0 },
           A.Reg (pick st pool_u32)));
  emit st A.Bar;
  let d = 1 + rint st (st.blockdim - 1) in
  let a2 = fresh st A.U32 in
  emit st (A.Binary (A.Add, A.U32, a2, A.Reg "%ti", A.Imm_int (Int64.of_int d)));
  emit st
    (A.Binary (A.And, A.U32, a2, A.Reg a2, A.Imm_int (Int64.of_int (st.blockdim - 1))));
  emit st (A.Binary (A.Shl, A.B32, a2, A.Reg a2, A.Imm_int 2L));
  emit st (A.Binary (A.Add, A.U32, a2, A.Reg a2, A.Reg b));
  emit st
    (A.Ld (A.Shared, A.U32, pick st pool_u32, { A.base = A.Areg a2; offset = 0 }));
  emit st A.Bar

(* Divergence condition into a fresh predicate (pool preds could be
   clobbered by the body before the reconvergence branch reads them). *)
let div_cond st p =
  match rint st 4 with
  | 0 ->
      emit st
        (A.Setp
           ( pick st [ A.Lt; A.Ge; A.Eq; A.Ne ],
             A.U32, p, A.Reg "%ti", A.Imm_int (Int64.of_int (rint st st.blockdim)) ))
  | 1 ->
      let x = fresh st A.U32 in
      emit st
        (A.Binary (A.And, A.U32, x, A.Reg "%gid", A.Imm_int (Int64.of_int (1 + rint st 7))));
      emit st (A.Setp (A.Eq, A.U32, p, A.Reg x, A.Imm_int 0L))
  | 2 ->
      (* data-dependent: pool values derive from deterministic inputs *)
      emit st
        (A.Setp
           ( pick st [ A.Lt; A.Gt ],
             A.S32, p, A.Reg (pick st pool_s32), operand st A.S32 ))
  | _ ->
      (* uniform condition: a branch both sides of which reconverge *)
      emit st
        (A.Setp (A.Le, A.U32, p, A.Reg "%nv", A.Imm_int (Int64.of_int (rint st 64))))

let rec section st ~depth ~divergent =
  let stores_ok = st.sites < out_sites - 2 in
  let weighted =
    [ (4, `Arith); (2, `Load); (1, `Atom) ]
    @ (if depth < 3 then [ (3, `If) ] else [])
    @ (if stores_ok then [ (3, `Store) ] else [])
    @ (if depth < 2 then [ (2, `Loop_div) ] else [])
    @
    if (not divergent) && st.barrier_ok then
      [ (2, `Shuffle); (2, `Loop_uni); (1, `Bar) ]
    else []
  in
  let total = List.fold_left (fun a (w, _) -> a + w) 0 weighted in
  let rec choose n = function
    | (w, x) :: tl -> if n < w then x else choose (n - w) tl
    | [] -> `Arith
  in
  match choose (rint st total) weighted with
  | `Arith -> arith_run st
  | `Load -> load_global st
  | `Store -> store_global st
  | `Atom -> atomics st
  | `Shuffle -> shuffle st
  | `Bar -> emit st A.Bar
  | `If -> if_div st ~depth ~divergent
  | `Loop_uni -> loop_uniform st ~depth
  | `Loop_div -> loop_divergent st ~depth

and body_run st ~depth ~divergent n =
  for _ = 1 to n do
    section st ~depth ~divergent
  done

and if_div st ~depth ~divergent:_ =
  let p = fresh st A.Pred in
  div_cond st p;
  let lelse = fresh_label st and lend = fresh_label st in
  emitg st (A.Ifnot p) (A.Bra lelse);
  body_run st ~depth:(depth + 1) ~divergent:true (1 + rint st 2);
  emit st (A.Bra lend);
  emit_label st lelse;
  body_run st ~depth:(depth + 1) ~divergent:true (rint st 2);
  emit_label st lend

and loop_uniform st ~depth =
  (* constant trip count: every thread of the CTA iterates identically,
     so the body may contain barriers *)
  let c = fresh st A.U32 and p = fresh st A.Pred in
  let trip = 2 + rint st 3 in
  emit st (A.Mov (A.U32, c, A.Imm_int 0L));
  let top = fresh_label st in
  emit_label st top;
  body_run st ~depth:(depth + 1) ~divergent:false (1 + rint st 2);
  emit st (A.Binary (A.Add, A.U32, c, A.Reg c, A.Imm_int 1L));
  emit st (A.Setp (A.Lt, A.U32, p, A.Reg c, A.Imm_int (Int64.of_int trip)));
  emitg st (A.If p) (A.Bra top)

and loop_divergent st ~depth =
  (* trip = (tid & 3) + 1: threads exit the loop at different times *)
  let t = fresh st A.U32 and c = fresh st A.U32 and p = fresh st A.Pred in
  emit st (A.Binary (A.And, A.U32, t, A.Reg "%ti", A.Imm_int 3L));
  emit st (A.Binary (A.Add, A.U32, t, A.Reg t, A.Imm_int 1L));
  emit st (A.Mov (A.U32, c, A.Imm_int 0L));
  let top = fresh_label st in
  emit_label st top;
  body_run st ~depth:(depth + 1) ~divergent:true (1 + rint st 2);
  emit st (A.Binary (A.Add, A.U32, c, A.Reg c, A.Imm_int 1L));
  emit st (A.Setp (A.Lt, A.U32, p, A.Reg c, A.Reg t));
  emitg st (A.If p) (A.Bra top)

(* ------------------------------------------------------------------ *)
(* Kernel assembly                                                     *)

let base_regs =
  [ ("%ti", A.U32); ("%bs", A.U32); ("%cb", A.U32); ("%gid", A.U32);
    ("%nv", A.U32); ("%po", A.U64); ("%pi", A.U64); ("%pa", A.U64);
    ("%r0", A.U32); ("%r1", A.U32); ("%r2", A.U32); ("%r3", A.U32);
    ("%s0", A.S32); ("%s1", A.S32); ("%s2", A.S32);
    ("%w0", A.U64); ("%w1", A.U64);
    ("%f0", A.F32); ("%f1", A.F32); ("%f2", A.F32);
    ("%d0", A.F64); ("%d1", A.F64);
    ("%q0", A.Pred); ("%q1", A.Pred); ("%q2", A.Pred);
    ("%qx", A.Pred); ("%sk", A.U32) ]

let params =
  [ { A.p_name = "pout"; p_ty = A.U64 }; { A.p_name = "pin"; p_ty = A.U64 };
    { A.p_name = "pacc"; p_ty = A.U64 }; { A.p_name = "n"; p_ty = A.U32 } ]

let prologue st =
  emit st (A.Mov (A.U32, "%ti", A.Special (A.Tid A.X)));
  emit st (A.Mov (A.U32, "%bs", A.Special (A.Ntid A.X)));
  emit st (A.Mov (A.U32, "%cb", A.Special (A.Ctaid A.X)));
  emit st (A.Mad (A.U32, "%gid", A.Reg "%cb", A.Reg "%bs", A.Reg "%ti"));
  emit st (A.Ld (A.Param, A.U64, "%po", { A.base = A.Avar "pout"; offset = 0 }));
  emit st (A.Ld (A.Param, A.U64, "%pi", { A.base = A.Avar "pin"; offset = 0 }));
  emit st (A.Ld (A.Param, A.U64, "%pa", { A.base = A.Avar "pacc"; offset = 0 }));
  emit st (A.Ld (A.Param, A.U32, "%nv", { A.base = A.Avar "n"; offset = 0 }));
  (* seed the pools with thread-varying, loaded, and constant values *)
  emit st (A.Mov (A.U32, "%r0", A.Reg "%gid"));
  emit st (A.Mov (A.U32, "%r1", A.Reg "%ti"));
  emit st (A.Mov (A.U32, "%r2", imm_for st A.U32));
  let i0 = fresh st A.U32 in
  emit st (A.Mov (A.U32, i0, A.Reg "%gid"));
  let a0 = addr_calc st ~base:"%pi" ~idx:i0 in
  emit st (A.Ld (A.Global, A.U32, "%r3", { A.base = A.Areg a0; offset = 0 }));
  emit st (A.Cvt (A.S32, A.U32, "%s0", A.Reg "%gid"));
  emit st (A.Mov (A.S32, "%s1", imm_for st A.S32));
  emit st (A.Binary (A.Sub, A.S32, "%s2", A.Reg "%ti", imm_for st A.S32));
  emit st (A.Cvt (A.U64, A.U32, "%w0", A.Reg "%gid"));
  emit st (A.Mov (A.U64, "%w1", imm_for st A.U64));
  (* offset stays inside the input buffer for every gid (4*47 + 64 < 256);
     straying past it would read the atomics accumulator mid-update *)
  emit st (A.Ld (A.Global, A.F32, "%f0", { A.base = A.Areg a0; offset = 64 }));
  emit st (A.Mov (A.F32, "%f1", imm_for st A.F32));
  emit st (A.Cvt (A.F32, A.U32, "%f2", A.Reg "%ti"));
  emit st (A.Cvt (A.F64, A.F32, "%d0", A.Reg "%f1"));
  emit st (A.Mov (A.F64, "%d1", imm_for st A.F64));
  emit st
    (A.Setp (A.Lt, A.U32, "%q0", A.Reg "%ti",
             A.Imm_int (Int64.of_int (st.blockdim / 2))));
  let x = fresh st A.U32 in
  emit st (A.Binary (A.And, A.U32, x, A.Reg "%gid", A.Imm_int 1L));
  emit st (A.Setp (A.Eq, A.U32, "%q1", A.Reg x, A.Imm_int 0L));
  emit st (A.Setp (A.Gt, A.S32, "%q2", A.Reg "%s1", A.Imm_int 0L));
  emit st (A.Mov (A.U32, "%sk", A.Imm_int 0L))

(* final observable stores: fold every pool into the last two regions so
   generated values cannot silently vanish *)
let epilogue st ~early_exit =
  let f = fresh st A.U32 in
  emit st (A.Binary (A.Xor, A.U32, f, A.Reg "%r0", A.Reg "%r1"));
  emit st (A.Binary (A.Add, A.U32, f, A.Reg f, A.Reg "%r2"));
  emit st (A.Binary (A.Xor, A.U32, f, A.Reg f, A.Reg "%r3"));
  emit st (A.Binary (A.Add, A.U32, f, A.Reg f, A.Reg "%s0"));
  emit st (A.Binary (A.Xor, A.U32, f, A.Reg f, A.Reg "%s2"));
  let wl = fresh st A.U32 in
  emit st (A.Cvt (A.U32, A.U64, wl, A.Reg "%w0"));
  emit st (A.Binary (A.Add, A.U32, f, A.Reg f, A.Reg wl));
  let fi = fresh st A.S32 in
  emit st (A.Cvt (A.S32, A.F32, fi, A.Reg "%f1"));
  emit st (A.Binary (A.Add, A.U32, f, A.Reg f, A.Reg fi));
  let dl = fresh st A.F32 in
  emit st (A.Cvt (A.F32, A.F64, dl, A.Reg "%d0"));
  let di = fresh st A.S32 in
  emit st (A.Cvt (A.S32, A.F32, di, A.Reg dl));
  emit st (A.Binary (A.Xor, A.U32, f, A.Reg f, A.Reg di));
  let idx = fresh st A.U32 in
  emit st (A.Mov (A.U32, idx, A.Reg "%gid"));
  let a = addr_calc st ~base:"%po" ~idx in
  emit st
    (A.St (A.Global, A.U32,
           { A.base = A.Areg a; offset = (out_sites - 2) * out_region_cells * 4 },
           A.Reg f));
  let idx2 = fresh st A.U32 in
  emit st (A.Mov (A.U32, idx2, A.Reg "%gid"));
  let a2 = addr_calc st ~base:"%po" ~idx:idx2 in
  emit st
    (A.St (A.Global, A.F32,
           { A.base = A.Areg a2; offset = (out_sites - 1) * out_region_cells * 4 },
           A.Reg (pick st pool_f32)));
  if early_exit then emit_label st "Ldone";
  emit st A.Ret

let shared_decls =
  [ { A.a_name = "smem"; a_ty = A.U32; a_elems = 16 };
    { A.a_name = "sacc"; a_ty = A.U32; a_elems = 8 } ]

let generate_kernel ~seed : t =
  let rng = Random.State.make [| seed; 0x9e3779 |] in
  let blockdim = List.nth [ 4; 8; 16 ] (Random.State.int rng 3) in
  let grid = 1 + Random.State.int rng 3 in
  let nthr = grid * blockdim in
  (* three kernels in four keep full occupancy and may use barriers; the
     fourth exits part of the grid early and must stay barrier-free
     (exited threads do not participate in bar.sync) *)
  let barrier_ok = Random.State.int rng 4 < 3 in
  let st =
    { rng; body = []; extra_regs = []; labels = 0; scratch = 0; sites = 0;
      blockdim; nthr; barrier_ok }
  in
  prologue st;
  let early_exit = not barrier_ok in
  if early_exit then begin
    let cut = nthr - 1 - rint st (nthr / 2) in
    emit st
      (A.Setp (A.Ge, A.U32, "%qx", A.Reg "%gid", A.Imm_int (Int64.of_int cut)));
    emitg st (A.If "%qx") (A.Bra "Ldone")
  end;
  body_run st ~depth:0 ~divergent:false (3 + rint st 5);
  epilogue st ~early_exit;
  let k =
    { A.k_name = kernel_name; k_params = params;
      k_regs = base_regs @ List.rev st.extra_regs; k_shared = shared_decls;
      k_local = []; k_body = List.rev st.body }
  in
  let m = { A.m_consts = []; m_funcs = []; m_kernels = [ k ] } in
  (match Typecheck.check_module m with
  | [] -> ()
  | e :: _ ->
      invalid_arg
        (Fmt.str "fuzz generator produced an ill-typed kernel (seed %d): %a"
           seed Typecheck.pp_error e));
  { seed; src = header ~grid ~block:blockdim () ^ Printer.to_string m;
    kernel = kernel_name; grid; block = blockdim; block_y = 1 }

(* ------------------------------------------------------------------ *)
(* Frontier probes: fixed kernels poking constructs at or beyond the
   edge of the subset.  Unsupported ones feed the tally; supported ones
   (e.g. cvt.rzi, ld.global.nc, mul.wide) run and are cross-checked. *)

let probe_body body regs =
  Fmt.str
    ".entry %s (.param .u64 pout, .param .u64 pin, .param .u64 pacc, .param .u32 n)\n\
     {\n\
     \t.reg .u32 %%ti, %%bs, %%cb, %%gid, %%i;\n\
     \t.reg .u64 %%po, %%pi, %%a, %%b;\n\
     %s\
     \tmov.u32 %%ti, %%tid.x;\n\
     \tmov.u32 %%bs, %%ntid.x;\n\
     \tmov.u32 %%cb, %%ctaid.x;\n\
     \tmad.lo.u32 %%gid, %%cb, %%bs, %%ti;\n\
     \tld.param.u64 %%po, [pout];\n\
     \tld.param.u64 %%pi, [pin];\n\
     \tcvt.u64.u32 %%a, %%gid;\n\
     \tshl.b64 %%a, %%a, 2;\n\
     \tadd.u64 %%b, %%pi, %%a;\n\
     \tadd.u64 %%a, %%po, %%a;\n\
     %s\
     \tret;\n\
     }\n"
    kernel_name regs body

let probes =
  [ ("cvt.rzi",
     probe_body
       "\tld.global.f32 %f0, [%b];\n\
        \tcvt.rzi.s32.f32 %r0, %f0;\n\
        \tst.global.u32 [%a], %r0;\n"
       "\t.reg .f32 %f0;\n\t.reg .u32 %r0;\n");
    ("ld.global.nc",
     probe_body
       "\tld.global.nc.u32 %r0, [%b];\n\
        \tst.global.u32 [%a], %r0;\n"
       "\t.reg .u32 %r0;\n");
    ("mul.wide.u16",
     probe_body
       "\tld.global.u32 %r0, [%b];\n\
        \tand.b32 %r0, %r0, 1023;\n\
        \tcvt.u16.u32 %h0, %r0;\n\
        \tmul.wide.u16 %r1, %h0, %h0;\n\
        \tst.global.u32 [%a], %r1;\n"
       "\t.reg .u32 %r0, %r1;\n\t.reg .u16 %h0;\n");
    ("ld.v2",
     probe_body
       "\tld.global.v2.f32 {%f0, %f1}, [%b];\n\
        \tst.global.f32 [%a], %f0;\n"
       "\t.reg .f32 %f0, %f1;\n");
    ("setp.and",
     probe_body
       "\tsetp.lt.and.u32 %p0, %gid, 8, %p1;\n\
        \t@%p0 st.global.u32 [%a], %gid;\n"
       "\t.reg .pred %p0, %p1;\n");
    ("popc",
     probe_body
       "\tld.global.u32 %r0, [%b];\n\
        \tpopc.b32 %r1, %r0;\n\
        \tst.global.u32 [%a], %r1;\n"
       "\t.reg .u32 %r0, %r1;\n");
    ("clz",
     probe_body
       "\tld.global.u32 %r0, [%b];\n\
        \tclz.b32 %r1, %r0;\n\
        \tst.global.u32 [%a], %r1;\n"
       "\t.reg .u32 %r0, %r1;\n");
    ("brev",
     probe_body
       "\tld.global.u32 %r0, [%b];\n\
        \tbrev.b32 %r1, %r0;\n\
        \tst.global.u32 [%a], %r1;\n"
       "\t.reg .u32 %r0, %r1;\n");
    ("vote.all",
     probe_body
       "\tsetp.lt.u32 %p0, %ti, 32;\n\
        \tvote.all.pred %p1, %p0;\n\
        \t@%p1 st.global.u32 [%a], %gid;\n"
       "\t.reg .pred %p0, %p1;\n");
    ("shfl.down",
     probe_body
       "\tld.global.u32 %r0, [%b];\n\
        \tshfl.down.b32 %r1, %r0, 1, 31;\n\
        \tst.global.u32 [%a], %r1;\n"
       "\t.reg .u32 %r0, %r1;\n");
    ("cvt.rni",
     probe_body
       "\tld.global.f32 %f0, [%b];\n\
        \tcvt.rni.s32.f32 %r0, %f0;\n\
        \tst.global.u32 [%a], %r0;\n"
       "\t.reg .f32 %f0;\n\t.reg .u32 %r0;\n");
    ("red.add",
     probe_body "\tred.global.add.u32 [%a], %gid;\n" "");
    ("prmt",
     probe_body
       "\tld.global.u32 %r0, [%b];\n\
        \tprmt.b32 %r1, %r0, %r0, 30212;\n\
        \tst.global.u32 [%a], %r1;\n"
       "\t.reg .u32 %r0, %r1;\n");
    ("bfind",
     probe_body
       "\tld.global.u32 %r0, [%b];\n\
        \tbfind.u32 %r1, %r0;\n\
        \tst.global.u32 [%a], %r1;\n"
       "\t.reg .u32 %r0, %r1;\n") ]

let generate ~seed : t =
  let rng = Random.State.make [| seed; 0x51f15e |] in
  if Random.State.int rng 100 < 8 then
    let tag, src = List.nth probes (Random.State.int rng (List.length probes)) in
    ignore tag;
    { seed; src = header ~grid:2 ~block:8 () ^ src; kernel = kernel_name;
      grid = 2; block = 8; block_y = 1 }
  else generate_kernel ~seed

(* ------------------------------------------------------------------ *)
(* QCheck integration                                                  *)

let qcheck_gen : t QCheck.Gen.t =
 fun rs -> generate ~seed:(Random.State.bits rs)

let arbitrary : t QCheck.arbitrary =
  QCheck.make ~print:(fun s -> s.src) qcheck_gen
