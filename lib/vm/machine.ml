(** Machine descriptions for the vector-processor timing model.

    Stands in for the paper's physical Intel Sandybridge (i7-2600): the
    relevant architectural effects — vector lane width, issue-port
    throughput, operation latencies, architectural register count and the
    cost of spilling when pressure exceeds it — are modelled explicitly, so
    the evaluation's shapes (Table 1, Figures 6/9/10) emerge from the same
    causes the paper ascribes them to. *)

(** Issue ports, loosely following Sandybridge's port groups. *)
type port =
  | Fp_mul  (** port 0: FP multiply / divide / sqrt *)
  | Fp_add  (** port 1: FP add, conversions *)
  | Valu  (** vector integer ALU / blends *)
  | Salu  (** scalar integer ALUs *)
  | Shuf  (** shuffle/pack unit: insert/extract/broadcast *)
  | Mem_ld  (** load pipes *)
  | Mem_st  (** store pipe *)

let all_ports = [ Fp_mul; Fp_add; Valu; Salu; Shuf; Mem_ld; Mem_st ]

(** Position of a port in {!all_ports}. *)
let port_index = function
  | Fp_mul -> 0
  | Fp_add -> 1
  | Valu -> 2
  | Salu -> 3
  | Shuf -> 4
  | Mem_ld -> 5
  | Mem_st -> 6

type t = {
  name : string;
  cores : int;
  clock_ghz : float;
  vec_bytes : int;  (** vector register width in bytes (16 = SSE, 32 = AVX) *)
  vector_regs : int;  (** architectural vector registers (xmm/ymm) *)
  scalar_regs : int;  (** architectural integer registers available *)
  issue_width : float;  (** µops issued per cycle (front-end cap) *)
  throughput : port -> float;  (** µops per cycle per port *)
  latency : [ `Fp_addsub | `Fp_mul | `Fp_div | `Fp_trans | `Alu | `Load | `Shuf ] -> int;
  spill_load_uops : int;  (** extra loads charged per excess live register *)
  spill_store_uops : int;
  spill_serial_factor : float;
      (** unhideable cycles per µop per unit of spilled-live-range fraction:
          models store-forward round trips on the dependence chains once the
          allocator runs out of registers (calibrated against Table 1's
          warp-8 collapse) *)
}

(** Lanes a vector of element [elt] fills per physical register. *)
let lanes_per_reg m elt = max 1 (m.vec_bytes / Vekt_ptx.Ast.size_of elt)

(** Physical registers needed for a [w]-lane vector of [elt]. *)
let chunks m elt w = (w + lanes_per_reg m elt - 1) / lanes_per_reg m elt

(** Sandybridge-class core with SSE4: 4 × f32 lanes, peak 8 SP FLOP/cycle
    per core (one 4-wide multiply + one 4-wide add per cycle); at 3.4 GHz ×
    4 cores ≈ 108 GFLOP/s, the paper's estimated machine peak. *)
let sse4 =
  {
    name = "sandybridge-sse4";
    cores = 4;
    clock_ghz = 3.4;
    vec_bytes = 16;
    vector_regs = 16;
    scalar_regs = 12;
    issue_width = 4.0;
    throughput =
      (function
      | Fp_mul -> 1.0
      | Fp_add -> 1.0
      | Valu -> 2.0
      | Salu -> 3.0
      | Shuf -> 1.0
      | Mem_ld -> 2.0
      | Mem_st -> 1.0);
    latency =
      (function
      | `Fp_addsub -> 3
      | `Fp_mul -> 5
      | `Fp_div -> 14
      | `Fp_trans -> 20
      | `Alu -> 1
      | `Load -> 4
      | `Shuf -> 1);
    spill_load_uops = 2;
    spill_store_uops = 1;
    spill_serial_factor = 2.0;
  }

(** The same core modelled with AVX 8-wide float vectors (the paper's
    "expected to scale to arbitrary widths" target). *)
let avx = { sse4 with name = "sandybridge-avx"; vec_bytes = 32 }

(** Theoretical peak single-precision GFLOP/s (mul+add dual issue). *)
let peak_sp_gflops m =
  let lanes = float_of_int (m.vec_bytes / 4) in
  2.0 *. lanes *. m.clock_ghz *. float_of_int m.cores
