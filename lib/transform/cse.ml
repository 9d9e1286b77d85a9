(** Local common-subexpression elimination.

    Within each block, pure instructions computing an expression already
    available in a register are rewritten to register copies.  The IR is
    not SSA, so availability is tracked with {e register versions}: every
    definition bumps its destination's version, and an expression is keyed
    by its operands' (register, version) pairs — a redefinition of any
    input or of the previous result automatically invalidates the entry.

    This is the pass that harvests thread-invariant redundancy exposed by
    vectorization (paper §6.2): under static warp formation the per-lane
    replicas of an invariant expression have identical keys and collapse
    to the lane-0 copy. *)

module Ir = Vekt_ir.Ir

(* Loads and anything effectful or context-dependent across calls stays;
   Ctx_read is constant for the duration of one kernel entry, so it is
   CSE-able. *)
let cseable = function
  | Ir.Bin _ | Ir.Un _ | Ir.Fma _ | Ir.Cmp _ | Ir.Select _ | Ir.Cvt _
  | Ir.Broadcast _ | Ir.Extract _ | Ir.Insert _ | Ir.Reduce_add _ | Ir.Ctx_read _ ->
      true
  | Ir.Mov _ | Ir.Load _ | Ir.Store _ | Ir.Vload _ | Ir.Vstore _ | Ir.Atomic _
  | Ir.Spill _ | Ir.Restore _ | Ir.Set_resume _ | Ir.Set_status _ ->
      false

(** Run over every block; returns the number of instructions replaced by
    copies (a following {!Dce} pass removes those whose result was the
    only use). *)
let run (f : Ir.func) : int =
  let replaced = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      let version : int Ir.Itbl.t = Ir.Itbl.create 32 in
      let ver r = Option.value (Ir.Itbl.find_opt version r) ~default:0 in
      let bump r = Ir.Itbl.replace version r (ver r + 1) in
      (* expression key -> (result reg, result version at definition) *)
      let avail : (Ir.instr * int64 list, Ir.vreg * int) Hashtbl.t = Hashtbl.create 32 in
      let key i =
        (* The instruction itself with operand versions spliced in and the
           destination normalized out, compared structurally.  Float
           immediates are keyed by their bits (zeroed in the instruction,
           listed beside it): structural float equality would merge 0.0
           with -0.0. *)
        let bits = ref [] in
        let versioned =
          Ir.map_operands
            (function
              | Ir.R r -> Ir.R ((r * 1_000_000) + ver r)
              | Ir.Imm (Vekt_ptx.Scalar_ops.F x, ty) ->
                  bits := Int64.bits_of_float x :: !bits;
                  Ir.Imm (Vekt_ptx.Scalar_ops.F 0.0, ty)
              | o -> o)
            i
        in
        let shape =
          match Ir.def versioned with
          | Some _ -> Ir.with_def 0 versioned
          | None -> versioned
        in
        (shape, !bits)
      in
      b.Ir.insts <-
        List.map
          (fun (li : Ir.li) ->
            let i = li.Ir.i in
            if not (cseable i) then begin
              (match Ir.def i with Some d -> bump d | None -> ());
              li
            end
            else
              let d = match Ir.def i with Some d -> d | None -> assert false in
              let k = key i in
              match Hashtbl.find_opt avail k with
              | Some (prev, pver) when prev <> d && ver prev = pver ->
                  incr replaced;
                  bump d;
                  { li with Ir.i = Ir.Mov (Ir.reg_ty f d, d, Ir.R prev) }
              | _ ->
                  bump d;
                  Hashtbl.replace avail k (d, ver d);
                  li)
          b.Ir.insts)
    (Ir.blocks f);
  !replaced
