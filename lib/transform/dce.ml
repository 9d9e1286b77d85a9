(** Dead-code elimination.

    Liveness-driven: a pure instruction whose destination is dead after it
    is removed.  Run after vectorization, where it cleans up unused
    pack/unpack traffic (the paper: "a subsequent dead-code elimination
    pass removes unused instructions"). *)

module Ir = Vekt_ir.Ir
module Liveness = Vekt_analysis.Liveness
module Bits = Liveness.Bits

(** One liveness-compute-and-sweep.  Returns the number of removed
    instructions. *)
let sweep (f : Ir.func) : int =
  let live = Liveness.compute f in
  let removed = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      let out = Liveness.live_out_copy live b.Ir.label in
      List.iter (Bits.add out) (Ir.term_uses b.Ir.term);
      (* Walk backwards, keeping instructions whose def is live or that
         have side effects. *)
      let kept =
        List.fold_left
          (fun kept (li : Ir.li) ->
            let i = li.Ir.i in
            let keep =
              (not (Ir.is_pure i))
              ||
              let d = Ir.def i in
              d < 0 || Bits.mem out d
            in
            if keep then begin
              Liveness.step out i;
              li :: kept
            end
            else begin
              incr removed;
              kept
            end)
          []
          (List.rev b.Ir.insts)
      in
      b.Ir.insts <- kept)
    (Ir.blocks f);
  !removed

(** Iterate sweeps to a fixpoint (removing one instruction can kill the
    producers of its operands). *)
let run (f : Ir.func) : int =
  let total = ref 0 in
  let rec go () =
    let n = sweep f in
    total := !total + n;
    if n > 0 then go ()
  in
  go ();
  !total
