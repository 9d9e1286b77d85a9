(** Basic-block fusion (the paper's §5.1 names it among the classical
    passes the translation cache runs).

    A block ending in an unconditional jump to a block with that single
    predecessor is merged with it.  Scheduler, entry- and exit-handler
    blocks keep their boundaries so the VM's cycle attribution (Figure 9)
    stays meaningful; only [Body]-to-[Body] edges fuse, and the function
    entry is never a fusion target. *)

module Ir = Vekt_ir.Ir

let run (f : Ir.func) : int =
  let fused = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let preds = Ir.predecessors f in
    let try_fuse (b : Ir.block) =
      match b.Ir.term with
      | Ir.Jump t
        when (not (String.equal t f.Ir.entry))
             && (not (String.equal t b.Ir.label))
             && b.Ir.kind = Ir.Body ->
          let succ = Ir.block f t in
          if
            succ.Ir.kind = Ir.Body
            && (match Ir.Stbl.find_opt preds t with Some [ p ] -> p = b.Ir.label | _ -> false)
          then begin
            b.Ir.insts <- b.Ir.insts @ succ.Ir.insts;
            b.Ir.term <- succ.Ir.term;
            Ir.Stbl.remove f.Ir.btab t;
            f.Ir.order <- List.filter (fun l -> not (String.equal l t)) f.Ir.order;
            incr fused;
            continue_ := true;
            true
          end
          else false
      | _ -> false
    in
    (* Restart the scan after each fusion: the predecessor map is stale. *)
    ignore (List.exists try_fuse (Ir.blocks f))
  done;
  !fused
