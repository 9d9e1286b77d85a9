(** Divergence plan for a scalar kernel: entry points, entry IDs and spill
    slots, computed once on the scalar IR and shared by every warp-size
    specialization (the translation cache is queried by entry ID and warp
    size, so IDs must agree across specializations).

    Entry points (paper Algorithm 2): the kernel entry (ID 0), every
    successor of a conditional branch, and every barrier continuation.
    Spill slots are byte offsets in a thread's local memory, placed after
    its declared [.local] arrays; every register live into any entry point
    gets a slot. *)

module Ir = Vekt_ir.Ir
module Ty = Vekt_ir.Ty
module Liveness = Vekt_analysis.Liveness

type t = {
  entry_ids : (string * int) list;  (** (block label, entry id); entry is 0 *)
  slots : int array;  (** per register, its slot's byte offset, or -1 for none *)
  spill_base : int;  (** first spill byte (after declared locals) *)
  spill_bytes : int;  (** size of the spill area *)
  live : Liveness.t;
}

let id_of_label t l = List.assoc_opt l t.entry_ids
let label_of_id t id = List.find_opt (fun (_, i) -> i = id) t.entry_ids |> Option.map fst
let slot t r = if t.slots.(r) < 0 then None else Some t.slots.(r)

(** Every slotted register and its slot, in increasing register order. *)
let slotted t =
  let acc = ref [] in
  for r = Array.length t.slots - 1 downto 0 do
    if t.slots.(r) >= 0 then acc := (r, t.slots.(r)) :: !acc
  done;
  !acc

(** Registers live into the entry-point block [l] (restored by its entry
    handler; Figure 8's per-entry statistic). *)
let entry_live t l = Liveness.live_in t.live l

(** {!entry_live} as the liveness bitset itself, which callers must not
    write. *)
let entry_live_bits t l = Liveness.live_in_bits t.live l

let compute (f : Ir.func) ~(local_decl_bytes : int) : t =
  let live = Liveness.compute f in
  (* Collect entry points in a deterministic order: entry first, then in
     block layout order.  Reverse-accumulated with a membership set so a
     function with many entry points stays linear (appending with [@]
     per label is quadratic). *)
  let seen = Hashtbl.create 16 in
  let rev_entry_labels = ref [ f.Ir.entry ] in
  Hashtbl.replace seen f.Ir.entry ();
  let add l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      rev_entry_labels := l :: !rev_entry_labels
    end
  in
  List.iter
    (fun b ->
      match b.Ir.term with
      | Ir.Branch (_, t, e) ->
          add t;
          add e
      | Ir.Barrier l -> add l
      | Ir.Jump _ | Ir.Switch _ | Ir.Return -> ())
    (Ir.blocks f);
  let entry_ids = List.mapi (fun i l -> (l, i)) (List.rev !rev_entry_labels) in
  (* Slot every register live into any entry point. *)
  let slotted = Liveness.Bits.create f.Ir.nregs in
  List.iter
    (fun (l, _) -> Liveness.Bits.union_into slotted (Liveness.live_in_bits live l))
    entry_ids;
  let slots = Array.make f.Ir.nregs (-1) in
  let align n a = (n + a - 1) / a * a in
  let spill_base = align local_decl_bytes 16 in
  let off = ref spill_base in
  Liveness.Bits.iter
    (fun r ->
      let sz = Vekt_ptx.Ast.size_of (Ir.reg_ty f r).Ty.elt in
      off := align !off sz;
      slots.(r) <- !off;
      off := !off + sz)
    slotted;
  {
    entry_ids;
    slots;
    spill_base;
    spill_bytes = align !off 16 - spill_base;
    live;
  }

(** Thread-local bytes a thread of this kernel needs: declared locals plus
    the spill area. *)
let local_bytes t ~local_decl_bytes =
  let align n a = (n + a - 1) / a * a in
  align local_decl_bytes 16 + t.spill_bytes
