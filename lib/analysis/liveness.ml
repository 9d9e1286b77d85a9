(** Classic backward liveness dataflow over IR functions.

    Drives the yield-on-diverge transformation: live-out registers at a
    divergence site are spilled by the exit handler; live-in registers at an
    entry point are restored by its entry handler (paper Algorithms 3/4).
    Also reported as the "values restored per entry" statistic (Figure 8).
    The same solver feeds dead-code elimination ({!Vekt_transform.Dce})
    and the timing model's register-pressure walk ({!Vekt_vm.Timing});
    each client solves the function it is working on.

    Register sets are dense bitsets over the function's [nregs] registers
    and blocks are indexed by their layout position, so one dataflow step
    is a few word operations per block.  The least fixpoint is unique, so
    the sets are those of the textbook set-based formulation. *)

module Ir = Vekt_ir.Ir

module ISet = Set.Make (Int)

(** Mutable dense register sets: bit [r mod int_size] of word
    [r / int_size] is register [r]. *)
module Bits = struct
  type t = int array

  let bpw = Sys.int_size
  let create nregs = Array.make ((nregs + bpw - 1) / bpw) 0
  let mem (s : t) r = s.(r / bpw) land (1 lsl (r mod bpw)) <> 0

  let add (s : t) r =
    let w = r / bpw in
    s.(w) <- s.(w) lor (1 lsl (r mod bpw))

  let remove (s : t) r =
    let w = r / bpw in
    s.(w) <- s.(w) land lnot (1 lsl (r mod bpw))

  (** Apply [f] to every member, in increasing order. *)
  let iter f (s : t) =
    Array.iteri
      (fun w word ->
        let word = ref word and r = ref (w * bpw) in
        while !word <> 0 do
          if !word land 1 <> 0 then f !r;
          word := !word lsr 1;
          incr r
        done)
      s

  (** Number of members. *)
  let cardinal (s : t) =
    let n = ref 0 in
    iter (fun _ -> incr n) s;
    !n

  (** Add every member of [src] to [s] (same register count). *)
  let union_into (s : t) (src : t) = Array.iteri (fun w word -> s.(w) <- s.(w) lor word) src

  let to_iset s =
    let acc = ref ISet.empty in
    iter (fun r -> acc := ISet.add r !acc) s;
    !acc
end

type t = {
  index : int Ir.Stbl.t;  (** block label -> layout position *)
  nregs : int;
  live_in : Bits.t array;
  live_out : Bits.t array;
}

(** The backward transfer of one instruction: [live] goes from the set
    live after [i] to the set live before it. *)
let step (live : Bits.t) (i : Ir.instr) =
  let d = Ir.def i in
  if d >= 0 then Bits.remove live d;
  Ir.iter_uses (Bits.add live) i

(** Per-block [gen] (upward-exposed uses) and [kill] (definitions). *)
let gen_kill nregs (b : Ir.block) =
  let gen = Bits.create nregs and kill = Bits.create nregs in
  let use r = if not (Bits.mem kill r) then Bits.add gen r in
  List.iter
    (fun { Ir.i; _ } ->
      Ir.iter_uses use i;
      let d = Ir.def i in
      if d >= 0 then Bits.add kill d)
    b.insts;
  List.iter use (Ir.term_uses b.term);
  (gen, kill)

let compute (f : Ir.func) : t =
  let blocks = Array.of_list (Ir.blocks f) in
  let n = Array.length blocks and nregs = f.Ir.nregs in
  let index = Ir.Stbl.create (2 * n) in
  Array.iteri (fun k b -> Ir.Stbl.replace index b.Ir.label k) blocks;
  (* successors as layout positions, resolved once per solve *)
  let succs =
    Array.map
      (fun b -> Array.of_list (List.map (Ir.Stbl.find index) (Ir.successors b)))
      blocks
  in
  let gk = Array.map (gen_kill nregs) blocks in
  let live_in = Array.init n (fun _ -> Bits.create nregs) in
  let live_out = Array.init n (fun _ -> Bits.create nregs) in
  let words = (nregs + Bits.bpw - 1) / Bits.bpw in
  (* Iterate to fixpoint; a reverse-layout sweep converges fast on
     reducible kernels.  Unreachable blocks participate too (harmless). *)
  let changed = ref true in
  while !changed do
    changed := false;
    for k = n - 1 downto 0 do
      let gen, kill = gk.(k) and out = live_out.(k) and inn = live_in.(k) in
      let ss = succs.(k) in
      for w = 0 to words - 1 do
        let o = ref 0 in
        for j = 0 to Array.length ss - 1 do
          o := !o lor live_in.(ss.(j)).(w)
        done;
        let i = gen.(w) lor (!o land lnot kill.(w)) in
        if !o <> out.(w) || i <> inn.(w) then begin
          out.(w) <- !o;
          inn.(w) <- i;
          changed := true
        end
      done
    done
  done;
  { index; nregs; live_in; live_out }

let find sets t label =
  match Ir.Stbl.find_opt t.index label with
  | Some k -> Some sets.(k)
  | None -> None

(** [label]'s live-in and live-out sets themselves, shared with [t]:
    callers iterate them and must not write them.  Empty for an unknown
    label. *)
let live_in_bits t label =
  match find t.live_in t label with Some s -> s | None -> Bits.create t.nregs

let live_out_bits t label =
  match find t.live_out t label with Some s -> s | None -> Bits.create t.nregs

let as_iset = function Some s -> Bits.to_iset s | None -> ISet.empty
let live_in t label = as_iset (find t.live_in t label)
let live_out t label = as_iset (find t.live_out t label)

(** A fresh mutable copy of [label]'s live-out set (empty for an unknown
    label), for backward walks over the block's instructions. *)
let live_out_copy t label =
  match find t.live_out t label with
  | Some s -> Array.copy s
  | None -> Bits.create t.nregs
