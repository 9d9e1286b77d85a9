(** Imperative construction of IR functions.

    Blocks accumulate instructions in order; [set_term] seals a block.  The
    builder hands out fresh typed virtual registers and guarantees label
    uniqueness.

    Instructions for the block under construction are accumulated in
    {e reverse} and flushed into the block on every block switch (and when
    {!func} is called), so emitting [n] instructions costs O(n) rather
    than the O(n²) of appending to the tail of [Ir.block.insts] per
    instruction.  The same discipline applies to the function's block
    layout [order].  Consequence: [Ir.block.insts] and [Ir.func.order]
    are only guaranteed current for blocks the builder is {e not} still
    filling — always obtain the finished function through {!func}. *)

type t = {
  func : Ir.func;
  mutable current : Ir.block option;
  mutable rev_insts : Ir.li list;
      (** pending instructions of [current], newest first *)
  mutable rev_order : string list;
      (** block layout, newest first; [func.order] is derived on {!func} *)
  mutable label_counter : int;
  mutable cur_line : int;
      (** source line stamped on instructions by {!emit}; 0 = synthetic *)
}

let create ?(warp_size = 1) fname =
  {
    func =
      {
        Ir.fname;
        warp_size;
        entry = "";
        order = [];
        btab = Ir.Stbl.create 16;
        nregs = 0;
        rty = [||];
      };
    current = None;
    rev_insts = [];
    rev_order = [];
    label_counter = 0;
    cur_line = 0;
  }

(** Set the source line recorded on subsequently emitted instructions
    (until the next [set_line]).  Emitters translating a source construct
    call this once per construct; helper instructions they emit inherit
    the construct's line. *)
let set_line b line = b.cur_line <- line

(* Move the pending reversed instructions into the current block.  The
   block is almost always empty here; re-entering a block via
   [switch_to] appends after its existing instructions, once per visit. *)
let flush b =
  match b.current with
  | Some blk when b.rev_insts <> [] ->
      blk.Ir.insts <-
        (match blk.Ir.insts with
        | [] -> List.rev b.rev_insts
        | old -> old @ List.rev b.rev_insts);
      b.rev_insts <- []
  | _ -> ()

let func b =
  flush b;
  b.func.Ir.order <- List.rev b.rev_order;
  b.func

let fresh_reg b ty : Ir.vreg =
  let f = b.func in
  let r = f.Ir.nregs in
  if r = Array.length f.Ir.rty then begin
    let grown = Array.make (max 64 (2 * r)) ty in
    Array.blit f.Ir.rty 0 grown 0 r;
    f.Ir.rty <- grown
  end;
  f.Ir.rty.(r) <- ty;
  f.Ir.nregs <- r + 1;
  r

let fresh_label b stem =
  b.label_counter <- b.label_counter + 1;
  let rec pick n =
    let l = stem ^ "." ^ string_of_int n in
    if Ir.Stbl.mem b.func.Ir.btab l then pick (n + 1) else l
  in
  pick b.label_counter

(** Create a block (appended to layout order) and make it current.  The
    first block created becomes the function entry. *)
let start_block ?(kind = Ir.Body) b label =
  if Ir.Stbl.mem b.func.Ir.btab label then
    invalid_arg (Fmt.str "Builder.start_block: duplicate label %s" label);
  flush b;
  let blk = { Ir.label; kind; insts = []; term = Ir.Return } in
  Ir.Stbl.replace b.func.Ir.btab label blk;
  b.rev_order <- label :: b.rev_order;
  if b.func.Ir.entry = "" then b.func.Ir.entry <- label;
  b.current <- Some blk;
  blk

let switch_to b label =
  flush b;
  b.current <- Some (Ir.block b.func label)

let current b =
  match b.current with
  | Some blk ->
      flush b;
      blk
  | None -> invalid_arg "Builder: no current block"

let emit b i =
  match b.current with
  | Some _ -> b.rev_insts <- { Ir.i; line = b.cur_line } :: b.rev_insts
  | None -> invalid_arg "Builder: no current block"

(** Emit an instruction computing into a fresh register of type [ty]. *)
let emit_val b ty mk =
  let r = fresh_reg b ty in
  emit b (mk r);
  r

let set_term b term = (current b).Ir.term <- term
