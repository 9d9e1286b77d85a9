(** Control-flow graph over PTX kernels.

    Basic blocks end at labels, branches, barriers and thread exits.
    Barriers terminate a block (the paper's translation cache "splits basic
    blocks at barriers") so that the barrier's continuation is a legal warp
    entry point. *)

open Ast

type terminator =
  | Br of string  (** unconditional branch *)
  | Cbr of reg * bool * string * string
      (** [Cbr (p, sense, taken, fallthrough)]: branch to [taken] when
          predicate [p] equals [sense]. *)
  | Bar_then of string  (** CTA barrier, then continue at the label *)
  | Exit_term  (** thread termination ([ret]/[exit]) *)

type block = {
  label : string;
  insts : (guard * instr * int) list;
      (** non-control-flow instructions with their source line (0 =
          synthetic) *)
  term : terminator;
}

type t = {
  entry : string;
  blocks : block list;  (** in layout order; entry first *)
}

let successors b =
  match b.term with
  | Br t -> [ t ]
  | Cbr (_, _, taken, ft) -> [ taken; ft ]
  | Bar_then t -> [ t ]
  | Exit_term -> []

let find_block cfg l = List.find (fun b -> String.equal b.label l) cfg.blocks

let predecessors cfg =
  let preds = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace preds b.label []) cfg.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = Option.value (Hashtbl.find_opt preds s) ~default:[] in
          Hashtbl.replace preds s (b.label :: cur))
        (successors b))
    cfg.blocks;
  preds

exception Malformed of string

(* A synthetic always-exit block referenced by guarded ret/exit. *)
let exit_stub_label = "$__exit_stub"

(** Build a CFG from a kernel body.  Synthesizes labels for implicit blocks
    (fallthrough after a conditional branch, barrier continuations) and a
    stub exit block for guarded [ret]/[exit]. *)
let of_kernel (k : kernel) : t =
  let existing = Hashtbl.create 16 in
  List.iter
    (function Label l -> Hashtbl.replace existing l () | Inst _ -> ())
    k.k_body;
  let fresh =
    let n = ref 0 in
    fun () ->
      incr n;
      let rec pick () =
        let l = Fmt.str "$__bb%d" !n in
        if Hashtbl.mem existing l then (
          incr n;
          pick ())
        else l
      in
      pick ()
  in
  let emitted = Hashtbl.create 16 in
  let out = ref [] in
  let needs_exit_stub = ref false in
  let emit label insts term =
    if Hashtbl.mem emitted label then
      raise (Malformed (Fmt.str "duplicate block label %s" label));
    Hashtbl.add emitted label ();
    out := { label; insts = List.rev insts; term } :: !out
  in
  (* Label to resume at after a terminator: reuse an immediately following
     source label, otherwise synthesize one. *)
  let next_label rest =
    match rest with Label l :: _ -> l | _ -> fresh ()
  in
  let rec go label insts stmts =
    match stmts with
    | [] -> emit label insts Exit_term
    | Label l :: rest ->
        if String.equal l label && insts = [] && not (Hashtbl.mem emitted l) then
          (* start of the current (not yet emitted) block *)
          go label insts rest
        else begin
          emit label insts (Br l);
          go l [] rest
        end
    | Inst (Always, Bra t, _) :: rest ->
        let next = next_label rest in
        emit label insts (Br t);
        cont ~referenced:false next rest
    | Inst (If p, Bra t, _) :: rest ->
        let next = next_label rest in
        emit label insts (Cbr (p, true, t, next));
        cont ~referenced:true next rest
    | Inst (Ifnot p, Bra t, _) :: rest ->
        let next = next_label rest in
        emit label insts (Cbr (p, false, t, next));
        cont ~referenced:true next rest
    | Inst (Always, Bar, _) :: rest ->
        let next = next_label rest in
        emit label insts (Bar_then next);
        cont ~referenced:true next rest
    | Inst ((If _ | Ifnot _), Bar, _) :: _ -> raise (Malformed "guarded barrier")
    | Inst (Always, (Ret | Exit), _) :: rest ->
        let next = next_label rest in
        emit label insts Exit_term;
        cont ~referenced:false next rest
    | Inst (If p, (Ret | Exit), _) :: rest ->
        needs_exit_stub := true;
        let next = next_label rest in
        emit label insts (Cbr (p, true, exit_stub_label, next));
        cont ~referenced:true next rest
    | Inst (Ifnot p, (Ret | Exit), _) :: rest ->
        needs_exit_stub := true;
        let next = next_label rest in
        emit label insts (Cbr (p, false, exit_stub_label, next));
        cont ~referenced:true next rest
    | Inst (g, i, line) :: rest -> go label ((g, i, line) :: insts) rest
  and cont ~referenced next rest =
    (* A synthesized label after a non-branching terminator with nothing
       following would be an unreachable empty block: skip it unless some
       terminator references it. *)
    match rest with
    | [] -> if referenced then emit next [] Exit_term
    | _ -> go next [] rest
  in
  let entry_label = match k.k_body with Label l :: _ -> l | _ -> "$__entry" in
  go entry_label [] k.k_body;
  if !needs_exit_stub then emit exit_stub_label [] Exit_term;
  let blocks = List.rev !out in
  (* Validate: all branch targets exist. *)
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem emitted s) then
            raise (Malformed (Fmt.str "block %s branches to unknown %s" b.label s)))
        (successors b))
    blocks;
  { entry = entry_label; blocks }

(** Rebuild a kernel body from a CFG (used after PTX→PTX transformations).
    Branches to the block laid out immediately after are elided, so
    [of_kernel (to_body cfg)] reproduces the block structure. *)
let to_body (cfg : t) : stmt list =
  let rec go = function
    | [] -> []
    | b :: rest ->
        let next = match rest with nb :: _ -> Some nb.label | [] -> None in
        let falls_to t = Some t = next in
        let tail =
          match b.term with
          | Br t -> if falls_to t then [] else [ Inst (Always, Bra t, 0) ]
          | Cbr (p, sense, taken, ft) ->
              let g = if sense then If p else Ifnot p in
              Inst (g, Bra taken, 0)
              :: (if falls_to ft then [] else [ Inst (Always, Bra ft, 0) ])
          | Bar_then t ->
              Inst (Always, Bar, 0)
              :: (if falls_to t then [] else [ Inst (Always, Bra t, 0) ])
          | Exit_term -> [ Inst (Always, Exit, 0) ]
        in
        (Label b.label :: List.map (fun (g, i, line) -> Inst (g, i, line)) b.insts)
        @ tail @ go rest
  in
  go cfg.blocks

let pp fmt (cfg : t) =
  Fmt.pf fmt "entry: %s@." cfg.entry;
  List.iter
    (fun b ->
      Fmt.pf fmt "%s:@." b.label;
      List.iter
        (fun (g, i, _) ->
          Fmt.pf fmt "  %s%s@." (Printer.guard_str g) (Printer.instr_str i))
        b.insts;
      let t =
        match b.term with
        | Br t -> "br " ^ t
        | Cbr (p, s, t, f) -> Fmt.str "cbr %s=%b ? %s : %s" p s t f
        | Bar_then t -> "bar -> " ^ t
        | Exit_term -> "exit"
      in
      Fmt.pf fmt "  %s@." t)
    cfg.blocks
