(* Reference models of the build layers, in their textbook form: the
   set-based liveness dataflow, dead-code elimination as that dataflow
   plus a backward sweep repeated until nothing is removed, CSE keyed on
   each candidate's printed text, register pressure summed over one live
   set per instruction, source-line shares split by largest remainder
   over an association list, and thread-invariance as a taint over the
   registers.  [Int_ops] is PTX's integer arithmetic, comparison and
   conversion, written from the instruction set's rules in [Int32] and
   [Int64] arithmetic, apart from the shared scalar semantics the
   emulator and the interpreter use.  The compiler computes the same results with dense bitsets,
   integer-array keys, running sums, small sorted arrays and the uniform
   classes of its affine lattice; test_models.ml checks that they
   agree. *)

module Ir = Vekt_ir.Ir
module ISet = Set.Make (Int)

module Liveness = struct
  type t = {
    live_in : (string, ISet.t) Hashtbl.t;
    live_out : (string, ISet.t) Hashtbl.t;
  }

  let gen_kill (b : Ir.block) =
    let gen = ref ISet.empty and kill = ref ISet.empty in
    List.iter
      (fun { Ir.i; _ } ->
        List.iter
          (fun r -> if not (ISet.mem r !kill) then gen := ISet.add r !gen)
          (Ir.uses i);
        let d = Ir.def i in
        if d >= 0 then kill := ISet.add d !kill)
      b.insts;
    List.iter
      (fun r -> if not (ISet.mem r !kill) then gen := ISet.add r !gen)
      (Ir.term_uses b.term);
    (!gen, !kill)

  let compute (f : Ir.func) : t =
    let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
    let gk = Hashtbl.create 16 in
    List.iter
      (fun b ->
        Hashtbl.replace gk b.Ir.label (gen_kill b);
        Hashtbl.replace live_in b.Ir.label ISet.empty;
        Hashtbl.replace live_out b.Ir.label ISet.empty)
      (Ir.blocks f);
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          let label = b.Ir.label in
          let out =
            List.fold_left
              (fun acc s -> ISet.union acc (Hashtbl.find live_in s))
              ISet.empty (Ir.successors b)
          in
          let gen, kill = Hashtbl.find gk label in
          let inn = ISet.union gen (ISet.diff out kill) in
          if not (ISet.equal out (Hashtbl.find live_out label)) then begin
            Hashtbl.replace live_out label out;
            changed := true
          end;
          if not (ISet.equal inn (Hashtbl.find live_in label)) then begin
            Hashtbl.replace live_in label inn;
            changed := true
          end)
        (List.rev (Ir.blocks f))
    done;
    { live_in; live_out }

  let live_in t label = Option.value (Hashtbl.find_opt t.live_in label) ~default:ISet.empty
  let live_out t label = Option.value (Hashtbl.find_opt t.live_out label) ~default:ISet.empty

  (* The registers live after each instruction of [b], in instruction
     order (one empty set for an empty block). *)
  let per_instruction (t : t) (b : Ir.block) : ISet.t array =
    let n = List.length b.insts in
    let after = Array.make (max n 1) ISet.empty in
    let live = ref (live_out t b.Ir.label) in
    List.iter (fun r -> live := ISet.add r !live) (Ir.term_uses b.term);
    let insts = Array.of_list b.insts in
    for idx = n - 1 downto 0 do
      after.(idx) <- !live;
      let i = insts.(idx).Ir.i in
      let d = Ir.def i in
      if d >= 0 then live := ISet.remove d !live;
      List.iter (fun r -> live := ISet.add r !live) (Ir.uses i)
    done;
    after
end

(* Maximum vector and GPR pressure of [b] over the sets live after each of
   its instructions, weighted by the physical registers each occupies. *)
let pressure (m : Vekt_vm.Machine.t) (f : Ir.func) (live : Liveness.t) (b : Ir.block) =
  Array.fold_left
    (fun (max_v, max_g) set ->
      let v, g =
        ISet.fold
          (fun r (v, g) ->
            match Vekt_vm.Timing.phys_regs m (Ir.reg_ty f r) with
            | `Vec n -> (v + n, g)
            | `Gpr n -> (v, g + n))
          set (0, 0)
      in
      (max max_v v, max max_g g))
    (0, 0)
    (Liveness.per_instruction live b)

(* Dead-code elimination: solve liveness, drop every pure instruction
   whose destination is dead after it in one backward sweep per block,
   and repeat until a sweep removes nothing.  Returns the removals. *)
let dce (f : Ir.func) : int =
  let sweep () =
    let live = Liveness.compute f in
    List.fold_left
      (fun removed (b : Ir.block) ->
        let set = ref (Liveness.live_out live b.Ir.label) in
        List.iter (fun r -> set := ISet.add r !set) (Ir.term_uses b.Ir.term);
        let kept, removed =
          List.fold_left
            (fun (kept, removed) (li : Ir.li) ->
              let i = li.Ir.i in
              let d = Ir.def i in
              if Ir.is_pure i && d >= 0 && not (ISet.mem d !set) then (kept, removed + 1)
              else begin
                if d >= 0 then set := ISet.remove d !set;
                List.iter (fun r -> set := ISet.add r !set) (Ir.uses i);
                (li :: kept, removed)
              end)
            ([], removed) (List.rev b.Ir.insts)
        in
        b.Ir.insts <- kept;
        removed)
      0 (Ir.blocks f)
  in
  let rec go total = match sweep () with 0 -> total | n -> go (total + n) in
  go 0

(* Source-line shares of one block: [total] units split across the
   block's lines in proportion to their µop counts ([line_uops], one
   pair per instruction, in any order), the terminator weighing one µop
   on line 0.  Each line gets its floor; the leftover units go one each
   to the largest remainders, ties to the earlier line.  Returns the
   flat [[| line; units; ... |]] array in increasing line order. *)
let line_shares (line_uops : (int * int) list) ~(total : int) : int array =
  let weights =
    List.fold_left
      (fun acc (l, n) ->
        (l, n + Option.value (List.assoc_opt l acc) ~default:0) :: List.remove_assoc l acc)
      [] ((0, 1) :: line_uops)
    |> List.sort compare
  in
  let total_w = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  let floors = List.map (fun (l, w) -> (l, total * w / total_w)) weights in
  let leftover = total - List.fold_left (fun acc (_, u) -> acc + u) 0 floors in
  let by_remainder =
    List.mapi (fun pos (_, w) -> (-(total * w mod total_w), pos)) weights
    |> List.sort compare
    |> List.filteri (fun k _ -> k < leftover)
    |> List.map snd
  in
  Array.of_list
    (List.concat
       (List.mapi
          (fun pos (l, u) -> [ l; (if List.mem pos by_remainder then u + 1 else u) ])
          floors))

(* Local CSE keyed on the printed text of the def-normalized instruction
   followed by its operands' versions. *)
let cse (f : Ir.func) : int =
  let replaced = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      let version : (Ir.vreg, int) Hashtbl.t = Hashtbl.create 32 in
      let ver r = Option.value (Hashtbl.find_opt version r) ~default:0 in
      let bump r = Hashtbl.replace version r (ver r + 1) in
      let avail : (string, Ir.vreg * int) Hashtbl.t = Hashtbl.create 32 in
      let key i =
        let shown = if Ir.def i >= 0 then Ir.with_def 0 i else i in
        Fmt.str "%a @ %a" Vekt_ir.Pp.instr shown
          Fmt.(list ~sep:comma int)
          (List.map ver (Ir.uses i))
      in
      b.Ir.insts <-
        List.map
          (fun (li : Ir.li) ->
            let i = li.Ir.i in
            if not (Vekt_transform.Cse.cseable i) then begin
              if Ir.def i >= 0 then bump (Ir.def i);
              li
            end
            else
              let d = Ir.def i in
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

(* Thread-invariance as a taint (paper §6.2): a register is variant when
   any of its definitions is an inherently variant instruction (tid.x, the
   lane, the thread-local base, tid.y/tid.z unless warps are static, a
   load from mutable memory, an atomic, a restore) or reads a variant
   register.  [seed] starts variant and taints what it reaches. *)
module Invariance = struct
  module Ast = Vekt_ptx.Ast

  let inherently_variant ~static_warps = function
    | Ir.Ctx_read (_, (Ir.Tid Ast.X | Ir.Lane | Ir.Local_base), _) -> true
    | Ir.Ctx_read (_, Ir.Tid (Ast.Y | Ast.Z), _) -> not static_warps
    | Ir.Load ((Ast.Global | Ast.Shared | Ast.Local), _, _, _, _) -> true
    | Ir.Atomic _ | Ir.Restore _ -> true
    | _ -> false

  let variant_regs ~static_warps ?(seed = ISet.empty) (f : Ir.func) : ISet.t =
    let variant = ref seed in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          List.iter
            (fun { Ir.i; _ } ->
              let d = Ir.def i in
              if
                d >= 0
                && (not (ISet.mem d !variant))
                && (inherently_variant ~static_warps i
                   || List.exists (fun r -> ISet.mem r !variant) (Ir.uses i))
              then begin
                variant := ISet.add d !variant;
                changed := true
              end)
            b.Ir.insts)
        (Ir.blocks f)
    done;
    !variant
end

(* PTX integer semantics on register patterns.  A register holds 64 bits;
   an operation of type [ty] reads the low bits of its operands at the
   type's width, sign-extended for a signed type and zero-extended
   otherwise, and leaves its result in the same form.  Types of at most
   32 bits compute in [Int32], 64-bit types in [Int64]: add, sub and
   mul.lo wrap, min, max and the comparisons order signed or unsigned
   values, and a shift takes its amount as a .u32 (the second operand's
   value modulo 2^32).  An amount at or beyond the width clears shl and
   a logical shr and fills an arithmetic shr with the sign. *)
module Int_ops = struct
  module Ast = Vekt_ptx.Ast

  (* width in bits, signedness *)
  let shape = function
    | Ast.B8 | Ast.U8 -> (8, false)
    | Ast.S8 -> (8, true)
    | Ast.B16 | Ast.U16 -> (16, false)
    | Ast.S16 -> (16, true)
    | Ast.B32 | Ast.U32 -> (32, false)
    | Ast.S32 -> (32, true)
    | Ast.B64 | Ast.U64 -> (64, false)
    | Ast.S64 -> (64, true)
    | ty -> invalid_arg ("Int_ops: not an integer type: " ^ Ast.show_dtype ty)

  (* The low [bits] bits of [x], extended to 32 bits. *)
  let narrow bits signed (x : int32) =
    if bits = 32 then x
    else if signed then Int32.shift_right (Int32.shift_left x (32 - bits)) (32 - bits)
    else Int32.logand x (Int32.pred (Int32.shift_left 1l bits))

  let widen signed (x : int32) =
    if signed then Int64.of_int32 x else Int64.logand (Int64.of_int32 x) 0xFFFF_FFFFL

  (* The register pattern of [x]'s value at [ty]. *)
  let value ty (x : int64) =
    let bits, signed = shape ty in
    if bits = 64 then x else widen signed (narrow bits signed (Int64.to_int32 x))

  let amount ty (x : int64) = Int64.to_int (Int64.logand (value ty x) 0xFFFF_FFFFL)

  let binop (op : Ast.binop) ty (a : int64) (b : int64) : int64 =
    let bits, signed = shape ty in
    let amt = amount ty b in
    if bits = 64 then
      let cmp = if signed then Int64.compare a b else Int64.unsigned_compare a b in
      match op with
      | Ast.Add -> Int64.add a b
      | Ast.Sub -> Int64.sub a b
      | Ast.Mul_lo -> Int64.mul a b
      | Ast.And -> Int64.logand a b
      | Ast.Or -> Int64.logor a b
      | Ast.Xor -> Int64.logxor a b
      | Ast.Shl -> if amt >= 64 then 0L else Int64.shift_left a amt
      | Ast.Shr ->
          if signed then Int64.shift_right a (min amt 63)
          else if amt >= 64 then 0L
          else Int64.shift_right_logical a amt
      | Ast.Min -> if cmp <= 0 then a else b
      | Ast.Max -> if cmp >= 0 then a else b
      | _ -> invalid_arg "Int_ops.binop"
    else
      let x = narrow bits signed (Int64.to_int32 a) and y = narrow bits signed (Int64.to_int32 b) in
      let cmp = if signed then Int32.compare x y else Int32.unsigned_compare x y in
      let r =
        match op with
        | Ast.Add -> Int32.add x y
        | Ast.Sub -> Int32.sub x y
        | Ast.Mul_lo -> Int32.mul x y
        | Ast.And -> Int32.logand x y
        | Ast.Or -> Int32.logor x y
        | Ast.Xor -> Int32.logxor x y
        | Ast.Shl -> if amt >= bits then 0l else Int32.shift_left x amt
        | Ast.Shr ->
            if signed then Int32.shift_right x (min amt 31)
            else if amt >= bits then 0l
            else Int32.shift_right_logical x amt
        | Ast.Min -> if cmp <= 0 then x else y
        | Ast.Max -> if cmp >= 0 then x else y
        | _ -> invalid_arg "Int_ops.binop"
      in
      widen signed (narrow bits signed r)

  let cmp (op : Ast.cmpop) ty (a : int64) (b : int64) : bool =
    let bits, signed = shape ty in
    let c =
      if bits = 64 then if signed then Int64.compare a b else Int64.unsigned_compare a b
      else
        let x = narrow bits signed (Int64.to_int32 a) and y = narrow bits signed (Int64.to_int32 b) in
        if signed then Int32.compare x y else Int32.unsigned_compare x y
    in
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0

  (* mad.lo: the low bits of a * b + c *)
  let mad ty a b c =
    value ty (Int64.add (Int64.mul (value ty a) (value ty b)) (value ty c))

  (* cvt between integer types: the source's value, extended per the
     source's signedness, then cut to the destination's width *)
  let cvt ~dst ~src x = value dst (value src x)
end
