(** Recursive-descent parser for the PTX subset.

    Grammar (informal):
    {v
      module  ::= { const | func | kernel }
      const   ::= ".const" type ident "[" int "]" [ "=" "{" num ("," num)* "}" ] ";"
      func    ::= ".func" [ "(" rdecl ("," rdecl)* ")" ] ident
                  "(" [ rdecl ("," rdecl)* ] ")" "{" item* "}"
      rdecl   ::= ".reg" type reg
      kernel  ::= ".entry" ident "(" [ param ("," param)* ] ")" "{" item* "}"
      param   ::= ".param" type ident
      item    ::= ".reg" type reg ("," reg)* ";"
              |   ".shared" type ident "[" int "]" ";"
              |   ".local"  type ident "[" int "]" ";"
              |   ident ":"                          (label)
              |   [ "@" ["!"] reg ] opcode operand ("," operand)* ";"
      call    ::= "call" [ "(" reg ("," reg)* ")" "," ] ident [ "," "(" operand ("," operand)* ")" ]
    v} *)

exception Error of string * int

type st = { mutable toks : (Lexer.token * int) list }

let fail st msg =
  let line = match st.toks with (_, l) :: _ -> l | [] -> 0 in
  raise (Error (msg, line))

let peek st = match st.toks with (t, _) :: _ -> t | [] -> Lexer.Eof

(** Line of the next token — captured before parsing an instruction so the
    resulting [Ast.Inst] records where its opcode appeared. *)
let cur_line st = match st.toks with (_, l) :: _ -> l | [] -> 0

let peek2 st =
  match st.toks with _ :: (t, _) :: _ -> t | _ -> Lexer.Eof

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st tok what =
  if peek st = tok then advance st
  else fail st (Fmt.str "expected %s, found %a" what Lexer.pp_token (peek st))

let expect_ident st what =
  match peek st with
  | Lexer.Ident s ->
      advance st;
      s
  | t -> fail st (Fmt.str "expected %s, found %a" what Lexer.pp_token t)

let dtype_of_string st = function
  | ".pred" -> Ast.Pred
  | ".b8" -> Ast.B8
  | ".b16" -> Ast.B16
  | ".b32" -> Ast.B32
  | ".b64" -> Ast.B64
  | ".u8" -> Ast.U8
  | ".u16" -> Ast.U16
  | ".u32" -> Ast.U32
  | ".u64" -> Ast.U64
  | ".s8" -> Ast.S8
  | ".s16" -> Ast.S16
  | ".s32" -> Ast.S32
  | ".s64" -> Ast.S64
  | ".f32" -> Ast.F32
  | ".f64" -> Ast.F64
  | s -> fail st (Fmt.str "unknown type %S" s)

let parse_dtype st = dtype_of_string st (expect_ident st "type")

(* Dotted suffix parts of an opcode, e.g. "setp.lt.s32" -> ["lt"; "s32"]. *)
let opcode_parts s =
  match String.split_on_char '.' s with
  | [] -> assert false
  | head :: rest -> (head, rest)

let special_of_ident s =
  match s with
  | "%tid.x" -> Some (Ast.Tid Ast.X)
  | "%tid.y" -> Some (Ast.Tid Ast.Y)
  | "%tid.z" -> Some (Ast.Tid Ast.Z)
  | "%ntid.x" -> Some (Ast.Ntid Ast.X)
  | "%ntid.y" -> Some (Ast.Ntid Ast.Y)
  | "%ntid.z" -> Some (Ast.Ntid Ast.Z)
  | "%ctaid.x" -> Some (Ast.Ctaid Ast.X)
  | "%ctaid.y" -> Some (Ast.Ctaid Ast.Y)
  | "%ctaid.z" -> Some (Ast.Ctaid Ast.Z)
  | "%nctaid.x" -> Some (Ast.Nctaid Ast.X)
  | "%nctaid.y" -> Some (Ast.Nctaid Ast.Y)
  | "%nctaid.z" -> Some (Ast.Nctaid Ast.Z)
  | "%laneid" -> Some Ast.Laneid
  | "%warpsize" | "WARP_SZ" -> Some Ast.Warpsize
  | _ -> None

let parse_operand st =
  match peek st with
  | Lexer.Ident s -> (
      advance st;
      match special_of_ident s with
      | Some sp -> Ast.Special sp
      | None ->
          if String.length s > 0 && s.[0] = '%' then Ast.Reg s else Ast.Var s)
  | Lexer.Int i ->
      advance st;
      Ast.Imm_int i
  | Lexer.Float f ->
      advance st;
      Ast.Imm_float f
  | Lexer.Minus -> (
      advance st;
      match peek st with
      | Lexer.Int i ->
          advance st;
          Ast.Imm_int (Int64.neg i)
      | Lexer.Float f ->
          advance st;
          Ast.Imm_float (-.f)
      | t -> fail st (Fmt.str "expected number after '-', found %a" Lexer.pp_token t))
  | t -> fail st (Fmt.str "expected operand, found %a" Lexer.pp_token t)

let parse_address st =
  expect st Lexer.Lbracket "'['";
  let name = expect_ident st "address base" in
  let base =
    if String.length name > 0 && name.[0] = '%' then Ast.Areg name
    else Ast.Avar name
  in
  let offset =
    match peek st with
    | Lexer.Plus -> (
        advance st;
        match peek st with
        | Lexer.Int i ->
            advance st;
            Int64.to_int i
        | t -> fail st (Fmt.str "expected offset, found %a" Lexer.pp_token t))
    | Lexer.Minus -> (
        advance st;
        match peek st with
        | Lexer.Int i ->
            advance st;
            -Int64.to_int i
        | t -> fail st (Fmt.str "expected offset, found %a" Lexer.pp_token t))
    | _ -> 0
  in
  expect st Lexer.Rbracket "']'";
  { Ast.base; offset }

let parse_reg st = expect_ident st "register"

(* Modifiers that are accepted and ignored because our execution model
   already implements their semantics exactly:
   - rounding/approximation modes ([rn]..[ftz], [approx], [full]): the
     reference emulator and the VM both compute in host precision, like
     Ocelot's LLVM backend did for .approx transcendentals;
   - [rzi] (round-to-zero-integer on [cvt] float→int): {!Scalar_ops.cvt}
     truncates, which {e is} round-toward-zero ([rni]/[rmi]/[rpi] would
     change results, so they stay unsupported);
   - cache operators ([ca]/[cg]/[cs]/[lu]/[cv]/[wb]/[wt]), non-coherent
     loads ([nc]) and [volatile]: pure performance/coherence hints — one
     flat memory per address space makes them no-ops here.
   [wide] is deliberately NOT a modifier: [mul.wide] changes the result
   width and is parsed as its own operation below. *)
let is_modifier = function
  | "rn" | "rz" | "rm" | "rp" | "approx" | "full" | "ftz" | "sat" | "uni"
  | "rzi" | "volatile" | "nc" | "ca" | "cg" | "cs" | "lu" | "cv" | "wb" | "wt"
    ->
      true
  | _ -> false

let strip_modifiers parts = List.filter (fun p -> not (is_modifier p)) parts

let dtype_of_suffix st = function
  | [ t ] -> dtype_of_string st ("." ^ t)
  | parts -> fail st (Fmt.str "expected one type suffix, got [%s]" (String.concat "." parts))

let cmp_of_string st = function
  | "eq" -> Ast.Eq
  | "ne" -> Ast.Ne
  | "lt" | "lo" -> Ast.Lt
  | "le" | "ls" -> Ast.Le
  | "gt" | "hi" -> Ast.Gt
  | "ge" | "hs" -> Ast.Ge
  | s -> fail st (Fmt.str "unknown comparison %S" s)

let space_of_string st = function
  | "param" -> Ast.Param
  | "global" -> Ast.Global
  | "shared" -> Ast.Shared
  | "local" -> Ast.Local
  | "const" -> Ast.Const
  | s -> fail st (Fmt.str "unknown address space %S" s)

let atomop_of_string st = function
  | "add" -> Ast.Atom_add
  | "min" -> Ast.Atom_min
  | "max" -> Ast.Atom_max
  | "exch" -> Ast.Atom_exch
  | "cas" -> Ast.Atom_cas
  | s -> fail st (Fmt.str "unknown atomic %S" s)

let binop3 st op head parts =
  let ty = dtype_of_suffix st (strip_modifiers parts) in
  let d = parse_reg st in
  expect st Lexer.Comma "','";
  let a = parse_operand st in
  expect st Lexer.Comma "','";
  let b = parse_operand st in
  ignore head;
  Ast.Binary (op, ty, d, a, b)

let unop2 st op parts =
  let ty = dtype_of_suffix st (strip_modifiers parts) in
  let d = parse_reg st in
  expect st Lexer.Comma "','";
  let a = parse_operand st in
  Ast.Unary (op, ty, d, a)

let parse_instr st opcode =
  let head, parts = opcode_parts opcode in
  match head with
  | "add" -> binop3 st Ast.Add head parts
  | "sub" -> binop3 st Ast.Sub head parts
  | "mul" -> (
      match parts with
      | "hi" :: rest -> binop3 st Ast.Mul_hi head rest
      | "lo" :: rest -> binop3 st Ast.Mul_lo head rest
      | "wide" :: rest -> binop3 st Ast.Mul_wide head rest
      | rest -> binop3 st Ast.Mul_lo head rest)
  | "div" -> binop3 st Ast.Div head parts
  | "rem" -> binop3 st Ast.Rem head parts
  | "min" -> binop3 st Ast.Min head parts
  | "max" -> binop3 st Ast.Max head parts
  | "and" -> binop3 st Ast.And head parts
  | "or" -> binop3 st Ast.Or head parts
  | "xor" -> binop3 st Ast.Xor head parts
  | "shl" -> binop3 st Ast.Shl head parts
  | "shr" -> binop3 st Ast.Shr head parts
  | "neg" -> unop2 st Ast.Neg parts
  | "not" -> unop2 st Ast.Not parts
  | "abs" -> unop2 st Ast.Abs parts
  | "sqrt" -> unop2 st Ast.Sqrt parts
  | "rsqrt" -> unop2 st Ast.Rsqrt parts
  | "rcp" -> unop2 st Ast.Rcp parts
  | "sin" -> unop2 st Ast.Sin parts
  | "cos" -> unop2 st Ast.Cos parts
  | "ex2" -> unop2 st Ast.Ex2 parts
  | "lg2" -> unop2 st Ast.Lg2 parts
  | "mad" | "fma" ->
      let ty =
        match strip_modifiers parts with
        | [ "lo"; t ] | [ t ] -> dtype_of_string st ("." ^ t)
        | p -> fail st (Fmt.str "bad mad suffix [%s]" (String.concat "." p))
      in
      let d = parse_reg st in
      expect st Lexer.Comma "','";
      let a = parse_operand st in
      expect st Lexer.Comma "','";
      let b = parse_operand st in
      expect st Lexer.Comma "','";
      let c = parse_operand st in
      Ast.Mad (ty, d, a, b, c)
  | "setp" -> (
      match strip_modifiers parts with
      | [ cmp; t ] ->
          let cmp = cmp_of_string st cmp in
          let ty = dtype_of_string st ("." ^ t) in
          let d = parse_reg st in
          expect st Lexer.Comma "','";
          let a = parse_operand st in
          expect st Lexer.Comma "','";
          let b = parse_operand st in
          Ast.Setp (cmp, ty, d, a, b)
      | p -> fail st (Fmt.str "bad setp suffix [%s]" (String.concat "." p)))
  | "selp" ->
      let ty = dtype_of_suffix st (strip_modifiers parts) in
      let d = parse_reg st in
      expect st Lexer.Comma "','";
      let a = parse_operand st in
      expect st Lexer.Comma "','";
      let b = parse_operand st in
      expect st Lexer.Comma "','";
      let p = parse_reg st in
      Ast.Selp (ty, d, a, b, p)
  | "mov" ->
      let ty = dtype_of_suffix st (strip_modifiers parts) in
      let d = parse_reg st in
      expect st Lexer.Comma "','";
      let a = parse_operand st in
      Ast.Mov (ty, d, a)
  | "cvt" -> (
      match strip_modifiers parts with
      | [ dst; src ] ->
          let dty = dtype_of_string st ("." ^ dst) in
          let sty = dtype_of_string st ("." ^ src) in
          let d = parse_reg st in
          expect st Lexer.Comma "','";
          let a = parse_operand st in
          Ast.Cvt (dty, sty, d, a)
      | p -> fail st (Fmt.str "bad cvt suffix [%s]" (String.concat "." p)))
  | "ld" -> (
      match strip_modifiers parts with
      | [ sp; t ] ->
          let sp = space_of_string st sp in
          let ty = dtype_of_string st ("." ^ t) in
          let d = parse_reg st in
          expect st Lexer.Comma "','";
          let addr = parse_address st in
          Ast.Ld (sp, ty, d, addr)
      | p -> fail st (Fmt.str "bad ld suffix [%s]" (String.concat "." p)))
  | "st" -> (
      match strip_modifiers parts with
      | [ sp; t ] ->
          let sp = space_of_string st sp in
          let ty = dtype_of_string st ("." ^ t) in
          let addr = parse_address st in
          expect st Lexer.Comma "','";
          let v = parse_operand st in
          Ast.St (sp, ty, addr, v)
      | p -> fail st (Fmt.str "bad st suffix [%s]" (String.concat "." p)))
  | "atom" -> (
      match strip_modifiers parts with
      | [ sp; op; t ] ->
          let sp = space_of_string st sp in
          let op = atomop_of_string st op in
          let ty = dtype_of_string st ("." ^ t) in
          let d = parse_reg st in
          expect st Lexer.Comma "','";
          let addr = parse_address st in
          expect st Lexer.Comma "','";
          let b = parse_operand st in
          let c =
            if peek st = Lexer.Comma then (
              advance st;
              Some (parse_operand st))
            else None
          in
          if op = Ast.Atom_cas && c = None then fail st "atom.cas needs a third operand";
          Ast.Atom (sp, op, ty, d, addr, b, c)
      | p -> fail st (Fmt.str "bad atom suffix [%s]" (String.concat "." p)))
  | "bra" ->
      let target = expect_ident st "branch target" in
      Ast.Bra target
  | "bar" -> (
      match peek st with
      | Lexer.Int 0L ->
          advance st;
          Ast.Bar
      | Lexer.Int _ -> fail st "only bar.sync 0 is supported"
      | _ -> Ast.Bar)
  | "ret" -> Ast.Ret
  | "exit" -> Ast.Exit
  | "call" ->
      (* call (%r1, %r2), fname, (%a, %b);  — return and argument lists
         optional *)
      let rets =
        if peek st = Lexer.Lparen then begin
          advance st;
          let rec go acc =
            let r = parse_reg st in
            if peek st = Lexer.Comma then (
              advance st;
              go (r :: acc))
            else List.rev (r :: acc)
          in
          let rets = go [] in
          expect st Lexer.Rparen "')'";
          expect st Lexer.Comma "','";
          rets
        end
        else []
      in
      let fname = expect_ident st "function name" in
      let args =
        if peek st = Lexer.Comma then begin
          advance st;
          expect st Lexer.Lparen "'('";
          let rec go acc =
            let a = parse_operand st in
            if peek st = Lexer.Comma then (
              advance st;
              go (a :: acc))
            else List.rev (a :: acc)
          in
          let args = if peek st = Lexer.Rparen then [] else go [] in
          expect st Lexer.Rparen "')'";
          args
        end
        else []
      in
      Ast.Call (rets, fname, args)
  | "tex" -> fail st "texture instructions are outside the supported subset"
  | _ -> fail st (Fmt.str "unknown opcode %S" opcode)

let parse_array_decl st =
  let ty = parse_dtype st in
  let name = expect_ident st "array name" in
  let elems =
    match peek st with
    | Lexer.Lbracket -> (
        advance st;
        match peek st with
        | Lexer.Int n ->
            advance st;
            expect st Lexer.Rbracket "']'";
            Int64.to_int n
        | t -> fail st (Fmt.str "expected array size, found %a" Lexer.pp_token t))
    | _ -> 1
  in
  { Ast.a_name = name; a_ty = ty; a_elems = elems }

let parse_kernel_items st =
  let regs = ref [] and shared = ref [] and local = ref [] and body = ref [] in
  let rec loop () =
    match peek st with
    | Lexer.Rbrace -> ()
    | Lexer.Ident ".reg" ->
        advance st;
        let ty = parse_dtype st in
        let rec regs_loop () =
          let r = parse_reg st in
          regs := (r, ty) :: !regs;
          if peek st = Lexer.Comma then (
            advance st;
            regs_loop ())
        in
        regs_loop ();
        expect st Lexer.Semi "';'";
        loop ()
    | Lexer.Ident ".shared" ->
        advance st;
        shared := parse_array_decl st :: !shared;
        expect st Lexer.Semi "';'";
        loop ()
    | Lexer.Ident ".local" ->
        advance st;
        local := parse_array_decl st :: !local;
        expect st Lexer.Semi "';'";
        loop ()
    | Lexer.Ident name when peek2 st = Lexer.Colon ->
        advance st;
        advance st;
        body := Ast.Label name :: !body;
        loop ()
    | Lexer.At ->
        let line = cur_line st in
        advance st;
        let guard =
          match peek st with
          | Lexer.Bang ->
              advance st;
              Ast.Ifnot (parse_reg st)
          | _ -> Ast.If (parse_reg st)
        in
        let opcode = expect_ident st "opcode" in
        let i = parse_instr st opcode in
        expect st Lexer.Semi "';'";
        body := Ast.Inst (guard, i, line) :: !body;
        loop ()
    | Lexer.Ident opcode ->
        let line = cur_line st in
        advance st;
        let i = parse_instr st opcode in
        expect st Lexer.Semi "';'";
        body := Ast.Inst (Ast.Always, i, line) :: !body;
        loop ()
    | t -> fail st (Fmt.str "unexpected token %a in kernel body" Lexer.pp_token t)
  in
  loop ();
  (List.rev !regs, List.rev !shared, List.rev !local, List.rev !body)

let parse_kernel st =
  expect st (Lexer.Ident ".entry") "'.entry'";
  let name = expect_ident st "kernel name" in
  expect st Lexer.Lparen "'('";
  let params = ref [] in
  (if peek st <> Lexer.Rparen then
     let rec params_loop () =
       expect st (Lexer.Ident ".param") "'.param'";
       let ty = parse_dtype st in
       let pname = expect_ident st "parameter name" in
       params := { Ast.p_name = pname; p_ty = ty } :: !params;
       if peek st = Lexer.Comma then (
         advance st;
         params_loop ())
     in
     params_loop ());
  expect st Lexer.Rparen "')'";
  expect st Lexer.Lbrace "'{'";
  let regs, shared, local, body = parse_kernel_items st in
  expect st Lexer.Rbrace "'}'";
  {
    Ast.k_name = name;
    k_params = List.rev !params;
    k_regs = regs;
    k_shared = shared;
    k_local = local;
    k_body = body;
  }

let parse_const st =
  expect st (Lexer.Ident ".const") "'.const'";
  let decl = parse_array_decl st in
  let init =
    if peek st = Lexer.Eq then (
      advance st;
      expect st Lexer.Lbrace "'{'";
      let ints = ref [] and floats = ref [] and any_float = ref false in
      let rec vals_loop () =
        (match parse_operand st with
        | Ast.Imm_int i ->
            ints := i :: !ints;
            floats := Int64.to_float i :: !floats
        | Ast.Imm_float f ->
            any_float := true;
            floats := f :: !floats;
            ints := Int64.of_float f :: !ints
        | _ -> fail st "const initializers must be literals");
        if peek st = Lexer.Comma then (
          advance st;
          vals_loop ())
      in
      vals_loop ();
      expect st Lexer.Rbrace "'}'";
      if !any_float || Ast.is_float decl.Ast.a_ty then
        Some (Ast.Init_float (List.rev !floats))
      else Some (Ast.Init_int (List.rev !ints)))
    else None
  in
  { Ast.c_decl = decl; c_init = init }

(* .func (ret-decls) name (param-decls) { body } *)
let parse_func st =
  expect st (Lexer.Ident ".func") "'.func'";
  let parse_reg_decl () =
    expect st (Lexer.Ident ".reg") "'.reg'";
    let ty = parse_dtype st in
    let r = parse_reg st in
    (r, ty)
  in
  let rets =
    if peek st = Lexer.Lparen then begin
      advance st;
      let rec go acc =
        let d = parse_reg_decl () in
        if peek st = Lexer.Comma then (
          advance st;
          go (d :: acc))
        else List.rev (d :: acc)
      in
      let rets = go [] in
      expect st Lexer.Rparen "')'";
      rets
    end
    else []
  in
  let name = expect_ident st "function name" in
  expect st Lexer.Lparen "'('";
  let params =
    if peek st = Lexer.Rparen then []
    else begin
      let rec go acc =
        let d = parse_reg_decl () in
        if peek st = Lexer.Comma then (
          advance st;
          go (d :: acc))
        else List.rev (d :: acc)
      in
      go []
    end
  in
  expect st Lexer.Rparen "')'";
  expect st Lexer.Lbrace "'{'";
  let regs, shared, local, body = parse_kernel_items st in
  expect st Lexer.Rbrace "'}'";
  if shared <> [] || local <> [] then
    fail st (Fmt.str ".func %s may not declare .shared/.local arrays" name);
  { Ast.f_name = name; f_rets = rets; f_params = params; f_regs = regs; f_body = body }

(** Parse a PTX module from source text.
    @raise Error on syntax errors (message, line).
    @raise Lexer.Error on lexical errors. *)
let parse_module src =
  let st = { toks = Lexer.tokenize src } in
  (* Accept and ignore a standard PTX preamble. *)
  let rec skip_preamble () =
    match peek st with
    | Lexer.Ident ".version" | Lexer.Ident ".target" | Lexer.Ident ".address_size" ->
        advance st;
        let rec to_newlineish () =
          match peek st with
          | Lexer.Ident s when s.[0] = '.' -> ()
          | Lexer.Eof -> ()
          | _ ->
              advance st;
              to_newlineish ()
        in
        to_newlineish ();
        skip_preamble ()
    | _ -> ()
  in
  skip_preamble ();
  let consts = ref [] and funcs = ref [] and kernels = ref [] in
  while peek st <> Lexer.Eof do
    match peek st with
    | Lexer.Ident ".const" ->
        consts := parse_const st :: !consts;
        expect st Lexer.Semi "';'"
    | Lexer.Ident ".func" -> funcs := parse_func st :: !funcs
    | _ -> kernels := parse_kernel st :: !kernels
  done;
  {
    Ast.m_consts = List.rev !consts;
    m_funcs = List.rev !funcs;
    m_kernels = List.rev !kernels;
  }
