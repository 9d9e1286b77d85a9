(** The one JSON codec of the code base.

    Every JSON artifact vekt writes — Chrome traces, metrics, span
    trees, line attribution, [--report] and crash bundles, the bench
    result files — and every line of the daemon's wire protocol is
    built as a {!t} and printed here, so escaping and number formatting
    exist exactly once.  The daemon also needs the other direction, so
    this is a small, total codec: a recursive-descent parser returning
    [Error] on malformed input — a daemon answers a bad request, it
    does not die on one — and a printer whose output always
    round-trips.

    Numbers: integers without ['.'/'e'] parse as [Int], everything
    else as [Float].  Floats print with 17 significant digits, enough to
    read back the same value; integral ones print without a fraction,
    and NaN and infinities (which JSON cannot spell) print as [0].  Strings
    handle the standard escapes plus [\uXXXX] (encoded back out as
    UTF-8); other bytes pass through untouched.  Every dimension of
    hostile input is bounded: nesting depth (stack), total input
    length, individual string length, and array/object element counts
    (heap) — a request that exceeds any of them gets a structured
    [Error], never an [Out_of_memory] abort. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let max_depth = 64

(** Total input bound.  Generous because load-module requests carry
    whole PTX sources inline; the server's read loop enforces the same
    bound on its accumulation buffer, so a client streaming an endless
    line is cut off at this size too. *)
let max_input = 8 * 1024 * 1024

(* Longest single string literal / most elements in one array or object. *)
let max_string = 4 * 1024 * 1024
let max_items = 65536

(* ---- printer ---- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x ->
      if Float.is_nan x || Float.abs x = infinity then Buffer.add_string b "0"
      else if Float.is_integer x && Float.abs x < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.0f" x)
      else Buffer.add_string b (Printf.sprintf "%.17g" x)
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":";
          add b v)
        kvs;
      Buffer.add_char b '}'

let to_string (t : t) =
  let b = Buffer.create 256 in
  add b t;
  Buffer.contents b

(** One framed message of the line-delimited wire protocol: the JSON
    text followed by the terminating newline.  Every response the
    daemon puts on a socket goes through this, so the framing lives in
    exactly one place. *)
let to_line (t : t) = to_string t ^ "\n"

(* ---- parser ---- *)

exception Bad of string

type st = { s : string; mutable pos : int }

let fail st msg = raise (Bad (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected %C" c)

let lit st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "bad literal (want %s)" word)

let hex4 st =
  if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let c = st.s.[st.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad \\u escape"
    in
    v := (!v * 16) + d
  done;
  st.pos <- st.pos + 4;
  !v

(* UTF-8 encode a BMP code point (surrogate pairs are combined by the
   string scanner when both halves are present). *)
let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail st "unterminated string";
    match st.s.[st.pos] with
    | '"' -> st.pos <- st.pos + 1
    | '\\' ->
        st.pos <- st.pos + 1;
        (if st.pos >= String.length st.s then fail st "truncated escape"
         else
           match st.s.[st.pos] with
           | '"' -> Buffer.add_char b '"'; st.pos <- st.pos + 1
           | '\\' -> Buffer.add_char b '\\'; st.pos <- st.pos + 1
           | '/' -> Buffer.add_char b '/'; st.pos <- st.pos + 1
           | 'b' -> Buffer.add_char b '\b'; st.pos <- st.pos + 1
           | 'f' -> Buffer.add_char b '\012'; st.pos <- st.pos + 1
           | 'n' -> Buffer.add_char b '\n'; st.pos <- st.pos + 1
           | 'r' -> Buffer.add_char b '\r'; st.pos <- st.pos + 1
           | 't' -> Buffer.add_char b '\t'; st.pos <- st.pos + 1
           | 'u' ->
               st.pos <- st.pos + 1;
               let cp = hex4 st in
               let cp =
                 (* high surrogate followed by an escaped low surrogate *)
                 if
                   cp >= 0xd800 && cp <= 0xdbff
                   && st.pos + 2 <= String.length st.s
                   && st.s.[st.pos] = '\\'
                   && st.s.[st.pos + 1] = 'u'
                 then begin
                   st.pos <- st.pos + 2;
                   let lo = hex4 st in
                   if lo >= 0xdc00 && lo <= 0xdfff then
                     0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                   else cp
                 end
                 else cp
               in
               add_utf8 b cp
           | c -> fail st (Printf.sprintf "bad escape \\%c" c));
        go ()
    | c ->
        if Buffer.length b >= max_string then fail st "string too long";
        Buffer.add_char b c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.s && is_num_char st.s.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let tok = String.sub st.s start (st.pos - start) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
    match float_of_string_opt tok with
    | Some x -> Float x
    | None -> fail st "bad number"
  else
    match int_of_string_opt tok with
    | Some n -> Int n
    | None -> (
        (* out-of-range integer literal: degrade to float *)
        match float_of_string_opt tok with
        | Some x -> Float x
        | None -> fail st "bad number")

let rec parse_value st depth =
  if depth > max_depth then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some 't' -> lit st "true" (Bool true)
  | Some 'f' -> lit st "false" (Bool false)
  | Some 'n' -> lit st "null" Null
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let rec items n acc =
          if n >= max_items then fail st "array too large";
          let v = parse_value st (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (n + 1) (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        List (items 0 [])
      end
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let rec members n acc =
          if n >= max_items then fail st "object too large";
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              members (n + 1) ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (members 0 [])
      end
  | Some _ -> parse_number st

let of_string (s : string) : (t, string) result =
  if String.length s > max_input then
    Error
      (Printf.sprintf "input too large (%d bytes, limit %d)" (String.length s)
         max_input)
  else
  let st = { s; pos = 0 } in
  match parse_value st 0 with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Bad msg -> Error msg

(* ---- typed accessors (for picking requests apart) ---- *)

let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let str_mem k j =
  match mem k j with Some (Str s) -> Some s | _ -> None

let int_mem k j =
  match mem k j with
  | Some (Int n) -> Some n
  | Some (Float x) when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let bool_mem k j = match mem k j with Some (Bool b) -> Some b | _ -> None
let list_mem k j = match mem k j with Some (List l) -> Some l | _ -> None
let obj_mem k j = match mem k j with Some (Obj o) -> Some o | _ -> None
