(** Byte-addressed little-endian memory segments.

    One segment per address-space instance: the device global space, each
    CTA's shared space, each thread's local space, the per-launch parameter
    block and the module constant bank all use this representation. *)

type t = { bytes : Bytes.t; name : string }

(** A faulting access, with the segment, address and width it targeted.
    The payload is structured ({!Vekt_error.access}) so upper layers can
    attach thread/CTA context instead of concatenating strings; the
    [space] field starts as the segment name and is refined where the
    PTX address space is known. *)
exception Fault of Vekt_error.access

let fault ~op t addr width =
  raise
    (Fault
       {
         Vekt_error.segment = t.name;
         space = t.name;
         addr;
         width;
         size = Bytes.length t.bytes;
         op;
       })

let create ?(name = "mem") size =
  if size < 0 then invalid_arg "Mem.create: negative size";
  { bytes = Bytes.make size '\000'; name }

let of_bytes ?(name = "mem") bytes = { bytes; name }
let size t = Bytes.length t.bytes
let bytes t = t.bytes

(** Serializable snapshot of the segment's contents.  [live] bounds the
    image to the segment's used prefix (e.g. a bump allocator's
    watermark) so a sparsely-used large segment doesn't serialize as
    gigabytes of zeros; defaults to the whole segment. *)
let image ?live t : Bytes.t =
  let n =
    match live with
    | None -> Bytes.length t.bytes
    | Some l -> max 0 (min l (Bytes.length t.bytes))
  in
  Bytes.sub t.bytes 0 n

(** Restore the segment from an {!image}: the image prefix is copied in
    and the remainder zeroed (everything past a [~live] watermark was
    zero when the image was taken). *)
let load_image t (img : Bytes.t) =
  let n = Bytes.length img in
  if n > Bytes.length t.bytes then
    invalid_arg
      (Fmt.str "Mem.load_image: %d-byte image exceeds %d-byte segment %s" n
         (Bytes.length t.bytes) t.name);
  Bytes.blit img 0 t.bytes 0 n;
  Bytes.fill t.bytes n (Bytes.length t.bytes - n) '\000'

(* [addr + width > size], in a form no address near [max_int] overflows. *)
let check ~op t addr width =
  if addr < 0 || addr > Bytes.length t.bytes - width then fault ~op t addr width

(** Load [size_of ty] bytes at [addr] as a value of type [ty]. *)
let load t (ty : Ast.dtype) addr : Scalar_ops.value =
  let width = Ast.size_of ty in
  check ~op:"load" t addr width;
  let bits =
    match width with
    | 1 -> Int64.of_int (Char.code (Bytes.get t.bytes addr))
    | 2 -> Int64.of_int (Bytes.get_uint16_le t.bytes addr)
    | 4 -> Int64.of_int32 (Bytes.get_int32_le t.bytes addr)
    | 8 -> Bytes.get_int64_le t.bytes addr
    | _ -> fault ~op:"load of unsupported width" t addr width
  in
  Scalar_ops.of_bits ty bits

let store t (ty : Ast.dtype) addr (v : Scalar_ops.value) =
  let width = Ast.size_of ty in
  check ~op:"store" t addr width;
  let bits = Scalar_ops.to_bits ty v in
  match width with
  | 1 -> Bytes.set_uint8 t.bytes addr (Int64.to_int (Int64.logand bits 0xffL))
  | 2 -> Bytes.set_uint16_le t.bytes addr (Int64.to_int (Int64.logand bits 0xffffL))
  | 4 -> Bytes.set_int32_le t.bytes addr (Int64.to_int32 bits)
  | 8 -> Bytes.set_int64_le t.bytes addr bits
  | _ -> fault ~op:"store of unsupported width" t addr width

(** Typed array helpers used by host drivers and tests. *)

let write_f32s t ~at xs =
  List.iteri (fun i x -> store t Ast.F32 (at + (4 * i)) (Scalar_ops.F x)) xs

let write_i32s t ~at xs =
  List.iteri (fun i x -> store t Ast.S32 (at + (4 * i)) (Scalar_ops.I (Int64.of_int x))) xs

(* A typed read observing the wrong value class is a type-confused
   access (e.g. an integer bit pattern where a float was expected): a
   reportable trap, not an [assert false] crash. *)
let type_confusion ~what t at width =
  fault ~op:(Fmt.str "typed read of %s found type-confused value" what) t at
    width

let read_f32 t at =
  match load t Ast.F32 at with
  | Scalar_ops.F f -> f
  | _ -> type_confusion ~what:"f32" t at 4

let read_f32s t ~at n = List.init n (fun i -> read_f32 t (at + (4 * i)))

let read_i32 t at =
  match load t Ast.S32 at with
  | Scalar_ops.I v -> Int64.to_int v
  | _ -> type_confusion ~what:"i32" t at 4

let read_i32s t ~at n = List.init n (fun i -> read_i32 t (at + (4 * i)))

let copy t = { t with bytes = Bytes.copy t.bytes }

let equal a b = Bytes.equal a.bytes b.bytes

(** Layout of named arrays within one segment: 16-byte alignment matches
    PTX's default for arrays. *)
let layout (decls : Ast.array_decl list) : (string * int) list * int =
  let align16 n = (n + 15) / 16 * 16 in
  let rec go off = function
    | [] -> ([], off)
    | (d : Ast.array_decl) :: rest ->
        let off = align16 off in
        let size = Ast.size_of d.a_ty * d.a_elems in
        let tail, total = go (off + size) rest in
        ((d.a_name, off) :: tail, total)
  in
  go 0 decls
