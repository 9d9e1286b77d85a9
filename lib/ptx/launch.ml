(** Kernel launch configuration and parameter-block construction. *)

type dim3 = { x : int; y : int; z : int }

let dim3 ?(y = 1) ?(z = 1) x = { x; y; z }
let count d = d.x * d.y * d.z

(** Linear index of a coordinate within its dimensions (x fastest). *)
let linear ~dims { x; y; z } = x + (dims.x * (y + (dims.y * z)))

let unlinear ~dims i =
  let x = i mod dims.x in
  let y = i / dims.x mod dims.y in
  let z = i / (dims.x * dims.y) in
  { x; y; z }

type config = { grid : dim3; block : dim3 }

(** Host-side kernel argument values. *)
type arg =
  | I32 of int
  | I64 of int64
  | F32 of float
  | F64 of float
  | Ptr of int  (** device address (offset in the global segment) *)

(** Build the parameter block for [kernel] from positional arguments,
    checking that argument kinds match the declared parameter types. *)
let param_block (kernel : Ast.kernel) (args : arg list) : Mem.t =
  let layout = Ast.param_layout kernel.k_params in
  if List.length args <> List.length kernel.k_params then
    invalid_arg
      (Fmt.str "kernel %s expects %d arguments, got %d" kernel.k_name
         (List.length kernel.k_params) (List.length args));
  let mem = Mem.create ~name:"param" (Ast.param_block_size kernel.k_params) in
  (* walk parameters and arguments in lockstep (indexing the parameter
     list with [List.nth] per argument is quadratic in the arity), with
     an O(1) layout lookup *)
  let layout_tbl = Hashtbl.create (List.length layout) in
  List.iter (fun (name, slot) -> Hashtbl.replace layout_tbl name slot) layout;
  List.iteri
    (fun i (p, arg) ->
      let off, ty = Hashtbl.find layout_tbl p.Ast.p_name in
      let v =
        match (arg, ty) with
        | I32 v, (Ast.U32 | Ast.S32 | Ast.B32 | Ast.U16 | Ast.S16 | Ast.B16 | Ast.U8 | Ast.S8 | Ast.B8) ->
            Scalar_ops.I (Int64.of_int v)
        | I64 v, (Ast.U64 | Ast.S64 | Ast.B64) -> Scalar_ops.I v
        | Ptr v, (Ast.U64 | Ast.S64 | Ast.B64) -> Scalar_ops.I (Int64.of_int v)
        | F32 v, Ast.F32 -> Scalar_ops.F v
        | F64 v, Ast.F64 -> Scalar_ops.F v
        | _ ->
            invalid_arg
              (Fmt.str "argument %d of %s: kind mismatch for %s parameter" i
                 kernel.k_name (Printer.dtype_str ty))
      in
      Mem.store mem ty off v)
    (List.combine kernel.k_params args);
  mem
