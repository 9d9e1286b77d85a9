(* Writing a kernel and inspecting every compilation stage.

     dune exec examples/custom_kernel.exe

   Takes a small divergent kernel through the same pipeline the runtime
   uses — parse, type-check, if-convert, translate to scalar IR, compute
   the divergence plan, vectorize for a warp of 4 with yield-on-diverge
   handlers, optimize — printing the intermediate forms, then validates
   execution against the reference emulator. *)

module Ir = Vekt_ir.Ir
module Pp = Vekt_ir.Pp
module Ptx_to_ir = Vekt_transform.Ptx_to_ir
module Plan = Vekt_transform.Plan
module Vectorize = Vekt_transform.Vectorize
module Passes = Vekt_transform.Passes
module Api = Vekt_runtime.Api
open Vekt_ptx

let src =
  {|
.entry collatz (.param .u64 outp, .param .u32 bound)
{
  .reg .u32 %tid, %x, %steps, %bound, %bit;
  .reg .u64 %po, %off;
  .reg .pred %p, %odd;

  mov.u32 %tid, %tid.x;
  add.u32 %x, %tid, 1;
  mov.u32 %steps, 0;
  ld.param.u32 %bound, [bound];

LOOP:
  setp.le.u32 %p, %x, 1;
  @%p bra DONE;
  setp.ge.u32 %p, %steps, %bound;
  @%p bra DONE;
  and.b32 %bit, %x, 1;
  setp.eq.u32 %odd, %bit, 1;
  @%odd bra ODD;
  shr.u32 %x, %x, 1;           // even: x /= 2
  bra NEXT;
ODD:
  mad.lo.u32 %x, %x, 3, 1;     // odd: x = 3x + 1
NEXT:
  add.u32 %steps, %steps, 1;
  bra LOOP;

DONE:
  ld.param.u64 %po, [outp];
  cvt.u64.u32 %off, %tid;
  shl.b64 %off, %off, 2;
  add.u64 %po, %po, %off;
  st.global.u32 [%po], %steps;
  exit;
}
|}

let () =
  let m = Typecheck.load src in
  Fmt.pr "== source PTX round-trips through the printer ==@.%s@."
    (Printer.to_string m);

  (* Frontend: inline + if-conversion + translation to scalar IR. *)
  let tr = Ptx_to_ir.frontend m ~kernel:"collatz" in
  Fmt.pr "== scalar IR (%d instructions) ==@.%a@." (Ir.size tr.Ptx_to_ir.func)
    Pp.func tr.Ptx_to_ir.func;

  (* The divergence plan: entry points and spill slots shared by all
     specializations. *)
  let plan =
    Plan.compute tr.Ptx_to_ir.func ~local_decl_bytes:tr.Ptx_to_ir.local_decl_bytes
  in
  Fmt.pr "== divergence plan ==@.";
  List.iter
    (fun (label, id) ->
      Fmt.pr "  entry %d at block %s restores %d registers@." id label
        (Vekt_analysis.Liveness.ISet.cardinal (Plan.entry_live plan label)))
    plan.Plan.entry_ids;
  Fmt.pr "  spill area: %d bytes per thread@." plan.Plan.spill_bytes;

  (* Vectorize for a warp of 4 and optimize. *)
  let v = Vectorize.run ~plan tr.Ptx_to_ir.func ~ws:4 in
  let stats = Passes.optimize v.Vectorize.func in
  Fmt.pr
    "== vectorized for warp size 4: %d instructions after optimization ==@."
    (Ir.size v.Vectorize.func);
  Fmt.pr "   (DCE removed %d, CSE replaced %d, %d blocks fused; %d rounds)@."
    (Passes.changes_of stats "dce")
    (Passes.changes_of stats "cse")
    (Passes.changes_of stats "fusion")
    stats.Passes.rounds;
  Fmt.pr "%a@." Pp.func v.Vectorize.func;

  (* Run through the full runtime and cross-check against the oracle. *)
  let dev = Api.create_device () in
  let api_m = Api.load_module dev src in
  let n = 64 in
  let out = Api.malloc dev (4 * n) in
  let launch_args = [ Launch.Ptr out; Launch.I32 64 ] in
  let reference =
    Api.launch_reference api_m ~kernel:"collatz" ~grid:(Launch.dim3 1)
      ~block:(Launch.dim3 n) ~args:launch_args
  in
  let r =
    Api.launch api_m ~kernel:"collatz" ~grid:(Launch.dim3 1) ~block:(Launch.dim3 n)
      ~args:launch_args
  in
  assert (Mem.equal reference dev.Api.global);
  Fmt.pr "== execution ==@.";
  Fmt.pr "collatz steps for 1..8: %a@."
    Fmt.(list ~sep:sp int)
    (Api.read_i32s dev out 8);
  Fmt.pr "bit-identical to the reference emulator; average warp size %.2f@."
    r.Api.avg_warp_size
