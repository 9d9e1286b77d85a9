(* The codec lives in Vekt_obs, next to the exporters that print with
   it; this alias keeps [Vekt_server.Jsonx] resolving for code that
   reaches it through the server library. *)
include Vekt_obs.Jsonx
