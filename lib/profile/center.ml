(* The closed cost-center vocabulary.

   One constructor per (event kind x subsystem) the engine dispatches, plus
   [Trace_emit] for the nested sink spans and [Other] for anything a
   callback never refines (fault injections, drains).  Keeping the set
   closed means the recorder can use a flat array indexed by [index] — no
   hashing on the hot path — and every report row has a stable name and
   position, which is what makes the JSON byte-deterministic. *)

type t =
  | Engine_dispatch
  | Net_delivery
  | Server_grant
  | Server_write
  | Server_expiry
  | Client_op
  | Client_renewal
  | Client_handle
  | Timer_fire
  | Telemetry_sample
  | Trace_emit
  | Other

let count = 12

let index = function
  | Engine_dispatch -> 0
  | Net_delivery -> 1
  | Server_grant -> 2
  | Server_write -> 3
  | Server_expiry -> 4
  | Client_op -> 5
  | Client_renewal -> 6
  | Client_handle -> 7
  | Timer_fire -> 8
  | Telemetry_sample -> 9
  | Trace_emit -> 10
  | Other -> 11

let all =
  [
    Engine_dispatch;
    Net_delivery;
    Server_grant;
    Server_write;
    Server_expiry;
    Client_op;
    Client_renewal;
    Client_handle;
    Timer_fire;
    Telemetry_sample;
    Trace_emit;
    Other;
  ]

let name = function
  | Engine_dispatch -> "engine/dispatch"
  | Net_delivery -> "net/delivery"
  | Server_grant -> "server/grant"
  | Server_write -> "server/write"
  | Server_expiry -> "server/expiry"
  | Client_op -> "client/op"
  | Client_renewal -> "client/renewal"
  | Client_handle -> "client/handle"
  | Timer_fire -> "timer/fire"
  | Telemetry_sample -> "telemetry/sample"
  | Trace_emit -> "trace/emit"
  | Other -> "other"
