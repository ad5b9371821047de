(** Pooled flat-lane deliveries on one {!Engine.t} — the delivery path
    shared by {!Sharded_engine}'s shards and {!Exec}'s single-queue
    oracle, so both substrates pay the same cost per message.  Delivery
    records and their firing closures are recycled through a free
    stack: steady-state scheduling allocates nothing. *)

type handler =
  dst:int ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> w5:int -> w6:int -> unit
(** Delivery callback: destination process id and payload lanes; runs
    with the engine clock at the delivery time. *)

type t

val create : Engine.t -> t
val engine : t -> Engine.t
val set_handler : t -> handler -> unit

val schedule :
  t -> at:Sim_time.t -> dst:int ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> w5:int -> w6:int -> unit
(** Schedule delivery of the lanes to [dst] at absolute time [at]. *)
