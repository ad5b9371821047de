(** The sensor → checker leg shared by the {!Psn_sim.Exec} checkers
    ({!Sharded_detector}, {!Streaming_detector}); DESIGN.md, "Sensor →
    checker uplink", has the full contract.

    Sensors (pids [0 .. n-1]) stamp each update with a synced physical
    clock whose stream derives from [(Exec.seed, pid)] and send it over a
    {!Psn_network.Shard_net} to the checker (pid [n], group 0).  Lanes
    [a..e] carry value, sense time, stamp, [(seq lsl 2) lor var_idx],
    and the detector's stamp-plane handle ([-1] for none); [var_idx] is
    the source's slot for the variable name, so at most {!max_vars}
    names per source.  The checker buffers arrivals in a {!Pending_arena}
    and a fixed periodic flush on group 0 hands over each arrival held
    back for at least [hold], in (stamp, src, seq) order. *)

type t

val max_vars : int
(** Distinct variable names per source (4). *)

(** Construction cache for repeated same-configuration builds (sweeps,
    benchmarks).  The clock array, name tables, and sequence counters are
    a pure function of [(seed, eps, n)]: the first build under a key
    allocates them, later builds reuse the clocks (read-only after
    construction) and clear the tables in place.  Single-domain; hand
    each concurrently-alive detector its own arena, or none. *)
module Arena : sig
  type t

  val create : unit -> t

  val builds : t -> int
  (** Times the tables were (re)built — 1 under steady reuse. *)
end

val create :
  who:string ->
  ?loss:Psn_sim.Loss_model.t ->
  ?sinks:Psn_obs.Trace.sink array ->
  ?arena:Arena.t ->
  Psn_sim.Exec.t ->
  label:string -> counter:string -> n:int -> groups:int ->
  group_of:(int -> int) -> eps:Psn_sim.Sim_time.t -> hold:Psn_sim.Sim_time.t ->
  flush_period:Psn_sim.Sim_time.t -> delay:Psn_sim.Delay_model.t -> t
(** Builds the transport (label [label]), the clocks, and the tables,
    and registers the per-group update counter [counter].  Raises
    [Invalid_argument] (prefixed [who ^ ".create"]) on [n <= 0],
    [groups <= 0], or a non-positive [flush_period]. *)

val net : t -> Psn_network.Shard_net.t
val pending : t -> Pending_arena.t

(** {2 Source side} — run on [src]'s group engine. *)

val intern : t -> src:int -> var:string -> int
(** The slot of [var] on [src], assigned at first use.  Raises
    [Invalid_argument] (prefixed [who ^ ".emit"]) on an out-of-range
    [src] or a fifth name, before any state changes. *)

val send :
  t -> src:int -> var:string -> var_idx:int -> value:int -> vh:int ->
  clock:Psn_obs.Trace.event -> mirror:int -> unit
(** Stamps the update with [src]'s clock and next sequence number,
    records it in the ground truth, traces [clock], and sends it to the
    checker with handle [vh].  With [mirror >= 0], a surviving send is
    also posted on the raw channel to address [mirror] in [src]'s group
    at the same delivery time (see {!deliver_mirror}). *)

(** {2 Checker side} *)

val wire_seq : int -> int
(** The sequence number packed in lane [d]. *)

val deliver : t -> src:int -> a:int -> b:int -> c:int -> d:int -> unit
(** Buffer a checker arrival at group 0's current time; detectors call
    it from their own handler after reading lane [e]. *)

val deliver_mirror :
  Pending_arena.t -> now:Psn_sim.Sim_time.t ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> unit

val flush_every :
  Psn_sim.Engine.t -> Pending_arena.t -> start:Psn_sim.Sim_time.t ->
  period:Psn_sim.Sim_time.t -> lag:int ->
  (now:Psn_sim.Sim_time.t -> int -> unit) -> unit
(** On [engine], from [start] every [period]: move the arrivals
    received at or before [now - lag] (ns) into the arena's batch and
    call the function with the batch length. *)

val start_flush : t -> (now:Psn_sim.Sim_time.t -> int -> unit) -> unit
(** The checker's schedule: {!flush_every} on group 0 from
    [flush_period], with lag [hold]. *)

val var_name : t -> src:int -> var_idx:int -> string

val find_var : t -> src:int -> name:string -> int
(** Slot of [name] on [src], or [-1]. *)

val trace_applied : t -> now:Psn_sim.Sim_time.t -> int -> unit
(** Trace batch entry [i] as applied ([Detector_update] on group 0). *)

val trace_occurrence :
  t -> now:Psn_sim.Sim_time.t -> verdict:string -> sense:int -> unit
(** Trace a verdict decided at [now] for an update sensed at [sense]
    (ns) — [Detector_occurrence] on group 0. *)

val update :
  t -> src:int -> var_idx:int -> value:int -> seq:int -> sense:int ->
  Observation.update

val emitted : t -> int
(** Updates sent so far, over all sources. *)

val updates : t -> Observation.update list
(** Every update sent, merged across groups in (sense_time, src, seq)
    order — the ground-truth stream. *)
