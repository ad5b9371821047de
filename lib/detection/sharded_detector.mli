(** Hold-back consensus checker over an {!Psn_sim.Exec} substrate.

    The sharded counterpart of the physical-clock linearizer.  Updates
    travel the {!Uplink}, whose flush hands over every update held back
    for at least [hold] in the substrate-invariant (stamp, src, seq)
    order, so the applied sequence (and with it every occurrence) is
    identical on the single-queue oracle and on any shard count.  An
    occurrence is [Borderline] when its trigger's stamp is within
    [2 * eps] of an adjacent applied update from another process (the
    paper's race bin), [Positive] otherwise.

    Per-shard stamp planes: with [causal_stamps] on, every source
    additionally runs a vector clock whose stamps bump-allocate in its
    {e group's} {!Psn_clocks.Stamp_plane} arena — each shard owns its
    planes, writes are group-local (race-free intra-window), and the
    checker merges received handles across planes into a causal frontier
    after the barrier's happens-before edge.  The frontier is a
    commutative max-merge, hence substrate-invariant; tests compare it
    verbatim. *)

type t

(** Checker backend — same verdicts, same occurrences, same trace bytes
    on any choice; only the evaluation cost model differs.

    - [Interp]: Hashtbl env + {!Psn_predicates.Expr.holds} per applied
      update, on the interpreter.  The differential oracle.
    - [Compiled]: one {!Checker_state} (the predicate compiled once over
      int slots), re-evaluated per applied update through
      {!Checker_state.bind_int}.  Works for any predicate.
    - [Partitioned]: conjunctive predicates only ({!Psn_predicates.Expr.conjuncts}).
      Each group's shard runs a sub-checker, a {!Checker_state} over the
      residual of its conjuncts, and publishes only rising/falling edges
      of the group verdict through the substrate's mailbox rings; the
      checker folds edges through an AND-combining tree, making an
      applied update O(group residual + log groups) instead of
      O(predicate).  Requires every conjunct's location in [0 .. n-1]
      and [hold >= Delay_model.min_delay delay + 2ns] (the edge protocol
      posts [hold - 2] ahead, which must cover the engine lookahead; the
      bound is written in configuration terms so the oracle and every
      shard count admit the same predicates).  [create] raises
      [Invalid_argument] when forced on an inadmissible predicate.
    - [Auto] (default): [Partitioned] when admissible, else [Compiled]. *)
type checker = Interp | Compiled | Partitioned | Auto

type cfg = {
  n : int;                       (* sensor pids 0 .. n-1; checker is pid n *)
  groups : int;
  group_of : int -> int;         (* sensor pid -> group; checker maps to 0 *)
  eps : Psn_sim.Sim_time.t;      (* clock sync bound *)
  hold : Psn_sim.Sim_time.t;     (* checker hold-back *)
  flush_period : Psn_sim.Sim_time.t;
  causal_stamps : bool;
}

val create :
  ?loss:Psn_sim.Loss_model.t ->
  ?sinks:Psn_obs.Trace.sink array ->
  ?checker:checker ->
  ?arena:Uplink.Arena.t ->
  Psn_sim.Exec.t -> cfg:cfg -> delay:Psn_sim.Delay_model.t ->
  predicate:Psn_predicates.Expr.t -> unit -> t
(** Builds the uplink (transport label ["detector"]), the per-group
    planes, and the backend.  [sinks] (one per group) additionally trace
    updates, occurrences, and the transport's send/deliver/drop records.
    [checker] defaults to [Auto].  [arena] reuses the uplink's O(n)
    construction arrays ({!Uplink.Arena}); construction is wrapped in a
    [Profile.phase "detector.setup"] either way. *)

val checker_kind : t -> checker
(** The resolved backend: [Interp], [Compiled], or [Partitioned]
    (never [Auto]). *)

val emit : t -> src:int -> var:string -> value:int -> unit
(** Called from a sense event executing on [src]'s group engine: stamps
    the update and sends it up the {!Uplink}.  Raises as
    {!Uplink.intern} does (out-of-range [src], a fifth variable name). *)

val net : t -> Psn_network.Shard_net.t

val updates : t -> Observation.update list
(** {!Uplink.updates}: every update emitted, the ground-truth stream. *)

val occurrences : t -> Occurrence.t list

val frontier : t -> int array option
(** With [causal_stamps]: the checker's merged vector frontier
    (width [n + 1]; component [n] counts checker merges). *)

val plane : t -> group:int -> Psn_clocks.Stamp_plane.t option
(** The group's stamp arena (with [causal_stamps]). *)
