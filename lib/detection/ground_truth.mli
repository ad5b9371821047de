(** Oracle: maximal intervals where the predicate really held, from the
    true-time replay of the sensors' update stream through
    {!Checker_state} — the same compiled incremental state the checkers
    step, fed in sense-time order instead of a hold-back linearization.
    A naive Hashtbl/interpreter replay in the test suite is its
    differential oracle. *)

type interval = { t_start : Psn_sim.Sim_time.t; t_end : Psn_sim.Sim_time.t }

val intervals :
  ?init:(Psn_predicates.Expr.var * Psn_world.Value.t) list ->
  updates:Observation.update list -> predicate:Psn_predicates.Expr.t ->
  horizon:Psn_sim.Sim_time.t -> unit -> interval list
(** Sorted, disjoint, maximal. Updates replay in (sense time, src, seq)
    order; unbound variables make φ false. Updates after [horizon] are
    ignored; a final open interval closes at it. Compiles φ per call and
    keeps no shared state, so concurrent calls from several domains are
    safe. *)

val total_true_time : interval list -> Psn_sim.Sim_time.t
