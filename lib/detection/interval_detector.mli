(** Interval-queue detection of the Cooper–Marzullo modalities for
    conjunctive predicates over strobe vector clocks (Garg–Waldecker
    queues, repeated detection). *)

(** [Definitely]: every consistent observation sees all conjuncts true
    at once — never asserts an overlap the causal order does not
    guarantee (precision 1 by construction), at the cost of missing
    races (E4, E7).  [Possibly]: some consistent observation does — the
    weakest modality; recall dominates [Definitely], but it may assert
    overlaps no real-time instant exhibited. *)
type mode = Definitely | Possibly

val create :
  ?loss:Psn_sim.Loss_model.t ->
  ?init:(Psn_predicates.Expr.var * Psn_world.Value.t) list -> ?once:bool ->
  Psn_sim.Engine.t -> mode:mode -> n:int -> delay:Psn_sim.Delay_model.t ->
  horizon:Psn_sim.Sim_time.t -> predicate:Psn_predicates.Expr.t -> Detector.t
(** Raises [Invalid_argument] when the predicate is not conjunctive.
    Open conjunct intervals are closed at [horizon]. [once] reproduces the
    hang-after-first baseline. *)
