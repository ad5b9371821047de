(** The one incremental predicate state: φ compiled once
    ({!Psn_predicates.Compiled}) over a slot environment, stepped one
    binding at a time with transition reporting, plus override evaluation
    for race analysis.

    Callers: {!Linearizer} (update order), {!Sharded_detector}'s
    [Compiled] backend and [Partitioned] sub-checkers (hold-back order,
    through {!bind_int}), and {!Ground_truth} (true sense-time order).
    An unbound variable makes φ false ({!Psn_predicates.Compiled.holds});
    [Value.Type_error] propagates.  Variables φ never reads have no slot
    and are ignored.  One evaluation at a time per [t]. *)

type transition = Rose | Fell | Same
type t

val create :
  ?init:(Psn_predicates.Expr.var * Psn_world.Value.t) list ->
  Psn_predicates.Expr.t -> t
(** Compiles φ, binds [init], and evaluates φ once. *)

val holds : t -> bool

val slot : t -> Psn_predicates.Expr.var -> int
(** The variable's slot, [-1] when φ never reads it. *)

val bind : t -> int -> Psn_world.Value.t -> transition
val bind_int : t -> int -> int -> transition
(** Bind a slot ([>= 0], from {!slot}) and re-evaluate φ; [bind_int] is
    the unboxed path for int-valued updates.  Allocation-free. *)

val apply :
  t -> Observation.update -> transition * Psn_world.Value.t option
(** Bind the update's variable and re-evaluate; returns the transition
    and the variable's previous value ([None] when it was unbound, and
    for a variable φ never reads, whose binding is ignored). *)

val eval_with_override :
  t -> var:Psn_predicates.Expr.var -> value:Psn_world.Value.t option -> bool
(** Evaluate φ with one variable overridden ([None] = unbound), without
    committing. *)
