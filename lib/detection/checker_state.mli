(** The one incremental predicate state: φ compiled once
    ({!Psn_predicates.Compiled}) over a slot environment, stepped one
    binding at a time with transition reporting, plus override evaluation
    for race analysis.

    Delta evaluation.  While every slot φ reads holds an [Int], a bind
    re-evaluates only the path from its slot to the root of a DAG of
    cached node values: Σ nodes (flattened [Add]/[Sub] chains) keep a
    running int total, ∧/∨ nodes (flattened chains) a count of true
    children, and Cmp/¬ nodes recompute from their children — O(1) per
    bind on the hall's Σ(x_i − y_i) > cap, O(depth) in general.  The
    exactness guard: the fast path runs only when φ type-checks with
    every slot Int and has no [Mul], no [String] and only [Int]
    constants in its sums, and every slot's magnitude is at most
    (2{^53} − 1) / (terms of the widest Σ), so that the int total equals
    {!Psn_predicates.Compiled}'s float fold.  Every other state — an
    unbound or non-Int slot, a larger magnitude, an ineligible φ — falls
    back to {!Psn_predicates.Compiled.holds}, so every call returns the
    same value, transition and exception as a full evaluation.  The DAG
    is built on the first bind that finds every slot Int; a state that
    never gets there pays only for two counters.

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
    the unboxed path for int-valued updates.  Allocation-free, apart from
    the DAG's one-time build. *)

val apply :
  t -> Observation.update -> transition * Psn_world.Value.t option
(** Bind the update's variable and re-evaluate; returns the transition
    and the variable's previous value ([None] when it was unbound, and
    for a variable φ never reads, whose binding is ignored). *)

val eval_with_override :
  t -> var:Psn_predicates.Expr.var -> value:Psn_world.Value.t option -> bool
(** Evaluate φ with one variable overridden ([None] = unbound), without
    committing. *)

val fallbacks : t -> int
(** Binds and overrides evaluated by a full
    {!Psn_predicates.Compiled.holds} run rather than the DAG.  Read by
    tests to prove the fast path engaged; it changes no behaviour. *)
