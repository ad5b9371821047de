(** Flat-bytecode predicate evaluator: compile an {!Expr.t} once, then
    evaluate it allocation-free against an int-indexed slot environment.

    The compiled program replays {!Expr.eval}'s exact operand order and
    short-circuit structure, so for any environment both evaluators
    return the same value or raise the same exception ({!
    Expr.Unbound_variable} with the same variable, or
    [Psn_world.Value.Type_error] with the same message) — the
    interpreter remains the differential oracle.

    Scratch evaluation stacks live in the compiled program and are
    reused across calls: evaluate from one domain at a time per [t]
    (callers that evaluate concurrently each compile their own copy). *)

type t

val compile : Expr.t -> t
(** Linear in the size of the expression. *)

val nvars : t -> int
(** Number of distinct located variables; slots are [0 .. nvars - 1] in
    {!Expr.vars} first-use order. *)

val slot : t -> Expr.var -> int
(** Variable to slot index, [-1] when the program never reads it. *)

(** {2 Environments} *)

type env
(** A slot-indexed binding array; every slot starts unbound.  Create one
    per evaluation site from the program that will read it. *)

val create_env : t -> env
val set : env -> int -> Psn_world.Value.t -> unit
val set_int : env -> int -> int -> unit
(** [set]/[set_int] bind a slot; [set_int] is the unboxed fast path for
    the detectors' int-valued updates. *)

val clear : env -> int -> unit
val get : env -> int -> Psn_world.Value.t option

val is_int : env -> int -> bool
val get_int : env -> int -> int
(** [is_int env s]: the slot is bound to an [Int]; [get_int] reads it
    unboxed (unspecified when [is_int] is false). *)

(** {2 Evaluation} *)

val eval : t -> env -> Psn_world.Value.t
(** Raises {!Expr.Unbound_variable} on a read of an unbound slot and
    [Value.Type_error] on ill-typed programs, matching {!Expr.eval}
    exception-for-exception. *)

val eval_bool : t -> env -> bool

val holds : t -> env -> bool
(** {!Expr.holds} over a slot environment: {!eval_bool} with an unbound
    slot read as false; [Value.Type_error] still propagates. *)
