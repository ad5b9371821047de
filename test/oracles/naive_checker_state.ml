(* Naive twin of [Psn_detection.Checker_state]: a polymorphic Hashtbl
   environment and the [Expr] interpreter, re-evaluating φ after every
   update.  It binds every variable, read by φ or not, so its [apply]
   returns the previous value of any variable.  The differential oracle
   for the compiled state. *)

module Expr = Psn_predicates.Expr
module Value = Psn_world.Value
module Observation = Psn_detection.Observation

type transition = Psn_detection.Checker_state.transition = Rose | Fell | Same

type t = {
  predicate : Expr.t;
  env : (Expr.var, Value.t) Hashtbl.t;
  env_fn : Expr.var -> Value.t option; (* hoisted: one lookup closure per checker *)
  mutable holds : bool;
}

let eval_safe predicate env_fn =
  match Expr.eval_bool ~env:env_fn predicate with
  | b -> b
  | exception Expr.Unbound_variable _ -> false

let create ?(init = []) predicate =
  let env = Hashtbl.create 16 in
  List.iter (fun (v, value) -> Hashtbl.replace env v value) init;
  let t = { predicate; env; env_fn = Hashtbl.find_opt env; holds = false } in
  t.holds <- eval_safe predicate t.env_fn;
  t

let holds t = t.holds

(* Apply an update; returns the transition and the variable's previous
   value (for later race reverts). *)
let apply t (u : Observation.update) =
  let var = Observation.located u in
  let prev = Hashtbl.find_opt t.env var in
  Hashtbl.replace t.env var u.value;
  let now_holds = eval_safe t.predicate t.env_fn in
  let transition =
    match (t.holds, now_holds) with
    | false, true -> Rose
    | true, false -> Fell
    | _ -> Same
  in
  t.holds <- now_holds;
  (transition, prev)

(* Evaluate φ with one variable temporarily overridden ([None] = unbound).
   The committed state is untouched. *)
let eval_with_override t ~var ~value =
  let env v =
    if v = var then value else Hashtbl.find_opt t.env v
  in
  eval_safe t.predicate env
