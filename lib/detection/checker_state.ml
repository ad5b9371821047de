(* The one incremental predicate state (callers: see the .mli).  φ is
   compiled once; variables it never reads have no slot and are ignored,
   since binding them cannot change φ.  [apply] returns the previous
   value so race analyses can ask "would φ still hold had that
   concurrent update not been applied?" — the consensus test behind the
   borderline bin. *)

module Compiled = Psn_predicates.Compiled

type transition = Rose | Fell | Same

type t = {
  prog : Compiled.t;
  env : Compiled.env;
  mutable holds : bool;
}

let create ?(init = []) predicate =
  let prog = Compiled.compile predicate in
  let env = Compiled.create_env prog in
  List.iter
    (fun (v, value) ->
      let s = Compiled.slot prog v in
      if s >= 0 then Compiled.set env s value)
    init;
  { prog; env; holds = Compiled.holds prog env }

let holds t = t.holds
let slot t v = Compiled.slot t.prog v

let step t =
  let now_holds = Compiled.holds t.prog t.env in
  let was = t.holds in
  t.holds <- now_holds;
  if now_holds = was then Same else if now_holds then Rose else Fell

let bind t slot value =
  Compiled.set t.env slot value;
  step t

let bind_int t slot x =
  Compiled.set_int t.env slot x;
  step t

let apply t (u : Observation.update) =
  let s = slot t (Observation.located u) in
  if s < 0 then (Same, None)
  else
    let prev = Compiled.get t.env s in
    (bind t s u.value, prev)

let set_opt t s = function
  | Some v -> Compiled.set t.env s v
  | None -> Compiled.clear t.env s

(* Evaluate φ with one variable temporarily overridden ([None] = unbound);
   the slot is restored even when φ raises. *)
let eval_with_override t ~var ~value =
  let s = slot t var in
  if s < 0 then Compiled.holds t.prog t.env
  else begin
    let saved = Compiled.get t.env s in
    set_opt t s value;
    Fun.protect
      ~finally:(fun () -> set_opt t s saved)
      (fun () -> Compiled.holds t.prog t.env)
  end
