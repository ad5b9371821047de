(* Naive twin of [Psn_detection.Ground_truth.intervals]: replays the
   updates in (sense time, src, seq) order over a polymorphic Hashtbl,
   re-evaluating φ with the [Expr] interpreter after every update.  The
   differential oracle for the compiled replay. *)

module Sim_time = Psn_sim.Sim_time
module Expr = Psn_predicates.Expr
module Observation = Psn_detection.Observation
module Ground_truth = Psn_detection.Ground_truth

let compare_updates (a : Observation.update) (b : Observation.update) =
  let c = Sim_time.compare a.sense_time b.sense_time in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.src b.src in
    if c <> 0 then c else Stdlib.compare a.seq b.seq

(* Evaluate φ treating unbound variables as "predicate not established". *)
let eval_safe predicate env =
  match Expr.eval_bool ~env predicate with
  | b -> b
  | exception Expr.Unbound_variable _ -> false

let intervals ?(init = []) ~updates ~predicate ~horizon () =
  let tbl : (Expr.var, Psn_world.Value.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (v, value) -> Hashtbl.replace tbl v value) init;
  let env v = Hashtbl.find_opt tbl v in
  let sorted = List.sort compare_updates updates in
  let acc = ref [] in
  let open_since = ref None in
  let holds = ref (eval_safe predicate env) in
  if !holds then open_since := Some Sim_time.zero;
  List.iter
    (fun (u : Observation.update) ->
      if Sim_time.( <= ) u.sense_time horizon then begin
        Hashtbl.replace tbl (Observation.located u) u.value;
        let now_holds = eval_safe predicate env in
        (match (!holds, now_holds) with
        | false, true -> open_since := Some u.sense_time
        | true, false ->
            (match !open_since with
            | Some t_start ->
                acc := { Ground_truth.t_start; t_end = u.sense_time } :: !acc
            | None -> ());
            open_since := None
        | _ -> ());
        holds := now_holds
      end)
    sorted;
  (match !open_since with
  | Some t_start -> acc := { Ground_truth.t_start; t_end = horizon } :: !acc
  | None -> ());
  List.rev !acc
