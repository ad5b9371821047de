(* The oracle: when did the predicate really hold?

   The paper's predicates are defined "on sensed attribute values during
   intervals" (§2.2), so ground truth is the timeline of the sensors'
   local variables at their true sense times — before any message delay,
   loss, or clock error distorts the checker's view.  Replaying the update
   stream in true-time order yields the maximal intervals where φ held;
   detectors are scored against these. *)

module Sim_time = Psn_sim.Sim_time

type interval = {
  t_start : Sim_time.t;
  t_end : Sim_time.t;  (* exclusive; equals horizon when still true there *)
}

let compare_updates (a : Observation.update) (b : Observation.update) =
  let c = Sim_time.compare a.sense_time b.sense_time in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.src b.src in
    if c <> 0 then c else Stdlib.compare a.seq b.seq

(* Replay through the checkers' own incremental state ([Checker_state]),
   compiled per call: experiments run on several domains, and a compiled
   program's scratch stacks serve one evaluation at a time. *)
let intervals ?init ~updates ~predicate ~horizon () =
  let st = Checker_state.create ?init predicate in
  let sorted = List.sort compare_updates updates in
  let acc = ref [] in
  let open_since = ref Sim_time.zero in
  List.iter
    (fun (u : Observation.update) ->
      if Sim_time.( <= ) u.sense_time horizon then begin
        let s = Checker_state.slot st (Observation.located u) in
        if s >= 0 then
          match Checker_state.bind st s u.value with
          | Checker_state.Rose -> open_since := u.sense_time
          | Checker_state.Fell ->
              acc := { t_start = !open_since; t_end = u.sense_time } :: !acc
          | Checker_state.Same -> ()
      end)
    sorted;
  if Checker_state.holds st then
    acc := { t_start = !open_since; t_end = horizon } :: !acc;
  List.rev !acc

let total_true_time ivs =
  List.fold_left
    (fun acc iv -> Sim_time.add acc (Sim_time.sub iv.t_end iv.t_start))
    Sim_time.zero ivs
