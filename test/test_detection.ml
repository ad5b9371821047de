(* Tests for psn_detection: the ground-truth oracle, the scoring metrics,
   the shared checker state, and all five detector families driven by
   deterministic scripted emissions. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Expr = Psn_predicates.Expr
module Value = Psn_world.Value
module D = Psn_detection
module Observation = D.Observation
module Occurrence = D.Occurrence
module Ground_truth = D.Ground_truth
module Metrics = D.Metrics
module Checker_state = D.Checker_state
module Detector = D.Detector

let ms = Sim_time.of_ms

let update ~src ~var ~value ~seq ~t =
  { Observation.src; var; value; seq; sense_time = ms t }

let conj_ab =
  Expr.(
    (var ~name:"a" ~loc:0 ==? bool true) &&& (var ~name:"b" ~loc:1 ==? bool true))

let init_ab =
  [
    ({ Expr.name = "a"; loc = 0 }, Value.Bool false);
    ({ Expr.name = "b"; loc = 1 }, Value.Bool false);
  ]

(* --- Ground truth --- *)

let test_ground_truth_basic () =
  let updates =
    [
      update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:10;
      update ~src:1 ~var:"b" ~value:(Value.Bool true) ~seq:0 ~t:20;
      update ~src:0 ~var:"a" ~value:(Value.Bool false) ~seq:1 ~t:30;
      update ~src:1 ~var:"b" ~value:(Value.Bool false) ~seq:1 ~t:40;
    ]
  in
  let ivs =
    Ground_truth.intervals ~init:init_ab ~updates ~predicate:conj_ab
      ~horizon:(ms 100) ()
  in
  match ivs with
  | [ iv ] ->
      Alcotest.(check bool) "start" true (Sim_time.equal iv.Ground_truth.t_start (ms 20));
      Alcotest.(check bool) "end" true (Sim_time.equal iv.Ground_truth.t_end (ms 30))
  | _ -> Alcotest.fail "expected one interval"

let test_ground_truth_open_at_horizon () =
  let updates =
    [
      update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:10;
      update ~src:1 ~var:"b" ~value:(Value.Bool true) ~seq:0 ~t:20;
    ]
  in
  let ivs =
    Ground_truth.intervals ~init:init_ab ~updates ~predicate:conj_ab
      ~horizon:(ms 50) ()
  in
  match ivs with
  | [ iv ] ->
      Alcotest.(check bool) "closes at horizon" true
        (Sim_time.equal iv.Ground_truth.t_end (ms 50))
  | _ -> Alcotest.fail "expected one interval"

let test_ground_truth_unbound_false () =
  (* No init: unbound variables make the predicate false, not an error. *)
  let updates = [ update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:10 ] in
  let ivs =
    Ground_truth.intervals ~updates ~predicate:conj_ab ~horizon:(ms 50) ()
  in
  Alcotest.(check int) "no intervals" 0 (List.length ivs)

let test_ground_truth_initially_true () =
  let init =
    [
      ({ Expr.name = "a"; loc = 0 }, Value.Bool true);
      ({ Expr.name = "b"; loc = 1 }, Value.Bool true);
    ]
  in
  let updates = [ update ~src:0 ~var:"a" ~value:(Value.Bool false) ~seq:0 ~t:25 ] in
  let ivs =
    Ground_truth.intervals ~init ~updates ~predicate:conj_ab ~horizon:(ms 50) ()
  in
  match ivs with
  | [ iv ] ->
      Alcotest.(check bool) "starts at zero" true
        (Sim_time.equal iv.Ground_truth.t_start Sim_time.zero);
      Alcotest.(check bool) "ends at 25" true
        (Sim_time.equal iv.Ground_truth.t_end (ms 25))
  | _ -> Alcotest.fail "expected one interval"

let test_ground_truth_multiple_occurrences () =
  let updates =
    List.concat_map
      (fun k ->
        let base = 100 * k in
        [
          update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:(2 * k) ~t:(base + 10);
          update ~src:0 ~var:"a" ~value:(Value.Bool false) ~seq:((2 * k) + 1)
            ~t:(base + 20);
        ])
      [ 0; 1; 2 ]
  in
  let init =
    [
      ({ Expr.name = "a"; loc = 0 }, Value.Bool false);
      ({ Expr.name = "b"; loc = 1 }, Value.Bool true);
    ]
  in
  let ivs =
    Ground_truth.intervals ~init ~updates ~predicate:conj_ab ~horizon:(ms 1000)
      ()
  in
  Alcotest.(check int) "three occurrences" 3 (List.length ivs);
  Alcotest.(check bool) "total time" true
    (Sim_time.equal (Ground_truth.total_true_time ivs) (ms 30))

let test_ground_truth_ignores_after_horizon () =
  let updates =
    [
      update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:10;
      update ~src:1 ~var:"b" ~value:(Value.Bool true) ~seq:0 ~t:200;
    ]
  in
  let ivs =
    Ground_truth.intervals ~init:init_ab ~updates ~predicate:conj_ab
      ~horizon:(ms 100) ()
  in
  Alcotest.(check int) "update beyond horizon ignored" 0 (List.length ivs)

(* --- Metrics --- *)

let occ ?(verdict = Occurrence.Positive) ~t () =
  {
    Occurrence.detect_time = ms (t + 5);
    trigger = update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t;
    verdict;
  }

let truth_iv a b = { Ground_truth.t_start = ms a; t_end = ms b }

let test_metrics_matching () =
  let truth = [ truth_iv 10 20; truth_iv 50 60 ] in
  let detections = [ occ ~t:12 (); occ ~t:55 (); occ ~t:90 () ] in
  let s = Metrics.score ~truth ~detections () in
  Alcotest.(check int) "tp" 2 s.Metrics.tp;
  Alcotest.(check int) "fp" 1 s.Metrics.fp;
  Alcotest.(check int) "fn" 0 s.Metrics.fn;
  Alcotest.(check (float 1e-9)) "precision" (2.0 /. 3.0) s.Metrics.precision;
  Alcotest.(check (float 1e-9)) "recall" 1.0 s.Metrics.recall

let test_metrics_duplicates () =
  let truth = [ truth_iv 10 20 ] in
  let detections = [ occ ~t:12 (); occ ~t:15 () ] in
  let s = Metrics.score ~truth ~detections () in
  Alcotest.(check int) "tp" 1 s.Metrics.tp;
  Alcotest.(check int) "dup not fp" 0 s.Metrics.fp;
  Alcotest.(check int) "duplicates" 1 s.Metrics.duplicates

let test_metrics_fn () =
  let truth = [ truth_iv 10 20; truth_iv 50 60 ] in
  let s = Metrics.score ~truth ~detections:[ occ ~t:12 () ] () in
  Alcotest.(check int) "fn" 1 s.Metrics.fn;
  Alcotest.(check (float 1e-9)) "recall" 0.5 s.Metrics.recall

let test_metrics_tolerance () =
  let truth = [ truth_iv 10 20 ] in
  let d = [ occ ~t:22 () ] in
  let strict = Metrics.score ~truth ~detections:d () in
  Alcotest.(check int) "miss without tolerance" 0 strict.Metrics.tp;
  let lax = Metrics.score ~tolerance:(ms 5) ~truth ~detections:d () in
  Alcotest.(check int) "hit with tolerance" 1 lax.Metrics.tp

let test_metrics_borderline_policies () =
  let truth = [ truth_iv 10 20 ] in
  let d = [ occ ~verdict:Occurrence.Borderline ~t:12 () ] in
  let pos = Metrics.score ~policy:Metrics.As_positive ~truth ~detections:d () in
  Alcotest.(check int) "as positive tp" 1 pos.Metrics.tp;
  let neg = Metrics.score ~policy:Metrics.As_negative ~truth ~detections:d () in
  Alcotest.(check int) "as negative fn" 1 neg.Metrics.fn;
  Alcotest.(check int) "borderline counted" 1 neg.Metrics.borderline;
  let drop = Metrics.score ~policy:Metrics.Drop ~truth ~detections:d () in
  Alcotest.(check int) "drop detections" 0 drop.Metrics.detections

(* Property: accounting identities hold for arbitrary truth/detection
   configurations. *)
let test_metrics_identities =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"metrics: accounting identities"
       QCheck.(pair (small_list (pair (int_bound 50) (int_bound 20)))
                 (small_list (int_bound 1500)))
       (fun (truth_spec, det_times) ->
         (* Disjoint, ordered truth intervals. *)
         let _, truth =
           List.fold_left
             (fun (t, acc) (gap, dur) ->
               let t0 = t + gap + 1 in
               let t1 = t0 + dur + 1 in
               (t1, { Ground_truth.t_start = ms t0; t_end = ms t1 } :: acc))
             (0, []) truth_spec
         in
         let truth = List.rev truth in
         let detections = List.map (fun t -> occ ~t ()) det_times in
         let s = Metrics.score ~truth ~detections () in
         s.Metrics.tp + s.Metrics.fn = s.Metrics.truth_count
         && s.Metrics.tp + s.Metrics.fp + s.Metrics.duplicates
            = s.Metrics.detections
         && s.Metrics.tp <= s.Metrics.truth_count
         && s.Metrics.precision >= 0.0 && s.Metrics.precision <= 1.0
         && s.Metrics.recall >= 0.0 && s.Metrics.recall <= 1.0))

let test_metrics_empty () =
  let s = Metrics.score ~truth:[] ~detections:[] () in
  Alcotest.(check (float 1e-9)) "precision 1 on empty" 1.0 s.Metrics.precision;
  Alcotest.(check (float 1e-9)) "recall 1 on empty" 1.0 s.Metrics.recall

(* --- Checker state --- *)

let test_checker_state_transitions () =
  let st = Checker_state.create ~init:init_ab conj_ab in
  Alcotest.(check bool) "initially false" false (Checker_state.holds st);
  let tr, prev =
    Checker_state.apply st (update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:1)
  in
  Alcotest.(check bool) "same" true (tr = Checker_state.Same);
  Alcotest.(check bool) "prev recorded" true (prev = Some (Value.Bool false));
  let tr, _ =
    Checker_state.apply st (update ~src:1 ~var:"b" ~value:(Value.Bool true) ~seq:0 ~t:2)
  in
  Alcotest.(check bool) "rose" true (tr = Checker_state.Rose);
  let tr, _ =
    Checker_state.apply st (update ~src:0 ~var:"a" ~value:(Value.Bool false) ~seq:1 ~t:3)
  in
  Alcotest.(check bool) "fell" true (tr = Checker_state.Fell)

let test_checker_state_override () =
  let st = Checker_state.create ~init:init_ab conj_ab in
  ignore (Checker_state.apply st (update ~src:0 ~var:"a" ~value:(Value.Bool true) ~seq:0 ~t:1));
  ignore (Checker_state.apply st (update ~src:1 ~var:"b" ~value:(Value.Bool true) ~seq:0 ~t:2));
  Alcotest.(check bool) "holds" true (Checker_state.holds st);
  Alcotest.(check bool) "override kills" false
    (Checker_state.eval_with_override st ~var:{ Expr.name = "a"; loc = 0 }
       ~value:(Some (Value.Bool false)));
  Alcotest.(check bool) "override unbound kills" false
    (Checker_state.eval_with_override st ~var:{ Expr.name = "a"; loc = 0 }
       ~value:None);
  (* Committed state untouched. *)
  Alcotest.(check bool) "still holds" true (Checker_state.holds st)

(* --- Compiled state vs the naive twins ---

   [Checker_state] and [Ground_truth.intervals] run on the compiled
   evaluator; [Psn_oracles] holds their naive Hashtbl/interpreter twins.
   Random scripts over three processes: x and y are int-valued, p
   bool-valued, z is never read by a generated predicate; sense times
   sit on a coarse 0..20 ms grid, so ties (ordered by src, then seq) are
   common, and some land past the horizon.  One value in 40 has the
   other type, so [Value.Type_error] must surface at the same step, with
   the same message, on both sides. *)

module Naive_checker_state = Psn_oracles.Naive_checker_state
module Naive_ground_truth = Psn_oracles.Naive_ground_truth

let gen_typed_value name =
  QCheck.Gen.(
    let int_v = map (fun i -> Value.Int i) (int_range 0 4)
    and bool_v = map (fun b -> Value.Bool b) bool in
    let typed, other = if name = "p" then (bool_v, int_v) else (int_v, bool_v) in
    frequency [ (39, typed); (1, other) ])

let gen_binding =
  QCheck.Gen.(
    int_range 0 2 >>= fun loc ->
    oneofl [ "x"; "y"; "p"; "z" ] >>= fun name ->
    gen_typed_value name >|= fun value -> ({ Expr.name; loc }, value))

(* Conjunctive (local atoms under AND), relational (Σ (x_l - y_l) vs a
   constant), or a cross-location mix under NOT/OR. *)
let gen_state_predicate =
  QCheck.Gen.(
    let var name = map (fun loc -> Expr.var ~name ~loc) (int_range 0 2) in
    let local_atom =
      int_range 0 2 >>= fun loc ->
      oneof
        [
          map2
            (fun op k -> Expr.Cmp (op, Expr.var ~name:"x" ~loc, Expr.int k))
            (oneofl [ Expr.Eq; Ne; Lt; Le; Gt; Ge ])
            (int_range 0 4);
          map (fun b -> Expr.(var ~name:"p" ~loc ==? bool b)) bool;
        ]
    in
    let conjunctive =
      int_range 1 4 >>= fun k ->
      list_repeat k local_atom >|= fun parts ->
      List.fold_left Expr.( &&& ) (List.hd parts) (List.tl parts)
    in
    let relational =
      map2
        (fun op k ->
          Expr.Cmp
            ( op,
              Expr.sum
                (List.map
                   (fun loc ->
                     Expr.(var ~name:"x" ~loc -? var ~name:"y" ~loc))
                   [ 0; 1; 2 ]),
              Expr.int k ))
        (oneofl [ Expr.Lt; Ge; Eq ])
        (int_range (-3) 3)
    in
    let mixed =
      map3 (fun a x y -> Expr.(not_ a ||| (x <? y))) local_atom (var "x")
        (var "y")
    in
    oneof [ conjunctive; relational; mixed ])

(* Each step: an update (src, name, value, sense ms) and an override
   probe (variable, optional value) for [eval_with_override]. *)
let gen_state_script =
  QCheck.Gen.(
    let step =
      int_range 0 2 >>= fun src ->
      oneofl [ "x"; "y"; "p"; "z" ] >>= fun var ->
      gen_typed_value var >>= fun value ->
      int_range 0 20 >>= fun t ->
      gen_binding >>= fun (ovar, ovalue) ->
      bool >|= fun unbind ->
      ((src, var, value, t), (ovar, if unbind then None else Some ovalue))
    in
    quad gen_state_predicate
      (list_size (int_range 0 12) gen_binding)
      (list_size (int_range 0 40) step)
      (int_range 0 22))

let updates_of_steps steps =
  let seqs = Array.make 3 0 in
  List.map
    (fun ((src, var, value, t), _) ->
      let seq = seqs.(src) in
      seqs.(src) <- seq + 1;
      update ~src ~var ~value ~seq ~t)
    steps

let arb_state_script =
  QCheck.make
    ~print:(fun (pred, init, steps, horizon) ->
      Printf.sprintf "%s\ninit [%s]\nupdates [%s]\nhorizon %d ms"
        (Expr.to_string pred)
        (String.concat "; "
           (List.map
              (fun ((v : Expr.var), value) ->
                Printf.sprintf "%s_%d=%s" v.name v.loc (Value.to_string value))
              init))
        (String.concat "; "
           (List.map (Fmt.str "%a" Observation.pp) (updates_of_steps steps)))
        horizon)
    gen_state_script

let attempt f =
  match f () with v -> Ok v | exception Value.Type_error m -> Error m

let prop_ground_truth_matches_naive (predicate, init, steps, horizon) =
  let updates = updates_of_steps steps and horizon = ms horizon in
  attempt (fun () ->
      Ground_truth.intervals ~init ~updates ~predicate ~horizon ())
  = attempt (fun () ->
        Naive_ground_truth.intervals ~init ~updates ~predicate ~horizon ())

let prop_checker_state_matches_naive (predicate, init, steps, _) =
  let reads = Expr.vars predicate in
  let rec go fast naive = function
    | [] -> true
    | (u, (var, value)) :: rest -> (
        attempt (fun () -> Checker_state.eval_with_override fast ~var ~value)
        = attempt (fun () ->
              Naive_checker_state.eval_with_override naive ~var ~value)
        &&
        match
          ( attempt (fun () -> Checker_state.apply fast u),
            attempt (fun () -> Naive_checker_state.apply naive u) )
        with
        | Ok (tr, prev), Ok (tr', prev') ->
            tr = tr'
            && Checker_state.holds fast = Naive_checker_state.holds naive
            && ((not (List.mem (Observation.located u) reads)) || prev = prev')
            && go fast naive rest
        | Error m, Error m' -> String.equal m m'
        | _ -> false)
  in
  match
    ( attempt (fun () -> Checker_state.create ~init predicate),
      attempt (fun () -> Naive_checker_state.create ~init predicate) )
  with
  | Ok fast, Ok naive ->
      Checker_state.holds fast = Naive_checker_state.holds naive
      && go fast naive
           (List.combine (updates_of_steps steps) (List.map snd steps))
  | Error m, Error m' -> String.equal m m'
  | _ -> false

let test_ground_truth_matches_naive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"intervals = naive replay"
       arb_state_script prop_ground_truth_matches_naive)

let test_checker_state_matches_naive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"apply/override/prev = naive twin"
       arb_state_script prop_checker_state_matches_naive)

(* --- Delta evaluation vs the naive twin ---

   [Checker_state] answers from a DAG of cached values while every slot
   holds a small Int, and from a full [Compiled] run otherwise.  These
   scripts cross that boundary both ways mid-stream: Σ chains over
   shared and repeated variables (with Int, Float and [Mul] terms),
   magnitudes on both sides of the 2⁵³ exactness bound, Float, Bool and
   String values, binds through [apply], [bind] and [bind_int], and
   overrides that unbind ([None]) or rebind a slot.  Every step must
   match the interpreter: transition, [holds], previous value, override
   answer, and [Type_error] message. *)

let delta_names = [ "x"; "y"; "p"; "z" ]

(* Around (2⁵³ − 1) / m for the term counts m a generated Σ can have,
   plus the extremes. *)
let gen_wide_int =
  QCheck.Gen.(
    int_range 1 8 >>= fun m ->
    int_range (-2) 2 >>= fun d ->
    bool >>= fun neg ->
    oneof
      [
        return ((((1 lsl 53) - 1) / m) + d);
        oneofl [ max_int; min_int; 1 lsl 53; (1 lsl 53) + 1; 1 lsl 62 ];
      ]
    >|= fun x -> if neg then -x else x)

let gen_delta_value name =
  QCheck.Gen.(
    let small = map (fun i -> Value.Int i) (int_range (-4) 4) in
    let wide = map (fun i -> Value.Int i) gen_wide_int in
    let odd =
      oneof
        [
          map (fun b -> Value.Bool b) bool;
          oneofl [ Value.Float 0.5; Value.Float 2.0; Value.String "s" ];
        ]
    in
    if name = "p" then
      frequency [ (30, map (fun b -> Value.Bool b) bool); (2, small); (1, odd) ]
    else frequency [ (30, small); (4, wide); (2, odd) ])

let gen_delta_predicate =
  QCheck.Gen.(
    let var name = map (fun loc -> Expr.var ~name ~loc) (int_range 0 2) in
    let term =
      frequency
        [
          (30, oneofl [ "x"; "y" ] >>= var);
          (6, map Expr.int (int_range (-3) 3));
          (1, map Expr.int gen_wide_int);
          (1, return (Expr.float 1.5));
          (1, map2 Expr.( *? ) (var "x") (map Expr.int (int_range 1 3)));
        ]
    in
    let sigma =
      int_range 1 6 >>= fun k ->
      list_repeat k (pair bool term) >>= fun terms ->
      bool >|= fun nest ->
      let op add = if add then Expr.( +? ) else Expr.( -? ) in
      match terms with
      | [] -> Expr.int 0
      | (_, t0) :: rest ->
          if nest then
            (* right-nested: t0 ± (t1 ± (t2 ...)) *)
            let rec go t = function
              | [] -> t
              | (add, t') :: rest -> op add t (go t' rest)
            in
            go t0 rest
          else List.fold_left (fun acc (add, t) -> op add acc t) t0 rest
    in
    let cmp = oneofl [ Expr.Eq; Ne; Lt; Le; Gt; Ge ] in
    let atom =
      frequency
        [
          (12, map3 (fun op s k -> Expr.Cmp (op, s, Expr.int k)) cmp sigma
                 (int_range (-4) 4));
          (4, map3 (fun op a b -> Expr.Cmp (op, a, b)) cmp sigma sigma);
          (4, map3 (fun op a b -> Expr.Cmp (op, a, b)) cmp (var "x") (var "y"));
          (2, map (fun v -> Expr.(v <? float 0.5)) (var "x"));
          (2, map Expr.bool bool);
          (1, map2 (fun v b -> Expr.(v ==? bool b)) (var "p") bool);
          (1, map (fun v -> Expr.Cmp (Expr.Eq, v, Expr.Const (Value.String "s")))
                (var "x"));
          (1, var "p");
        ]
    in
    let rec formula depth =
      if depth = 0 then atom
      else
        frequency
          [
            (3, atom);
            (2, map2 Expr.( &&& ) (formula (depth - 1)) (formula (depth - 1)));
            (2, map2 Expr.( ||| ) (formula (depth - 1)) (formula (depth - 1)));
            (1, map Expr.not_ (formula (depth - 1)));
          ]
    in
    int_range 0 3 >>= formula)

(* Half the scripts start with every variable bound to a small value, so
   the fast path is live from the first bind. *)
let gen_delta_init =
  QCheck.Gen.(
    let full =
      List.concat_map
        (fun loc ->
          [
            ({ Expr.name = "x"; loc }, Value.Int loc);
            ({ Expr.name = "y"; loc }, Value.Int (-loc));
            ({ Expr.name = "p"; loc }, Value.Bool (loc = 1));
          ])
        [ 0; 1; 2 ]
    in
    let binding =
      int_range 0 2 >>= fun loc ->
      oneofl delta_names >>= fun name ->
      gen_delta_value name >|= fun value -> ({ Expr.name; loc }, value)
    in
    bool >>= fun all ->
    list_size (int_range 0 8) binding >|= fun extra ->
    if all then full @ extra else extra)

(* A step: an update (src, name, value), how to bind it (0 apply,
   1 bind, 2 bind_int when Int), and an override probe. *)
let gen_delta_script =
  QCheck.Gen.(
    let step =
      int_range 0 2 >>= fun src ->
      oneofl delta_names >>= fun var ->
      gen_delta_value var >>= fun value ->
      int_range 0 2 >>= fun how ->
      int_range 0 2 >>= fun oloc ->
      oneofl delta_names >>= fun oname ->
      gen_delta_value oname >>= fun ovalue ->
      frequency [ (1, return true); (3, return false) ] >|= fun unbind ->
      ( (src, var, value, how),
        ({ Expr.name = oname; loc = oloc }, if unbind then None else Some ovalue) )
    in
    triple gen_delta_predicate gen_delta_init (list_size (int_range 0 40) step))

let arb_delta_script =
  QCheck.make
    ~print:(fun (pred, init, steps) ->
      let binding (v : Expr.var) value =
        Printf.sprintf "%s_%d=%s" v.name v.loc
          (match value with Some x -> Value.to_string x | None -> "unbound")
      in
      Printf.sprintf "%s\ninit [%s]\nsteps [%s]" (Expr.to_string pred)
        (String.concat "; "
           (List.map (fun (v, value) -> binding v (Some value)) init))
        (String.concat "; "
           (List.map
              (fun ((src, var, value, how), (ov, ovalue)) ->
                Printf.sprintf "%s via %d, override %s"
                  (binding { Expr.name = var; loc = src } (Some value))
                  how (binding ov ovalue))
              steps)))
    gen_delta_script

let delta_fast = ref 0
let delta_fallback = ref 0

let prop_delta_matches_naive (predicate, init, steps) =
  let reads = Expr.vars predicate in
  let seqs = Array.make 3 0 in
  let step fast naive ((src, var, value, how), (ovar, ovalue)) =
    let u =
      let seq = seqs.(src) in
      seqs.(src) <- seq + 1;
      update ~src ~var ~value ~seq ~t:0
    in
    let answer =
      attempt (fun () ->
          Checker_state.eval_with_override fast ~var:ovar ~value:ovalue)
      = attempt (fun () ->
            Naive_checker_state.eval_with_override naive ~var:ovar
              ~value:ovalue)
    in
    let s = Checker_state.slot fast (Observation.located u) in
    let before = Checker_state.fallbacks fast in
    let fast_r =
      attempt (fun () ->
          match (how, value) with
          | 1, _ when s >= 0 -> Checker_state.bind fast s value
          | 2, Value.Int x when s >= 0 -> Checker_state.bind_int fast s x
          | _ -> fst (Checker_state.apply fast u))
    in
    if s >= 0 then
      incr (if Checker_state.fallbacks fast = before then delta_fast
            else delta_fallback);
    answer
    &&
    (* a variable φ never reads is ignored, even in a mistyped state *)
    if s < 0 then fast_r = Ok Checker_state.Same
    else
      match (fast_r, attempt (fun () -> Naive_checker_state.apply naive u)) with
      | Ok tr, Ok (tr', _) ->
          tr = tr' && Checker_state.holds fast = Naive_checker_state.holds naive
      | Error m, Error m' -> String.equal m m'
      | _ -> false
  in
  (* [apply]'s previous value, checked on a second pair of states fed
     through [apply] only. *)
  let prevs_agree fast naive =
    List.for_all
      (fun ((src, var, value, _), _) ->
        let u = update ~src ~var ~value ~seq:0 ~t:0 in
        if not (List.mem (Observation.located u) reads) then
          Checker_state.apply fast u = (Checker_state.Same, None)
        else
          match
            ( attempt (fun () -> Checker_state.apply fast u),
              attempt (fun () -> Naive_checker_state.apply naive u) )
          with
          | Ok (tr, prev), Ok (tr', prev') -> tr = tr' && prev = prev'
          | Error m, Error m' -> String.equal m m'
          | _ -> false)
      steps
  in
  let pair () =
    ( attempt (fun () -> Checker_state.create ~init predicate),
      attempt (fun () -> Naive_checker_state.create ~init predicate) )
  in
  match (pair (), pair ()) with
  | (Ok fast, Ok naive), (Ok fast2, Ok naive2) ->
      Checker_state.holds fast = Naive_checker_state.holds naive
      && List.for_all (step fast naive) steps
      && prevs_agree fast2 naive2
  | (Error m, Error m'), _ -> String.equal m m'
  | _ -> false

(* The property, plus proof that its scripts really cross between the
   fast path and the fallback. *)
let test_delta_matches_naive =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000
         ~name:"delta binds/overrides = naive twin" arb_delta_script
         prop_delta_matches_naive)
  in
  ( name,
    speed,
    fun () ->
      delta_fast := 0;
      delta_fallback := 0;
      run ();
      Alcotest.(check bool) "some binds took the fast path" true (!delta_fast > 0);
      Alcotest.(check bool) "some binds fell back" true (!delta_fallback > 0) )

(* The exhibition hall's Σ(x_i − y_i) > capacity from its initial
   values: a random walk of door counts, every bind on the DAG. *)
let test_hall_replay_fast_path () =
  let cfg =
    { Psn_scenarios.Sharded.hall_default with doors = 200; capacity = 12 }
  in
  let predicate = Psn_scenarios.Sharded.hall_predicate cfg
  and init = Psn_scenarios.Sharded.hall_init cfg in
  let fast = Checker_state.create ~init predicate
  and naive = Naive_checker_state.create ~init predicate in
  let rng = Random.State.make [| 16 |] in
  let xs = Array.make cfg.doors 0 and ys = Array.make cfg.doors 0 in
  let rises = ref 0 and falls = ref 0 and inside = ref 0 in
  for i = 0 to 19_999 do
    let door = Random.State.int rng cfg.doors in
    (* entries and exits balance at [capacity] visitors inside *)
    let enter = Random.State.int rng 40 >= !inside + 8 in
    inside := !inside + if enter then 1 else -1;
    let var, counts = if enter then ("x", xs) else ("y", ys) in
    counts.(door) <- counts.(door) + 1;
    let u =
      update ~src:door ~var ~value:(Value.Int counts.(door)) ~seq:i ~t:i
    in
    let tr =
      if i mod 2 = 0 then fst (Checker_state.apply fast u)
      else
        Checker_state.bind_int fast
          (Checker_state.slot fast (Observation.located u))
          counts.(door)
    in
    let tr', _ = Naive_checker_state.apply naive u in
    if tr <> tr' then Alcotest.failf "update %d: transition differs" i;
    (match tr with
    | Checker_state.Rose -> incr rises
    | Checker_state.Fell -> incr falls
    | Checker_state.Same -> ())
  done;
  Alcotest.(check bool) "rose" true (!rises > 0);
  Alcotest.(check bool) "fell" true (!falls > 0);
  Alcotest.(check int) "every bind on the fast path" 0
    (Checker_state.fallbacks fast)

(* --- Detector harness helpers --- *)

(* Script: (time_ms, src, var, value) emissions; runs detector to quiescence
   plus horizon. *)
let run_script ~make ~script ~horizon_ms =
  let engine = Engine.create ~seed:99L () in
  let detector = make engine in
  List.iter
    (fun (t, src, var, value) ->
      ignore
        (Engine.schedule_at engine (ms t) (fun () ->
             Detector.emit detector ~src ~var value)))
    script;
  Engine.run ~until:(ms horizon_ms) engine;
  detector

let ab_script =
  [
    (100, 0, "a", Value.Bool true);
    (200, 1, "b", Value.Bool true);   (* rise *)
    (300, 0, "a", Value.Bool false);  (* fall *)
    (400, 1, "b", Value.Bool false);
    (500, 0, "a", Value.Bool true);
    (550, 1, "b", Value.Bool true);   (* rise *)
    (600, 1, "b", Value.Bool false);  (* fall *)
  ]

let small_delay =
  Psn_sim.Delay_model.bounded_uniform ~min:(ms 1) ~max:(ms 5)

let test_strobe_vector_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Strobe_vector_detector.create ~init:init_ab engine ~n:2
          ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  let occs = Detector.occurrences detector in
  Alcotest.(check int) "two rises" 2 (List.length occs);
  Alcotest.(check int) "updates logged" 7 (List.length (Detector.updates detector));
  (* Score against its own ground truth. *)
  let truth =
    Ground_truth.intervals ~init:init_ab ~updates:(Detector.updates detector)
      ~predicate:conj_ab ~horizon:(ms 1000) ()
  in
  let s = Metrics.score ~truth ~detections:occs () in
  Alcotest.(check int) "all tp" 2 s.Metrics.tp;
  Alcotest.(check int) "no fp" 0 s.Metrics.fp

let test_strobe_scalar_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Strobe_scalar_detector.create ~init:init_ab engine ~n:2
          ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  Alcotest.(check int) "two rises" 2 (List.length (Detector.occurrences detector))

let test_physical_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Physical_detector.create ~init:init_ab engine ~n:2 ~delay:small_delay
          ~hold:(ms 5) ~eps:Sim_time.zero ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  Alcotest.(check int) "two rises" 2 (List.length (Detector.occurrences detector))

let test_lamport_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Lamport_detector.create ~init:init_ab engine ~n:2 ~delay:small_delay
          ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  Alcotest.(check int) "two rises" 2 (List.length (Detector.occurrences detector));
  (* Unicast baseline: far fewer messages than a broadcast detector. *)
  Alcotest.(check bool) "unicast cheap" true (Detector.messages_sent detector <= 7)

let test_causal_vector_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Causal_vector_detector.create ~init:init_ab engine ~n:2
          ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  (* Cross-sensor updates are concurrent under causal vectors: rises land
     in the borderline bin but are still reported. *)
  Alcotest.(check int) "two rises" 2 (List.length (Detector.occurrences detector))

let test_hlc_detects () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Hlc_detector.create ~init:init_ab engine ~n:2 ~delay:small_delay
          ~hold:(ms 5) ~max_offset:(ms 20) ~max_drift_ppm:50.0
          ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  Alcotest.(check int) "two rises" 2 (List.length (Detector.occurrences detector))

let test_once_hangs () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Strobe_vector_detector.create ~init:init_ab ~once:true engine ~n:2
          ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  Alcotest.(check int) "hangs after first" 1
    (List.length (Detector.occurrences detector))

let test_on_occurrence_hook () =
  let engine = Engine.create ~seed:99L () in
  let detector =
    D.Strobe_vector_detector.create ~init:init_ab engine ~n:2 ~delay:small_delay
      ~hold:(ms 5) ~predicate:conj_ab
  in
  let hook_count = ref 0 in
  Detector.set_on_occurrence detector (fun _ -> incr hook_count);
  List.iter
    (fun (t, src, var, value) ->
      ignore
        (Engine.schedule_at engine (ms t) (fun () ->
             Detector.emit detector ~src ~var value)))
    ab_script;
  Engine.run ~until:(ms 1000) engine;
  Alcotest.(check int) "hook fired per occurrence" 2 !hook_count

let test_race_flagged_borderline () =
  (* Two concurrent rises within the hold window: the strobe vector
     checker must flag the rise as borderline. *)
  let script =
    [
      (100, 0, "a", Value.Bool true);
      (101, 1, "b", Value.Bool true);  (* concurrent with a's strobe *)
    ]
  in
  let detector =
    run_script
      ~make:(fun engine ->
        D.Strobe_vector_detector.create ~init:init_ab engine ~n:2
          ~delay:(Psn_sim.Delay_model.bounded_uniform ~min:(ms 20) ~max:(ms 30))
          ~hold:(ms 30) ~predicate:conj_ab)
      ~script ~horizon_ms:1000
  in
  match Detector.occurrences detector with
  | [ o ] -> Alcotest.(check bool) "borderline" true (Occurrence.is_borderline o)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 occurrence, got %d" (List.length l))

let test_unrelated_rise_not_borderline () =
  (* Rises far apart in time are not races. *)
  let detector =
    run_script
      ~make:(fun engine ->
        D.Strobe_vector_detector.create ~init:init_ab engine ~n:2
          ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  List.iter
    (fun o ->
      Alcotest.(check bool) "positive" false (Occurrence.is_borderline o))
    (Detector.occurrences detector)

let test_loss_drops_updates () =
  let detector =
    run_script
      ~make:(fun engine ->
        D.Strobe_vector_detector.create
          ~loss:(Psn_sim.Loss_model.bernoulli 1.0)
          ~init:init_ab engine ~n:2 ~delay:small_delay ~hold:(ms 5)
          ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1000
  in
  (* Everything from process 1 is lost; only process 0's local updates
     reach the checker, so the conjunction never rises. *)
  Alcotest.(check int) "no detection" 0 (List.length (Detector.occurrences detector));
  Alcotest.(check bool) "drops counted" true (Detector.messages_dropped detector > 0)

(* --- Arena stamps vs copy stamps --- *)

(* The stamp plane is a representation change only: with the same seed,
   the arena and copy-stamp detector variants must log the same updates,
   report the same occurrences (same anchors, same verdicts), and —
   since stamps never appear in trace events — emit byte-identical
   JSONL traces. *)

let run_script_traced ~make ~script ~horizon_ms =
  let sink = Psn_obs.Trace.create () in
  let engine = Engine.create ~seed:99L ~tracer:sink () in
  let detector = make engine in
  List.iter
    (fun (t, src, var, value) ->
      ignore
        (Engine.schedule_at engine (ms t) (fun () ->
             Detector.emit detector ~src ~var value)))
    script;
  Engine.run ~until:(ms horizon_ms) engine;
  (detector, Psn_obs.Export.jsonl_string sink)

let check_arena_vs_copy name ~script make =
  let arena_d, arena_tr =
    run_script_traced ~make:(make true) ~script ~horizon_ms:1000
  in
  let copy_d, copy_tr =
    run_script_traced ~make:(make false) ~script ~horizon_ms:1000
  in
  Alcotest.(check bool)
    (name ^ ": occurrences equal") true
    (Detector.occurrences arena_d = Detector.occurrences copy_d);
  Alcotest.(check bool)
    (name ^ ": updates equal") true
    (Detector.updates arena_d = Detector.updates copy_d);
  Alcotest.(check bool)
    (name ^ ": trace non-empty") true
    (String.length arena_tr > 0);
  Alcotest.(check string) (name ^ ": traces byte-identical") copy_tr arena_tr

let race_script =
  [ (100, 0, "a", Value.Bool true); (101, 1, "b", Value.Bool true) ]

let test_arena_matches_copy () =
  let strobe arena engine =
    D.Strobe_vector_detector.create ~arena ~init:init_ab engine ~n:2
      ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab
  in
  let causal arena engine =
    D.Causal_vector_detector.create ~arena ~init:init_ab engine ~n:2
      ~delay:small_delay ~hold:(ms 5) ~predicate:conj_ab
  in
  check_arena_vs_copy "strobe-vector" ~script:ab_script strobe;
  check_arena_vs_copy "causal-vector" ~script:ab_script causal;
  (* A racy script so the borderline path (concurrency verdicts over
     plane handles vs copied stamps) is exercised too. *)
  check_arena_vs_copy "strobe-vector race" ~script:race_script strobe;
  check_arena_vs_copy "causal-vector race" ~script:race_script causal

(* --- Definitely detector --- *)

let definitely = D.Interval_detector.create ~mode:D.Interval_detector.Definitely
let possibly = D.Interval_detector.create ~mode:D.Interval_detector.Possibly

let test_definitely_basic () =
  let detector =
    run_script
      ~make:(fun engine ->
        definitely ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 1000) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1100
  in
  Alcotest.(check int) "two definite overlaps" 2
    (List.length (Detector.occurrences detector))

let test_definitely_no_overlap () =
  (* a and b never hold together: no detection. *)
  let script =
    [
      (100, 0, "a", Value.Bool true);
      (200, 0, "a", Value.Bool false);
      (300, 1, "b", Value.Bool true);
      (400, 1, "b", Value.Bool false);
    ]
  in
  let detector =
    run_script
      ~make:(fun engine ->
        definitely ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 1000) ~predicate:conj_ab)
      ~script ~horizon_ms:1100
  in
  Alcotest.(check int) "no detection" 0 (List.length (Detector.occurrences detector))

let test_definitely_repeats_within_long_interval () =
  (* b stays true while a pulses three times: three occurrences. *)
  let script =
    [
      (50, 1, "b", Value.Bool true);
      (100, 0, "a", Value.Bool true);
      (200, 0, "a", Value.Bool false);
      (300, 0, "a", Value.Bool true);
      (400, 0, "a", Value.Bool false);
      (500, 0, "a", Value.Bool true);
      (600, 0, "a", Value.Bool false);
      (700, 1, "b", Value.Bool false);
    ]
  in
  let detector =
    run_script
      ~make:(fun engine ->
        definitely ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 1000) ~predicate:conj_ab)
      ~script ~horizon_ms:1100
  in
  Alcotest.(check int) "three occurrences" 3
    (List.length (Detector.occurrences detector))

let test_definitely_open_interval_closed_at_horizon () =
  (* Both conjuncts still true at the horizon: the final flush must close
     the intervals and detect. *)
  let script =
    [ (100, 0, "a", Value.Bool true); (200, 1, "b", Value.Bool true) ]
  in
  let detector =
    run_script
      ~make:(fun engine ->
        definitely ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 500) ~predicate:conj_ab)
      ~script ~horizon_ms:600
  in
  Alcotest.(check int) "detected at horizon" 1
    (List.length (Detector.occurrences detector))

let test_definitely_rejects_relational () =
  let engine = Engine.create () in
  let relational = Expr.(var ~name:"x" ~loc:0 +? var ~name:"y" ~loc:1 >? int 0) in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (definitely engine ~n:2 ~delay:small_delay
            ~horizon:(ms 100) ~predicate:relational);
       false
     with Invalid_argument _ -> true)

let test_definitely_once () =
  let detector =
    run_script
      ~make:(fun engine ->
        definitely ~once:true ~init:init_ab engine ~n:2
          ~delay:small_delay ~horizon:(ms 1000) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1100
  in
  Alcotest.(check int) "hangs" 1 (List.length (Detector.occurrences detector))

(* Cross-detector property: at delta=0, scalar and vector strobes produce
   the same detections on any script (paper 4.2.3 item 5). *)
let test_sync_equivalence_scripted () =
  let scripts =
    [
      ab_script;
      [
        (10, 0, "a", Value.Bool true); (10, 1, "b", Value.Bool true);
        (20, 0, "a", Value.Bool false); (30, 1, "b", Value.Bool false);
      ];
    ]
  in
  List.iter
    (fun script ->
      let run make = run_script ~make ~script ~horizon_ms:1000 in
      let sv =
        run (fun engine ->
            D.Strobe_vector_detector.create ~init:init_ab engine ~n:2
              ~delay:Psn_sim.Delay_model.synchronous ~hold:Sim_time.zero
              ~predicate:conj_ab)
      in
      let ss =
        run (fun engine ->
            D.Strobe_scalar_detector.create ~init:init_ab engine ~n:2
              ~delay:Psn_sim.Delay_model.synchronous ~hold:Sim_time.zero
              ~predicate:conj_ab)
      in
      let times d =
        List.map (fun o -> Occurrence.est_time o) (Detector.occurrences d)
      in
      Alcotest.(check int) "same count"
        (List.length (times sv)) (List.length (times ss));
      List.iter2
        (fun a b -> Alcotest.(check bool) "same anchors" true (Sim_time.equal a b))
        (times sv) (times ss))
    scripts

(* --- Possibly detector --- *)

let test_possibly_basic () =
  let detector =
    run_script
      ~make:(fun engine ->
        possibly ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 1000) ~predicate:conj_ab)
      ~script:ab_script ~horizon_ms:1100
  in
  Alcotest.(check int) "two possible overlaps" 2
    (List.length (Detector.occurrences detector))

let test_possibly_superset_of_definitely () =
  (* Nearly-touching pulses with large delay: concurrency galore. The
     possibly count must dominate the definitely count. *)
  let script =
    List.concat_map
      (fun k ->
        let base = 1000 * k in
        [
          (base + 100, 0, "a", Value.Bool true);
          (base + 140, 0, "a", Value.Bool false);
          (base + 130, 1, "b", Value.Bool true);
          (base + 170, 1, "b", Value.Bool false);
        ])
      [ 0; 1; 2; 3; 4 ]
  in
  let big_delay = Psn_sim.Delay_model.bounded_uniform ~min:(ms 50) ~max:(ms 200) in
  let run_mode make = run_script ~make ~script ~horizon_ms:6000 in
  let poss =
    run_mode (fun engine ->
        possibly ~init:init_ab engine ~n:2 ~delay:big_delay
          ~horizon:(ms 5800) ~predicate:conj_ab)
  in
  let defi =
    run_mode (fun engine ->
        definitely ~init:init_ab engine ~n:2 ~delay:big_delay
          ~horizon:(ms 5800) ~predicate:conj_ab)
  in
  let np = List.length (Detector.occurrences poss) in
  let nd = List.length (Detector.occurrences defi) in
  Alcotest.(check bool) "possibly >= definitely" true (np >= nd);
  Alcotest.(check bool) "possibly finds the racy overlaps" true (np >= 4)

let test_possibly_none_when_disjoint () =
  let script =
    [
      (100, 0, "a", Value.Bool true);
      (200, 0, "a", Value.Bool false);
      (5000, 1, "b", Value.Bool true);
      (5100, 1, "b", Value.Bool false);
    ]
  in
  let detector =
    run_script
      ~make:(fun engine ->
        possibly ~init:init_ab engine ~n:2 ~delay:small_delay
          ~horizon:(ms 6000) ~predicate:conj_ab)
      ~script ~horizon_ms:6100
  in
  (* With fast strobes, a's interval is causally closed long before b
     opens: not even possibly concurrent. *)
  Alcotest.(check int) "no detection" 0 (List.length (Detector.occurrences detector))

(* --- Timed relations --- *)

module Timed = Psn_predicates.Timed
module Timed_eval = D.Timed_eval

let pulse_updates spec_pulses =
  (* spec_pulses: (src, var, start_ms, end_ms) list *)
  List.concat_map
    (fun (src, var, t0, t1) ->
      [
        update ~src ~var ~value:(Value.Bool true) ~seq:(2 * t0) ~t:t0;
        update ~src ~var ~value:(Value.Bool false) ~seq:((2 * t0) + 1) ~t:t1;
      ])
    spec_pulses

let timed_spec relation =
  Timed.make ~name:"t"
    ~x:Expr.(var ~name:"a" ~loc:0 ==? bool true)
    ~y:Expr.(var ~name:"b" ~loc:1 ==? bool true)
    ~relation

let test_timed_before () =
  let updates = pulse_updates [ (0, "a", 100, 200); (1, "b", 300, 400) ] in
  Alcotest.(check bool) "before" true
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec Timed.Before));
  Alcotest.(check bool) "before by >= 50ms" true
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec (Timed.Before_by_at_least (ms 50))));
  Alcotest.(check bool) "not before by >= 150ms" false
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec (Timed.Before_by_at_least (ms 150))));
  Alcotest.(check bool) "within 150ms" true
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec (Timed.Before_within (ms 150))));
  Alcotest.(check bool) "not within 50ms" false
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec (Timed.Before_within (ms 50))))

let test_timed_overlaps_contains () =
  let updates = pulse_updates [ (0, "a", 100, 400); (1, "b", 200, 300) ] in
  Alcotest.(check bool) "overlaps" true
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec Timed.Overlaps));
  Alcotest.(check bool) "contains" true
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec Timed.Contains));
  Alcotest.(check bool) "not before" false
    (Timed_eval.holds ~init:init_ab ~updates ~horizon:(ms 1000)
       (timed_spec Timed.Before))

let test_timed_classify_y () =
  (* Two b-pulses: one justified by a preceding a, one not. *)
  let updates =
    pulse_updates
      [ (0, "a", 100, 200); (1, "b", 250, 300); (1, "b", 5000, 5100) ]
  in
  let matched, unmatched =
    Timed_eval.classify_y ~init:init_ab ~updates ~horizon:(ms 6000)
      (timed_spec (Timed.Before_within (ms 100)))
  in
  Alcotest.(check int) "one justified" 1 (List.length matched);
  Alcotest.(check int) "one alarm" 1 (List.length unmatched)

(* Property: Definitely is sound — every occurrence it reports corresponds
   to a real-time overlap of the conjunct pulses, whatever the delays. *)
let test_definitely_soundness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"definitely: precision 1 on random pulses"
       QCheck.(pair int (list (pair (int_bound 1) (pair (int_bound 400) (int_bound 200)))))
       (fun (seed, pulses) ->
         QCheck.assume (pulses <> []);
         (* Build non-overlapping-per-process pulse scripts. *)
         let next_free = [| 0; 0 |] in
         let script =
           List.concat_map
             (fun (src, (gap, dur)) ->
               let t0 = next_free.(src) + gap + 1 in
               let t1 = t0 + dur + 1 in
               next_free.(src) <- t1 + 1;
               [
                 (t0, src, (if src = 0 then "a" else "b"), Value.Bool true);
                 (t1, src, (if src = 0 then "a" else "b"), Value.Bool false);
               ])
             pulses
         in
         let horizon_ms = 5000 + List.length script * 700 in
         let engine = Engine.create ~seed:(Int64.of_int seed) () in
         let delay =
           Psn_sim.Delay_model.bounded_uniform ~min:(ms 1) ~max:(ms 300)
         in
         let detector =
           definitely ~init:init_ab engine ~n:2 ~delay
             ~horizon:(ms (horizon_ms - 100)) ~predicate:conj_ab
         in
         List.iter
           (fun (t, src, var, value) ->
             ignore
               (Engine.schedule_at engine (ms t) (fun () ->
                    Detector.emit detector ~src ~var value)))
           script;
         Engine.run ~until:(ms horizon_ms) engine;
         let truth =
           Ground_truth.intervals ~init:init_ab
             ~updates:(Detector.updates detector) ~predicate:conj_ab
             ~horizon:(ms (horizon_ms - 100)) ()
         in
         let s =
           Metrics.score ~truth ~detections:(Detector.occurrences detector) ()
         in
         (* Soundness: no false positives, no duplicate claims. *)
         s.Metrics.fp = 0))

let test_timed_pp () =
  let s = Fmt.str "%a" Timed.pp (timed_spec (Timed.Before_within (Sim_time.of_sec 5))) in
  Alcotest.(check bool) "mentions relation" true
    (String.length s > 0)

let () =
  Alcotest.run "psn_detection"
    [
      ( "ground_truth",
        [
          Alcotest.test_case "basic" `Quick test_ground_truth_basic;
          Alcotest.test_case "open at horizon" `Quick test_ground_truth_open_at_horizon;
          Alcotest.test_case "unbound false" `Quick test_ground_truth_unbound_false;
          Alcotest.test_case "initially true" `Quick test_ground_truth_initially_true;
          Alcotest.test_case "multiple" `Quick test_ground_truth_multiple_occurrences;
          Alcotest.test_case "horizon cutoff" `Quick
            test_ground_truth_ignores_after_horizon;
          test_ground_truth_matches_naive;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "matching" `Quick test_metrics_matching;
          Alcotest.test_case "duplicates" `Quick test_metrics_duplicates;
          Alcotest.test_case "fn" `Quick test_metrics_fn;
          Alcotest.test_case "tolerance" `Quick test_metrics_tolerance;
          Alcotest.test_case "borderline policies" `Quick
            test_metrics_borderline_policies;
          Alcotest.test_case "empty" `Quick test_metrics_empty;
          test_metrics_identities;
        ] );
      ( "checker_state",
        [
          Alcotest.test_case "transitions" `Quick test_checker_state_transitions;
          Alcotest.test_case "override" `Quick test_checker_state_override;
          test_checker_state_matches_naive;
          test_delta_matches_naive;
          Alcotest.test_case "hall replay: every bind on the DAG" `Quick
            test_hall_replay_fast_path;
        ] );
      ( "linearizing detectors",
        [
          Alcotest.test_case "strobe vector" `Quick test_strobe_vector_detects;
          Alcotest.test_case "strobe scalar" `Quick test_strobe_scalar_detects;
          Alcotest.test_case "physical" `Quick test_physical_detects;
          Alcotest.test_case "lamport unicast" `Quick test_lamport_detects;
          Alcotest.test_case "causal vector unicast" `Quick test_causal_vector_detects;
          Alcotest.test_case "hlc" `Quick test_hlc_detects;
          Alcotest.test_case "once hangs" `Quick test_once_hangs;
          Alcotest.test_case "occurrence hook" `Quick test_on_occurrence_hook;
          Alcotest.test_case "race borderline" `Quick test_race_flagged_borderline;
          Alcotest.test_case "no spurious borderline" `Quick
            test_unrelated_rise_not_borderline;
          Alcotest.test_case "total loss" `Quick test_loss_drops_updates;
          Alcotest.test_case "delta=0 equivalence" `Quick
            test_sync_equivalence_scripted;
          Alcotest.test_case "arena = copy (incl. traces)" `Quick
            test_arena_matches_copy;
        ] );
      ( "possibly",
        [
          Alcotest.test_case "basic" `Quick test_possibly_basic;
          Alcotest.test_case "superset of definitely" `Quick
            test_possibly_superset_of_definitely;
          Alcotest.test_case "disjoint" `Quick test_possibly_none_when_disjoint;
        ] );
      ( "timed",
        [
          Alcotest.test_case "before family" `Quick test_timed_before;
          Alcotest.test_case "overlaps/contains" `Quick test_timed_overlaps_contains;
          Alcotest.test_case "classify_y" `Quick test_timed_classify_y;
          Alcotest.test_case "pp" `Quick test_timed_pp;
        ] );
      ( "definitely",
        [
          Alcotest.test_case "basic" `Quick test_definitely_basic;
          Alcotest.test_case "no overlap" `Quick test_definitely_no_overlap;
          Alcotest.test_case "repeats in long interval" `Quick
            test_definitely_repeats_within_long_interval;
          Alcotest.test_case "open at horizon" `Quick
            test_definitely_open_interval_closed_at_horizon;
          Alcotest.test_case "rejects relational" `Quick
            test_definitely_rejects_relational;
          Alcotest.test_case "once hangs" `Quick test_definitely_once;
          test_definitely_soundness;
        ] );
    ]
