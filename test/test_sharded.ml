(* Differential suite for the sharded execution substrate.

   The correctness contract: a shard-aware workload produces identical
   observable results — report, occurrences, merged trace bytes, causal
   frontier — on the single-queue oracle and on the sharded engine at
   any shard count.  Every test here builds the same workload twice
   (same seed) and compares verbatim; [compare ... = 0] rather than
   [=] so NaN summary fields (zero-detection runs) compare equal. *)

module Engine = Psn_sim.Engine
module Exec = Psn_sim.Exec
module Sharded_engine = Psn_sim.Sharded_engine
module Sim_time = Psn_sim.Sim_time
module Delay_model = Psn_sim.Delay_model
module Loss_model = Psn_sim.Loss_model
module Rng = Psn_util.Rng
module Parallel = Psn_util.Parallel
module Trace = Psn_obs.Trace
module Export = Psn_obs.Export
module Metrics = Psn_obs.Metrics
module Expr = Psn_predicates.Expr
module Value = Psn_world.Value
module Sharded_detector = Psn_detection.Sharded_detector
module Sharded = Psn_scenarios.Sharded

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let ms = Sim_time.of_ms
let shard_counts = [ 1; 2; 4 ]

let delay_small =
  Delay_model.bounded_uniform ~min:(ms 5) ~max:(ms 60)

(* Run one workload on every substrate: the single oracle and sharded
   K in {1,2,4}.  [build] receives the substrate and per-group sinks
   and returns whatever observable the caller compares. *)
let on_substrates ~seed ~groups ~lookahead build =
  let run exec =
    let sinks = Array.init groups (fun _ -> Trace.create ()) in
    let obs = build exec sinks in
    (obs, Export.merged_jsonl (Array.to_list sinks))
  in
  let oracle = run (Exec.single ~seed ()) in
  let sharded =
    List.map
      (fun k -> (k, run (Exec.sharded ~seed ~shards:k ~lookahead ())))
      shard_counts
  in
  (oracle, sharded)

let substrate_invariant ~seed ~groups ~lookahead build =
  let (obs0, trace0), sharded = on_substrates ~seed ~groups ~lookahead build in
  List.for_all
    (fun (k, (obs, trace)) ->
      let ok = compare obs0 obs = 0 && String.equal trace0 trace in
      if not ok then
        QCheck.Test.fail_reportf
          "substrate divergence at K=%d: report %s, trace %s (lengths %d vs %d)"
          k
          (if compare obs0 obs = 0 then "equal" else "DIFFERS")
          (if String.equal trace0 trace then "equal" else "DIFFERS")
          (String.length trace0) (String.length trace);
      ok)
    sharded

(* {2 Scenario differentials: hall / banking / hospital} *)

let small_detect =
  {
    Sharded.default_detect with
    groups = 4;
    flush_period = ms 100;
    horizon = Sim_time.of_sec 120;
    delay = delay_small;
  }

let test_hall_differential =
  qtest ~count:6 "hall: report + merged trace identical across substrates"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        { Sharded.hall_default with
          doors = 16; visitors = 24; capacity = 6; detect = small_detect }
      in
      substrate_invariant ~seed:(Int64.of_int seed) ~groups:4
        ~lookahead:(Delay_model.min_delay delay_small)
        (fun exec sinks -> Psn.Report.core (Sharded.hall ~cfg ~sinks exec)))

let test_banking_differential =
  qtest ~count:6 "banking: report + merged trace identical across substrates"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        { Sharded.banking_default with
          tellers = 10; quorum = 3; detect = small_detect }
      in
      substrate_invariant ~seed:(Int64.of_int seed) ~groups:4
        ~lookahead:(Delay_model.min_delay delay_small)
        (fun exec sinks -> Psn.Report.core (Sharded.banking ~cfg ~sinks exec)))

let test_hospital_differential =
  qtest ~count:6 "hospital: report + merged trace identical across substrates"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        { Sharded.wards = 12; sample_period = 8.0; threshold = 102;
          detect = small_detect }
      in
      substrate_invariant ~seed:(Int64.of_int seed) ~groups:4
        ~lookahead:(Delay_model.min_delay delay_small)
        (fun exec sinks -> Psn.Report.core (Sharded.hospital ~cfg ~sinks exec)))

let test_calm_differential =
  qtest ~count:6 "calm (partitioned checker): report + merged trace identical"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        { Sharded.calm_default with monitors = 10; detect = small_detect }
      in
      substrate_invariant ~seed:(Int64.of_int seed) ~groups:4
        ~lookahead:(Delay_model.min_delay delay_small)
        (fun exec sinks -> Psn.Report.core (Sharded.calm ~cfg ~sinks exec)))

(* {2 Checker backends}

   The three predicate-evaluation backends must agree on everything the
   wire can see.  [Interp] is the PR 7 checker verbatim; [Compiled] and
   [Partitioned] replay it.  Raw-channel protocol events (update
   mirrors, verdict edges) add engine events and an edge counter, so
   cross-backend comparison takes the report minus [sim_events] and
   [metrics]; merged trace bytes are compared verbatim — the raw
   channel must never trace. *)

let report_core (r : Psn.Report.t) =
  ( r.summary, r.truth, r.occurrences, r.updates, r.messages, r.words,
    r.dropped )

let calm_backends seed =
  let with_checker checker exec =
    let sinks = Array.init 4 (fun _ -> Trace.create ()) in
    let cfg =
      { Sharded.calm_default with
        monitors = 10;
        detect = { small_detect with checker } }
    in
    let r = Sharded.calm ~cfg ~sinks exec in
    (report_core r, Export.merged_jsonl (Array.to_list sinks))
  in
  let substrates =
    (fun () -> Exec.single ~seed ())
    :: List.map
         (fun k () ->
           Exec.sharded ~seed ~shards:k
             ~lookahead:(Delay_model.min_delay delay_small) ())
         shard_counts
  in
  List.for_all
    (fun mk ->
      let core0, trace0 = with_checker Sharded_detector.Interp (mk ()) in
      List.for_all
        (fun (name, checker) ->
          let core, trace = with_checker checker (mk ()) in
          let ok = compare core0 core = 0 && String.equal trace0 trace in
          if not ok then
            QCheck.Test.fail_reportf
              "calm backend %s diverges from Interp: core %s, trace %s" name
              (if compare core0 core = 0 then "equal" else "DIFFERS")
              (if String.equal trace0 trace then "equal" else "DIFFERS");
          ok)
        [ ("Compiled", Sharded_detector.Compiled);
          ("Partitioned", Sharded_detector.Partitioned);
          ("Auto", Sharded_detector.Auto) ])
    substrates

let test_calm_backends =
  qtest ~count:4 "calm: Interp/Compiled/Partitioned byte-identical observables"
    QCheck.(int_range 0 10_000)
    (fun seed -> calm_backends (Int64.of_int seed))

let relational_backends seed =
  (* Relational predicates have no partitioned decomposition, so Auto
     falls back to the compiled whole-predicate path; reports (including
     sim_events and metrics — no protocol events exist) and traces must
     equal Interp's exactly. *)
  let with_checker checker =
    let exec =
      Exec.sharded ~seed ~shards:2
        ~lookahead:(Delay_model.min_delay delay_small) ()
    in
    let sinks = Array.init 4 (fun _ -> Trace.create ()) in
    let cfg =
      { Sharded.banking_default with
        tellers = 10;
        quorum = 3;
        detect = { small_detect with checker } }
    in
    let r = Sharded.banking ~cfg ~sinks exec in
    (r, Export.merged_jsonl (Array.to_list sinks))
  in
  let r0, trace0 = with_checker Sharded_detector.Interp in
  List.for_all
    (fun checker ->
      let r, trace = with_checker checker in
      compare r0 r = 0 && String.equal trace0 trace)
    [ Sharded_detector.Compiled; Sharded_detector.Auto ]

let test_relational_backends =
  qtest ~count:6 "banking: Compiled/Auto report equals Interp verbatim"
    QCheck.(int_range 0 10_000)
    (fun seed -> relational_backends (Int64.of_int seed))

let test_backend_resolution () =
  let cfg =
    {
      Sharded_detector.n = 4;
      groups = 2;
      group_of = (fun pid -> pid / 2);
      eps = ms 10;
      hold = ms 400;
      flush_period = ms 100;
      causal_stamps = false;
    }
  in
  let conjunctive =
    Expr.(
      (var ~name:"v" ~loc:0 <=? int 5)
      &&& (var ~name:"v" ~loc:1 <=? int 5)
      &&& (var ~name:"v" ~loc:3 <=? int 5))
  in
  let relational =
    Expr.(sum (List.init 4 (fun i -> var ~name:"v" ~loc:i)) >? int 10)
  in
  let kind ?checker ?(cfg = cfg) predicate =
    Sharded_detector.checker_kind
      (Sharded_detector.create ?checker (Exec.single ()) ~cfg
         ~delay:delay_small ~predicate ())
  in
  Alcotest.(check bool) "auto picks partitioned for conjuncts" true
    (kind conjunctive = Sharded_detector.Partitioned);
  Alcotest.(check bool) "auto falls back to compiled for relational" true
    (kind relational = Sharded_detector.Compiled);
  Alcotest.(check bool) "interp can be forced" true
    (kind ~checker:Sharded_detector.Interp conjunctive = Sharded_detector.Interp);
  (* Forcing Partitioned on a relational predicate must raise. *)
  (match kind ~checker:Sharded_detector.Partitioned relational with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Partitioned on relational must raise");
  (* A hold too small for the edge protocol disqualifies partitioning
     (the bound is configuration-only, so every substrate agrees). *)
  let tight = { cfg with hold = Delay_model.min_delay delay_small } in
  Alcotest.(check bool) "tight hold falls back to compiled" true
    (kind ~cfg:tight conjunctive = Sharded_detector.Compiled)

(* {2 Random scripts with churn and loss}

   Each process gets an arrival and a departure time (churn) and emits
   a value walk in between; messages cross a lossy link.  The script is
   derived purely from the seed, so both substrates construct the same
   one; causal stamp planes are on, so the checker's merged frontier is
   compared too. *)

let script_observables ~seed ~n ~groups ~loss_p exec sinks =
  let horizon = Sim_time.of_sec 90 in
  let cfg =
    {
      Sharded_detector.n;
      groups;
      group_of = (fun pid -> pid * groups / n);
      eps = ms 10;
      hold = ms 400;
      flush_period = ms 100;
      causal_stamps = true;
    }
  in
  let predicate =
    Expr.(sum (List.init n (fun i -> var ~name:"v" ~loc:i)) >? int (n * 55))
  in
  let det =
    Sharded_detector.create ~loss:(Loss_model.bernoulli loss_p) ~sinks exec
      ~cfg ~delay:delay_small ~predicate ()
  in
  let h = Sim_time.to_sec_float horizon in
  for pid = 0 to n - 1 do
    let rng =
      Rng.create
        ~seed:(Int64.add seed (Int64.mul (Int64.of_int (pid + 7)) 0x2545F4914F6CDD1DL))
        ()
    in
    let arrival = Rng.float rng (h /. 3.0) in
    let departure = h -. Rng.float rng (h /. 3.0) in
    let engine = Exec.engine exec ~group:(cfg.group_of pid) in
    let v = ref 50 in
    let rec emits t =
      let t' = t +. Rng.exponential rng ~mean:2.5 in
      if t' < departure then begin
        Engine.schedule_at_unit engine (Sim_time.of_sec_float t') (fun () ->
            v := Stdlib.max 0 (Stdlib.min 100 (!v + Rng.int rng 21 - 10));
            Sharded_detector.emit det ~src:pid ~var:"v" ~value:!v);
        emits t'
      end
    in
    emits arrival
  done;
  Exec.run exec ~until:horizon;
  ( Sharded_detector.updates det,
    Sharded_detector.occurrences det,
    Sharded_detector.frontier det,
    Exec.events_processed exec,
    Exec.merged_metrics exec )

let test_script_differential =
  qtest ~count:8 "random scripts (churn + loss): observables substrate-invariant"
    QCheck.(triple (int_range 0 10_000) (int_range 6 18) (int_range 0 30))
    (fun (seed, n, loss_pct) ->
      let groups = 1 + (n / 4) in
      substrate_invariant ~seed:(Int64.of_int seed) ~groups
        ~lookahead:(Delay_model.min_delay delay_small)
        (script_observables ~seed:(Int64.of_int seed) ~n ~groups
           ~loss_p:(float_of_int loss_pct /. 100.0)))

(* {2 Lookahead: Delay_model.min_delay} *)

let models_with_names =
  [
    ("synchronous", Delay_model.synchronous);
    ("bounded_uniform", Delay_model.bounded_uniform ~min:(ms 3) ~max:(ms 40));
    ("bounded_exponential",
     Delay_model.bounded_exponential ~mean:(ms 10) ~cap:(ms 200));
    ("unbounded_exponential", Delay_model.unbounded_exponential ~mean:(ms 10));
    ("unbounded_pareto",
     Delay_model.unbounded_pareto ~scale:(ms 2) ~shape:1.5);
  ]

let test_min_delay_bound =
  qtest ~count:40 "min_delay: every sampled delay respects the bound"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      List.for_all
        (fun (name, m) ->
          let lo = Delay_model.min_delay m in
          let ok = ref true in
          for _ = 1 to 500 do
            if Sim_time.( < ) (Delay_model.sample m rng) lo then ok := false
          done;
          if not !ok then
            QCheck.Test.fail_reportf "%s sampled below its min_delay" name;
          !ok)
        models_with_names)

let test_zero_lookahead_rejected () =
  List.iter
    (fun bad ->
      match Exec.sharded ~shards:2 ~lookahead:bad () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "zero/negative lookahead must be rejected")
    [ Sim_time.zero ];
  (* The message should steer users toward min_delay. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (match Exec.sharded ~shards:2 ~lookahead:Sim_time.zero () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "mentions lookahead" true (contains msg "lookahead")
  | _ -> Alcotest.fail "expected Invalid_argument")

(* {2 Engine-level window mechanics} *)

let test_window_rounds () =
  (* Two shards exchanging pings: rounds advance, clocks align at the
     horizon, and events land exactly where the oracle puts them. *)
  let lookahead = ms 10 in
  let t = Sharded_engine.create ~shards:2 ~lookahead () in
  let log = ref [] in
  for s = 0 to 1 do
    Sharded_engine.set_handler t ~shard:s
      (fun ~dst ~w0 ~w1:_ ~w2:_ ~w3:_ ~w4:_ ~w5:_ ~w6:_ ->
        log := (dst, w0) :: !log)
  done;
  (* Cross-shard ping every 25 ms, both directions. *)
  for i = 0 to 9 do
    let at = Sim_time.add (ms 25) (Sim_time.scale (ms 25) (float_of_int i)) in
    Sharded_engine.post t ~src_shard:0 ~dst_shard:1 ~at ~dst:1 ~w0:i ~w1:0
      ~w2:0 ~w3:0 ~w4:0 ~w5:0 ~w6:0;
    Sharded_engine.post t ~src_shard:1 ~dst_shard:0 ~at ~dst:0 ~w0:(100 + i)
      ~w1:0 ~w2:0 ~w3:0 ~w4:0 ~w5:0 ~w6:0
  done;
  Sharded_engine.run t ~until:(Sim_time.of_sec 1);
  Alcotest.(check int) "all pings delivered" 20 (List.length !log);
  Alcotest.(check bool) "windows advanced" true (Sharded_engine.windows t > 0);
  Alcotest.(check int) "clock at horizon" (Sim_time.to_ns (Sim_time.of_sec 1))
    (Sim_time.to_ns (Sharded_engine.now t))

let test_psn_domains_env () =
  let prev = try Some (Sys.getenv "PSN_DOMAINS") with Not_found -> None in
  let restore () =
    match prev with
    | Some v -> Unix.putenv "PSN_DOMAINS" v
    | None -> Unix.putenv "PSN_DOMAINS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "PSN_DOMAINS" "3";
      Alcotest.(check int) "PSN_DOMAINS pins default_domains" 3
        (Parallel.default_domains ());
      Unix.putenv "PSN_DOMAINS" "not-a-number";
      Alcotest.(check bool) "garbage ignored" true
        (Parallel.default_domains () >= 1))

(* {2 Metrics merge} *)

let test_merge_snapshots () =
  let r1 = Metrics.create () and r2 = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter r1 "c.shared");
  Metrics.incr ~by:4 (Metrics.counter r2 "c.shared");
  Metrics.incr ~by:7 (Metrics.counter r2 "c.only2");
  let h1 = Metrics.histogram r1 ~lo:0.0 ~hi:10.0 ~bins:5 "h" in
  let h2 = Metrics.histogram r2 ~lo:0.0 ~hi:10.0 ~bins:5 "h" in
  Metrics.observe h1 1.0;
  Metrics.observe h2 1.0;
  Metrics.observe h2 99.0;
  let merged = Metrics.merge_snapshots [ Metrics.snapshot r1; Metrics.snapshot r2 ] in
  Alcotest.(check int) "counters sum" 7 (Metrics.get_counter merged "c.shared");
  Alcotest.(check int) "singleton passes through" 7
    (Metrics.get_counter merged "c.only2");
  (match Metrics.find merged "h" with
  | Some (Metrics.Histogram { counts; overflow; _ }) ->
      Alcotest.(check int) "bins sum" 2 (Array.fold_left ( + ) 0 counts);
      Alcotest.(check int) "overflow sums" 1 overflow
  | _ -> Alcotest.fail "histogram missing from merge");
  (* Kind mismatch must raise, not silently coerce. *)
  let r3 = Metrics.create () in
  Metrics.set (Metrics.gauge r3 "c.shared") 1.0;
  match Metrics.merge_snapshots [ Metrics.snapshot r1; Metrics.snapshot r3 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise"

(* {2 Streaming frontier detector}

   The online Possibly/Definitely path: substrate invariance of the
   whole observable result (verdicts, edges, occupancy evidence, merged
   trace bytes), the streaming-vs-packed oracle on the exact stamps the
   walk consumed, online-tap == post-hoc analysis bytes, and
   construction-arena reuse. *)

module Streaming_detector = Psn_detection.Streaming_detector
module Arena = Psn_detection.Uplink.Arena
module Lattice = Psn_lattice.Lattice
module Modal = Psn_lattice.Modal
module Streaming = Psn_lattice.Streaming
module Analyze = Psn_obs.Analyze

let stream_cfg =
  {
    Sharded.stream_default with
    s_detect = { Sharded.stream_default.s_detect with delay = delay_small };
  }

let stream_lookahead = Delay_model.min_delay delay_small

let test_stream_differential =
  qtest ~count:6 "stream: verdicts + edges + merged trace identical"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      substrate_invariant ~seed:(Int64.of_int seed) ~groups:2
        ~lookahead:stream_lookahead (fun exec sinks ->
          let r, _det = Sharded.stream ~cfg:stream_cfg ~sinks exec in
          r))

(* The non-negotiable oracle: replay the exact stamp prefix the walk
   consumed (via the [on_observe] tap) through the packed post-hoc
   engines and compare verdicts and committed-cut counts verbatim.  Even
   a lossless run may leave updates in flight at the horizon, so the
   accounting is exact (fed + unfed = emitted) and the oracle sees only
   each source's fed prefix. *)
let test_stream_matches_packed =
  qtest ~count:6 "stream = packed post-hoc on the consumed prefix"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let n = stream_cfg.Sharded.s_monitors in
      let captured = Array.make n [] in
      let exec = Exec.single ~seed:(Int64.of_int seed) () in
      let r, det =
        Sharded.stream ~cfg:stream_cfg
          ~on_observe:(fun ~pid ~stamp ->
            captured.(pid) <- Array.copy stamp :: captured.(pid))
          exec
      in
      let stamps =
        Array.map (fun l -> Array.of_list (List.rev l)) captured
      in
      let emitted =
        Array.init n (fun i ->
            Streaming_detector.updates det
            |> List.filter (fun (u : Psn_detection.Observation.update) ->
                   u.src = i)
            |> List.sort (fun (a : Psn_detection.Observation.update) b ->
                   Stdlib.compare a.seq b.seq)
            |> List.map (fun (u : Psn_detection.Observation.update) ->
                   (u.var, u.value))
            |> Array.of_list)
      in
      let fed = Array.fold_left (fun acc evs -> acc + Array.length evs) 0 stamps in
      if fed + r.Sharded.sr_unfed <> r.Sharded.sr_updates then
        QCheck.Test.fail_reportf "fed %d + unfed %d <> emitted %d" fed
          r.Sharded.sr_unfed r.Sharded.sr_updates;
      let writes =
        Array.mapi
          (fun i evs ->
            if Array.length evs > Array.length emitted.(i) then
              QCheck.Test.fail_reportf "pid %d fed %d of %d updates" i
                (Array.length evs)
                (Array.length emitted.(i));
            Array.sub emitted.(i) 0 (Array.length evs))
          stamps
      in
      let holds =
        Modal.holds_of_expr ~init:[] ~updates:writes
          (Sharded.stream_predicate stream_cfg)
      in
      let count_ok =
        match (r.Sharded.sr_committed, Lattice.count_consistent stamps) with
        | Lattice.Exact a, Lattice.Exact b -> a = b
        | _ -> false
      in
      let ok =
        count_ok
        && r.Sharded.sr_possibly = Modal.possibly stamps ~holds
        && r.Sharded.sr_definitely = Modal.definitely stamps ~holds
      in
      if not ok then
        QCheck.Test.fail_reportf
          "streaming diverged from packed: committed %s, possibly %s/%s"
          (if count_ok then "equal" else "DIFFERS")
          (match r.Sharded.sr_possibly with
          | Some true -> "T" | Some false -> "F" | None -> "?")
          (match Modal.possibly stamps ~holds with
          | Some true -> "T" | Some false -> "F" | None -> "?");
      ok)

(* A lossless run can still strand an update: at seed 9400, pid 1's last
   update is sensed 52 ms before the horizon and the delay reaches
   60 ms, so it is still in flight when the run ends. *)
let test_stream_unfed_at_horizon () =
  let exec = Exec.single ~seed:9400L () in
  let r, det = Sharded.stream ~cfg:stream_cfg exec in
  Alcotest.(check int) "one update never fed" 1 r.Sharded.sr_unfed;
  Alcotest.(check int) "accessor agrees" 1 (Streaming_detector.unfed det);
  Alcotest.(check int) "fed + unfed = emitted" r.Sharded.sr_updates
    (r.Sharded.sr_observed + r.Sharded.sr_unfed);
  Alcotest.(check int) "nothing dropped" 0 r.Sharded.sr_dropped

(* Online analysis (sink tap) must be byte-identical to post-hoc
   analysis of the retained trace — now including the streaming-lattice
   occupancy section fed by [Lattice_commit] records. *)
let test_stream_tap_equals_retained () =
  let seed = 11L in
  let cfg =
    {
      stream_cfg with
      Sharded.s_detect = { stream_cfg.Sharded.s_detect with groups = 1 };
    }
  in
  let posthoc =
    let sinks = [| Trace.create () |] in
    let exec = Exec.single ~seed () in
    let _r = Sharded.stream ~cfg ~sinks exec in
    let az = Analyze.create () in
    Analyze.feed_sink az sinks.(0);
    az
  in
  let online =
    let sink = Trace.create ~retain:false () in
    let az = Analyze.create () in
    Trace.set_tap sink (Some (Analyze.feed az));
    let exec = Exec.single ~seed () in
    let _r = Sharded.stream ~cfg ~sinks:[| sink |] exec in
    Alcotest.(check int) "online sink retained nothing" 0 (Trace.length sink);
    az
  in
  Alcotest.(check bool) "lattice commits observed" true
    (Analyze.lattice_commits posthoc > 0);
  Alcotest.(check bool) "peak occupancy observed" true
    (Analyze.peak_live_cuts posthoc > 0);
  Alcotest.(check string) "render byte-identical" (Analyze.render posthoc)
    (Analyze.render online);
  Alcotest.(check string) "json byte-identical" (Analyze.to_json posthoc)
    (Analyze.to_json online)

(* Arena-backed construction must change nothing observable, and the
   second same-key build must reuse the cached clock array. *)
let test_stream_arena_reuse () =
  let seed = 7L in
  let run ?arena () =
    let exec = Exec.single ~seed () in
    let r, _det = Sharded.stream ~cfg:stream_cfg ?arena exec in
    r
  in
  let fresh = run () in
  let arena = Arena.create () in
  let first = run ~arena () in
  let second = run ~arena () in
  Alcotest.(check bool) "arena run = fresh run" true (compare fresh first = 0);
  Alcotest.(check bool) "arena reuse run = fresh run" true
    (compare fresh second = 0);
  Alcotest.(check int) "clock array built once" 1 (Arena.builds arena)

(* {2 Uplink contract}

   The sensor -> checker leg both Exec checkers share: at most four
   variable names per source (the name index rides in the seq lane),
   range-checked sources, and a round trip that gives every update back
   with its name and sequence number.  One source cycles through four
   names, one update a second; the written value keeps
   a + b + c + d at 1 when [seq mod 3 = 0] and at 0 otherwise, so the
   rises fall on seqs 3, 6, 9, 12, 15 — every name at least once. *)

let uplink_names = [| "a"; "b"; "c"; "d" |]
let uplink_updates = 16

let uplink_predicate =
  Expr.(
    sum (Array.to_list (Array.map (fun name -> var ~name ~loc:0) uplink_names))
    >? int 0)

(* Schedules the cycle on [exec] through [emit]; returns the expected
   (var, seq, value) list. *)
let uplink_schedule exec emit =
  let vals = Array.make 4 0 in
  List.init uplink_updates (fun seq ->
      let i = seq mod 4 in
      let others = Array.fold_left ( + ) 0 vals - vals.(i) in
      vals.(i) <- (if seq mod 3 = 0 then 1 else 0) - others;
      let value = vals.(i) in
      Engine.schedule_at_unit
        (Exec.engine exec ~group:0)
        (Sim_time.of_sec (seq + 1))
        (fun () -> emit ~src:0 ~var:uplink_names.(i) ~value);
      (uplink_names.(i), seq, value))

let check_uplink_round_trip ~what expected updates =
  Alcotest.(check (list (triple string int int)))
    (what ^ ": every update back, in order") expected
    (List.map
       (fun (u : Psn_detection.Observation.update) ->
         ( u.var,
           (if u.src = 0 then u.seq else -1),
           match u.value with Value.Int v -> v | _ -> min_int ))
       updates)

let check_uplink_trigger ~what (u : Psn_detection.Observation.update) =
  Alcotest.(check string)
    (Printf.sprintf "%s: trigger seq %d name" what u.seq)
    uplink_names.(u.seq mod 4) u.var

let check_uplink_raises ~what emit =
  let raises f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) (what ^ ": fifth name raises") true
    (raises (fun () -> emit ~src:0 ~var:"e" ~value:0));
  Alcotest.(check bool) (what ^ ": src = n raises") true
    (raises (fun () -> emit ~src:1 ~var:"a" ~value:0));
  Alcotest.(check bool) (what ^ ": negative src raises") true
    (raises (fun () -> emit ~src:(-1) ~var:"a" ~value:0))

let test_uplink_sharded () =
  List.iter
    (fun (what, checker) ->
      let exec = Exec.single ~seed:3L () in
      let cfg =
        {
          Sharded_detector.n = 1;
          groups = 1;
          group_of = (fun _ -> 0);
          eps = ms 10;
          hold = ms 600;
          flush_period = ms 50;
          causal_stamps = false;
        }
      in
      let det =
        Sharded_detector.create ~checker exec ~cfg ~delay:delay_small
          ~predicate:uplink_predicate ()
      in
      let expected = uplink_schedule exec (Sharded_detector.emit det) in
      Exec.run exec ~until:(Sim_time.of_sec (uplink_updates + 2));
      check_uplink_round_trip ~what expected (Sharded_detector.updates det);
      let occs = Sharded_detector.occurrences det in
      Alcotest.(check (list int)) (what ^ ": rises on seqs 3, 6, .., 15")
        [ 3; 6; 9; 12; 15 ]
        (List.map
           (fun (o : Psn_detection.Occurrence.t) -> o.trigger.seq)
           occs);
      List.iter
        (fun (o : Psn_detection.Occurrence.t) ->
          check_uplink_trigger ~what o.trigger)
        occs;
      check_uplink_raises ~what (Sharded_detector.emit det))
    [
      ("Interp", Sharded_detector.Interp);
      ("Compiled", Sharded_detector.Compiled);
      ("Partitioned", Sharded_detector.Partitioned);
    ]

let test_uplink_streaming () =
  let what = "streaming" in
  let exec = Exec.single ~seed:3L () in
  let cfg =
    {
      Streaming_detector.n = 1;
      groups = 1;
      group_of = (fun _ -> 0);
      eps = ms 10;
      hold = ms 600;
      flush_period = ms 50;
      cap = 1_000;
    }
  in
  let det =
    Streaming_detector.create exec ~cfg ~delay:delay_small
      ~predicate:uplink_predicate ()
  in
  let expected = uplink_schedule exec (Streaming_detector.emit det) in
  Exec.run exec ~until:(Sim_time.of_sec (uplink_updates + 2));
  Streaming_detector.finish det;
  check_uplink_round_trip ~what expected (Streaming_detector.updates det);
  Alcotest.(check int) (what ^ ": all fed") uplink_updates
    (Streaming_detector.observed det);
  Alcotest.(check int) (what ^ ": none unfed") 0 (Streaming_detector.unfed det);
  (* One process: the lattice is a chain, so Possibly and Definitely
     both hold at the first rise. *)
  let triggers =
    List.filter_map
      (fun (e : Streaming_detector.edge) -> e.trigger)
      (Streaming_detector.edges det)
  in
  Alcotest.(check (list int)) (what ^ ": decided at seq 3") [ 3; 3 ]
    (List.map (fun (u : Psn_detection.Observation.update) -> u.seq) triggers);
  List.iter (check_uplink_trigger ~what) triggers;
  check_uplink_raises ~what (Streaming_detector.emit det)

let () =
  Alcotest.run "psn_sharded"
    [
      ( "differential",
        [
          test_hall_differential;
          test_banking_differential;
          test_hospital_differential;
          test_calm_differential;
          test_script_differential;
        ] );
      ( "checker backends",
        [
          test_calm_backends;
          test_relational_backends;
          Alcotest.test_case "backend resolution" `Quick
            test_backend_resolution;
        ] );
      ( "lookahead",
        [
          test_min_delay_bound;
          Alcotest.test_case "zero lookahead rejected" `Quick
            test_zero_lookahead_rejected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "window rounds + clock alignment" `Quick
            test_window_rounds;
          Alcotest.test_case "PSN_DOMAINS env knob" `Quick
            test_psn_domains_env;
        ] );
      ( "metrics",
        [ Alcotest.test_case "merge_snapshots" `Quick test_merge_snapshots ] );
      ( "streaming detector",
        [
          test_stream_differential;
          test_stream_matches_packed;
          Alcotest.test_case "online tap == post-hoc bytes" `Quick
            test_stream_tap_equals_retained;
          Alcotest.test_case "arena reuse" `Quick test_stream_arena_reuse;
          Alcotest.test_case "unfed at the horizon" `Quick
            test_stream_unfed_at_horizon;
        ] );
      ( "uplink",
        [
          Alcotest.test_case "sharded detector contract" `Quick
            test_uplink_sharded;
          Alcotest.test_case "streaming detector contract" `Quick
            test_uplink_streaming;
        ] );
    ]
