(* The four benchmark workloads.

   Each workload has
   - [public]: one run of the scenario's public entry point
     ([Sharded.hall]/[calm]/[stream], [Exhibition_hall.run]) on the
     workload's substrate — what [wall_s] times;
   - a copy of that entry point's pipeline ([start], then [complete]),
     reimplemented from the calls it makes (construct, populate, run,
     merge updates, ground truth, score, report), each call wrapped in a
     span.  The copy exists only for the phase boundaries that the
     public function does not expose: [setup_s], [sim_events_per_s] and
     the traced run's spans;
   - a [reference], computed once outside the timed region: the public
     entry point on the same seed, plus the workload's independent
     oracle (the [Exec.single] substrate, or [Packed] post-hoc over the
     stream's observed stamps);
   - a [check] that compares one run's output, public or copy, against
     the reference.

   A copy that stops reproducing the public entry point fails the
   check, so the per-layer numbers always describe the program that the
   end-to-end numbers time. *)

module Exec = Psn_sim.Exec
module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Delay_model = Psn_sim.Delay_model
module Rng = Psn_util.Rng
module Expr = Psn_predicates.Expr
module Value = Psn_world.Value
module D = Psn_detection
module Sharded = Psn_scenarios.Sharded
module Hall = Psn_scenarios.Exhibition_hall
module Shard_net = Psn_network.Shard_net
module Streaming = Psn_lattice.Streaming
module Packed = Psn_lattice.Packed

let span = Spans.span
let now_ns = Spans.now_ns

(* The substrate-independent content of a scored report — what
   [Psn.Report.core] keeps — read field by field so the benchmark does
   not depend on the report record's exact shape. *)
type core = {
  summary : D.Metrics.summary;
  truth : D.Ground_truth.interval list;
  occurrences : D.Occurrence.t list;
  updates : int;
  messages : int;
  words : int;
  dropped : int;
  sim_events : int;
  metrics : Psn_obs.Metrics.snapshot;
}

let core_of_report (r : Psn.Report.t) =
  {
    summary = r.summary;
    truth = r.truth;
    occurrences = r.occurrences;
    updates = r.updates;
    messages = r.messages;
    words = r.words;
    dropped = r.dropped;
    sim_events = r.sim_events;
    metrics = r.metrics;
  }

type stream_out = {
  possibly : bool option;
  definitely : bool option;
  committed : Packed.verdict;
  observed : int;
  s_updates : int;
  edges : D.Streaming_detector.edge list;
  peak_live_cuts : int;
  peak_live_events : int;
  s_messages : int;
  s_dropped : int;
}

let stream_out_of_result (r : Sharded.stream_result) =
  {
    possibly = r.sr_possibly;
    definitely = r.sr_definitely;
    committed = r.sr_committed;
    observed = r.sr_observed;
    s_updates = r.sr_updates;
    edges = r.sr_edges;
    peak_live_cuts = r.sr_peak_live_cuts;
    peak_live_events = r.sr_peak_live_events;
    s_messages = r.sr_messages;
    s_dropped = r.sr_dropped;
  }

type output = Scored of core | Stream of stream_out

(* [counters ()] reads, after the run's spans have closed, the simulated
   counts (identical for a seed) and the host-time readings the
   library's own counters took during the run. *)
type counters = unit -> (string * float) list * (string * float) list

(* The first half of a pipeline run — construction, population and the
   engine run — with its phase boundaries; [finish] runs the rest
   (update merge, ground truth, score, report). *)
type staged = {
  t0 : int;  (** host ns at the first construction call *)
  setup_ns : int;
  sim_run_ns : int;
  events : int;
  finish : unit -> output * counters;
}

(* One complete pipeline run. *)
type run = {
  output : output;
  wall_ns : int;
  setup_ns : int;
  sim_run_ns : int;
  events : int;
  counters : counters;
}

let complete (s : staged) =
  let output, counters = s.finish () in
  {
    output;
    wall_ns = now_ns () - s.t0;
    setup_ns = s.setup_ns;
    sim_run_ns = s.sim_run_ns;
    events = s.events;
    counters;
  }

type reference = {
  public : output;
      (** the public entry point, same substrate and seed, run once
          before the timed loop *)
  oracle : output option;
      (** the [Exec.single] oracle's report (hall-score, calm-window) *)
  packed : (Packed.verdict * bool option * bool option) option;
      (** [Packed] count, Possibly, Definitely over the observed stamps *)
  observed : (int * int array) array;
      (** stream-modal: every stamp in the order the walk consumed it *)
}

type t = {
  name : string;
  config : (string * string) list;
  public : seed:int64 -> output * int;
      (** one run of the public entry point: its output and engine events *)
  reference : seed:int64 -> reference;
  start : Spans.t option -> seed:int64 -> staged;
  copy_runs : int;
      (** set-up + engine runs of the copy after each public run, so that
          a workload whose set-up and engine run are a small part of its
          wall time still gives enough samples of both *)
}

let fmt_time t = Printf.sprintf "%dns" (Sim_time.to_ns t)

let detect_config (dc : Sharded.detect_cfg) =
  [
    ("groups", string_of_int dc.groups);
    ("eps", fmt_time dc.eps);
    ("hold", fmt_time dc.hold);
    ("flush_period", fmt_time dc.flush_period);
    ("delay", Fmt.str "%a" Delay_model.pp dc.delay);
    ("loss", Fmt.str "%a" Psn_sim.Loss_model.pp dc.loss);
    ("horizon", fmt_time dc.horizon);
    ("tolerance", fmt_time dc.tolerance);
    ("causal_stamps", string_of_bool dc.causal_stamps);
    ( "checker",
      match dc.checker with
      | D.Sharded_detector.Interp -> "Interp"
      | Compiled -> "Compiled"
      | Partitioned -> "Partitioned"
      | Auto -> "Auto" );
  ]

(* The scenarios' per-entity streams (Sharded.entity_rng). *)
let entity_rng seed tag =
  Rng.create
    ~seed:(Int64.add seed (Int64.mul (Int64.of_int (tag + 1)) 0xBF58476D1CE4E5B9L))
    ()

let shards = 2

let sharded_exec (dc : Sharded.detect_cfg) ~seed =
  Exec.sharded ~seed ~shards ~lookahead:(Delay_model.min_delay dc.delay) ()

let sharded_counts exec =
  let base =
    [
      ("sim.events", float_of_int (Exec.events_processed exec));
      ("sim.windows", float_of_int (Exec.windows exec));
    ]
  in
  match Exec.stats exec with
  | None -> (base, [])
  | Some st ->
      let a = Psn_obs.Analyze.sharded st in
      ( base
        @ [
            ("sim.imbalance_events", a.sr_imbalance_events);
            ("network.cross_shard_msgs", float_of_int a.sr_cross_msgs);
            ("network.peak_mail_ints", float_of_int a.sr_peak_mail_ints);
          ],
        [
          ("sim.parallel_s", float_of_int a.sr_par_ns /. 1e9);
          ("sim.drain_s", float_of_int a.sr_drain_ns /. 1e9);
          ("sim.fold_s", float_of_int a.sr_fold_ns /. 1e9);
          ("sim.amdahl_limit", a.sr_amdahl_limit);
        ] )

let scored_counts (c : core) =
  [
    ("detection.updates", float_of_int c.updates);
    ("detection.occurrences", float_of_int (List.length c.occurrences));
    ("detection.truth_intervals", float_of_int (List.length c.truth));
    ("detection.tp", float_of_int c.summary.tp);
    ("detection.fp", float_of_int c.summary.fp);
    ("detection.fn", float_of_int c.summary.fn);
    ("detection.precision", c.summary.precision);
    ("detection.recall", c.summary.recall);
    ("network.messages", float_of_int c.messages);
    ("network.words", float_of_int c.words);
    ("network.dropped", float_of_int c.dropped);
  ]

(* {2 Sharded scored workloads: hall-score, calm-window}

   The body of [Sharded.execute]: detector over the substrate, the
   scenario's schedule loop, run, merged update stream, ground truth,
   score. *)

let sharded_start tr ~seed ~(dc : Sharded.detect_cfg) ~n ~group_of
    ~predicate ~init ~populate =
  let t0 = now_ns () in
  let exec, det =
    span tr "setup" (fun () ->
        let exec = span tr "sim.create" (fun () -> sharded_exec dc ~seed) in
        let det =
          span tr "detection.create" (fun () ->
              let cfg =
                {
                  D.Sharded_detector.n;
                  groups = dc.groups;
                  group_of;
                  eps = dc.eps;
                  hold = dc.hold;
                  flush_period = dc.flush_period;
                  causal_stamps = dc.causal_stamps;
                }
              in
              D.Sharded_detector.create ~loss:dc.loss ~checker:dc.checker exec
                ~cfg ~delay:dc.delay ~predicate ())
        in
        span tr "scenarios.populate" (fun () -> populate exec det);
        (exec, det))
  in
  let t1 = now_ns () in
  span tr "sim.run" (fun () -> Exec.run exec ~until:dc.horizon);
  let t2 = now_ns () in
  let finish () =
    let updates =
      span tr "detection.updates_merge" (fun () ->
          D.Sharded_detector.updates det)
    in
    let truth =
      span tr "detection.truth" (fun () ->
          D.Ground_truth.intervals ~init ~updates ~predicate
            ~horizon:dc.horizon ())
    in
    let occurrences, summary =
      span tr "detection.score" (fun () ->
          let occurrences = D.Sharded_detector.occurrences det in
          ( occurrences,
            D.Metrics.score ~tolerance:dc.tolerance
              ~policy:D.Metrics.As_positive ~truth ~detections:occurrences () ))
    in
    let core =
      span tr "report" (fun () ->
          let net = D.Sharded_detector.net det in
          {
            summary;
            truth;
            occurrences;
            updates = List.length updates;
            messages = Shard_net.sent net;
            words = Shard_net.words net;
            dropped = Shard_net.dropped net;
            sim_events = Exec.events_processed exec;
            metrics = Exec.merged_metrics exec;
          })
    in
    ( Scored core,
      fun () ->
        let counts, host = sharded_counts exec in
        (counts @ scored_counts core, host) )
  in
  {
    t0;
    setup_ns = t1 - t0;
    sim_run_ns = t2 - t1;
    events = Exec.events_processed exec;
    finish;
  }

let scored_reference ~public ~oracle =
  {
    public;
    oracle = Some (Scored (core_of_report oracle));
    packed = None;
    observed = [||];
  }

(* hall-score: 1000 doors, visitors proportional to doors. *)

let hall_cfg =
  {
    Sharded.doors = 1000;
    capacity = 500;
    visitors = 1000;
    dwell_mean = 45.0;
    detect =
      {
        Sharded.default_detect with
        groups = 8;
        flush_period = Sim_time.of_ms 250;
        horizon = Sim_time.of_sec 300;
      };
  }

let hall_init (cfg : Sharded.hall_cfg) =
  List.concat
    (List.init cfg.doors (fun i ->
         [
           ({ Expr.name = "x"; loc = i }, Value.Int 0);
           ({ Expr.name = "y"; loc = i }, Value.Int 0);
         ]))

let hall_start (cfg : Sharded.hall_cfg) tr ~seed =
  let dc = cfg.detect in
  let group_of pid = pid * dc.groups / cfg.doors in
  sharded_start tr ~seed ~dc ~n:cfg.doors ~group_of
    ~predicate:(Sharded.hall_predicate cfg) ~init:(hall_init cfg)
    ~populate:(fun exec det ->
      let xs = Array.make cfg.doors 0 and ys = Array.make cfg.doors 0 in
      for v = 0 to cfg.visitors - 1 do
        let rng = entity_rng seed v in
        let rec walk t inside =
          let dwell = Rng.exponential rng ~mean:cfg.dwell_mean in
          let t' = Sim_time.add t (Sim_time.of_sec_float dwell) in
          if Sim_time.( < ) t' dc.horizon then begin
            let door = Rng.int rng cfg.doors in
            let engine = Exec.engine exec ~group:(group_of door) in
            if inside then
              Engine.schedule_at_unit engine t' (fun () ->
                  ys.(door) <- ys.(door) + 1;
                  D.Sharded_detector.emit det ~src:door ~var:"y"
                    ~value:ys.(door))
            else
              Engine.schedule_at_unit engine t' (fun () ->
                  xs.(door) <- xs.(door) + 1;
                  D.Sharded_detector.emit det ~src:door ~var:"x"
                    ~value:xs.(door));
            walk t' (not inside)
          end
        in
        walk Sim_time.zero false
      done)

let scored_public (r : Psn.Report.t) = (Scored (core_of_report r), r.sim_events)

let hall_score =
  let cfg = hall_cfg in
  let public ~seed =
    scored_public (Sharded.hall ~cfg (sharded_exec cfg.detect ~seed))
  in
  {
    name = "hall-score";
    config =
      [
        ("scenario", "Psn_scenarios.Sharded.hall");
        ("substrate", Printf.sprintf "Exec.sharded ~shards:%d" shards);
        ("lookahead", fmt_time (Delay_model.min_delay cfg.detect.delay));
        ("doors", string_of_int cfg.doors);
        ("capacity", string_of_int cfg.capacity);
        ("visitors", string_of_int cfg.visitors);
        ("dwell_mean_s", string_of_float cfg.dwell_mean);
      ]
      @ detect_config cfg.detect;
    public;
    reference =
      (fun ~seed ->
        scored_reference ~public:(fst (public ~seed))
          ~oracle:(Sharded.hall ~cfg (Exec.single ~seed ())));
    start = hall_start cfg;
    copy_runs = 10;
  }

(* calm-window: six monitors sampling every 20 ms; conjunctive predicate,
   so [Auto] resolves to the partitioned checker. *)

let calm_cfg =
  { Sharded.monitors = 6; limit = 60; sample_period = 0.02;
    detect = { Sharded.default_detect with horizon = Sim_time.of_sec 300 } }

(* The scenarios' load walk: downward drift with rare spikes. *)
let calm_step rng load =
  if Rng.int rng 25 = 0 then 70 + Rng.int rng 30
  else
    let step = Rng.int rng 11 - 6 in
    Stdlib.max 0 (Stdlib.min 100 (load + step))

let sample_loop ~seed ~monitors ~group_of ~period ~horizon exec emit =
  for m = 0 to monitors - 1 do
    let rng = entity_rng seed m in
    let engine = Exec.engine exec ~group:(group_of m) in
    let load = ref 80 in
    let rec samples t =
      let gap = Rng.exponential rng ~mean:period in
      let at = Sim_time.add t (Sim_time.of_sec_float gap) in
      if Sim_time.( < ) at horizon then begin
        Engine.schedule_at_unit engine at (fun () ->
            load := calm_step rng !load;
            emit m !load);
        samples at
      end
    in
    samples Sim_time.zero
  done

let calm_start (cfg : Sharded.calm_cfg) tr ~seed =
  let dc = cfg.detect in
  let group_of pid = pid * dc.groups / cfg.monitors in
  sharded_start tr ~seed ~dc ~n:cfg.monitors ~group_of
    ~predicate:(Sharded.calm_predicate cfg)
    ~init:
      (List.init cfg.monitors (fun i ->
           ({ Expr.name = "load"; loc = i }, Value.Int 80)))
    ~populate:(fun exec det ->
      sample_loop ~seed ~monitors:cfg.monitors ~group_of
        ~period:cfg.sample_period ~horizon:dc.horizon exec (fun m v ->
          D.Sharded_detector.emit det ~src:m ~var:"load" ~value:v))

let calm_window =
  let cfg = calm_cfg in
  let public ~seed =
    scored_public (Sharded.calm ~cfg (sharded_exec cfg.detect ~seed))
  in
  {
    name = "calm-window";
    config =
      [
        ("scenario", "Psn_scenarios.Sharded.calm");
        ("substrate", Printf.sprintf "Exec.sharded ~shards:%d" shards);
        ("lookahead", fmt_time (Delay_model.min_delay cfg.detect.delay));
        ("monitors", string_of_int cfg.monitors);
        ("limit", string_of_int cfg.limit);
        ("sample_period_s", string_of_float cfg.sample_period);
      ]
      @ detect_config cfg.detect;
    public;
    reference =
      (fun ~seed ->
        scored_reference ~public:(fst (public ~seed))
          ~oracle:(Sharded.calm ~cfg (Exec.single ~seed ())));
    start = calm_start cfg;
    copy_runs = 1;
  }

(* {2 stream-modal}

   The body of [Sharded.stream] on [Exec.single]: the calm walk scored by
   the streaming frontier lattice, no ground truth. *)

let stream_cfg =
  {
    Sharded.stream_default with
    s_monitors = 4;
    s_sample_period = 0.02;
    s_detect =
      { Sharded.stream_default.s_detect with horizon = Sim_time.of_sec 300 };
  }

let stream_start (cfg : Sharded.stream_cfg) tr ~seed =
  let dc = cfg.s_detect in
  let group_of pid = pid * dc.groups / cfg.s_monitors in
  let t0 = now_ns () in
  let exec, det =
    span tr "setup" (fun () ->
        let exec = span tr "sim.create" (fun () -> Exec.single ~seed ()) in
        let det =
          span tr "detection.create" (fun () ->
              let dcfg =
                {
                  D.Streaming_detector.n = cfg.s_monitors;
                  groups = dc.groups;
                  group_of;
                  eps = dc.eps;
                  hold = dc.hold;
                  flush_period = dc.flush_period;
                  cap = cfg.s_cap;
                }
              in
              D.Streaming_detector.create ~loss:dc.loss exec ~cfg:dcfg
                ~delay:dc.delay ~predicate:(Sharded.stream_predicate cfg) ())
        in
        span tr "scenarios.populate" (fun () ->
            sample_loop ~seed ~monitors:cfg.s_monitors ~group_of
              ~period:cfg.s_sample_period ~horizon:dc.horizon exec (fun m v ->
                D.Streaming_detector.emit det ~src:m ~var:"load" ~value:v));
        (exec, det))
  in
  let t1 = now_ns () in
  span tr "sim.run" (fun () -> Exec.run exec ~until:dc.horizon);
  let t2 = now_ns () in
  let finish () =
    span tr "lattice.finish" (fun () -> D.Streaming_detector.finish det);
    let updates =
      span tr "detection.updates_merge" (fun () ->
          D.Streaming_detector.updates det)
    in
    let out =
      span tr "report" (fun () ->
          let s = D.Streaming_detector.stream det in
          let net = D.Streaming_detector.net det in
          {
            possibly = Streaming.possibly s;
            definitely = Streaming.definitely s;
            committed = Streaming.committed_cuts s;
            observed = Streaming.events_observed s;
            s_updates = List.length updates;
            edges = D.Streaming_detector.edges det;
            peak_live_cuts = Streaming.peak_live_cuts s;
            peak_live_events = Streaming.peak_live_events s;
            s_messages = Shard_net.sent net;
            s_dropped = Shard_net.dropped net;
          })
    in
    ( Stream out,
      fun () ->
        let counts, host = sharded_counts exec in
        let net = D.Streaming_detector.net det in
        ( counts
          @ [
              ("detection.updates", float_of_int out.s_updates);
              ("detection.occurrences", float_of_int (List.length out.edges));
              ("detection.truth_intervals", 0.);
              ("network.messages", float_of_int out.s_messages);
              ("network.words", float_of_int (Shard_net.words net));
              ("network.dropped", float_of_int out.s_dropped);
              ("lattice.events_observed", float_of_int out.observed);
              ("lattice.peak_live_cuts", float_of_int out.peak_live_cuts);
              ("lattice.peak_live_events", float_of_int out.peak_live_events);
            ],
          host ) )
  in
  {
    t0;
    setup_ns = t1 - t0;
    sim_run_ns = t2 - t1;
    events = Exec.events_processed exec;
    finish;
  }

(* The public run with the [on_observe] tap, then [Packed] post-hoc over
   exactly the stamps the walk consumed. *)
let stream_reference (cfg : Sharded.stream_cfg) ~seed =
  let n = cfg.s_monitors in
  let order = ref [] in
  let r, det =
    Sharded.stream ~cfg
      ~on_observe:(fun ~pid ~stamp -> order := (pid, Array.copy stamp) :: !order)
      (Exec.single ~seed ())
  in
  let observed = Array.of_list (List.rev !order) in
  let per_pid = Array.make n [] in
  Array.iter (fun (pid, st) -> per_pid.(pid) <- st :: per_pid.(pid)) observed;
  let stamps = Array.map (fun l -> Array.of_list (List.rev l)) per_pid in
  let writes =
    let by_pid = Array.make n [] in
    List.iter
      (fun (u : D.Observation.update) -> by_pid.(u.src) <- u :: by_pid.(u.src))
      (D.Streaming_detector.updates det);
    Array.map
      (fun us ->
        List.sort (fun (a : D.Observation.update) b -> compare a.seq b.seq) us
        |> List.map (fun (u : D.Observation.update) -> (u.var, u.value))
        |> Array.of_list)
      by_pid
  in
  let holds =
    Psn_lattice.Modal.holds_of_expr ~init:[] ~updates:writes
      (Sharded.stream_predicate cfg)
  in
  let packed =
    match Packed.plan_of_stamps stamps with
    | None -> failwith "stream-modal: observed lattice overflows the packed plan"
    | Some plan ->
        ( Packed.count plan (),
          Packed.possibly plan ~holds (),
          Packed.definitely plan ~holds () )
  in
  { public = Stream (stream_out_of_result r); oracle = None;
    packed = Some packed; observed }

let stream_modal =
  let cfg = stream_cfg in
  {
    name = "stream-modal";
    config =
      [
        ("scenario", "Psn_scenarios.Sharded.stream");
        ("substrate", "Exec.single");
        ("monitors", string_of_int cfg.s_monitors);
        ("limit", string_of_int cfg.s_limit);
        ("sample_period_s", string_of_float cfg.s_sample_period);
        ("cap", string_of_int cfg.s_cap);
      ]
      @ detect_config cfg.s_detect;
    public =
      (fun ~seed ->
        let exec = Exec.single ~seed () in
        let r, _ = Sharded.stream ~cfg exec in
        (Stream (stream_out_of_result r), Exec.events_processed exec));
    reference = stream_reference cfg;
    start = stream_start cfg;
    copy_runs = 1;
  }

(* Replays the stamps the walk consumed through a fresh frontier walk
   with a trivial predicate — the lattice layer alone.  Returns host ns
   and minor words. *)
let lattice_replay (observed : (int * int array) array) =
  let t =
    Streaming.create ~n:stream_cfg.s_monitors ~cap:stream_cfg.s_cap
      ~holds:(fun _ -> true) ()
  in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  Array.iter (fun (pid, stamp) -> Streaming.observe t ~pid ~stamp) observed;
  Streaming.finish t;
  let ns = now_ns () - t0 in
  (ns, Gc.minor_words () -. w0)

(* {2 classic-strobe}

   [Exhibition_hall.run] through [Runner.run]: single [Engine], the
   polymorphic [Net] transport, strobe-vector clocks. *)

let classic_hall =
  { Hall.doors = 16; capacity = 1000; visitors = 2000;
    dwell_mean = Hall.default.dwell_mean }

let classic_config ~seed =
  { Psn.Config.default with n = max Psn.Config.default.n classic_hall.doors;
    horizon = Sim_time.of_sec 1800; seed }

let classic_start tr ~seed =
  let cfg = classic_hall in
  let config = classic_config ~seed in
  let spec = Hall.spec cfg and init = Hall.init cfg in
  let t0 = now_ns () in
  let engine, det =
    span tr "setup" (fun () ->
        let engine =
          span tr "sim.create" (fun () -> Engine.create ~seed:config.seed ())
        in
        let det =
          span tr "detection.create" (fun () ->
              Psn.Runner.detector_for ~init config engine ~spec)
        in
        span tr "scenarios.populate" (fun () -> Hall.setup cfg engine det);
        (engine, det))
  in
  let t1 = now_ns () in
  span tr "sim.run" (fun () -> Engine.run ~until:config.horizon engine);
  let t2 = now_ns () in
  let finish () =
    let updates =
      span tr "detection.updates_merge" (fun () -> D.Detector.updates det)
    in
    let truth =
      span tr "detection.truth" (fun () ->
          D.Ground_truth.intervals ~init ~updates
            ~predicate:(Psn_predicates.Spec.predicate spec)
            ~horizon:config.horizon ())
    in
    let occurrences, summary =
      span tr "detection.score" (fun () ->
          let occurrences = D.Detector.occurrences det in
          ( occurrences,
            D.Metrics.score ~tolerance:config.tolerance
              ~policy:D.Metrics.As_positive ~truth ~detections:occurrences () ))
    in
    let core =
      span tr "report" (fun () ->
          {
            summary;
            truth;
            occurrences;
            updates = List.length updates;
            messages = D.Detector.messages_sent det;
            words = D.Detector.words_sent det;
            dropped = D.Detector.messages_dropped det;
            sim_events = Engine.events_processed engine;
            metrics = Psn_obs.Metrics.snapshot (Engine.metrics engine);
          })
    in
    ( Scored core,
      fun () ->
        ( [ ("sim.events", float_of_int (Engine.events_processed engine));
            ("sim.windows", 0.) ]
          @ scored_counts core,
          [] ) )
  in
  {
    t0;
    setup_ns = t1 - t0;
    sim_run_ns = t2 - t1;
    events = Engine.events_processed engine;
    finish;
  }

let classic_strobe =
  let cfg = classic_hall in
  let config = classic_config ~seed:0L in
  let public ~seed = scored_public (Hall.run ~cfg (classic_config ~seed)) in
  {
    name = "classic-strobe";
    config =
      [
        ("scenario", "Psn_scenarios.Exhibition_hall.run");
        ("substrate", "Engine + Net");
        ("doors", string_of_int cfg.doors);
        ("capacity", string_of_int cfg.capacity);
        ("visitors", string_of_int cfg.visitors);
        ("dwell_mean_s", string_of_float cfg.dwell_mean);
        ("n", string_of_int config.n);
        ("clock", Fmt.str "%a" Psn_clocks.Clock_kind.pp config.clock);
        ("delay", Fmt.str "%a" Delay_model.pp config.delay);
        ("loss", Fmt.str "%a" Psn_sim.Loss_model.pp config.loss);
        ("hold", fmt_time (Psn.Config.effective_hold config));
        ("horizon", fmt_time config.horizon);
        ("tolerance", fmt_time config.tolerance);
      ];
    public;
    reference =
      (fun ~seed ->
        { public = fst (public ~seed); oracle = None; packed = None;
          observed = [||] });
    start = classic_start;
    copy_runs = 1;
  }

let all = [ hall_score; calm_window; stream_modal; classic_strobe ]

let find name = List.find_opt (fun w -> w.name = name) all

(* {2 Output checks} *)

let same a b = compare a b = 0

(* The reference's own consistency: the public entry point must agree
   with the workload's oracle before any timed run is judged. *)
let check_reference (r : reference) =
  match (r.public, r.oracle, r.packed) with
  | Scored _, Some oracle, _ when not (same r.public oracle) ->
      Error "public sharded report differs from the Exec.single oracle"
  | Stream s, _, Some (count, possibly, definitely)
    when not
           (same s.committed count && s.possibly = possibly
           && s.definitely = definitely) ->
      Error "streaming verdicts differ from Packed on the observed stamps"
  | _ -> Ok ()

(* One run's output, public or copy, against the reference computed
   outside the timed region.  [check_reference] has already tied the
   reference to the workload's oracle (the [Exec.single] report, or
   Packed's verdicts and committed count), so equality with the
   reference is equality with the oracle. *)
let check (r : reference) output =
  if not (same output r.public) then
    Error "output differs from the public entry point's reference run"
  else
    match output with
    | Scored c when c.summary.tp + c.summary.fn <> c.summary.truth_count ->
        Error "tp + fn <> truth count"
    | _ -> Ok ()

let f1 = function
  | Scored c ->
      let p = c.summary.precision and r = c.summary.recall in
      Some (if p +. r = 0. then 0. else 2. *. p *. r /. (p +. r))
  | Stream _ -> None
