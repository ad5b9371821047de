(* Marrying the two design spaces (paper §3): a specification (predicate +
   modality) and an implementation (clock + delay + loss) yield a
   detector; a scenario populates the world; the runner executes and
   scores.

   The dispatch table below *is* the paper's compatibility matrix:

                         Instantaneous       Possibly/Definitely
     perfect physical    physical (ε = 0)    —
     synced physical     physical (ε)        —
     logical scalar      lamport unicast     —
     logical vector      causal-vec unicast  Possibly/Definitely (conjunctive)
     strobe scalar       strobe scalar       —
     strobe vector       strobe vector       Possibly/Definitely (conjunctive)
     physical vector     raw hw clocks       —

   Unsupported pairings raise, mirroring the paper's argument about which
   clocks can realize which modalities. *)

module Engine = Psn_sim.Engine
module Sim_time = Psn_sim.Sim_time
module Clock_kind = Psn_clocks.Clock_kind
module Spec = Psn_predicates.Spec
module Modality = Psn_predicates.Modality
module D = Psn_detection

exception Unsupported of string

let unsupported clock modality =
  raise
    (Unsupported
       (Fmt.str "no detector for clock %a under modality %a" Clock_kind.pp clock
          Modality.pp modality))

let detector_for ?init (config : Config.t) engine ~spec =
  let n = config.n in
  let delay = config.delay in
  let hold = Config.effective_hold config in
  let predicate = Spec.predicate spec in
  let loss = config.loss in
  let once = config.once in
  let topology = config.topology in
  let require_complete_overlay what =
    if topology <> None then
      raise
        (Unsupported (what ^ " requires the default (complete) overlay"))
  in
  match (config.clock, Spec.modality spec) with
  | Clock_kind.Strobe_scalar, Modality.Instantaneous ->
      D.Strobe_scalar_detector.create ~loss ?topology ?init ~once engine ~n
        ~delay ~hold ~predicate
  | Clock_kind.Strobe_vector, Modality.Instantaneous ->
      D.Strobe_vector_detector.create ~loss ?topology ?init ~once engine ~n
        ~delay ~hold ~predicate
  | Clock_kind.Perfect_physical, Modality.Instantaneous ->
      D.Physical_detector.create ~loss ?topology ?init ~once engine ~n ~delay
        ~hold ~eps:Sim_time.zero ~predicate
  | Clock_kind.Synced_physical { eps }, Modality.Instantaneous ->
      D.Physical_detector.create ~loss ?topology ?init ~once engine ~n ~delay
        ~hold ~eps ~predicate
  | Clock_kind.Logical_scalar, Modality.Instantaneous ->
      require_complete_overlay "the Lamport unicast baseline";
      D.Lamport_detector.create ~loss ?init ~once engine ~n ~delay ~hold
        ~predicate
  | Clock_kind.Logical_vector, Modality.Instantaneous ->
      require_complete_overlay "the causal-vector unicast baseline";
      D.Causal_vector_detector.create ~loss ?init ~once engine ~n ~delay ~hold
        ~predicate
  | (Clock_kind.Strobe_vector | Clock_kind.Logical_vector), Modality.Definitely
    ->
      require_complete_overlay "the interval-queue detectors";
      D.Interval_detector.create ~loss ?init ~once engine
        ~mode:D.Interval_detector.Definitely ~n ~delay ~horizon:config.horizon
        ~predicate
  | (Clock_kind.Strobe_vector | Clock_kind.Logical_vector), Modality.Possibly ->
      require_complete_overlay "the interval-queue detectors";
      D.Interval_detector.create ~loss ?init ~once engine
        ~mode:D.Interval_detector.Possibly ~n ~delay ~horizon:config.horizon
        ~predicate
  | Clock_kind.Hybrid_logical { max_offset; max_drift_ppm },
    Modality.Instantaneous ->
      D.Hlc_detector.create ~loss ?topology ?init ~once engine ~n ~delay ~hold
        ~max_offset ~max_drift_ppm ~predicate
  | Clock_kind.Physical_vector, Modality.Instantaneous ->
      (* Raw, unsynchronized hardware clocks: linearize by local reading.
         The "software clocks without sync" corner of the space. *)
      let rng = Psn_util.Rng.split (Engine.rng engine) in
      let clocks =
        Array.init n (fun _ ->
            Psn_clocks.Physical_clock.create rng ~max_offset:(Sim_time.of_ms 500)
              ~max_drift_ppm:100.0)
      in
      let discipline =
        {
          D.Linearizer.name = "physical-raw";
          stamp_of_emit =
            (fun ~src ->
              Psn_clocks.Physical_clock.read_raw clocks.(src)
                ~now:(Engine.now engine));
          on_receive = (fun ~dst:_ _ -> ());
          compare = Sim_time.compare;
          race = (fun _ _ -> false);
          arrival_tie_break = false;
          stamp_words = 1;
        }
      in
      let cfg = { (D.Linearizer.default_cfg ~hold) with once } in
      D.Linearizer.create ~loss ?init engine ~n ~delay ~predicate ~discipline
        ~cfg
  | clock, modality -> unsupported clock modality

let score (config : Config.t) ~spec ?init ~policy detector =
  let updates = D.Detector.updates detector in
  let truth =
    D.Ground_truth.intervals ?init ~updates ~predicate:(Spec.predicate spec)
      ~horizon:config.horizon ()
  in
  let occurrences = D.Detector.occurrences detector in
  let summary =
    D.Metrics.score ~tolerance:config.tolerance ~policy ~truth
      ~detections:occurrences ()
  in
  (truth, occurrences, summary, List.length updates)

(* Run one scenario under one configuration.  [setup] wires the world to
   the detector's [emit] (and may also register actuators, covert
   channels, sync protocols...). *)
let run ?init ?(policy = D.Metrics.As_positive) (config : Config.t) ~spec
    ~setup () =
  let engine = Engine.create ~seed:config.seed () in
  let detector = detector_for ?init config engine ~spec in
  setup engine detector;
  Engine.run ~until:config.horizon engine;
  let truth, occurrences, summary, updates =
    score config ~spec ?init ~policy detector
  in
  {
    Report.summary;
    truth;
    occurrences;
    updates;
    messages = D.Detector.messages_sent detector;
    words = D.Detector.words_sent detector;
    dropped = D.Detector.messages_dropped detector;
    sim_events = Engine.events_processed engine;
    horizon = config.horizon;
    metrics = Psn_obs.Metrics.snapshot (Engine.metrics engine);
    sharding = None;
  }
