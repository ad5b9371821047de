(* psnbench — timed end-to-end runs of one workload, printed as one JSON
   line for ../run.py to summarise.

     psnbench.exe run --workload NAME --seed N --seconds T --trace 0|1
     psnbench.exe rss --workload NAME --seed N
     psnbench.exe pool-dispatch

   [run] computes the workload's reference and runs the benchmark's
   copy of its pipeline once, both outside the timed region, records
   [control.queue_ns], then repeats until [T] seconds have passed: one
   run of the public entry point (timed whole), followed by the copy's
   set-up + engine runs (timed per phase).  Every run is checked against
   the reference.  It records the control again and prints the samples,
   counts and spans.  With [--trace 1], repetitions alternate with
   traced runs of the copy, so the same process also yields the per-layer
   spans and the tracing overhead.  [rss] runs the public entry point
   once and prints the process's peak resident set.  [pool-dispatch]
   times the first and a warm [Parallel.map_array ~domains:2] in a fresh
   process. *)

module W = Workloads
module J = Psn_obs.Json

let print_json j = print_endline (J.to_string j)
let floats kvs = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) kvs)

(* {2 Contamination control}

   A fixed event-queue workload (100k pending, add+pop pairs) that no
   benchmark workload touches: if it moves between the start and the end
   of a run, between repetitions, or between two runs, the box was busy.
   [probe pairs] times [pairs] add+pop pairs and returns ns per pair. *)

let queue_probe () =
  let module Q = Psn_sim.Event_queue in
  let q = Q.create ~dummy:0 () in
  let state = ref 0x2545F491 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for i = 0 to 99_999 do
    Q.add q ~time_ns:(next ()) i
  done;
  fun pairs ->
    let t0 = Spans.now_ns () in
    for i = 1 to pairs do
      let t = Q.min_time_ns q in
      ignore (Sys.opaque_identity (Q.pop_exn q));
      Q.add q ~time_ns:(t + next ()) i
    done;
    float_of_int (Spans.now_ns () - t0) /. float_of_int pairs

(* The bracketing reading: median of five 200k-pair samples. *)
let control probe =
  let samples = List.sort compare (List.init 5 (fun _ -> probe 200_000)) in
  List.nth samples 2

(* {2 Process facts} *)

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
              (fun kb -> Some kb)
        | _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      r

let env name = match Sys.getenv_opt name with Some v -> J.Str v | None -> Null

let meta () =
  J.Obj
    [
      ("ocaml_version", Str Sys.ocaml_version);
      ("recommended_domains", Int (Domain.recommended_domain_count ()));
      ("default_domains", Int (Psn_util.Parallel.default_domains ()));
      ("PSN_DOMAINS", env "PSN_DOMAINS");
      ("OCAMLRUNPARAM", env "OCAMLRUNPARAM");
      ("word_size", Int Sys.word_size);
    ]

(* {2 The timed loop} *)

let error_string = function Ok () -> J.Null | Error e -> J.Str e

let span_json all (s : Spans.span) =
  J.Obj
    [
      ("id", Int s.id);
      ("parent", Int s.parent);
      ("run", Int s.run);
      ("name", Str s.name);
      ("start_ns", Int s.start_ns);
      ("end_ns", Int s.end_ns);
      ("self_ns", Int (Spans.self_ns all s));
      ("minor_words", Float s.minor_words);
      ("minor_collections", Int s.minor_gcs);
      ("major_collections", Int s.major_gcs);
    ]

let f1_json output = match W.f1 output with Some f -> J.Float f | None -> Null

let failed_item ~traced e =
  [ ("traced", J.Bool traced); ("ok", Bool false);
    ("error", Str (Printexc.to_string e)) ]

(* One untraced repetition: the public entry point, timed from its first
   construction call to the scored result ([wall_s]), then the copy's
   set-up + engine runs, each from a collected heap, for the phase
   boundaries the public function does not expose ([setup_s],
   [sim_events_per_s]).  The public output is checked against the
   reference; the copy's runs must process the public run's engine
   events (the copy's whole output was checked once before the loop). *)
let untraced_item (w : W.t) ~seed ~ready reference =
  match
    let t0 = Spans.now_ns () in
    let output, events = w.public ~seed in
    let wall_ns = Spans.now_ns () - t0 in
    let copies =
      List.init w.copy_runs (fun _ ->
          Gc.full_major ();
          let s = w.start None ~seed in
          (s.setup_ns, s.sim_run_ns, s.events))
    in
    (output, events, wall_ns, copies)
  with
  | exception e -> failed_item ~traced:false e
  | output, events, wall_ns, copies ->
      let verdict =
        match ready with
        | Error _ as e -> e
        | Ok () -> (
            match W.check reference output with
            | Ok () when List.exists (fun (_, _, ev) -> ev <> events) copies ->
                Error "the copy's engine run processed a different event count"
            | v -> v)
      in
      [
        ("traced", J.Bool false);
        ("ok", Bool (Result.is_ok verdict));
        ("error", error_string verdict);
        ("wall_ns", Int wall_ns);
        ("events", Int events);
        ( "copies",
          List
            (List.map
               (fun (setup, sim, ev) ->
                 J.Obj
                   [ ("setup_ns", Int setup); ("sim_run_ns", Int sim);
                     ("events", Int ev) ])
               copies) );
        ("f1", f1_json output);
      ]

(* One traced repetition: the copy, complete, with spans.  Its output is
   checked against the reference (the replica check) and its counts
   against the copy's run before the loop. *)
let traced_item (w : W.t) ~seed ~ready ~counts recorder reference =
  Spans.new_run recorder;
  let tr = Some recorder in
  match Spans.span tr "run" (fun () -> W.complete (w.start tr ~seed)) with
  | exception e -> (failed_item ~traced:true e, true)
  | run ->
      let verdict =
        match ready with Error _ as e -> e | Ok () -> W.check reference run.output
      in
      let run_counts, host = run.counters () in
      ( [
          ("traced", J.Bool true);
          ("ok", Bool (Result.is_ok verdict));
          ("error", error_string verdict);
          ("wall_ns", Int run.wall_ns);
          ("setup_ns", Int run.setup_ns);
          ("sim_run_ns", Int run.sim_run_ns);
          ("events", Int run.events);
          ("f1", f1_json run.output);
          ("host", floats host);
        ],
        compare run_counts counts = 0 )

let run_workload (w : W.t) ~seed ~seconds ~traced =
  let t_ref = Spans.now_ns () in
  let reference =
    match w.reference ~seed with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  (* The copy, run once and checked like any timed run: the replica
     check for every copy run in the loop, and the source of the
     simulated counts. *)
  let replica =
    match reference with
    | Error e -> Error e
    | Ok r -> (
        match W.complete (w.start None ~seed) with
        | exception e -> Error ("copy: " ^ Printexc.to_string e)
        | run -> (
            match W.check r run.output with
            | Ok () -> Ok (fst (run.counters ()))
            | Error e -> Error ("copy: " ^ e)))
  in
  let ready =
    match (reference, replica) with
    | Ok r, Ok _ -> W.check_reference r
    | Error e, _ | _, Error e -> Error e
  in
  let counts = match replica with Ok c -> c | Error _ -> [] in
  let reference_s = float_of_int (Spans.now_ns () - t_ref) /. 1e9 in
  let probe = queue_probe () in
  let control_before = control probe in
  let recorder = Spans.create () in
  let iterations = ref [] and replays = ref [] in
  let counts_stable = ref true in
  let deadline = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  let min_iterations = if traced then 2 else 1 in
  let i = ref 0 in
  (match reference with
  | Error _ -> ()
  | Ok reference ->
      while !i < min_iterations || Spans.now_ns () < deadline do
        (* Each repetition starts from a collected heap, so one run's
           garbage is not charged to the next. *)
        Gc.full_major ();
        let traced_run = traced && !i mod 2 = 0 in
        let item =
          if traced_run then begin
            let item, same_counts =
              traced_item w ~seed ~ready ~counts recorder reference
            in
            if not same_counts then counts_stable := false;
            if Array.length reference.observed > 0 then begin
              let ns, words = W.lattice_replay reference.observed in
              replays :=
                floats
                  [
                    ("observe_ns", float_of_int ns);
                    ("events", float_of_int (Array.length reference.observed));
                    ("minor_words", words);
                  ]
                :: !replays
            end;
            item
          end
          else untraced_item w ~seed ~ready reference
        in
        (* A short probe after every repetition, so a slow spell shows
           against the repetitions it touched. *)
        let item = item @ [ ("control_ns", J.Float (probe 50_000)) ] in
        iterations := J.Obj item :: !iterations;
        incr i
      done);
  let control_after = control probe in
  let all = Spans.spans recorder in
  print_json
    (J.Obj
       [
         ("schema", Str "psnbench-raw/1");
         ("workload", Str w.name);
         ("seed", Str (Int64.to_string seed));
         ("traced", Bool traced);
         ("seconds", Float seconds);
         ("config", Obj (List.map (fun (k, v) -> (k, J.Str v)) w.config));
         ("meta", meta ());
         ( "reference",
           Obj
             [
               ("ok", Bool (Result.is_ok ready));
               ("error", error_string ready);
               ("seconds", Float reference_s);
             ] );
         ("control", floats [ ("queue_ns_before", control_before);
                              ("queue_ns_after", control_after) ]);
         ("iterations", List (List.rev !iterations));
         ("counts", floats counts);
         ("counts_stable", Bool !counts_stable);
         ("spans", List (List.map (span_json all) all));
         ("lattice_replays", List (List.rev !replays));
       ])

let pool_dispatch () =
  let map () =
    let t0 = Spans.now_ns () in
    ignore
      (Sys.opaque_identity
         (Psn_util.Parallel.map_array ~domains:2 (fun x -> x + 1) [| 0; 1 |]));
    float_of_int (Spans.now_ns () - t0) /. 1e9
  in
  let first = map () in
  let warm = map () in
  print_json (J.Obj [ ("first_s", Float first); ("warm_s", Float warm) ])

(* One run of the public entry point in a fresh process: the peak
   resident set of the workload alone, independent of how many
   repetitions the timed loop fitted into its seconds. *)
let peak_rss (w : W.t) ~seed =
  let _, events = w.public ~seed in
  print_json
    (J.Obj
       [
         ("events", Int events);
         ( "peak_rss_kb",
           match peak_rss_kb () with Some kb -> Int kb | None -> Null );
       ])

let usage () =
  prerr_endline
    "usage: psnbench.exe run --workload NAME --seed N --seconds T --trace 0|1\n\
    \       psnbench.exe rss --workload NAME --seed N\n\
    \       psnbench.exe pool-dispatch";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "pool-dispatch" ] -> pool_dispatch ()
  | (("run" | "rss") as cmd) :: args ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let w =
        match W.find (get "workload") with
        | Some w -> w
        | None ->
            prerr_endline ("unknown workload " ^ get "workload");
            exit 2
      in
      let seed = Int64.of_string (get "seed") in
      if cmd = "rss" then peak_rss w ~seed
      else
        run_workload w ~seed
          ~seconds:(float_of_string (get "seconds"))
          ~traced:(get "trace" = "1")
  | _ -> usage ()
