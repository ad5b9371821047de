(* The sensor -> checker leg of the [Exec] checkers: per-pid synced
   clocks, var-slot interning and wire packing at the sources, the
   ground-truth buffers, and the checker's hold-back intake and flush
   schedule.  See the .mli (and DESIGN.md, "Library layout") for the
   wire format and the determinism argument.

   Cross-domain discipline:

     - name tables, sequence counters, and ground-truth buffers of a
       source are written only by that source's group's events, which
       the substrate runs on one shard;
     - the pending arena is written only by checker events (shard 0);
     - the checker reads a source's name table only for updates that
       were emitted, hence after a window barrier ordered the write
       before the read. *)

module Engine = Psn_sim.Engine
module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics
module Value = Psn_world.Value
module Physical_clock = Psn_clocks.Physical_clock
module Shard_net = Psn_network.Shard_net

(* The variable-name index rides in the low bits of the seq lane, so the
   checker rebuilds an update without a string on the wire. *)
let max_vars = 4
let var_bits = 2

type t = {
  who : string;                         (* owning module, for errors *)
  n : int;
  group_of : int -> int;                (* sensor pid -> group *)
  exec : Exec.t;
  net : Shard_net.t;
  clocks : Physical_clock.t array;
  vars : string array array;            (* pid -> var slots, set at first emit *)
  seqs : int array;                     (* per-source update sequence *)
  by_group : Observation.update list array; (* ground truth, newest first *)
  sinks : Trace.sink array option;
  pend : Pending_arena.t;               (* checker-local *)
  hold_ns : int;
  flush_period : Sim_time.t;
  c_updates : Metrics.counter array;    (* per group *)
}

(* SplitMix-style per-pid stream derivation, decorrelated from the
   transport's per-source streams (a different odd constant). *)
let synced_clocks ~seed ~eps ~n =
  Array.init n (fun pid ->
      Physical_clock.synced_within
        (Psn_util.Rng.create
           ~seed:
             (Int64.add seed
                (Int64.mul (Int64.of_int (pid + 1)) 0xC2B2AE3D27D4EB4FL))
           ())
        ~eps)

module Arena = struct
  type t = {
    mutable key : int64 * int * int;  (* seed, eps_ns, n; n = -1 empty *)
    mutable clocks : Physical_clock.t array;
    mutable vars : string array array;
    mutable seqs : int array;
    mutable builds : int;
  }

  let create () =
    { key = (0L, 0, -1); clocks = [||]; vars = [||]; seqs = [||]; builds = 0 }

  let builds a = a.builds
end

let fresh_vars n = Array.init n (fun _ -> Array.make max_vars "")

(* Same key: recycle the tables in place.  New key: rebuild all three. *)
let arena_tables (a : Arena.t) ~seed ~eps ~n =
  let key = (seed, Sim_time.to_ns eps, n) in
  if a.key <> key then begin
    a.clocks <- synced_clocks ~seed ~eps ~n;
    a.vars <- fresh_vars n;
    a.seqs <- Array.make n 0;
    a.key <- key;
    a.builds <- a.builds + 1
  end
  else begin
    Array.iter (fun row -> Array.fill row 0 max_vars "") a.vars;
    Array.fill a.seqs 0 n 0
  end;
  (a.clocks, a.vars, a.seqs)

let create ~who ?loss ?sinks ?arena exec ~label ~counter ~n ~groups
    ~group_of ~eps ~hold ~flush_period ~delay =
  let fail what = invalid_arg (Printf.sprintf "%s.create: %s" who what) in
  if n <= 0 then fail "n must be positive";
  if groups <= 0 then fail "groups must be positive";
  if Sim_time.(flush_period <= Sim_time.zero) then
    fail "flush_period must be positive";
  let seed = Exec.seed exec in
  let net =
    Shard_net.create ?loss ~label ?sinks exec ~n:(n + 1) ~groups
      ~group_of:(fun pid -> if pid = n then 0 else group_of pid)
      ~delay ()
  in
  let clocks, vars, seqs =
    match arena with
    | Some a -> arena_tables a ~seed ~eps ~n
    | None -> (synced_clocks ~seed ~eps ~n, fresh_vars n, Array.make n 0)
  in
  {
    who;
    n;
    group_of;
    exec;
    net;
    clocks;
    vars;
    seqs;
    by_group = Array.make groups [];
    sinks;
    pend = Pending_arena.create ();
    hold_ns = Sim_time.to_ns hold;
    flush_period;
    c_updates =
      Array.init groups (fun g ->
          Metrics.counter (Engine.metrics (Exec.engine exec ~group:g)) counter);
  }

let net t = t.net
let pending t = t.pend

(* Top-level recursion: no closure per emit. *)
let rec slot_of t slots var i =
  if i >= max_vars then
    invalid_arg (t.who ^ ".emit: more than 4 variables on one process")
  else if slots.(i) = var then i
  else if slots.(i) = "" then (slots.(i) <- var; i)
  else slot_of t slots var (i + 1)

let intern t ~src ~var =
  if src < 0 || src >= t.n then
    invalid_arg (t.who ^ ".emit: src out of range");
  slot_of t t.vars.(src) var 0

let send t ~src ~var ~var_idx ~value ~vh ~clock ~mirror =
  let g = t.group_of src in
  let now = Engine.now (Exec.engine t.exec ~group:g) in
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  let stamp = Sim_time.to_ns (Physical_clock.read t.clocks.(src) ~now) in
  t.by_group.(g) <-
    { Observation.src; var; value = Value.Int value; seq; sense_time = now }
    :: t.by_group.(g);
  Metrics.tick t.c_updates.(g);
  (match t.sinks with
  | Some s -> Trace.emit s.(g) ~time:now ~pid:src clock
  | None -> ());
  let seqvar = (seq lsl var_bits) lor var_idx in
  let at =
    Shard_net.send_timed t.net ~src ~dst:t.n ~a:value ~b:now ~c:stamp
      ~d:seqvar ~e:vh
  in
  (* The mirror reuses the send's draws, so it adds no randomness. *)
  if mirror >= 0 && not (Sim_time.is_negative at) then
    Shard_net.post_raw t.net ~src_group:g ~dst_group:g ~at ~dst:mirror ~w0:src
      ~w1:value ~w2:now ~w3:stamp ~w4:seqvar

let wire_seq d = d asr var_bits

(* Lanes as [send] packs them: src, value, sense, stamp, seq|var. *)
let deliver_mirror pend ~now ~w0 ~w1 ~w2 ~w3 ~w4 =
  Pending_arena.add pend ~recv:(Sim_time.to_ns now) ~stamp:w3 ~src:w0
    ~seq:(w4 asr var_bits) ~var_idx:(w4 land (max_vars - 1)) ~value:w1
    ~sense:w2

let deliver t ~src ~a ~b ~c ~d =
  deliver_mirror t.pend ~now:(Engine.now (Exec.engine t.exec ~group:0))
    ~w0:src ~w1:a ~w2:b ~w3:c ~w4:d

let flush_every engine pend ~start ~period ~lag apply =
  ignore
    (Engine.schedule_periodic engine ~start ~period (fun () ->
         let now = Engine.now engine in
         apply ~now
           (Pending_arena.take_ready pend ~cutoff:(Sim_time.to_ns now - lag));
         true))

let start_flush t apply =
  flush_every (Exec.engine t.exec ~group:0) t.pend ~start:t.flush_period
    ~period:t.flush_period ~lag:t.hold_ns apply

let var_name t ~src ~var_idx = t.vars.(src).(var_idx)

let rec find_slot names name i =
  if i >= max_vars then -1
  else if String.equal names.(i) name then i
  else find_slot names name (i + 1)

let find_var t ~src ~name = find_slot t.vars.(src) name 0

let trace_applied t ~now i =
  match t.sinks with
  | Some s ->
      let src = Pending_arena.src t.pend i in
      Trace.emit s.(0) ~time:now ~pid:t.n
        (Trace.Detector_update
           {
             var = t.vars.(src).(Pending_arena.var_idx t.pend i);
             seq = Pending_arena.seq t.pend i;
           })
  | None -> ()

let trace_occurrence t ~now ~verdict ~sense =
  match t.sinks with
  | Some s ->
      Trace.emit s.(0) ~time:now ~pid:t.n
        (Trace.Detector_occurrence
           { verdict; window_ns = Sim_time.to_ns now - sense })
  | None -> ()

let update t ~src ~var_idx ~value ~seq ~sense =
  {
    Observation.src;
    var = t.vars.(src).(var_idx);
    value = Value.Int value;
    seq;
    sense_time = Sim_time.of_ns sense;
  }

let emitted t = Array.fold_left ( + ) 0 t.seqs

let updates t =
  List.sort
    (fun (a : Observation.update) (b : Observation.update) ->
      let c = Sim_time.compare a.sense_time b.sense_time in
      if c <> 0 then c
      else
        let c = Stdlib.compare (a.src : int) b.src in
        if c <> 0 then c else Stdlib.compare (a.seq : int) b.seq)
    (Array.fold_left (fun acc l -> List.rev_append l acc) [] t.by_group)
