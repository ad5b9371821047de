(* Conservative window-synchronized sharding over per-shard [Engine]s.

   The coordinator alternates two phases:

     window:  every shard drains its queue up to [window_end - 1] on the
              [Psn_util.Parallel] pool; shards share no mutable state —
              cross-shard sends only append to their (src, dst) mailbox
              ring, which no other domain touches during the window;

     barrier: the coordinator (alone) drains every mailbox in src-major,
              dst-minor, FIFO order into the destination queues, then
              computes the next window from the new global minimum.

   The pool's job hand-off (mutex + condition) gives the happens-before
   edges: coordinator-before-window for the mailbox writes of the
   previous drain, window-before-coordinator for the rings written by
   the shards.

   Mailbox ring layout: [stride] ints per message — delivery time,
   destination pid, and [lanes] payload words — in one flat [int array]
   that grows by doubling and is reused across windows, so a
   steady-state cross-shard send writes 9 ints and allocates nothing.
   Each shard's deliveries go through its own [Delivery_pool]: acquired
   by the coordinator at the barrier, released by the shard when they
   fire, never concurrently. *)

type handler = Delivery_pool.handler

let lanes = 7
let stride = lanes + 2 (* at, dst, w0..w6 *)

type mailbox = { mutable buf : int array; mutable len : int (* ints used *) }

type t = {
  k : int;
  lookahead : int; (* ns, > 0 *)
  engines : Engine.t array;
  shard : Delivery_pool.t array; (* one per engine *)
  mail : mailbox array; (* src * k + dst; diagonal entries stay empty *)
  mutable window_end : int; (* exclusive end of the last window run *)
  mutable rounds : int;
  stats : Psn_obs.Shard_stats.t;
      (* host-time window/barrier counters; never feeds a sim artifact *)
}

let create ?(seed = 42L) ~shards ~lookahead () =
  if shards < 1 then invalid_arg "Sharded_engine.create: shards must be >= 1";
  if Sim_time.(lookahead <= Sim_time.zero) then
    invalid_arg
      "Sharded_engine.create: lookahead must be positive — a delay model \
       with Delay_model.min_delay = 0 offers no conservative window and \
       cannot drive a sharded run";
  let engines =
    Array.init shards (fun s ->
        Engine.create
          ~seed:(Int64.add seed (Int64.of_int (s * 0x9E3779B9)))
          ~use_default_obs:false ())
  in
  {
    k = shards;
    lookahead = Sim_time.to_ns lookahead;
    engines;
    shard = Array.map Delivery_pool.create engines;
    mail = Array.init (shards * shards) (fun _ -> { buf = [||]; len = 0 });
    window_end = 0;
    rounds = 0;
    stats =
      Psn_obs.Shard_stats.create ~shards
        ~lookahead_ns:(Sim_time.to_ns lookahead);
  }

let shards t = t.k
let lookahead t = t.lookahead
let engine t s = t.engines.(s)
let windows t = t.rounds
let now t = Engine.now t.engines.(0)
let stats t = t.stats

let set_handler t ~shard h = Delivery_pool.set_handler t.shard.(shard) h

let events_processed t =
  Array.fold_left (fun acc e -> acc + Engine.events_processed e) 0 t.engines

let merged_metrics t =
  Psn_obs.Metrics.merge_snapshots
    (Array.to_list
       (Array.map
          (fun e -> Psn_obs.Metrics.snapshot (Engine.metrics e))
          t.engines))

let post t ~src_shard ~dst_shard ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
  if src_shard = dst_shard then begin
    (* Same shard: schedule directly, exactly as a single-queue engine
       would — this keeps K=1 sharded runs event-for-event identical to
       the oracle.  Runs on the shard's own domain, touching only its
       own pool and queue. *)
    Delivery_pool.schedule t.shard.(src_shard) ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4
      ~w5 ~w6
  end
  else begin
    let box = t.mail.((src_shard * t.k) + dst_shard) in
    let need = box.len + stride in
    if need > Array.length box.buf then begin
      let cap = ref (max (stride * 16) (Array.length box.buf)) in
      while !cap < need do
        cap := !cap * 2
      done;
      let nb = Array.make !cap 0 in
      Array.blit box.buf 0 nb 0 box.len;
      box.buf <- nb
    end;
    let b = box.buf and o = box.len in
    b.(o) <- Sim_time.to_ns at;
    b.(o + 1) <- dst;
    b.(o + 2) <- w0; b.(o + 3) <- w1; b.(o + 4) <- w2; b.(o + 5) <- w3;
    b.(o + 6) <- w4; b.(o + 7) <- w5; b.(o + 8) <- w6;
    box.len <- need;
    (* Shard-local slot of the conservation counter: safe mid-window. *)
    Psn_obs.Shard_stats.note_posted t.stats ~src:src_shard
  end

(* Barrier drain: coordinator only.  Deterministic src-major, dst-minor,
   FIFO-within-box order; every entry must land at or past the window
   end the lookahead promised. *)
let drain t =
  let occupancy = ref 0 in
  for src = 0 to t.k - 1 do
    for dst = 0 to t.k - 1 do
      let box = t.mail.((src * t.k) + dst) in
      if box.len > 0 then begin
        occupancy := !occupancy + box.len;
        Psn_obs.Shard_stats.note_traffic t.stats ~src ~dst
          ~msgs:(box.len / stride);
        let sh = t.shard.(dst) in
        let b = box.buf in
        let o = ref 0 in
        while !o < box.len do
          let at = b.(!o) in
          if at < t.window_end then
            invalid_arg
              (Printf.sprintf
                 "Sharded_engine: lookahead violation — message from shard \
                  %d to shard %d delivered at %dns inside the window ending \
                  at %dns; the transport sampled a delay below the \
                  engine's lookahead bound"
                 src dst at t.window_end);
          Delivery_pool.schedule sh ~at ~dst:b.(!o + 1) ~w0:b.(!o + 2)
            ~w1:b.(!o + 3) ~w2:b.(!o + 4) ~w3:b.(!o + 5) ~w4:b.(!o + 6)
            ~w5:b.(!o + 7) ~w6:b.(!o + 8);
          o := !o + stride
        done;
        box.len <- 0
      end
    done
  done;
  Psn_obs.Shard_stats.note_occupancy t.stats ~ints:!occupancy

let global_next t =
  Array.fold_left
    (fun acc e -> min acc (Engine.next_time_ns e))
    max_int t.engines

let run t ~until =
  let st = t.stats in
  let r0 = Psn_obs.Shard_stats.now_ns () in
  let until_ns = Sim_time.to_ns until in
  let continue = ref true in
  while !continue do
    (* Drain before measuring: the previous window's cross-shard sends —
       and any posts made before the first [run] (initial conditions) —
       must be in the queues for the global minimum to see them. *)
    Psn_obs.Shard_stats.round_begin st;
    let d0 = Psn_obs.Shard_stats.now_ns () in
    Psn_obs.Profile.phase "sharded.drain" (fun () -> drain t);
    let d1 = Psn_obs.Shard_stats.now_ns () in
    Psn_obs.Shard_stats.drain_done st ~host_ns:(d1 - d0);
    let next = global_next t in
    let d2 = Psn_obs.Shard_stats.now_ns () in
    Psn_obs.Shard_stats.fold_done st ~host_ns:(d2 - d1);
    (* Only now — with the rings drained into the queues — is the
       previous window's limit knowable. *)
    Psn_obs.Shard_stats.classify_prev st ~next_ns:next;
    if next > until_ns then begin
      Psn_obs.Shard_stats.round_abort st;
      continue := false
    end
    else begin
      let cand = next + t.lookahead in
      let cand = if cand < next then max_int else cand (* overflow *) in
      let w_end = min cand (until_ns + 1) in
      t.window_end <- w_end;
      Psn_obs.Shard_stats.window_open st ~start_ns:next ~end_ns:w_end;
      let w_last = Sim_time.of_ns (w_end - 1) in
      Psn_obs.Profile.phase "sharded.window" (fun () ->
          ignore
            (Psn_util.Parallel.init t.k (fun s ->
                 let b0 = Psn_obs.Shard_stats.now_ns () in
                 let e = t.engines.(s) in
                 Engine.run ~until:w_last e;
                 (* Writes only slot [s]; the pool join publishes it. *)
                 Psn_obs.Shard_stats.shard_report st ~shard:s
                   ~events_total:(Engine.events_processed e)
                   ~busy_ns:(Psn_obs.Shard_stats.now_ns () - b0))));
      Psn_obs.Shard_stats.window_close st ~clipped:(cand > until_ns + 1)
        ~par_ns:(Psn_obs.Shard_stats.now_ns () - d2);
      t.rounds <- t.rounds + 1
    end
  done;
  (* Align every clock on the horizon (queues hold only events beyond
     it, so this drains nothing). *)
  Array.iter (fun e -> Engine.run ~until e) t.engines;
  Psn_obs.Shard_stats.run_done st
    ~wall_ns:(Psn_obs.Shard_stats.now_ns () - r0)
