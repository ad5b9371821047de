(* Physical-stamp hold-back checker, written once against [Exec] so the
   single-queue oracle and the sharded engine execute the same
   construction (see the .mli for the determinism argument).

   The sensor -> checker leg (clocks, wire packing, ground truth,
   hold-back intake, flush schedule) is [Uplink]'s; this module adds
   the causal frontier, the evaluator backends, and the race bin.

   Cross-domain discipline, beyond [Uplink]'s:

     - vector clocks, stamp planes, and sub-checker state (pending
       arena, residual [Checker_state]) are written only by
       events of that group, which the substrate runs on one shard (one
       domain at a time);
     - the verdict tree, edge queues, and occurrence list are written
       only by checker events (shard 0);
     - the checker reads plane stamps only at delivery, which the
       window barrier places at least one happens-before edge after
       the source wrote them.  A source shard may grow its plane
       concurrently with a checker read of an older stamp; growth
       blits, so every stamp from before the barrier is visible
       whichever backing array the read lands on, and the live length
       only grows, so the handle check cannot spuriously fail.

   Checker backends: see the .mli.  [Partitioned] mirrors each arrival
   to its group's sub-checker, which replays the central hold-back
   schedule on its own shard over the compiled residual of the group's
   conjuncts and publishes only rising/falling verdict *edges* over the
   raw channel; the checker folds them through a flat AND-combining
   tree, so an applied update costs O(group residual + log groups).

   Partitioned timing (P = flush_period, H = hold, in ns):

     - the checker flushes at k*P and applies arrivals with
       recv <= k*P - H;
     - group g's sub-checker flushes at F_k = k*P - H + 1 and applies
       arrivals with recv <= F_k - 1 = k*P - H — the same batch
       restricted to group g, in the same (stamp, src, seq) order, so
       its edge stream per flush matches the central batch exactly;
     - edges post at k*P - 1: they arrive after every source's
       F_k-time events and before the k*P flush, and the post spans
       (k*P - 1) - F_k = H - 2 >= lookahead (admission requires
       H >= min_delay + 2), which satisfies the mailbox rings'
       conservative-window contract on any shard count.

   Mirrors reuse the uplink send's delay draw, so the sub-checker sees
   exactly the arrivals the checker sees; raw-channel events emit no
   trace records or transport metrics, so trace bytes match across
   backends.

   Semantic note: [Partitioned] evaluates every group's residual, where
   the central evaluators short-circuit across groups.  Verdicts agree
   (AND is total over safe-false conjuncts), but a predicate whose
   *typability* depends on cross-group short-circuiting (a false
   conjunct masking a type error in a later group) would raise here.
   Detector updates are int-valued, so residuals of admitted
   conjunctive predicates cannot hit this. *)

module Engine = Psn_sim.Engine
module Exec = Psn_sim.Exec
module Sim_time = Psn_sim.Sim_time
module Trace = Psn_obs.Trace
module Metrics = Psn_obs.Metrics
module Expr = Psn_predicates.Expr
module Value = Psn_world.Value
module Vector_clock = Psn_clocks.Vector_clock
module Stamp_plane = Psn_clocks.Stamp_plane
module Shard_net = Psn_network.Shard_net

type cfg = {
  n : int;
  groups : int;
  group_of : int -> int;
  eps : Sim_time.t;
  hold : Sim_time.t;
  flush_period : Sim_time.t;
  causal_stamps : bool;
}

type checker = Interp | Compiled | Partitioned | Auto

(* Per-group verdict-edge queue, checker-local.  Four int lanes per
   edge: stamp, src, seq (the applied update that flipped the group
   verdict) and the new verdict.  FIFO; resets to offset 0 whenever it
   drains, so steady state never grows. *)
type edge_queue = {
  mutable eq_buf : int array;
  mutable eq_head : int;
  mutable eq_len : int;
}

let edge_stride = 4

let push_edge eq ~stamp ~src ~seq ~verdict =
  if eq.eq_head = eq.eq_len then begin
    eq.eq_head <- 0;
    eq.eq_len <- 0
  end;
  let need = eq.eq_len + edge_stride in
  if need > Array.length eq.eq_buf then begin
    let cap = ref (max (edge_stride * 16) (Array.length eq.eq_buf)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Array.make !cap 0 in
    Array.blit eq.eq_buf 0 nb 0 eq.eq_len;
    eq.eq_buf <- nb
  end;
  let b = eq.eq_buf and o = eq.eq_len in
  b.(o) <- stamp;
  b.(o + 1) <- src;
  b.(o + 2) <- seq;
  b.(o + 3) <- verdict;
  eq.eq_len <- o + edge_stride

let edge_at_head eq ~stamp ~src ~seq =
  eq.eq_head < eq.eq_len
  && eq.eq_buf.(eq.eq_head) = stamp
  && eq.eq_buf.(eq.eq_head + 1) = src
  && eq.eq_buf.(eq.eq_head + 2) = seq

let pop_edge eq =
  let v = eq.eq_buf.(eq.eq_head + 3) in
  eq.eq_head <- eq.eq_head + edge_stride;
  if eq.eq_head = eq.eq_len then begin
    eq.eq_head <- 0;
    eq.eq_len <- 0
  end;
  v

(* Group sub-checker: the residual of the group's conjuncts as a
   [Checker_state] (its [holds] is the group verdict) plus a local
   hold-back arena mirroring the checker's.  Group-local. *)
type sub = {
  sub_state : Checker_state.t;
  sub_slots : int array; (* (src, var_idx) -> slot; -2 unknown *)
  sub_pend : Pending_arena.t;
}

type impl =
  | Interp_impl of {
      env : (Expr.var, Value.t) Hashtbl.t;
      env_fn : Expr.var -> Value.t option; (* hoisted: one closure, ever *)
    }
  | Compiled_impl of {
      state : Checker_state.t;
      slots : int array; (* (src, var_idx) -> slot; -2 unknown *)
    }
  | Partitioned_impl of {
      tree : Verdict_tree.t;
      edges : edge_queue array;    (* per group; checker-local *)
      subs : sub option array;     (* per group; group-local *)
      c_edges : Metrics.counter array; (* per group *)
    }

type t = {
  cfg : cfg;
  up : Uplink.t;
  vclocks : Vector_clock.t array;       (* causal_stamps only *)
  planes : Stamp_plane.t array;         (* per group; causal_stamps only *)
  checker_vc : Vector_clock.t option;
  pend : Pending_arena.t;               (* = Uplink.pending up *)
  predicate : Expr.t;
  impl : impl;
  mutable holds : bool;
  mutable occs : Occurrence.t list;     (* newest first *)
  c_occurrences : Metrics.counter;
}

(* Lazily memoized (src, var_idx) -> [Checker_state] slot.  The name
   table is written at the source's first emit; both the sub-checker
   (same shard) and the checker (after a barrier) read it only for
   updates that were emitted, so the entry is always populated. *)
let memo_slot slots up state ~src ~var_idx =
  let key = (src * Uplink.max_vars) + var_idx in
  let s = slots.(key) in
  if s <> -2 then s
  else begin
    let s =
      Checker_state.slot state
        { Expr.name = Uplink.var_name up ~src ~var_idx; loc = src }
    in
    slots.(key) <- s;
    s
  end

(* Virtual raw-channel addresses, past the transport's pid range
   [0 .. n] (sources plus checker). *)
let sub_addr cfg g = cfg.n + 1 + g
let edge_addr cfg g = cfg.n + 1 + cfg.groups + g

let create ?loss ?sinks ?(checker = Auto) ?arena exec ~cfg ~delay ~predicate () =
  Psn_obs.Profile.phase "detector.setup" @@ fun () ->
  let up =
    Uplink.create ~who:"Sharded_detector" ?loss ?sinks ?arena exec
      ~label:"detector" ~counter:"sharded_detector.updates" ~n:cfg.n
      ~groups:cfg.groups ~group_of:cfg.group_of ~eps:cfg.eps ~hold:cfg.hold
      ~flush_period:cfg.flush_period ~delay
  in
  let n = cfg.n in
  let net = Uplink.net up in
  let planes =
    if cfg.causal_stamps then
      Array.init cfg.groups (fun _ -> Stamp_plane.create ~n:(n + 1) ())
    else [||]
  in
  let vclocks =
    if cfg.causal_stamps then
      Array.init n (fun pid -> Vector_clock.create ~n:(n + 1) ~me:pid)
    else [||]
  in
  let c_occurrences =
    Metrics.counter
      (Engine.metrics (Exec.engine exec ~group:0))
      "sharded_detector.occurrences"
  in
  let hold_ns = Sim_time.to_ns cfg.hold in
  let period_ns = Sim_time.to_ns cfg.flush_period in
  (* Partitioned admission, from substrate-invariant configuration only
     (never from the shard count or the engine's lookahead, which would
     let the oracle and a sharded run pick different backends): the
     predicate decomposes into per-source conjuncts, and the hold-back
     leaves room for the edge protocol's H - 2 post span to cover the
     transport's minimum delay — the largest lookahead any engine this
     transport can legally run on would promise. *)
  let conj = Expr.conjuncts predicate in
  let min_delay_ns = Sim_time.to_ns (Psn_sim.Delay_model.min_delay delay) in
  let partitionable =
    match conj with
    | Some parts ->
        List.for_all (fun (loc, _) -> loc >= 0 && loc < n) parts
        && hold_ns >= min_delay_ns + 2
    | None -> false
  in
  let mode =
    match checker with
    | Interp -> `Interp
    | Compiled -> `Compiled
    | Partitioned ->
        if not partitionable then
          invalid_arg
            "Sharded_detector.create: Partitioned needs a conjunctive \
             predicate over in-range locations and hold >= min_delay + 2";
        `Partitioned
    | Auto -> if partitionable then `Partitioned else `Compiled
  in
  let impl =
    match mode with
    | `Interp ->
        let env = Hashtbl.create 64 in
        Interp_impl { env; env_fn = Hashtbl.find_opt env }
    | `Compiled ->
        Compiled_impl
          {
            state = Checker_state.create predicate;
            slots = Array.make (n * Uplink.max_vars) (-2);
          }
    | `Partitioned ->
        let parts = Option.get conj in
        let residuals = Array.make cfg.groups None in
        List.iter
          (fun (loc, c) ->
            let g = cfg.group_of loc in
            residuals.(g) <-
              (match residuals.(g) with
              | None -> Some c
              | Some acc -> Some (Expr.And (acc, c))))
          parts;
        let subs =
          Array.map
            (fun residual ->
              match residual with
              | None -> None
              | Some r ->
                  Some
                    {
                      sub_state = Checker_state.create r;
                      sub_slots = Array.make (n * Uplink.max_vars) (-2);
                      sub_pend = Pending_arena.create ();
                    })
            residuals
        in
        let init_leaves =
          Array.map
            (function
              | Some s -> Checker_state.holds s.sub_state | None -> true)
            subs
        in
        let tree = Verdict_tree.create ~leaves:cfg.groups init_leaves in
        let edges =
          Array.init cfg.groups (fun _ ->
              { eq_buf = [||]; eq_head = 0; eq_len = 0 })
        in
        let c_edges =
          Array.init cfg.groups (fun g ->
              Metrics.counter
                (Engine.metrics (Exec.engine exec ~group:g))
                "sharded_detector.edges")
        in
        Partitioned_impl { tree; edges; subs; c_edges }
  in
  let t =
    {
      cfg;
      up;
      vclocks;
      planes;
      checker_vc =
        (if cfg.causal_stamps then Some (Vector_clock.create ~n:(n + 1) ~me:n)
         else None);
      pend = Uplink.pending up;
      predicate;
      impl;
      holds = false;
      occs = [];
      c_occurrences;
    }
  in
  (* Checker delivery: buffer with the arrival time; applied at flush. *)
  Shard_net.set_handler net n (fun ~src ~a ~b ~c ~d ~e ->
      (match t.checker_vc with
      | Some vc when e >= 0 ->
          Vector_clock.receive_from t.planes.(cfg.group_of src) vc e
      | _ -> ());
      Uplink.deliver up ~src ~a ~b ~c ~d);
  (* Partitioned plumbing: the raw channel carries update mirrors to the
     group sub-checkers and verdict edges back to the checker. *)
  (match t.impl with
  | Partitioned_impl p ->
      Shard_net.set_raw_handler net (fun ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ->
          if dst >= edge_addr cfg 0 then begin
            (* Verdict edge; runs on the checker's shard. *)
            let g = dst - edge_addr cfg 0 in
            push_edge p.edges.(g) ~stamp:w0 ~src:w1 ~seq:w2 ~verdict:w3
          end
          else begin
            (* Update mirror; runs on the source group's shard. *)
            let g = dst - sub_addr cfg 0 in
            match p.subs.(g) with
            | Some sub ->
                Uplink.deliver_mirror sub.sub_pend
                  ~now:(Engine.now (Exec.engine exec ~group:g))
                  ~w0 ~w1 ~w2 ~w3 ~w4
            | None -> ()
          end);
      (* Sub-checker flushes at F_k = k*P - H + 1 replay the central
         hold-back schedule one tick early, so each flush's edges can
         post at k*P - 1 — before the checker's k*P flush and H - 2
         past the flush itself. *)
      let k0 = max 1 ((hold_ns + period_ns - 1) / period_ns) in
      let start = Sim_time.of_ns (((k0 * period_ns) - hold_ns) + 1) in
      Array.iteri
        (fun g sub_opt ->
          match sub_opt with
          | None -> ()
          | Some sub ->
              Uplink.flush_every (Exec.engine exec ~group:g) sub.sub_pend
                ~start ~period:cfg.flush_period ~lag:1 (fun ~now m ->
                  let now_ns = Sim_time.to_ns now in
                  let st = sub.sub_state in
                  for i = 0 to m - 1 do
                    let src = Pending_arena.src sub.sub_pend i in
                    let var_idx = Pending_arena.var_idx sub.sub_pend i in
                    let slot = memo_slot sub.sub_slots up st ~src ~var_idx in
                    if slot >= 0 then begin
                      match
                        Checker_state.bind_int st slot
                          (Pending_arena.value sub.sub_pend i)
                      with
                      | Checker_state.Same -> ()
                      | Checker_state.Rose | Checker_state.Fell ->
                          Metrics.tick p.c_edges.(g);
                          Shard_net.post_raw net ~src_group:g ~dst_group:0
                            ~at:(Sim_time.of_ns (now_ns + hold_ns - 2))
                            ~dst:(edge_addr cfg g)
                            ~w0:(Pending_arena.stamp sub.sub_pend i)
                            ~w1:src
                            ~w2:(Pending_arena.seq sub.sub_pend i)
                            ~w3:(if Checker_state.holds st then 1 else 0)
                            ~w4:0
                    end
                  done))
        p.subs
  | _ -> ());
  (* The uplink's flush: substrate-invariant receive times give the
     batch content, the arena's (stamp, src, seq) sort its order. *)
  Uplink.start_flush up (fun ~now m ->
    let two_eps = 2 * Sim_time.to_ns cfg.eps in
    for i = 0 to m - 1 do
      let src = Pending_arena.src t.pend i in
      let seq = Pending_arena.seq t.pend i in
      let var_idx = Pending_arena.var_idx t.pend i in
      let value = Pending_arena.value t.pend i in
      let stamp = Pending_arena.stamp t.pend i in
      Uplink.trace_applied up ~now i;
      let now_holds =
        match t.impl with
        | Interp_impl { env; env_fn } ->
            Hashtbl.replace env
              { Expr.name = Uplink.var_name up ~src ~var_idx; loc = src }
              (Value.Int value);
            Expr.holds ~env:env_fn t.predicate
        | Compiled_impl { state; slots } ->
            let slot = memo_slot slots up state ~src ~var_idx in
            if slot >= 0 then ignore (Checker_state.bind_int state slot value);
            Checker_state.holds state
        | Partitioned_impl { tree; edges; _ } ->
            let g = cfg.group_of src in
            let eq = edges.(g) in
            if edge_at_head eq ~stamp ~src ~seq then
              Verdict_tree.set tree g (pop_edge eq = 1);
            Verdict_tree.root tree
      in
      if now_holds && not t.holds then begin
        (* Race bin: an adjacent applied update from another
           process within the clock sync uncertainty could
           reorder the rise. *)
        let raced j =
          j >= 0 && j < m
          && Pending_arena.src t.pend j <> src
          && abs (Pending_arena.stamp t.pend j - stamp) < two_eps
        in
        let verdict =
          if raced (i - 1) || raced (i + 1) then Occurrence.Borderline
          else Occurrence.Positive
        in
        Metrics.tick t.c_occurrences;
        let sense = Pending_arena.sense t.pend i in
        Uplink.trace_occurrence up ~now ~sense
          ~verdict:
            (match verdict with
            | Occurrence.Positive -> "detect"
            | Occurrence.Borderline -> "borderline");
        let u = Uplink.update up ~src ~var_idx ~value ~seq ~sense in
        t.occs <-
          { Occurrence.detect_time = now; trigger = u; verdict } :: t.occs
      end;
      t.holds <- now_holds
    done);
  t

let net t = Uplink.net t.up

let checker_kind t =
  match t.impl with
  | Interp_impl _ -> Interp
  | Compiled_impl _ -> Compiled
  | Partitioned_impl _ -> Partitioned

(* Constant record: shared by every emit, never allocated. *)
let physical_tick = Trace.Clock_tick { clock = "physical" }

let emit t ~src ~var ~value =
  let var_idx = Uplink.intern t.up ~src ~var in
  let g = t.cfg.group_of src in
  let vh =
    if t.cfg.causal_stamps then
      Vector_clock.tick_into t.planes.(g) t.vclocks.(src)
    else -1
  in
  (* Surviving arrivals are mirrored into the group's sub-checker at the
     same delivery time. *)
  let mirror =
    match t.impl with
    | Partitioned_impl { subs; _ } when Option.is_some subs.(g) ->
        sub_addr t.cfg g
    | _ -> -1
  in
  Uplink.send t.up ~src ~var ~var_idx ~value ~vh ~clock:physical_tick ~mirror

let updates t = Uplink.updates t.up

let occurrences t = List.rev t.occs

let frontier t =
  match t.checker_vc with Some vc -> Some (Vector_clock.read vc) | None -> None

let plane t ~group =
  if t.cfg.causal_stamps then Some t.planes.(group) else None
