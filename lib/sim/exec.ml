(* One workload, two substrates: a single-queue oracle engine, or a
   window-synchronized [Sharded_engine].  The single path shares the
   shards' delivery mechanics ([Delivery_pool]: pooled records, flat
   lanes, one global handler) so the only difference between substrates is where events
   queue — which is exactly what the differential suite wants to vary.

   Workload determinism contract (what makes same-seed runs identical
   across substrates): derive every entity's RNG stream from
   [(seed, entity id)], never from an engine's own generator; keep each
   group's mutable state group-local; and make cross-group observables
   insensitive to equal-time arrival order (sort on substrate-invariant
   keys before acting). *)

type handler = Sharded_engine.handler

type kind = Single of Delivery_pool.t | Sharded of Sharded_engine.t

type t = { kind : kind; t_seed : int64 }

let single ?(seed = 42L) () =
  {
    kind =
      Single
        (Delivery_pool.create (Engine.create ~seed ~use_default_obs:false ()));
    t_seed = seed;
  }

let sharded ?(seed = 42L) ~shards ~lookahead () =
  { kind = Sharded (Sharded_engine.create ~seed ~shards ~lookahead ()); t_seed = seed }

let seed t = t.t_seed

let shards t =
  match t.kind with Single _ -> 1 | Sharded se -> Sharded_engine.shards se

let is_sharded t = match t.kind with Single _ -> false | Sharded _ -> true

let lookahead t =
  match t.kind with
  | Single _ -> Sim_time.zero
  | Sharded se -> Sharded_engine.lookahead se

let engine t ~group =
  match t.kind with
  | Single s -> Delivery_pool.engine s
  | Sharded se -> Sharded_engine.engine se (group mod Sharded_engine.shards se)

let set_handler t h =
  match t.kind with
  | Single s -> Delivery_pool.set_handler s h
  | Sharded se ->
      for sh = 0 to Sharded_engine.shards se - 1 do
        Sharded_engine.set_handler se ~shard:sh h
      done

let post t ~src_group ~dst_group ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
  match t.kind with
  | Single s -> Delivery_pool.schedule s ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6
  | Sharded se ->
      let k = Sharded_engine.shards se in
      Sharded_engine.post se ~src_shard:(src_group mod k)
        ~dst_shard:(dst_group mod k) ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6

let run t ~until =
  match t.kind with
  | Single s -> Engine.run ~until (Delivery_pool.engine s)
  | Sharded se -> Sharded_engine.run se ~until

let events_processed t =
  match t.kind with
  | Single s -> Engine.events_processed (Delivery_pool.engine s)
  | Sharded se -> Sharded_engine.events_processed se

let windows t =
  match t.kind with Single _ -> 0 | Sharded se -> Sharded_engine.windows se

let single_metrics s =
  Psn_obs.Metrics.snapshot (Engine.metrics (Delivery_pool.engine s))

let merged_metrics t =
  match t.kind with
  | Single s -> single_metrics s
  | Sharded se -> Sharded_engine.merged_metrics se

let stats t =
  match t.kind with
  | Single _ -> None
  | Sharded se -> Some (Sharded_engine.stats se)

let shard_snapshots t =
  match t.kind with
  | Single s -> [| single_metrics s |]
  | Sharded se ->
      Array.init (Sharded_engine.shards se) (fun s ->
          Psn_obs.Metrics.snapshot (Engine.metrics (Sharded_engine.engine se s)))
