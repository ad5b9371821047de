(* A free stack of delivery records, each with its closure allocated
   once.  [d_fire] releases its record before invoking the handler, so
   a re-entrant send can reuse it at once.  Single-writer: only the
   engine's events (or the coordinator between windows) touch a pool. *)

type handler =
  dst:int ->
  w0:int -> w1:int -> w2:int -> w3:int -> w4:int -> w5:int -> w6:int -> unit

type delivery = {
  mutable v_dst : int;
  mutable v0 : int;
  mutable v1 : int;
  mutable v2 : int;
  mutable v3 : int;
  mutable v4 : int;
  mutable v5 : int;
  mutable v6 : int;
  d_fire : unit -> unit;
}

type t = {
  engine : Engine.t;
  mutable handler : handler option;
  mutable pool : delivery array;
  mutable pool_len : int;
}

let create engine = { engine; handler = None; pool = [||]; pool_len = 0 }
let engine t = t.engine
let set_handler t h = t.handler <- Some h

let release t r =
  if t.pool_len = Array.length t.pool then begin
    let np = Array.make (2 * max 4 (Array.length t.pool)) r in
    Array.blit t.pool 0 np 0 t.pool_len;
    t.pool <- np
  end;
  t.pool.(t.pool_len) <- r;
  t.pool_len <- t.pool_len + 1

let acquire t ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
  if t.pool_len = 0 then
    let rec r =
      {
        v_dst = dst;
        v0 = w0; v1 = w1; v2 = w2; v3 = w3; v4 = w4; v5 = w5; v6 = w6;
        d_fire =
          (fun () ->
            let dst = r.v_dst in
            let w0 = r.v0 and w1 = r.v1 and w2 = r.v2 and w3 = r.v3 in
            let w4 = r.v4 and w5 = r.v5 and w6 = r.v6 in
            release t r;
            match t.handler with
            | Some h -> h ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6
            | None -> ());
      }
    in
    r
  else begin
    t.pool_len <- t.pool_len - 1;
    let r = t.pool.(t.pool_len) in
    r.v_dst <- dst;
    r.v0 <- w0; r.v1 <- w1; r.v2 <- w2; r.v3 <- w3;
    r.v4 <- w4; r.v5 <- w5; r.v6 <- w6;
    r
  end

let schedule t ~at ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 =
  let r = acquire t ~dst ~w0 ~w1 ~w2 ~w3 ~w4 ~w5 ~w6 in
  Engine.schedule_at_unit t.engine at r.d_fire
