(* In-memory span recorder for the traced run.

   A span is one call into a layer: name, host start and end, the span
   that enclosed it, and the run it belongs to, plus the GC work done
   inside it.  Spans stay in memory until the benchmark prints them at
   exit.  With tracing off the pipeline passes [None] and [span] is a
   plain call, so untraced runs pay nothing but the closure. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  run : int;
  name : string;
  start_ns : int;
  mutable end_ns : int;
  mutable minor_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

type t = {
  mutable spans : span list;  (** closed spans, newest first *)
  mutable stack : span list;  (** open spans, innermost first *)
  mutable next_id : int;
  mutable run : int;
}

let create () = { spans = []; stack = []; next_id = 0; run = 0 }

let new_run t = t.run <- t.run + 1

let with_span t name f =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let g0 = Gc.quick_stat () in
  let s =
    {
      id = t.next_id;
      parent;
      run = t.run;
      name;
      start_ns = now_ns ();
      end_ns = 0;
      minor_words = 0.;
      minor_gcs = 0;
      major_gcs = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  let close () =
    s.end_ns <- now_ns ();
    let g1 = Gc.quick_stat () in
    s.minor_words <- g1.minor_words -. g0.minor_words;
    s.minor_gcs <- g1.minor_collections - g0.minor_collections;
    s.major_gcs <- g1.major_collections - g0.major_collections;
    t.stack <- List.tl t.stack;
    t.spans <- s :: t.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let span tr name f = match tr with None -> f () | Some t -> with_span t name f

(* Closed spans in start order. *)
let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

(* Duration minus the time its direct children cover.  Children of one
   span run one after another on one domain, so they never overlap and
   their durations can simply be summed. *)
let self_ns all s =
  let covered =
    List.fold_left
      (fun acc c -> if c.parent = s.id then acc + (c.end_ns - c.start_ns) else acc)
      0 all
  in
  s.end_ns - s.start_ns - covered
