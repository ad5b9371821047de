(* The one incremental predicate state (callers: see the .mli).  φ is
   compiled once; variables it never reads have no slot and are ignored,
   since binding them cannot change φ.  [apply] returns the previous
   value so race analyses can ask "would φ still hold had that
   concurrent update not been applied?" — the consensus test behind the
   borderline bin.

   Delta evaluation.  [Compiled.holds] re-runs the whole program: O(|φ|)
   per bind, 4n instructions for the hall's Σ(x_i − y_i) > cap.  Once
   every slot holds an Int, a bind instead walks a DAG of cached node
   values from its slot up to the root:

   - a Σ node is a flattened Add/Sub chain (signed slot terms plus a
     constant) keeping its int total: a bind adds coef × (new − old);
   - an ∧/∨ node is a flattened chain counting its true children;
   - Cmp and ¬ nodes recompute from their cached children;
   - the walk stops at the first node whose value did not change.

   Exactness.  [Compiled] folds Σ in floats, in tree order.  With m terms
   of magnitude ≤ L, every partial sum is an integer of magnitude
   ≤ m × L, so when m × L < 2⁵³ every float step is exact and the fold
   equals the int total.  The DAG is therefore used only
   - for a φ that type-checks with every slot Int, has no Mul and no
     String, and whose Σ constants are Int (else [Ineligible]);
   - while every slot holds an Int within [limit] = (2⁵³ − 1) / m_max.
   Under those conditions [Compiled] can neither raise nor disagree.  Any
   other state (an unbound or mistyped slot, a large magnitude, an
   ineligible φ) falls back to [Compiled.holds]; the caches go stale and
   are rebuilt from the environment by the next bind that can use them.

   The DAG is built on the first bind that finds every slot Int, so a
   state that never gets there (a checker without initial values) pays
   only for two counters. *)

module Compiled = Psn_predicates.Compiled
module Expr = Psn_predicates.Expr
module Value = Psn_world.Value

type transition = Rose | Fell | Same

(* Node kinds: 0 slot leaf (node id = slot), 1 constant, 2 Σ, 3 ∧, 4 ∨,
   5 ¬, 6..11 Cmp Eq Ne Lt Le Gt Ge.  Nodes are numbered children first,
   so one pass in id order recomputes them all. *)
type dag = {
  kind : int array;
  parent : int array; (* -1: the root, slot leaves, ∧/∨ constants *)
  left : int array; (* Cmp, ¬: operand *)
  right : int array; (* Cmp: operand; ∧/∨: true children needed *)
  base : int array; (* Σ: constant part; ∧/∨: true constant children *)
  acc : int array; (* Σ: running total; ∧/∨: true children *)
  value : float array; (* [Compiled]'s float lane; bools are 0/1 *)
  occ_start : int array; (* slot s feeds occ_node.(occ_start.(s) ..) *)
  occ_node : int array;
  occ_coef : int array; (* signed coefficient into a Σ parent, else 0 *)
  root : int;
  limit : int;
}

type index = Unbuilt | Ineligible | Built of dag

type t = {
  predicate : Expr.t;
  prog : Compiled.t;
  env : Compiled.env;
  mutable holds : bool;
  mutable non_int : int; (* slots unbound or holding a non-Int *)
  mutable wide : int; (* Int slots beyond the DAG's limit (once Built) *)
  mutable index : index;
  mutable fresh : bool;
      (* the DAG's caches match [env]: implies Built, non_int = 0 and
         wide = 0, which only a slow-path store (clearing it) can undo *)
  mutable fallbacks : int;
}

exception Not_eligible

type proto = { k : int; l : int; r : int; b : int; v : float; kids : int list }

let build prog predicate =
  let nslots = Compiled.nvars prog in
  let protos = ref [] and next = ref nslots in
  (* (slot, parent, coefficient) triples *)
  let occs = Psn_util.Vec.create ~dummy:0 () in
  let occur s p c =
    Psn_util.Vec.push occs s;
    Psn_util.Vec.push occs p;
    Psn_util.Vec.push occs c
  in
  let max_terms = ref 0 and max_const = ref 0 in
  let add ?(l = -1) ?(r = -1) ?(b = 0) ?(v = 0.0) ?(kids = []) k =
    protos := { k; l; r; b; v; kids } :: !protos;
    incr next;
    !next - 1
  in
  (* [node e] is (id, e is boolean); anything [Compiled] could reject
     with every slot Int, or that Σ cannot total exactly, is refused. *)
  let rec node = function
    | Expr.Var v -> (Compiled.slot prog v, false)
    | Expr.Const (Value.Int x) -> (add ~v:(float_of_int x) 1, false)
    | Expr.Const (Value.Float f) -> (add ~v:f 1, false)
    | Expr.Const (Value.Bool c) -> (add ~v:(if c then 1.0 else 0.0) 1, true)
    | Expr.Const (Value.String _) | Expr.Arith (Expr.Mul, _, _) ->
        raise Not_eligible
    | Expr.Not e ->
        let c = boolean e in
        (add ~l:c ~kids:[ c ] 5, true)
    | Expr.And _ as e -> chain true e
    | Expr.Or _ as e -> chain false e
    | Expr.Cmp (op, a, b) ->
        let ca, ta = node a in
        let cb, tb = node b in
        if ta <> tb then raise Not_eligible;
        let op =
          match op with
          | Expr.Eq -> 6 | Ne -> 7 | Lt -> 8 | Le -> 9 | Gt -> 10 | Ge -> 11
        in
        let id =
          add ~l:ca ~r:cb
            ~kids:(List.filter (fun c -> c >= nslots) [ ca; cb ])
            op
        in
        if ca < nslots then occur ca id 0;
        if cb < nslots then occur cb id 0;
        (id, true)
    | Expr.Arith _ as e -> (sum e, false)
  and boolean e =
    match node e with c, true -> c | _ -> raise Not_eligible
  (* ∧ ([all]) or ∨ chain: constants count into [base], at most one
     true child is needed for ∨, every child for ∧. *)
  and chain all e =
    let kids = ref [] and base = ref 0 and width = ref 0 in
    let rec walk = function
      | [] -> ()
      | Expr.And (a, b) :: rest when all -> walk (a :: b :: rest)
      | Expr.Or (a, b) :: rest when not all -> walk (a :: b :: rest)
      | Expr.Const (Value.Bool c) :: rest ->
          incr width;
          if c then incr base;
          walk rest
      | e :: rest ->
          incr width;
          kids := boolean e :: !kids;
          walk rest
    in
    walk [ e ];
    (add ~r:(if all then !width else 1) ~b:!base ~kids:!kids
       (if all then 3 else 4), true)
  (* Σ's terms are only slots and constants, so no node is added while
     walking it and its id is already known.  The walk loops down the
     left operand, where [Expr.sum] puts the rest of the chain. *)
  and sum e =
    let id = !next and konst = ref 0 and m = ref 0 in
    let rec walk e sg =
      match e with
      | Expr.Arith (Expr.Add, a, b) ->
          walk b sg;
          walk a sg
      | Expr.Arith (Expr.Sub, a, b) ->
          walk b (-sg);
          walk a sg
      | Expr.Var v ->
          incr m;
          occur (Compiled.slot prog v) id sg
      | Expr.Const (Value.Int x) when x <> min_int ->
          incr m;
          konst := !konst + (sg * x);
          max_const := max !max_const (abs x)
      | _ -> raise Not_eligible
    in
    walk e 1;
    max_terms := max !max_terms !m;
    add ~b:!konst 2
  in
  let root = boolean predicate in
  let limit =
    if !max_terms = 0 then max_int else ((1 lsl 53) - 1) / !max_terms
  in
  if !max_const > limit then raise Not_eligible;
  let n = !next and nocc = Psn_util.Vec.length occs / 3 in
  let d =
    {
      kind = Array.make n 0;
      parent = Array.make n (-1);
      left = Array.make n (-1);
      right = Array.make n (-1);
      base = Array.make n 0;
      acc = Array.make n 0;
      value = Array.make n 0.0;
      occ_start = Array.make (nslots + 1) 0;
      occ_node = Array.make nocc 0;
      occ_coef = Array.make nocc 0;
      root;
      limit;
    }
  in
  List.iteri
    (fun i p ->
      let id = n - 1 - i in
      d.kind.(id) <- p.k;
      d.left.(id) <- p.l;
      d.right.(id) <- p.r;
      d.base.(id) <- p.b;
      d.value.(id) <- p.v;
      List.iter (fun c -> d.parent.(c) <- id) p.kids)
    !protos;
  for i = 0 to nocc - 1 do
    let s = Psn_util.Vec.get occs (3 * i) in
    d.occ_start.(s + 1) <- d.occ_start.(s + 1) + 1
  done;
  for s = 1 to nslots do
    d.occ_start.(s) <- d.occ_start.(s) + d.occ_start.(s - 1)
  done;
  let fill = Array.sub d.occ_start 0 nslots in
  for i = 0 to nocc - 1 do
    let s = Psn_util.Vec.get occs (3 * i) in
    d.occ_node.(fill.(s)) <- Psn_util.Vec.get occs ((3 * i) + 1);
    d.occ_coef.(fill.(s)) <- Psn_util.Vec.get occs ((3 * i) + 2);
    fill.(s) <- fill.(s) + 1
  done;
  d

(* Recompute node [p] from its children's cached values and its own acc;
   [true] when its value changed.  (Storing the value here, rather than
   returning it, keeps the float unboxed.) *)
let refresh d p =
  let v =
    match d.kind.(p) with
    | 0 | 1 -> d.value.(p)
    | 2 -> float_of_int d.acc.(p)
    | 3 | 4 -> if d.acc.(p) >= d.right.(p) then 1.0 else 0.0
    | 5 -> if d.value.(d.left.(p)) = 0.0 then 1.0 else 0.0
    | op ->
        let c = Float.compare d.value.(d.left.(p)) d.value.(d.right.(p)) in
        let r =
          match op with
          | 6 -> c = 0
          | 7 -> c <> 0
          | 8 -> c < 0
          | 9 -> c <= 0
          | 10 -> c > 0
          | _ -> c >= 0
        in
        if r then 1.0 else 0.0
  in
  v <> d.value.(p)
  && begin
       d.value.(p) <- v;
       true
     end

(* Recompute [p]; while its value changes, move it into its parent. *)
let rec climb d p =
  if refresh d p then begin
    let q = d.parent.(p) in
    if q >= 0 then begin
      let k = d.kind.(q) in
      if k = 3 || k = 4 then
        d.acc.(q) <- (d.acc.(q) + if d.value.(p) <> 0.0 then 1 else -1);
      climb d q
    end
  end

(* Slot [s] moved from [old] to [x]: update its leaf, its Σ totals, and
   the paths above them. *)
let shift d s old x =
  d.value.(s) <- float_of_int x;
  let delta = x - old in
  for k = d.occ_start.(s) to d.occ_start.(s + 1) - 1 do
    let p = d.occ_node.(k) in
    d.acc.(p) <- d.acc.(p) + (d.occ_coef.(k) * delta);
    climb d p
  done

(* Every cache from the environment (all slots Int), children first. *)
let recompute d env =
  let nslots = Array.length d.occ_start - 1 in
  Array.blit d.base 0 d.acc 0 (Array.length d.acc);
  for s = 0 to nslots - 1 do
    let x = Compiled.get_int env s in
    d.value.(s) <- float_of_int x;
    for k = d.occ_start.(s) to d.occ_start.(s + 1) - 1 do
      let p = d.occ_node.(k) in
      d.acc.(p) <- d.acc.(p) + (d.occ_coef.(k) * x)
    done
  done;
  for p = nslots to Array.length d.kind - 1 do
    ignore (refresh d p);
    let q = d.parent.(p) in
    if q >= 0 && d.value.(p) <> 0.0 && (d.kind.(q) = 3 || d.kind.(q) = 4) then
      d.acc.(q) <- d.acc.(q) + 1
  done

let within d x = x <= d.limit && x >= -d.limit
let beyond t x = match t.index with Built d -> not (within d x) | _ -> false

(* Take slot [s]'s current binding out of the counters. *)
let forget t s =
  if not (Compiled.is_int t.env s) then t.non_int <- t.non_int - 1
  else if beyond t (Compiled.get_int t.env s) then t.wide <- t.wide - 1

(* The slow-path stores: keep the counters, mark the caches stale. *)
let store_int t s x =
  forget t s;
  Compiled.set_int t.env s x;
  if beyond t x then t.wide <- t.wide + 1;
  t.fresh <- false

let store t s = function
  | Value.Int x -> store_int t s x
  | v ->
      forget t s;
      Compiled.set t.env s v;
      t.non_int <- t.non_int + 1;
      t.fresh <- false

(* φ from the DAG — building it, or refreshing its caches, when the state
   allows — else from a full [Compiled] run. *)
let evaluate t =
  (match t.index with
  | Unbuilt when t.non_int = 0 -> (
      match build t.prog t.predicate with
      | d ->
          t.index <- Built d;
          for s = 0 to Compiled.nvars t.prog - 1 do
            if not (within d (Compiled.get_int t.env s)) then
              t.wide <- t.wide + 1
          done
      | exception Not_eligible -> t.index <- Ineligible)
  | Unbuilt | Ineligible | Built _ -> ());
  match t.index with
  | Built d when t.non_int = 0 && t.wide = 0 ->
      if not t.fresh then begin
        recompute d t.env;
        t.fresh <- true
      end;
      d.value.(d.root) <> 0.0
  | _ ->
      t.fallbacks <- t.fallbacks + 1;
      Compiled.holds t.prog t.env

let create ?(init = []) predicate =
  let prog = Compiled.compile predicate in
  let t =
    {
      predicate;
      prog;
      env = Compiled.create_env prog;
      holds = false;
      non_int = Compiled.nvars prog;
      wide = 0;
      index = Unbuilt;
      fresh = false;
      fallbacks = 0;
    }
  in
  List.iter
    (fun (v, value) ->
      let s = Compiled.slot prog v in
      if s >= 0 then store t s value)
    init;
  t.holds <- Compiled.holds prog t.env;
  t

let holds t = t.holds
let slot t v = Compiled.slot t.prog v
let fallbacks t = t.fallbacks

let commit t now_holds =
  let was = t.holds in
  t.holds <- now_holds;
  if now_holds = was then Same else if now_holds then Rose else Fell

let bind_int t s x =
  match t.index with
  | Built d when t.fresh && within d x ->
      let old = Compiled.get_int t.env s in
      Compiled.set_int t.env s x;
      shift d s old x;
      commit t (d.value.(d.root) <> 0.0)
  | _ ->
      store_int t s x;
      commit t (evaluate t)

let bind t s = function
  | Value.Int x -> bind_int t s x
  | v ->
      store t s v;
      commit t (evaluate t)

let apply t (u : Observation.update) =
  let s = slot t (Observation.located u) in
  if s < 0 then (Same, None)
  else
    let prev = Compiled.get t.env s in
    (bind t s u.value, prev)

let set_opt t s = function
  | Some v -> Compiled.set t.env s v
  | None -> Compiled.clear t.env s

(* Evaluate φ with one variable temporarily overridden ([None] = unbound).
   On the fast path the DAG moves there and back; otherwise the slot is
   restored, even when φ raises, and the counters and caches — which
   describe the committed state — are never touched. *)
let eval_with_override t ~var ~value =
  let s = slot t var in
  match (t.index, value) with
  | _ when s < 0 -> evaluate t
  | Built d, Some (Value.Int x) when t.fresh && within d x ->
      let old = Compiled.get_int t.env s in
      Compiled.set_int t.env s x;
      shift d s old x;
      let r = d.value.(d.root) <> 0.0 in
      Compiled.set_int t.env s old;
      shift d s x old;
      r
  | _ ->
      let saved = Compiled.get t.env s in
      set_opt t s value;
      t.fallbacks <- t.fallbacks + 1;
      Fun.protect
        ~finally:(fun () -> set_opt t s saved)
        (fun () -> Compiled.holds t.prog t.env)
