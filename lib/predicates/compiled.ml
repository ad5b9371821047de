(* Flat-bytecode predicate evaluator.

   [Expr.eval] walks the tree with a closure-based environment: one
   [Hashtbl] probe per variable, a [Value] box per intermediate result,
   and a closure invocation per node.  On the checker's hot path that
   tree walk runs once per applied update, so this module compiles an
   expression once into a postfix instruction array over int-indexed
   variable slots and evaluates it with a pc/sp loop over parallel
   unboxed stacks — no lookup, no allocation, no closures.

   The interpreter stays the differential oracle: the compiled program
   replays its exact operand order and short-circuit structure, so both
   evaluators return the same value or raise the same exception
   constructor with the same message (see the qcheck suite).

   Instruction word: low 4 bits opcode, rest argument.

     0 const k    push constant-pool entry k
     1 load s     push slot s (raises [Unbound_variable] when unset)
     2 not        boolean negate in place
     3 jfalse pc  if top is false, leave it and jump; else pop
     4 jtrue pc   if top is true, leave it and jump; else pop
     5 tobool     assert top is a bool ([Value.to_bool] of the result)
     6..11 cmp    Eq Ne Lt Le Gt Ge over [Value.compare_num] semantics
     12..14 arith Add Sub Mul over [Value.to_float] semantics

   [And (a, b)] compiles to [a; jfalse L; b; tobool; L:] — the taken
   branch leaves [false] as the result without touching [b], exactly the
   interpreter's short-circuit.  [Or] is the dual with [jtrue].

   Values live on four parallel stacks indexed by sp: a tag lane
   (0 int, 1 float, 2 bool, 3 string), an exact-int lane (tag 0 only), a
   float lane (ints widened, bools as 0.0/1.0 — [compare_num] compares
   numerics as floats anyway), and a string lane.  A lane is only read
   under the tag that wrote it, so stale entries are harmless.

   The scratch stacks live in [t] and are reused across evaluations:
   one evaluation at a time per compiled program (per-domain users each
   compile their own copy; the detector's per-group sub-checkers do). *)

module Value = Psn_world.Value

(* Variable -> slot.  Locations are process ids, dense from 0, so each
   name keeps an array indexed by location (-1 = no slot): interning n
   variables then costs one name lookup each and walks those arrays in
   order, where a table of n [Expr.var] records outgrows the cache.  A
   location far past the slots seen so far goes to [sparse] instead,
   which bounds the arrays by the slot count. *)
type index = {
  names : (string, int array ref) Hashtbl.t;
  sparse : (Expr.var, int) Hashtbl.t;
}

let find_in idx locs (v : Expr.var) =
  if v.loc >= 0 && v.loc < Array.length locs && locs.(v.loc) >= 0 then
    locs.(v.loc)
  else if Hashtbl.length idx.sparse = 0 then -1
  else match Hashtbl.find_opt idx.sparse v with Some s -> s | None -> -1

type t = {
  code : int array;
  c_tag : int array;
  c_int : int array;
  c_num : float array;
  c_str : string array;
  vars : Expr.var array; (* slot -> variable, first-use order *)
  slots : index;
  s_tag : int array;
  s_int : int array;
  s_num : float array;
  s_str : string array;
}

type env = {
  e_tag : int array; (* -1 = unbound *)
  e_int : int array;
  e_num : float array;
  e_str : string array;
}

let cmp_index = function
  | Expr.Eq -> 0 | Expr.Ne -> 1 | Expr.Lt -> 2
  | Expr.Le -> 3 | Expr.Gt -> 4 | Expr.Ge -> 5

let arith_index = function Expr.Add -> 0 | Expr.Sub -> 1 | Expr.Mul -> 2

(* Right operands still to emit, innermost first, with their opcodes. *)
type pending = Done | Then of int * Expr.t * pending

let compile source =
  let idx = { names = Hashtbl.create 4; sparse = Hashtbl.create 1 } in
  let vars = ref [||] and nvars = ref 0 in
  let slot_of (v : Expr.var) =
    let locs =
      match Hashtbl.find idx.names v.name with
      | locs -> locs
      | exception Not_found ->
          let locs = ref [||] in
          Hashtbl.add idx.names v.name locs;
          locs
    in
    match find_in idx !locs v with
    | -1 ->
        let s = !nvars in
        incr nvars;
        if s = Array.length !vars then begin
          let grown = Array.make (max 8 (2 * s)) v in
          Array.blit !vars 0 grown 0 s;
          vars := grown
        end;
        !vars.(s) <- v;
        let len = Array.length !locs in
        if v.loc >= 0 && v.loc < (2 * s) + 64 then begin
          if v.loc >= len then begin
            let grown = Array.make (max (v.loc + 1) (2 * len)) (-1) in
            Array.blit !locs 0 grown 0 len;
            locs := grown
          end;
          !locs.(v.loc) <- s
        end
        else Hashtbl.replace idx.sparse v s;
        s
    | s -> s
  in
  let consts_rev = ref [] and nconsts = ref 0 in
  let const_of v =
    let k = !nconsts in
    incr nconsts;
    consts_rev := v :: !consts_rev;
    k
  in
  let code = ref (Array.make 16 0) and len = ref 0 in
  let emit w =
    if !len = Array.length !code then begin
      let nb = Array.make (2 * !len) 0 in
      Array.blit !code 0 nb 0 !len;
      code := nb
    end;
    !code.(!len) <- w;
    incr len
  in
  let cur = ref 0 and depth = ref 0 in
  let push () =
    incr cur;
    if !cur > !depth then depth := !cur
  in
  (* [Expr.sum] and folded conjunctions are left-deep trees as deep as
     the predicate is wide, so [spine] walks a left spine in a loop,
     stacking each right operand with its opcode, and [rest] emits them
     innermost first; recursion only enters the right operands. *)
  let rec go = function
    | Expr.Const v ->
        emit (0 lor (const_of v lsl 4));
        push ()
    | Expr.Var v ->
        emit (1 lor (slot_of v lsl 4));
        push ()
    | Expr.Not e ->
        go e;
        emit 2
    | e -> spine e Done
  and spine e pending =
    match e with
    | Expr.And (a, b) -> spine a (Then (3, b, pending))
    | Expr.Or (a, b) -> spine a (Then (4, b, pending))
    | Expr.Cmp (op, a, b) -> spine a (Then (6 + cmp_index op, b, pending))
    | Expr.Arith (op, a, b) -> spine a (Then (12 + arith_index op, b, pending))
    | e ->
        go e;
        rest pending
  and rest = function
    | Done -> ()
    | Then (op, b, pending) ->
        if op = 3 || op = 4 then begin
          (* [a; jfalse/jtrue L; b; tobool; L:] *)
          let jp = !len in
          emit op;
          decr cur; (* fall-through pops the guard; the taken branch keeps
                       it as the result, which never deepens the stack *)
          go b;
          emit 5;
          !code.(jp) <- op lor (!len lsl 4)
        end
        else begin
          go b;
          emit op;
          decr cur
        end;
        rest pending
  in
  go source;
  let nc = !nconsts in
  let c_tag = Array.make (max 1 nc) 0
  and c_int = Array.make (max 1 nc) 0
  and c_num = Array.make (max 1 nc) 0.0
  and c_str = Array.make (max 1 nc) "" in
  List.iteri
    (fun i v ->
      let k = nc - 1 - i in
      match (v : Value.t) with
      | Value.Int x ->
          c_tag.(k) <- 0; c_int.(k) <- x; c_num.(k) <- float_of_int x
      | Value.Float f -> c_tag.(k) <- 1; c_num.(k) <- f
      | Value.Bool b -> c_tag.(k) <- 2; c_num.(k) <- (if b then 1.0 else 0.0)
      | Value.String s -> c_tag.(k) <- 3; c_str.(k) <- s)
    !consts_rev;
  let d = max 1 !depth in
  {
    code = Array.sub !code 0 !len;
    c_tag;
    c_int;
    c_num;
    c_str;
    vars = Array.sub !vars 0 !nvars;
    slots = idx;
    s_tag = Array.make d 0;
    s_int = Array.make d 0;
    s_num = Array.make d 0.0;
    s_str = Array.make d "";
  }

let nvars t = Array.length t.vars
let slot t (v : Expr.var) =
  match Hashtbl.find t.slots.names v.name with
  | locs -> find_in t.slots !locs v
  | exception Not_found -> find_in t.slots [||] v

let create_env t =
  let n = max 1 (Array.length t.vars) in
  {
    e_tag = Array.make n (-1);
    e_int = Array.make n 0;
    e_num = Array.make n 0.0;
    e_str = Array.make n "";
  }

let set env slot v =
  match (v : Value.t) with
  | Value.Int x ->
      env.e_int.(slot) <- x;
      env.e_num.(slot) <- float_of_int x;
      env.e_tag.(slot) <- 0
  | Value.Float f ->
      env.e_num.(slot) <- f;
      env.e_tag.(slot) <- 1
  | Value.Bool b ->
      env.e_num.(slot) <- (if b then 1.0 else 0.0);
      env.e_tag.(slot) <- 2
  | Value.String s ->
      env.e_str.(slot) <- s;
      env.e_tag.(slot) <- 3

let set_int env slot x =
  env.e_int.(slot) <- x;
  env.e_num.(slot) <- float_of_int x;
  env.e_tag.(slot) <- 0

let clear env slot = env.e_tag.(slot) <- -1
let is_int env slot = env.e_tag.(slot) = 0
let get_int env slot = env.e_int.(slot)

let get env slot =
  match env.e_tag.(slot) with
  | -1 -> None
  | 0 -> Some (Value.Int env.e_int.(slot))
  | 1 -> Some (Value.Float env.e_num.(slot))
  | 2 -> Some (Value.Bool (env.e_num.(slot) <> 0.0))
  | _ -> Some (Value.String env.e_str.(slot))

let not_bool () = raise (Value.Type_error "expected a boolean value")
let not_num () = raise (Value.Type_error "expected a numeric value")

(* Run the program; returns the stack index of the result (always 0). *)
let run t env =
  let code = t.code in
  let n = Array.length code in
  let s_tag = t.s_tag
  and s_int = t.s_int
  and s_num = t.s_num
  and s_str = t.s_str in
  let pc = ref 0 and sp = ref 0 in
  while !pc < n do
    let w = Array.unsafe_get code !pc in
    incr pc;
    let arg = w asr 4 in
    match w land 15 with
    | 0 ->
        let i = !sp in
        let tg = t.c_tag.(arg) in
        s_tag.(i) <- tg;
        if tg = 0 then s_int.(i) <- t.c_int.(arg);
        if tg = 3 then s_str.(i) <- t.c_str.(arg)
        else s_num.(i) <- t.c_num.(arg);
        sp := i + 1
    | 1 ->
        let tg = env.e_tag.(arg) in
        if tg < 0 then raise (Expr.Unbound_variable t.vars.(arg));
        let i = !sp in
        s_tag.(i) <- tg;
        if tg = 0 then s_int.(i) <- env.e_int.(arg);
        if tg = 3 then s_str.(i) <- env.e_str.(arg)
        else s_num.(i) <- env.e_num.(arg);
        sp := i + 1
    | 2 ->
        let i = !sp - 1 in
        if s_tag.(i) <> 2 then not_bool ();
        s_num.(i) <- (if s_num.(i) = 0.0 then 1.0 else 0.0)
    | 3 ->
        let i = !sp - 1 in
        if s_tag.(i) <> 2 then not_bool ();
        if s_num.(i) = 0.0 then pc := arg else sp := i
    | 4 ->
        let i = !sp - 1 in
        if s_tag.(i) <> 2 then not_bool ();
        if s_num.(i) <> 0.0 then pc := arg else sp := i
    | 5 -> if s_tag.(!sp - 1) <> 2 then not_bool ()
    | (6 | 7 | 8 | 9 | 10 | 11) as op ->
        let j = !sp - 1 in
        let i = j - 1 in
        let ta = s_tag.(i) and tb = s_tag.(j) in
        let c =
          if ta <= 1 && tb <= 1 then Float.compare s_num.(i) s_num.(j)
          else if ta = tb && ta = 2 then Float.compare s_num.(i) s_num.(j)
          else if ta = tb && ta = 3 then String.compare s_str.(i) s_str.(j)
          else raise (Value.Type_error "incomparable values")
        in
        let r =
          match op with
          | 6 -> c = 0
          | 7 -> c <> 0
          | 8 -> c < 0
          | 9 -> c <= 0
          | 10 -> c > 0
          | _ -> c >= 0
        in
        s_tag.(i) <- 2;
        s_num.(i) <- (if r then 1.0 else 0.0);
        sp := j
    | op ->
        let j = !sp - 1 in
        let i = j - 1 in
        if s_tag.(i) > 1 then not_num ();
        if s_tag.(j) > 1 then not_num ();
        let fa = s_num.(i) and fb = s_num.(j) in
        s_num.(i) <-
          (match op with 12 -> fa +. fb | 13 -> fa -. fb | _ -> fa *. fb);
        s_tag.(i) <- 1;
        sp := j
  done;
  !sp - 1

let eval t env =
  let i = run t env in
  match t.s_tag.(i) with
  | 0 -> Value.Int t.s_int.(i)
  | 1 -> Value.Float t.s_num.(i)
  | 2 -> Value.Bool (t.s_num.(i) <> 0.0)
  | _ -> Value.String t.s_str.(i)

let eval_bool t env =
  let i = run t env in
  if t.s_tag.(i) <> 2 then not_bool ();
  t.s_num.(i) <> 0.0

let holds t env =
  match eval_bool t env with
  | b -> b
  | exception Expr.Unbound_variable _ -> false
