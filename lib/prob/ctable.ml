module Q = Bigq.Q
module Value = Relational.Value
module Relation = Relational.Relation
module Database = Relational.Database
module Tuple = Relational.Tuple

type var = { vname : string; domain : (Value.t * Q.t) list }

type cond =
  | CTrue
  | CEq of term * term
  | CNeq of term * term
  | CAnd of cond * cond
  | COr of cond * cond
  | CNot of cond

and term =
  | TVar of string
  | TLit of Value.t

type row = { tuple : Tuple.t; cond : cond }

type t = {
  vars : var list;
  tables : (string * string list * row list) list;
}

exception Ctable_error of string

let err fmt = Format.kasprintf (fun s -> raise (Ctable_error s)) fmt

let rec cond_vars acc = function
  | CTrue -> acc
  | CEq (a, b) | CNeq (a, b) ->
    let term acc = function TVar v -> v :: acc | TLit _ -> acc in
    term (term acc a) b
  | CAnd (a, b) | COr (a, b) -> cond_vars (cond_vars acc a) b
  | CNot a -> cond_vars acc a

let make ~vars ~tables =
  let names = List.map (fun v -> v.vname) vars in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    err "duplicate variable declaration";
  List.iter
    (fun v ->
      if v.domain = [] then err "variable %s has empty domain" v.vname;
      let values = List.map fst v.domain in
      if List.length (List.sort_uniq Value.compare values) <> List.length values then
        err "distribution of %s lists a value twice" v.vname;
      List.iter (fun (_, p) -> if Q.sign p < 0 then err "variable %s has negative weight" v.vname) v.domain;
      if not (Q.is_one (Q.sum (List.map snd v.domain))) then
        err "distribution of %s does not sum to 1" v.vname)
    vars;
  List.iter
    (fun (table, _, rows) ->
      List.iter
        (fun r ->
          List.iter
            (fun v -> if not (List.mem v names) then err "condition in %s uses undeclared variable %s" table v)
            (cond_vars [] r.cond))
        rows)
    tables;
  (* Validate schemas eagerly. *)
  List.iter (fun (_, cols, rows) -> ignore (Relation.make cols (List.map (fun r -> r.tuple) rows))) tables;
  { vars; tables }

let vars t = t.vars
let tables t = t.tables

let flag ~p name =
  { vname = name; domain = [ (Value.Bool true, p); (Value.Bool false, Q.sub Q.one p) ] }

type valuation = (string * Value.t) list

let valuations t =
  let rec go = function
    | [] -> Seq.return []
    | v :: rest ->
      let tails = go rest in
      Seq.concat_map
        (fun (x, _) -> Seq.map (fun tail -> (v.vname, x) :: tail) tails)
        (List.to_seq v.domain)
  in
  go t.vars

let valuation_prob t theta =
  List.fold_left
    (fun acc v ->
      let x = List.assoc v.vname theta in
      let p =
        match List.find_opt (fun (y, _) -> Value.equal x y) v.domain with
        | Some (_, p) -> p
        | None -> err "valuation assigns %s a value outside its domain" v.vname
      in
      Q.mul acc p)
    Q.one t.vars

(* --- compiled sampling ---------------------------------------------------- *)

(* Per variable, the support [Dist.make] keeps (ascending, zero weights
   dropped) and its [Dist.cumulative] bounds.  A draw takes one uniform
   float and the first value whose bound exceeds it, the last value
   needing no bound: [Dist.index], inlined, since a sample draws every
   variable. *)
type table = {
  values : Value.t array;
  bounds : float array;
}

type compiled = {
  draws : table array;  (** in declaration order *)
  positions : (string, int) Hashtbl.t;
}

let compile t =
  let table v =
    let d = Dist.make ~compare:Value.compare v.domain in
    { values = Array.of_list (Dist.outcomes d); bounds = Dist.cumulative d }
  in
  let positions = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace positions v.vname i) t.vars;
  { draws = Array.of_list (List.map table t.vars); positions }

let pick rng tbl =
  let u = Random.State.float rng 1.0 in
  let last = Array.length tbl.values - 1 in
  let i = ref 0 in
  while !i < last && not (u < tbl.bounds.(!i)) do
    incr i
  done;
  tbl.values.(!i)

let draw rng c =
  (* One draw per variable, in declaration order. *)
  let n = Array.length c.draws in
  if n = 0 then [||]
  else begin
    let theta = Array.make n (pick rng c.draws.(0)) in
    for i = 1 to n - 1 do
      theta.(i) <- pick rng c.draws.(i)
    done;
    theta
  end

let compile_cond c cond =
  let term = function
    | TVar v -> (
      match Hashtbl.find_opt c.positions v with
      | Some i -> Either.Left i
      | None -> err "unbound variable %s in condition" v)
    | TLit x -> Either.Right x
  in
  let eq a b : Value.t array -> bool =
    match (term a, term b) with
    | Left i, Left j -> fun theta -> Value.equal theta.(i) theta.(j)
    | Left i, Right x | Right x, Left i -> fun theta -> Value.equal theta.(i) x
    | Right x, Right y ->
      let r = Value.equal x y in
      fun _ -> r
  in
  let rec go = function
    | CTrue -> fun _ -> true
    | CEq (a, b) -> eq a b
    | CNeq (a, b) ->
      let f = eq a b in
      fun theta -> not (f theta)
    | CAnd (a, b) ->
      let f = go a and g = go b in
      fun theta -> f theta && g theta
    | COr (a, b) ->
      let f = go a and g = go b in
      fun theta -> f theta || g theta
    | CNot a ->
      let f = go a in
      fun theta -> not (f theta)
  in
  go cond

let sample_valuation rng t =
  let theta = draw rng (compile t) in
  List.mapi (fun i v -> (v.vname, theta.(i))) t.vars

let eval_term theta = function
  | TVar v -> (
    match List.assoc_opt v theta with
    | Some x -> x
    | None -> err "unbound variable %s in condition" v)
  | TLit x -> x

let rec eval_cond theta = function
  | CTrue -> true
  | CEq (a, b) -> Value.equal (eval_term theta a) (eval_term theta b)
  | CNeq (a, b) -> not (Value.equal (eval_term theta a) (eval_term theta b))
  | CAnd (a, b) -> eval_cond theta a && eval_cond theta b
  | COr (a, b) -> eval_cond theta a || eval_cond theta b
  | CNot a -> not (eval_cond theta a)

let instantiate t theta =
  List.fold_left
    (fun db (name, cols, rows) ->
      let tuples = List.filter_map (fun r -> if eval_cond theta r.cond then Some r.tuple else None) rows in
      Database.add name (Relation.make cols tuples) db)
    Database.empty t.tables

let worlds t =
  let pairs =
    Seq.fold_left
      (fun acc theta -> (instantiate t theta, valuation_prob t theta) :: acc)
      [] (valuations t)
  in
  Dist.make ~compare:Database.compare pairs

let certain db =
  {
    vars = [];
    tables =
      List.map
        (fun (name, r) ->
          ( name,
            Relation.columns r,
            List.rev (Relation.fold (fun tuple acc -> { tuple; cond = CTrue } :: acc) r []) ))
        (Database.bindings db);
  }

let num_worlds t =
  List.fold_left
    (fun acc v ->
      let k = List.length v.domain in
      if acc > max_int / k then max_int else acc * k)
    1 t.vars

let count_worlds t =
  List.fold_left
    (fun acc v -> Bigq.Bigint.mul acc (Bigq.Bigint.of_int (List.length v.domain)))
    Bigq.Bigint.one t.vars
