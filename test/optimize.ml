(* Algebraic rewriting for probabilistic algebra expressions, kept as a
   test-only reference: the property suites check that every rewrite
   preserves distributions.  No evaluation path runs it. *)

open Prob
module P = Palgebra
module Pred = Relational.Pred
module Relation = Relational.Relation

(* Schema computation mirroring Palgebra.schema_of, but driven by a lookup
   function instead of a concrete database. *)
let rec schema lookup = function
  | P.Rel n -> lookup n
  | P.Const r -> Relation.columns r
  | P.Select (_, e) -> schema lookup e
  | P.Project (cols, _) -> cols
  | P.Rename (pairs, e) ->
    List.map
      (fun c -> match List.assoc_opt c pairs with Some fresh -> fresh | None -> c)
      (schema lookup e)
  | P.Product (a, b) -> schema lookup a @ schema lookup b
  | P.Join (a, b) ->
    let ca = schema lookup a in
    ca @ List.filter (fun c -> not (List.mem c ca)) (schema lookup b)
  | P.Union (a, _) | P.Diff (a, _) -> schema lookup a
  | P.Extend (c, _, e) -> schema lookup e @ [ c ]
  | P.Aggregate { group_by; out; _ } -> group_by @ [ out ]
  | P.Repair_key { arg; _ } -> schema lookup arg

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* Rewrite a predicate's column references through the inverse of a rename
   (new name -> old name), to push a selection below the rename. *)
let rec unrename_pred pairs p =
  let unrename_term = function
    | Pred.Col c ->
      (match List.find_opt (fun (_, fresh) -> String.equal fresh c) pairs with
       | Some (old, _) -> Pred.Col old
       | None -> Pred.Col c)
    | Pred.Const v -> Pred.Const v
  in
  match p with
  | Pred.True -> Pred.True
  | Pred.False -> Pred.False
  | Pred.Cmp (op, a, b) -> Pred.Cmp (op, unrename_term a, unrename_term b)
  | Pred.And (a, b) -> Pred.And (unrename_pred pairs a, unrename_pred pairs b)
  | Pred.Or (a, b) -> Pred.Or (unrename_pred pairs a, unrename_pred pairs b)
  | Pred.Not a -> Pred.Not (unrename_pred pairs a)

let is_empty_const = function P.Const r -> Relation.is_empty r | _ -> false

let is_unit_const = function
  | P.Const r -> Relation.columns r = [] && Relation.cardinal r = 1
  | _ -> false

(* One local rewrite at the root of [e] (children assumed optimised).
   Returns [Some e'] on progress. *)
let step lookup e =
  match e with
  (* --- selection rules --- *)
  | P.Select (Pred.True, inner) -> Some inner
  | P.Select (Pred.False, inner) -> Some (P.Const (Relation.empty (schema lookup inner)))
  | P.Select (Pred.And (a, b), inner) -> Some (P.Select (a, P.Select (b, inner)))
  | P.Select (p, P.Select (q, inner)) when Stdlib.compare p q > 0 ->
    (* Canonical order for stacked selections so pushdown terminates. *)
    Some (P.Select (q, P.Select (p, inner)))
  | P.Select (p, P.Union (a, b)) -> Some (P.Union (P.Select (p, a), P.Select (p, b)))
  | P.Select (p, P.Diff (a, b)) -> Some (P.Diff (P.Select (p, a), P.Select (p, b)))
  | P.Select (p, P.Project (cols, inner)) -> Some (P.Project (cols, P.Select (p, inner)))
  | P.Select (p, P.Rename (pairs, inner)) ->
    Some (P.Rename (pairs, P.Select (unrename_pred pairs p, inner)))
  | P.Select (p, P.Extend (c, term, inner)) when not (List.mem c (Pred.columns p)) ->
    Some (P.Extend (c, term, P.Select (p, inner)))
  | P.Select (p, P.Join (a, b)) ->
    let cols = Pred.columns p in
    if subset cols (schema lookup a) then Some (P.Join (P.Select (p, a), b))
    else if subset cols (schema lookup b) then Some (P.Join (a, P.Select (p, b)))
    else None
  | P.Select (p, P.Product (a, b)) ->
    let cols = Pred.columns p in
    if subset cols (schema lookup a) then Some (P.Product (P.Select (p, a), b))
    else if subset cols (schema lookup b) then Some (P.Product (a, P.Select (p, b)))
    else None
  | P.Select (p, P.Repair_key { key; weight; arg }) when subset (Pred.columns p) key ->
    (* Key-only predicates drop whole groups; groups are independent, so
       selecting before or after the repair gives the same marginal. *)
    Some (P.Repair_key { key; weight; arg = P.Select (p, arg) })
  (* --- projection rules --- *)
  | P.Project (cols, P.Project (_, inner)) -> Some (P.Project (cols, inner))
  | P.Project (cols, inner) when List.equal String.equal cols (schema lookup inner) -> Some inner
  | P.Project (cols, P.Join (a, b)) ->
    let sa = schema lookup a and sb = schema lookup b in
    let shared = List.filter (fun c -> List.mem c sa) sb in
    let needed = List.sort_uniq String.compare (cols @ shared) in
    let prune side s =
      let keep = List.filter (fun c -> List.mem c needed) s in
      if List.length keep < List.length s then Some (P.Project (keep, side)) else None
    in
    (match (prune a sa, prune b sb) with
     | None, None -> None
     | a', b' ->
       Some
         (P.Project (cols, P.Join (Option.value ~default:a a', Option.value ~default:b b'))))
  (* --- rename rules --- *)
  | P.Rename (pairs, inner) ->
    let s = schema lookup inner in
    let live = List.filter (fun (old, fresh) -> (not (String.equal old fresh)) && List.mem old s) pairs in
    if live = [] then Some inner
    else if List.length live < List.length pairs then Some (P.Rename (live, inner))
    else None
  (* --- constant folding --- *)
  | P.Union (a, b) when is_empty_const b -> Some a
  | P.Union (a, b) when is_empty_const a -> Some b
  | P.Diff (a, b) when is_empty_const b -> Some a
  | P.Diff (a, _) when is_empty_const a -> Some a
  | P.Join (a, b) when is_unit_const a -> Some b
  | P.Join (a, b) when is_unit_const b -> Some a
  | P.Select (_, inner) when is_empty_const inner -> Some inner
  | P.Project (cols, inner) when is_empty_const inner ->
    Some (P.Const (Relation.empty cols))
  | _ -> None

let expression ~schema_of e =
  (* A global step budget guarantees termination even if a pair of rules
     were to cycle; in practice the rules strictly reduce a measure. *)
  let budget = ref 10_000 in
  let try_step e =
    if !budget <= 0 then None
    else
      match step schema_of e with
      | Some e' ->
        decr budget;
        Some e'
      | None -> None
  in
  let rec opt e =
    let e =
      match e with
      | P.Rel _ | P.Const _ -> e
      | P.Select (p, inner) -> P.Select (p, opt inner)
      | P.Project (cols, inner) -> P.Project (cols, opt inner)
      | P.Rename (pairs, inner) -> P.Rename (pairs, opt inner)
      | P.Product (a, b) -> P.Product (opt a, opt b)
      | P.Join (a, b) -> P.Join (opt a, opt b)
      | P.Union (a, b) -> P.Union (opt a, opt b)
      | P.Diff (a, b) -> P.Diff (opt a, opt b)
      | P.Extend (c, term, inner) -> P.Extend (c, term, opt inner)
      | P.Aggregate { group_by; agg; src; out; arg } ->
        P.Aggregate { group_by; agg; src; out; arg = opt arg }
      | P.Repair_key { key; weight; arg } -> P.Repair_key { key; weight; arg = opt arg }
    in
    match try_step e with
    | Some e' -> opt e'
    | None -> e
  in
  opt e

let interp ~schema_of i =
  Interp.make (List.map (fun (name, e) -> (name, expression ~schema_of e)) (Interp.bindings i))
