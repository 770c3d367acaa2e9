module Q = Bigq.Q
module Value = Relational.Value
module Relation = Relational.Relation
module Tuple = Relational.Tuple

exception Repair_error of string

let err fmt = Format.kasprintf (fun s -> raise (Repair_error s)) fmt

module Key_map = Map.Make (Tuple)

(* Weight of a tuple: the weight column's numeric value (by position), or 1
   for uniform. *)
let weight_fn_at wi =
  match wi with
  | None -> fun _ -> Q.one
  | Some i ->
    fun (t : Tuple.t) ->
      let q = try Value.to_q t.(i) with Invalid_argument _ -> err "weight %s is not numeric" (Value.to_string t.(i)) in
      if Q.sign q <= 0 then err "weight %s is not positive" (Q.to_string q);
      q

(* Collapse tuples equal on all non-weight columns by summing weights,
   restoring the functional dependency schema(R)-P -> P (footnote 1).
   Folds over the relation directly (ascending canonical order, same
   grouping order as the old list-based traversal). *)
let collapse_fd_at r wi =
  let strip (t : Tuple.t) =
    Array.init (Array.length t - 1) (fun i -> if i < wi then t.(i) else t.(i + 1))
  in
  let groups =
    Relation.fold
      (fun t acc ->
        let k = strip t in
        let prev = Option.value ~default:[] (Key_map.find_opt k acc) in
        Key_map.add k (t :: prev) acc)
      r Key_map.empty
  in
  Key_map.fold
    (fun _ ts acc ->
      match ts with
      | [ t ] -> t :: acc
      | (first :: _) as ts ->
        let total = Q.sum (List.map (fun (t : Tuple.t) -> Value.to_q t.(wi)) ts) in
        let merged = Array.copy first in
        merged.(wi) <- Value.Rat total;
        merged :: acc
      | [] -> acc)
    groups []

(* Group the (collapsed) tuples by key positions; each group keeps its
   tuples with their weights.  [Key_map.bindings] later yields groups in
   ascending key order — the order the sampler consumes RNG draws in. *)
let groups_of_at r ~ki ~wi =
  let wf = weight_fn_at wi in
  let add t acc =
    let k = Array.map (fun i -> t.(i)) ki in
    let prev = Option.value ~default:[] (Key_map.find_opt k acc) in
    Key_map.add k ((t, wf t) :: prev) acc
  in
  match wi with
  | None -> Relation.fold add r Key_map.empty
  | Some wi -> List.fold_left (fun acc t -> add t acc) Key_map.empty (collapse_fd_at r wi)

(* Name-based entry: resolve key columns first, then the weight column —
   the Schema_error precedence the original implementation had. *)
let groups_of r key weight =
  let ki = Array.of_list (List.map (Relation.column_index r) key) in
  let wi = Option.map (Relation.column_index r) weight in
  groups_of_at r ~ki ~wi

let repair_groups cols groups =
  (* One distribution per key group; independent product across groups. *)
  let group_dists =
    List.map
      (fun (_, choices) ->
        Dist.make_unnormalised ~compare:Tuple.compare choices)
      groups
  in
  Dist.map ~compare:Relation.compare
    (fun chosen -> Relation.make cols chosen)
    (Dist.sequence ~compare:(List.compare Tuple.compare) group_dists)

let repair ~key ?weight r =
  repair_groups (Relation.columns r) (Key_map.bindings (groups_of r key weight))

let repair_at ~key ?weight r =
  repair_groups (Relation.columns r) (Key_map.bindings (groups_of_at r ~ki:key ~wi:weight))

let num_repairs ~key r =
  let groups = groups_of r key None in
  Key_map.fold (fun _ ts acc -> acc * List.length ts) groups 1

type draw = Tuple.t Dist.t -> Tuple.t

(* One draw per key group.  The enabled check runs once per repair-key
   execution (not per group/tuple), per the [Obs] contract. *)
let draws_c = Obs.counter "repair_key.draws"

let draw_groups draw cols groups =
  if Obs.enabled () then Obs.add draws_c (List.length groups);
  let chosen =
    List.map
      (fun (_, choices) -> draw (Dist.make_unnormalised ~compare:Tuple.compare choices))
      groups
  in
  Relation.make cols chosen

let sample rng ~key ?weight r =
  draw_groups (Dist.sample rng) (Relation.columns r) (Key_map.bindings (groups_of r key weight))

let draw_at draw ~key ?weight r =
  draw_groups draw (Relation.columns r) (Key_map.bindings (groups_of_at r ~ki:key ~wi:weight))
