(* Semi-naive (delta) stepping for the inflationary kernel.

   The naive kernel re-evaluates every rule body against the whole database
   each step.  Here each rule body is delta-compiled ({!Prob.Pplan.delta}):
   from the second step on, only tuples derived since the previous state
   flow through the joins.  Soundness rests on the [oldVals] bookkeeping:

     new_i  =  Δvals_i − __vals_i  =  vals_i(db) − __vals_i

   because __vals_i accumulates the valuations of *every* predecessor state
   on every path to [db] (so a tuple missing from __vals_i is missing from
   vals_i(prev), hence covered by the delta contract).  This also makes the
   step a function of [db] alone — the engine's memo table stays sound even
   though different paths reach [db] with different deltas.

   The head (projection + repair-key) is pre-compiled once against a
   pseudo-relation [__newvals<i>] and driven with the per-step new
   valuations, so probabilistic rules see exactly the same repair-key input
   relation as the naive kernel — choice distributions are identical. *)

module P = Prob.Palgebra
module Dist = Prob.Dist
module Relation = Relational.Relation
module Database = Relational.Database

type rule_plan = {
  vals_name : string;  (* __vals<i>, the rule's oldVals relation *)
  fresh_name : string;  (* __newvals<i>, the head plan's input leaf *)
  vals : Prob.Pplan.delta;
  head_pred : string;
  head : Prob.Pplan.t;
}

type t = {
  rules : rule_plan list;
  incremental_rules : int;
  total_rules : int;
}

let fresh_relation i = Printf.sprintf "__newvals%d" i

let compile ~schema_of (program : Datalog.program) =
  let rules =
    List.mapi
      (fun i (r : Datalog.rule) ->
        let vals_expr, cols = Compile.rule_body_query ~schema_of r in
        let vals = Prob.Pplan.compile_delta ~schema_of vals_expr in
        let fresh_name = fresh_relation i in
        let schema_of' name =
          if String.equal name fresh_name then cols else schema_of name
        in
        let head_expr = Compile.head_query ~schema_of:schema_of' r (P.Rel fresh_name) in
        {
          vals_name = Compile.vals_relation i;
          fresh_name;
          vals;
          head_pred = r.Datalog.head.Datalog.hpred;
          head = Prob.Pplan.compile ~schema_of:schema_of' head_expr;
        })
      program
  in
  {
    rules;
    incremental_rules =
      List.length (List.filter (fun rp -> Prob.Pplan.delta_incremental rp.vals) rules);
    total_rules = List.length rules;
  }

let incremental_rules t = t.incremental_rules
let total_rules t = t.total_rules

(* Rule bodies are deterministic by construction (repair-key lives in
   heads), so their delta evaluation is always a point distribution. *)
let point what d =
  match Dist.is_point d with
  | Some r -> r
  | None -> invalid_arg ("seminaive: probabilistic rule body feeding " ^ what)

let step t ~db ~delta =
  (* Per rule: the valuations that became derivable this step. *)
  let news =
    List.map
      (fun rp ->
        let seen = Database.find rp.vals_name db in
        let dv = point rp.head_pred (Prob.Pplan.delta_eval rp.vals db delta) in
        (rp, Relation.diff dv seen))
      t.rules
  in
  (* Advance the oldVals bookkeeping: __vals_i := __vals_i ∪ new_i. *)
  let base =
    List.fold_left
      (fun acc (rp, fresh) ->
        if Relation.is_empty fresh then acc
        else
          Database.add rp.vals_name (Relation.union (Database.find rp.vals_name acc) fresh) acc)
      db news
  in
  (* Head contributions — only rules with new valuations fire at all. *)
  let contribs =
    List.filter_map
      (fun (rp, fresh) ->
        if Relation.is_empty fresh then None
        else begin
          let input = Database.add rp.fresh_name fresh Database.empty in
          Some (rp.head_pred, Prob.Pplan.eval rp.head input)
        end)
      news
  in
  (* Fold contributions into (successor, successor − db) pairs.  The delta
     side is built from the genuinely new tuples of each contribution, so
     no full-relation diff ever runs. *)
  let apply_contrib (dbacc, dacc) pred r =
    let old = Database.find pred dbacc in
    let new_tuples = Relation.filter (fun tup -> not (Relation.mem tup old)) r in
    if Relation.is_empty new_tuples then (dbacc, dacc)
    else begin
      let grown =
        match Database.find_opt pred dacc with
        | Some prev -> Relation.union prev new_tuples
        | None -> new_tuples
      in
      (Database.add pred (Relation.union old new_tuples) dbacc, Database.add pred grown dacc)
    end
  in
  let compare_fst (a, _) (b, _) = Database.compare a b in
  List.fold_left
    (fun acc (pred, rdist) ->
      match Dist.is_point rdist with
      | Some r -> Dist.map ~compare:compare_fst (fun st -> apply_contrib st pred r) acc
      | None -> Dist.product ~compare:compare_fst (fun st r -> apply_contrib st pred r) acc rdist)
    (Dist.return (base, Database.empty))
    contribs

let stepper t : Forever.delta_stepper = fun ~db ~delta -> step t ~db ~delta

let install t q = Forever.with_delta q (stepper t)
