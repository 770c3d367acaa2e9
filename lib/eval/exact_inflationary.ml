module Q = Bigq.Q
module Dist = Prob.Dist
module Database = Relational.Database

module Db_tbl = Hashtbl.Make (struct
  type t = Database.t

  let equal = Database.equal
  let hash = Database.hash
end)

exception Diverged of string

type stats = {
  states_visited : int;
  fixpoints : int;
}

let eval_with_stats ?(guard = Guard.unlimited) query init =
  let forever = Lang.Inflationary.forever query in
  let event = Lang.Inflationary.event query in
  let delta_step = Lang.Forever.delta_stepper forever in
  let cache = Db_tbl.create 256 in
  let visited = ref 0 in
  let fixpoints = ref 0 in
  (* Growth telemetry, latched once per evaluation: the exact engine's
     "iteration" is the visit order of distinct states, and the recorded
     size is each visited database — the saturation curve of Lemma 4.2. *)
  let ser = Obs.Series.enabled () in
  (* Budget check latched like [ser]: charged per distinct visited state,
     [None] (no branch taken) for the default unlimited guard. *)
  let gtick = Guard.state_tick guard in
  (* The memo key is the state alone even on the semi-naive path: the
     [oldVals] relations in the state record every valuation used on any
     path to it, so the step's output distribution is a function of the
     state — the delta only prunes how it is computed. *)
  let rec value db delta =
    match Db_tbl.find_opt cache db with
    | Some v -> v
    | None ->
      incr visited;
      (match gtick with Some tick -> tick () | None -> ());
      if ser then
        Obs.Series.add "fixpoint.db_tuples" ~it:!visited
          (float_of_int (Database.total_tuples db));
      let v =
        match delta_step with
        | Some stepper ->
          (* Semi-naive: successors come paired with their deltas, which
             are inflationary by construction — no subsumption check. *)
          let next = stepper ~db ~delta in
          let is_fixpoint =
            match Dist.is_point next with
            | Some (db', _) -> Database.equal db db'
            | None -> false
          in
          if is_fixpoint then begin
            incr fixpoints;
            if Lang.Event.holds event db then Q.one else Q.zero
          end
          else begin
            let self = ref Q.zero in
            let strict = ref [] in
            List.iter
              (fun ((db', d'), p) ->
                if Database.equal db db' then self := Q.add !self p
                else begin
                  if ser then
                    Obs.Series.add "fixpoint.delta_tuples" ~it:!visited
                      (float_of_int (Database.total_tuples d'));
                  strict := (db', d', p) :: !strict
                end)
              (Dist.support next);
            (* Condition on eventually leaving the self-loop. *)
            let escape = Q.sub Q.one !self in
            Q.sum
              (List.map
                 (fun (db', d', p) -> Q.mul (Q.div p escape) (value db' (Some d')))
                 !strict)
          end
        | None ->
          let next = Lang.Forever.step forever db in
          let is_fixpoint =
            match Dist.is_point next with
            | Some db' -> Database.equal db db'
            | None -> false
          in
          if is_fixpoint then begin
            incr fixpoints;
            if Lang.Event.holds event db then Q.one else Q.zero
          end
          else begin
            let self = ref Q.zero in
            let strict = ref [] in
            List.iter
              (fun (db', p) ->
                if Database.equal db db' then self := Q.add !self p
                else begin
                  if not (Database.subsumes db' db) then
                    raise
                      (Diverged "successor state lost tuples: kernel is not inflationary");
                  if ser then
                    Obs.Series.add "fixpoint.delta_tuples" ~it:!visited
                      (float_of_int (Database.total_tuples db' - Database.total_tuples db));
                  strict := (db', p) :: !strict
                end)
              (Dist.support next);
            (* Condition on eventually leaving the self-loop. *)
            let escape = Q.sub Q.one !self in
            Q.sum (List.map (fun (db', p) -> Q.mul (Q.div p escape) (value db' None)) !strict)
          end
      in
      Db_tbl.replace cache db v;
      v
  in
  (* No per-call phase here: [eval_ctable] calls this once per world, and a
     phase entry costs two clock reads plus a mutex — the callers wrap one
     "evaluate" phase around the whole evaluation instead. *)
  let result = value init None in
  if Obs.enabled () then begin
    Obs.add (Obs.counter "engine.states") !visited;
    Obs.add (Obs.counter "engine.fixpoints") !fixpoints
  end;
  (result, { states_visited = !visited; fixpoints = !fixpoints })

let eval ?guard query init = fst (eval_with_stats ?guard query init)

(* Prop 4.4 verbatim: depth-first over the computation tree, keeping only
   the current path.  Self-loops are folded by the same geometric
   conditioning as the memoised engine.  Always steps naively — this is
   the reference implementation. *)
let eval_pspace query init =
  let forever = Lang.Inflationary.forever query in
  let event = Lang.Inflationary.event query in
  let rec value db =
    let next = Lang.Forever.step forever db in
    let is_fixpoint =
      match Dist.is_point next with
      | Some db' -> Database.equal db db'
      | None -> false
    in
    if is_fixpoint then if Lang.Event.holds event db then Q.one else Q.zero
    else begin
      let self = ref Q.zero in
      let strict = ref [] in
      List.iter
        (fun (db', p) ->
          if Database.equal db db' then self := Q.add !self p
          else begin
            if not (Database.subsumes db' db) then
              raise (Diverged "successor state lost tuples: kernel is not inflationary");
            strict := (db', p) :: !strict
          end)
        (Dist.support next);
      let escape = Q.sub Q.one !self in
      Q.sum (List.map (fun (db', p) -> Q.mul (Q.div p escape) (value db')) !strict)
    end
  in
  value init

let eval_worlds ?guard ?(prepare = Fun.id) query worlds =
  Q.sum
    (List.map (fun (db, p) -> Q.mul p (eval ?guard query (prepare db))) (Dist.support worlds))

(* Prop 4.4 literally: one fixpoint per world of the c-table. *)
let eval_ctable_worlds ?guard ?(plan = false) ~program ~event ctable =
  let worlds = Prob.Ctable.worlds ctable in
  match Dist.support worlds with
  | [] -> Q.zero
  | ((world0, _) :: _) as support ->
    (* The kernel, its physical plan and the semi-naive rule plans depend
       on the program and the relation schemas only, and all worlds of a
       pc-table share their schemas — so compile once, against the first
       world, and evaluate every world with the shared artefacts (each
       world keeps its own initial database). *)
    let shared_plan =
      if not plan then None
      else begin
        let kernel, init0 = Lang.Compile.inflationary_kernel program world0 in
        let schema_of = Lang.Compile.schema_of_database init0 in
        let fq = Lang.Forever.compile ~schema_of (Lang.Forever.make ~kernel ~event) in
        Some (Lang.Seminaive.install (Lang.Seminaive.compile ~schema_of program) fq)
      end
    in
    Q.sum
      (List.map
         (fun (world, p) ->
           let kernel, init = Lang.Compile.inflationary_kernel program world in
           let fq =
             match shared_plan with
             | Some fq -> fq
             | None -> Lang.Forever.make ~kernel ~event
           in
           let q = Lang.Inflationary.of_forever_unchecked fq in
           (* The guard's state budget spans the whole enumeration: worlds
              share one counter, so a blow-up anywhere in the weighted sum
              stops the run. *)
           Q.mul p (eval ?guard q init))
         support)

type ctable_method =
  | Lineage of { nodes : int }
  | Worlds

let lineage_applies program =
  List.for_all
    (fun (r : Lang.Datalog.rule) ->
      (not (Lang.Datalog.is_probabilistic_rule r)) && List.is_empty r.Lang.Datalog.neg)
    program

(* Without repair-key and negation every world's fixpoint is the least
   model of the program, so the event holds in exactly the worlds its
   lineage accepts: saturate once with decision-diagram annotations and
   weigh the event's diagram. *)
let eval_lineage ~guard ~program ~event ctable =
  (* The enumeration compiles the kernel against every world; compiling it
     against one keeps its schema and arity errors. *)
  (match Seq.uncons (Prob.Ctable.valuations ctable) with
   | Some (theta, _) ->
     ignore (Lang.Compile.inflationary_kernel program (Prob.Ctable.instantiate ctable theta))
   | None -> ());
  let on_node = Option.value ~default:ignore (Guard.state_tick guard) in
  let poll = Option.value ~default:ignore (Guard.stop_check guard) in
  let m = Prob.Mdd.create ~on_node (Prob.Ctable.vars ctable) in
  let base =
    List.concat_map
      (fun (name, _, rows) ->
        List.filter_map
          (fun (r : Prob.Ctable.row) ->
            let d = Prob.Mdd.of_cond m r.Prob.Ctable.cond in
            if Prob.Mdd.equal d Prob.Mdd.bot then None else Some (name, r.Prob.Ctable.tuple, d))
          rows)
      (Prob.Ctable.tables ctable)
  in
  let lineage =
    { Saturate.one = Prob.Mdd.top;
      conj = Prob.Mdd.conj m;
      disj = Prob.Mdd.disj m;
      equal = Prob.Mdd.equal
    }
  in
  let facts = Saturate.run ~poll lineage program base in
  let d =
    Option.value ~default:Prob.Mdd.bot
      (Saturate.find facts event.Lang.Event.relation event.Lang.Event.tuple)
  in
  if Obs.enabled () then begin
    Obs.add (Obs.counter "engine.steps") (Saturate.rounds facts);
    Obs.add (Obs.counter "engine.states") (Prob.Mdd.nodes_created m)
  end;
  (Prob.Mdd.prob m d, Prob.Mdd.size m d)

let eval_ctable_method ?(guard = Guard.unlimited) ?plan ~program ~event ctable =
  if lineage_applies program then begin
    let p, nodes = eval_lineage ~guard ~program ~event ctable in
    (p, Lineage { nodes })
  end
  else (eval_ctable_worlds ~guard ?plan ~program ~event ctable, Worlds)

let eval_ctable ?guard ?plan ~program ~event ctable =
  fst (eval_ctable_method ?guard ?plan ~program ~event ctable)
