module Database = Relational.Database
module Dist = Prob.Dist

exception Did_not_converge of int

let samples_needed ~eps ~delta =
  if eps <= 0.0 || delta <= 0.0 || delta >= 1.0 then invalid_arg "samples_needed";
  int_of_float (ceil (log (2.0 /. delta) /. (2.0 *. eps *. eps)))

let steps_c = Obs.counter "engine.steps"
let fixpoints_c = Obs.counter "engine.fixpoints"

let run_once ?(max_steps = 100_000) ~deterministic rng query init =
  let forever = Lang.Inflationary.forever query in
  let event = Lang.Inflationary.event query in
  (* Stats are checked once per sample (at the fixpoint), not per step.
     Per-step growth series are latched once per sample too; a step is a
     whole kernel application, so the extra branch is noise even when on. *)
  let ser = Obs.Series.enabled () in
  let finish db steps =
    if Obs.enabled () then begin
      Obs.add steps_c steps;
      Obs.incr fixpoints_c
    end;
    Lang.Event.holds event db
  in
  let rec go db steps =
    if steps > max_steps then raise (Did_not_converge max_steps);
    let db' = Lang.Forever.step_sampled rng forever db in
    if ser then begin
      let t = Database.total_tuples db' in
      Obs.Series.add "fixpoint.db_tuples" ~it:steps (float_of_int t);
      Obs.Series.add "fixpoint.delta_tuples" ~it:steps
        (float_of_int (t - Database.total_tuples db))
    end;
    if Database.equal db db' then
      (* The sampled step kept the state.  A repair-key-free kernel has one
         successor, so that is the fixpoint; otherwise confirm it is one
         rather than a self-loop we happened to sample. *)
      if deterministic || Lang.Inflationary.is_fixpoint query db then finish db steps
      else go db' (steps + 1)
    else go db' (steps + 1)
  in
  go init 0

let run_samples ?max_steps ?init_sampler ?guard ?fault ?ckpt ?(domains = 1) ~samples rng query
    init =
  let deterministic = Prob.Interp.is_deterministic (Lang.Inflationary.kernel query) in
  Pool.run_samples ?guard ?fault ?ckpt ~domains ~samples rng (fun rng ->
      let world = match init_sampler with Some f -> f rng | None -> init in
      run_once ?max_steps ~deterministic rng query world)

let ctable_sampler ~program ctable =
  let compiled = Prob.Ctable.compile ctable in
  let names = List.map (fun v -> v.Prob.Ctable.vname) (Prob.Ctable.vars ctable) in
  fun rng ->
    let theta = List.combine names (Array.to_list (Prob.Ctable.draw rng compiled)) in
    Lang.Compile.inflationary_initial program (Prob.Ctable.instantiate ctable theta)

(* --- the ground sampler --------------------------------------------------- *)

(* The program grounded on the max world (every row of the c-table), as
   arrays: fact ids index [occurs], instance ids index [head]/[need]. *)
type ground = {
  compiled : Prob.Ctable.compiled;
  rows : (int * (Relational.Value.t array -> bool)) array;  (** conditional base facts *)
  axioms : int array;  (** facts true in every world *)
  occurs : int array array;  (** per fact: the instances it is a body fact of *)
  head : int array;
  need : int array;  (** per instance: its number of body facts *)
  target : int;  (** the event's fact, or -1 when no world derives it *)
  num_facts : int;
}

let ground ?(guard = Guard.unlimited) ~program ~event ctable =
  let compiled = Prob.Ctable.compile ctable in
  let rows =
    List.concat_map
      (fun (name, _, rows) ->
        List.map (fun (r : Prob.Ctable.row) -> (name, r.Prob.Ctable.tuple, r.Prob.Ctable.cond)) rows)
      (Prob.Ctable.tables ctable)
  in
  let poll = Option.value ~default:ignore (Guard.stop_check guard) in
  let g = Saturate.ground ~poll program (List.map (fun (name, tuple, _) -> (name, tuple)) rows) in
  let id (name, tuple, _) = Option.get (Saturate.find g.Saturate.model name tuple) in
  let certain, conditional = List.partition (fun (_, _, cond) -> cond = Prob.Ctable.CTrue) rows in
  let instances = Array.of_list g.Saturate.instances in
  let axioms =
    List.map id certain
    @ List.filter_map
        (fun (h, body) -> if Array.length body = 0 then Some h else None)
        g.Saturate.instances
  in
  let occurs = Array.make g.Saturate.num_facts [] in
  Array.iteri
    (fun k (_, body) -> Array.iter (fun f -> occurs.(f) <- k :: occurs.(f)) body)
    instances;
  {
    compiled;
    rows =
      Array.of_list
        (List.map
           (fun ((_, _, cond) as row) -> (id row, Prob.Ctable.compile_cond compiled cond))
           conditional);
    axioms = Array.of_list axioms;
    occurs = Array.map (fun l -> Array.of_list (List.rev l)) occurs;
    head = Array.map fst instances;
    need = Array.map (fun (_, body) -> Array.length body) instances;
    target =
      Option.value ~default:(-1)
        (Saturate.find g.Saturate.model event.Lang.Event.relation event.Lang.Event.tuple);
    num_facts = g.Saturate.num_facts;
  }

let ground_size g = (g.num_facts, Array.length g.head)

(* Per-sample state.  A slot counts only when its stamp is the current
   sample's epoch, so a sample touches the facts and instances its world
   derives and nothing else: no reset between samples. *)
type scratch = {
  mutable epoch : int;
  truth : int array;  (** per fact: the epoch in which it holds *)
  queue : int array;  (** facts set this sample, in order *)
  left : int array;  (** per instance: body facts not yet true *)
  seen : int array;  (** per instance: the epoch of [left] *)
}

(* One scratch per domain, for the ground program it was sized for (the
   [Obs] lane idiom): shards on one domain run one after another, and no
   two domains share a scratch. *)
let scratch_key : (ground * scratch) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let scratch_for g =
  match Domain.DLS.get scratch_key with
  | Some (owner, s) when owner == g -> s
  | _ ->
    let ni = Array.length g.head in
    let s =
      { epoch = 0;
        truth = Array.make g.num_facts 0;
        queue = Array.make g.num_facts 0;
        left = Array.make ni 0;
        seen = Array.make ni 0
      }
    in
    Domain.DLS.set scratch_key (Some (g, s));
    s

(* One world: draw its valuation, set the base facts it keeps, then
   propagate until no instance fires or the event's fact is derived. *)
let sample_ground g rng =
  let theta = Prob.Ctable.draw rng g.compiled in
  if g.target < 0 then false
  else begin
    let s = scratch_for g in
    s.epoch <- s.epoch + 1;
    let e = s.epoch in
    let len = ref 0 in
    let set f =
      if s.truth.(f) <> e then begin
        s.truth.(f) <- e;
        s.queue.(!len) <- f;
        incr len
      end
    in
    let fire k =
      let left = if s.seen.(k) = e then s.left.(k) - 1 else g.need.(k) - 1 in
      s.seen.(k) <- e;
      s.left.(k) <- left;
      if left = 0 then set g.head.(k)
    in
    Array.iter set g.axioms;
    Array.iter (fun (f, holds) -> if holds theta then set f) g.rows;
    let base = !len in
    let i = ref 0 in
    while !i < !len && s.truth.(g.target) <> e do
      Array.iter fire g.occurs.(s.queue.(!i));
      incr i
    done;
    if Obs.enabled () then begin
      Obs.add steps_c (!len - base);
      Obs.incr fixpoints_c
    end;
    s.truth.(g.target) = e
  end

let run_ground ?guard ?fault ?ckpt ?(domains = 1) ~samples rng g =
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set scratch_key None)
    (fun () -> Pool.run_samples ?guard ?fault ?ckpt ~domains ~samples rng (sample_ground g))
