module Q = Bigq.Q
module Database = Relational.Database
module Chain = Markov.Chain

type analysis = {
  chain : Database.t Chain.t;
  num_states : int;
  num_classes : int;
  irreducible : bool;
  ergodic : bool;
  result : Q.t;
}

let build_chain_step ?(max_states = 100_000) ?guard step init =
  Chain.of_step ~hash:Database.hash ~equal:Database.equal ~max_states ?guard ~init:[ init ]
    ~step ()

let build_chain ?max_states ?guard query init =
  build_chain_step ?max_states ?guard (fun db -> Lang.Forever.step query db) init

let start_of chain init = match Chain.index chain init with Some i -> i | None -> 0

let long_run_masses chain init events =
  Markov.Lumping.long_run_masses chain ~start:(start_of chain init)
    ~events:(List.map (fun e i -> Lang.Event.holds e (Chain.label chain i)) events)

let analyse ?max_states ?guard query init =
  let chain = Obs.phase "explore" (fun () -> build_chain ?max_states ?guard query init) in
  let lumping, masses = long_run_masses chain init [ query.Lang.Forever.event ] in
  {
    chain;
    num_states = Chain.num_states chain;
    num_classes = lumping.Markov.Lumping.num_classes;
    irreducible = Markov.Classify.is_irreducible chain;
    ergodic = Markov.Classify.is_ergodic chain;
    result = List.hd masses;
  }

let eval ?max_states ?guard query init = (analyse ?max_states ?guard query init).result

let expected_hitting_time ?max_states query init =
  let chain = build_chain ?max_states query init in
  let event_at i = Lang.Event.holds query.Lang.Forever.event (Chain.label chain i) in
  let targets =
    List.filter event_at (List.init (Chain.num_states chain) Fun.id)
  in
  if targets = [] then None
  else begin
    let h = Markov.Hitting.expected_steps chain ~targets in
    h.(start_of chain init)
  end

type events_analysis = {
  chain_states : int;
  lumped_classes : int;
  masses : (Lang.Event.t * Q.t) list;
}

let eval_events ?max_states ?guard ~kernel ~events init =
  let step =
    Obs.phase "compile" (fun () ->
        Prob.Pplan.apply
          (Prob.Pplan.compile_interp ~schema_of:(Lang.Compile.schema_of_database init) kernel))
  in
  let chain = Obs.phase "explore" (fun () -> build_chain_step ?max_states ?guard step init) in
  let lumping, masses = long_run_masses chain init events in
  {
    chain_states = Chain.num_states chain;
    lumped_classes = lumping.Markov.Lumping.num_classes;
    masses = List.combine events masses;
  }

let eval_kernel ?max_states ~kernel ~event init =
  let chain = build_chain_step ?max_states (Lang.Kernel.apply kernel) init in
  List.hd (snd (long_run_masses chain init [ event ]))

let eval_worlds ?max_states ?(prepare = Fun.id) query worlds =
  Q.sum
    (List.map
       (fun (db, p) -> Q.mul p (eval ?max_states query (prepare db)))
       (Prob.Dist.support worlds))
