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

let build_chain_step ?guard step init =
  Chain.of_step ~hash:Database.hash ~equal:Database.equal ?guard ~init:[ init ] ~step ()

let build_chain ?guard query init =
  build_chain_step ?guard (fun db -> Lang.Forever.step query db) init

let start_of chain init = match Chain.index chain init with Some i -> i | None -> 0

let long_run_masses chain init events =
  Markov.Lumping.long_run_masses chain ~start:(start_of chain init)
    ~events:(List.map (fun e i -> Lang.Event.holds e (Chain.label chain i)) events)

let analyse ?guard query init =
  let chain = Obs.phase "explore" (fun () -> build_chain ?guard query init) in
  let lumping, masses = long_run_masses chain init [ query.Lang.Forever.event ] in
  {
    chain;
    num_states = Chain.num_states chain;
    num_classes = lumping.Markov.Lumping.num_classes;
    irreducible = Markov.Classify.is_irreducible chain;
    ergodic = Markov.Classify.is_ergodic chain;
    result = List.hd masses;
  }

let eval ?guard query init = (analyse ?guard query init).result

let expected_hitting_time ?guard query init =
  let chain = build_chain ?guard query init in
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

let eval_events ?guard ~kernel ~events init =
  let step =
    Obs.phase "compile" (fun () ->
        Prob.Pplan.apply
          (Prob.Pplan.compile_interp ~schema_of:(Lang.Compile.schema_of_database init) kernel))
  in
  let chain = Obs.phase "explore" (fun () -> build_chain_step ?guard step init) in
  let lumping, masses = long_run_masses chain init events in
  {
    chain_states = Chain.num_states chain;
    lumped_classes = lumping.Markov.Lumping.num_classes;
    masses = List.combine events masses;
  }
