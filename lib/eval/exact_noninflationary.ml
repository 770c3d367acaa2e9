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

let build_chain ?guard query init =
  Chain.of_step ~hash:Database.hash ~equal:Database.equal ?guard ~init:[ init ]
    ~step:(fun db -> Lang.Forever.step query db)
    ()

let start_of chain init = match Chain.index chain init with Some i -> i | None -> 0

let analyse ?guard query init =
  let chain = Obs.phase "explore" (fun () -> build_chain ?guard query init) in
  let lumping, result =
    Markov.Lumping.long_run_mass chain ~start:(start_of chain init)
      ~event:(fun i -> Lang.Event.holds query.Lang.Forever.event (Chain.label chain i))
  in
  {
    chain;
    num_states = Chain.num_states chain;
    num_classes = lumping.Markov.Lumping.num_classes;
    irreducible = Markov.Classify.is_irreducible chain;
    ergodic = Markov.Classify.is_ergodic chain;
    result;
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
