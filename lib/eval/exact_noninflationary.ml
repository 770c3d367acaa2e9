module Q = Bigq.Q
module Database = Relational.Database
module Chain = Markov.Chain
module Scc = Markov.Scc

type analysis = {
  chain : Database.t Chain.t;
  num_states : int;
  irreducible : bool;
  ergodic : bool;
  result : Q.t;
}

let build_chain_step ?(max_states = 100_000) ?guard step init =
  Chain.of_step ~hash:Database.hash ~equal:Database.equal ~max_states ?guard ~init:[ init ]
    ~step ()

let build_chain ?max_states ?guard query init =
  build_chain_step ?max_states ?guard (fun db -> Lang.Forever.step query db) init

(* Long-run average occupation mass of event states, starting at [start]. *)
let event_mass_event event chain ~start =
  let event_at i = Lang.Event.holds event (Chain.label chain i) in
  let scc = Scc.of_chain chain in
  if Scc.num_components scc = 1 then begin
    (* Irreducible: stationary distribution exists and equals the time
       average (Proposition 5.4). *)
    let pi = Markov.Stationary.exact chain in
    let acc = ref Q.zero in
    Array.iteri (fun i p -> if event_at i then acc := Q.add !acc p) pi;
    !acc
  end
  else begin
    (* Theorem 5.5: absorb into closed components, weight each component's
       internal stationary distribution by its absorption probability.
       Transient states have zero long-run occupation. *)
    let absorb = Markov.Absorption.into_closed chain ~start in
    Q.sum
      (List.map
         (fun (component, p_absorb) ->
           if Q.is_zero p_absorb then Q.zero
           else begin
             let members = scc.Scc.members.(component) in
             let pi = Markov.Stationary.exact_on_component chain members in
             let mass =
               Q.sum (List.filter_map (fun (s, p) -> if event_at s then Some p else None) pi)
             in
             Q.mul p_absorb mass
           end)
         absorb)
  end

let event_mass query chain ~start = event_mass_event query.Lang.Forever.event chain ~start

let analyse ?max_states ?guard query init =
  let chain = Obs.phase "explore" (fun () -> build_chain ?max_states ?guard query init) in
  let start =
    match Chain.index chain init with
    | Some i -> i
    | None -> 0
  in
  let result = Obs.phase "solve" (fun () -> event_mass query chain ~start) in
  {
    chain;
    num_states = Chain.num_states chain;
    irreducible = Markov.Classify.is_irreducible chain;
    ergodic = Markov.Classify.is_ergodic chain;
    result;
  }

let eval ?max_states ?guard query init = (analyse ?max_states ?guard query init).result

type lumped_analysis = {
  lumped_result : Q.t;
  states_before : int;  (** chain states before lumping *)
  states_after : int;  (** lumped classes ([= states_before] when not lumped) *)
  lumped : bool;  (** whether the event-respecting quotient was solved *)
}

let analyse_lumped ?max_states ?guard query init =
  let chain = Obs.phase "explore" (fun () -> build_chain ?max_states ?guard query init) in
  let states_before = Chain.num_states chain in
  let scc = Scc.of_chain chain in
  if Scc.num_components scc = 1 then begin
    (* Irreducible: solve on the event-respecting quotient
       ([Markov.Lumping.stationary_event_mass] inlined to expose the class
       count). *)
    Obs.phase "solve" @@ fun () ->
    let event_at i = Lang.Event.holds query.Lang.Forever.event (Chain.label chain i) in
    let lumping = Markov.Lumping.lump ~initial:(fun s -> if event_at s then 1 else 0) chain in
    let pi = Markov.Stationary.exact lumping.Markov.Lumping.quotient in
    let event_class = Array.make lumping.Markov.Lumping.num_classes false in
    for s = 0 to states_before - 1 do
      if event_at s then event_class.(lumping.Markov.Lumping.class_of.(s)) <- true
    done;
    let acc = ref Q.zero in
    Array.iteri (fun c p -> if event_class.(c) then acc := Q.add !acc p) pi;
    {
      lumped_result = !acc;
      states_before;
      states_after = lumping.Markov.Lumping.num_classes;
      lumped = true;
    }
  end
  else begin
    let start = match Chain.index chain init with Some i -> i | None -> 0 in
    {
      lumped_result = Obs.phase "solve" (fun () -> event_mass query chain ~start);
      states_before;
      states_after = states_before;
      lumped = false;
    }
  end

let eval_lumped ?max_states ?guard query init =
  (analyse_lumped ?max_states ?guard query init).lumped_result

let expected_hitting_time ?max_states query init =
  let chain = build_chain ?max_states query init in
  let event_at i = Lang.Event.holds query.Lang.Forever.event (Chain.label chain i) in
  let targets =
    List.filter event_at (List.init (Chain.num_states chain) Fun.id)
  in
  if targets = [] then None
  else begin
    let h = Markov.Hitting.expected_steps chain ~targets in
    let start = match Chain.index chain init with Some i -> i | None -> 0 in
    h.(start)
  end

let eval_events ?max_states ?guard ~kernel ~events init =
  let step =
    Prob.Pplan.apply
      (Prob.Pplan.compile_interp ~schema_of:(Lang.Compile.schema_of_database init) kernel)
  in
  let chain = build_chain_step ?max_states ?guard step init in
  let start = match Chain.index chain init with Some i -> i | None -> 0 in
  let scc = Scc.of_chain chain in
  if Scc.num_components scc = 1 then begin
    let pi = Markov.Stationary.exact chain in
    List.map
      (fun event ->
        let acc = ref Q.zero in
        Array.iteri
          (fun i p -> if Lang.Event.holds event (Chain.label chain i) then acc := Q.add !acc p)
          pi;
        (event, !acc))
      events
  end
  else begin
    (* Absorption probabilities and per-leaf stationaries are shared; only
       the event test differs. *)
    let absorb = Markov.Absorption.into_closed chain ~start in
    let leaf_pis =
      List.map
        (fun (component, p_absorb) ->
          let pi =
            if Q.is_zero p_absorb then []
            else Markov.Stationary.exact_on_component chain scc.Scc.members.(component)
          in
          (p_absorb, pi))
        absorb
    in
    List.map
      (fun event ->
        let total =
          Q.sum
            (List.map
               (fun (p_absorb, pi) ->
                 if Q.is_zero p_absorb then Q.zero
                 else
                   Q.mul p_absorb
                     (Q.sum
                        (List.filter_map
                           (fun (s, p) ->
                             if Lang.Event.holds event (Chain.label chain s) then Some p else None)
                           pi)))
               leaf_pis)
        in
        (event, total))
      events
  end

let eval_kernel ?max_states ~kernel ~event init =
  let chain = build_chain_step ?max_states (Lang.Kernel.apply kernel) init in
  let start = match Chain.index chain init with Some i -> i | None -> 0 in
  event_mass_event event chain ~start

let eval_worlds ?max_states ?(prepare = Fun.id) query worlds =
  Q.sum
    (List.map
       (fun (db, p) -> Q.mul p (eval ?max_states query (prepare db)))
       (Prob.Dist.support worlds))
