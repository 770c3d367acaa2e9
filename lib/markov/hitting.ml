module Q = Bigq.Q

(* States that reach the target set with probability 1: complement of the
   largest set closed under "some successor avoids the targets forever".
   Computed as a greatest fixpoint: start from all states, repeatedly drop
   states all of whose successors are (targets or already dropped) —
   equivalently, keep states that can avoid the target set with positive
   probability.  We instead compute reachability of an avoiding cycle. *)
let certain_states chain targets =
  let n = Chain.num_states chain in
  let is_target = Array.make n false in
  List.iter (fun t -> is_target.(t) <- true) targets;
  (* First: states that can reach a target at all (forward along edges,
     computed by reverse BFS). *)
  let reaches = Array.make n false in
  List.iter (fun t -> reaches.(t) <- true) targets;
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      if (not reaches.(s)) && List.exists (fun (u, _) -> reaches.(u)) (Chain.succ chain s) then begin
        reaches.(s) <- true;
        changed := true
      end
    done
  done;
  (* Second: states that reach a target with probability 1 — those that
     cannot reach a non-target state from which targets are unreachable. *)
  let doomed = Array.init n (fun s -> not reaches.(s)) in
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      if (not doomed.(s)) && not is_target.(s) then
        if List.exists (fun (u, _) -> doomed.(u)) (Chain.succ chain s) then begin
          doomed.(s) <- true;
          changed := true
        end
    done
  done;
  Array.init n (fun s -> is_target.(s) || not doomed.(s))

let expected_steps chain ~targets =
  let n = Chain.num_states chain in
  if targets = [] then invalid_arg "expected_steps: no targets";
  List.iter (fun t -> if t < 0 || t >= n then invalid_arg "expected_steps: bad target") targets;
  let is_target = Array.make n false in
  List.iter (fun t -> is_target.(t) <- true) targets;
  let certain = certain_states chain targets in
  (* Unknowns: non-target states with certain hitting. *)
  let unknowns =
    Array.of_list (List.filter (fun s -> certain.(s) && not is_target.(s)) (List.init n Fun.id))
  in
  let k = Array.length unknowns in
  let index = Array.make n (-1) in
  Array.iteri (fun i s -> index.(s) <- i) unknowns;
  let a = Chain.identity_minus chain unknowns in
  let b = Array.make k Q.one in
  let h =
    if k = 0 then [||]
    else
      match Linalg.solve a b with
      | Some h -> h
      | None -> raise (Chain.Chain_error "hitting: singular system")
  in
  Array.init n (fun s ->
      if is_target.(s) then Some Q.zero
      else if not certain.(s) then None
      else Some h.(index.(s)))

let expected_return_time chain i =
  if not (Classify.is_irreducible chain) then
    raise (Chain.Chain_error "expected_return_time: chain not irreducible");
  (* 1 + Σ_j P(i,j) h_j where h is the expected hitting time of i. *)
  let h = expected_steps chain ~targets:[ i ] in
  List.fold_left
    (fun acc (j, p) ->
      match h.(j) with
      | Some hj -> Q.add acc (Q.mul p hj)
      | None -> raise (Chain.Chain_error "expected_return_time: unreachable successor"))
    Q.one (Chain.succ chain i)
