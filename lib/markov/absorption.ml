module Q = Bigq.Q

let scc = Scc.of_chain

let into_closed chain ~start =
  let scc = Scc.of_chain chain in
  let closed = Scc.closed_components scc in
  let n = Chain.num_states chain in
  let is_transient = Array.make n true in
  List.iter
    (fun c -> List.iter (fun s -> is_transient.(s) <- false) scc.Scc.members.(c))
    closed;
  let transient = Array.of_list (List.filter (fun s -> is_transient.(s)) (List.init n Fun.id)) in
  let t_index = Array.make n (-1) in
  Array.iteri (fun i s -> t_index.(s) <- i) transient;
  (* For each closed component L: h_L restricted to transient states solves
     (I - P_TT) h = P_T->L 1, where P_TT is the transient-to-transient block. *)
  let a = Chain.identity_minus chain transient in
  let absorb_prob target_component =
    if not is_transient.(start) then
      if scc.Scc.component_of.(start) = target_component then Q.one else Q.zero
    else begin
      let in_target s = scc.Scc.component_of.(s) = target_component in
      let b =
        Array.map
          (fun s ->
            List.fold_left
              (fun acc (t, p) -> if in_target t then Q.add acc p else acc)
              Q.zero (Chain.succ chain s))
          transient
      in
      match Linalg.solve a b with
      | Some h -> h.(t_index.(start))
      | None -> raise (Chain.Chain_error "absorption: singular transient system")
    end
  in
  List.map (fun c -> (c, absorb_prob c)) closed
