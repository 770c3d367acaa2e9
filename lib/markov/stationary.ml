module Q = Bigq.Q

(* Solve pi (P - I) = 0, sum pi = 1: transpose to (P^T - I) pi^T = 0 and
   replace the last equation by the normalisation row.  [rows.(j)] lists the
   successors of local state [j] as (local index, probability). *)
let solve_stationary_system rows =
  let n = Array.length rows in
  let a = Array.init n (fun i -> Array.init n (fun j -> if i = j then Q.neg Q.one else Q.zero)) in
  Array.iteri (fun j row -> List.iter (fun (i, p) -> a.(i).(j) <- Q.add a.(i).(j) p) row) rows;
  let b = Array.make n Q.zero in
  for j = 0 to n - 1 do
    a.(n - 1).(j) <- Q.one
  done;
  b.(n - 1) <- Q.one;
  match Linalg.solve a b with
  | Some pi -> pi
  | None ->
    raise (Chain.Chain_error "stationary: singular system (chain not irreducible?)")

let exact chain =
  let scc = Scc.of_chain chain in
  if Scc.num_components scc <> 1 then
    raise (Chain.Chain_error "stationary: chain is not irreducible");
  solve_stationary_system (Array.init (Chain.num_states chain) (Chain.succ chain))

let exact_on_component chain members =
  let local = Array.of_list (List.sort Int.compare members) in
  let index_of = Array.make (Chain.num_states chain) (-1) in
  Array.iteri (fun i s -> index_of.(s) <- i) local;
  (* Closedness check: all probability mass must stay inside. *)
  let local_row s =
    List.map
      (fun (t, p) ->
        if index_of.(t) < 0 then raise (Chain.Chain_error "stationary: component is not closed");
        (index_of.(t), p))
      (Chain.succ chain s)
  in
  let pi = solve_stationary_system (Array.map local_row local) in
  Array.to_list (Array.mapi (fun i s -> (s, pi.(i))) local)

let power_iteration ?(max_iter = 100_000) ?(tol = 1e-12) chain =
  let n = Chain.num_states chain in
  let rows = Array.init n (fun i -> List.map (fun (j, p) -> (j, Q.to_float p)) (Chain.succ chain i)) in
  let pi = Array.make n (1.0 /. float_of_int n) in
  let next = Array.make n 0.0 in
  let rec iterate k pi =
    Array.fill next 0 n 0.0;
    Array.iteri (fun i w -> List.iter (fun (j, p) -> next.(j) <- next.(j) +. (w *. p)) rows.(i)) pi;
    (* Lazy-chain smoothing to damp periodicity. *)
    let delta = ref 0.0 in
    for i = 0 to n - 1 do
      let v = 0.5 *. (pi.(i) +. next.(i)) in
      delta := !delta +. abs_float (v -. pi.(i));
      pi.(i) <- v
    done;
    if !delta > tol && k < max_iter then iterate (k + 1) pi else pi
  in
  iterate 0 pi
