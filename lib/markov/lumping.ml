module Q = Bigq.Q

type result = {
  quotient : int Chain.t;
  class_of : int array;
  num_classes : int;
}

(* Probability vector of a state into the current classes, canonicalised as
   a sorted association list. *)
let signature chain class_of s =
  let module M = Map.Make (Int) in
  let m =
    List.fold_left
      (fun acc (t, p) ->
        M.update class_of.(t) (fun prev -> Some (Q.add (Option.value ~default:Q.zero prev) p)) acc)
      M.empty (Chain.succ chain s)
  in
  M.bindings m

let compare_signature = List.compare (fun (c1, p1) (c2, p2) ->
    match Int.compare c1 c2 with 0 -> Q.compare p1 p2 | c -> c)

module Key = Map.Make (struct
  type t = int * (int * Q.t) list

  let compare (c1, s1) (c2, s2) =
    match Int.compare c1 c2 with 0 -> compare_signature s1 s2 | c -> c
end)

let lump ~initial chain =
  let n = Chain.num_states chain in
  (* Number the states' keys by first occurrence: dense class ids. *)
  let number key_of =
    let ids = ref Key.empty and k = ref 0 in
    let class_of =
      Array.init n (fun s ->
          let key = key_of s in
          match Key.find_opt key !ids with
          | Some c -> c
          | None ->
            let c = !k in
            ids := Key.add key c !ids;
            incr k;
            c)
    in
    (class_of, !k)
  in
  let class_of, k = number (fun s -> (initial s, [])) in
  (* Refine until every class is signature-homogeneous.  Each round splits
     classes by signatures taken against the partition the round started
     from; reading a partition that the round is still rewriting would split
     states that belong together, missing the coarsest partition. *)
  let rec refine class_of k =
    let class_of', k' = number (fun s -> (class_of.(s), signature chain class_of s)) in
    if k' = k then (class_of, k) else refine class_of' k'
  in
  let class_of, k = refine class_of k in
  let representative = Array.make k (-1) in
  for s = n - 1 downto 0 do
    representative.(class_of.(s)) <- s
  done;
  let rows = Array.init k (fun c -> signature chain class_of representative.(c)) in
  { quotient = Chain.of_rows (Array.init k Fun.id) rows; class_of; num_classes = k }

let stationary_event_mass chain ~event =
  let { quotient; class_of; _ } = lump ~initial:(fun s -> if event s then 1 else 0) chain in
  let pi = Stationary.exact quotient in
  (* All members of a class share the event label; find one per class. *)
  let n = Chain.num_states chain in
  let event_class = Array.make (Chain.num_states quotient) false in
  for s = 0 to n - 1 do
    if event s then event_class.(class_of.(s)) <- true
  done;
  let acc = ref Q.zero in
  Array.iteri (fun c p -> if event_class.(c) then acc := Q.add !acc p) pi;
  !acc
