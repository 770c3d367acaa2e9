(* Test-side references for the lumped long-run solve.  [event_mass] solves
   Prop 5.4 / Thm 5.5 on the full, unlumped chain; [lump_rounds] is the
   round-based partition refinement that re-signs every state each round.
   [Markov.Lumping.long_run_mass] and [Markov.Lumping.lump] must agree
   with them exactly. *)

module Q = Bigq.Q
open Markov

(* Long-run average occupation mass of event states, starting at [start]. *)
let event_mass chain ~start ~event =
  let scc = Scc.of_chain chain in
  if Scc.num_components scc = 1 then begin
    (* Irreducible: stationary distribution exists and equals the time
       average (Proposition 5.4). *)
    let pi = Stationary.exact chain in
    let acc = ref Q.zero in
    Array.iteri (fun i p -> if event i then acc := Q.add !acc p) pi;
    !acc
  end
  else begin
    (* Theorem 5.5: absorb into closed components, weight each component's
       internal stationary distribution by its absorption probability.
       Transient states have zero long-run occupation. *)
    let absorb = Absorption.into_closed chain ~start in
    Q.sum
      (List.map
         (fun (component, p_absorb) ->
           if Q.is_zero p_absorb then Q.zero
           else begin
             let members = scc.Scc.members.(component) in
             let pi = Stationary.exact_on_component chain members in
             let mass =
               Q.sum (List.filter_map (fun (s, p) -> if event s then Some p else None) pi)
             in
             Q.mul p_absorb mass
           end)
         absorb)
  end

(* The answer of a non-inflationary query on its full database-state chain. *)
let query_mass ?guard query init =
  let chain = Eval.Exact_noninflationary.build_chain ?guard query init in
  let start = match Chain.index chain init with Some i -> i | None -> 0 in
  event_mass chain ~start ~event:(fun i ->
      Lang.Event.holds query.Lang.Forever.event (Chain.label chain i))

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

(* Class of every state under the coarsest lumpable refinement of
   [initial], numbered by first occurrence. *)
let lump_rounds ~initial chain =
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
    if k' = k then class_of else refine class_of' k'
  in
  refine class_of k
