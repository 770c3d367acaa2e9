(* Tests for the Markov chain toolkit. *)

open Markov
module Q = Bigq.Q
module Dist = Prob.Dist

let q_t = Alcotest.testable Q.pp Q.equal

let q = Q.of_ints
let q_of_ints = Q.of_ints

(* A two-state chain: 0 -> 1 w.p. 1, 1 -> 0 w.p. 1/2, 1 -> 1 w.p. 1/2.
   Stationary: pi = (1/3, 2/3). *)
let two_state =
  Chain.of_rows [| "s0"; "s1" |] [| [ (1, Q.one) ]; [ (0, Q.half); (1, Q.half) ] |]

(* A directed 3-cycle: periodic with period 3, stationary uniform. *)
let cycle3 =
  Chain.of_rows [| 0; 1; 2 |] [| [ (1, Q.one) ]; [ (2, Q.one) ]; [ (0, Q.one) ] |]

(* Transient state 0 feeding two absorbing states 1 and 2. *)
let absorbing =
  Chain.of_rows [| "t"; "l"; "r" |]
    [| [ (1, q 1 4); (2, q 3 4) ]; [ (1, Q.one) ]; [ (2, Q.one) ] |]

(* Two transient states chained before absorption; tests the linear system. *)
let gambler =
  (* 1 and 3 absorbing; 2 moves left/right with prob 1/2: ruin probability
     from 2 is 1/2. *)
  Chain.of_rows [| "a0"; "mid"; "a1" |]
    [| [ (0, Q.one) ]; [ (0, Q.half); (2, Q.half) ]; [ (2, Q.one) ] |]

let test_chain_construction () =
  Alcotest.(check int) "2 states" 2 (Chain.num_states two_state);
  Alcotest.check q_t "prob" Q.half (Chain.prob two_state 1 0);
  Alcotest.check q_t "missing edge" Q.zero (Chain.prob two_state 0 0)

let test_chain_invalid_row () =
  try
    ignore (Chain.of_rows [| 0 |] [| [ (0, Q.half) ] |]);
    Alcotest.fail "expected Chain_error"
  with Chain.Chain_error _ -> ()

(* Reference for [Chain.of_step]'s state numbering: breadth-first search
   interning labels in a [Map] by [compare], numbering them in discovery
   order. *)
let ordered_labels (type a) ~(compare : a -> a -> int) ~(init : a list) ~(step : a -> a Dist.t) =
  let module M = Map.Make (struct
    type t = a

    let compare = compare
  end) in
  let index = ref M.empty and labels = ref [] and queue = Queue.create () in
  let intern s =
    if not (M.mem s !index) then begin
      index := M.add s (M.cardinal !index) !index;
      labels := s :: !labels;
      Queue.add s queue
    end
  in
  List.iter intern init;
  while not (Queue.is_empty queue) do
    List.iter (fun (s, _) -> intern s) (Dist.support (step (Queue.pop queue)))
  done;
  Array.of_list (List.rev !labels)

let test_chain_of_step () =
  (* Explore a mod-5 counter: i -> i+1 mod 5 or stay, each 1/2. *)
  let step i =
    Dist.make ~compare:Int.compare [ (i, Q.half); ((i + 1) mod 5, Q.half) ]
  in
  let c = Chain.of_step ~hash:Hashtbl.hash ~equal:Int.equal ~init:[ 0 ] ~step () in
  Alcotest.(check int) "5 states" 5 (Chain.num_states c);
  Alcotest.(check bool) "irreducible" true (Classify.is_irreducible c);
  (* labels map back *)
  (match Chain.index c 3 with
   | Some i -> Alcotest.(check int) "label roundtrip" 3 (Chain.label c i)
   | None -> Alcotest.fail "state 3 not found");
  (* hashed and ordered interning explore the same chain in the same order *)
  let ordered = ordered_labels ~compare:Int.compare ~init:[ 0 ] ~step in
  Alcotest.(check int) "ordered: same states" (Chain.num_states c) (Array.length ordered);
  Array.iteri (fun i l -> Alcotest.(check int) "ordered: same label" l (Chain.label c i)) ordered

let test_scc_structure () =
  let scc = Scc.of_chain absorbing in
  Alcotest.(check int) "3 components" 3 (Scc.num_components scc);
  Alcotest.(check (list int)) "two closed" [ 1; 2 ]
    (List.sort Int.compare
       (List.map (fun c -> List.hd scc.Scc.members.(c)) (Scc.closed_components scc)))

let test_scc_topological () =
  let scc = Scc.of_chain absorbing in
  (* Transient component must precede the closed ones. *)
  let c_t = scc.Scc.component_of.(0) in
  List.iter
    (fun c -> Alcotest.(check bool) "source before sinks" true (c_t < c))
    (Scc.closed_components scc)

let test_scc_single () =
  let scc = Scc.of_chain two_state in
  Alcotest.(check int) "one component" 1 (Scc.num_components scc);
  Alcotest.(check bool) "closed" true (Scc.is_closed scc 0)

let test_classify () =
  Alcotest.(check bool) "two_state irreducible" true (Classify.is_irreducible two_state);
  Alcotest.(check bool) "two_state aperiodic" true (Classify.is_aperiodic two_state);
  Alcotest.(check bool) "two_state ergodic" true (Classify.is_ergodic two_state);
  Alcotest.(check int) "cycle3 period" 3 (Classify.period cycle3);
  Alcotest.(check bool) "cycle3 not aperiodic" false (Classify.is_aperiodic cycle3);
  Alcotest.(check bool) "cycle3 positively recurrent" true (Classify.is_positively_recurrent cycle3);
  Alcotest.(check bool) "absorbing not recurrent" false (Classify.is_positively_recurrent absorbing);
  Alcotest.(check bool) "absorbing not irreducible" false (Classify.is_irreducible absorbing)

let test_linalg_solve () =
  (* x + y = 3, x - y = 1 -> x=2, y=1. *)
  let a = [| [| Q.one; Q.one |]; [| Q.one; Q.neg Q.one |] |] in
  let b = [| Q.of_int 3; Q.one |] in
  (match Linalg.solve a b with
   | Some x ->
     Alcotest.check q_t "x" (Q.of_int 2) x.(0);
     Alcotest.check q_t "y" Q.one x.(1)
   | None -> Alcotest.fail "singular");
  (* Singular system. *)
  let s = [| [| Q.one; Q.one |]; [| Q.of_int 2; Q.of_int 2 |] |] in
  Alcotest.(check bool) "singular detected" true (Option.is_none (Linalg.solve s b))

let test_linalg_solve_permutation () =
  (* Requires a row swap: first pivot entry is zero. *)
  let a = [| [| Q.zero; Q.one |]; [| Q.one; Q.zero |] |] in
  let b = [| Q.of_int 5; Q.of_int 7 |] in
  match Linalg.solve a b with
  | Some x ->
    Alcotest.check q_t "x" (Q.of_int 7) x.(0);
    Alcotest.check q_t "y" (Q.of_int 5) x.(1)
  | None -> Alcotest.fail "singular"

(* Differential test: random square systems, biased towards the cases an
   elimination can get wrong — zero leading pivots, zero rows, dependent
   rows and columns, zero right-hand sides and negative entries. *)
let arb_system =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* density = oneofl [ 0.3; 0.6; 1.0 ] in
      let entry =
        let* z = float_bound_inclusive 1.0 in
        if z > density then return Q.zero
        else
          let* num = int_range (-9) 9 in
          let* den = int_range 1 6 in
          return (Q.of_ints num den)
      in
      let* a = array_repeat n (array_repeat n entry) in
      let* b = array_repeat n entry in
      let* shape = int_range 0 8 in
      let* i = int_range 0 (n - 1) in
      let* j = int_range 0 (n - 1) in
      let* c = map (fun k -> Q.of_ints k 3) (int_range (-4) 4) in
      let j = if j = i then (i + 1) mod n else j in
      (match shape with
       | 1 -> a.(i) <- Array.make n Q.zero
       | 2 when n > 1 -> a.(i) <- Array.map (Q.mul c) a.(j)
       | 3 -> Array.iteri (fun r row -> if r <= i then row.(r) <- Q.zero) a
       | 4 -> Array.fill b 0 n Q.zero
       | 5 when n > 1 -> Array.iter (fun row -> row.(i) <- Q.mul c row.(j)) a
       | _ -> ());
      return (a, b))
  in
  let print (a, b) =
    String.concat "\n"
      (Array.to_list
         (Array.mapi
            (fun r row ->
              String.concat " " (Array.to_list (Array.map Q.to_string row))
              ^ " | " ^ Q.to_string b.(r))
            a))
  in
  QCheck.make ~print gen

let prop_linalg_matches_gauss_jordan =
  QCheck.Test.make ~name:"solve = Gauss-Jordan reference, a x = b, inputs kept" ~count:400
    arb_system (fun (a, b) ->
      let a0 = Array.map Array.copy a and b0 = Array.copy b in
      let got = Linalg.solve a b in
      let kept = a = a0 && b = b0 in
      match (got, Gauss_jordan.solve a b) with
      | None, None -> kept
      | Some x, Some y ->
        kept && Array.for_all2 Q.equal x y && Array.for_all2 Q.equal (Linalg.mat_vec a x) b
      | _ -> false)

let test_stationary_exact () =
  let pi = Stationary.exact two_state in
  Alcotest.check q_t "pi0 = 1/3" (q 1 3) pi.(0);
  Alcotest.check q_t "pi1 = 2/3" (q 2 3) pi.(1)

let test_stationary_cycle () =
  (* Periodic but irreducible: stationary still uniquely uniform. *)
  let pi = Stationary.exact cycle3 in
  Array.iter (fun p -> Alcotest.check q_t "uniform third" (q 1 3) p) pi

let test_stationary_reducible_raises () =
  try
    ignore (Stationary.exact absorbing);
    Alcotest.fail "expected Chain_error"
  with Chain.Chain_error _ -> ()

let test_stationary_power_iteration () =
  let pi = Stationary.power_iteration two_state in
  Alcotest.(check bool) "pi0 close" true (abs_float (pi.(0) -. (1. /. 3.)) < 1e-9);
  Alcotest.(check bool) "pi1 close" true (abs_float (pi.(1) -. (2. /. 3.)) < 1e-9)

let test_stationary_on_component () =
  let scc = Scc.of_chain absorbing in
  let closed = Scc.closed_components scc in
  List.iter
    (fun c ->
      let pairs = Stationary.exact_on_component absorbing scc.Scc.members.(c) in
      Alcotest.(check int) "singleton component" 1 (List.length pairs);
      Alcotest.check q_t "mass 1" Q.one (snd (List.hd pairs)))
    closed

let test_absorption () =
  let probs = Absorption.into_closed absorbing ~start:0 in
  let scc = Scc.of_chain absorbing in
  let by_state s =
    let c = scc.Scc.component_of.(s) in
    List.assoc c probs
  in
  Alcotest.check q_t "left 1/4" (q 1 4) (by_state 1);
  Alcotest.check q_t "right 3/4" (q 3 4) (by_state 2)

let test_absorption_gambler () =
  let probs = Absorption.into_closed gambler ~start:1 in
  List.iter (fun (_, p) -> Alcotest.check q_t "ruin half" Q.half p) probs;
  Alcotest.check q_t "sums to one" Q.one (Q.sum (List.map snd probs))

(* Gambler's ruin on 0..n with absorbing ends: from i the walk is absorbed
   at n with probability i/n after i(n-i) expected steps. *)
let test_gambler_ruin_closed_forms () =
  let n = 300 in
  let rows =
    Array.init (n + 1) (fun i ->
        if i = 0 || i = n then [ (i, Q.one) ] else [ (i - 1, Q.half); (i + 1, Q.half) ])
  in
  let chain = Chain.of_rows (Array.init (n + 1) Fun.id) rows in
  let top = (Scc.of_chain chain).Scc.component_of.(n) in
  List.iter
    (fun i ->
      Alcotest.check q_t
        (Printf.sprintf "absorbed at %d from %d" n i)
        (q i n)
        (List.assoc top (Absorption.into_closed chain ~start:i)))
    [ 1; 37; 150; 299 ];
  let h = Hitting.expected_steps chain ~targets:[ 0; n ] in
  Array.iteri
    (fun i hi ->
      Alcotest.(check (option q_t))
        (Printf.sprintf "steps from %d" i)
        (Some (Q.of_int (i * (n - i))))
        hi)
    h

let test_absorption_from_closed_state () =
  let probs = Absorption.into_closed absorbing ~start:1 in
  Alcotest.check q_t "already absorbed" Q.one (Q.sum (List.filter_map (fun (c, p) ->
      let scc = Scc.of_chain absorbing in
      if List.mem 1 scc.Scc.members.(c) then Some p else None) probs))

let test_mixing_evolve () =
  let d0 = [| Q.one; Q.zero |] in
  let d1 = Mixing.evolve two_state d0 1 in
  Alcotest.check q_t "one step to s1" Q.one d1.(1);
  let d2 = Mixing.evolve two_state d0 2 in
  Alcotest.check q_t "back half" Q.half d2.(0)

let test_mixing_time () =
  (match Mixing.mixing_time ~eps:0.01 two_state with
   | Some t -> Alcotest.(check bool) "small mixing time" true (t > 0 && t < 50)
   | None -> Alcotest.fail "should mix");
  (* Periodic chain never mixes. *)
  Alcotest.(check bool) "cycle3 does not mix" true
    (Option.is_none (Mixing.mixing_time ~max_steps:100 ~eps:0.01 cycle3))

let test_mixing_monotone () =
  let pi = Stationary.exact two_state in
  let tv1 = Mixing.max_tv_at two_state pi 1 in
  let tv5 = Mixing.max_tv_at two_state pi 5 in
  Alcotest.(check bool) "tv decreases" true (Q.compare tv5 tv1 < 0)

(* Non-dyadic transition probabilities make the float TV evolution inexact,
   so a threshold within an ulp of the true TV can fool the float-only
   search into declaring mixing a step early.  Scan small [t] for such an
   eps, then check that the certified search advances past the wrong answer
   and that its own answer satisfies the exact bound. *)
let lazy3 =
  Chain.of_rows [| "x"; "y"; "z" |]
    [| [ (0, q 1 3); (1, q 2 3) ];
       [ (0, q 1 7); (1, q 3 7); (2, q 3 7) ];
       [ (1, q 5 11); (2, q 6 11) ]
    |]

let test_mixing_certified () =
  let pi = Stationary.exact lazy3 in
  let found = ref None in
  for t = 1 to 40 do
    if !found = None then begin
      let f = Q.to_float (Mixing.max_tv_at lazy3 pi t) in
      List.iter
        (fun eps ->
          if !found = None && eps > 0.0 then
            match (Mixing.mixing_time_float ~eps lazy3, Mixing.mixing_time ~eps lazy3) with
            | Some tf, Some tc when tc > tf -> found := Some (eps, tf, tc)
            | _ -> ())
        [ Float.pred f; f; Float.succ f ]
    end
  done;
  match !found with
  | None -> Alcotest.fail "no eps near the TV curve separates float and certified searches"
  | Some (eps, tf, tc) ->
    let eps_q = Q.of_float eps in
    Alcotest.(check bool) "float answer fails the exact bound" true
      (Q.compare (Mixing.max_tv_at lazy3 pi tf) eps_q >= 0);
    Alcotest.(check bool) "certified answer satisfies the exact bound" true
      (Q.compare (Mixing.max_tv_at lazy3 pi tc) eps_q < 0);
    Alcotest.(check bool) "predecessor of certified answer does not" true
      (Q.compare (Mixing.max_tv_at lazy3 pi (tc - 1)) eps_q >= 0)

let test_walk_occupation () =
  let rng = Random.State.make [| 5 |] in
  let occ = Walk.occupation rng two_state ~start:0 ~steps:50_000 in
  Alcotest.(check bool) "occ0 ~ 1/3" true (abs_float (occ.(0) -. (1. /. 3.)) < 0.02);
  Alcotest.(check bool) "occ1 ~ 2/3" true (abs_float (occ.(1) -. (2. /. 3.)) < 0.02)

let test_walk_run_length () =
  let rng = Random.State.make [| 5 |] in
  Alcotest.(check int) "length" 11 (List.length (Walk.run rng two_state ~start:0 ~steps:10))

let test_estimate_stationary () =
  let rng = Random.State.make [| 9 |] in
  let est = Walk.estimate_stationary rng two_state ~start:0 ~burn_in:100 ~samples:20_000 ~thin:3 in
  Alcotest.(check bool) "estimate near stationary" true (abs_float (est.(1) -. (2. /. 3.)) < 0.02)

(* Property: for random small ergodic chains, exact stationary satisfies
   pi P = pi, and absorption probabilities always sum to 1. *)

let arb_chain =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 6 in
      (* Random dense weights guarantee irreducibility and aperiodicity. *)
      let* rows =
        list_repeat n (list_repeat n (int_range 1 9))
      in
      let rows =
        List.map
          (fun ws ->
            let total = List.fold_left ( + ) 0 ws in
            List.mapi (fun j w -> (j, Q.of_ints w total)) ws)
          rows
      in
      return (Chain.of_rows (Array.init n Fun.id) (Array.of_list rows)))
  in
  QCheck.make ~print:(fun c -> string_of_int (Chain.num_states c)) gen

let prop_stationary_fixed_point =
  QCheck.Test.make ~name:"exact stationary is a fixed point of P" ~count:60 arb_chain (fun c ->
      let pi = Stationary.exact c in
      let pi' = Mixing.evolve c pi 1 in
      Array.for_all2 Q.equal pi pi')

let prop_stationary_sums_to_one =
  QCheck.Test.make ~name:"exact stationary sums to 1" ~count:60 arb_chain (fun c ->
      Q.is_one (Q.sum (Array.to_list (Stationary.exact c))))

let prop_power_iteration_agrees =
  QCheck.Test.make ~name:"power iteration agrees with exact" ~count:30 arb_chain (fun c ->
      let exact = Stationary.exact c in
      let approx = Stationary.power_iteration c in
      Array.for_all2 (fun e a -> abs_float (Q.to_float e -. a) < 1e-6) exact approx)

(* --- Hitting times ------------------------------------------------------ *)

let test_hitting_deterministic_cycle () =
  let h = Hitting.expected_steps cycle3 ~targets:[ 2 ] in
  Alcotest.(check (option string)) "from 0: 2 steps" (Some "2") (Option.map Q.to_string h.(0));
  Alcotest.(check (option string)) "from 1: 1 step" (Some "1") (Option.map Q.to_string h.(1));
  Alcotest.(check (option string)) "target: 0" (Some "0") (Option.map Q.to_string h.(2))

let test_hitting_two_state () =
  (* From s0: one step to s1.  From s1 to s0: geometric with p = 1/2 -> 2. *)
  let h = Hitting.expected_steps two_state ~targets:[ 0 ] in
  Alcotest.(check (option string)) "s1 -> s0 takes 2" (Some "2") (Option.map Q.to_string h.(1))

let test_hitting_unreachable () =
  (* In the absorbing chain, from the right sink the left sink is
     unreachable; from the transient start it is reached only w.p. 1/4. *)
  let h = Hitting.expected_steps absorbing ~targets:[ 1 ] in
  Alcotest.(check bool) "start: infinite expectation" true (h.(0) = None);
  Alcotest.(check bool) "other sink: infinite" true (h.(2) = None);
  Alcotest.(check (option string)) "target itself 0" (Some "0") (Option.map Q.to_string h.(1))

let test_return_time_is_inverse_stationary () =
  let pi = Stationary.exact two_state in
  List.iter
    (fun i ->
      Alcotest.check q_t
        (Printf.sprintf "return time to %d = 1/pi" i)
        (Q.inv pi.(i))
        (Hitting.expected_return_time two_state i))
    [ 0; 1 ];
  (* And on the deterministic cycle: return time = 3 everywhere. *)
  List.iter
    (fun i -> Alcotest.check q_t "cycle return = 3" (Q.of_int 3) (Hitting.expected_return_time cycle3 i))
    [ 0; 1; 2 ]

(* --- Conductance ---------------------------------------------------------- *)

let lazy_two_cycle =
  Chain.of_rows [| 0; 1 |]
    [| [ (0, Q.half); (1, Q.half) ]; [ (0, Q.half); (1, Q.half) ] |]

(* Lazy random walk on the path 0-1-2-3 (birth-death: reversible). *)
let lazy_path4 =
  let q = Q.of_ints 1 4 in
  Chain.of_rows [| 0; 1; 2; 3 |]
    [| [ (0, Q.of_ints 3 4); (1, q) ];
       [ (0, q); (1, Q.half); (2, q) ];
       [ (1, q); (2, Q.half); (3, q) ];
       [ (2, q); (3, Q.of_ints 3 4) ]
    |]

let test_reversibility () =
  Alcotest.(check bool) "lazy two-cycle reversible" true (Conductance.is_reversible lazy_two_cycle);
  Alcotest.(check bool) "birth-death reversible" true (Conductance.is_reversible lazy_path4);
  Alcotest.(check bool) "directed cycle not reversible" false (Conductance.is_reversible cycle3)

let test_conductance_values () =
  Alcotest.check q_t "two_state phi = 1" Q.one (Conductance.conductance two_state);
  Alcotest.check q_t "lazy two-cycle phi = 1/2" Q.half (Conductance.conductance lazy_two_cycle);
  (* path: bottleneck cut in the middle: S = {0,1}, pi(S) = 1/2,
     Q(S, S-bar) = pi(1) P(1,2) = 1/4 * 1/4 = 1/16 -> phi = 1/8. *)
  Alcotest.check q_t "lazy path phi = 1/8" (Q.of_ints 1 8) (Conductance.conductance lazy_path4)

let test_conductance_guards () =
  (try
     ignore (Conductance.conductance absorbing);
     Alcotest.fail "reducible accepted"
   with Chain.Chain_error _ -> ());
  try
    ignore (Conductance.conductance ~max_states:1 two_state);
    Alcotest.fail "size guard ignored"
  with Chain.Chain_error _ -> ()

let test_cheeger_bounds_bracket_mixing () =
  List.iter
    (fun chain ->
      let eps = 0.05 in
      match Mixing.mixing_time ~eps chain with
      | None -> Alcotest.fail "lazy reversible chain should mix"
      | Some t ->
        let upper = Conductance.cheeger_mixing_upper_bound ~eps chain in
        Alcotest.(check bool)
          (Printf.sprintf "measured %d <= cheeger %.1f" t upper)
          true
          (float_of_int t <= upper +. 1.0))
    [ lazy_two_cycle; lazy_path4 ]

(* --- Lumping ---------------------------------------------------------------- *)

(* Long-run mass of one event from state 0, solved on the lumped quotient. *)
let lumped_mass ?(start = 0) chain ~event =
  snd (Lumping.long_run_mass chain ~start ~event)

let test_lump_symmetric_cycle () =
  (* Lazy 4-cycle with an event on one state: symmetry lets the two
     off-event neighbours lump together. *)
  let h = Q.half and q = Q.of_ints 1 4 in
  let lazy4 =
    Chain.of_rows [| 0; 1; 2; 3 |]
      [| [ (0, h); (1, q); (3, q) ];
         [ (1, h); (2, q); (0, q) ];
         [ (2, h); (3, q); (1, q) ];
         [ (3, h); (0, q); (2, q) ]
      |]
  in
  let r = Lumping.lump ~initial:(fun s -> if s = 0 then 1 else 0) lazy4 in
  Alcotest.(check bool) "fewer classes" true (r.Lumping.num_classes < 4);
  Alcotest.check q_t "event mass = 1/4" (q_of_ints 1 4) (lumped_mass lazy4 ~event:(fun s -> s = 0))

let test_lump_trivial_labelling () =
  (* With everything labelled alike and a doubly-stochastic chain, one class
     suffices. *)
  let h = Q.half in
  let c = Chain.of_rows [| 0; 1 |] [| [ (0, h); (1, h) ]; [ (0, h); (1, h) ] |] in
  let r = Lumping.lump ~initial:(fun _ -> 0) c in
  Alcotest.(check int) "single class" 1 r.Lumping.num_classes

let test_lump_heterogeneous_not_merged () =
  (* With uniform labels ANY chain lumps to one class (all mass flows to
     the universe); with event labels two_state stays split and the mass
     matches the direct computation. *)
  let r = Lumping.lump ~initial:(fun _ -> 0) two_state in
  Alcotest.(check int) "uniform labels collapse" 1 r.Lumping.num_classes;
  let r' = Lumping.lump ~initial:(fun s -> s) two_state in
  Alcotest.(check int) "event labels stay split" 2 r'.Lumping.num_classes;
  Alcotest.check q_t "event mass matches direct" (q_of_ints 2 3)
    (lumped_mass two_state ~event:(fun s -> s = 1))

let test_lump_product_coarsest () =
  (* Two independent lazy directed 3-cycles, event on walker 1: the
     coarsest lumpable partition is walker 1's position, 3 classes. *)
  let state x y = (3 * x) + y in
  let rows =
    Array.init 9 (fun s ->
        let x = s / 3 and y = s mod 3 in
        let quarter = q 1 4 in
        List.concat_map
          (fun x' -> List.map (fun y' -> (state x' y', quarter)) [ y; (y + 1) mod 3 ])
          [ x; (x + 1) mod 3 ])
  in
  let chain = Chain.of_rows (Array.init 9 Fun.id) rows in
  let event s = s / 3 = 0 in
  let r = Lumping.lump ~initial:(fun s -> if event s then 1 else 0) chain in
  Alcotest.(check int) "3 classes" 3 r.Lumping.num_classes;
  Alcotest.(check bool) "classes follow walker 1" true
    (List.for_all
       (fun s -> r.Lumping.class_of.(s) = r.Lumping.class_of.(state (s / 3) 0))
       (List.init 9 Fun.id));
  Alcotest.check q_t "event mass = 1/3" (q 1 3) (lumped_mass chain ~event)

let prop_lumping_matches_direct =
  QCheck.Test.make ~name:"lumped stationary event mass = direct" ~count:40 arb_chain (fun c ->
      let pi = Stationary.exact c in
      let event s = s mod 2 = 0 in
      let direct = Q.sum (List.filteri (fun i _ -> event i) (Array.to_list pi)) in
      Q.equal direct (lumped_mass c ~event))

(* Random sparse chains, mostly reducible, with a labelling into {0, 1, 2}.
   Weights from {1, 2} and at most 3 successors make equal class weights
   (and so non-trivial lumpings) common; rows may repeat a successor. *)
let arb_labelled_chain =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 10 in
      let* rows = list_repeat n (list_size (int_range 1 3) (pair (int_bound (n - 1)) (int_range 1 2))) in
      let* labels = list_repeat n (int_bound 2) in
      let* start = int_bound (n - 1) in
      let row ws =
        let total = List.fold_left (fun acc (_, w) -> acc + w) 0 ws in
        List.map (fun (t, w) -> (t, Q.of_ints w total)) ws
      in
      return
        ( Chain.of_rows (Array.init n Fun.id) (Array.of_list (List.map row rows)),
          Array.of_list labels,
          start ))
  in
  QCheck.make
    ~print:(fun (c, labels, start) ->
      Format.asprintf "start %d, labels [%s]@.%a" start
        (String.concat ";" (Array.to_list (Array.map string_of_int labels)))
        (Chain.pp Format.pp_print_int) c)
    gen

let prop_lump_matches_rounds =
  QCheck.Test.make ~name:"splitter lump = round-based refinement (class_of)" ~count:500
    arb_labelled_chain (fun (c, labels, _) ->
      let initial s = labels.(s) in
      let r = Lumping.lump ~initial c in
      r.Lumping.class_of = Full_chain.lump_rounds ~initial c
      && r.Lumping.num_classes = Chain.num_states r.Lumping.quotient)

let prop_lumped_reducible_matches_full =
  QCheck.Test.make ~name:"Thm 5.5 on the quotient = on the full chain (reducible)" ~count:300
    arb_labelled_chain (fun (c, labels, start) ->
      QCheck.assume (Scc.num_components (Scc.of_chain c) > 1);
      let event s = labels.(s) = 0 in
      Q.equal (Full_chain.event_mass c ~start ~event) (lumped_mass ~start c ~event))

(* --- Chain_io ----------------------------------------------------------------- *)

let test_chain_io_roundtrip () =
  let text = "s0 s1 1\ns1 s0 1/2\ns1 s1 1/2\n" in
  let c = Chain_io.parse text in
  Alcotest.(check int) "2 states" 2 (Chain.num_states c);
  let printed = Format.asprintf "%a" Chain_io.print c in
  let c2 = Chain_io.parse printed in
  Alcotest.(check int) "roundtrip states" 2 (Chain.num_states c2);
  Alcotest.check q_t "roundtrip prob" Q.half
    (Chain.prob c2 (Option.get (Chain.index c2 "s1")) (Option.get (Chain.index c2 "s0")))

let test_chain_io_errors () =
  List.iter
    (fun text ->
      try
        ignore (Chain_io.parse text);
        Alcotest.fail ("accepted: " ^ text)
      with Chain_io.Parse_error _ -> ())
    [ ""; "a b"; "a b xyz"; "a b 1/2" (* row does not sum to 1 *) ]

let test_chain_io_comments () =
  let c = Chain_io.parse "# comment\na a 1 # absorbing\n" in
  Alcotest.(check int) "1 state" 1 (Chain.num_states c)

(* --- Spectral ----------------------------------------------------------------- *)

let test_slem_two_state () =
  (* Eigenvalues of [[0,1],[1/2,1/2]] are {1, -1/2}: SLEM = 1/2. *)
  Alcotest.(check bool) "slem = 1/2" true (abs_float (Spectral.slem two_state -. 0.5) < 1e-9);
  Alcotest.(check bool) "t_rel = 2" true (abs_float (Spectral.relaxation_time two_state -. 2.0) < 1e-8)

let test_slem_lazy_uniform () =
  (* [[1/2,1/2],[1/2,1/2]]: eigenvalues {1, 0}: SLEM = 0, t_rel = 1. *)
  Alcotest.(check bool) "slem = 0" true (Spectral.slem lazy_two_cycle < 1e-9);
  Alcotest.(check bool) "t_rel = 1" true (abs_float (Spectral.relaxation_time lazy_two_cycle -. 1.0) < 1e-8)

let test_slem_requires_reversible () =
  try
    ignore (Spectral.slem cycle3);
    Alcotest.fail "non-reversible accepted"
  with Chain.Chain_error _ -> ()

let check_spectral_bracket (type a) (chain : a Chain.t) =
  let eps = 0.05 in
  match Mixing.mixing_time ~eps chain with
  | None -> Alcotest.fail "chain should mix"
  | Some t ->
    let lower, upper = Spectral.mixing_bounds ~eps chain in
    Alcotest.(check bool)
      (Printf.sprintf "%.2f <= %d <= %.2f" lower t upper)
      true
      (lower <= float_of_int t +. 1.0 && float_of_int t <= upper +. 1.0)

let test_spectral_bounds_bracket_mixing () =
  check_spectral_bracket two_state;
  check_spectral_bracket lazy_two_cycle;
  check_spectral_bracket lazy_path4

(* --- Diagnostics ----------------------------------------------------------- *)

let test_autocorrelation () =
  let alternating = [| 0.; 1.; 0.; 1.; 0.; 1.; 0.; 1. |] in
  Alcotest.(check bool) "alternating lag-1 negative" true (Diagnostics.autocorrelation alternating 1 < 0.0);
  let constant = Array.make 10 1.0 in
  Alcotest.(check (float 0.0)) "constant trace rho 0" 0.0 (Diagnostics.autocorrelation constant 1);
  let block = Array.append (Array.make 10 0.0) (Array.make 10 1.0) in
  Alcotest.(check bool) "blocky lag-1 positive" true (Diagnostics.autocorrelation block 1 > 0.5)

let test_effective_sample_size () =
  let block = Array.append (Array.make 50 0.0) (Array.make 50 1.0) in
  let rng = Random.State.make [| 1 |] in
  let iid = Array.init 100 (fun _ -> if Random.State.bool rng then 1.0 else 0.0) in
  Alcotest.(check bool) "blocky trace has tiny ESS" true
    (Diagnostics.effective_sample_size block < Diagnostics.effective_sample_size iid /. 2.0)

let test_gelman_rubin () =
  let rng = Random.State.make [| 2 |] in
  let noisy mu = Array.init 200 (fun _ -> mu +. Random.State.float rng 0.2) in
  let same = Diagnostics.gelman_rubin [ noisy 0.5; noisy 0.5; noisy 0.5 ] in
  Alcotest.(check bool) "converged chains R ~ 1" true (same < 1.1);
  let split = Diagnostics.gelman_rubin [ noisy 0.1; noisy 0.9 ] in
  Alcotest.(check bool) "diverged chains R >> 1" true (split > 2.0)

let test_diagnostics_on_real_walk () =
  (* Traces from the two_state chain: ESS positive, R-hat near 1. *)
  let trace seed =
    let rng = Random.State.make [| seed |] in
    Diagnostics.indicator_trace (Walk.run rng two_state ~start:0 ~steps:2000) (fun s -> s = 1)
  in
  let t1 = trace 1 and t2 = trace 2 and t3 = trace 3 in
  Alcotest.(check bool) "mean near 2/3" true (abs_float (Diagnostics.mean t1 -. (2. /. 3.)) < 0.05);
  Alcotest.(check bool) "ess positive" true (Diagnostics.effective_sample_size t1 > 100.0);
  Alcotest.(check bool) "r-hat near 1" true (Diagnostics.gelman_rubin [ t1; t2; t3 ] < 1.05)

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "markov"
    [ ( "chain",
        [ Alcotest.test_case "construction" `Quick test_chain_construction;
          Alcotest.test_case "invalid row" `Quick test_chain_invalid_row;
          Alcotest.test_case "of_step exploration" `Quick test_chain_of_step;
        ] );
      ( "scc",
        [ Alcotest.test_case "structure" `Quick test_scc_structure;
          Alcotest.test_case "topological ids" `Quick test_scc_topological;
          Alcotest.test_case "single component" `Quick test_scc_single
        ] );
      ("classify", [ Alcotest.test_case "classification" `Quick test_classify ]);
      ( "linalg",
        [ Alcotest.test_case "solve" `Quick test_linalg_solve;
          Alcotest.test_case "solve with pivoting" `Quick test_linalg_solve_permutation;
          QCheck_alcotest.to_alcotest prop_linalg_matches_gauss_jordan
        ] );
      ( "stationary",
        [ Alcotest.test_case "exact" `Quick test_stationary_exact;
          Alcotest.test_case "cycle" `Quick test_stationary_cycle;
          Alcotest.test_case "reducible raises" `Quick test_stationary_reducible_raises;
          Alcotest.test_case "power iteration" `Quick test_stationary_power_iteration;
          Alcotest.test_case "on component" `Quick test_stationary_on_component
        ] );
      ( "absorption",
        [ Alcotest.test_case "two sinks" `Quick test_absorption;
          Alcotest.test_case "gambler" `Quick test_absorption_gambler;
          Alcotest.test_case "from closed state" `Quick test_absorption_from_closed_state;
          Alcotest.test_case "gambler's ruin closed forms" `Quick test_gambler_ruin_closed_forms
        ] );
      ( "mixing",
        [ Alcotest.test_case "evolve" `Quick test_mixing_evolve;
          Alcotest.test_case "mixing time" `Quick test_mixing_time;
          Alcotest.test_case "tv monotone" `Quick test_mixing_monotone;
          Alcotest.test_case "certified vs float search" `Quick test_mixing_certified
        ] );
      ( "walk",
        [ Alcotest.test_case "occupation" `Slow test_walk_occupation;
          Alcotest.test_case "run length" `Quick test_walk_run_length;
          Alcotest.test_case "estimate stationary" `Slow test_estimate_stationary
        ] );
      ( "hitting",
        [ Alcotest.test_case "deterministic cycle" `Quick test_hitting_deterministic_cycle;
          Alcotest.test_case "two-state geometric" `Quick test_hitting_two_state;
          Alcotest.test_case "unreachable -> None" `Quick test_hitting_unreachable;
          Alcotest.test_case "return time = 1/pi" `Quick test_return_time_is_inverse_stationary
        ] );
      ( "conductance",
        [ Alcotest.test_case "reversibility" `Quick test_reversibility;
          Alcotest.test_case "known values" `Quick test_conductance_values;
          Alcotest.test_case "guards" `Quick test_conductance_guards;
          Alcotest.test_case "cheeger brackets mixing" `Quick test_cheeger_bounds_bracket_mixing
        ] );
      ( "lumping",
        [ Alcotest.test_case "symmetric cycle" `Quick test_lump_symmetric_cycle;
          Alcotest.test_case "trivial labelling" `Quick test_lump_trivial_labelling;
          Alcotest.test_case "heterogeneous split" `Quick test_lump_heterogeneous_not_merged;
          Alcotest.test_case "product chain coarsest" `Quick test_lump_product_coarsest;
          QCheck_alcotest.to_alcotest prop_lumping_matches_direct;
          QCheck_alcotest.to_alcotest prop_lump_matches_rounds;
          QCheck_alcotest.to_alcotest prop_lumped_reducible_matches_full
        ] );
      ( "chain-io",
        [ Alcotest.test_case "roundtrip" `Quick test_chain_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_chain_io_errors;
          Alcotest.test_case "comments" `Quick test_chain_io_comments
        ] );
      ( "spectral",
        [ Alcotest.test_case "two-state slem" `Quick test_slem_two_state;
          Alcotest.test_case "lazy uniform slem" `Quick test_slem_lazy_uniform;
          Alcotest.test_case "requires reversible" `Quick test_slem_requires_reversible;
          Alcotest.test_case "bounds bracket mixing" `Quick test_spectral_bounds_bracket_mixing
        ] );
      ( "diagnostics",
        [ Alcotest.test_case "autocorrelation" `Quick test_autocorrelation;
          Alcotest.test_case "effective sample size" `Quick test_effective_sample_size;
          Alcotest.test_case "gelman-rubin" `Quick test_gelman_rubin;
          Alcotest.test_case "on a real walk" `Slow test_diagnostics_on_real_walk
        ] );
      ( "props",
        qsuite [ prop_stationary_fixed_point; prop_stationary_sums_to_one; prop_power_iteration_agrees ] )
    ]
