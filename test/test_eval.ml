(* Tests for the evaluation engines, against hand-computed ground truths
   from the paper's examples. *)

open Relational
open Lang
open Eval
module Q = Bigq.Q
module Dist = Prob.Dist
module P = Prob.Palgebra

let v_int n = Value.Int n
let v_str s = Value.Str s
let rel cols rows = Relation.make cols (List.map Tuple.of_list rows)
let q_t = Alcotest.testable Q.pp Q.equal

let parse = Parser.parse

(* Fraction of a sampler run's trials that hit. *)
let estimate (r : Pool.run) = float_of_int r.Pool.hits /. float_of_int r.Pool.completed

let inflationary_query src db =
  let parsed = parse src in
  let event = Option.get parsed.Parser.event in
  let kernel, init = Compile.inflationary_kernel parsed.Parser.program db in
  (Inflationary.of_forever (Forever.make ~kernel ~event), init)

let noninflationary_query src db =
  let parsed = parse src in
  let event = Option.get parsed.Parser.event in
  let kernel, init = Compile.noninflationary_kernel parsed.Parser.program db in
  (Forever.make ~kernel ~event, init)

(* --- Example 3.9: reachability in a graph ------------------------------ *)

let reach_src = "C(v) :- .\nC2(<X>, Y) :- C(X), e(X, Y).\nC(Y) :- C2(X, Y).\n?- C(w)."
let fork_db = Database.of_list [ ("e", rel [ "x1"; "x2" ] [ [ v_str "v"; v_str "w" ]; [ v_str "v"; v_str "u" ] ]) ]

let test_reachability_fork () =
  let q, init = inflationary_query reach_src fork_db in
  Alcotest.check q_t "Pr[w reached] = 1/2" Q.half (Exact_inflationary.eval q init)

let test_reachability_line () =
  (* v -> w -> u: reaching u is certain. *)
  let db = Database.of_list [ ("e", rel [ "x1"; "x2" ] [ [ v_str "v"; v_str "w" ]; [ v_str "w"; v_str "u" ] ]) ] in
  let q, init = inflationary_query "C(v) :- .\nC2(<X>, Y) :- C(X), e(X, Y).\nC(Y) :- C2(X, Y).\n?- C(u)." db in
  Alcotest.check q_t "certain" Q.one (Exact_inflationary.eval q init)

let test_reachability_two_hops () =
  (* v -> {w, u}, w -> {t}, u -> {}: Pr[t] = 1/2. *)
  let db =
    Database.of_list
      [ ("e", rel [ "x1"; "x2" ]
           [ [ v_str "v"; v_str "w" ]; [ v_str "v"; v_str "u" ]; [ v_str "w"; v_str "t" ] ])
      ]
  in
  let q, init = inflationary_query "C(v) :- .\nC2(<X>, Y) :- C(X), e(X, Y).\nC(Y) :- C2(X, Y).\n?- C(t)." db in
  Alcotest.check q_t "1/2 via w" Q.half (Exact_inflationary.eval q init)

let test_reachability_weighted () =
  (* Example 3.5 weights: v->w weight 1, v->u weight 3: Pr[w] = 1/4. *)
  let db =
    Database.of_list
      [ ("e", rel [ "x1"; "x2"; "x3" ] [ [ v_str "v"; v_str "w"; v_int 1 ]; [ v_str "v"; v_str "u"; v_int 3 ] ]) ]
  in
  let q, init =
    inflationary_query
      "C(v) :- .\nC2(<X>, Y) @W :- C(X), e(X, Y, W).\nC(Y) :- C2(X, Y).\n?- C(w)." db
  in
  Alcotest.check q_t "1/4" (Q.of_ints 1 4) (Exact_inflationary.eval q init)

let test_reachability_stats () =
  let q, init = inflationary_query reach_src fork_db in
  let p, stats = Exact_inflationary.eval_with_stats q init in
  Alcotest.check q_t "same result" Q.half p;
  Alcotest.(check bool) "two fixpoints" true (stats.Exact_inflationary.fixpoints = 2);
  Alcotest.(check bool) "visited > 2" true (stats.Exact_inflationary.states_visited > 2)

(* --- Example 3.5 in algebra form (C, Cold, repair-key over frontier) --- *)

let algebra_reachability_query db_edges target =
  (* Cold := C; C := C ∪ ρ_I π_J (repair-key_I@P((C − Cold) ⋈ E)). *)
  let fresh = P.Diff (P.Rel "C", P.Rel "Cold") in
  let choice =
    P.Rename
      ([ ("J", "I") ],
       P.Project ([ "J" ], P.repair_key ~weight:"P" [ "I" ] (P.Join (fresh, P.Rel "E"))))
  in
  let kernel =
    Prob.Interp.make
      [ ("Cold", P.Union (P.Rel "Cold", P.Rel "C"));
        ("C", P.Union (P.Rel "C", choice));
        Prob.Interp.unchanged "E"
      ]
  in
  let event = Event.make "C" [ v_str target ] in
  let init =
    Database.of_list
      [ ("C", rel [ "I" ] [ [ v_str "v" ] ]); ("Cold", Relation.empty [ "I" ]); ("E", db_edges) ]
  in
  (Inflationary.of_forever (Forever.make ~kernel ~event), init)

let test_algebra_reachability () =
  let edges =
    rel [ "I"; "J"; "P" ] [ [ v_str "v"; v_str "w"; v_int 1 ]; [ v_str "v"; v_str "u"; v_int 1 ] ]
  in
  let q, init = algebra_reachability_query edges "w" in
  Alcotest.check q_t "1/2 via algebra form" Q.half (Exact_inflationary.eval q init)

(* --- Example 3.6: unrestricted reuse drives probability to 1 ----------- *)

let test_unrestricted_reuse_gives_one () =
  (* C := C ∪ ρ_I(π_J(repair-key_I@P(C ⋈ E))) over E = {(a,b),(a,c)}:
     Pr[b ∈ C] = 1 because the self-loop world has vanishing probability. *)
  let edges = rel [ "I"; "J"; "P" ] [ [ v_str "a"; v_str "b"; v_int 1 ]; [ v_str "a"; v_str "c"; v_int 1 ] ] in
  let choice =
    P.Rename
      ([ ("J", "I") ], P.Project ([ "J" ], P.repair_key ~weight:"P" [ "I" ] (P.Join (P.Rel "C", P.Rel "E"))))
  in
  let kernel =
    Prob.Interp.make [ ("C", P.Union (P.Rel "C", choice)); Prob.Interp.unchanged "E" ]
  in
  let event = Event.make "C" [ v_str "b" ] in
  let init = Database.of_list [ ("C", rel [ "I" ] [ [ v_str "a" ] ]); ("E", edges) ] in
  let q = Inflationary.of_forever (Forever.make ~kernel ~event) in
  Alcotest.check q_t "Pr[b] = 1 (Example 3.6)" Q.one (Exact_inflationary.eval q init)

(* --- Diverging kernel detection ---------------------------------------- *)

let test_diverged_detection () =
  let kernel = Prob.Interp.make [ ("R", P.Rel "S"); ("S", P.Rel "S") ] in
  let event = Event.make "R" [ v_int 1 ] in
  let init = Database.of_list [ ("R", rel [ "A" ] [ [ v_int 1 ] ]); ("S", Relation.empty [ "A" ]) ] in
  let q = Inflationary.of_forever_unchecked (Forever.make ~kernel ~event) in
  try
    ignore (Exact_inflationary.eval q init);
    Alcotest.fail "expected Diverged"
  with Exact_inflationary.Diverged _ -> ()

(* --- c-table evaluation (Theorem 4.1 setting) -------------------------- *)

let test_ctable_inflationary () =
  (* R(X) :- A(X): A is a c-table with one boolean-guarded tuple. *)
  let parsed = parse "R(X) :- A(X). ?- R(t)." in
  let event = Option.get parsed.Parser.event in
  let ct =
    Prob.Ctable.make
      ~vars:[ Prob.Ctable.flag ~p:(Q.of_ints 1 4) "x" ]
      ~tables:
        [ ( "A",
            [ "x1" ],
            [ { Prob.Ctable.tuple = Tuple.of_list [ v_str "t" ];
                cond = Prob.Ctable.CEq (Prob.Ctable.TVar "x", Prob.Ctable.TLit (Value.Bool true)) }
            ] )
        ]
  in
  Alcotest.check q_t "1/4" (Q.of_ints 1 4)
    (Exact_inflationary.eval_ctable ~program:parsed.Parser.program ~event ct)

(* The pc-table reference: one exact fixpoint of the uncompiled kernel
   per world, averaged. *)
let by_enumeration ~program ~event ct =
  let worlds = Prob.Ctable.worlds ct in
  let kernel, _ = Compile.inflationary_kernel program (fst (List.hd (Prob.Dist.support worlds))) in
  Exact_inflationary.eval_worlds ~prepare:(Compile.inflationary_initial program)
    (Inflationary.of_forever_unchecked (Forever.make ~kernel ~event))
    worlds

(* A fact whose lineage grows in a later round than the one that last
   fired it must be fired again.  The rows are listed so that the direct
   edge a->d derives R(d) in the first round and the detour a->b->c->f->d
   only reaches d two rounds after R(d) last took part in a join; R(e)
   must see both.  The reference enumerates the 64 worlds. *)
let test_lineage_late_growth () =
  let parsed =
    parse
      "var x1 = { true: 1/2, false: 1/2 }.\n\
       var x2 = { true: 1/3, false: 2/3 }.\n\
       var x3 = { true: 1/2, false: 1/2 }.\n\
       var x4 = { true: 3/4, false: 1/4 }.\n\
       var x5 = { true: 1/2, false: 1/2 }.\n\
       var x6 = { true: 1/2, false: 1/2 }.\n\
       e(a, b) when x2 = true.\ne(b, c) when x3 = true.\ne(c, f) when x6 = true.\n\
       e(f, d) when x4 = true.\ne(a, d) when x1 = true.\ne(d, e) when x5 = true.\n\
       R(a) :- .\nR(Y) :- R(X), e(X, Y).\n?- R(e)."
  in
  let program = parsed.Parser.program and event = Option.get parsed.Parser.event in
  let ct = Option.get (Parser.ctable_of parsed) in
  (* (x1 or x2 x3 x6 x4) x5 = (1/2 + 1/2 * 1/3 * 1/2 * 1/2 * 3/4) * 1/2 = 17/64 *)
  let p, how = Exact_inflationary.eval_ctable_method ~program ~event ct in
  Alcotest.(check bool) "lineage path" true
    (match how with Exact_inflationary.Lineage _ -> true | Exact_inflationary.Worlds -> false);
  Alcotest.check q_t "17/64" (Q.of_ints 17 64) p;
  Alcotest.check q_t "= enumeration" p (by_enumeration ~program ~event ct)

(* --- Sampling engine (Theorem 4.3) -------------------------------------- *)

let test_samples_needed () =
  (* Hoeffding: eps=0.1, delta=0.05 -> ln(40)/0.02 ≈ 185. *)
  let m = Sample_inflationary.samples_needed ~eps:0.1 ~delta:0.05 in
  Alcotest.(check bool) "near 185" true (m >= 180 && m <= 190);
  (* Quadratic in 1/eps. *)
  let m2 = Sample_inflationary.samples_needed ~eps:0.05 ~delta:0.05 in
  Alcotest.(check bool) "4x samples for eps/2" true (m2 >= (4 * m) - 4 && m2 <= (4 * m) + 4)

let test_sample_inflationary_close () =
  let q, init = inflationary_query reach_src fork_db in
  let rng = Random.State.make [| 1 |] in
  let p = estimate (Sample_inflationary.run_samples ~samples:4000 rng q init) in
  Alcotest.(check bool) "close to 1/2" true (abs_float (p -. 0.5) < 0.05)

let test_sample_inflationary_ctable () =
  let parsed = parse "R(X) :- A(X). ?- R(t)." in
  let event = Option.get parsed.Parser.event in
  let ct =
    Prob.Ctable.make
      ~vars:[ Prob.Ctable.flag ~p:(Q.of_ints 1 4) "x" ]
      ~tables:
        [ ( "A",
            [ "x1" ],
            [ { Prob.Ctable.tuple = Tuple.of_list [ v_str "t" ];
                cond = Prob.Ctable.CEq (Prob.Ctable.TVar "x", Prob.Ctable.TLit (Value.Bool true)) }
            ] )
        ]
  in
  let sampler = Sample_inflationary.ctable_sampler ~program:parsed.Parser.program ct in
  let kernel, _ =
    Compile.inflationary_kernel parsed.Parser.program (sampler (Random.State.make [| 0 |]))
  in
  let q = Inflationary.of_forever_unchecked (Forever.make ~kernel ~event) in
  let rng = Random.State.make [| 2 |] in
  let p =
    estimate
      (Sample_inflationary.run_samples ~init_sampler:sampler ~samples:4000 rng q Database.empty)
  in
  Alcotest.(check bool) "close to 1/4" true (abs_float (p -. 0.25) < 0.05)

(* --- Non-inflationary exact (Prop 5.4 / Thm 5.5) ------------------------ *)

(* Random walk over a, b where b has a self-loop:
   a -> b; b -> a (w 1), b -> b (w 1).  Stationary: (1/3, 2/3). *)
let walk_src = "?C(Y) @W :- C(X), e(X, Y, W).\n?- C(b)."

let walk_db =
  Database.of_list
    [ ("C", rel [ "x1" ] [ [ v_str "a" ] ]);
      ("e",
       rel [ "x1"; "x2"; "x3" ]
         [ [ v_str "a"; v_str "b"; v_int 1 ];
           [ v_str "b"; v_str "a"; v_int 1 ];
           [ v_str "b"; v_str "b"; v_int 1 ]
         ])
    ]

let test_noninflationary_walk () =
  let q, init = noninflationary_query walk_src walk_db in
  Alcotest.check q_t "stationary mass 2/3" (Q.of_ints 2 3) (Exact_noninflationary.eval q init)

let test_noninflationary_analysis () =
  let q, init = noninflationary_query walk_src walk_db in
  let a = Exact_noninflationary.analyse q init in
  Alcotest.(check int) "2 states" 2 a.Exact_noninflationary.num_states;
  Alcotest.(check bool) "irreducible" true a.Exact_noninflationary.irreducible;
  Alcotest.(check bool) "ergodic" true a.Exact_noninflationary.ergodic

let test_noninflationary_absorbing () =
  (* start -> l or r (uniform); l and r absorb (self-loops). *)
  let db =
    Database.of_list
      [ ("C", rel [ "x1" ] [ [ v_str "s" ] ]);
        ("e",
         rel [ "x1"; "x2"; "x3" ]
           [ [ v_str "s"; v_str "l"; v_int 1 ];
             [ v_str "s"; v_str "r"; v_int 3 ];
             [ v_str "l"; v_str "l"; v_int 1 ];
             [ v_str "r"; v_str "r"; v_int 1 ]
           ])
      ]
  in
  let q, init = noninflationary_query "?C(Y) @W :- C(X), e(X, Y, W).\n?- C(r)." db in
  let a = Exact_noninflationary.analyse q init in
  Alcotest.(check bool) "not irreducible" false a.Exact_noninflationary.irreducible;
  Alcotest.check q_t "absorbed right w.p. 3/4" (Q.of_ints 3 4) a.Exact_noninflationary.result

let test_noninflationary_periodic () =
  (* Two-cycle a <-> b: periodic, irreducible; time-average of C(b) is 1/2. *)
  let db =
    Database.of_list
      [ ("C", rel [ "x1" ] [ [ v_str "a" ] ]);
        ("e", rel [ "x1"; "x2"; "x3" ] [ [ v_str "a"; v_str "b"; v_int 1 ]; [ v_str "b"; v_str "a"; v_int 1 ] ])
      ]
  in
  let q, init = noninflationary_query walk_src db in
  Alcotest.check q_t "half by time average" Q.half (Exact_noninflationary.eval q init)

let test_noninflationary_resampling_coin () =
  (* A(<X>) :- base(X): each step re-flips; long-run Pr[A = {h}] = 1/2. *)
  let db = Database.of_list [ ("base", rel [ "x1" ] [ [ v_str "h" ]; [ v_str "t" ] ]) ] in
  let q, init = noninflationary_query "?A(X) :- base(X). ?- A(h)." db in
  Alcotest.check q_t "1/2" Q.half (Exact_noninflationary.eval q init)

let test_max_states_guard () =
  let q, init = noninflationary_query walk_src walk_db in
  try
    ignore (Exact_noninflationary.eval ~max_states:1 q init);
    Alcotest.fail "expected Chain_error"
  with Markov.Chain.Chain_error _ -> ()

(* --- Non-inflationary sampling (Thm 5.6) -------------------------------- *)

let test_sample_noninflationary () =
  let q, init = noninflationary_query walk_src walk_db in
  let rng = Random.State.make [| 3 |] in
  let burn_in =
    match Sample_noninflationary.estimate_burn_in ~eps:0.01 q init with
    | Some t -> t
    | None -> Alcotest.fail "walk chain should mix"
  in
  Alcotest.(check bool) "small burn-in" true (burn_in < 100);
  let p = estimate (Sample_noninflationary.run_samples rng ~burn_in ~samples:4000 q init) in
  Alcotest.(check bool) "close to 2/3" true (abs_float (p -. (2. /. 3.)) < 0.05)

let test_sample_time_average () =
  let q, init = noninflationary_query walk_src walk_db in
  let rng = Random.State.make [| 4 |] in
  let p = Sample_noninflationary.eval_time_average rng ~steps:50_000 q init in
  Alcotest.(check bool) "time average close to 2/3" true (abs_float (p -. (2. /. 3.)) < 0.03)

(* --- Partitioning (§5.1) ------------------------------------------------ *)

let disjoint_db =
  (* Two disconnected components {a,b} and {c,d}. *)
  Database.of_list
    [ ("C", rel [ "x1" ] [ [ v_str "a" ] ]);
      ("e",
       rel [ "x1"; "x2"; "x3" ]
         [ [ v_str "a"; v_str "b"; v_int 1 ];
           [ v_str "b"; v_str "a"; v_int 1 ];
           [ v_str "c"; v_str "d"; v_int 1 ];
           [ v_str "d"; v_str "c"; v_int 1 ]
         ])
    ]

let test_partition_classes () =
  let parsed = parse walk_src in
  let parts = Partition.classes parsed.Parser.program disjoint_db in
  (* The start tuple and the a/b edges interact; the two c/d edges never
     co-fire with anything, so each stays a singleton class. *)
  Alcotest.(check int) "3 classes" 3 (List.length parts);
  let sizes = List.sort Int.compare (List.map List.length parts) in
  Alcotest.(check (list int)) "sizes" [ 1; 1; 3 ] sizes

let test_partition_agrees_with_direct () =
  let parsed = parse walk_src in
  let event = Option.get parsed.Parser.event in
  let direct =
    let kernel, init = Compile.noninflationary_kernel parsed.Parser.program disjoint_db in
    Exact_noninflationary.eval (Forever.make ~kernel ~event) init
  in
  let partitioned = Partition.eval_noninflationary parsed.Parser.program disjoint_db event in
  Alcotest.check q_t "same answer" direct partitioned

let test_partition_saturate () =
  let parsed = parse "R(Y) :- R(X), e(X, Y). R(a) :- ." in
  let db = Database.of_list [ ("e", rel [ "x1"; "x2" ] [ [ v_str "a"; v_str "b" ] ]) ] in
  let facts = Partition.saturate parsed.Parser.program db in
  let derived_b =
    List.exists (fun (p, t, _) -> String.equal p "R" && Tuple.equal t (Tuple.of_list [ v_str "b" ])) facts
  in
  Alcotest.(check bool) "R(b) derived" true derived_b

(* --- Lumped evaluation and hitting times --------------------------------- *)

let test_eval_lumped_agrees () =
  let q, init = noninflationary_query walk_src walk_db in
  Alcotest.check q_t "lumped = full chain" (Full_chain.query_mass q init)
    (Exact_noninflationary.eval q init)

let test_eval_lumped_glauber () =
  (* The 72-state Glauber chain lumps dramatically under the colour event
     and gives the same exact answer. *)
  let kernel, db =
    Workload.Coloring.glauber
      ~edges:[ (0, 1); (1, 2); (0, 2) ]
      ~num_nodes:3 ~colors:[ "c1"; "c2"; "c3"; "c4" ]
      ~initial:[ (0, "c1"); (1, "c2"); (2, "c3") ]
  in
  let event = Workload.Coloring.color_event ~node:0 ~color:"c1" in
  let q = Forever.make ~kernel ~event in
  let a = Exact_noninflationary.analyse q db in
  Alcotest.check q_t "lumped Glauber = 1/4" (Q.of_ints 1 4) a.Exact_noninflationary.result;
  Alcotest.check q_t "full chain = 1/4" (Q.of_ints 1 4) (Full_chain.query_mass q db);
  Alcotest.(check bool) "lumping shrinks the chain" true
    (a.Exact_noninflationary.num_classes < a.Exact_noninflationary.num_states)

let test_expected_hitting_time () =
  (* Walk a -> b (certain), b -> a/b half: from a, E[reach b] = 1. *)
  let q, init = noninflationary_query walk_src walk_db in
  (match Exact_noninflationary.expected_hitting_time q init with
   | Some t -> Alcotest.check q_t "one step to b" Q.one t
   | None -> Alcotest.fail "expected finite hitting time");
  (* Event already true initially: 0. *)
  let q0, init0 = noninflationary_query "?C(Y) @W :- C(X), e(X, Y, W).\n?- C(a)." walk_db in
  match Exact_noninflationary.expected_hitting_time q0 init0 with
  | Some t -> Alcotest.check q_t "already there" Q.zero t
  | None -> Alcotest.fail "expected 0"

let test_hitting_time_unreachable () =
  (* Event on a node that the walk can never occupy. *)
  let q, init = noninflationary_query "?C(Y) @W :- C(X), e(X, Y, W).\n?- C(zzz)." walk_db in
  Alcotest.(check bool) "no event states" true
    (Option.is_none (Exact_noninflationary.expected_hitting_time q init))

let test_eval_events_shared_chain () =
  (* The full stationary distribution of the walk in one chain build. *)
  let parsed = parse walk_src in
  let kernel, init = Compile.noninflationary_kernel parsed.Parser.program walk_db in
  let events = [ Event.make "C" [ v_str "a" ]; Event.make "C" [ v_str "b" ] ] in
  let results = (Exact_noninflationary.eval_events ~kernel ~events init).masses in
  Alcotest.check q_t "pi(a)" (Q.of_ints 1 3) (List.assoc (List.nth events 0) results);
  Alcotest.check q_t "pi(b)" (Q.of_ints 2 3) (List.assoc (List.nth events 1) results);
  Alcotest.check q_t "masses sum to 1" Q.one (Q.sum (List.map snd results))

let test_eval_events_absorbing () =
  (* Multi-event over a reducible chain: shares the Thm 5.5 decomposition. *)
  let db =
    Database.of_list
      [ ("C", rel [ "x1" ] [ [ v_str "s" ] ]);
        ("e",
         rel [ "x1"; "x2"; "x3" ]
           [ [ v_str "s"; v_str "l"; v_int 1 ]; [ v_str "s"; v_str "r"; v_int 3 ];
             [ v_str "l"; v_str "l"; v_int 1 ]; [ v_str "r"; v_str "r"; v_int 1 ]
           ])
      ]
  in
  let parsed = parse "?C(Y) @W :- C(X), e(X, Y, W).\n?- C(l)." in
  let kernel, init = Compile.noninflationary_kernel parsed.Parser.program db in
  let events = [ Event.make "C" [ v_str "l" ]; Event.make "C" [ v_str "r" ]; Event.make "C" [ v_str "s" ] ] in
  let results = (Exact_noninflationary.eval_events ~kernel ~events init).masses in
  Alcotest.check q_t "left 1/4" (Q.of_ints 1 4) (List.nth results 0 |> snd);
  Alcotest.check q_t "right 3/4" (Q.of_ints 3 4) (List.nth results 1 |> snd);
  Alcotest.check q_t "transient 0" Q.zero (List.nth results 2 |> snd)

let test_parser_multiple_events () =
  let p = parse "e(a).\n?- e(a).\n?- e(b)." in
  Alcotest.(check int) "two events" 2 (List.length p.Parser.events);
  Alcotest.(check bool) "first is event" true (Option.is_some p.Parser.event)

(* --- pc-table macro semantics (Section 3.1/3.3) -------------------------- *)

let coin_src =
  "var x = { true: 1/3, false: 2/3 }.\nside(heads) when x = true.\nside(tails) when x != true.\nSeen(X) :- side(X).\n?- Seen(heads)."

let test_pctable_inflationary_once () =
  (* Inflationary: the coin is flipped once. *)
  let r = Engine.run ~semantics:Engine.Inflationary ~method_:Engine.Exact (parse coin_src) in
  match r.Engine.exact with
  | Some p -> Alcotest.check q_t "one flip: 1/3" (Q.of_ints 1 3) p
  | None -> Alcotest.fail "exact expected"

let test_pctable_noninflationary_resampled () =
  (* Non-inflationary: re-flipped forever; stationary probability 1/3. *)
  let r = Engine.run ~semantics:Engine.Noninflationary ~method_:Engine.Exact (parse coin_src) in
  match r.Engine.exact with
  | Some p -> Alcotest.check q_t "resampled: 1/3" (Q.of_ints 1 3) p
  | None -> Alcotest.fail "exact expected"

let test_pctable_latch_distinguishes_semantics () =
  (* Done latches: inflationary = 1/4 (one draw), noninflationary = 1
     (eventually a draw succeeds) — the Thm 5.1 mechanism. *)
  let src =
    "var x = { true: 1/4, false: 3/4 }.\nhit(a) when x = true.\nDone(X) :- hit(X).\nDone(X) :- Done(X).\n?- Done(a)."
  in
  let inf = Engine.run ~semantics:Engine.Inflationary ~method_:Engine.Exact (parse src) in
  let noninf = Engine.run ~semantics:Engine.Noninflationary ~method_:Engine.Exact (parse src) in
  Alcotest.check q_t "inflationary 1/4" (Q.of_ints 1 4) (Option.get inf.Engine.exact);
  Alcotest.check q_t "noninflationary 1" Q.one (Option.get noninf.Engine.exact)

let test_pctable_uncertain_line_cli_path () =
  let src =
    "var e1 = { true: 1/2, false: 1/2 }.\nvar e2 = { true: 1/2, false: 1/2 }.\n\
     edge(v0, v1) when e1 = true.\nedge(v1, v2) when e2 = true.\n\
     R(v0) :- .\nR(Y) :- R(X), edge(X, Y).\n?- R(v2)."
  in
  let r = Engine.run ~semantics:Engine.Inflationary ~method_:Engine.Exact (parse src) in
  Alcotest.check q_t "1/4" (Q.of_ints 1 4) (Option.get r.Engine.exact);
  let s = Engine.run ~seed:3 ~semantics:Engine.Inflationary
      ~method_:(Engine.Sampling { eps = 0.05; delta = 0.05; burn_in = 0 }) (parse src)
  in
  Alcotest.(check bool) "sampled close" true (abs_float (s.Engine.probability -. 0.25) < 0.05)

let test_pctable_macro_kernel_direct () =
  (* Direct use of the macro expansion: two-valued variable over a
     three-valued domain relation. *)
  let ct =
    Prob.Ctable.make
      ~vars:[ { Prob.Ctable.vname = "x"; domain = [ (v_int 1, Q.of_ints 1 4); (v_int 2, Q.of_ints 3 4) ] } ]
      ~tables:
        [ ( "A",
            [ "x1" ],
            [ { Prob.Ctable.tuple = Tuple.of_list [ v_str "one" ];
                cond = Prob.Ctable.CEq (Prob.Ctable.TVar "x", Prob.Ctable.TLit (v_int 1)) };
              { Prob.Ctable.tuple = Tuple.of_list [ v_str "two" ];
                cond = Prob.Ctable.CNeq (Prob.Ctable.TVar "x", Prob.Ctable.TLit (v_int 1)) }
            ] )
        ]
  in
  let kernel, init = Compile.noninflationary_kernel_ctable [] ct in
  (* Empty program: the chain just re-samples A forever. *)
  let q = Forever.make ~kernel ~event:(Event.make "A" [ v_str "one" ]) in
  Alcotest.check q_t "stationary 1/4" (Q.of_ints 1 4) (Exact_noninflationary.eval q init)

(* --- Engine front-end ---------------------------------------------------- *)

let test_engine_exact_inflationary () =
  let parsed = parse "C(v) :- .\nC2(<X>, Y) :- C(X), e(X, Y).\nC(Y) :- C2(X, Y).\ne(v, w).\ne(v, u).\n?- C(w)." in
  let r = Engine.run ~semantics:Engine.Inflationary ~method_:Engine.Exact parsed in
  (match r.Engine.exact with
   | Some p -> Alcotest.check q_t "1/2" Q.half p
   | None -> Alcotest.fail "exact expected");
  Alcotest.(check bool) "diagnostics" true (List.mem_assoc "states visited" r.Engine.diagnostics)

let test_engine_exact_noninflationary () =
  let parsed =
    parse
      "?C(Y) @W :- C(X), e(X, Y, W).\nC(a).\ne(a, b, 1).\ne(b, a, 1).\ne(b, b, 1).\n?- C(b)."
  in
  let r = Engine.run ~semantics:Engine.Noninflationary ~method_:Engine.Exact parsed in
  match r.Engine.exact with
  | Some p -> Alcotest.check q_t "2/3" (Q.of_ints 2 3) p
  | None -> Alcotest.fail "exact expected"

let test_engine_sampling () =
  let parsed = parse "C(v) :- .\nC2(<X>, Y) :- C(X), e(X, Y).\nC(Y) :- C2(X, Y).\ne(v, w).\ne(v, u).\n?- C(w)." in
  let r =
    Engine.run ~seed:5 ~semantics:Engine.Inflationary
      ~method_:(Engine.Sampling { eps = 0.05; delta = 0.05; burn_in = 0 })
      parsed
  in
  Alcotest.(check bool) "close to 1/2" true (abs_float (r.Engine.probability -. 0.5) < 0.05)

let test_engine_missing_event () =
  let parsed = parse "e(a, b)." in
  try
    ignore (Engine.run ~semantics:Engine.Inflationary ~method_:Engine.Exact parsed);
    Alcotest.fail "expected Engine_error"
  with Engine.Engine_error _ -> ()

(* --- Negation end-to-end ------------------------------------------------ *)

let test_negation_frontier_reachability () =
  (* Example 3.5's frontier written purely in datalog via negation. *)
  let src =
    "C(v) :- .\n\
     Cold(X) :- C(X).\n\
     F(X) :- C(X), !Cold(X).\n\
     C2(<X>, Y) :- F(X), e(X, Y).\n\
     C(Y) :- C2(X, Y).\n\
     ?- C(w)."
  in
  let q, init = inflationary_query src fork_db in
  Alcotest.check q_t "frontier form gives 1/2" Q.half (Exact_inflationary.eval q init)

let test_negation_noninflationary_alternation () =
  (* ?C(Y) :- v(Y), !C(Y): jump to a node the walker is NOT at.  On two
     nodes the walk alternates; time-average of C(b) is 1/2. *)
  let db =
    Database.of_list
      [ ("v", rel [ "x1" ] [ [ v_str "a" ]; [ v_str "b" ] ]);
        ("C", rel [ "x1" ] [ [ v_str "a" ] ])
      ]
  in
  let q, init = noninflationary_query "?C(Y) :- v(Y), !C(Y). ?- C(b)." db in
  Alcotest.check q_t "alternating walk" Q.half (Exact_noninflationary.eval q init)

let test_negation_disables_partitioning () =
  let parsed = parse "?C(Y) :- v(Y), !C(Y). ?- C(b)." in
  let db =
    Database.of_list
      [ ("v", rel [ "x1" ] [ [ v_str "a" ]; [ v_str "b" ] ]);
        ("C", rel [ "x1" ] [ [ v_str "a" ] ])
      ]
  in
  let parts = Partition.classes parsed.Parser.program db in
  Alcotest.(check int) "single class" 1 (List.length parts);
  (* And the partitioned evaluation still agrees (it is just direct). *)
  let event = Option.get parsed.Parser.event in
  Alcotest.check q_t "partitioned = direct" Q.half
    (Partition.eval_noninflationary parsed.Parser.program db event)

(* --- Domain-parallel sampling (Pool) ------------------------------------ *)

let test_pool_map_tasks () =
  let expected = Array.init 37 (fun i -> i * i) in
  List.iter
    (fun d ->
      let got = Pool.map_tasks ~domains:d (Array.init 37 (fun i () -> i * i)) in
      Alcotest.(check (array int)) "results in task order" expected got)
    [ 1; 2; 4; 64 ]

(* More domains than the runtime can hold at once (128 in OCaml 5.1): the
   pool clamps to the machine's parallelism instead of failing midway.  The
   tasks sleep so that unclamped spawns would all be alive together. *)
let test_pool_map_tasks_clamped () =
  let task i () =
    Unix.sleepf 0.01;
    i * i
  in
  let got = Pool.map_tasks ~domains:200 (Array.init 200 task) in
  Alcotest.(check (array int)) "200 results in task order" (Array.init 200 (fun i -> i * i)) got

let hits_at ~domains ~samples seed run =
  (Pool.run_samples ~domains ~samples (Random.State.make [| seed |]) run).Pool.hits

let test_pool_run_samples_deterministic () =
  let run rng = Random.State.float rng 1.0 < 0.3 in
  let hits d = hits_at ~domains:d ~samples:500 9 run in
  let h1 = hits 1 in
  Alcotest.(check bool) "plausible count" true (h1 > 80 && h1 < 230);
  List.iter
    (fun d -> Alcotest.(check int) (Printf.sprintf "domains=%d same count" d) h1 (hits d))
    [ 2; 3; 4; 8 ]

let test_par_inflationary_deterministic () =
  let q, init = inflationary_query reach_src fork_db in
  let est d seed =
    estimate
      (Sample_inflationary.run_samples ~domains:d ~samples:400 (Random.State.make [| seed |]) q
         init)
  in
  let e = est 1 3 in
  Alcotest.(check (float 0.0)) "rerun bit-identical" e (est 1 3);
  Alcotest.(check (float 0.0)) "domains=2 identical" e (est 2 3);
  Alcotest.(check (float 0.0)) "domains=4 identical" e (est 4 3);
  Alcotest.(check (float 0.1)) "near exact 1/2" 0.5 e

let test_par_noninflationary_deterministic () =
  (* Fresh uniform choice between a and b every step: long-run Pr[C(b)] = 1/2. *)
  let db =
    Database.of_list
      [ ("v", rel [ "x1"; "x2" ] [ [ v_str "a"; v_int 1 ]; [ v_str "b"; v_int 1 ] ]);
        ("C", rel [ "x1" ] [ [ v_str "a" ] ])
      ]
  in
  let q, init = noninflationary_query "?C(Y) @W :- v(Y, W). ?- C(b)." db in
  let est d =
    estimate
      (Sample_noninflationary.run_samples (Random.State.make [| 5 |]) ~domains:d ~burn_in:7
         ~samples:400 q init)
  in
  let e = est 1 in
  Alcotest.(check (float 0.0)) "domains=2 identical" e (est 2);
  Alcotest.(check (float 0.0)) "domains=4 identical" e (est 4);
  Alcotest.(check (float 0.1)) "near exact 1/2" 0.5 e

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_pool_worker_error () =
  (* A run function that starts failing after 7 calls: the pool must surface
     the failure as Worker_error with the shard id and its completed count,
     not let the raw exception escape an anonymous domain. *)
  List.iter
    (fun domains ->
      let calls = Atomic.make 0 in
      let run rng =
        ignore (Random.State.bits rng);
        if Atomic.fetch_and_add calls 1 >= 7 then failwith "boom";
        true
      in
      try
        ignore (hits_at ~domains ~samples:40 1 run);
        Alcotest.fail "expected Worker_error"
      with Pool.Worker_error { shard; completed; exn = Failure _; _ } ->
        Alcotest.(check bool) "shard in range" true (shard >= 0 && shard < 32);
        Alcotest.(check bool) "completed below shard size" true (completed >= 0 && completed <= 2);
        if domains = 1 then begin
          (* Sequential execution is deterministic: 40 samples over 32 shards
             give shards 0-7 two samples each, so call 8 (index 7) is shard
             3's second sample. *)
          Alcotest.(check int) "shard 3" 3 shard;
          Alcotest.(check int) "one sample completed" 1 completed
        end)
    [ 1; 4 ]

let test_pool_parity_edges () =
  (* samples < 32 collapses to one shard per sample; samples = 1 is the
     degenerate single-shard case. *)
  List.iter
    (fun samples ->
      let run rng = Random.State.float rng 1.0 < 0.37 in
      let hits d = hits_at ~domains:d ~samples 13 run in
      let h = hits 1 in
      List.iter
        (fun d ->
          Alcotest.(check int) (Printf.sprintf "samples=%d domains=%d" samples d) h (hits d))
        [ 2; 4 ])
    [ 1; 5; 31; 32; 33 ]

let prop_pool_parity =
  QCheck.Test.make ~name:"run_samples: fixed seed gives equal hits at domains 1/2/4" ~count:60
    (QCheck.make
       ~print:(fun (s, seed) -> Printf.sprintf "samples=%d seed=%d" s seed)
       QCheck.Gen.(pair (int_range 1 80) (int_bound 1000)))
    (fun (samples, seed) ->
      let run rng = Random.State.float rng 1.0 < 0.37 in
      let hits d = hits_at ~domains:d ~samples seed run in
      let h = hits 1 in
      h = hits 2 && h = hits 4)

let test_engine_domains_deterministic () =
  let parsed =
    parse
      "e(v, w).\ne(v, u).\nC(v) :- .\nC2(<X>, Y) :- C(X), e(X, Y).\nC(Y) :- C2(X, Y).\n?- C(w)."
  in
  let run d =
    Engine.run ~seed:11 ~domains:d ~semantics:Engine.Inflationary
      ~method_:(Engine.Sampling { eps = 0.1; delta = 0.1; burn_in = 0 })
      parsed
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check (float 0.0)) "1 vs 4 domains identical" r1.Engine.probability
    r4.Engine.probability;
  Alcotest.(check (option string)) "diagnostics report domains" (Some "4")
    (List.assoc_opt "domains" r4.Engine.diagnostics)

(* --- compiled plans vs interpreted kernel ------------------------------- *)

let test_analyse_lumped_diagnostics () =
  let q, init = noninflationary_query walk_src walk_db in
  let a = Exact_noninflationary.analyse q init in
  Alcotest.check q_t "result = eval" (Exact_noninflationary.eval q init)
    a.Exact_noninflationary.result;
  Alcotest.(check bool) "lumping never grows the chain" true
    (a.Exact_noninflationary.num_classes <= a.Exact_noninflationary.num_states);
  Alcotest.(check int) "walk chain has 2 states" 2 a.Exact_noninflationary.num_states

let test_engine_lumped_diagnostics () =
  let parsed =
    parse
      "?C(Y) @W :- C(X), e(X, Y, W).\nC(a).\ne(a, b, 1).\ne(b, a, 1).\ne(b, b, 1).\n?- C(b)."
  in
  let r = Engine.run ~semantics:Engine.Noninflationary ~method_:Engine.Exact parsed in
  (match r.Engine.exact with
   | Some p -> Alcotest.check q_t "2/3" (Q.of_ints 2 3) p
   | None -> Alcotest.fail "exact expected");
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " reported") true (List.mem_assoc k r.Engine.diagnostics))
    [ "chain states"; "lumped classes"; "irreducible"; "ergodic" ];
  Alcotest.(check bool) "no lumped flag" false (List.mem_assoc "lumped" r.Engine.diagnostics)

(* Independent walkers on lazy directed cycles of the given sizes (the E4
   product chain); the event puts walker 1 on its start node, so the exact
   answer is 1 / (first size). *)
let walkers_source sizes =
  let b = Buffer.create 512 in
  List.iteri
    (fun i k ->
      let w = i + 1 in
      Buffer.add_string b
        (Printf.sprintf "?C%d(Y) @W :- C%d(X), e%d(X, Y, W).\nC%d(n0).\n" w w w w);
      List.iter
        (fun { Workload.Graphs.src; dst; weight } ->
          Buffer.add_string b
            (Printf.sprintf "e%d(%s, %s, %d).\n" w (Workload.Graphs.node_name src)
               (Workload.Graphs.node_name dst) weight))
        (Workload.Graphs.cycle k))
    sizes;
  Buffer.add_string b "?- C1(n0).";
  Buffer.contents b

(* The event reads walker 1 only, so the engine slices the other two
   walkers away and explores walker 1's 3-cycle, not the 36-state
   product. *)
let test_engine_lumped_product () =
  let r =
    Engine.run ~semantics:Engine.Noninflationary ~method_:Engine.Exact
      (parse (walkers_source [ 3; 3; 4 ]))
  in
  Alcotest.check q_t "1/3" (Q.of_ints 1 3) (Option.get r.Engine.exact);
  Alcotest.(check (option string)) "cone relations" (Some "2 of 6")
    (List.assoc_opt "cone relations" r.Engine.diagnostics);
  Alcotest.(check (option string)) "chain states" (Some "3")
    (List.assoc_opt "chain states" r.Engine.diagnostics);
  Alcotest.(check (option string)) "lumped classes" (Some "3")
    (List.assoc_opt "lumped classes" r.Engine.diagnostics)

(* An event that reads every walker keeps the whole product: the engine
   explores and lumps the same chain as the unsliced kernel. *)
let test_engine_every_walker_product () =
  let src = walkers_source [ 3; 3; 4 ] ^ "\nMeet(X) :- C1(X), C2(X), C3(X).\n?- Meet(n0)." in
  let parsed = parse src in
  let parsed = { parsed with Parser.event = Some (List.nth parsed.Parser.events 1) } in
  let r = Engine.run ~semantics:Engine.Noninflationary ~method_:Engine.Exact parsed in
  let kernel, init = Engine.noninflationary_kernel parsed in
  let a =
    Exact_noninflationary.analyse (Forever.make ~kernel ~event:(Option.get parsed.Parser.event)) init
  in
  Alcotest.check q_t "1/36" (Q.of_ints 1 36) (Option.get r.Engine.exact);
  Alcotest.check q_t "unsliced answer" a.Exact_noninflationary.result (Option.get r.Engine.exact);
  Alcotest.(check (option string)) "cone relations" (Some "7 of 7")
    (List.assoc_opt "cone relations" r.Engine.diagnostics);
  Alcotest.(check (option string)) "chain states"
    (Some (string_of_int a.Exact_noninflationary.num_states))
    (List.assoc_opt "chain states" r.Engine.diagnostics);
  Alcotest.(check bool) "at least the 36-state product" true
    (a.Exact_noninflationary.num_states >= 36)

let test_engine_exact_product_4x4x4 () =
  let r =
    Engine.run ~semantics:Engine.Noninflationary ~method_:Engine.Exact
      (parse (walkers_source [ 4; 4; 4 ]))
  in
  Alcotest.check q_t "1/4" (Q.of_ints 1 4) (Option.get r.Engine.exact)

let test_engine_plan_vs_interpreted () =
  (* The engine always runs compiled plans: every exact answer equals the
     uncompiled kernel's, and every fixed-seed estimate the uncompiled
     sampler's on the same seed. *)
  let inf = reach_src ^ "\ne(v, w).\ne(v, u)." in
  let noninf = walk_src ^ "\nC(a).\ne(a, b, 1).\ne(b, a, 1).\ne(b, b, 1)." in
  let reference compile src =
    let parsed = parse src in
    let kernel, init =
      compile parsed.Parser.program (Parser.database_of_facts parsed.Parser.facts)
    in
    (Forever.make ~kernel ~event:(Option.get parsed.Parser.event), init)
  in
  let iq, iinit = reference Compile.inflationary_kernel inf in
  let iq = Inflationary.of_forever iq in
  let nq, ninit = reference Compile.noninflationary_kernel noninf in
  let engine ?domains ~semantics method_ src =
    Engine.run ~seed:13 ?domains ~semantics ~method_ (parse src)
  in
  let exact ~semantics method_ src = Option.get (engine ~semantics method_ src).Engine.exact in
  Alcotest.check q_t "inflationary exact" (Exact_inflationary.eval iq iinit)
    (exact ~semantics:Engine.Inflationary Engine.Exact inf);
  Alcotest.check q_t "noninflationary exact" (Exact_noninflationary.eval nq ninit)
    (exact ~semantics:Engine.Noninflationary Engine.Exact noninf);
  Alcotest.check q_t "noninflationary full chain" (Full_chain.query_mass nq ninit)
    (exact ~semantics:Engine.Noninflationary Engine.Exact noninf);
  let sampling = Engine.Sampling { eps = 0.1; delta = 0.1; burn_in = 8 } in
  let samples = Sample_inflationary.samples_needed ~eps:0.1 ~delta:0.1 in
  let rng () = Random.State.make [| 13 |] in
  let inf_ref = estimate (Sample_inflationary.run_samples ~samples (rng ()) iq iinit) in
  let noninf_ref =
    estimate (Sample_noninflationary.run_samples (rng ()) ~burn_in:8 ~samples nq ninit)
  in
  List.iter
    (fun domains ->
      let sampled ~semantics src = (engine ~domains ~semantics sampling src).Engine.probability in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "inflationary sampling, %d domains" domains)
        inf_ref
        (sampled ~semantics:Engine.Inflationary inf);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "noninflationary sampling, %d domains" domains)
        noninf_ref
        (sampled ~semantics:Engine.Noninflationary noninf))
    [ 1; 2; 4 ]

(* The pc-table branch reports which path answered.  On the lineage path
   the event diagram of an n-edge line has n + 2 nodes, and the stats carry
   the saturation rounds and created nodes instead of zeros. *)
let test_engine_pctable_method () =
  let parsed = Parser.parse_file "../examples/programs/uncertain_reach.pdl" in
  let r = Engine.run ~stats:true ~semantics:Engine.Inflationary ~method_:Engine.Exact parsed in
  let diag k = List.assoc_opt k r.Engine.diagnostics in
  Alcotest.check q_t "1/8" (Q.of_ints 1 8) (Option.get r.Engine.exact);
  Alcotest.(check (option string)) "method" (Some "lineage") (diag "pc-table method");
  Alcotest.(check (option string)) "nodes" (Some "5") (diag "lineage nodes");
  Alcotest.(check (option string)) "worlds" (Some "8") (diag "pc-table worlds");
  Alcotest.(check (option string)) "no plan row" None (diag "plan strategy");
  let st = Option.get r.Engine.stats in
  Alcotest.(check bool) "rounds recorded" true (st.Engine.steps > 0);
  (* Three edge literals, then e1 & e2 (one node) and e1 & e2 & e3 (two). *)
  Alcotest.(check int) "nodes created" 6 st.Engine.states;
  let neg =
    parse
      "var x = { true: 1/2, false: 1/2 }.\nb(u) when x = true.\nc(u).\nN(X) :- c(X), !b(X).\n?- N(u)."
  in
  let r = Engine.run ~semantics:Engine.Inflationary ~method_:Engine.Exact neg in
  Alcotest.check q_t "1/2" Q.half (Option.get r.Engine.exact);
  Alcotest.(check (option string)) "negation enumerates" (Some "worlds")
    (List.assoc_opt "pc-table method" r.Engine.diagnostics);
  Alcotest.(check (option string)) "no node row" None
    (List.assoc_opt "lineage nodes" r.Engine.diagnostics)

(* Every shipped example program: the engine's exact answer (compiled
   plans, semi-naive deltas) is Q-equal to the uncompiled kernel's, and on
   inflationary inputs the plans stepped without deltas agree with the
   semi-naive stepper.  Walk kernels and re-flipped pc-tables only make
   sense non-inflationary; everything else runs inflationary. *)
let test_examples_engine_vs_reference () =
  let dir = "../examples/programs" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pdl")
    |> List.sort compare
  in
  Alcotest.(check bool) "example programs found" true (List.length files >= 8);
  List.iter
    (fun file ->
      let parsed = Parser.parse_file (Filename.concat dir file) in
      let semantics =
        match file with
        | "coin_flip.pdl" | "walk_distribution.pdl" -> Engine.Noninflationary
        | _ -> Engine.Inflationary
      in
      let program = parsed.Parser.program in
      let db = Parser.database_of_facts parsed.Parser.facts in
      let ctable = Parser.ctable_of parsed in
      List.iter
        (fun event ->
          let what = Format.asprintf "%s %a" file Event.pp event in
          let engine =
            Engine.run ~semantics ~method_:Engine.Exact
              { parsed with Parser.event = Some event; events = [ event ] }
          in
          let reference =
            match (semantics, ctable) with
            | Engine.Inflationary, Some ct ->
              (* The engine answers pc-tables through lineage when it can, so
                 the reference is the enumeration. *)
              by_enumeration ~program ~event ct
            | Engine.Inflationary, None ->
              let kernel, init = Compile.inflationary_kernel program db in
              let fq = Forever.make ~kernel ~event in
              let eval fq = Exact_inflationary.eval (Inflationary.of_forever_unchecked fq) init in
              let schema_of = Compile.schema_of_database init in
              let semi =
                Seminaive.install (Seminaive.compile ~schema_of program)
                  (Forever.compile ~schema_of fq)
              in
              Alcotest.check q_t (what ^ ": without deltas = semi-naive") (eval semi)
                (eval (Forever.without_delta semi));
              eval fq
            | Engine.Noninflationary, _ ->
              let kernel, init =
                match ctable with
                | Some ct -> Compile.noninflationary_kernel_ctable program ct
                | None -> Compile.noninflationary_kernel program db
              in
              Exact_noninflationary.eval (Forever.make ~kernel ~event) init
          in
          Alcotest.check q_t (what ^ ": engine = uncompiled reference") reference
            (Option.get engine.Engine.exact))
        parsed.Parser.events)
    files

(* --- the (eps, delta) guarantee, checked statistically ------------------ *)

(* Thm 4.3 / Thm 5.6 promise Pr(|estimate - p| > eps) <= delta per run.  Over
   N = 200 pinned seeds at eps = delta = 0.1 the number of misses is then
   stochastically below Binomial(200, 0.1), whose mean is 20; the test allows
   delta N + 3 sqrt(N delta (1 - delta)) = 32.7, i.e. at most 32 misses.  A
   sampler that exactly met its guarantee would exceed that with probability
   0.29% (the binomial tail P(X >= 33)); the seeds are pinned, so the outcome
   itself is deterministic. *)
let check_eps_delta ~what ~semantics ~burn_in ~expected src =
  let eps = 0.1 and delta = 0.1 and n = 200 in
  let parsed = parse src in
  let misses = ref 0 in
  for seed = 1 to n do
    let r =
      Engine.run ~seed ~semantics ~method_:(Engine.Sampling { eps; delta; burn_in }) parsed
    in
    if abs_float (r.Engine.probability -. Q.to_float expected) > eps then incr misses
  done;
  let allowed =
    let nf = float_of_int n in
    int_of_float ((delta *. nf) +. (3.0 *. sqrt (nf *. delta *. (1.0 -. delta))))
  in
  Alcotest.(check int) "allowed misses" 32 allowed;
  if !misses > allowed then
    Alcotest.failf "%s: %d of %d estimates more than eps off (at most %d allowed)" what !misses
      n allowed

let test_eps_delta_inflationary () =
  (* An uncertain line of 2 edges: reachable end with probability 1/4. *)
  let n = 2 in
  let b = Buffer.create 256 in
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "var e%d = { true: 1/2, false: 1/2 }.\nedge(v%d, v%d) when e%d = true.\n" i
         (i - 1) i i)
  done;
  Buffer.add_string b (Printf.sprintf "R(v0) :- .\nR(Y) :- R(X), edge(X, Y).\n?- R(v%d)." n);
  check_eps_delta ~what:"uncertain line" ~semantics:Engine.Inflationary ~burn_in:0
    ~expected:(Workload.Uncertain.expected_line ~n) (Buffer.contents b)

let test_eps_delta_noninflationary () =
  (* A walk on the complete digraph with self-loops and equal weights: from
     any node the next one is uniform, so after one step the chain is
     exactly stationary and the walker sits at n0 with probability 1/k. *)
  let k = 3 in
  let facts =
    List.map
      (fun { Workload.Graphs.src; dst; weight } ->
        Printf.sprintf "e(%s, %s, %d).\n" (Workload.Graphs.node_name src)
          (Workload.Graphs.node_name dst) weight)
      (Workload.Graphs.complete k)
  in
  let src = String.concat "" facts ^ "C(n1).\n" ^ Workload.Graphs.walk_source ~target:0 in
  check_eps_delta ~what:"complete-graph walk" ~semantics:Engine.Noninflationary ~burn_in:1
    ~expected:(Q.of_ints 1 k) src

(* --- Time-average burn-in (satellite of the metrics layer PR) ----------- *)

(* A deterministic transient prefix s0 -> s1 feeding an ergodic closed class
   {s2, s3}: the event C(s1) holds exactly once, at step 1, so its long-run
   probability is 0 and any averaging window that counts the prefix is
   measurably biased — deterministically so, whatever the seed. *)
let transient_src = "?C(Y) @W :- C(X), e(X, Y, W).\n?- C(s1)."

let transient_db =
  Database.of_list
    [ ("C", rel [ "x1" ] [ [ v_str "s0" ] ]);
      ("e",
       rel [ "x1"; "x2"; "x3" ]
         [ [ v_str "s0"; v_str "s1"; v_int 1 ];
           [ v_str "s1"; v_str "s2"; v_int 1 ];
           [ v_str "s2"; v_str "s3"; v_int 1 ];
           [ v_str "s2"; v_str "s2"; v_int 1 ];
           [ v_str "s3"; v_str "s2"; v_int 1 ]
         ])
    ]

let test_time_average_burn_in () =
  let q, init = noninflationary_query transient_src transient_db in
  let exact = (Exact_noninflationary.analyse q init).Exact_noninflationary.result in
  Alcotest.check q_t "long-run mass is 0" Q.zero exact;
  let biased =
    Sample_noninflationary.eval_time_average (Random.State.make [| 7 |]) ~steps:8 q init
  in
  Alcotest.(check (float 0.0)) "window counts the transient visit" 0.125 biased;
  let corrected =
    Sample_noninflationary.eval_time_average (Random.State.make [| 7 |]) ~burn_in:2 ~steps:8 q
      init
  in
  Alcotest.(check (float 0.0)) "burn-in discounts the prefix" 0.0 corrected

let transient_engine_src =
  "?C(Y) @W :- C(X), e(X, Y, W).\nC(s0).\ne(s0, s1, 1).\ne(s1, s2, 1).\ne(s2, s3, 1).\n\
   e(s2, s2, 1).\ne(s3, s2, 1).\n?- C(s1)."

let test_engine_time_average () =
  let parsed = parse transient_engine_src in
  let run burn_in =
    (Engine.run ~seed:7 ~semantics:Engine.Noninflationary
       ~method_:(Engine.Time_average { steps = 8; burn_in })
       parsed)
      .Engine.probability
  in
  Alcotest.(check (float 0.0)) "no burn-in counts the prefix" 0.125 (run 0);
  Alcotest.(check (float 0.0)) "burn-in corrects the bias" 0.0 (run 2)

(* --- Divergence surfacing at the engine boundary ------------------------ *)

let divergent_src =
  "C(v) :- .\nC2(<X>, Y) :- C(X), e(X, Y).\nC(Y) :- C2(X, Y).\ne(v, w).\ne(v, u).\n?- C(w)."

let test_engine_divergence_sequential () =
  let parsed = parse divergent_src in
  try
    ignore
      (Engine.run ~seed:1 ~max_steps:1 ~semantics:Engine.Inflationary
         ~method_:(Engine.Sampling { eps = 0.1; delta = 0.1; burn_in = 0 })
         parsed);
    Alcotest.fail "expected Engine_error"
  with Engine.Engine_error msg ->
    (* One domain runs the shards in order: shard 0 diverges first. *)
    Alcotest.(check bool) "names shard 0" true (contains msg "shard 0,");
    Alcotest.(check bool) "names the step bound" true (contains msg "1 steps")

let test_engine_divergence_parallel () =
  let parsed = parse divergent_src in
  try
    ignore
      (Engine.run ~seed:1 ~max_steps:1 ~domains:4 ~semantics:Engine.Inflationary
         ~method_:(Engine.Sampling { eps = 0.1; delta = 0.1; burn_in = 0 })
         parsed);
    Alcotest.fail "expected Engine_error"
  with Engine.Engine_error msg ->
    Alcotest.(check bool) "names the shard" true (contains msg "shard");
    Alcotest.(check bool) "reports samples completed" true (contains msg "samples completed")

(* --- Structured run reports --------------------------------------------- *)

let test_engine_stats_report () =
  let parsed =
    parse "?C(Y) @W :- C(X), e(X, Y, W).\nC(a).\ne(a, b, 1).\ne(b, a, 1).\ne(b, b, 1).\n?- C(b)."
  in
  let off = Engine.run ~semantics:Engine.Noninflationary ~method_:Engine.Exact parsed in
  Alcotest.(check bool) "no stats unless requested" true (off.Engine.stats = None);
  let r = Engine.run ~stats:true ~semantics:Engine.Noninflationary ~method_:Engine.Exact parsed in
  match r.Engine.stats with
  | None -> Alcotest.fail "stats requested but absent"
  | Some s ->
    Alcotest.(check string) "engine name" "exact-noninflationary" s.Engine.engine;
    Alcotest.(check bool) "counts kernel steps" true (s.Engine.steps > 0);
    Alcotest.(check bool) "counts interned states" true (s.Engine.states > 0);
    Alcotest.(check bool) "per-phase table" true (s.Engine.phases <> []);
    Alcotest.(check bool) "per-operator table" true (s.Engine.operators <> []);
    Alcotest.(check bool) "elapsed measured" true (s.Engine.elapsed_ms >= 0.0);
    (* The answer itself must be unaffected by instrumentation. *)
    Alcotest.(check bool) "same exact answer" true
      (Option.equal Q.equal off.Engine.exact r.Engine.exact)

let () =
  Alcotest.run "eval"
    [ ( "exact-inflationary",
        [ Alcotest.test_case "fork 1/2 (Ex 3.9)" `Quick test_reachability_fork;
          Alcotest.test_case "line certain" `Quick test_reachability_line;
          Alcotest.test_case "two hops" `Quick test_reachability_two_hops;
          Alcotest.test_case "weighted 1/4" `Quick test_reachability_weighted;
          Alcotest.test_case "stats" `Quick test_reachability_stats;
          Alcotest.test_case "algebra form (Ex 3.5)" `Quick test_algebra_reachability;
          Alcotest.test_case "unrestricted reuse (Ex 3.6)" `Quick test_unrestricted_reuse_gives_one;
          Alcotest.test_case "diverged detection" `Quick test_diverged_detection;
          Alcotest.test_case "ctable input" `Quick test_ctable_inflationary;
          Alcotest.test_case "lineage: late annotation growth is re-fired" `Quick
            test_lineage_late_growth
        ] );
      ( "sample-inflationary",
        [ Alcotest.test_case "samples needed" `Quick test_samples_needed;
          Alcotest.test_case "close to exact" `Slow test_sample_inflationary_close;
          Alcotest.test_case "ctable sampler" `Slow test_sample_inflationary_ctable
        ] );
      ( "exact-noninflationary",
        [ Alcotest.test_case "walk stationary (Ex 3.3)" `Quick test_noninflationary_walk;
          Alcotest.test_case "analysis" `Quick test_noninflationary_analysis;
          Alcotest.test_case "absorbing (Thm 5.5)" `Quick test_noninflationary_absorbing;
          Alcotest.test_case "periodic time-average" `Quick test_noninflationary_periodic;
          Alcotest.test_case "resampling coin" `Quick test_noninflationary_resampling_coin;
          Alcotest.test_case "max_states guard" `Quick test_max_states_guard
        ] );
      ( "sample-noninflationary",
        [ Alcotest.test_case "mixing + estimate" `Slow test_sample_noninflationary;
          Alcotest.test_case "time average" `Slow test_sample_time_average
        ] );
      ( "partition",
        [ Alcotest.test_case "classes" `Quick test_partition_classes;
          Alcotest.test_case "agrees with direct" `Quick test_partition_agrees_with_direct;
          Alcotest.test_case "saturation" `Quick test_partition_saturate
        ] );
      ( "negation",
        [ Alcotest.test_case "frontier reachability" `Quick test_negation_frontier_reachability;
          Alcotest.test_case "alternating walk" `Quick test_negation_noninflationary_alternation;
          Alcotest.test_case "disables partitioning" `Quick test_negation_disables_partitioning
        ] );
      ( "multi-event",
        [ Alcotest.test_case "shared chain" `Quick test_eval_events_shared_chain;
          Alcotest.test_case "absorbing decomposition" `Quick test_eval_events_absorbing;
          Alcotest.test_case "parser collects" `Quick test_parser_multiple_events
        ] );
      ( "lumping+hitting",
        [ Alcotest.test_case "lumped agrees" `Quick test_eval_lumped_agrees;
          Alcotest.test_case "lumped Glauber" `Slow test_eval_lumped_glauber;
          Alcotest.test_case "expected hitting time" `Quick test_expected_hitting_time;
          Alcotest.test_case "unreachable event" `Quick test_hitting_time_unreachable
        ] );
      ( "pc-table",
        [ Alcotest.test_case "inflationary flips once" `Quick test_pctable_inflationary_once;
          Alcotest.test_case "noninflationary resamples" `Quick test_pctable_noninflationary_resampled;
          Alcotest.test_case "latch distinguishes semantics" `Quick test_pctable_latch_distinguishes_semantics;
          Alcotest.test_case "uncertain line via engine" `Slow test_pctable_uncertain_line_cli_path;
          Alcotest.test_case "macro kernel direct" `Quick test_pctable_macro_kernel_direct
        ] );
      ( "pool",
        [ Alcotest.test_case "map_tasks order" `Quick test_pool_map_tasks;
          Alcotest.test_case "map_tasks clamps domains" `Quick test_pool_map_tasks_clamped;
          Alcotest.test_case "run_samples deterministic" `Quick test_pool_run_samples_deterministic;
          Alcotest.test_case "worker error surfaces shard" `Quick test_pool_worker_error;
          Alcotest.test_case "parity at sub-shard sizes" `Quick test_pool_parity_edges;
          QCheck_alcotest.to_alcotest prop_pool_parity;
          Alcotest.test_case "inflationary par deterministic" `Slow
            test_par_inflationary_deterministic;
          Alcotest.test_case "noninflationary par deterministic" `Slow
            test_par_noninflationary_deterministic;
          Alcotest.test_case "engine domains deterministic" `Slow
            test_engine_domains_deterministic
        ] );
      ( "engine",
        [ Alcotest.test_case "exact inflationary" `Quick test_engine_exact_inflationary;
          Alcotest.test_case "exact noninflationary" `Quick test_engine_exact_noninflationary;
          Alcotest.test_case "sampling" `Slow test_engine_sampling;
          Alcotest.test_case "missing event" `Quick test_engine_missing_event;
          Alcotest.test_case "lumped diagnostics (analyse)" `Quick test_analyse_lumped_diagnostics;
          Alcotest.test_case "lumped diagnostics (engine)" `Quick test_engine_lumped_diagnostics;
          Alcotest.test_case "lumped 3x3x4 product (engine)" `Quick test_engine_lumped_product;
          Alcotest.test_case "exact 4x4x4 product (engine)" `Quick test_engine_exact_product_4x4x4;
          Alcotest.test_case "every-walker 3x3x4 product (engine)" `Quick
            test_engine_every_walker_product;
          Alcotest.test_case "plan vs interpreted" `Slow test_engine_plan_vs_interpreted;
          Alcotest.test_case "examples: engine = uncompiled reference" `Slow
            test_examples_engine_vs_reference;
          Alcotest.test_case "pc-table method diagnostics and lineage stats" `Quick
            test_engine_pctable_method;
          Alcotest.test_case "Thm 4.3 (eps, delta) over 200 seeds" `Slow
            test_eps_delta_inflationary;
          Alcotest.test_case "Thm 5.6 (eps, delta) over 200 seeds" `Slow
            test_eps_delta_noninflationary;
          Alcotest.test_case "time-average burn-in" `Quick test_time_average_burn_in;
          Alcotest.test_case "time-average via engine" `Quick test_engine_time_average;
          Alcotest.test_case "divergence (sequential)" `Quick test_engine_divergence_sequential;
          Alcotest.test_case "divergence (shards)" `Quick test_engine_divergence_parallel;
          Alcotest.test_case "stats report" `Quick test_engine_stats_report
        ] )
    ]
