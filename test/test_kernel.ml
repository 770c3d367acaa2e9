(* Tests for transition-kernel combinators and the generic engines. *)

open Relational
open Lang
module Q = Bigq.Q
module P = Prob.Palgebra
module Dist = Prob.Dist

let v_str s = Value.Str s
let rel cols rows = Relation.make cols (List.map Tuple.of_list rows)
let q_t = Alcotest.testable Q.pp Q.equal

(* Walker on a directed lazy 2-cycle. *)
let step_interp =
  Prob.Interp.make
    [ ( "C",
        P.Rename
          ([ ("J", "I") ],
           P.Project ([ "J" ], P.repair_key_all ~weight:"P" (P.Join (P.Rel "C", P.Rel "E")))) );
      Prob.Interp.unchanged "E"
    ]

let init =
  Database.of_list
    [ ("C", rel [ "I" ] [ [ v_str "a" ] ]);
      ( "E",
        rel [ "I"; "J"; "P" ]
          [ [ v_str "a"; v_str "b"; Value.Int 1 ];
            [ v_str "a"; v_str "a"; Value.Int 1 ];
            [ v_str "b"; v_str "a"; Value.Int 1 ];
            [ v_str "b"; v_str "b"; Value.Int 1 ]
          ] )
    ]

let at n db = Event.holds (Event.make "C" [ v_str n ]) db
let k = Kernel.of_interp step_interp

let test_of_interp_matches_interp () =
  let d1 = Kernel.apply k init in
  let d2 = Prob.Interp.apply step_interp init in
  Alcotest.(check int) "same support" (Dist.size d2) (Dist.size d1);
  Alcotest.check q_t "same prob" (Dist.prob (at "b") d2) (Dist.prob (at "b") d1)

let test_seq_is_two_steps () =
  let two = Kernel.seq k k in
  (* After two lazy steps from a: P(b) = 1/2 (symmetric chain mixes in one
     step: P(b after 1) = 1/2, stays 1/2). *)
  Alcotest.check q_t "P(b) after 2 steps" Q.half (Dist.prob (at "b") (Kernel.apply two init));
  (* iterate 2 = seq k k. *)
  Alcotest.check q_t "iterate agrees" (Dist.prob (at "b") (Kernel.apply two init))
    (Dist.prob (at "b") (Kernel.apply (Kernel.iterate 2 k) init))

let test_mixture_weights () =
  (* Mix the walk with the identity kernel: P(move) scales by the weight. *)
  let identity =
    Kernel.of_fn ~apply:(fun db -> Dist.return db) ~sample:(fun _ db -> db)
  in
  let m = Kernel.mixture [ (Q.of_ints 1 4, k); (Q.of_ints 3 4, identity) ] in
  (* From a: move to b only via the walk branch (prob 1/4 * 1/2). *)
  Alcotest.check q_t "P(b) = 1/8" (Q.of_ints 1 8) (Dist.prob (at "b") (Kernel.apply m init))

let test_mixture_validation () =
  (try
     ignore (Kernel.mixture []);
     Alcotest.fail "empty mixture accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Kernel.mixture [ (Q.half, k) ]);
    Alcotest.fail "non-normalised mixture accepted"
  with Invalid_argument _ -> ()

(* The long-run probability of [event] under an arbitrary (possibly
   composite) kernel: the chain the kernel induces, solved as every exact
   non-inflationary answer is. *)
let eval_kernel ~kernel ~event init =
  let chain =
    Markov.Chain.of_step ~hash:Database.hash ~equal:Database.equal ~init:[ init ]
      ~step:(Kernel.apply kernel) ()
  in
  let start = Option.get (Markov.Chain.index chain init) in
  let holds i = Event.holds event (Markov.Chain.label chain i) in
  snd (Markov.Lumping.long_run_mass chain ~start ~event:holds)

let test_eval_kernel_stationary () =
  (* The mixture is a lazy version of the same walk: same uniform
     stationary distribution. *)
  let identity = Kernel.of_fn ~apply:(fun db -> Dist.return db) ~sample:(fun _ db -> db) in
  let m = Kernel.mixture [ (Q.half, k); (Q.half, identity) ] in
  let event = Event.make "C" [ v_str "b" ] in
  Alcotest.check q_t "direct kernel" Q.half
    (eval_kernel ~kernel:k ~event init);
  Alcotest.check q_t "lazy mixture same stationary" Q.half
    (eval_kernel ~kernel:m ~event init)

let test_sample_kernel () =
  let event = Event.make "C" [ v_str "b" ] in
  let rng = Random.State.make [| 3 |] in
  (* Independent restarts of 20 composite-kernel steps each. *)
  let hits = ref 0 in
  for _ = 1 to 2000 do
    let rec go db n = if n = 0 then db else go (Kernel.sample k rng db) (n - 1) in
    if Event.holds event (go init 20) then incr hits
  done;
  let p = float_of_int !hits /. 2000.0 in
  Alcotest.(check bool) "sampled near 1/2" true (abs_float (p -. 0.5) < 0.05)

let test_mixture_mcmc_coloring () =
  (* MCMC idiom: mix Glauber steps with a no-op "rest" move; the stationary
     distribution (uniform over proper colourings) is unchanged. *)
  let kernel, db =
    Workload.Coloring.glauber
      ~edges:[ (0, 1); (1, 2) ]
      ~num_nodes:3 ~colors:[ "c1"; "c2"; "c3" ]
      ~initial:[ (0, "c1"); (1, "c2"); (2, "c1") ]
  in
  let glauber = Kernel.of_interp kernel in
  let identity = Kernel.of_fn ~apply:(fun db -> Dist.return db) ~sample:(fun _ db -> db) in
  let mixed = Kernel.mixture [ (Q.of_ints 2 3, glauber); (Q.of_ints 1 3, identity) ] in
  let event = Workload.Coloring.color_event ~node:1 ~color:"c2" in
  Alcotest.check q_t "mixture keeps uniform stationary" (Q.of_ints 1 3)
    (eval_kernel ~kernel:mixed ~event db)

(* --- PSPACE ablation ------------------------------------------------------ *)

let test_pspace_agrees_with_memoised () =
  let parsed =
    Parser.parse "C(v) :- .\nC2(<X>, Y) :- C(X), e(X, Y).\nC(Y) :- C2(X, Y).\n?- C(w)."
  in
  let db =
    Database.of_list
      [ ("e", rel [ "x1"; "x2" ]
           [ [ v_str "v"; v_str "w" ]; [ v_str "v"; v_str "u" ]; [ v_str "w"; v_str "t" ] ])
      ]
  in
  let kernel, init = Compile.inflationary_kernel parsed.Parser.program db in
  let q =
    Inflationary.of_forever_unchecked (Forever.make ~kernel ~event:(Option.get parsed.Parser.event))
  in
  Alcotest.check q_t "pspace = memoised" (Eval.Exact_inflationary.eval q init)
    (Eval.Exact_inflationary.eval_pspace q init)

let prop_pspace_agrees_random =
  QCheck.Test.make ~name:"Prop 4.4 traversal = memoised engine on random programs" ~count:20
    (QCheck.make ~print:(fun seed ->
         (Workload.Progen.random_case (Random.State.make [| seed |])).Workload.Progen.source)
       QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let case = Workload.Progen.random_case (Random.State.make [| seed |]) in
      let kernel, init =
        Compile.inflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q =
        Inflationary.of_forever_unchecked
          (Forever.make ~kernel ~event:case.Workload.Progen.event)
      in
      Q.equal (Eval.Exact_inflationary.eval q init) (Eval.Exact_inflationary.eval_pspace q init))

let () =
  Alcotest.run "kernel"
    [ ( "combinators",
        [ Alcotest.test_case "of_interp" `Quick test_of_interp_matches_interp;
          Alcotest.test_case "seq / iterate" `Quick test_seq_is_two_steps;
          Alcotest.test_case "mixture weights" `Quick test_mixture_weights;
          Alcotest.test_case "mixture validation" `Quick test_mixture_validation;
          Alcotest.test_case "exact stationary" `Quick test_eval_kernel_stationary;
          Alcotest.test_case "sampled stationary" `Slow test_sample_kernel;
          Alcotest.test_case "MCMC mixture" `Slow test_mixture_mcmc_coloring
        ] );
      ( "pspace",
        [ Alcotest.test_case "agrees with memoised" `Quick test_pspace_agrees_with_memoised;
          QCheck_alcotest.to_alcotest prop_pspace_agrees_random
        ] )
    ]
