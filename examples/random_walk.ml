(* Example 3.3: a random walk over a weighted graph as a forever-query.

   The transition kernel is written both ways the paper shows:
   - directly in relational algebra with repair-key:
       C := rho_I(pi_J(repair-key_{I@P}(C |x| E)))
   - and in probabilistic datalog:  ?C(Y) @W :- C(X), e(X, Y, W).

   Both induce the same Markov chain over database states; we evaluate the
   stationary query exactly (Prop 5.4) and by mixed sampling (Thm 5.6).

   Run with: dune exec examples/random_walk.exe *)

open Relational
module Q = Bigq.Q
module P = Prob.Palgebra

let edges =
  (* A 4-node weighted graph: n0 -> n1/n2, n1 -> n0, n2 -> n0/n2, ... *)
  Table_io.relation_of_rows [ "I"; "J"; "P" ]
    [ [ "n0"; "n1"; "2" ];
      [ "n0"; "n2"; "1" ];
      [ "n1"; "n0"; "1" ];
      [ "n2"; "n0"; "1" ];
      [ "n2"; "n2"; "3" ]
    ]

let () =
  Format.printf "Edges:@.%a@.@." Table_io.pp_table edges;

  (* --- algebra form ---------------------------------------------------- *)
  let kernel =
    Prob.Interp.make
      [ ( "C",
          P.Rename
            ( [ ("J", "I") ],
              P.Project ([ "J" ], P.repair_key ~weight:"P" [ "I" ] (P.Join (P.Rel "C", P.Rel "E"))) ) );
        Prob.Interp.unchanged "E"
      ]
  in
  let init =
    Database.of_list
      [ ("C", Relation.make [ "I" ] [ Tuple.of_list [ Value.Str "n0" ] ]); ("E", edges) ]
  in
  Format.printf "Transition kernel (Example 3.3):@.%a@." Prob.Interp.pp kernel;

  let node_of db =
    match Relation.tuples (Database.find "C" db) with
    | [ t ] -> Value.to_string t.(0)
    | _ -> "?"
  in
  let query = Lang.Forever.make ~kernel ~event:(Lang.Event.make "C" [ Value.Str "n2" ]) in
  let analysis = Eval.Exact_noninflationary.analyse query init in
  Format.printf "chain states: %d, irreducible: %b, ergodic: %b@."
    analysis.Eval.Exact_noninflationary.num_states analysis.Eval.Exact_noninflationary.irreducible
    analysis.Eval.Exact_noninflationary.ergodic;

  (* Full stationary distribution over nodes. *)
  let chain = analysis.Eval.Exact_noninflationary.chain in
  let pi = Markov.Stationary.exact chain in
  Format.printf "@.stationary distribution (exact, Prop 5.4):@.";
  Array.iteri
    (fun i p -> Format.printf "  %s : %s  (~%.4f)@." (node_of (Markov.Chain.label chain i)) (Q.to_string p) (Q.to_float p))
    pi;
  Format.printf "query Pr[C = n2] = %s@.@." (Q.to_string analysis.Eval.Exact_noninflationary.result);

  (* --- datalog form ------------------------------------------------------ *)
  let src = "?C(Y) @W :- C(X), e(X, Y, W).\n?- C(n2)." in
  let parsed = Lang.Parser.parse src in
  let db =
    Database.of_list
      [ ("C", Relation.make [ "x1" ] [ Tuple.of_list [ Value.Str "n0" ] ]);
        ("e", Relation.make [ "x1"; "x2"; "x3" ] (Relation.tuples edges))
      ]
  in
  let kernel_dl, init_dl = Lang.Compile.noninflationary_kernel parsed.Lang.Parser.program db in
  let query_dl = Lang.Forever.make ~kernel:kernel_dl ~event:(Option.get parsed.Lang.Parser.event) in
  let exact = Eval.Exact_noninflationary.eval query_dl init_dl in
  Format.printf "datalog form   ?C(Y) @W :- C(X), e(X, Y, W).@.";
  Format.printf "exact answer   : %s@." (Q.to_string exact);

  (* --- sampling (Thm 5.6) ------------------------------------------------ *)
  let rng = Random.State.make [| 2010 |] in
  let burn_in =
    match Eval.Sample_noninflationary.estimate_burn_in ~eps:0.01 query_dl init_dl with
    | Some t -> t
    | None -> 100
  in
  let r = Eval.Sample_noninflationary.run_samples rng ~burn_in ~samples:20_000 query_dl init_dl in
  let sampled = float_of_int r.Eval.Pool.hits /. float_of_int r.Eval.Pool.completed in
  Format.printf "mixing time    : %d steps (eps = 0.01)@." burn_in;
  Format.printf "sampled answer : %.4f (20000 restarts of %d steps, Thm 5.6)@." sampled burn_in;
  Format.printf "|exact - sampled| = %.4f@." (abs_float (Q.to_float exact -. sampled))
