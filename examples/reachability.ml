(* Examples 3.5 and 3.9: probabilistic reachability, in both the
   inflationary-algebra form (with the Cold frontier trick) and the
   probabilistic-datalog form (with the C2 auxiliary predicate), evaluated
   exactly and by Theorem 4.3 sampling.

   Run with: dune exec examples/reachability.exe *)

open Relational
module Q = Bigq.Q
module P = Prob.Palgebra

let graph =
  (* v -> w (weight 1), v -> u (weight 3), w -> t, u -> u. *)
  Table_io.relation_of_rows [ "I"; "J"; "P" ]
    [ [ "v"; "w"; "1" ]; [ "v"; "u"; "3" ]; [ "w"; "t"; "1" ]; [ "u"; "u"; "1" ] ]

(* --- Example 3.5: algebra form ------------------------------------------ *)

let algebra_query target =
  let fresh = P.Diff (P.Rel "C", P.Rel "Cold") in
  let choice =
    P.Rename
      ([ ("J", "I") ], P.Project ([ "J" ], P.repair_key ~weight:"P" [ "I" ] (P.Join (fresh, P.Rel "E"))))
  in
  let kernel =
    Prob.Interp.make
      [ ("Cold", P.Union (P.Rel "Cold", P.Rel "C"));
        ("C", P.Union (P.Rel "C", choice));
        Prob.Interp.unchanged "E"
      ]
  in
  let init =
    Database.of_list
      [ ("C", Relation.make [ "I" ] [ Tuple.of_list [ Value.Str "v" ] ]);
        ("Cold", Relation.empty [ "I" ]);
        ("E", graph)
      ]
  in
  (Lang.Inflationary.of_forever
     (Lang.Forever.make ~kernel ~event:(Lang.Event.make "C" [ Value.Str target ])),
   init)

(* --- Example 3.9: datalog form ------------------------------------------ *)

let datalog_query target =
  let src =
    Printf.sprintf
      "C(v) :- .\nC2(<X>, Y) @W :- C(X), e(X, Y, W).\nC(Y) :- C2(X, Y).\n?- C(%s)." target
  in
  let parsed = Lang.Parser.parse src in
  let db = Database.of_list [ ("e", Relation.make [ "x1"; "x2"; "x3" ] (Relation.tuples graph)) ] in
  let kernel, init = Lang.Compile.inflationary_kernel parsed.Lang.Parser.program db in
  (Lang.Inflationary.of_forever (Lang.Forever.make ~kernel ~event:(Option.get parsed.Lang.Parser.event)),
   init)

let () =
  Format.printf "Graph:@.%a@.@." Table_io.pp_table graph;
  Format.printf "Probability that each node is ever reached from v@.";
  Format.printf "(walker picks one outgoing edge per frontier node, weight-proportionally)@.@.";
  Format.printf "target   algebra form (Ex 3.5)   datalog form (Ex 3.9)   sampled (Thm 4.3)@.";
  List.iter
    (fun target ->
      let qa, ia = algebra_query target in
      let qd, id_ = datalog_query target in
      let pa = Eval.Exact_inflationary.eval qa ia in
      let pd = Eval.Exact_inflationary.eval qd id_ in
      let rng = Random.State.make [| 42 |] in
      let r = Eval.Sample_inflationary.run_samples ~samples:20_000 rng qd id_ in
      let ps = float_of_int r.Eval.Pool.hits /. float_of_int r.Eval.Pool.completed in
      Format.printf "%-8s %-23s %-23s %.4f@." target (Q.to_string pa) (Q.to_string pd) ps)
    [ "v"; "w"; "u"; "t" ];
  Format.printf "@.expected: w with 1/4 (weight 1 of 4), u with 3/4, t with 1/4 (via w).@.";

  (* Chernoff-style sample sizing (Thm 4.3). *)
  Format.printf "@.samples required for (eps, delta)-absolute approximation:@.";
  List.iter
    (fun (eps, delta) ->
      Format.printf "  eps=%-5g delta=%-5g -> m = %d@." eps delta
        (Eval.Sample_inflationary.samples_needed ~eps ~delta))
    [ (0.1, 0.05); (0.05, 0.05); (0.01, 0.05); (0.01, 0.001) ]
