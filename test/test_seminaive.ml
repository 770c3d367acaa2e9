(* Fixpoint stepping: unit tests for the semi-naive delta stepper
   ({!Lang.Seminaive}), plus the guarded world-enumeration entry point. *)

module Q = Bigq.Q
module D = Lang.Datalog
module Database = Relational.Database
module Relation = Relational.Relation
module Tuple = Relational.Tuple

let v s = Relational.Value.Str s
let var x = D.Var x
let atom p args = { D.pred = p; args }
let det_rule p args body = D.rule (D.deterministic_head p args) body

(* --- a directed chain: s(a0), e(a_i, a_{i+1}), R = reachable from s ---- *)

let node i = "a" ^ string_of_int i

let chain_db n =
  let e =
    Relation.make [ "x1"; "x2" ]
      (List.init (n - 1) (fun i -> Tuple.of_list [ v (node i); v (node (i + 1)) ]))
  in
  let s = Relation.make [ "x1" ] [ Tuple.of_list [ v (node 0) ] ] in
  Database.of_list [ ("e", e); ("s", s) ]

let chain_program =
  [ det_rule "R" [ var "X" ] [ atom "s" [ var "X" ] ];
    det_rule "R" [ var "Y" ] [ atom "R" [ var "X" ]; atom "e" [ var "X"; var "Y" ] ]
  ]

let eval_stats ?(seminaive = false) program db event =
  let kernel, init = Lang.Compile.inflationary_kernel program db in
  let schema_of name = Relation.columns (Database.find name init) in
  let fq = Lang.Forever.compile ~schema_of (Lang.Forever.make ~kernel ~event) in
  let fq =
    if seminaive then Lang.Seminaive.install (Lang.Seminaive.compile ~schema_of program) fq
    else fq
  in
  Eval.Exact_inflationary.eval_with_stats (Lang.Inflationary.of_forever_unchecked fq) init

(* --- semi-naive stepping ----------------------------------------------- *)

let test_seminaive_chain () =
  let db = chain_db 8 in
  let event = Lang.Event.make "R" [ v (node 7) ] in
  let kernel, init = Lang.Compile.inflationary_kernel chain_program db in
  let schema_of name = Relation.columns (Database.find name init) in
  let sn = Lang.Seminaive.compile ~schema_of chain_program in
  Alcotest.(check int) "all rule plans incremental" (Lang.Seminaive.total_rules sn)
    (Lang.Seminaive.incremental_rules sn);
  ignore kernel;
  let naive, nstats = eval_stats chain_program db event in
  let semi, sstats = eval_stats ~seminaive:true chain_program db event in
  Alcotest.(check bool) "answers equal" true (Q.equal naive semi);
  Alcotest.(check int) "same states" nstats.Eval.Exact_inflationary.states_visited
    sstats.Eval.Exact_inflationary.states_visited

(* --- guarded world enumeration ----------------------------------------- *)

let test_eval_worlds_guard () =
  let db = chain_db 6 in
  let event = Lang.Event.make "R" [ v (node 5) ] in
  let kernel, init = Lang.Compile.inflationary_kernel chain_program db in
  ignore kernel;
  let schema_of name = Relation.columns (Database.find name init) in
  let fq =
    Lang.Forever.compile ~schema_of (Lang.Forever.make ~kernel ~event)
  in
  let q = Lang.Inflationary.of_forever_unchecked fq in
  let worlds = Prob.Dist.return db in
  let prepare w = Lang.Compile.inflationary_initial chain_program w in
  let full = Eval.Exact_inflationary.eval_worlds ~prepare q worlds in
  Alcotest.(check bool) "answer is 1" true (Q.equal full Q.one);
  let g = Guard.make ~max_states:2 () in
  (try
     ignore (Eval.Exact_inflationary.eval_worlds ~guard:g ~prepare q worlds);
     Alcotest.fail "expected Guard.Exhausted"
   with Guard.Exhausted (Guard.States _) -> ());
  Alcotest.(check bool) "charged states" true (Guard.states_reached g > 2)

let () =
  Alcotest.run "seminaive"
    [ ( "semi-naive",
        [ Alcotest.test_case "chain: equal answers and states" `Quick test_seminaive_chain ] );
      ( "worlds",
        [ Alcotest.test_case "eval_worlds guard" `Quick test_eval_worlds_guard ] )
    ]
