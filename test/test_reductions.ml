(* Tests for CNF, DPLL, and the Theorem 4.1 / 5.1 reductions. *)

open Reductions
module Q = Bigq.Q

let q_t = Alcotest.testable Q.pp Q.equal

(* (x1 ∨ x2) ∧ (¬x1 ∨ x2): satisfied iff x2; 2 models of 4. *)
let simple = Cnf.make ~num_vars:2 [ [ Cnf.pos 1; Cnf.pos 2 ]; [ Cnf.neg 1; Cnf.pos 2 ] ]

(* x1 ∧ ¬x1: unsatisfiable. *)
let contradiction = Cnf.make ~num_vars:1 [ [ Cnf.pos 1 ]; [ Cnf.neg 1 ] ]

(* --- Cnf ---------------------------------------------------------------- *)

let test_cnf_eval () =
  let a = [| false; false; true |] in
  (* x1=false, x2=true *)
  Alcotest.(check bool) "satisfied" true (Cnf.eval a simple);
  let a' = [| false; true; false |] in
  Alcotest.(check bool) "falsified" false (Cnf.eval a' simple)

let test_cnf_validation () =
  (try
     ignore (Cnf.make ~num_vars:1 [ [] ]);
     Alcotest.fail "empty clause accepted"
   with Cnf.Cnf_error _ -> ());
  try
    ignore (Cnf.make ~num_vars:1 [ [ Cnf.pos 2 ] ]);
    Alcotest.fail "out of range accepted"
  with Cnf.Cnf_error _ -> ()

let test_cnf_random3_shape () =
  let rng = Random.State.make [| 0 |] in
  let f = Cnf.random3 rng ~num_vars:6 ~num_clauses:10 in
  Alcotest.(check int) "10 clauses" 10 (List.length f.Cnf.clauses);
  List.iter
    (fun c ->
      Alcotest.(check int) "3 literals" 3 (List.length c);
      let vars = List.map (fun (l : Cnf.literal) -> l.Cnf.var) c in
      Alcotest.(check int) "distinct vars" 3 (List.length (List.sort_uniq Int.compare vars)))
    f.Cnf.clauses

let test_unsat_core () =
  Alcotest.(check bool) "unsat 3" false (Dpll.is_satisfiable (Cnf.unsatisfiable_core 3));
  Alcotest.(check bool) "unsat 1" false (Dpll.is_satisfiable (Cnf.unsatisfiable_core 1));
  Alcotest.(check bool) "unsat 5 vars padded" false (Dpll.is_satisfiable (Cnf.unsatisfiable_core 5))

(* --- Dpll ---------------------------------------------------------------- *)

let test_dpll_solve () =
  (match Dpll.solve simple with
   | Some model -> Alcotest.(check bool) "model satisfies" true (Cnf.eval model simple)
   | None -> Alcotest.fail "simple is satisfiable");
  Alcotest.(check bool) "contradiction unsat" true (Option.is_none (Dpll.solve contradiction))

let test_dpll_count () =
  Alcotest.(check int) "2 models" 2 (Dpll.count_models simple);
  Alcotest.(check int) "0 models" 0 (Dpll.count_models contradiction);
  (* A tautology-free formula with no clauses has all 2^n models. *)
  Alcotest.(check int) "free vars" 8 (Dpll.count_models (Cnf.make ~num_vars:3 []))

let brute_force_count f =
  let n = f.Cnf.num_vars in
  let count = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let a = Array.make (n + 1) false in
    for v = 1 to n do
      a.(v) <- mask land (1 lsl (v - 1)) <> 0
    done;
    if Cnf.eval a f then incr count
  done;
  !count

let prop_dpll_matches_brute_force =
  QCheck.Test.make ~name:"dpll count = brute force on random 3-CNF" ~count:50
    (QCheck.make ~print:(fun seed -> string_of_int seed) QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let f = Cnf.random3 rng ~num_vars:5 ~num_clauses:6 in
      Dpll.count_models f = brute_force_count f
      && Dpll.is_satisfiable f = (brute_force_count f > 0))

(* --- Theorem 4.1 encoding ---------------------------------------------- *)

let eval_ctable_encoding f =
  let ct, program, event = Encode_inflationary.encode_ctable f in
  Eval.Exact_inflationary.eval_ctable ~program ~event ct

let eval_repair_key_encoding f =
  let db, program, event = Encode_inflationary.encode_repair_key f in
  let kernel, init = Lang.Compile.inflationary_kernel program db in
  let q = Lang.Inflationary.of_forever (Lang.Forever.make ~kernel ~event) in
  Eval.Exact_inflationary.eval q init

let test_encoding_ctable_simple () =
  (* 2 models / 4 assignments = 1/2. *)
  Alcotest.check q_t "1/2" Q.half (eval_ctable_encoding simple);
  Alcotest.check q_t "expected agrees" (Encode_inflationary.expected_probability simple)
    (eval_ctable_encoding simple)

let test_encoding_ctable_unsat () =
  Alcotest.check q_t "0 for unsat" Q.zero (eval_ctable_encoding contradiction)

let test_encoding_repair_key_simple () =
  Alcotest.check q_t "1/2 via repair-key" Q.half (eval_repair_key_encoding simple)

let test_encoding_repair_key_unsat () =
  Alcotest.check q_t "0 via repair-key" Q.zero (eval_repair_key_encoding contradiction)

let test_encoding_linear () =
  let _, program, _ = Encode_inflationary.encode_ctable simple in
  Alcotest.(check bool) "linear program (Thm 4.1 condition 1)" true (Lang.Linearity.is_linear program)

let prop_encoding_matches_sharp_sat =
  QCheck.Test.make ~name:"Lemma 4.2: query prob = #SAT/2^n" ~count:12
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let f = Cnf.random3 rng ~num_vars:4 ~num_clauses:3 in
      Q.equal (eval_ctable_encoding f) (Encode_inflationary.expected_probability f))

(* --- Theorem 5.1 encoding ---------------------------------------------- *)

let noninf_query f =
  let db, program, event = Encode_noninflationary.encode f in
  let kernel, init = Lang.Compile.noninflationary_kernel program db in
  (Lang.Forever.make ~kernel ~event, init)

let test_noninf_sat_reaches_done () =
  (* Satisfiable: sampling the walk must hit Done quickly and latch. *)
  let q, init = noninf_query simple in
  let rng = Random.State.make [| 7 |] in
  let r = Eval.Sample_noninflationary.run_samples rng ~burn_in:40 ~samples:200 q init in
  let p = float_of_int r.Eval.Pool.hits /. 200.0 in
  Alcotest.(check bool) "p near 1" true (p > 0.95)

let test_noninf_unsat_never_done () =
  let q, init = noninf_query contradiction in
  let rng = Random.State.make [| 8 |] in
  let r = Eval.Sample_noninflationary.run_samples rng ~burn_in:40 ~samples:200 q init in
  let p = float_of_int r.Eval.Pool.hits /. 200.0 in
  Alcotest.(check (float 0.0)) "exactly 0" 0.0 p

let test_noninf_done_latches () =
  let q, init = noninf_query simple in
  let rng = Random.State.make [| 9 |] in
  (* Walk until Done first holds, then verify it persists. *)
  let rec walk db steps =
    if Lang.Event.holds q.Lang.Forever.event db then db
    else if steps > 500 then Alcotest.fail "Done never reached on satisfiable input"
    else walk (Lang.Forever.step_sampled rng q db) (steps + 1)
  in
  let db = walk init 0 in
  let rec persist db k =
    if k = 0 then ()
    else begin
      let db' = Lang.Forever.step_sampled rng q db in
      Alcotest.(check bool) "Done persists" true (Lang.Event.holds q.Lang.Forever.event db');
      persist db' (k - 1)
    end
  in
  persist db 20

let test_noninf_expected () =
  Alcotest.check q_t "sat -> 1" Q.one (Encode_noninflationary.expected_probability simple);
  Alcotest.check q_t "unsat -> 0" Q.zero (Encode_noninflationary.expected_probability contradiction)

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "reductions"
    [ ( "cnf",
        [ Alcotest.test_case "eval" `Quick test_cnf_eval;
          Alcotest.test_case "validation" `Quick test_cnf_validation;
          Alcotest.test_case "random3 shape" `Quick test_cnf_random3_shape;
          Alcotest.test_case "unsat core" `Quick test_unsat_core
        ] );
      ( "dpll",
        [ Alcotest.test_case "solve" `Quick test_dpll_solve;
          Alcotest.test_case "count" `Quick test_dpll_count
        ] );
      ("dpll-props", qsuite [ prop_dpll_matches_brute_force ]);
      ( "thm4.1",
        [ Alcotest.test_case "ctable encoding, satisfiable" `Quick test_encoding_ctable_simple;
          Alcotest.test_case "ctable encoding, unsat" `Quick test_encoding_ctable_unsat;
          Alcotest.test_case "repair-key encoding, satisfiable" `Quick test_encoding_repair_key_simple;
          Alcotest.test_case "repair-key encoding, unsat" `Quick test_encoding_repair_key_unsat;
          Alcotest.test_case "program is linear" `Quick test_encoding_linear
        ] );
      ("thm4.1-props", qsuite [ prop_encoding_matches_sharp_sat ]);
      ( "thm5.1",
        [ Alcotest.test_case "satisfiable reaches Done" `Slow test_noninf_sat_reaches_done;
          Alcotest.test_case "unsat never Done" `Slow test_noninf_unsat_never_done;
          Alcotest.test_case "Done latches" `Quick test_noninf_done_latches;
          Alcotest.test_case "expected values" `Quick test_noninf_expected
        ] )
    ]
