(* The hardness constructions of Theorems 4.1 and 5.1 run end-to-end.

   Theorem 4.1 maps a 3-CNF formula to an inflationary linear datalog query
   whose probability is #SAT/2^n — so any relative approximation decides
   SAT.  Theorem 5.1 maps it to a non-inflationary query with probability
   exactly 1 (satisfiable) or 0 (unsatisfiable) — so even 0.5-absolute
   approximation decides SAT.

   Run with: dune exec examples/sat_reduction.exe *)

open Reductions
module Q = Bigq.Q

let show_inflationary f label =
  let ct, program, event = Encode_inflationary.encode_ctable f in
  let p = Eval.Exact_inflationary.eval_ctable ~program ~event ct in
  let expected = Encode_inflationary.expected_probability f in
  let models = Dpll.count_models f in
  Format.printf "  %-12s #SAT = %d/%d worlds; query prob = %-8s expected %-8s %s@." label models
    (1 lsl f.Cnf.num_vars) (Q.to_string p) (Q.to_string expected)
    (if Q.equal p expected then "(agree)" else "(MISMATCH)")

let show_noninflationary f label =
  let db, program, event = Encode_noninflationary.encode f in
  let kernel, init = Lang.Compile.noninflationary_kernel program db in
  let q = Lang.Forever.make ~kernel ~event in
  let rng = Random.State.make [| 1 |] in
  let r = Eval.Sample_noninflationary.run_samples rng ~burn_in:50 ~samples:400 q init in
  let estimate = float_of_int r.Eval.Pool.hits /. float_of_int r.Eval.Pool.completed in
  let satisfiable = Dpll.is_satisfiable f in
  Format.printf "  %-12s satisfiable = %-5b sampled Pr[Done] = %.3f (expected %s)@." label
    satisfiable estimate
    (Q.to_string (Encode_noninflationary.expected_probability f))

let () =
  (* (x1 v x2 v x3) and (~x1 v x2 v ~x3): satisfiable. *)
  let sat =
    Cnf.make ~num_vars:3
      [ [ Cnf.pos 1; Cnf.pos 2; Cnf.pos 3 ]; [ Cnf.neg 1; Cnf.pos 2; Cnf.neg 3 ] ]
  in
  let unsat = Cnf.unsatisfiable_core 3 in

  Format.printf "Satisfiable formula:@.%a@." Cnf.pp sat;
  Format.printf "Unsatisfiable formula: all 8 sign patterns over x1..x3.@.@.";

  let _, program, _ = Encode_inflationary.encode_ctable sat in
  Format.printf "Theorem 4.1 program (linear datalog over a pc-table):@.%a@."
    Lang.Datalog.pp_program program;
  Format.printf "Theorem 4.1 (relative approximation is NP-hard):@.";
  show_inflationary sat "satisfiable";
  show_inflationary unsat "unsat";
  Format.printf "  -> any relative approximation separates 0 from >= 1/2^n, deciding SAT.@.@.";

  let _, nprogram, _ = Encode_noninflationary.encode sat in
  Format.printf "Theorem 5.1 program (non-inflationary, assignment re-sampled each step):@.%a@."
    Lang.Datalog.pp_program nprogram;
  Format.printf "Theorem 5.1 (absolute approximation is NP-hard):@.";
  show_noninflationary sat "satisfiable";
  show_noninflationary unsat "unsat";
  Format.printf "  -> probabilities are exactly 1 vs 0: a 0.5-absolute approximation decides SAT.@.";

  (* The two sides of Lemma 4.2 as a sweep over random formulas. *)
  Format.printf "@.Random 3-CNF sweep (n = 4 vars, m = 2..8 clauses):@.";
  Format.printf "  m   #SAT   query prob (exact = #SAT/16)@.";
  let rng = Random.State.make [| 2010 |] in
  List.iter
    (fun m ->
      let f = Cnf.random3 rng ~num_vars:4 ~num_clauses:m in
      let ct, program, event = Encode_inflationary.encode_ctable f in
      let p = Eval.Exact_inflationary.eval_ctable ~program ~event ct in
      Format.printf "  %-3d %-6d %s@." m (Dpll.count_models f) (Q.to_string p))
    [ 2; 3; 4; 5; 6; 7; 8 ]
