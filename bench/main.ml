(* Benchmark harness: regenerates the shape of every claim in the paper's
   complexity table (Table 1) and worked examples.  See DESIGN.md for the
   experiment index (E1..E20) and EXPERIMENTS.md for paper-vs-measured.
   Timing rows are also dumped to BENCH_<date>.json (Bench_json).

     dune exec bench/main.exe              # full report + bechamel timings
     dune exec bench/main.exe -- E4 E5     # selected experiments only
     dune exec bench/main.exe -- report    # report only, no bechamel *)

module Q = Bigq.Q
module Database = Relational.Database
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value

let time_ms f =
  let t0 = Sys.time () in
  let r = f () in
  (r, (Sys.time () -. t0) *. 1000.0)

let header id title =
  Format.printf "@.=== %s: %s ===@." id title

(* Fraction of a sampler run's trials that hit. *)
let estimate (r : Eval.Pool.run) =
  float_of_int r.Eval.Pool.hits /. float_of_int r.Eval.Pool.completed

(* --- shared workload builders ------------------------------------------ *)

let inflationary_of parsed db =
  let program = parsed.Lang.Parser.program in
  let event = Option.get parsed.Lang.Parser.event in
  let kernel, init = Lang.Compile.inflationary_kernel program db in
  (Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel ~event), init)

let noninflationary_of parsed db =
  let program = parsed.Lang.Parser.program in
  let event = Option.get parsed.Lang.Parser.event in
  let kernel, init = Lang.Compile.noninflationary_kernel program db in
  (Lang.Forever.make ~kernel ~event, init)

(* k independent walkers on lazy cycles of the given sizes, each with its
   own edge relation; the event tracks walker 1. *)
let multi_walker_source sizes =
  let rules =
    List.mapi
      (fun i _ -> Printf.sprintf "?C%d(Y) @W :- C%d(X), e%d(X, Y, W)." (i + 1) (i + 1) (i + 1))
      sizes
  in
  String.concat "\n" rules ^ "\n?- C1(n0)."

let multi_walker_db sizes =
  List.fold_left
    (fun (db, i) k ->
      let edges = Workload.Graphs.cycle k in
      let db =
        Database.add
          (Printf.sprintf "e%d" (i + 1))
          (Workload.Graphs.to_relation edges)
          (Database.add
             (Printf.sprintf "C%d" (i + 1))
             (Relation.make [ "x1" ] [ Tuple.of_list [ Value.Str "n0" ] ])
             db)
      in
      (db, i + 1))
    (Database.empty, 0) sizes
  |> fst

(* --- E1: exact inflationary evaluation over pc-tables -------------------- *)

let e1 () =
  header "E1" "exact inflationary evaluation over pc-tables (Table 1, rows 1-2, exact column)";
  Format.printf "uncertain line graph v0..vn, each edge present w.p. 1/2; Pr[vn reached] = 1/2^n@.";
  Format.printf "%4s %10s %14s %10s %11s %6s@." "n" "worlds" "exact p" "worlds ms" "lineage ms" "nodes";
  let lineage ct program event =
    time_ms (fun () -> Eval.Exact_inflationary.eval_ctable_method ~program ~event ct)
  in
  let nodes = function Eval.Exact_inflationary.Lineage { nodes } -> nodes | Worlds -> 0 in
  List.iter
    (fun n ->
      let ct, program, event = Workload.Uncertain.uncertain_line ~n in
      let p, ms = time_ms (fun () -> Eval.Exact_inflationary.eval_ctable_worlds ~program ~event ct) in
      let (pl, how), lms = lineage ct program event in
      assert (Q.equal p (Workload.Uncertain.expected_line ~n) && Q.equal pl p);
      Bench_json.record ~id:"E1/exact-inflationary" ~n ~ms;
      Bench_json.record ~id:"E1/lineage" ~n ~ms:lms;
      Format.printf "%4d %10d %14s %10.2f %11.3f %6d@." n (Prob.Ctable.num_worlds ct) (Q.to_string p) ms
        lms (nodes how))
    [ 2; 4; 6; 8; 10; 12 ];
  Format.printf "shape: enumeration doubles with every variable; the line's lineage is read-once,@.";
  Format.printf "so its diagram has n + 2 nodes and the lineage column grows linearly.@.";
  Format.printf "@.non-hierarchical R(x), S(x,y), T(y) over a k x k grid (lineage only):@.";
  Format.printf "%4s %10s %24s %11s %6s@." "k" "variables" "exact p" "lineage ms" "nodes";
  List.iter
    (fun k ->
      let ct, program, event = Workload.Uncertain.uncertain_grid ~k in
      let (p, how), lms = lineage ct program event in
      Bench_json.record ~id:"E1/grid-lineage" ~n:k ~ms:lms;
      Format.printf "%4d %10d %24s %11.3f %6d@." k (List.length (Prob.Ctable.vars ct)) (Q.to_string p) lms
        (nodes how))
    [ 2; 3; 4; 5 ];
  Format.printf "shape: #P-hard in general (Dalvi-Suciu); the grid's diagram outgrows the line's.@."

(* --- E2: randomized absolute approximation is PTIME (Thm 4.3) ----------- *)

let e2 () =
  header "E2" "sampling evaluation stays polynomial (Thm 4.3; Table 1, absolute column)";
  Format.printf "same family, fixed 500 samples; the true probability is ~0 for large n@.";
  Format.printf "%6s %10s %12s %10s@." "n" "samples" "estimate" "ms";
  List.iter
    (fun n ->
      let ct, program, _event = Workload.Uncertain.uncertain_line ~n in
      let parsed_event = Lang.Event.make "R" [ Value.Str (Printf.sprintf "v%d" n) ] in
      let sampler = Eval.Sample_inflationary.ctable_sampler ~program ct in
      let rng = Random.State.make [| n |] in
      let kernel, _ = Lang.Compile.inflationary_kernel program (sampler rng) in
      let q =
        Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel ~event:parsed_event)
      in
      let est, ms =
        time_ms (fun () ->
            estimate
              (Eval.Sample_inflationary.run_samples ~init_sampler:sampler ~samples:500 rng q Database.empty))
      in
      Format.printf "%6d %10d %12.4f %10.2f@." n 500 est ms)
    [ 5; 10; 20; 40; 80 ];
  Format.printf "@.error vs sample count on n = 3 (true p = 1/8 = 0.125):@.";
  Format.printf "%8s %12s %12s@." "m" "estimate" "|error|";
  let ct, program, event = Workload.Uncertain.uncertain_line ~n:3 in
  let sampler = Eval.Sample_inflationary.ctable_sampler ~program ct in
  let rng = Random.State.make [| 17 |] in
  let kernel, _ = Lang.Compile.inflationary_kernel program (sampler rng) in
  let q = Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel ~event) in
  List.iter
    (fun m ->
      let est =
        estimate
          (Eval.Sample_inflationary.run_samples ~init_sampler:sampler ~samples:m rng q Database.empty)
      in
      Format.printf "%8d %12.4f %12.4f@." m est (abs_float (est -. 0.125)))
    [ 100; 1_000; 10_000 ];
  Format.printf "shape: error shrinks like 1/sqrt(m); runtime is linear in n and m.@."

(* --- E3: relative approximation is NP-hard (Thm 4.1) -------------------- *)

let e3 () =
  header "E3" "relative approximation separates SAT from UNSAT (Thm 4.1)";
  Format.printf "reduction: query prob = #SAT/2^n; sampling cannot certify p > 0 cheaply@.";
  Format.printf "%-22s %6s %12s %14s %14s@." "formula" "sat?" "true p" "sampled m=200" "rel. verdict";
  let rng = Random.State.make [| 3 |] in
  let instances =
    [ ("unique solution n=6", Reductions.Cnf.make ~num_vars:6 (List.init 6 (fun i -> [ Reductions.Cnf.pos (i + 1) ])));
      ("unsat core n=6", Reductions.Cnf.unsatisfiable_core 6);
      ("random n=6 m=10", Reductions.Cnf.random3 rng ~num_vars:6 ~num_clauses:10);
      ("random n=6 m=30", Reductions.Cnf.random3 rng ~num_vars:6 ~num_clauses:30)
    ]
  in
  List.iter
    (fun (label, f) ->
      let truth = Reductions.Encode_inflationary.expected_probability f in
      let ct, program, event = Reductions.Encode_inflationary.encode_ctable f in
      let sampler = Eval.Sample_inflationary.ctable_sampler ~program ct in
      let rng' = Random.State.make [| 11 |] in
      let kernel, _ = Lang.Compile.inflationary_kernel program (sampler rng') in
      let q = Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel ~event) in
      let est =
        estimate
          (Eval.Sample_inflationary.run_samples ~init_sampler:sampler ~samples:200 rng' q Database.empty)
      in
      let verdict =
        if Q.is_zero truth then (if est = 0.0 then "ok (both 0)" else "false positive")
        else if est > 0.0 then "detected"
        else "MISSED (rel. approx fails)"
      in
      Format.printf "%-22s %6b %12s %14.4f %14s@." label (Reductions.Dpll.is_satisfiable f)
        (Q.to_string truth) est verdict)
    instances;
  Format.printf
    "shape: a tiny-but-positive p (1/2^6) is indistinguishable from 0 with poly samples,@.";
  Format.printf "while absolute error stays within eps — exactly the Thm 4.1/4.3 split.@."

(* --- E4: exact non-inflationary evaluation (Prop 5.4 / Thm 5.5) --------- *)

let e4 () =
  header "E4" "exact non-inflationary evaluation: state space and Gaussian elimination";
  Format.printf "w independent walkers on lazy cycles: chain states = product of sizes@.";
  Format.printf "%-18s %8s %8s %12s %10s@." "cycles" "tuples" "states" "result" "ms";
  List.iter
    (fun sizes ->
      let parsed = Lang.Parser.parse (multi_walker_source sizes) in
      let db = multi_walker_db sizes in
      let q, init = noninflationary_of parsed db in
      let a, ms = time_ms (fun () -> Eval.Exact_noninflationary.analyse q init) in
      Bench_json.record ~id:"E4/exact-noninflationary" ~n:a.Eval.Exact_noninflationary.num_states
        ~ms;
      Format.printf "%-18s %8d %8d %12s %10.2f@."
        (String.concat "x" (List.map string_of_int sizes))
        (Database.total_tuples db) a.Eval.Exact_noninflationary.num_states
        (Q.to_string a.Eval.Exact_noninflationary.result)
        ms)
    [ [ 3 ]; [ 4 ]; [ 6 ]; [ 3; 3 ]; [ 3; 4 ]; [ 4; 4 ]; [ 3; 3; 3 ]; [ 3; 3; 4 ] ];
  Format.printf
    "shape: states multiply while the database grows additively — exponential blow-up;@.";
  Format.printf "the walker-1 answer stays 1/k (uniform stationary on its lazy cycle).@.";
  (* Thm 5.5 general case: absorbing structure. *)
  Format.printf "@.non-ergodic case (Thm 5.5): start -> two absorbing lazy cycles@.";
  let db =
    Database.of_list
      [ ("C", Relation.make [ "x1" ] [ Tuple.of_list [ Value.Str "s" ] ]);
        ( "e",
          Relational.Table_io.relation_of_rows [ "x1"; "x2"; "x3" ]
            [ [ "s"; "a0"; "1" ]; [ "s"; "b0"; "3" ];
              [ "a0"; "a1"; "1" ]; [ "a1"; "a0"; "1" ]; [ "a0"; "a0"; "1" ];
              [ "b0"; "b0"; "1" ]
            ] )
      ]
  in
  let parsed = Lang.Parser.parse "?C(Y) @W :- C(X), e(X, Y, W).\n?- C(b0)." in
  let q, init = noninflationary_of parsed db in
  let a = Eval.Exact_noninflationary.analyse q init in
  Format.printf "states %d, irreducible %b; Pr[absorbed at b0] = %s (expected 3/4)@."
    a.Eval.Exact_noninflationary.num_states a.Eval.Exact_noninflationary.irreducible
    (Q.to_string a.Eval.Exact_noninflationary.result)

(* --- E5: sampling in mixing time (Thm 5.6) ------------------------------ *)

let e5 () =
  header "E5" "sampling evaluation runs in (database size x mixing time) (Thm 5.6)";
  Format.printf "fast-mixing complete graphs vs the slow-mixing barbell@.";
  Format.printf "%-12s %6s %8s %10s %12s %10s@." "family" "k" "states" "T(0.05)" "estimate" "ms";
  let families =
    [ ("complete", [ 4; 8; 12 ], fun k -> Workload.Graphs.complete k);
      ("barbell", [ 2; 3; 4; 5 ], fun k -> Workload.Graphs.barbell k)
    ]
  in
  List.iter
    (fun (name, ks, build) ->
      List.iter
        (fun k ->
          let edges = build k in
          let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
          let db = Workload.Graphs.walk_database edges ~start:0 in
          let q, init = noninflationary_of parsed db in
          match Eval.Sample_noninflationary.estimate_burn_in ~eps:0.05 q init with
          | None -> Format.printf "%-12s %6d %8s %10s@." name k "-" "no mixing"
          | Some t ->
            let rng = Random.State.make [| k |] in
            let est, ms =
              time_ms (fun () ->
                  estimate (Eval.Sample_noninflationary.run_samples rng ~burn_in:t ~samples:500 q init))
            in
            let states =
              Markov.Chain.num_states (Eval.Exact_noninflationary.build_chain q init)
            in
            Format.printf "%-12s %6d %8d %10d %12.4f %10.2f@." name k states t est ms)
        ks)
    families;
  Format.printf "shape: T stays O(1) on complete graphs and grows steeply on barbells;@.";
  Format.printf "sampler cost tracks T x samples, not the 2^n of exact evaluation.@."

(* --- E6: absolute approximation NP-hard for non-inflationary (Thm 5.1) -- *)

let e6 () =
  header "E6" "non-inflationary reduction: Pr[Done] is exactly 1 (sat) or 0 (unsat) (Thm 5.1)";
  Format.printf "%-22s %6s %14s %12s@." "formula" "sat?" "sampled p" "expected";
  let rng = Random.State.make [| 5 |] in
  let instances =
    [ ("random n=4 m=6", Reductions.Cnf.random3 rng ~num_vars:4 ~num_clauses:6);
      ("random n=5 m=8", Reductions.Cnf.random3 rng ~num_vars:5 ~num_clauses:8);
      ("unsat core n=4", Reductions.Cnf.unsatisfiable_core 4);
      ("unique sol n=5",
       Reductions.Cnf.make ~num_vars:5 (List.init 5 (fun i -> [ Reductions.Cnf.pos (i + 1) ])))
    ]
  in
  List.iter
    (fun (label, f) ->
      let db, program, event = Reductions.Encode_noninflationary.encode f in
      let kernel, init = Lang.Compile.noninflationary_kernel program db in
      let q = Lang.Forever.make ~kernel ~event in
      let rng' = Random.State.make [| 6 |] in
      let burn = 20 * (f.Reductions.Cnf.num_vars + List.length f.Reductions.Cnf.clauses) in
      let est =
        estimate (Eval.Sample_noninflationary.run_samples rng' ~burn_in:burn ~samples:200 q init)
      in
      Format.printf "%-22s %6b %14.3f %12s@." label (Reductions.Dpll.is_satisfiable f) est
        (Q.to_string (Reductions.Encode_noninflationary.expected_probability f)))
    instances;
  Format.printf "shape: the 1-vs-0 gap means even a 0.5-absolute approximation decides SAT.@."

(* --- E7: partitioning optimisation (Section 5.1) ------------------------- *)

let e7 () =
  header "E7" "partitioned evaluation (Section 5.1) vs direct product chains";
  Format.printf "%-18s %10s %10s %12s %12s %8s@." "cycles" "direct-st" "direct-ms" "part-classes"
    "part-ms" "agree";
  List.iter
    (fun sizes ->
      let parsed = Lang.Parser.parse (multi_walker_source sizes) in
      let db = multi_walker_db sizes in
      let program = parsed.Lang.Parser.program in
      let event = Option.get parsed.Lang.Parser.event in
      let q, init = noninflationary_of parsed db in
      let direct, dms = time_ms (fun () -> Eval.Exact_noninflationary.analyse q init) in
      let parts = Eval.Partition.classes program db in
      let part, pms = time_ms (fun () -> Eval.Partition.eval_noninflationary program db event) in
      Format.printf "%-18s %10d %10.2f %12d %12.2f %8b@."
        (String.concat "x" (List.map string_of_int sizes))
        direct.Eval.Exact_noninflationary.num_states dms (List.length parts) pms
        (Q.equal direct.Eval.Exact_noninflationary.result part))
    [ [ 3; 3 ]; [ 3; 4 ]; [ 4; 4 ]; [ 3; 3; 3 ]; [ 4; 4; 3 ]; [ 4; 4; 4 ] ];
  Format.printf "shape: direct cost follows the state product; partitioned follows the sum.@."

(* --- E8: random walk = stationary distribution (Example 3.3) ------------ *)

let e8 () =
  header "E8" "forever-query random walk equals the chain's stationary distribution (Ex 3.3)";
  Format.printf "%-12s %6s %16s %16s %8s@." "graph" "k" "query Pr[n0]" "direct pi(n0)" "equal";
  let cases =
    [ ("cycle", 5, Workload.Graphs.cycle 5); ("complete", 4, Workload.Graphs.complete 4);
      ("random", 5, Workload.Graphs.random (Random.State.make [| 8 |]) ~nodes:5 ~out_degree:3 ~max_weight:4)
    ]
  in
  List.iter
    (fun (name, k, edges) ->
      let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
      let db = Workload.Graphs.walk_database edges ~start:0 in
      let q, init = noninflationary_of parsed db in
      let from_query = Eval.Exact_noninflationary.eval q init in
      (* Direct: build the node-level chain and solve for pi. *)
      let weights = Hashtbl.create 16 in
      List.iter
        (fun (e : Workload.Graphs.edge) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt weights e.Workload.Graphs.src) in
          Hashtbl.replace weights e.Workload.Graphs.src ((e.Workload.Graphs.dst, e.Workload.Graphs.weight) :: prev))
        edges;
      let rows =
        Array.init k (fun i ->
            let out = Option.value ~default:[] (Hashtbl.find_opt weights i) in
            let total = List.fold_left (fun acc (_, w) -> acc + w) 0 out in
            List.map (fun (j, w) -> (j, Q.of_ints w total)) out)
      in
      let chain = Markov.Chain.of_rows (Array.init k Fun.id) rows in
      let direct =
        if Markov.Classify.is_irreducible chain then (Markov.Stationary.exact chain).(0) else Q.zero
      in
      Format.printf "%-12s %6d %16s %16s %8b@." name k (Q.to_string from_query) (Q.to_string direct)
        (Q.equal from_query direct))
    cases

(* --- E9: PageRank (Example 3.3 variant) --------------------------------- *)

let e9 () =
  header "E9" "PageRank as a forever-query vs power iteration (Ex 3.3 variant)";
  let module P = Prob.Palgebra in
  let edge_rows = [ (0, 1); (1, 0); (2, 0); (2, 1); (3, 2) ] in
  let n = 4 in
  let node i = Value.Str (Printf.sprintf "n%d" i) in
  Format.printf "%-8s %14s %16s@." "alpha" "max |diff|" "chain ergodic";
  List.iter
    (fun alpha ->
      let edges =
        Relation.make [ "I"; "J"; "P" ]
          (List.map (fun (i, j) -> Tuple.of_list [ node i; node j; Value.Int 1 ]) edge_rows)
      in
      let nodes_rel = Relation.make [ "I" ] (List.init n (fun i -> Tuple.of_list [ node i ])) in
      let follow =
        P.Rename
          ([ ("J", "I") ],
           P.Project ([ "J" ], P.repair_key ~weight:"P" [ "I" ] (P.Join (P.Rel "C", P.Rel "E"))))
      in
      let jump = P.Project ([ "I" ], P.repair_key_all (P.Rel "V")) in
      let weighted e w = P.Extend ("P", Relational.Pred.Const (Value.Rat w), e) in
      let choice =
        P.Project
          ([ "I" ],
           P.repair_key_all ~weight:"P"
             (P.Union (weighted follow (Q.sub Q.one alpha), weighted jump alpha)))
      in
      let kernel = Prob.Interp.make [ ("C", choice); Prob.Interp.unchanged "E"; Prob.Interp.unchanged "V" ] in
      let init =
        Database.of_list
          [ ("C", Relation.make [ "I" ] [ Tuple.of_list [ node 0 ] ]); ("E", edges); ("V", nodes_rel) ]
      in
      let query = Lang.Forever.make ~kernel ~event:(Lang.Event.make "C" [ node 0 ]) in
      let a = Eval.Exact_noninflationary.analyse query init in
      let chain = a.Eval.Exact_noninflationary.chain in
      let pi = Markov.Stationary.exact chain in
      (* Power-iteration baseline. *)
      let out = Array.make n [] in
      List.iter (fun (i, j) -> out.(i) <- j :: out.(i)) edge_rows;
      let af = Q.to_float alpha in
      let pr = Array.make n (1.0 /. float_of_int n) in
      for _ = 1 to 20_000 do
        let next = Array.make n (af /. float_of_int n) in
        Array.iteri
          (fun i mass ->
            let d = float_of_int (List.length out.(i)) in
            List.iter (fun j -> next.(j) <- next.(j) +. ((1.0 -. af) *. mass /. d)) out.(i))
          pr;
        Array.blit next 0 pr 0 n
      done;
      let max_diff = ref 0.0 in
      Array.iteri
        (fun si p ->
          let db = Markov.Chain.label chain si in
          match Relation.tuples (Database.find "C" db) with
          | [ t ] ->
            let name = Value.to_string t.(0) in
            let i = int_of_string (String.sub name 1 (String.length name - 1)) in
            max_diff := max !max_diff (abs_float (Q.to_float p -. pr.(i)))
          | _ -> ())
        pi;
      Format.printf "%-8s %14.2e %16b@." (Q.to_string alpha) !max_diff
        a.Eval.Exact_noninflationary.ergodic)
    [ Q.of_ints 1 20; Q.of_ints 3 20; Q.of_ints 3 10 ]

(* --- E10: reachability probabilities (Ex 3.5 / 3.9) ---------------------- *)

let e10 () =
  header "E10" "reachability: exact vs sampled on binary trees (Ex 3.5 / 3.9)";
  Format.printf "complete binary tree of depth d; walker picks one child per node:@.";
  Format.printf "Pr[specific leaf reached] = 1/2^d@.";
  Format.printf "%4s %12s %12s %12s@." "d" "exact" "expected" "sampled";
  List.iter
    (fun d ->
      (* Nodes numbered 1..2^(d+1)-1 heap-style; edges i -> 2i, 2i+1. *)
      let max_internal = (1 lsl d) - 1 in
      let rows =
        List.concat
          (List.init max_internal (fun idx ->
               let i = idx + 1 in
               [ [ Printf.sprintf "n%d" i; Printf.sprintf "n%d" (2 * i); "1" ];
                 [ Printf.sprintf "n%d" i; Printf.sprintf "n%d" ((2 * i) + 1); "1" ]
               ]))
      in
      let db =
        Database.of_list
          [ ("e", Relational.Table_io.relation_of_rows [ "x1"; "x2"; "x3" ] rows) ]
      in
      let leftmost_leaf = 1 lsl d in
      let src =
        Printf.sprintf
          "C(n1) :- .\nC2(<X>, Y) @W :- C(X), e(X, Y, W).\nC(Y) :- C2(X, Y).\n?- C(n%d)."
          leftmost_leaf
      in
      let parsed = Lang.Parser.parse src in
      let q, init = inflationary_of parsed db in
      let exact = Eval.Exact_inflationary.eval q init in
      let rng = Random.State.make [| d |] in
      let sampled = estimate (Eval.Sample_inflationary.run_samples ~samples:2000 rng q init) in
      Format.printf "%4d %12s %12s %12.4f@." d (Q.to_string exact)
        (Q.to_string (Q.pow Q.half d)) sampled)
    [ 1; 2; 3; 4 ]

(* --- E11: Bayesian inference (Ex 3.10) ----------------------------------- *)

let e11 () =
  header "E11" "Bayesian networks in datalog vs exact enumeration (Ex 3.10)";
  Format.printf "%6s %10s %10s %8s %12s %12s@." "nodes" "dl-ms" "enum-ms" "agree" "datalog p" "enum p";
  List.iter
    (fun n ->
      let rng = Random.State.make [| n |] in
      let bn = Bayes.Gen.random rng ~num_nodes:n ~max_in_degree:2 in
      let names = Bayes.Bn.node_names bn in
      let query = [ (List.nth names (n - 1), true) ] in
      let db, program, event = Bayes.Encode.marginal_query bn query in
      let (dl, dl_ms) =
        time_ms (fun () ->
            let kernel, init = Lang.Compile.inflationary_kernel program db in
            let q = Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel ~event) in
            Eval.Exact_inflationary.eval q init)
      in
      let (enum, enum_ms) = time_ms (fun () -> Bayes.Infer.marginal bn query) in
      Format.printf "%6d %10.2f %10.2f %8b %12s %12s@." n dl_ms enum_ms (Q.equal dl enum)
        (Q.to_string dl) (Q.to_string enum))
    [ 3; 4; 5; 6 ]

(* --- E12: repair-key possible worlds (Ex 2.2, Table 2) -------------------- *)

let e12 () =
  header "E12" "repair-key possible worlds (Ex 2.2, Table 2)";
  let players =
    Relational.Table_io.relation_of_rows [ "Player"; "Team"; "Belief" ]
      [ [ "Bryant"; "LALakers"; "17" ]; [ "Bryant"; "NYKnicks"; "3" ];
        [ "Iverson"; "Sixers"; "8" ]; [ "Iverson"; "Grizzlies"; "7" ]
      ]
  in
  let worlds = Prob.Repair_key.repair ~key:[ "Player" ] ~weight:"Belief" players in
  Format.printf "worlds: %d (formula: %d); probabilities:@." (Prob.Dist.size worlds)
    (Prob.Repair_key.num_repairs ~key:[ "Player" ] players);
  List.iter (fun (_, p) -> Format.printf "  %s@." (Q.to_string p)) (Prob.Dist.support worlds);
  Format.printf "expected: 17/20*8/15, 17/20*7/15, 3/20*8/15, 3/20*7/15 (sum = 1: %b)@."
    (Q.is_one (Q.sum (List.map snd (Prob.Dist.support worlds))));
  Format.printf "@.random tables: worlds = product of key-group sizes@.";
  Format.printf "%8s %8s %10s %10s@." "tuples" "groups" "worlds" "enum ok";
  let rng = Random.State.make [| 9 |] in
  List.iter
    (fun (groups, per_group) ->
      let rows =
        List.concat
          (List.init groups (fun g ->
               List.init per_group (fun i ->
                   Tuple.of_list
                     [ Value.Int g; Value.Int i; Value.Int (1 + Random.State.int rng 5) ])))
      in
      let r = Relation.make [ "K"; "V"; "P" ] rows in
      let formula = Prob.Repair_key.num_repairs ~key:[ "K" ] r in
      let enumerated = Prob.Dist.size (Prob.Repair_key.repair ~key:[ "K" ] ~weight:"P" r) in
      Format.printf "%8d %8d %10d %10b@." (Relation.cardinal r) groups formula
        (formula = enumerated))
    [ (2, 2); (3, 2); (3, 3); (4, 3) ]

(* --- E14: conductance brackets the measured mixing time ------------------- *)

let e14 () =
  header "E14" "conductance (Section 5.1's pointer) brackets the measured mixing time";
  Format.printf "lazy walk chains; 1/(4 phi) <= T(1/4) and T(eps) <= 2/phi^2 ln(1/(eps pi_min))@.";
  Format.printf "%-12s %6s %12s %10s %10s %10s %10s %8s@." "family" "k" "phi" "lower" "T(1/4)"
    "T(0.05)" "upper" "t_rel";
  let eps = 0.05 in
  List.iter
    (fun (name, edges) ->
      let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
      let db = Workload.Graphs.walk_database edges ~start:0 in
      let q, init = noninflationary_of parsed db in
      let chain = Eval.Exact_noninflationary.build_chain q init in
      if Markov.Conductance.is_reversible chain then begin
        let phi = Markov.Conductance.conductance chain in
        let upper = Markov.Conductance.cheeger_mixing_upper_bound ~eps chain in
        let lower = Markov.Conductance.conductance_lower_bound chain in
        match
          (Markov.Mixing.mixing_time ~eps:0.25 chain, Markov.Mixing.mixing_time ~eps chain)
        with
        | Some t_quarter, Some t ->
          let t_rel = Markov.Spectral.relaxation_time chain in
          Format.printf "%-12s %6d %12s %10.2f %10d %10d %10.1f %8.2f@." name
            (Markov.Chain.num_states chain) (Q.to_string phi) lower t_quarter t upper t_rel
        | _ -> Format.printf "%-12s %6d: does not mix@." name (Markov.Chain.num_states chain)
      end
      else Format.printf "%-12s: not reversible, skipped@." name)
    [ ("complete-4", Workload.Graphs.complete 4);
      ("complete-6", Workload.Graphs.complete 6);
      ("barbell-2", Workload.Graphs.barbell 2);
      ("barbell-3", Workload.Graphs.barbell 3);
      ("cycle-6", Workload.Graphs.cycle 6)
    ];
  Format.printf "shape: small conductance <-> slow mixing, exactly the Section 5.1 picture.@."

(* --- E15: MCMC colouring (declarative Glauber dynamics) ------------------- *)

let e15 () =
  header "E15" "MCMC as a forever-query: Glauber dynamics samples colourings uniformly";
  Format.printf "%-14s %8s %10s %14s %14s@." "graph" "states" "ergodic" "query answer" "combinatorial";
  let cases =
    [ ("triangle+4col", [ (0, 1); (1, 2); (0, 2) ], 3, [ "c1"; "c2"; "c3"; "c4" ],
       [ (0, "c1"); (1, "c2"); (2, "c3") ]);
      ("path3+3col", [ (0, 1); (1, 2) ], 3, [ "c1"; "c2"; "c3" ],
       [ (0, "c1"); (1, "c2"); (2, "c1") ]);
      ("star4+3col", [ (0, 1); (0, 2); (0, 3) ], 4, [ "c1"; "c2"; "c3" ],
       [ (0, "c1"); (1, "c2"); (2, "c2"); (3, "c2") ])
    ]
  in
  List.iter
    (fun (name, edges, n, colors, initial) ->
      let kernel, db = Workload.Coloring.glauber ~edges ~num_nodes:n ~colors ~initial in
      let event = Workload.Coloring.color_event ~node:0 ~color:"c1" in
      let a = Eval.Exact_noninflationary.analyse (Lang.Forever.make ~kernel ~event) db in
      let matching = Workload.Coloring.colorings_with ~edges ~num_nodes:n ~colors ~node:0 ~color:"c1" in
      let total = Workload.Coloring.proper_colorings ~edges ~num_nodes:n ~colors in
      Format.printf "%-14s %8d %10b %14s %10d/%d@." name a.Eval.Exact_noninflationary.num_states
        a.Eval.Exact_noninflationary.ergodic
        (Q.to_string a.Eval.Exact_noninflationary.result)
        matching total)
    cases;
  Format.printf "shape: the stationary distribution of the declarative kernel is uniform@.";
  Format.printf "over proper colourings — MCMC programmed as a query (paper's intro).@."

(* --- E16: lumping ablation ------------------------------------------------ *)

let e16 () =
  header "E16" "event-respecting lumping shrinks the database-state chain";
  Format.printf "%-16s %8s %10s %12s %10s %10s %8s@." "workload" "states" "classes" "direct ms"
    "lump ms" "solve ms" "agree";
  let cases =
    [ ("glauber-K3-4c",
       (fun () ->
         let kernel, db =
           Workload.Coloring.glauber
             ~edges:[ (0, 1); (1, 2); (0, 2) ]
             ~num_nodes:3 ~colors:[ "c1"; "c2"; "c3"; "c4" ]
             ~initial:[ (0, "c1"); (1, "c2"); (2, "c3") ]
         in
         (Lang.Forever.make ~kernel ~event:(Workload.Coloring.color_event ~node:0 ~color:"c1"), db)));
      ("glauber-P3-3c",
       (fun () ->
         let kernel, db =
           Workload.Coloring.glauber
             ~edges:[ (0, 1); (1, 2) ]
             ~num_nodes:3 ~colors:[ "c1"; "c2"; "c3" ]
             ~initial:[ (0, "c1"); (1, "c2"); (2, "c1") ]
         in
         (Lang.Forever.make ~kernel ~event:(Workload.Coloring.color_event ~node:1 ~color:"c2"), db)));
      ("walk-complete-8",
       (fun () ->
         let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
         let db = Workload.Graphs.walk_database (Workload.Graphs.complete 8) ~start:0 in
         noninflationary_of parsed db));
      ("walk-cycle-12",
       (fun () ->
         let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
         let db = Workload.Graphs.walk_database (Workload.Graphs.cycle 12) ~start:0 in
         noninflationary_of parsed db));
      (* Does not lump: the refinement's cost against the solve it feeds. *)
      ("walk-cycle-800",
       (fun () ->
         let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
         let db = Workload.Graphs.walk_database (Workload.Graphs.cycle 800) ~start:0 in
         noninflationary_of parsed db))
    ]
  in
  List.iter
    (fun (name, build) ->
      let q, init = build () in
      let chain = Eval.Exact_noninflationary.build_chain q init in
      let event_at i = Lang.Event.holds q.Lang.Forever.event (Markov.Chain.label chain i) in
      (* Every case is irreducible, so the full-chain answer is Prop 5.4. *)
      let direct, dms =
        time_ms (fun () ->
            let pi = Markov.Stationary.exact chain in
            Q.sum (List.filteri (fun i _ -> event_at i) (Array.to_list pi)))
      in
      let lumped, lump_ms =
        time_ms (fun () ->
            Markov.Lumping.lump ~initial:(fun s -> if event_at s then 1 else 0) chain)
      in
      let _, solve_ms = time_ms (fun () -> Markov.Stationary.exact lumped.Markov.Lumping.quotient) in
      let via_lump = Eval.Exact_noninflationary.eval q init in
      Format.printf "%-16s %8d %10d %12.2f %10.2f %10.2f %8b@." name (Markov.Chain.num_states chain)
        lumped.Markov.Lumping.num_classes dms lump_ms solve_ms (Q.equal direct via_lump))
    cases;
  Format.printf
    "shape: lumping pays exactly when the kernel has symmetry the event respects@.";
  Format.printf
    "(complete graphs collapse to 2 classes, Glauber chains shrink); directed@.";
  Format.printf
    "cycles stay unlumped, where the refinement costs a fraction of the solve.@.";
  Format.printf "Answers agree exactly.@."

(* --- E17: memoisation ablation for the Prop 4.4 traversal ------------------ *)

let e17 () =
  header "E17" "memoised vs paper-verbatim (PSPACE) exact inflationary evaluation";
  Format.printf "probabilistic reachability over d chained diamonds@.";
  Format.printf "%4s %14s %14s %10s %8s@." "d" "memoised ms" "pspace ms" "speedup" "agree";
  List.iter
    (fun d ->
      (* v0 -> {a_i, b_i} -> v_i chained d times; both branches re-merge. *)
      let rows =
        List.concat
          (List.init d (fun i ->
               let v = Printf.sprintf "v%d" i and v' = Printf.sprintf "v%d" (i + 1) in
               let a = Printf.sprintf "a%d" i and b = Printf.sprintf "b%d" i in
               [ [ v; a ]; [ v; b ]; [ a; v' ]; [ b; v' ] ]))
      in
      let db =
        Database.of_list
          [ ("e", Relational.Table_io.relation_of_rows [ "x1"; "x2" ] rows) ]
      in
      let src =
        Printf.sprintf
          "C(v0) :- .\nC2(<X>, Y) :- C(X), e(X, Y).\nC(Y) :- C2(X, Y).\n?- C(v%d)." d
      in
      let parsed = Lang.Parser.parse src in
      let kernel, init = Lang.Compile.inflationary_kernel parsed.Lang.Parser.program db in
      let q =
        Lang.Inflationary.of_forever_unchecked
          (Lang.Forever.make ~kernel ~event:(Option.get parsed.Lang.Parser.event))
      in
      let memo, memo_ms = time_ms (fun () -> Eval.Exact_inflationary.eval q init) in
      let pspace, pspace_ms = time_ms (fun () -> Eval.Exact_inflationary.eval_pspace q init) in
      Format.printf "%4d %14.2f %14.2f %9.1fx %8b@." d memo_ms pspace_ms (pspace_ms /. memo_ms)
        (Q.equal memo pspace))
    [ 1; 2; 3; 4 ];
  Format.printf
    "finding: identical exact answers, and memoisation buys little — inflationary@.";
  Format.printf
    "states accumulate their full history, so distinct choice paths rarely@.";
  Format.printf
    "reconverge; the paper's polynomial-space traversal is the right default.@."

(* --- E18: feed-forward programs mix in their dependency depth -------------- *)

let e18 () =
  header "E18" "syntactic tractability: feed-forward programs mix exactly at their depth";
  Format.printf "(the paper's closing open problem asks for such syntactic classes)@.";
  Format.printf "%-18s %12s %10s %12s %12s@." "program" "feedforward" "bound" "T(exact)" "states";
  let cases =
    [ ("pipeline-d1", "var x = { true: 1/2, false: 1/2 }.\na(p) when x = true.\na(n) when x != true.\n?- a(p).");
      ("pipeline-d2", "var x = { true: 1/2, false: 1/2 }.\na(p) when x = true.\na(n) when x != true.\nB(X) :- a(X).\n?- B(p).");
      ("pipeline-d3", "var x = { true: 1/2, false: 1/2 }.\na(p) when x = true.\na(n) when x != true.\nB(X) :- a(X).\nC(X) :- B(X).\n?- C(p).");
      ("latch (recursive)", "var x = { false: 1/2, true: 1/2 }.\nhit(a) when x = true.\nDone(X) :- hit(X).\nDone(X) :- Done(X).\n?- Done(a).")
    ]
  in
  List.iter
    (fun (name, src) ->
      let parsed = Lang.Parser.parse src in
      let program = parsed.Lang.Parser.program in
      let pc_depth = if Option.is_some (Lang.Parser.ctable_of parsed) then 2 else 0 in
      let bound = Lang.Tractable.mixing_bound program ~pc_table_depth:pc_depth in
      let kernel, init =
        match Lang.Parser.ctable_of parsed with
        | Some ct -> Lang.Compile.noninflationary_kernel_ctable program ct
        | None -> Lang.Compile.noninflationary_kernel program Database.empty
      in
      let query = Lang.Forever.make ~kernel ~event:(Option.get parsed.Lang.Parser.event) in
      let chain = Eval.Exact_noninflationary.build_chain query init in
      (* smallest t with exact stationarity from every state, by exact TV *)
      let exact_mixing =
        let n = Markov.Chain.num_states chain in
        let point i = Array.init n (fun j -> if i = j then Q.one else Q.zero) in
        let rec search t =
          if t > 12 then None
          else begin
            let ref_d = Markov.Mixing.evolve chain (point 0) t in
            let stationary =
              Array.for_all2 Q.equal ref_d (Markov.Mixing.evolve chain ref_d 1)
            in
            let uniform_start =
              List.for_all
                (fun s -> Array.for_all2 Q.equal ref_d (Markov.Mixing.evolve chain (point s) t))
                (List.init n Fun.id)
            in
            if stationary && uniform_start then Some t else search (t + 1)
          end
        in
        search 0
      in
      Format.printf "%-18s %12s %10s %12s %12d@." name
        (if Lang.Tractable.is_feedforward program then "yes" else "no")
        (match bound with Some d -> string_of_int d | None -> "-")
        (match exact_mixing with Some t -> string_of_int t | None -> ">12")
        (Markov.Chain.num_states chain))
    cases;
  Format.printf
    "shape: predicted bounds hold (T(exact) <= bound); the recursive latch never@.";
  Format.printf "reaches exact stationarity in bounded time, as the theory requires.@."

(* --- E19: hashed interning + Domain-parallel sampling --------------------- *)

let e19 () =
  header "E19" "hot-path overhaul: hashed state interning and Domain-parallel sampling";
  (* Part 1: chain construction with the same step function, interned via the
     Map baseline (of_step_ordered) vs the hashed table (of_step). *)
  Format.printf "chain construction on multi-walker product chains:@.";
  Format.printf "%-18s %8s %12s %12s %10s@." "cycles" "states" "map ms" "hash ms" "speedup";
  List.iter
    (fun sizes ->
      let parsed = Lang.Parser.parse (multi_walker_source sizes) in
      let db = multi_walker_db sizes in
      let q, init = noninflationary_of parsed db in
      let step d = Lang.Forever.step q d in
      let reps = 3 in
      let timed build =
        let c = ref None in
        let _, ms = time_ms (fun () -> for _ = 1 to reps do c := Some (build ()) done) in
        (Option.get !c, ms /. float_of_int reps)
      in
      let ordered, oms =
        timed (fun () ->
            Markov.Chain.of_step_ordered ~compare:Database.compare ~init:[ init ] ~step ())
      in
      let hashed, hms =
        timed (fun () ->
            Markov.Chain.of_step ~hash:Database.hash ~equal:Database.equal ~init:[ init ] ~step ())
      in
      let n = Markov.Chain.num_states hashed in
      assert (Markov.Chain.num_states ordered = n);
      Bench_json.record ~id:"E19/chain-build-map" ~n ~ms:oms;
      Bench_json.record ~id:"E19/chain-build-hash" ~n ~ms:hms;
      Format.printf "%-18s %8d %12.2f %12.2f %9.2fx@."
        (String.concat "x" (List.map string_of_int sizes))
        n oms hms (oms /. hms))
    [ [ 4; 4 ]; [ 10; 10 ]; [ 16; 16 ]; [ 3; 3; 3 ]; [ 5; 5; 5 ]; [ 8; 8; 8 ] ];
  (* Part 1b: the intern structure in isolation.  End-to-end build time is
     dominated by the relational step, so replay just the BFS insert/lookup
     pattern of a prebuilt chain against both intern structures. *)
  let module Dbmap = Map.Make (struct
    type t = Database.t

    let compare = Database.compare
  end) in
  let module Dbtbl = Hashtbl.Make (struct
    type t = Database.t

    let equal = Database.equal
    let hash = Database.hash
  end) in
  Format.printf "@.intern-only replay (insert every state, look up every BFS edge, x20):@.";
  Format.printf "%-18s %8s %8s %12s %12s %10s@." "cycles" "states" "edges" "map ms" "hash ms"
    "speedup";
  List.iter
    (fun sizes ->
      let parsed = Lang.Parser.parse (multi_walker_source sizes) in
      let db = multi_walker_db sizes in
      let q, init = noninflationary_of parsed db in
      let chain = Eval.Exact_noninflationary.build_chain q init in
      let n = Markov.Chain.num_states chain in
      let labels = Array.init n (Markov.Chain.label chain) in
      let succs =
        Array.init n (fun i ->
            List.map (fun (j, _) -> Markov.Chain.label chain j) (Markov.Chain.succ chain i))
      in
      let edges = Array.fold_left (fun acc l -> acc + List.length l) 0 succs in
      let reps = 20 in
      let _, map_ms =
        time_ms (fun () ->
            for _ = 1 to reps do
              let m = ref Dbmap.empty in
              Array.iteri (fun i l -> m := Dbmap.add l i !m) labels;
              Array.iter (List.iter (fun s -> ignore (Dbmap.find_opt s !m))) succs
            done)
      in
      let _, tbl_ms =
        time_ms (fun () ->
            for _ = 1 to reps do
              let t = Dbtbl.create (2 * n) in
              Array.iteri (fun i l -> Dbtbl.replace t l i) labels;
              Array.iter (List.iter (fun s -> ignore (Dbtbl.find_opt t s))) succs
            done)
      in
      let map_ms = map_ms /. float_of_int reps and tbl_ms = tbl_ms /. float_of_int reps in
      Bench_json.record ~id:"E19/intern-replay-map" ~n ~ms:map_ms;
      Bench_json.record ~id:"E19/intern-replay-hash" ~n ~ms:tbl_ms;
      Format.printf "%-18s %8d %8d %12.3f %12.3f %9.2fx@."
        (String.concat "x" (List.map string_of_int sizes))
        n edges map_ms tbl_ms (map_ms /. tbl_ms))
    [ [ 10; 10 ]; [ 16; 16 ]; [ 5; 5; 5 ]; [ 8; 8; 8 ] ];
  (* Part 2: sampling throughput sharded over OCaml domains.  The estimate is
     seed-deterministic whatever the domain count; wall-clock scaling needs
     actual cores (recommended_domain_count below reports the budget). *)
  let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
  let db = Workload.Graphs.walk_database (Workload.Graphs.barbell 3) ~start:0 in
  let q, init = noninflationary_of parsed db in
  let samples = 2000 in
  Format.printf "@.sampling throughput (barbell-3 walk, burn-in 40, %d samples; %d core%s available):@."
    samples (Eval.Pool.available ())
    (if Eval.Pool.available () = 1 then "" else "s");
  Format.printf "%8s %10s %12s %12s@." "domains" "ms" "samples/s" "estimate";
  let estimates =
    List.map
      (fun d ->
        let rng = Random.State.make [| 42 |] in
        let est, ms =
          time_ms (fun () ->
              estimate
                (Eval.Sample_noninflationary.run_samples rng ~domains:d ~burn_in:40 ~samples q init))
        in
        Bench_json.record ~id:"E19/sample-throughput-domains" ~n:d ~ms;
        Format.printf "%8d %10.2f %12.0f %12.4f@." d ms (float_of_int samples /. ms *. 1000.0) est;
        est)
      [ 1; 2; 4 ]
  in
  (match estimates with
   | e :: rest -> assert (List.for_all (fun e' -> e' = e) rest)
   | [] -> ());
  Format.printf "shape: hashed interning removes the O(log n) full-database comparisons per@.";
  Format.printf "BFS edge; fixed-seed estimates are bit-identical across domain counts, and@.";
  Format.printf "throughput tracks the number of physical cores backing the domains.@."

(* --- E20: interpreted vs compiled physical plans -------------------------- *)

let e20 () =
  header "E20" "step throughput: AST interpretation vs compiled physical plans";
  let compiled_of init q =
    Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init) q
  in
  (* Timings are best-of-[reps]: the minimum over repeated runs of the same
     pure computation is the least noise-contaminated estimate of its
     intrinsic cost. *)
  let best_of reps f =
    let best = ref infinity and r = ref None in
    for _ = 1 to reps do
      let v, ms = time_ms f in
      r := Some v;
      if ms < !best then best := ms
    done;
    (Option.get !r, !best)
  in
  (* Part 1: the E1 exact inflationary workload — per-world fixpoint
     iteration dominated by kernel steps. *)
  Format.printf "E1 workload (uncertain line, exact over all worlds):@.";
  Format.printf "%4s %12s %12s %10s@." "n" "interp ms" "plan ms" "speedup";
  List.iter
    (fun n ->
      let ct, program, event = Workload.Uncertain.uncertain_line ~n in
      let run plan () = Eval.Exact_inflationary.eval_ctable_worlds ~plan ~program ~event ct in
      let pi, ims = best_of 3 (run false) in
      let pc, cms = best_of 3 (run true) in
      assert (Q.equal pi pc);
      Bench_json.record ~id:"E20/e1-interpreted" ~n ~ms:ims;
      Bench_json.record ~id:"E20/e1-compiled" ~n ~ms:cms;
      Format.printf "%4d %12.2f %12.2f %9.2fx@." n ims cms (ims /. cms))
    [ 8; 10; 12 ];
  (* Part 2: the E4 exact non-inflationary workload.  Chain construction is
     one exact kernel step per reached state and nothing else, so it
     isolates step throughput (analyse would bury it under the rational
     Gaussian elimination); a full analyse on a small instance checks the
     answers stay Q-identical. *)
  Format.printf "@.E4 workload (multi-walker product chains, chain construction):@.";
  Format.printf "%-18s %8s %12s %12s %10s@." "cycles" "states" "interp ms" "plan ms" "speedup";
  List.iter
    (fun sizes ->
      let parsed = Lang.Parser.parse (multi_walker_source sizes) in
      let db = multi_walker_db sizes in
      let q, init = noninflationary_of parsed db in
      let qc = compiled_of init q in
      let timed query =
        best_of 5 (fun () -> Eval.Exact_noninflationary.build_chain query init)
      in
      let ci, ims = timed q in
      let cc, cms = timed qc in
      let n = Markov.Chain.num_states ci in
      assert (Markov.Chain.num_states cc = n);
      Bench_json.record ~id:"E20/e4-interpreted" ~n ~ms:ims;
      Bench_json.record ~id:"E20/e4-compiled" ~n ~ms:cms;
      Format.printf "%-18s %8d %12.2f %12.2f %9.2fx@."
        (String.concat "x" (List.map string_of_int sizes))
        n ims cms (ims /. cms))
    [ [ 10; 10 ]; [ 16; 16 ]; [ 5; 5; 5 ]; [ 8; 8; 8 ] ];
  (let parsed = Lang.Parser.parse (multi_walker_source [ 3; 4 ]) in
   let db = multi_walker_db [ 3; 4 ] in
   let q, init = noninflationary_of parsed db in
   let ai = Eval.Exact_noninflationary.analyse q init in
   let ac = Eval.Exact_noninflationary.analyse (compiled_of init q) init in
   assert (Q.equal ai.Eval.Exact_noninflationary.result ac.Eval.Exact_noninflationary.result);
   Format.printf "full 3x4 analysis Q-identical in both modes: %s@."
     (Q.to_string ai.Eval.Exact_noninflationary.result));
  (* Part 3: the E5 sampling workload — sampled kernel steps; fixed-seed
     estimates must be bit-identical with and without plans. *)
  let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
  let db = Workload.Graphs.walk_database (Workload.Graphs.barbell 3) ~start:0 in
  let q, init = noninflationary_of parsed db in
  let qc = compiled_of init q in
  let samples = 4000 in
  Format.printf "@.E5 workload (barbell-3 walk, burn-in 40, %d samples, seed 42):@." samples;
  Format.printf "%-12s %10s %12s %12s@." "mode" "ms" "samples/s" "estimate";
  let sample query =
    best_of 2 (fun () ->
        let rng = Random.State.make [| 42 |] in
        estimate (Eval.Sample_noninflationary.run_samples rng ~burn_in:40 ~samples query init))
  in
  let ei, ims = sample q in
  let ec, cms = sample qc in
  assert (ei = ec);
  Bench_json.record ~id:"E20/e5-interpreted" ~n:samples ~ms:ims;
  Bench_json.record ~id:"E20/e5-compiled" ~n:samples ~ms:cms;
  List.iter
    (fun (mode, ms, est) ->
      Format.printf "%-12s %10.2f %12.0f %12.4f@." mode ms
        (float_of_int samples /. ms *. 1000.0)
        est)
    [ ("interpreted", ims, ei); ("compiled", cms, ec) ];
  Format.printf "shape: plans pay schema resolution and operator selection once per query@.";
  Format.printf "instead of once per step; answers — exact rationals and fixed-seed@.";
  Format.printf "estimates alike — are identical in both modes.@."

(* --- E21: observability overhead ------------------------------------------ *)

let e21 () =
  header "E21" "observability overhead: Obs disabled vs enabled (E20 workloads)";
  (* Instrumentation is bound at closure-build time (Obs.wrap1/wrap2 are the
     identity when disabled), so each measured run rebuilds its plan under
     the Obs state being measured: "off" times the uninstrumented closures,
     "on" the ticking ones.  Off and on runs alternate within each round and
     each mode keeps its minimum, so slow drift in machine load hits both
     modes equally instead of masquerading as (or hiding) overhead. *)
  let measure reps f =
    let mso = ref infinity and mson = ref infinity in
    let vo = ref None and von = ref None in
    for _ = 1 to reps do
      Obs.set_enabled false;
      Gc.compact ();
      let v, ms = time_ms f in
      vo := Some v;
      if ms < !mso then mso := ms;
      Obs.set_enabled true;
      Obs.reset ();
      Gc.compact ();
      let v', ms' = time_ms f in
      von := Some v';
      if ms' < !mson then mson := ms'
    done;
    Obs.set_enabled false;
    (Option.get !vo, !mso, Option.get !von, !mson)
  in
  let row label n mso mson extra =
    Bench_json.record ~id:(Printf.sprintf "E21/%s-off" label) ~n ~ms:mso;
    Bench_json.record_extra ~id:(Printf.sprintf "E21/%s-on" label) ~n ~ms:mson extra;
    Format.printf "%-22s %6d %12.2f %12.2f %+9.1f%%@." label n mso mson
      ((mson /. mso -. 1.0) *. 100.0)
  in
  Format.printf "%-22s %6s %12s %12s %10s@." "workload" "n" "off ms" "on ms" "overhead";
  (* E1 workload: exact inflationary over all worlds, compiled plans. *)
  (let n = 12 in
   let ct, program, event = Workload.Uncertain.uncertain_line ~n in
   let run () = Eval.Exact_inflationary.eval_ctable_worlds ~plan:true ~program ~event ct in
   let vo, mso, von, mson = measure 7 run in
   assert (Q.equal vo von);
   row "e1-exact-worlds" n mso mson
     [ ("states", string_of_int (Obs.count_of "engine.states"));
       ("draws", string_of_int (Obs.count_of "repair_key.draws")) ]);
  (* E4 workload: exact non-inflationary chain construction, compiled plans.
     Plan compilation happens inside the measured thunk so the wrapped/
     unwrapped closures match the Obs state. *)
  (let sizes = [ 8; 8; 8 ] in
   let parsed = Lang.Parser.parse (multi_walker_source sizes) in
   let db = multi_walker_db sizes in
   let q, init = noninflationary_of parsed db in
   let run () =
     let qc = Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init) q in
     Eval.Exact_noninflationary.build_chain qc init
   in
   let co, mso, con, mson = measure 7 run in
   let n = Markov.Chain.num_states co in
   assert (Markov.Chain.num_states con = n);
   row "e4-chain-build" n mso mson
     [ ("states", string_of_int (Obs.count_of "chain.states"));
       ("steps", string_of_int (Obs.count_of "chain.expanded"));
       ("draws", string_of_int (Obs.count_of "repair_key.draws")) ]);
  (* E5 workload: fixed-seed sampling; the estimate must be bit-identical
     with instrumentation on (Obs never touches the RNG stream). *)
  (let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
   let db = Workload.Graphs.walk_database (Workload.Graphs.barbell 3) ~start:0 in
   let q, init = noninflationary_of parsed db in
   let samples = 4000 in
   let run () =
     let qc = Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init) q in
     let rng = Random.State.make [| 42 |] in
     estimate (Eval.Sample_noninflationary.run_samples rng ~burn_in:40 ~samples qc init)
   in
   let eo, mso, eon, mson = measure 4 run in
   assert (eo = eon);
   row "e5-sampling" samples mso mson
     [ ("steps", string_of_int (Obs.count_of "engine.steps"));
       ("draws", string_of_int (Obs.count_of "repair_key.draws")) ]);
  Format.printf "answers identical in both modes; off-path runs the same closures as@.";
  Format.printf "before the metrics layer existed (wrap chosen at plan build, one bool@.";
  Format.printf "per expanded state in the chain builder).@."

(* --- E22: tracing & series overhead --------------------------------------- *)

let e22 () =
  header "E22" "tracing overhead: Trace+Series disabled vs enabled (E21 workloads)";
  (* Same interleaved best-of-reps discipline as E21, toggling the Trace and
     Series recorders instead of the Obs counters (which stay off in both
     modes).  Sites latch [Trace.enabled]/[Series.enabled] when they build
     their closures or tasks, so the "off" runs execute byte-identical code
     to a binary without the telemetry layer; "on" pays ring-buffer appends
     plus the per-level/per-stride series points. *)
  let measure reps f =
    let mso = ref infinity and mson = ref infinity in
    let vo = ref None and von = ref None in
    Obs.set_enabled false;
    for _ = 1 to reps do
      Obs.Trace.set_enabled false;
      Obs.Series.set_enabled false;
      Gc.compact ();
      let v, ms = time_ms f in
      vo := Some v;
      if ms < !mso then mso := ms;
      Obs.Trace.reset ();
      Obs.Series.reset ();
      Obs.Trace.set_enabled true;
      Obs.Series.set_enabled true;
      Gc.compact ();
      let v', ms' = time_ms f in
      von := Some v';
      if ms' < !mson then mson := ms'
    done;
    Obs.Trace.set_enabled false;
    Obs.Series.set_enabled false;
    (Option.get !vo, !mso, Option.get !von, !mson)
  in
  let telemetry () =
    let events = List.length (Obs.Trace.events ()) in
    let points = List.fold_left (fun acc (_, p) -> acc + p) 0 (Obs.Series.counts ()) in
    [ ("trace_events", string_of_int events); ("series_points", string_of_int points) ]
  in
  let row label n mso mson extra =
    Bench_json.record ~id:(Printf.sprintf "E22/%s-off" label) ~n ~ms:mso;
    Bench_json.record_extra ~id:(Printf.sprintf "E22/%s-on" label) ~n ~ms:mson extra;
    Format.printf "%-22s %6d %12.2f %12.2f %+9.1f%%@." label n mso mson
      ((mson /. mso -. 1.0) *. 100.0)
  in
  Format.printf "%-22s %6s %12s %12s %10s@." "workload" "n" "off ms" "on ms" "overhead";
  (* E1 workload: the exact engine records the per-visit saturation series. *)
  (let n = 12 in
   let ct, program, event = Workload.Uncertain.uncertain_line ~n in
   let run () = Eval.Exact_inflationary.eval_ctable_worlds ~plan:true ~program ~event ct in
   let vo, mso, von, mson = measure 7 run in
   assert (Q.equal vo von);
   row "e1-exact-worlds" n mso mson (telemetry ()));
  (* E4 workload: chain construction records one frontier point and one
     instant per BFS level. *)
  (let sizes = [ 8; 8; 8 ] in
   let parsed = Lang.Parser.parse (multi_walker_source sizes) in
   let db = multi_walker_db sizes in
   let q, init = noninflationary_of parsed db in
   let run () =
     let qc = Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init) q in
     Eval.Exact_noninflationary.build_chain qc init
   in
   let co, mso, con, mson = measure 7 run in
   let n = Markov.Chain.num_states co in
   assert (Markov.Chain.num_states con = n);
   row "e4-chain-build" n mso mson (telemetry ()));
  (* E5 workload: the sampler records the Wilson-band estimate every k-th
     sample; the fixed-seed estimate must be bit-identical with recording
     on (the recorders never touch the RNG stream). *)
  (let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
   let db = Workload.Graphs.walk_database (Workload.Graphs.barbell 3) ~start:0 in
   let q, init = noninflationary_of parsed db in
   let samples = 4000 in
   let run () =
     let qc = Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init) q in
     let rng = Random.State.make [| 42 |] in
     estimate (Eval.Sample_noninflationary.run_samples rng ~burn_in:40 ~samples qc init)
   in
   let eo, mso, eon, mson = measure 4 run in
   assert (eo = eon);
   row "e5-sampling" samples mso mson (telemetry ()));
  Format.printf "answers identical in both modes; the disabled path re-checks one atomic@.";
  Format.printf "bool per closure build (not per event), so a traced binary at rest runs@.";
  Format.printf "the same instructions as an untraced one.@."

(* --- E23: guard overhead --------------------------------------------------- *)

let e23 () =
  header "E23" "guard overhead: ungoverned vs armed-but-unhit budgets (E21 workloads)";
  (* Same interleaved best-of-reps discipline as E21/E22.  "off" runs with
     [Guard.unlimited] — the latched checkers are [None], so the executed
     hot loop is byte-identical to a binary without the governance layer.
     "on" arms a fresh guard per run with budgets far above the workload
     (deadline + state + sample), so every per-state/per-sample check runs
     and never fires: this is the steady-state price of running governed. *)
  let huge_guard () =
    Guard.make ~deadline_ms:3.6e6 ~max_states:max_int ~max_samples:max_int ()
  in
  let measure reps off on =
    let mso = ref infinity and mson = ref infinity in
    let vo = ref None and von = ref None in
    Obs.set_enabled false;
    for _ = 1 to reps do
      Gc.compact ();
      let v, ms = time_ms off in
      vo := Some v;
      if ms < !mso then mso := ms;
      Gc.compact ();
      let v', ms' = time_ms on in
      von := Some v';
      if ms' < !mson then mson := ms'
    done;
    (Option.get !vo, !mso, Option.get !von, !mson)
  in
  let row label n mso mson =
    Bench_json.record ~id:(Printf.sprintf "E23/%s-off" label) ~n ~ms:mso;
    Bench_json.record ~id:(Printf.sprintf "E23/%s-on" label) ~n ~ms:mson;
    Format.printf "%-22s %6d %12.2f %12.2f %+9.1f%%@." label n mso mson
      ((mson /. mso -. 1.0) *. 100.0)
  in
  Format.printf "%-22s %6s %12s %12s %10s@." "workload" "n" "off ms" "on ms" "overhead";
  (* E1 workload: exact inflationary over all worlds (per-state ticks in the
     memoised fixpoint evaluation). *)
  (let n = 12 in
   let ct, program, event = Workload.Uncertain.uncertain_line ~n in
   let off () = Eval.Exact_inflationary.eval_ctable_worlds ~plan:true ~program ~event ct in
   let on () =
     Eval.Exact_inflationary.eval_ctable_worlds ~guard:(huge_guard ()) ~plan:true ~program ~event ct
   in
   let vo, mso, von, mson = measure 7 off on in
   assert (Q.equal vo von);
   row "e1-exact-worlds" n mso mson);
  (* E4 workload: chain construction (per-interned-state tick + per-expansion
     deadline/interrupt poll in the BFS). *)
  (let sizes = [ 8; 8; 8 ] in
   let parsed = Lang.Parser.parse (multi_walker_source sizes) in
   let db = multi_walker_db sizes in
   let q, init = noninflationary_of parsed db in
   let build guard () =
     let qc = Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init) q in
     Eval.Exact_noninflationary.build_chain ?guard qc init
   in
   let co, mso, con, mson = measure 7 (build None) (fun () -> build (Some (huge_guard ())) ()) in
   let n = Markov.Chain.num_states co in
   assert (Markov.Chain.num_states con = n);
   row "e4-chain-build" n mso mson);
  (* E5 workload: sequential sampling (per-sample deadline/interrupt poll);
     the fixed-seed estimate must be bit-identical under the armed guard. *)
  (let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
   let db = Workload.Graphs.walk_database (Workload.Graphs.barbell 3) ~start:0 in
   let q, init = noninflationary_of parsed db in
   let samples = 4000 in
   let sample guard () =
     let qc = Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init) q in
     let rng = Random.State.make [| 42 |] in
     let r = Eval.Sample_noninflationary.run_samples ?guard rng ~burn_in:40 ~samples qc init in
     (r.Eval.Pool.hits, r.Eval.Pool.completed, r.Eval.Pool.stopped = None)
   in
   let ro, mso, ron, mson =
     measure 4 (sample None) (fun () -> sample (Some (huge_guard ())) ())
   in
   assert (ro = ron);
   row "e5-sampling" samples mso mson);
  Format.printf "answers identical in both modes; ungoverned runs latch None checkers at@.";
  Format.printf "closure build, so the off column is the pre-guard hot loop unchanged.@."

(* --- E24: semi-naive fixpoint stepping ------------------------------------- *)

let e24 () =
  header "E24" "fixpoint stepping: naive vs semi-naive deltas";
  (* Deterministic chain reachability: s(a0), e(a_i, a_{i+1}), R = nodes
     reachable from s, event R(a_{n/4}) near the start.  The inflationary
     fixpoint runs n steps whatever the event; the naive stepper re-derives
     all i reachable nodes at step i (Θ(n²) tuple work overall) while the
     semi-naive stepper pushes only the single new node through the join
     (Θ(n) — the speedup ratio should grow with n). *)
  let module D = Lang.Datalog in
  let node i = "a" ^ string_of_int i in
  let chain_db n =
    let e =
      Relation.make [ "x1"; "x2" ]
        (List.init (n - 1) (fun i ->
             Tuple.of_list [ Value.Str (node i); Value.Str (node (i + 1)) ]))
    in
    let s = Relation.make [ "x1" ] [ Tuple.of_list [ Value.Str (node 0) ] ] in
    Database.of_list [ ("e", e); ("s", s) ]
  in
  let atom p args = { D.pred = p; args } in
  let program =
    [ D.rule (D.deterministic_head "R" [ D.Var "X" ]) [ atom "s" [ D.Var "X" ] ];
      D.rule
        (D.deterministic_head "R" [ D.Var "Y" ])
        [ atom "R" [ D.Var "X" ]; atom "e" [ D.Var "X"; D.Var "Y" ] ]
    ]
  in
  let best_of reps f =
    let best = ref infinity and r = ref None in
    for _ = 1 to reps do
      let v, ms = time_ms f in
      r := Some v;
      if ms < !best then best := ms
    done;
    (Option.get !r, !best)
  in
  let eval ?(seminaive = false) program db event () =
    let kernel, init = Lang.Compile.inflationary_kernel program db in
    let schema_of = Lang.Compile.schema_of_database init in
    let fq = Lang.Forever.compile ~schema_of (Lang.Forever.make ~kernel ~event) in
    let fq =
      if seminaive then Lang.Seminaive.install (Lang.Seminaive.compile ~schema_of program) fq
      else fq
    in
    Eval.Exact_inflationary.eval_with_stats (Lang.Inflationary.of_forever_unchecked fq) init
  in
  Format.printf "%6s %8s %12s %12s %10s@." "n" "states" "naive ms" "semi ms" "speedup";
  List.iter
    (fun n ->
      let db = chain_db n in
      let event = Lang.Event.make "R" [ Value.Str (node (n / 4)) ] in
      let reps = if n >= 64 then 3 else 5 in
      let (pn, ns), nms = best_of reps (eval program db event) in
      let (ps, ss), sms = best_of reps (eval ~seminaive:true program db event) in
      (* Both strategies must agree exactly and visit the same states. *)
      assert (Q.equal pn ps);
      assert (ns.Eval.Exact_inflationary.states_visited = ss.Eval.Exact_inflationary.states_visited);
      Bench_json.record ~id:"E24/naive" ~n ~ms:nms;
      Bench_json.record ~id:"E24/seminaive" ~n ~ms:sms;
      Format.printf "%6d %8d %12.2f %12.2f %9.2fx@." n ns.Eval.Exact_inflationary.states_visited
        nms sms (nms /. sms))
    [ 8; 16; 32; 64; 128 ];
  Format.printf "speedup = naive/semi-naive; it should grow with n (Θ(n²) vs Θ(n) tuple@.";
  Format.printf "work).@."

(* --- E25: columnar data plane ------------------------------------------- *)

let e25 () =
  header "E25" "columnar data plane: flat-array relations vs set-based reference";
  let module Ref = Relational.Relation_ref in
  let time_iters iters f =
    let t0 = Sys.time () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Sys.time () -. t0) *. 1000.0
  in
  let best_ms reps iters f =
    let best = ref infinity in
    for _ = 1 to reps do
      let ms = time_iters iters f in
      if ms < !best then best := ms
    done;
    !best
  in
  (* --- micros: union / diff / join / intern ---------------------------- *)
  Format.printf "micro-throughput, columnar vs set-based reference (ms per batch of runs)@.";
  Format.printf "%-8s %8s %12s %12s %10s@." "op" "n" "columnar" "reference" "speedup";
  let sizes = [ 1024; 4096; 16384 ] in
  let largest = List.nth sizes (List.length sizes - 1) in
  let largest_speedups = ref [] in
  let row op n cms rms =
    let sp = rms /. cms in
    if n = largest then largest_speedups := (op, sp) :: !largest_speedups;
    Bench_json.record_extra ~id:("E25/" ^ op) ~n ~ms:cms
      [ ("ref_ms", Printf.sprintf "%.3f" rms); ("speedup", Printf.sprintf "%.2f" sp) ];
    Format.printf "%-8s %8d %12.3f %12.3f %9.2fx@." op n cms rms sp
  in
  (* Reference hash join in the pre-refactor style: Tuple_tbl index over the
     build side, fold-probe accumulating through set insertion. *)
  let module T = Relational.Algebra.Tuple_tbl in
  let ref_join ra rb =
    let idx = T.create 512 in
    Ref.iter
      (fun t ->
        let key = [| t.(0) |] in
        let prev = match T.find_opt idx key with Some l -> l | None -> [] in
        T.replace idx key (t :: prev))
      rb;
    Ref.fold
      (fun t acc ->
        match T.find_opt idx [| t.(1) |] with
        | None -> acc
        | Some bucket ->
          List.fold_left (fun acc (tb : Tuple.t) -> Ref.add [| t.(0); t.(1); tb.(1) |] acc) acc bucket)
      ra
      (Ref.empty [ "x1"; "x2"; "x3" ])
  in
  List.iter
    (fun n ->
      let iters = max 3 (200_000 / n) in
      let ta =
        List.init n (fun i -> Tuple.of_list [ Value.Int (i * 7 mod (2 * n)); Value.Int (i mod 97) ])
      in
      let tb =
        List.init n (fun i ->
            Tuple.of_list [ Value.Int ((i * 7) + 3 mod (2 * n)); Value.Int (i mod 89) ])
      in
      let ca = Relation.make [ "x1"; "x2" ] ta and cb = Relation.make [ "x1"; "x2" ] tb in
      let ra = Ref.make [ "x1"; "x2" ] ta and rb = Ref.make [ "x1"; "x2" ] tb in
      row "union" n
        (best_ms 3 iters (fun () -> Relation.union ca cb))
        (best_ms 3 iters (fun () -> Ref.union ra rb));
      row "diff" n
        (best_ms 3 iters (fun () -> Relation.diff ca cb))
        (best_ms 3 iters (fun () -> Ref.diff ra rb));
      (* Join probe side n tuples, build side 499 single-tuple keys. *)
      let tja = List.init n (fun i -> Tuple.of_list [ Value.Int i; Value.Int (i mod 499) ]) in
      let tjb = List.init 499 (fun j -> Tuple.of_list [ Value.Int j; Value.Int (j * 2) ]) in
      let cja = Relation.make [ "x1"; "x2" ] tja and cjb = Relation.make [ "x2"; "x3" ] tjb in
      let rja = Ref.make [ "x1"; "x2" ] tja and rjb = Ref.make [ "x2"; "x3" ] tjb in
      let _, cjoin = Relational.Plan.Ops.join [ "x1"; "x2" ] [ "x2"; "x3" ] in
      assert (Relation.equal (cjoin cja cjb) (Ref.to_relation (ref_join rja rjb)));
      row "join" n
        (best_ms 3 iters (fun () -> cjoin cja cjb))
        (best_ms 3 iters (fun () -> ref_join rja rjb));
      (* Interning settles equality physically; the reference path compares
         freshly-boxed equal strings structurally every time. *)
      let payload i = Printf.sprintf "node-%04d" (i mod 256) in
      let xs = Array.init n (fun i -> Value.Intern.str (payload i)) in
      let ys = Array.init n (fun i -> Value.Intern.str (payload i)) in
      let xs' = Array.init n (fun i -> Value.Str (payload i)) in
      let ys' = Array.init n (fun i -> Value.Str (payload i)) in
      let count_eq (a : Value.t array) b () =
        let c = ref 0 in
        Array.iteri (fun i v -> if Value.equal v b.(i) then incr c) a;
        !c
      in
      assert (count_eq xs ys () = n && count_eq xs' ys' () = n);
      row "intern" n
        (best_ms 3 iters (count_eq xs ys))
        (best_ms 3 iters (count_eq xs' ys')))
    sizes;
  (* The headline claim: union/diff/join micros at the largest size must
     hold a >= 1.5x throughput edge over the set-based reference. *)
  List.iter
    (fun op ->
      let sp = List.assoc op !largest_speedups in
      if sp < 1.5 then
        failwith (Printf.sprintf "E25: %s speedup %.2fx < 1.5x at n=%d" op sp largest))
    [ "union"; "diff"; "join" ];
  (* --- macros: E1 / E4 / E5 shapes end-to-end on the columnar plane ----- *)
  Format.printf "@.macro rows (end-to-end on the columnar plane):@.";
  (let ct, program, event = Workload.Uncertain.uncertain_line ~n:10 in
   let p, ms = time_ms (fun () -> Eval.Exact_inflationary.eval_ctable_worlds ~program ~event ct) in
   assert (Q.equal p (Workload.Uncertain.expected_line ~n:10));
   Bench_json.record ~id:"E25/e1-macro" ~n:10 ~ms;
   Format.printf "e1-macro: exact inflationary n=10 in %.2f ms@." ms);
  (let parsed = Lang.Parser.parse (multi_walker_source [ 6; 6 ]) in
   let db = multi_walker_db [ 6; 6 ] in
   let q, init = noninflationary_of parsed db in
   let chain, build_ms = time_ms (fun () -> Eval.Exact_noninflationary.build_chain q init) in
   let nstates = Markov.Chain.num_states chain in
   Gc.compact ();
   let gc_live_words = (Gc.stat ()).Gc.live_words in
   (* Word footprint of every chain state label re-encoded fresh in each
      representation ([Obj.reachable_words], so physically shared tuples and
      values count once per root): identical tuple/value sharing on both
      sides, so the delta is purely flat arrays vs balanced-tree nodes. *)
   let col_copy db =
     List.map
       (fun (nm, r) -> (nm, Relation.make (Relation.columns r) (Relation.tuples r)))
       (Database.bindings db)
   in
   let ref_copy db =
     List.map
       (fun (nm, r) -> (nm, Ref.make (Relation.columns r) (Relation.tuples r)))
       (Database.bindings db)
   in
   let labels enc = Array.init nstates (fun i -> enc (Markov.Chain.label chain i)) in
   let lw_col = Obj.reachable_words (Obj.repr (labels col_copy)) in
   let lw_ref = Obj.reachable_words (Obj.repr (labels ref_copy)) in
   assert (lw_col < lw_ref);
   Bench_json.record_extra ~id:"E25/e4-macro" ~n:nstates ~ms:build_ms
     [ ("gc_live_words", string_of_int gc_live_words);
       ("label_words_columnar", string_of_int lw_col);
       ("label_words_reference", string_of_int lw_ref)
     ];
   Format.printf "e4-macro: chain build 6x6 (%d states) in %.2f ms (%d Gc live words);@." nstates
     build_ms gc_live_words;
   Format.printf "  state labels hold %d words columnar vs %d set-based (%.2fx reduction)@."
     lw_col lw_ref
     (float_of_int lw_ref /. float_of_int lw_col));
  (let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
   let db = Workload.Graphs.walk_database (Workload.Graphs.barbell 3) ~start:0 in
   let q, init = noninflationary_of parsed db in
   let rng = Random.State.make [| 7 |] in
   let est, ms =
     time_ms (fun () ->
         estimate (Eval.Sample_noninflationary.run_samples rng ~burn_in:50 ~samples:2000 q init))
   in
   Bench_json.record ~id:"E25/e5-macro" ~n:2000 ~ms;
   Format.printf "e5-macro: barbell-3 sampling (2000 samples) est %.4f in %.2f ms@." est ms);
  Format.printf "speedup = reference ms / columnar ms; union/diff/join gate at 1.5x.@."

(* --- E26: daemon load — throughput vs sessions, cold vs warm cache ------- *)

let e26 () =
  header "E26" "daemon: queries/sec vs concurrent sessions, cold vs warm plan cache";
  (* Compile-heavy workload: a long chain of copy rules makes plan
     compilation dominate execution, which is exactly the cost the shared
     plan cache amortises.  Programs are distinct per (session, index) so a
     cold pass is all misses and repeats are all hits. *)
  let program ~session ~index =
    let b = Buffer.create 1024 in
    Buffer.add_string b (Printf.sprintf "q%d_%d_0(a).\n" session index);
    for i = 1 to 40 do
      Buffer.add_string b
        (Printf.sprintf "q%d_%d_%d(X) :- q%d_%d_%d(X).\n" session index i session index (i - 1))
    done;
    Buffer.add_string b (Printf.sprintf "?- q%d_%d_40(a)." session index);
    Buffer.contents b
  in
  let programs_per_session = 8 in
  let warm_rounds = 4 in
  (* Answers from the daemon must match the one-shot engine bit for bit. *)
  let reference =
    (Eval.Engine.run ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact
       (Lang.Parser.parse (program ~session:0 ~index:0)))
      .Eval.Engine.probability
  in
  Format.printf "%-10s %9s %12s %12s %10s@." "pass" "sessions" "queries" "ms/query" "q/s";
  let run_pass sessions =
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "probdbd_bench_%d_%d.sock" (Unix.getpid ()) sessions)
    in
    let t = Serve.Server.create (Serve.Server.default_config (Serve.Server.Unix_sock path)) in
    let server = Domain.spawn (fun () -> Serve.Server.serve_forever t) in
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.shutdown t;
        Domain.join server)
      (fun () ->
        let round pass =
          let t0 = Unix.gettimeofday () in
          let workers =
            List.init sessions (fun s ->
                Domain.spawn (fun () ->
                    let c = Serve.Client.connect_unix ~retry_ms:2000 path in
                    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
                    for i = 0 to programs_per_session - 1 do
                      let resp =
                        Serve.Client.rpc_json c
                          (Obs.Json.Obj
                             [ ("op", Obs.Json.Str "query");
                               ("id", Obs.Json.Str (Printf.sprintf "%s-s%d-q%d" pass s i));
                               ("tenant", Obs.Json.Str (Printf.sprintf "bench%d" s));
                               ("source", Obs.Json.Str (program ~session:s ~index:i));
                               ("stats", Obs.Json.Bool false)
                             ])
                      in
                      match resp with
                      | Obs.Json.Obj o -> (
                        (match List.assoc_opt "ok" o with
                        | Some (Obs.Json.Bool true) -> ()
                        | _ -> failwith ("E26: query failed: " ^ Obs.Json.to_string resp));
                        match
                          List.assoc_opt "report" o
                          |> Option.map (function
                               | Obs.Json.Obj r -> List.assoc_opt "probability" r
                               | _ -> None)
                        with
                        | Some (Some (Obs.Json.Float p)) when p = reference -> ()
                        | Some (Some (Obs.Json.Int p)) when float_of_int p = reference -> ()
                        | _ -> failwith "E26: daemon answer diverged from one-shot engine")
                      | _ -> failwith "E26: malformed response"
                    done))
          in
          List.iter Domain.join workers;
          (Unix.gettimeofday () -. t0) *. 1000.0
        in
        let queries = sessions * programs_per_session in
        let cold_ms = round "cold" in
        (* Several warm rounds; keep the best to damp scheduler noise. *)
        let warm_ms = ref infinity in
        for r = 1 to warm_rounds do
          let ms = round (Printf.sprintf "warm%d" r) in
          if ms < !warm_ms then warm_ms := ms
        done;
        let warm_ms = !warm_ms in
        let per_query pass total_ms =
          let mpq = total_ms /. float_of_int queries in
          Format.printf "%-10s %9d %12d %12.3f %10.0f@." pass sessions queries mpq
            (1000.0 /. mpq);
          mpq
        in
        let cold_pq = per_query "cold" cold_ms in
        let warm_pq = per_query "warm" warm_ms in
        Bench_json.record_extra ~id:(Printf.sprintf "E26/cold-s%d" sessions) ~n:sessions
          ~ms:cold_pq
          [ ("queries", string_of_int queries) ];
        Bench_json.record_extra ~id:(Printf.sprintf "E26/warm-s%d" sessions) ~n:sessions
          ~ms:warm_pq
          [ ("queries", string_of_int queries);
            ("speedup", Printf.sprintf "%.2f" (cold_pq /. warm_pq))
          ];
        (sessions, cold_pq, warm_pq))
  in
  let rows = List.map run_pass [ 1; 2; 4 ] in
  List.iter
    (fun (s, cold, warm) ->
      let sp = cold /. warm in
      Format.printf "sessions=%d: warm is %.2fx faster than cold@." s sp;
      if sp < 1.5 then
        failwith
          (Printf.sprintf
             "E26: warm plan cache must be >= 1.5x faster than cold at %d sessions (got %.2fx)"
             s sp))
    rows

(* --- E27: telemetry plane overhead — daemon on vs off --------------------- *)

let e27 () =
  header "E27" "telemetry plane overhead: full daemon request path, plane on vs off";
  (* Two in-process daemons differing only in [config.telemetry]; rounds
     alternate between them and each mode keeps its minimum, so machine
     drift hits both modes instead of masquerading as overhead.  Answers
     must be bit-identical across modes — the plane may cost time, never
     precision. *)
  let program index =
    Printf.sprintf "r%d_0(a).\nr%d_1(X) :- r%d_0(X).\n?- r%d_1(a)." index index index index
  in
  let programs = 8 in
  let queries_per_round = 800 in
  let reps = 7 in
  let reference =
    (Eval.Engine.run ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact
       (Lang.Parser.parse (program 0)))
      .Eval.Engine.probability
  in
  let start ~telemetry tag =
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "probdbd_e27_%s_%d.sock" tag (Unix.getpid ()))
    in
    let cfg =
      { (Serve.Server.default_config (Serve.Server.Unix_sock path)) with
        Serve.Server.telemetry
      }
    in
    let t = Serve.Server.create cfg in
    let d = Domain.spawn (fun () -> Serve.Server.serve_forever t) in
    (path, t, d)
  in
  let off = start ~telemetry:false "off" in
  let on = start ~telemetry:true "on" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (_, t, d) ->
          Serve.Server.shutdown t;
          Domain.join d)
        [ off; on ])
  @@ fun () ->
  let round (path, _, _) tag r =
    let c = Serve.Client.connect_unix ~retry_ms:2000 path in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    let t0 = Unix.gettimeofday () in
    for i = 0 to queries_per_round - 1 do
      let resp =
        Serve.Client.rpc_json c
          (Obs.Json.Obj
             [ ("op", Obs.Json.Str "query");
               ("id", Obs.Json.Str (Printf.sprintf "%s-%d-%d" tag r i));
               ("tenant", Obs.Json.Str "e27");
               ("source", Obs.Json.Str (program (i mod programs)));
               ("stats", Obs.Json.Bool false)
             ])
      in
      match resp with
      | Obs.Json.Obj o -> (
        (match List.assoc_opt "ok" o with
        | Some (Obs.Json.Bool true) -> ()
        | _ -> failwith ("E27: query failed: " ^ Obs.Json.to_string resp));
        match
          List.assoc_opt "report" o
          |> Option.map (function
               | Obs.Json.Obj rep -> List.assoc_opt "probability" rep
               | _ -> None)
        with
        | Some (Some (Obs.Json.Float p)) when p = reference -> ()
        | Some (Some (Obs.Json.Int p)) when float_of_int p = reference -> ()
        | _ -> failwith "E27: answers diverged between telemetry modes")
      | _ -> failwith "E27: malformed response"
    done;
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  (* Warm both daemons' plan caches so timed rounds are all cache hits. *)
  ignore (round off "warm-off" 0);
  ignore (round on "warm-on" 0);
  let min_off = ref infinity and min_on = ref infinity in
  for r = 1 to reps do
    (* Swap mode order every rep: position in the rep (cache warmth,
       scheduler state) must not masquerade as telemetry overhead. *)
    let passes =
      if r land 1 = 1 then [ (off, "off", min_off); (on, "on", min_on) ]
      else [ (on, "on", min_on); (off, "off", min_off) ]
    in
    List.iter
      (fun (srv, tag, best) ->
        let ms = round srv tag r in
        if ms < !best then best := ms)
      passes
  done;
  let per_query ms = ms /. float_of_int queries_per_round in
  let overhead = ((!min_on /. !min_off) -. 1.0) *. 100.0 in
  Format.printf "%-10s %10s %12s %12s@." "mode" "queries" "round ms" "ms/query";
  Format.printf "%-10s %10d %12.2f %12.4f@." "off" queries_per_round !min_off
    (per_query !min_off);
  Format.printf "%-10s %10d %12.2f %12.4f@." "on" queries_per_round !min_on
    (per_query !min_on);
  Format.printf "telemetry overhead: %+.2f%% (bar: 3%%)@." overhead;
  Bench_json.record ~id:"E27/daemon-off" ~n:queries_per_round ~ms:(per_query !min_off);
  Bench_json.record_extra ~id:"E27/daemon-on" ~n:queries_per_round ~ms:(per_query !min_on)
    [ ("overhead_pct", Printf.sprintf "%.2f" overhead) ];
  (* The exposition stays exact under load: the on-daemon's request
     histogram must count exactly the queries sent to it. *)
  let sent_on = queries_per_round * (reps + 1) in
  let path_on, _, _ = on in
  let c = Serve.Client.connect_unix ~retry_ms:2000 path_on in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let fields =
    Serve.Client.rpc_fields c
      (Obs.Json.Obj [ ("op", Obs.Json.Str "metrics"); ("id", Obs.Json.Str "e27-m") ])
  in
  (match List.assoc_opt "metrics" fields with
   | Some (Obs.Json.Obj doc) -> (
     match List.assoc_opt "tenants" doc with
     | Some (Obs.Json.Obj tenants) -> (
       match List.assoc_opt "e27" tenants with
       | Some (Obs.Json.Obj row) -> (
         match List.assoc_opt "requests" row with
         | Some (Obs.Json.Int n) when n = sent_on -> ()
         | Some (Obs.Json.Int n) ->
           failwith
             (Printf.sprintf "E27: histogram counted %d requests, %d were sent" n sent_on)
         | _ -> failwith "E27: rollup missing request count")
       | _ -> failwith "E27: tenant e27 missing from rollup")
     | _ -> failwith "E27: metrics document has no tenants")
   | _ -> failwith "E27: metrics op returned no document");
  if overhead > 3.0 then
    failwith (Printf.sprintf "E27: telemetry overhead %.2f%% exceeds the 3%% bar" overhead)

(* --- E28: durability overhead — journal on vs off, plus cold replay ------- *)

let e28 () =
  header "E28" "durability overhead: journaled daemon vs journal-off, plus cold replay";
  (* Two in-process daemons differing only in [config.state_dir]; rounds
     alternate between them and each mode keeps its minimum, so machine
     drift hits both modes instead of masquerading as overhead.  Each round
     is the daemon's steady-state mix: one journaled [load] (framed record
     + fsync before the ack on the on-daemon) followed by queries answered
     by name from the loaded program — the fsync cost is amortised the way
     a resident deployment sees it.  Answers must be bit-identical across
     modes: durability may cost time, never precision. *)
  let program index =
    Printf.sprintf "d%d_0(a).\nd%d_1(X) :- d%d_0(X).\n?- d%d_1(a)." index index index index
  in
  let queries_per_round = 400 in
  let reps = 7 in
  let reference =
    (Eval.Engine.run ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact
       (Lang.Parser.parse (program 0)))
      .Eval.Engine.probability
  in
  let tmp tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "probdbd_e28_%s_%d" tag (Unix.getpid ()))
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  let state_dir = tmp "state" in
  rm_rf state_dir;
  let start ~state_dir tag =
    let path = tmp (tag ^ ".sock") in
    let cfg =
      { (Serve.Server.default_config (Serve.Server.Unix_sock path)) with
        Serve.Server.state_dir
      }
    in
    let t = Serve.Server.create cfg in
    let d = Domain.spawn (fun () -> Serve.Server.serve_forever t) in
    (path, t, d)
  in
  let off = start ~state_dir:None "off" in
  let on = start ~state_dir:(Some state_dir) "on" in
  let on_loads = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (_, t, d) ->
          Serve.Server.shutdown t;
          Domain.join d)
        [ off; on ];
      rm_rf state_dir)
  @@ fun () ->
  let seq = ref 0 in
  let round (path, _, _) tag r =
    let c = Serve.Client.connect_unix ~retry_ms:2000 path in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    incr seq;
    if tag = "on" then incr on_loads;
    let name = Printf.sprintf "p_%s_%d" tag !seq in
    let t0 = Unix.gettimeofday () in
    ignore
      (Serve.Client.rpc_fields c
         (Obs.Json.Obj
            [ ("op", Obs.Json.Str "load");
              ("id", Obs.Json.Str (Printf.sprintf "%s-%d-load" tag r));
              ("tenant", Obs.Json.Str "e28");
              ("name", Obs.Json.Str name);
              ("source", Obs.Json.Str (program (!seq mod 8)))
            ]));
    for i = 0 to queries_per_round - 1 do
      let resp =
        Serve.Client.rpc_json c
          (Obs.Json.Obj
             [ ("op", Obs.Json.Str "query");
               ("id", Obs.Json.Str (Printf.sprintf "%s-%d-%d" tag r i));
               ("tenant", Obs.Json.Str "e28");
               ("name", Obs.Json.Str name);
               ("stats", Obs.Json.Bool false)
             ])
      in
      match resp with
      | Obs.Json.Obj o -> (
        (match List.assoc_opt "ok" o with
        | Some (Obs.Json.Bool true) -> ()
        | _ -> failwith ("E28: query failed: " ^ Obs.Json.to_string resp));
        match
          List.assoc_opt "report" o
          |> Option.map (function
               | Obs.Json.Obj rep -> List.assoc_opt "probability" rep
               | _ -> None)
        with
        | Some (Some (Obs.Json.Float p)) when p = reference -> ()
        | Some (Some (Obs.Json.Int p)) when float_of_int p = reference -> ()
        | _ -> failwith "E28: answers diverged between durability modes")
      | _ -> failwith "E28: malformed response"
    done;
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  (* Warm both daemons (plan cache, allocator) before the timed reps. *)
  ignore (round off "off" 0);
  ignore (round on "on" 0);
  let min_off = ref infinity and min_on = ref infinity in
  for r = 1 to reps do
    let passes =
      if r land 1 = 1 then [ (off, "off", min_off); (on, "on", min_on) ]
      else [ (on, "on", min_on); (off, "off", min_off) ]
    in
    List.iter
      (fun (srv, tag, best) ->
        let ms = round srv tag r in
        if ms < !best then best := ms)
      passes
  done;
  let requests_per_round = queries_per_round + 1 in
  let per_req ms = ms /. float_of_int requests_per_round in
  let overhead = ((!min_on /. !min_off) -. 1.0) *. 100.0 in
  Format.printf "%-12s %9s %12s %12s@." "mode" "requests" "round ms" "ms/request";
  Format.printf "%-12s %9d %12.2f %12.4f@." "journal-off" requests_per_round !min_off
    (per_req !min_off);
  Format.printf "%-12s %9d %12.2f %12.4f@." "journal-on" requests_per_round !min_on
    (per_req !min_on);
  Format.printf "durability overhead: %+.2f%% (bar: 5%%)@." overhead;
  Bench_json.record ~id:"E28/journal-off" ~n:requests_per_round ~ms:(per_req !min_off);
  Bench_json.record_extra ~id:"E28/journal-on" ~n:requests_per_round ~ms:(per_req !min_on)
    [ ("overhead_pct", Printf.sprintf "%.2f" overhead) ];
  (* The journal must have fsynced exactly one record per load sent to the
     on-daemon — fewer means an ack raced durability. *)
  let path_on, _, _ = on in
  let c = Serve.Client.connect_unix ~retry_ms:2000 path_on in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let fields =
    Serve.Client.rpc_fields c
      (Obs.Json.Obj [ ("op", Obs.Json.Str "stats"); ("id", Obs.Json.Str "e28-s") ])
  in
  (match List.assoc_opt "stats" fields with
   | Some (Obs.Json.Obj doc) -> (
     match List.assoc_opt "journal" doc with
     | Some (Obs.Json.Obj j) -> (
       match (List.assoc_opt "appended" j, List.assoc_opt "fsyncs" j) with
       | Some (Obs.Json.Int a), Some (Obs.Json.Int f) when a = !on_loads && f >= a -> ()
       | Some (Obs.Json.Int a), _ ->
         failwith
           (Printf.sprintf "E28: journal appended %d records, %d loads were acked" a
              !on_loads)
       | _ -> failwith "E28: journal stats missing counters")
     | _ -> failwith "E28: stats op returned no journal document")
   | _ -> failwith "E28: stats op returned no document");
  (* Cold replay: recovery time for K journaled records, measured through
     [Serve.Journal] directly so the row isolates replay from socket setup. *)
  let k = 200 in
  let rdir = tmp "replay" in
  rm_rf rdir;
  let j, _, _ = Serve.Journal.open_ ~compact_every:(k + 1) ~dir:rdir () in
  for i = 0 to k - 1 do
    Serve.Journal.append j
      { Serve.Journal.tenant = "e28";
        name = Printf.sprintf "n%d" i;
        source = program (i mod 8)
      }
  done;
  Serve.Journal.close j;
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let j, entries, rep = Serve.Journal.open_ ~compact_every:(k + 1) ~dir:rdir () in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    Serve.Journal.close j;
    if List.length entries <> k || rep.Serve.Journal.journal_records <> k then
      failwith "E28: cold replay lost records";
    if ms < !best then best := ms
  done;
  rm_rf rdir;
  Format.printf "cold replay of %d records: %.2f ms@." k !best;
  Bench_json.record ~id:(Printf.sprintf "E28/recovery-k%d" k) ~n:k ~ms:!best;
  if overhead > 5.0 then
    failwith (Printf.sprintf "E28: durability overhead %.2f%% exceeds the 5%% bar" overhead)

(* --- bechamel micro-benchmarks ------------------------------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let e1_test =
    let ct, program, event = Workload.Uncertain.uncertain_line ~n:6 in
    Test.make ~name:"E1/exact-inflationary-n6"
      (Staged.stage (fun () -> Eval.Exact_inflationary.eval_ctable ~program ~event ct))
  in
  let e2_test =
    let ct, program, event = Workload.Uncertain.uncertain_line ~n:20 in
    let sampler = Eval.Sample_inflationary.ctable_sampler ~program ct in
    let rng = Random.State.make [| 1 |] in
    let kernel, _ = Lang.Compile.inflationary_kernel program (sampler rng) in
    let q = Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel ~event) in
    Test.make ~name:"E2/sample-inflationary-n20-m50"
      (Staged.stage (fun () ->
           estimate
             (Eval.Sample_inflationary.run_samples ~init_sampler:sampler ~samples:50 rng q Database.empty)))
  in
  let e3_test =
    let f = Reductions.Cnf.make ~num_vars:4 (List.init 4 (fun i -> [ Reductions.Cnf.pos (i + 1) ])) in
    let ct, program, event = Reductions.Encode_inflationary.encode_ctable f in
    Test.make ~name:"E3/thm41-exact-n4"
      (Staged.stage (fun () -> Eval.Exact_inflationary.eval_ctable ~program ~event ct))
  in
  let e4_test =
    let parsed = Lang.Parser.parse (multi_walker_source [ 3; 3 ]) in
    let db = multi_walker_db [ 3; 3 ] in
    let q, init = noninflationary_of parsed db in
    Test.make ~name:"E4/exact-noninflationary-3x3"
      (Staged.stage (fun () -> Eval.Exact_noninflationary.eval q init))
  in
  let e5_test =
    let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
    let db = Workload.Graphs.walk_database (Workload.Graphs.barbell 3) ~start:0 in
    let q, init = noninflationary_of parsed db in
    let rng = Random.State.make [| 2 |] in
    Test.make ~name:"E5/sample-noninflationary-barbell3"
      (Staged.stage (fun () ->
           estimate (Eval.Sample_noninflationary.run_samples rng ~burn_in:40 ~samples:50 q init)))
  in
  let e6_test =
    let f = Reductions.Cnf.random3 (Random.State.make [| 4 |]) ~num_vars:4 ~num_clauses:5 in
    let db, program, event = Reductions.Encode_noninflationary.encode f in
    let kernel, init = Lang.Compile.noninflationary_kernel program db in
    let q = Lang.Forever.make ~kernel ~event in
    let rng = Random.State.make [| 5 |] in
    Test.make ~name:"E6/thm51-sample-n4"
      (Staged.stage (fun () ->
           estimate (Eval.Sample_noninflationary.run_samples rng ~burn_in:40 ~samples:20 q init)))
  in
  let e7_test =
    let parsed = Lang.Parser.parse (multi_walker_source [ 3; 4 ]) in
    let db = multi_walker_db [ 3; 4 ] in
    let program = parsed.Lang.Parser.program in
    let event = Option.get parsed.Lang.Parser.event in
    Test.make ~name:"E7/partitioned-3x4"
      (Staged.stage (fun () -> Eval.Partition.eval_noninflationary program db event))
  in
  let e8_test =
    let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
    let db = Workload.Graphs.walk_database (Workload.Graphs.cycle 6) ~start:0 in
    let q, init = noninflationary_of parsed db in
    Test.make ~name:"E8/walk-cycle6" (Staged.stage (fun () -> Eval.Exact_noninflationary.eval q init))
  in
  let e10_test =
    let parsed =
      Lang.Parser.parse "C(n1) :- .\nC2(<X>, Y) :- C(X), e(X, Y).\nC(Y) :- C2(X, Y).\n?- C(n4)."
    in
    let db =
      Database.of_list
        [ ("e",
           Relational.Table_io.relation_of_rows [ "x1"; "x2" ]
             [ [ "n1"; "n2" ]; [ "n1"; "n3" ]; [ "n2"; "n4" ]; [ "n2"; "n5" ] ])
        ]
    in
    let q, init = inflationary_of parsed db in
    Test.make ~name:"E10/reachability-tree" (Staged.stage (fun () -> Eval.Exact_inflationary.eval q init))
  in
  let e11_test =
    let bn = Bayes.Gen.random (Random.State.make [| 11 |]) ~num_nodes:4 ~max_in_degree:2 in
    let names = Bayes.Bn.node_names bn in
    let db, program, event = Bayes.Encode.marginal_query bn [ (List.nth names 3, true) ] in
    Test.make ~name:"E11/bayes-datalog-n4"
      (Staged.stage (fun () ->
           let kernel, init = Lang.Compile.inflationary_kernel program db in
           let q = Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel ~event) in
           Eval.Exact_inflationary.eval q init))
  in
  let e12_test =
    let players =
      Relational.Table_io.relation_of_rows [ "Player"; "Team"; "Belief" ]
        [ [ "Bryant"; "LALakers"; "17" ]; [ "Bryant"; "NYKnicks"; "3" ];
          [ "Iverson"; "Sixers"; "8" ]; [ "Iverson"; "Grizzlies"; "7" ]
        ]
    in
    Test.make ~name:"E12/repair-key-basketball"
      (Staged.stage (fun () -> Prob.Repair_key.repair ~key:[ "Player" ] ~weight:"Belief" players))
  in
  let e14_test =
    let parsed = Lang.Parser.parse (Workload.Graphs.walk_source ~target:0) in
    let db = Workload.Graphs.walk_database (Workload.Graphs.barbell 2) ~start:0 in
    let q, init = noninflationary_of parsed db in
    let chain = Eval.Exact_noninflationary.build_chain q init in
    Test.make ~name:"E14/conductance-barbell2"
      (Staged.stage (fun () -> Markov.Conductance.conductance chain))
  in
  let e16_test =
    let kernel, db =
      Workload.Coloring.glauber
        ~edges:[ (0, 1); (1, 2); (0, 2) ]
        ~num_nodes:3 ~colors:[ "c1"; "c2"; "c3"; "c4" ]
        ~initial:[ (0, "c1"); (1, "c2"); (2, "c3") ]
    in
    let q =
      Lang.Forever.make ~kernel ~event:(Workload.Coloring.color_event ~node:0 ~color:"c1")
    in
    Test.make ~name:"E16/lumped-glauber-K3"
      (Staged.stage (fun () -> Eval.Exact_noninflationary.eval q db))
  in
  let e15_test =
    let kernel, db =
      Workload.Coloring.glauber
        ~edges:[ (0, 1); (1, 2) ]
        ~num_nodes:3 ~colors:[ "c1"; "c2"; "c3" ]
        ~initial:[ (0, "c1"); (1, "c2"); (2, "c1") ]
    in
    let event = Workload.Coloring.color_event ~node:1 ~color:"c2" in
    let q = Lang.Forever.make ~kernel ~event in
    Test.make ~name:"E15/glauber-path3"
      (Staged.stage (fun () -> Eval.Exact_noninflationary.eval q db))
  in
  [ e1_test; e2_test; e3_test; e4_test; e5_test; e6_test; e7_test; e8_test; e10_test; e11_test;
    e12_test; e14_test; e15_test; e16_test
  ]

let run_bechamel () =
  let open Bechamel in
  Format.printf "@.=== bechamel timings (one Test.make per experiment) ===@.";
  Format.printf "%-40s %16s@." "benchmark" "time/run";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ instance ] elt in
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some (ns :: _) ->
            let pretty =
              if ns > 1e9 then Printf.sprintf "%8.3f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
              else Printf.sprintf "%8.0f ns" ns
            in
            Format.printf "%-40s %16s@." (Test.Elt.name elt) pretty
          | Some [] | None -> Format.printf "%-40s %16s@." (Test.Elt.name elt) "n/a")
        (Test.elements test))
    (bechamel_tests ())

(* --- main ----------------------------------------------------------------- *)

let experiments =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6); ("E7", e7);
    ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12);
    ("E14", e14); ("E15", e15); ("E16", e16); ("E17", e17); ("E18", e18); ("E19", e19);
    ("E20", e20); ("E21", e21); ("E22", e22); ("E23", e23); ("E24", e24); ("E25", e25);
    ("E26", e26); ("E27", e27); ("E28", e28)
  ]

(* --- bench compare: regression gate over two BENCH_*.json day files -------- *)

(* [compare OLD NEW [THRESHOLD] [PREFIX...]] diffs the per-(id, n) minimum
   milliseconds of two day files and exits 1 when any row got more than
   THRESHOLD percent slower (default 25%).  PREFIX arguments (e.g. "E20"
   "E21" "E22") restrict the gate to ids starting with one of them, so CI can
   gate the guarded experiments while the rest of the file churns freely.
   Rows present on one side only are reported but never fail the gate —
   otherwise adding an experiment would break the previous day's baseline. *)
let compare_files args =
  let usage () =
    prerr_endline "usage: bench compare OLD.json NEW.json [THRESHOLD%] [PREFIX...]";
    exit 2
  in
  let old_file, new_file, rest =
    match args with
    | o :: n :: rest -> (o, n, rest)
    | _ -> usage ()
  in
  let threshold, prefixes =
    match rest with
    | t :: ps when Option.is_some (float_of_string_opt t) -> (float_of_string t, ps)
    | ps -> (25.0, ps)
  in
  let wanted id =
    prefixes = [] || List.exists (fun p -> String.starts_with ~prefix:p id) prefixes
  in
  (* Per-(id, n) minimum: day files may hold several rows per id (one per
     size), and re-runs append fresh minima for sizes already present. *)
  let minima file =
    if not (Sys.file_exists file) then begin
      Printf.eprintf "bench compare: no such file: %s\n" file;
      exit 2
    end;
    List.fold_left
      (fun acc (id, n, ms, _) ->
        if not (wanted id) then acc
        else begin
          let key = (id, n) in
          match List.assoc_opt key acc with
          | Some ms' when ms' <= ms -> acc
          | _ -> (key, ms) :: List.remove_assoc key acc
        end)
      [] (Bench_json.parse_existing file)
  in
  let old_rows = minima old_file and new_rows = minima new_file in
  if old_rows = [] && new_rows = [] then begin
    Printf.eprintf "bench compare: no matching rows in %s or %s\n" old_file new_file;
    exit 2
  end;
  let keys =
    List.sort_uniq Stdlib.compare (List.map fst old_rows @ List.map fst new_rows)
  in
  let regressions = ref 0 in
  Format.printf "%-28s %6s %12s %12s %10s@." "id" "n" "old ms" "new ms" "delta";
  List.iter
    (fun ((id, n) as key) ->
      match (List.assoc_opt key old_rows, List.assoc_opt key new_rows) with
      | Some oms, Some nms ->
        let pct = (nms /. oms -. 1.0) *. 100.0 in
        let flag = if pct > threshold then " REGRESSION" else "" in
        if pct > threshold then incr regressions;
        Format.printf "%-28s %6d %12.3f %12.3f %+9.1f%%%s@." id n oms nms pct flag
      | Some oms, None -> Format.printf "%-28s %6d %12.3f %12s %10s@." id n oms "-" "gone"
      | None, Some nms -> Format.printf "%-28s %6d %12s %12.3f %10s@." id n "-" nms "new"
      | None, None -> ())
    keys;
  if !regressions > 0 then begin
    Format.printf "@.%d row%s regressed by more than %.1f%%@." !regressions
      (if !regressions = 1 then "" else "s")
      threshold;
    exit 1
  end;
  Format.printf "@.no regressions above %.1f%%@." threshold;
  exit 0

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "compare" :: rest -> compare_files rest
  | _ ->
    let selected = List.filter (fun a -> List.mem_assoc a experiments) args in
    let report_only = List.mem "report" args in
    let todo = if selected = [] then experiments else List.filter (fun (id, _) -> List.mem id selected) experiments in
    Format.printf "probdb benchmark harness — reproducing Deutch, Koch & Milo (PODS 2010)@.";
    List.iter (fun (_, f) -> f ()) todo;
    if (not report_only) && selected = [] then run_bechamel ();
    Bench_json.write ();
    Format.printf "@.done.@."
