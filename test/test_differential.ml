(* Differential testing: random programs evaluated by independent engines
   must agree.  This is the strongest end-to-end evidence that the
   semantics, compiler, and engines implement the same language. *)

module Q = Bigq.Q
module Database = Relational.Database

let case_of seed =
  let rng = Random.State.make [| seed |] in
  Workload.Progen.random_case rng

let arb_case =
  QCheck.make
    ~print:(fun seed -> (case_of seed).Workload.Progen.source)
    QCheck.Gen.(int_bound 100_000)

(* Exact inflationary answer and sampled answer agree within Hoeffding
   tolerance (generous eps; a systematic bug shows up as a gross gap). *)
let prop_exact_vs_sampled_inflationary =
  QCheck.Test.make ~name:"inflationary: exact = sampled (within 0.08)" ~count:30 arb_case
    (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.inflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q =
        Lang.Inflationary.of_forever_unchecked
          (Lang.Forever.make ~kernel ~event:case.Workload.Progen.event)
      in
      let exact = Q.to_float (Eval.Exact_inflationary.eval q init) in
      let rng = Random.State.make [| seed + 1 |] in
      let r = Eval.Sample_inflationary.run_samples ~samples:1500 rng q init in
      let sampled = float_of_int r.Eval.Pool.hits /. 1500.0 in
      abs_float (exact -. sampled) < 0.08)

(* Prop 3.8: the compiled inflationary kernel of ANY probabilistic datalog
   program is syntactically an inflationary query. *)
let prop_compiled_kernel_is_inflationary =
  QCheck.Test.make ~name:"Prop 3.8: compiled kernels pass the inflationary check" ~count:60 arb_case
    (fun seed ->
      let case = case_of seed in
      let kernel, _ =
        Lang.Compile.inflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      match
        Lang.Inflationary.of_forever (Lang.Forever.make ~kernel ~event:case.Workload.Progen.event)
      with
      | _ -> true)

(* Sampled runs only ever grow the state. *)
let prop_sampled_runs_monotone =
  QCheck.Test.make ~name:"inflationary runs are monotone along sampled paths" ~count:30 arb_case
    (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.inflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q = Lang.Forever.make ~kernel ~event:case.Workload.Progen.event in
      let rng = Random.State.make [| seed |] in
      let rec go db steps ok =
        if steps = 0 || not ok then ok
        else begin
          let db' = Lang.Forever.step_sampled rng q db in
          go db' (steps - 1) (Database.subsumes db' db)
        end
      in
      go init 25 true)

(* Optimised kernels agree exactly with raw kernels on random programs. *)
let prop_optimizer_end_to_end =
  QCheck.Test.make ~name:"optimizer preserves exact answers on random programs" ~count:30 arb_case
    (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.inflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let schema_of name = Relational.Relation.columns (Database.find name init) in
      let kernel' = Optimize.interp ~schema_of kernel in
      let q k = Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel:k ~event:case.Workload.Progen.event) in
      Q.equal (Eval.Exact_inflationary.eval (q kernel) init) (Eval.Exact_inflationary.eval (q kernel') init))

(* Non-inflationary: exact chain answer vs long time-average sampling.
   Restricted to cases whose chain stays small. *)
let prop_exact_vs_time_average_noninflationary =
  QCheck.Test.make ~name:"noninflationary: exact = time average (within 0.08)" ~count:15 arb_case
    (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.noninflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q = Lang.Forever.make ~kernel ~event:case.Workload.Progen.event in
      match Eval.Exact_noninflationary.analyse ~max_states:400 q init with
      | exception Markov.Chain.Chain_error _ -> QCheck.assume_fail ()
      | a ->
        let exact = Q.to_float a.Eval.Exact_noninflationary.result in
        let rng = Random.State.make [| seed + 2 |] in
        let avg = Eval.Sample_noninflationary.eval_time_average rng ~steps:30_000 q init in
        abs_float (exact -. avg) < 0.08)

(* The lumped solve agrees exactly with the full-chain reference. *)
let prop_lumped_matches_direct =
  QCheck.Test.make ~name:"lumped = direct on random non-inflationary programs" ~count:15 arb_case
    (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.noninflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q = Lang.Forever.make ~kernel ~event:case.Workload.Progen.event in
      match Eval.Exact_noninflationary.eval ~max_states:400 q init with
      | exception Markov.Chain.Chain_error _ -> QCheck.assume_fail ()
      | lumped -> Q.equal lumped (Full_chain.query_mass ~max_states:400 q init))

(* Multi-event evaluation is consistent with one-at-a-time evaluation. *)
let prop_multi_event_consistent =
  QCheck.Test.make ~name:"eval_events agrees with per-event eval" ~count:15 arb_case (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.noninflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q = Lang.Forever.make ~kernel ~event:case.Workload.Progen.event in
      match Eval.Exact_noninflationary.eval ~max_states:400 q init with
      | exception Markov.Chain.Chain_error _ -> QCheck.assume_fail ()
      | direct ->
        let results =
          Eval.Exact_noninflationary.eval_events ~max_states:400 ~kernel
            ~events:[ case.Workload.Progen.event ] init
        in
        Q.equal direct (snd (List.hd results)))

(* Compiled physical plans are a pure mechanism change: on random programs
   they must match the AST interpreter exactly — same rationals from the
   exact engines, bit-identical fixed-seed trajectories and estimates from
   the samplers. *)

let compiled_of init q =
  let schema_of name = Relational.Relation.columns (Database.find name init) in
  Lang.Forever.compile ~schema_of q

let prop_plan_exact_inflationary =
  QCheck.Test.make ~name:"plans: inflationary exact Q-identical" ~count:30 arb_case (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.inflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q = Lang.Forever.make ~kernel ~event:case.Workload.Progen.event in
      let wrap = Lang.Inflationary.of_forever_unchecked in
      Q.equal
        (Eval.Exact_inflationary.eval (wrap q) init)
        (Eval.Exact_inflationary.eval (wrap (compiled_of init q)) init))

let prop_plan_exact_noninflationary =
  QCheck.Test.make ~name:"plans: noninflationary exact Q-identical" ~count:15 arb_case
    (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.noninflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q = Lang.Forever.make ~kernel ~event:case.Workload.Progen.event in
      match Eval.Exact_noninflationary.eval ~max_states:400 q init with
      | exception Markov.Chain.Chain_error _ -> QCheck.assume_fail ()
      | direct ->
        Q.equal direct (Eval.Exact_noninflationary.eval ~max_states:400 (compiled_of init q) init))

let prop_plan_sampled_trajectories_identical =
  QCheck.Test.make ~name:"plans: fixed-seed sampled trajectories bit-identical" ~count:30 arb_case
    (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.noninflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q = Lang.Forever.make ~kernel ~event:case.Workload.Progen.event in
      let qc = compiled_of init q in
      let r1 = Random.State.make [| seed |] and r2 = Random.State.make [| seed |] in
      let rec go a b steps =
        steps = 0
        || Database.equal a b
           && go (Lang.Forever.step_sampled r1 q a) (Lang.Forever.step_sampled r2 qc b) (steps - 1)
      in
      go init init 25)

let prop_plan_sampler_estimates_identical =
  QCheck.Test.make ~name:"plans: fixed-seed sampler estimates bit-identical" ~count:15 arb_case
    (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.inflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q = Lang.Forever.make ~kernel ~event:case.Workload.Progen.event in
      let wrap = Lang.Inflationary.of_forever_unchecked in
      let est q' s =
        (Eval.Sample_inflationary.run_samples ~samples:300 (Random.State.make [| s |]) (wrap q')
           init)
          .Eval.Pool.hits
      in
      est q (seed + 1) = est (compiled_of init q) (seed + 1))

(* Semi-naive delta stepping is a pure mechanism change: on random
   programs the exact rationals AND the visited-state counts must equal
   the naive stepper's. *)
let prop_seminaive_matches_naive =
  QCheck.Test.make ~name:"semi-naive = naive (answers and visited states)" ~count:40 arb_case
    (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.inflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let schema_of name = Relational.Relation.columns (Database.find name init) in
      let qc =
        Lang.Forever.compile ~schema_of (Lang.Forever.make ~kernel ~event:case.Workload.Progen.event)
      in
      let sn = Lang.Seminaive.compile ~schema_of case.Workload.Progen.program in
      let wrap = Lang.Inflationary.of_forever_unchecked in
      let naive, ns = Eval.Exact_inflationary.eval_with_stats (wrap qc) init in
      let semi, ss =
        Eval.Exact_inflationary.eval_with_stats (wrap (Lang.Seminaive.install sn qc)) init
      in
      Q.equal naive semi
      && ns.Eval.Exact_inflationary.states_visited = ss.Eval.Exact_inflationary.states_visited
      && ns.Eval.Exact_inflationary.fixpoints = ss.Eval.Exact_inflationary.fixpoints)

(* The magic-sets rewrite preserves exact answers on random programs —
   including probabilistic rules, negation and constraints, which exercise
   the total-closure that exempts them from demand restriction. *)
let prop_magic_matches_unrewritten =
  QCheck.Test.make ~name:"magic rewrite preserves exact answers" ~count:40 arb_case (fun seed ->
      let case = case_of seed in
      let eval_with program event =
        let kernel, init = Lang.Compile.inflationary_kernel program case.Workload.Progen.database in
        Eval.Exact_inflationary.eval
          (Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel ~event))
          init
      in
      let m = Lang.Magic.rewrite ~event:case.Workload.Progen.event case.Workload.Progen.program in
      Q.equal
        (eval_with case.Workload.Progen.program case.Workload.Progen.event)
        (eval_with (Lang.Magic.program m) (Lang.Magic.event m)))

(* Engine front-end and direct pipeline agree. *)
let prop_engine_matches_direct =
  QCheck.Test.make ~name:"Engine.run = direct pipeline" ~count:20 arb_case (fun seed ->
      let case = case_of seed in
      let parsed =
        { Lang.Parser.program = case.Workload.Progen.program;
          facts = [];
          vars = [];
          cond_facts = [];
          event = Some case.Workload.Progen.event;
          events = [ case.Workload.Progen.event ]
        }
      in
      (* Rebuild facts from the database for the engine path. *)
      let facts =
        List.concat_map
          (fun (name, r) ->
            List.map
              (fun t -> (name, Relational.Tuple.to_list t))
              (Relational.Relation.tuples r))
          (Database.bindings case.Workload.Progen.database)
      in
      let parsed = { parsed with Lang.Parser.facts } in
      let report = Eval.Engine.run ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact parsed in
      let kernel, init =
        Lang.Compile.inflationary_kernel case.Workload.Progen.program case.Workload.Progen.database
      in
      let q =
        Lang.Inflationary.of_forever_unchecked
          (Lang.Forever.make ~kernel ~event:case.Workload.Progen.event)
      in
      match report.Eval.Engine.exact with
      | Some p -> Q.equal p (Eval.Exact_inflationary.eval q init)
      | None -> false)

(* pc-table inputs: lineage compilation and world enumeration agree.  Each
   [e] fact of a random program is guarded by a random condition over 1-3
   flags and one 3-valued variable, using =, !=, variable = variable, not
   and or.  Programs with a [?T] or negation rule take the enumeration
   path, so both paths are exercised; the reference is always the
   enumeration, one exact fixpoint per world. *)
module Ctable = Prob.Ctable

let pctable_of_case seed =
  let case = case_of seed in
  let rng = Random.State.make [| seed; 7 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let flags = List.init (1 + Random.State.int rng 3) (fun i -> Printf.sprintf "f%d" i) in
  let vars =
    List.map (fun f -> Ctable.flag ~p:(pick [ Q.half; Q.of_ints 1 3; Q.of_ints 3 4 ]) f) flags
    @ [ { Ctable.vname = "c";
          domain =
            [ (Relational.Value.Int 1, Q.half);
              (Relational.Value.Int 2, Q.of_ints 1 3);
              (Relational.Value.Int 3, Q.of_ints 1 6) ] } ]
  in
  let var () = Ctable.TVar (pick ("c" :: flags)) in
  let term () =
    match Random.State.int rng 3 with
    | 0 -> var ()
    | 1 -> Ctable.TLit (Relational.Value.Bool (Random.State.bool rng))
    | _ -> Ctable.TLit (Relational.Value.Int (1 + Random.State.int rng 3))
  in
  let rec cond depth =
    match if depth = 0 then Random.State.int rng 2 else Random.State.int rng 6 with
    | 0 ->
      let a = var () and b = term () in
      if Random.State.bool rng then Ctable.CEq (a, b) else Ctable.CNeq (a, b)
    | 1 -> Ctable.CEq (var (), var ())
    | 2 -> Ctable.CNot (cond (depth - 1))
    | 3 -> Ctable.COr (cond (depth - 1), cond (depth - 1))
    | _ -> Ctable.CAnd (cond (depth - 1), cond (depth - 1))
  in
  let tables =
    List.map
      (fun (name, r) ->
        let rows =
          List.map
            (fun tuple ->
              { Ctable.tuple; cond = (if String.equal name "e" then cond 2 else Ctable.CTrue) })
            (Relational.Relation.tuples r)
        in
        (name, Relational.Relation.columns r, rows))
      (Database.bindings case.Workload.Progen.database)
  in
  (case, Ctable.make ~vars ~tables)

let by_enumeration program event ct =
  let worlds = Ctable.worlds ct in
  let world0 = fst (List.hd (Prob.Dist.support worlds)) in
  let kernel, _ = Lang.Compile.inflationary_kernel program world0 in
  Eval.Exact_inflationary.eval_worlds ~prepare:(Lang.Compile.inflationary_initial program)
    (Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel ~event))
    worlds

let prop_lineage_matches_worlds =
  QCheck.Test.make ~name:"pc-tables: eval_ctable = world enumeration" ~count:200 arb_case
    (fun seed ->
      let case, ct = pctable_of_case seed in
      let program = case.Workload.Progen.program and event = case.Workload.Progen.event in
      Q.equal
        (Eval.Exact_inflationary.eval_ctable ~program ~event ct)
        (by_enumeration program event ct))

(* The non-hierarchical query R(x), S(x,y), T(y) over a 3x3 grid of
   independent tuples, each present with probability 1/2: its lineage is
   not read-once.  The reference counts the 2^15 valuations directly. *)
let test_non_hierarchical_grid () =
  let ct, program, event = Workload.Uncertain.uncertain_grid ~k:3 in
  let idx = [ 0; 1; 2 ] in
  (* Flags in declaration order: r0..r2, t0..t2, then s_i_j row-major. *)
  let bit mask k = mask land (1 lsl k) <> 0 in
  let holds mask =
    List.exists
      (fun i -> bit mask i && List.exists (fun j -> bit mask (6 + (3 * i) + j) && bit mask (3 + j)) idx)
      idx
  in
  let hits = ref 0 in
  for mask = 0 to (1 lsl 15) - 1 do
    if holds mask then incr hits
  done;
  let p, how = Eval.Exact_inflationary.eval_ctable_method ~program ~event ct in
  Alcotest.(check bool) "lineage path" true
    (match how with Eval.Exact_inflationary.Lineage _ -> true | Eval.Exact_inflationary.Worlds -> false);
  Alcotest.(check string) "exact" (Q.to_string (Q.of_ints !hits (1 lsl 15))) (Q.to_string p)

let () =
  Alcotest.run "differential"
    [ ( "random-programs",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compiled_kernel_is_inflationary;
            prop_sampled_runs_monotone;
            prop_optimizer_end_to_end;
            prop_exact_vs_sampled_inflationary;
            prop_exact_vs_time_average_noninflationary;
            prop_lumped_matches_direct;
            prop_multi_event_consistent;
            prop_plan_exact_inflationary;
            prop_plan_exact_noninflationary;
            prop_plan_sampled_trajectories_identical;
            prop_plan_sampler_estimates_identical;
            prop_seminaive_matches_naive;
            prop_magic_matches_unrewritten;
            prop_engine_matches_direct;
            prop_lineage_matches_worlds
          ] );
      ( "pc-tables",
        [ Alcotest.test_case "non-hierarchical 3x3 grid: lineage = counted valuations" `Quick
            test_non_hierarchical_grid
        ] )
    ]
