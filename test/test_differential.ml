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
        Q.equal direct (snd (List.hd results.Eval.Exact_noninflationary.masses)))

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

(* Cone slicing.  The engine answers on the event's cone ({!Lang.Slice});
   the references are the lower layers, which do not slice, run on the
   whole input: Exact_inflationary, Exact_noninflationary.eval and the
   full-chain solve.  Every random program gets an out-of-cone relation
   [Z] with a repair-key rule of its own that reads the in-cone edges; its
   pc-table variant also gets an out-of-cone [z] whose rows mention the
   variable [c] and a variable [u] that nothing in the cone reads. *)
let with_out_of_cone (case : Workload.Progen.case) =
  case.Workload.Progen.program
  @ (Lang.Parser.parse "?Z(<X>, Y) :- z(X), e(X, Y).").Lang.Parser.program

let engine_exact ~semantics parsed =
  let r = Eval.Engine.run ~max_states:400 ~semantics ~method_:Eval.Engine.Exact parsed in
  Option.get r.Eval.Engine.exact

let unsliced_inflationary program db event =
  let kernel, init = Lang.Compile.inflationary_kernel program db in
  Eval.Exact_inflationary.eval
    (Lang.Inflationary.of_forever_unchecked (Lang.Forever.make ~kernel ~event))
    init

(* The non-inflationary references on the unsliced kernel: the lumped
   solve and, with [full], the full-chain solve too (its dense elimination
   is kept to certain inputs, whose chains stay small).  [None] when the
   chain passes the state cap. *)
let unsliced_noninflationary ?(full = true) (kernel, init) event =
  let q = Lang.Forever.make ~kernel ~event in
  match Eval.Exact_noninflationary.eval ~max_states:400 q init with
  | exception Markov.Chain.Chain_error _ -> None
  | lumped -> Some (lumped, if full then Full_chain.query_mass ~max_states:400 q init else lumped)

let check_noninflationary ~engine reference =
  match reference with
  | None -> QCheck.assume_fail ()
  | Some (lumped, full) -> Q.equal lumped full && Q.equal (engine ()) lumped

let facts_of_database db =
  List.concat_map
    (fun (name, r) ->
      List.map (fun t -> (name, Relational.Tuple.to_list t)) (Relational.Relation.tuples r))
    (Database.bindings db)

let prop_slice_certain =
  QCheck.Test.make ~name:"slicing: sliced = unsliced, certain inputs, both semantics" ~count:25
    arb_case (fun seed ->
      let case = case_of seed in
      let program = with_out_of_cone case and event = case.Workload.Progen.event in
      let facts =
        (("z", [ Relational.Value.Str "a" ]) :: facts_of_database case.Workload.Progen.database)
      in
      let parsed =
        { Lang.Parser.program; facts; vars = []; cond_facts = []; event = Some event;
          events = [ event ] }
      in
      let db = Lang.Parser.database_of_facts facts in
      Q.equal
        (engine_exact ~semantics:Eval.Engine.Inflationary parsed)
        (unsliced_inflationary program db event)
      && check_noninflationary
           ~engine:(fun () -> engine_exact ~semantics:Eval.Engine.Noninflationary parsed)
           (unsliced_noninflationary (Lang.Compile.noninflationary_kernel program db) event))

let prop_slice_pctable =
  QCheck.Test.make ~name:"slicing: sliced = unsliced, pc-table inputs, both semantics" ~count:12
    arb_case (fun seed ->
      let case, ct = pctable_of_case seed in
      let program = with_out_of_cone case and event = case.Workload.Progen.event in
      let value s = Relational.Value.Str s in
      let cond_facts =
        ("z", [ value "a" ], Ctable.CEq (Ctable.TVar "c", Ctable.TLit (Relational.Value.Int 1)))
        :: ("z", [ value "b" ], Ctable.CEq (Ctable.TVar "u", Ctable.TLit (Relational.Value.Bool true)))
        :: List.concat_map
             (fun (name, _, rows) ->
               List.map
                 (fun r -> (name, Relational.Tuple.to_list r.Ctable.tuple, r.Ctable.cond))
                 rows)
             (Ctable.tables ct)
      in
      let parsed =
        { Lang.Parser.program; facts = []; vars = Ctable.vars ct @ [ Ctable.flag ~p:Q.half "u" ];
          cond_facts; event = Some event; events = [ event ] }
      in
      let full = Option.get (Lang.Parser.ctable_of parsed) in
      Q.equal
        (engine_exact ~semantics:Eval.Engine.Inflationary parsed)
        (by_enumeration program event full)
      && check_noninflationary
           ~engine:(fun () -> engine_exact ~semantics:Eval.Engine.Noninflationary parsed)
           (unsliced_noninflationary ~full:false
              (Lang.Compile.noninflationary_kernel_ctable program full)
              event))

(* Fixed cases: each is answered by the engine under both semantics and
   compared with the unsliced references. *)
let both_semantics ~name ?(expect = fun _ -> ()) src =
  let parsed = Lang.Parser.parse src in
  let event = Option.get parsed.Lang.Parser.event in
  let program = parsed.Lang.Parser.program in
  let ctable = Lang.Parser.ctable_of parsed in
  let inflationary =
    match ctable with
    | Some ct -> by_enumeration program event ct
    | None ->
      unsliced_inflationary program (Lang.Parser.database_of_facts parsed.Lang.Parser.facts) event
  in
  let q_t = Alcotest.testable Q.pp Q.equal in
  Alcotest.check q_t (name ^ ": inflationary")
    inflationary (engine_exact ~semantics:Eval.Engine.Inflationary parsed);
  let kernel = Eval.Engine.noninflationary_kernel parsed in
  (match unsliced_noninflationary ~full:(Option.is_none ctable) kernel event with
   | None -> Alcotest.fail "reference chain too large"
   | Some (lumped, full) ->
     Alcotest.check q_t (name ^ ": lumped = full chain") lumped full;
     Alcotest.check q_t (name ^ ": non-inflationary") lumped
       (engine_exact ~semantics:Eval.Engine.Noninflationary parsed));
  expect (inflationary, Lang.Slice.slice ~roots:[ event.Lang.Event.relation ] parsed)

let cone_of (s : Lang.Slice.t) = s.Lang.Slice.cone
let strings = Alcotest.(list string)

let test_slice_underived_event () =
  both_semantics ~name:"edb event"
    ~expect:(fun (p, s) ->
      Alcotest.(check bool) "holds" true (Q.equal p Q.one);
      Alcotest.check strings "cone" [ "e" ] (cone_of s);
      Alcotest.check strings "dropped" [ "R"; "Z" ] s.Lang.Slice.dropped;
      Alcotest.(check int) "no rule left" 0 (List.length s.Lang.Slice.parsed.Lang.Parser.program))
    "e(a, b).\ne(b, c).\nR(X) :- e(X, Y).\n?Z(<X>, Y) :- e(X, Y).\n?- e(a, b)."

let test_slice_missing_relation () =
  both_semantics ~name:"missing relation"
    ~expect:(fun (p, s) ->
      Alcotest.(check bool) "never holds" true (Q.equal p Q.zero);
      Alcotest.check strings "cone" [] (cone_of s);
      Alcotest.(check string) "describe" "0 of 3" (Lang.Slice.describe s);
      Alcotest.(check int) "no fact left" 0 (List.length s.Lang.Slice.parsed.Lang.Parser.facts))
    "e(a, b).\nR(X) :- e(X, Y).\n?Z(<X>, Y) :- e(X, Y).\n?- Ghost(a)."

(* [T] enters the cone only through the negated atom of [D]'s rule; with
   [T] dropped [D(b)] would hold with probability 1. *)
let test_slice_negation () =
  both_semantics ~name:"negation"
    ~expect:(fun (p, s) ->
      Alcotest.(check bool) "T matters" true (Q.compare p Q.one < 0);
      Alcotest.check strings "cone" [ "D"; "P"; "R"; "T"; "e"; "s" ] (cone_of s);
      Alcotest.check strings "dropped" [ "Z"; "z" ] s.Lang.Slice.dropped)
    "s(a).\ne(a, b).\ne(a, c).\nz(a).\nR(X) :- s(X).\nR(Y) :- R(X), e(X, Y).\n\
     ?P(<X>, Y) :- s(X), e(X, Y).\nT(Y) :- P(X, Y).\nD(X) :- R(X), !T(X).\n\
     ?Z(<X>, Y) :- z(X), e(X, Y).\n?- D(b)."

(* [x] guards rows of both [a] (in the cone) and [b] (outside it); [y] only
   guards [b]'s, and [w] only an [a] row, through [!=].  The slice keeps
   [x] and [w] and drops [y]. *)
let test_slice_shared_variable () =
  both_semantics ~name:"shared variable"
    ~expect:(fun (p, s) ->
      Alcotest.(check bool) "1/2" true (Q.equal p Q.half);
      Alcotest.check strings "variables" [ "x"; "w" ]
        (List.map (fun v -> v.Ctable.vname) s.Lang.Slice.parsed.Lang.Parser.vars);
      Alcotest.(check int) "a's rows" 2 (List.length s.Lang.Slice.parsed.Lang.Parser.cond_facts))
    "var x = { true: 1/2, false: 1/2 }.\nvar y = { true: 1/3, false: 2/3 }.\n\
     var w = { true: 1/4, false: 3/4 }.\n\
     a(u) when x = true.\na(v) when w != true.\nb(u) when x = true.\nb(v) when y = true.\n\
     A(X) :- a(X).\n?- A(u)."

(* Lazy-cycle walkers ([Workload.Graphs.cycle]) with the event on walker 1. *)
let walkers sizes ~event =
  let b = Buffer.create 512 in
  List.iteri
    (fun i k ->
      let w = i + 1 in
      Buffer.add_string b (Printf.sprintf "?C%d(Y) @W :- C%d(X), e%d(X, Y, W).\nC%d(n0).\n" w w w w);
      List.iter
        (fun { Workload.Graphs.src; dst; weight } ->
          Buffer.add_string b
            (Printf.sprintf "e%d(%s, %s, %d).\n" w (Workload.Graphs.node_name src)
               (Workload.Graphs.node_name dst) weight))
        (Workload.Graphs.cycle k))
    sizes;
  Buffer.add_string b (Printf.sprintf "?- %s." event);
  Lang.Parser.parse (Buffer.contents b)

let test_slice_hitting_product () =
  let hitting parsed =
    let kernel, init = Eval.Engine.noninflationary_kernel parsed in
    let event = Option.get parsed.Lang.Parser.event in
    Option.get (Eval.Exact_noninflationary.expected_hitting_time (Lang.Forever.make ~kernel ~event) init)
  in
  let product = walkers [ 4; 3; 3 ] ~event:"C1(n2)" in
  let single = walkers [ 4 ] ~event:"C1(n2)" in
  let sliced = (Lang.Slice.slice ~roots:[ "C1" ] product).Lang.Slice.parsed in
  let q_t = Alcotest.testable Q.pp Q.equal in
  Alcotest.check q_t "single walker" (Q.of_int 4) (hitting single);
  Alcotest.check q_t "unsliced product" (hitting single) (hitting product);
  Alcotest.check q_t "sliced product" (hitting single) (hitting sliced)

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
            prop_engine_matches_direct;
            prop_lineage_matches_worlds;
            prop_slice_certain;
            prop_slice_pctable
          ] );
      ( "cone slicing",
        [ Alcotest.test_case "event on an underived relation" `Quick test_slice_underived_event;
          Alcotest.test_case "event on a missing relation" `Quick test_slice_missing_relation;
          Alcotest.test_case "negated atom joins the cone" `Quick test_slice_negation;
          Alcotest.test_case "variable shared across the cone" `Quick test_slice_shared_variable;
          Alcotest.test_case "hitting time on a product" `Quick test_slice_hitting_product
        ] );
      ( "pc-tables",
        [ Alcotest.test_case "non-hierarchical 3x3 grid: lineage = counted valuations" `Quick
            test_non_hierarchical_grid
        ] )
    ]
