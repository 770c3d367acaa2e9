(* Tests for the probabilistic substrate: Dist, Ctable, Repair_key,
   Palgebra, Interp. *)

open Relational
open Prob
module Q = Bigq.Q

let v_int n = Value.Int n
let v_str s = Value.Str s
let rel cols rows = Relation.make cols (List.map Tuple.of_list rows)

let q_t = Alcotest.testable Q.pp Q.equal
let relation_t = Alcotest.testable Relation.pp Relation.equal

(* --- Dist ------------------------------------------------------------- *)

let test_dist_merge () =
  let d = Dist.make ~compare:Int.compare [ (1, Q.of_ints 1 4); (2, Q.half); (1, Q.of_ints 1 4) ] in
  Alcotest.(check int) "two outcomes" 2 (Dist.size d);
  Alcotest.check q_t "1 has mass 1/2" Q.half (Dist.prob_of ~compare:Int.compare 1 d)

let test_dist_invalid () =
  (try
     ignore (Dist.make ~compare:Int.compare [ (1, Q.half) ]);
     Alcotest.fail "expected Invalid_distribution"
   with Dist.Invalid_distribution _ -> ());
  try
    ignore (Dist.make ~compare:Int.compare [ (1, Q.of_ints (-1) 2); (2, Q.of_ints 3 2) ]);
    Alcotest.fail "expected Invalid_distribution"
  with Dist.Invalid_distribution _ -> ()

let test_dist_unnormalised () =
  let d = Dist.make_unnormalised ~compare:Int.compare [ (1, Q.of_int 17); (2, Q.of_int 3) ] in
  Alcotest.check q_t "17/20" (Q.of_ints 17 20) (Dist.prob_of ~compare:Int.compare 1 d)

let test_dist_bind () =
  (* Two coin flips: probability both heads is 1/4. *)
  let coin = Dist.uniform ~compare:Bool.compare [ true; false ] in
  let both =
    Dist.bind ~compare:Int.compare coin (fun a ->
        Dist.map ~compare:Int.compare (fun b -> if a && b then 1 else 0) coin)
  in
  Alcotest.check q_t "1/4" (Q.of_ints 1 4) (Dist.prob_of ~compare:Int.compare 1 both)

let test_dist_sequence () =
  let coin = Dist.uniform ~compare:Int.compare [ 0; 1 ] in
  let seq = Dist.sequence ~compare:(List.compare Int.compare) [ coin; coin; coin ] in
  Alcotest.(check int) "8 outcomes" 8 (Dist.size seq);
  Alcotest.check q_t "each 1/8" (Q.of_ints 1 8)
    (Dist.prob_of ~compare:(List.compare Int.compare) [ 1; 0; 1 ] seq)

let test_dist_expectation () =
  let die = Dist.uniform ~compare:Int.compare [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.check q_t "E[die] = 7/2" (Q.of_ints 7 2) (Dist.expectation (fun n -> Q.of_int n) die)

let test_dist_total_variation () =
  let a = Dist.make ~compare:Int.compare [ (1, Q.half); (2, Q.half) ] in
  let b = Dist.make ~compare:Int.compare [ (2, Q.half); (3, Q.half) ] in
  Alcotest.check q_t "tv disjoint half" Q.half (Dist.total_variation ~compare:Int.compare a b);
  Alcotest.check q_t "tv self 0" Q.zero (Dist.total_variation ~compare:Int.compare a a)

let test_dist_sample_frequencies () =
  let d = Dist.make ~compare:Int.compare [ (0, Q.of_ints 1 4); (1, Q.of_ints 3 4) ] in
  let rng = Random.State.make [| 42 |] in
  let n = 20_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if Dist.sample rng d = 1 then incr ones
  done;
  let f = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "frequency close to 3/4" true (abs_float (f -. 0.75) < 0.02)

(* --- Repair_key (Example 2.2, Table 2) -------------------------------- *)

let basketball =
  rel [ "Player"; "Team"; "Belief" ]
    [ [ v_str "Bryant"; v_str "LALakers"; v_int 17 ];
      [ v_str "Bryant"; v_str "NYKnicks"; v_int 3 ];
      [ v_str "Iverson"; v_str "Sixers"; v_int 8 ];
      [ v_str "Iverson"; v_str "Grizzlies"; v_int 7 ]
    ]

let test_repair_key_basketball () =
  let worlds = Repair_key.repair ~key:[ "Player" ] ~weight:"Belief" basketball in
  Alcotest.(check int) "4 possible worlds" 4 (Dist.size worlds);
  let bryant_lakers r =
    Relation.mem (Tuple.of_list [ v_str "Bryant"; v_str "LALakers"; v_int 17 ]) r
  in
  Alcotest.check q_t "Pr[Bryant->Lakers] = 17/20" (Q.of_ints 17 20) (Dist.prob bryant_lakers worlds);
  let world r = bryant_lakers r && Relation.mem (Tuple.of_list [ v_str "Iverson"; v_str "Sixers"; v_int 8 ]) r in
  Alcotest.check q_t "product world = 17/20 * 8/15" (Q.mul (Q.of_ints 17 20) (Q.of_ints 8 15))
    (Dist.prob world worlds)

let test_repair_key_uniform () =
  let r = rel [ "A"; "B" ] [ [ v_int 1; v_int 10 ]; [ v_int 1; v_int 20 ]; [ v_int 2; v_int 30 ] ] in
  let worlds = Repair_key.repair ~key:[ "A" ] r in
  Alcotest.(check int) "2 worlds" 2 (Dist.size worlds);
  List.iter (fun (_, p) -> Alcotest.check q_t "uniform halves" Q.half p) (Dist.support worlds)

let test_repair_key_empty_key () =
  (* repair-key over the empty key picks one tuple out of the relation. *)
  let r = rel [ "A"; "P" ] [ [ v_int 1; v_int 1 ]; [ v_int 2; v_int 3 ] ] in
  let worlds = Repair_key.repair ~key:[] ~weight:"P" r in
  Alcotest.(check int) "2 singleton worlds" 2 (Dist.size worlds);
  let has_two r = Relation.mem (Tuple.of_list [ v_int 2; v_int 3 ]) r in
  Alcotest.check q_t "weighted 3/4" (Q.of_ints 3 4) (Dist.prob has_two worlds)

let test_repair_key_empty_relation () =
  let worlds = Repair_key.repair ~key:[ "A" ] (Relation.empty [ "A" ]) in
  Alcotest.(check int) "one empty world" 1 (Dist.size worlds)

let test_repair_key_bad_weight () =
  let r = rel [ "A"; "P" ] [ [ v_int 1; v_int 0 ] ] in
  try
    ignore (Repair_key.repair ~key:[] ~weight:"P" r);
    Alcotest.fail "expected Repair_error"
  with Repair_key.Repair_error _ -> ()

let test_repair_key_fd_collapse () =
  (* Footnote 1: duplicated non-weight projections merge, weights add. *)
  let r =
    rel [ "A"; "P" ]
      [ [ v_int 1; v_int 1 ]; [ v_int 1; v_int 2 ]; [ v_int 2; v_int 3 ] ]
  in
  let worlds = Repair_key.repair ~key:[] ~weight:"P" r in
  Alcotest.(check int) "2 worlds after collapse" 2 (Dist.size worlds);
  let has_one (r : Relation.t) =
    Relation.exists (fun t -> Value.equal t.(0) (v_int 1)) r
  in
  Alcotest.check q_t "collapsed weight 3/6" Q.half (Dist.prob has_one worlds)

let test_num_repairs () =
  Alcotest.(check int) "4 repairs" 4 (Repair_key.num_repairs ~key:[ "Player" ] basketball)

let test_repair_sample_agrees () =
  let rng = Random.State.make [| 7 |] in
  let n = 20_000 in
  let count = ref 0 in
  for _ = 1 to n do
    let w = Repair_key.sample rng ~key:[ "Player" ] ~weight:"Belief" basketball in
    if Relation.mem (Tuple.of_list [ v_str "Bryant"; v_str "LALakers"; v_int 17 ]) w then incr count
  done;
  let f = float_of_int !count /. float_of_int n in
  Alcotest.(check bool) "sampling matches 17/20" true (abs_float (f -. 0.85) < 0.02)

(* --- Ctable ----------------------------------------------------------- *)

let xy_ctable =
  (* Two independent fair boolean variables guarding two tuples. *)
  Ctable.make
    ~vars:[ Ctable.flag ~p:Q.half "x"; Ctable.flag ~p:(Q.of_ints 1 4) "y" ]
    ~tables:
      [ ( "R",
          [ "A" ],
          [ { Ctable.tuple = Tuple.of_list [ v_int 1 ];
              cond = Ctable.CEq (Ctable.TVar "x", Ctable.TLit (Value.Bool true)) };
            { Ctable.tuple = Tuple.of_list [ v_int 2 ];
              cond = Ctable.CAnd
                  ( Ctable.CEq (Ctable.TVar "x", Ctable.TLit (Value.Bool true)),
                    Ctable.CEq (Ctable.TVar "y", Ctable.TLit (Value.Bool true)) ) }
          ] )
      ]

let test_ctable_worlds () =
  let worlds = Ctable.worlds xy_ctable in
  (* Worlds: {} (x=false, p 1/2), {1} (x,!y, 3/8), {1,2} (x,y, 1/8). *)
  Alcotest.(check int) "3 distinct worlds" 3 (Dist.size worlds);
  let has n db = Relation.mem (Tuple.of_list [ v_int n ]) (Database.find "R" db) in
  Alcotest.check q_t "Pr[1 in R] = 1/2" Q.half (Dist.prob (has 1) worlds);
  Alcotest.check q_t "Pr[2 in R] = 1/8" (Q.of_ints 1 8) (Dist.prob (has 2) worlds)

let test_ctable_num_worlds () = Alcotest.(check int) "4 valuations" 4 (Ctable.num_worlds xy_ctable)

let test_ctable_num_worlds_saturates () =
  let flags n = Ctable.make ~vars:(List.init n (fun i -> Ctable.flag ~p:Q.half (Printf.sprintf "x%d" i))) ~tables:[] in
  Alcotest.(check int) "2^61 fits" (1 lsl 61) (Ctable.num_worlds (flags 61));
  Alcotest.(check int) "62 flags saturate" max_int (Ctable.num_worlds (flags 62));
  Alcotest.(check int) "64 flags saturate" max_int (Ctable.num_worlds (flags 64));
  Alcotest.(check string) "64 flags counted exactly" "18446744073709551616"
    (Bigq.Bigint.to_string (Ctable.count_worlds (flags 64)))

let test_ctable_validation () =
  (try
     ignore (Ctable.make ~vars:[ Ctable.flag ~p:Q.half "x"; Ctable.flag ~p:Q.half "x" ] ~tables:[]);
     Alcotest.fail "expected duplicate var error"
   with Ctable.Ctable_error _ -> ());
  try
    ignore
      (Ctable.make ~vars:[]
         ~tables:
           [ ("R", [ "A" ],
              [ { Ctable.tuple = Tuple.of_list [ v_int 1 ];
                  cond = Ctable.CEq (Ctable.TVar "ghost", Ctable.TLit (Value.Bool true)) } ]) ]);
    Alcotest.fail "expected undeclared var error"
  with Ctable.Ctable_error _ -> ()

let test_ctable_repeated_value () =
  (* Sums to 1, but lists [a] twice: a valuation could not pick one weight. *)
  let x =
    { Ctable.vname = "x";
      domain = [ (v_str "a", Q.half); (v_str "a", Q.of_ints 1 4); (v_str "b", Q.of_ints 1 4) ] }
  in
  match Ctable.make ~vars:[ x ] ~tables:[] with
  | _ -> Alcotest.fail "expected repeated value error"
  | exception Ctable.Ctable_error m ->
    Alcotest.(check string) "message" "distribution of x lists a value twice" m

let test_ctable_sample_valuation () =
  let rng = Random.State.make [| 3 |] in
  let n = 10_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    let theta = Ctable.sample_valuation rng xy_ctable in
    if Ctable.eval_cond theta (Ctable.CEq (Ctable.TVar "y", Ctable.TLit (Value.Bool true))) then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "y true freq near 1/4" true (abs_float (f -. 0.25) < 0.02)

(* The compiled drawer against [Dist.sample] on twin streams: a value of
   weight zero, a three-valued integer domain and a one-valued domain. *)
let test_ctable_draw_matches_dist () =
  let vars =
    [ { Ctable.vname = "z";
        domain = [ (v_str "a", Q.half); (v_str "b", Q.zero); (v_str "c", Q.half) ] };
      { Ctable.vname = "w";
        domain = [ (v_int 3, Q.of_ints 1 6); (v_int 1, Q.half); (v_int 2, Q.of_ints 1 3) ] };
      { Ctable.vname = "o"; domain = [ (Value.Bool true, Q.one) ] };
      Ctable.flag ~p:(Q.of_ints 1 3) "f"
    ]
  in
  let ct = Ctable.make ~vars ~tables:[] in
  let compiled = Ctable.compile ct in
  let dists = List.map (fun v -> Dist.make ~compare:Value.compare v.Ctable.domain) vars in
  let cond =
    Ctable.COr
      ( Ctable.CAnd
          ( Ctable.CEq (Ctable.TVar "z", Ctable.TLit (v_str "c")),
            Ctable.CNeq (Ctable.TVar "w", Ctable.TLit (v_int 2)) ),
        Ctable.CNot (Ctable.CEq (Ctable.TVar "f", Ctable.TVar "o")) )
  in
  let holds = Ctable.compile_cond compiled cond in
  let a = Random.State.make [| 11 |] and b = Random.State.make [| 11 |] in
  for i = 1 to 10_000 do
    let theta = Ctable.draw a compiled in
    let expected = List.map (fun d -> Dist.sample b d) dists in
    if not (List.equal Value.equal (Array.to_list theta) expected) then
      Alcotest.failf "draw %d differs from Dist.sample" i;
    if Value.equal theta.(0) (v_str "b") then Alcotest.fail "drew a zero-weight value";
    let named = List.map2 (fun v x -> (v.Ctable.vname, x)) vars expected in
    if holds theta <> Ctable.eval_cond named cond then Alcotest.failf "condition differs at %d" i
  done

let test_ctable_certain () =
  let db = Database.of_list [ ("R", rel [ "A" ] [ [ v_int 1 ] ]) ] in
  let worlds = Ctable.worlds (Ctable.certain db) in
  Alcotest.(check int) "single world" 1 (Dist.size worlds);
  match Dist.is_point worlds with
  | Some w -> Alcotest.(check bool) "same db" true (Database.equal db w)
  | None -> Alcotest.fail "not a point mass"

(* --- Palgebra + Interp (Example 3.3 one step) -------------------------- *)

let graph_db =
  Database.of_list
    [ ("C", rel [ "I" ] [ [ v_str "a" ] ]);
      ("E",
       rel [ "I"; "J"; "P" ]
         [ [ v_str "a"; v_str "b"; v_int 1 ];
           [ v_str "a"; v_str "c"; v_int 3 ];
           [ v_str "b"; v_str "a"; v_int 1 ];
           [ v_str "c"; v_str "a"; v_int 1 ]
         ])
    ]

(* C := ρ_I(π_J(repair-key_I@P(C ⋈ E))) — the paper's random-walk kernel. *)
let walk_c_query =
  Palgebra.Rename
    ( [ ("J", "I") ],
      Palgebra.Project
        ([ "J" ],
         Palgebra.repair_key ~weight:"P" [ "I" ] (Palgebra.Join (Palgebra.Rel "C", Palgebra.Rel "E"))) )

let test_palgebra_walk_step () =
  let d = Palgebra.eval walk_c_query graph_db in
  Alcotest.(check int) "two successor worlds" 2 (Dist.size d);
  let at n = Relation.mem (Tuple.of_list [ v_str n ]) in
  Alcotest.check q_t "to b with 1/4" (Q.of_ints 1 4) (Dist.prob (at "b") d);
  Alcotest.check q_t "to c with 3/4" (Q.of_ints 3 4) (Dist.prob (at "c") d)

let test_palgebra_deterministic_fastpath () =
  let q = Palgebra.Join (Palgebra.Rel "C", Palgebra.Rel "E") in
  Alcotest.(check bool) "deterministic" true (Palgebra.is_deterministic q);
  let d = Palgebra.eval q graph_db in
  Alcotest.(check int) "point mass" 1 (Dist.size d)

let test_palgebra_sample_agrees () =
  let rng = Random.State.make [| 11 |] in
  let n = 20_000 in
  let to_c = ref 0 in
  for _ = 1 to n do
    let r = Palgebra.eval_sampled rng walk_c_query graph_db in
    if Relation.mem (Tuple.of_list [ v_str "c" ]) r then incr to_c
  done;
  let f = float_of_int !to_c /. float_of_int n in
  Alcotest.(check bool) "sampled 3/4" true (abs_float (f -. 0.75) < 0.02)

let walk_interp = Interp.make [ ("C", walk_c_query); Interp.unchanged "E" ]

let test_interp_apply () =
  let d = Interp.apply walk_interp graph_db in
  Alcotest.(check int) "two next states" 2 (Dist.size d);
  List.iter
    (fun (db', _) ->
      Alcotest.check relation_t "E unchanged" (Database.find "E" graph_db) (Database.find "E" db'))
    (Dist.support d)

let test_interp_duplicate () =
  try
    ignore (Interp.make [ ("C", Palgebra.Rel "C"); ("C", Palgebra.Rel "C") ]);
    Alcotest.fail "expected Interp_error"
  with Interp.Interp_error _ -> ()

let test_interp_parallel_semantics () =
  (* Swap two relations in one step: both right-hand sides must read the old
     state ("all rules fire in parallel"). *)
  let a = rel [ "X" ] [ [ v_int 1 ] ] and b = rel [ "X" ] [ [ v_int 2 ] ] in
  let db = Database.of_list [ ("A", a); ("B", b) ] in
  let swap = Interp.make [ ("A", Palgebra.Rel "B"); ("B", Palgebra.Rel "A") ] in
  match Dist.is_point (Interp.apply swap db) with
  | Some db' ->
    Alcotest.check relation_t "A got old B" b (Database.find "A" db');
    Alcotest.check relation_t "B got old A" a (Database.find "B" db')
  | None -> Alcotest.fail "swap should be deterministic"

let test_palgebra_aggregate_over_repair () =
  (* Every world of the basketball repair has exactly 2 tuples, so the
     count aggregate of the repaired relation is deterministic. *)
  let q =
    Palgebra.Aggregate
      { group_by = [];
        agg = Relational.Algebra.Count;
        src = None;
        out = "N";
        arg = Palgebra.Repair_key { key = [ "Player" ]; weight = Some "Belief"; arg = Palgebra.Rel "B" }
      }
  in
  let db = Database.of_list [ ("B", basketball) ] in
  let d = Palgebra.eval q db in
  Alcotest.(check int) "count collapses worlds" 1 (Dist.size d);
  match Dist.is_point d with
  | Some r -> Alcotest.check relation_t "count 2" (rel [ "N" ] [ [ v_int 2 ] ]) r
  | None -> Alcotest.fail "expected point mass"

(* --- compiled probabilistic plans (Pplan) ------------------------------- *)

let test_palgebra_schema_of_project_checked () =
  (* Regression: schema_of on Project used to ignore the child schema, so a
     projection onto unknown columns typechecked and only blew up in eval.
     It must raise exactly where eval would. *)
  (try
     ignore (Palgebra.schema_of (Palgebra.Project ([ "ghost" ], Palgebra.Rel "E")) graph_db);
     Alcotest.fail "expected Schema_error from schema_of"
   with Relation.Schema_error _ -> ());
  (try
     ignore (Palgebra.schema_of (Palgebra.Project ([ "J"; "J" ], Palgebra.Rel "E")) graph_db);
     Alcotest.fail "expected Schema_error on duplicate column"
   with Relation.Schema_error _ -> ());
  Alcotest.(check (list string)) "valid project schema" [ "J" ]
    (Palgebra.schema_of (Palgebra.Project ([ "J" ], Palgebra.Rel "E")) graph_db)

let schema_of_db the_db name = Relation.columns (Database.find name the_db)

let same_dist equal da db =
  List.equal (fun (a, p) (b, q) -> equal a b && Q.equal p q) (Dist.support da) (Dist.support db)

let test_pplan_eval_matches () =
  let bdb = Database.of_list [ ("B", basketball) ] in
  let cases =
    [ (walk_c_query, graph_db);
      (Palgebra.Join (Palgebra.Rel "C", Palgebra.Rel "E"), graph_db);
      (Palgebra.Repair_key { key = [ "Player" ]; weight = Some "Belief"; arg = Palgebra.Rel "B" }, bdb);
      (Palgebra.Aggregate
         { group_by = [];
           agg = Relational.Algebra.Count;
           src = None;
           out = "N";
           arg = Palgebra.Repair_key { key = [ "Player" ]; weight = Some "Belief"; arg = Palgebra.Rel "B" }
         },
       bdb)
    ]
  in
  List.iter
    (fun (q, the_db) ->
      let p = Pplan.compile ~schema_of:(schema_of_db the_db) q in
      Alcotest.(check bool) "same exact distribution" true
        (same_dist Relation.equal (Palgebra.eval q the_db) (Pplan.eval p the_db));
      Alcotest.(check (list string)) "schema" (Palgebra.schema_of q the_db) (Pplan.schema p))
    cases

let test_pplan_compile_time_errors () =
  let expect label q =
    try
      ignore (Pplan.compile ~schema_of:(schema_of_db graph_db) q);
      Alcotest.fail (label ^ ": expected Schema_error at compile time")
    with Relation.Schema_error _ -> ()
  in
  expect "project unknown" (Palgebra.Project ([ "ghost" ], Palgebra.Rel "E"));
  expect "repair-key unknown key"
    (Palgebra.Repair_key { key = [ "ghost" ]; weight = None; arg = Palgebra.Rel "E" });
  expect "repair-key unknown weight"
    (Palgebra.Repair_key { key = [ "I" ]; weight = Some "ghost"; arg = Palgebra.Rel "E" })

let test_pplan_sample_bit_identical () =
  let p = Pplan.compile ~schema_of:(schema_of_db graph_db) walk_c_query in
  for seed = 0 to 49 do
    let r1 = Random.State.make [| seed |] and r2 = Random.State.make [| seed |] in
    Alcotest.check relation_t "same fixed-seed draw"
      (Palgebra.eval_sampled r1 walk_c_query graph_db)
      (Pplan.sample r2 p graph_db);
    (* Both paths must consume the RNG stream identically, not just return
       equal worlds: the next raw draw from each state agrees. *)
    Alcotest.(check int) "same stream position" (Random.State.int r1 1_000_000)
      (Random.State.int r2 1_000_000)
  done

let test_pplan_interp_matches () =
  let ip = Pplan.compile_interp ~schema_of:(schema_of_db graph_db) walk_interp in
  Alcotest.(check bool) "apply: same db distribution" true
    (same_dist Database.equal (Interp.apply walk_interp graph_db) (Pplan.apply ip graph_db));
  for seed = 0 to 19 do
    let r1 = Random.State.make [| seed |] and r2 = Random.State.make [| seed |] in
    Alcotest.(check bool) "apply_sampled: same fixed-seed db" true
      (Database.equal
         (Interp.apply_sampled r1 walk_interp graph_db)
         (Pplan.apply_sampled r2 ip graph_db))
  done

let test_repair_at_agrees () =
  (* Positional repair (plan path) and name-based repair produce the same
     world distribution and, per seed, the same sampled world from the same
     number of draws. *)
  let ki = [| 0 |] (* Player *) and wi = 2 (* Belief *) in
  Alcotest.(check bool) "repair_at = repair" true
    (same_dist Relation.equal
       (Repair_key.repair ~key:[ "Player" ] ~weight:"Belief" basketball)
       (Repair_key.repair_at ~key:ki ~weight:wi basketball));
  for seed = 0 to 49 do
    let r1 = Random.State.make [| seed |] and r2 = Random.State.make [| seed |] in
    Alcotest.check relation_t "draw_at = sample"
      (Repair_key.sample r1 ~key:[ "Player" ] ~weight:"Belief" basketball)
      (Repair_key.draw_at (Dist.sample r2) ~key:ki ~weight:wi basketball);
    Alcotest.(check int) "same stream position" (Random.State.int r1 1_000_000)
      (Random.State.int r2 1_000_000)
  done

(* --- Confidence (possible/certain/tuple marginals) ---------------------- *)

let basketball_worlds = Repair_key.repair ~key:[ "Player" ] ~weight:"Belief" basketball

let test_confidence_possible_certain () =
  let poss = Confidence.possible basketball_worlds in
  Alcotest.(check int) "possible = all 4 tuples" 4 (Relation.cardinal poss);
  let cert = Confidence.certain basketball_worlds in
  Alcotest.(check int) "nothing certain" 0 (Relation.cardinal cert);
  (* Point mass: possible = certain = the relation. *)
  let point = Dist.return (rel [ "A" ] [ [ v_int 1 ] ]) in
  Alcotest.check relation_t "point possible" (rel [ "A" ] [ [ v_int 1 ] ]) (Confidence.possible point);
  Alcotest.check relation_t "point certain" (rel [ "A" ] [ [ v_int 1 ] ]) (Confidence.certain point)

let test_confidence_tuple_marginals () =
  let conf = Confidence.tuple_confidence basketball_worlds in
  Alcotest.(check int) "4 possible tuples" 4 (List.length conf);
  let find player team =
    List.assoc (Tuple.of_list [ v_str player; v_str team; v_int (if team = "LALakers" then 17 else if team = "NYKnicks" then 3 else if team = "Sixers" then 8 else 7) ])
      conf
  in
  Alcotest.check q_t "Bryant Lakers 17/20" (Q.of_ints 17 20) (find "Bryant" "LALakers");
  Alcotest.check q_t "Iverson Grizzlies 7/15" (Q.of_ints 7 15) (find "Iverson" "Grizzlies");
  (* Marginals per key group sum to 1. *)
  Alcotest.check q_t "sum over all = 2 groups" (Q.of_int 2) (Q.sum (List.map snd conf))

let test_confidence_expected_cardinality () =
  Alcotest.check q_t "always exactly 2 tuples" (Q.of_int 2)
    (Confidence.expected_cardinality basketball_worlds)

let test_confidence_relation_marginal () =
  let d = Interp.apply walk_interp graph_db in
  let c_marginal = Confidence.relation_marginal "C" d in
  Alcotest.(check int) "two C values" 2 (Dist.size c_marginal);
  let e_marginal = Confidence.relation_marginal "E" d in
  Alcotest.(check int) "E constant" 1 (Dist.size e_marginal)

(* --- Dist property tests ---------------------------------------------- *)

let arb_weights =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(list_size (int_range 1 6) (int_range 1 20))

(* --- Decision diagrams ------------------------------------------------- *)

let mdd_vars =
  [ Ctable.flag ~p:(Q.of_ints 1 3) "x";
    Ctable.flag ~p:Q.half "y";
    { Ctable.vname = "c";
      domain = [ (v_int 1, Q.half); (v_int 2, Q.of_ints 1 3); (v_int 3, Q.of_ints 1 6) ] }
  ]

let mdd_ctable = Ctable.make ~vars:mdd_vars ~tables:[]

(* Random conditions over two flags and one 3-valued variable, using every
   constructor: literal and variable-variable (in)equalities, not, or,
   and. *)
let gen_cond =
  let open QCheck.Gen in
  let term =
    oneof
      [ oneofl [ Ctable.TVar "x"; Ctable.TVar "y"; Ctable.TVar "c" ];
        map (fun b -> Ctable.TLit (Value.Bool b)) bool;
        map (fun k -> Ctable.TLit (v_int k)) (int_range 1 4)
      ]
  in
  let atom =
    oneof
      [ map2 (fun a b -> Ctable.CEq (a, b)) term term;
        map2 (fun a b -> Ctable.CNeq (a, b)) term term;
        return Ctable.CTrue
      ]
  in
  sized_size (int_bound 6)
  @@ fix (fun self n ->
         if n = 0 then atom
         else
           frequency
             [ (1, atom);
               (2, map2 (fun a b -> Ctable.CAnd (a, b)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun a b -> Ctable.COr (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map (fun a -> Ctable.CNot a) (self (n - 1)))
             ])

let arb_cond = QCheck.make gen_cond

let by_enumeration cond =
  Seq.fold_left
    (fun acc theta ->
      if Ctable.eval_cond theta cond then Q.add acc (Ctable.valuation_prob mdd_ctable theta) else acc)
    Q.zero (Ctable.valuations mdd_ctable)

let prop_mdd_prob =
  QCheck.Test.make ~name:"mdd: prob (of_cond c) = enumerated probability" ~count:300 arb_cond
    (fun cond ->
      let m = Mdd.create mdd_vars in
      Q.equal (Mdd.prob m (Mdd.of_cond m cond)) (by_enumeration cond))

let prop_mdd_canonical =
  QCheck.Test.make ~name:"mdd: equal functions share one node" ~count:300
    (QCheck.pair arb_cond arb_cond)
    (fun (a, b) ->
      let m = Mdd.create mdd_vars in
      let da = Mdd.of_cond m a and db = Mdd.of_cond m b in
      Mdd.equal (Mdd.of_cond m (Ctable.CNot (Ctable.CNot a))) da
      && Mdd.equal (Mdd.disj m da db) (Mdd.neg m (Mdd.conj m (Mdd.neg m da) (Mdd.neg m db)))
      && Mdd.equal (Mdd.conj m da db) (Mdd.conj m db da))

let test_mdd_line_size () =
  (* The lineage of an uncertain line is a conjunction of n literals: one
     node per variable plus the two leaves, and 2^-n. *)
  let n = 64 in
  let vars = List.init n (fun i -> Ctable.flag ~p:Q.half (Printf.sprintf "x%d" i)) in
  let created = ref 0 in
  let m = Mdd.create ~on_node:(fun () -> incr created) vars in
  let d =
    List.fold_left
      (fun acc v -> Mdd.conj m acc (Mdd.of_cond m (Ctable.CEq (Ctable.TVar v.Ctable.vname, Ctable.TLit (Value.Bool true)))))
      Mdd.top vars
  in
  Alcotest.(check int) "n + 2 nodes" (n + 2) (Mdd.size m d);
  Alcotest.(check int) "creation hook counts inner nodes" (Mdd.nodes_created m) !created;
  Alcotest.check q_t "2^-64" (Q.pow Q.half n) (Mdd.prob m d);
  Alcotest.(check int) "x = y over two flags: three tests, two leaves" 5
    (Mdd.size m (Mdd.of_cond m (Ctable.CEq (Ctable.TVar "x0", Ctable.TVar "x1"))))

let test_mdd_unknown_variable () =
  let m = Mdd.create mdd_vars in
  match Mdd.of_cond m (Ctable.CEq (Ctable.TVar "z", Ctable.TLit (Value.Bool true))) with
  | _ -> Alcotest.fail "expected Ctable_error"
  | exception Ctable.Ctable_error _ -> ()

let prop_unnormalised_sums_to_one =
  QCheck.Test.make ~name:"make_unnormalised sums to 1" ~count:200 arb_weights (fun ws ->
      let d = Dist.make_unnormalised ~compare:Int.compare (List.mapi (fun i w -> (i, Q.of_int w)) ws) in
      Q.is_one (Q.sum (List.map snd (Dist.support d))))

let prop_bind_preserves_mass =
  QCheck.Test.make ~name:"bind preserves total mass" ~count:200 arb_weights (fun ws ->
      let d = Dist.make_unnormalised ~compare:Int.compare (List.mapi (fun i w -> (i, Q.of_int w)) ws) in
      let d' = Dist.bind ~compare:Int.compare d (fun n -> Dist.uniform ~compare:Int.compare [ n; n + 1 ]) in
      Q.is_one (Q.sum (List.map snd (Dist.support d'))))

let prop_tv_bounds =
  QCheck.Test.make ~name:"total variation in [0,1]" ~count:200 (QCheck.pair arb_weights arb_weights)
    (fun (ws1, ws2) ->
      let mk ws = Dist.make_unnormalised ~compare:Int.compare (List.mapi (fun i w -> (i, Q.of_int w)) ws) in
      let tv = Dist.total_variation ~compare:Int.compare (mk ws1) (mk ws2) in
      Q.sign tv >= 0 && Q.compare tv Q.one <= 0)

let () =
  let qsuite tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "prob"
    [ ( "dist",
        [ Alcotest.test_case "merge" `Quick test_dist_merge;
          Alcotest.test_case "invalid" `Quick test_dist_invalid;
          Alcotest.test_case "unnormalised" `Quick test_dist_unnormalised;
          Alcotest.test_case "bind" `Quick test_dist_bind;
          Alcotest.test_case "sequence" `Quick test_dist_sequence;
          Alcotest.test_case "expectation" `Quick test_dist_expectation;
          Alcotest.test_case "total variation" `Quick test_dist_total_variation;
          Alcotest.test_case "sample frequencies" `Slow test_dist_sample_frequencies
        ] );
      ( "repair-key",
        [ Alcotest.test_case "basketball (Table 2)" `Quick test_repair_key_basketball;
          Alcotest.test_case "uniform" `Quick test_repair_key_uniform;
          Alcotest.test_case "empty key" `Quick test_repair_key_empty_key;
          Alcotest.test_case "empty relation" `Quick test_repair_key_empty_relation;
          Alcotest.test_case "bad weight" `Quick test_repair_key_bad_weight;
          Alcotest.test_case "fd collapse" `Quick test_repair_key_fd_collapse;
          Alcotest.test_case "num_repairs" `Quick test_num_repairs;
          Alcotest.test_case "sample agrees" `Slow test_repair_sample_agrees
        ] );
      ( "ctable",
        [ Alcotest.test_case "worlds" `Quick test_ctable_worlds;
          Alcotest.test_case "num worlds" `Quick test_ctable_num_worlds;
          Alcotest.test_case "num worlds saturates, count is exact (64 flags)" `Quick
            test_ctable_num_worlds_saturates;
          Alcotest.test_case "validation" `Quick test_ctable_validation;
          Alcotest.test_case "repeated value" `Quick test_ctable_repeated_value;
          Alcotest.test_case "sample valuation" `Slow test_ctable_sample_valuation;
          Alcotest.test_case "compiled draw = Dist.sample" `Quick test_ctable_draw_matches_dist;
          Alcotest.test_case "certain" `Quick test_ctable_certain
        ] );
      ( "palgebra",
        [ Alcotest.test_case "walk step" `Quick test_palgebra_walk_step;
          Alcotest.test_case "deterministic fast path" `Quick test_palgebra_deterministic_fastpath;
          Alcotest.test_case "sampled agrees" `Slow test_palgebra_sample_agrees;
          Alcotest.test_case "aggregate over repair-key" `Quick test_palgebra_aggregate_over_repair
        ] );
      ( "interp",
        [ Alcotest.test_case "apply" `Quick test_interp_apply;
          Alcotest.test_case "duplicate name" `Quick test_interp_duplicate;
          Alcotest.test_case "parallel semantics" `Quick test_interp_parallel_semantics
        ] );
      ( "pplan",
        [ Alcotest.test_case "schema_of Project checked" `Quick test_palgebra_schema_of_project_checked;
          Alcotest.test_case "eval matches Palgebra" `Quick test_pplan_eval_matches;
          Alcotest.test_case "compile-time schema errors" `Quick test_pplan_compile_time_errors;
          Alcotest.test_case "sample bit-identical" `Quick test_pplan_sample_bit_identical;
          Alcotest.test_case "interp apply/apply_sampled" `Quick test_pplan_interp_matches;
          Alcotest.test_case "repair_at/sample_at agree" `Quick test_repair_at_agrees
        ] );
      ( "confidence",
        [ Alcotest.test_case "possible/certain" `Quick test_confidence_possible_certain;
          Alcotest.test_case "tuple marginals" `Quick test_confidence_tuple_marginals;
          Alcotest.test_case "expected cardinality" `Quick test_confidence_expected_cardinality;
          Alcotest.test_case "relation marginal" `Quick test_confidence_relation_marginal
        ] );
      ( "mdd",
        [ Alcotest.test_case "line lineage is linear" `Quick test_mdd_line_size;
          Alcotest.test_case "unknown variable" `Quick test_mdd_unknown_variable
        ] );
      ("mdd-props", qsuite [ prop_mdd_prob; prop_mdd_canonical ]);
      ("dist-props", qsuite [ prop_unnormalised_sums_to_one; prop_bind_preserves_mass; prop_tv_bounds ])
    ]
