(* Columnar data plane vs the set-based reference representation.

   [Relational.Relation] stores a canonical sorted flat tuple array;
   [Relational.Relation_ref] preserves the balanced-tree representation the
   data plane used before the refactor.  These tests pin the equivalence:
   identical tuple contents AND iteration order, identical compare sign,
   identical FNV hashes — op by op under qcheck, end-to-end over random
   Progen programs (both semantics, fixed-seed estimates at 1/2/4 domains),
   and under multi-domain concurrency for the hash memo's benign race. *)

module Q = Bigq.Q
module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Ref = Relational.Relation_ref
module Database = Relational.Database
module Algebra = Relational.Algebra
module Plan = Relational.Plan

let tuple_list = Alcotest.(list (testable Tuple.pp Tuple.equal))

(* --- generators --------------------------------------------------------- *)

(* Mix interned and freshly-boxed payloads: physical sharing must stay an
   optimisation, never a semantic requirement. *)
let value_of_int n =
  match n mod 4 with
  | 0 -> Value.Int (n mod 7)
  | 1 ->
    let s = Printf.sprintf "s%d" (n mod 5) in
    if n mod 8 < 4 then Value.Str s else Value.Intern.str s
  | 2 -> Value.Bool (n mod 2 = 0)
  | _ ->
    let q = Q.of_ints (1 + (n mod 5)) (1 + (n mod 3)) in
    if n mod 8 < 4 then Value.Rat q else Value.Intern.rat q

let gen_tuple rng arity = Array.init arity (fun _ -> value_of_int (Random.State.int rng 64))
let gen_tuples rng arity = List.init (Random.State.int rng 24) (fun _ -> gen_tuple rng arity)
let cols_of_arity a = List.init a (fun i -> String.make 1 (Char.chr (Char.code 'A' + i)))
let pair_of cols ts = (Relation.make cols ts, Ref.make cols ts)

(* Columnar and reference values agree observably: same schema, same tuples
   in the same order, same cardinality, same hash. *)
let agree (r, s) =
  List.equal String.equal (Relation.columns r) (Ref.columns s)
  && List.equal Tuple.equal (Relation.tuples r) (Ref.tuples s)
  && Relation.cardinal r = Ref.cardinal s
  && Relation.hash r = Ref.hash s

let sign c = Stdlib.compare c 0
let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

(* --- op-by-op differential ---------------------------------------------- *)

let prop_ops_agree =
  QCheck.Test.make ~name:"relation ops ≡ set-based reference" ~count:500 arb_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let arity = 1 + Random.State.int rng 3 in
      let cols = cols_of_arity arity in
      let a, a' = pair_of cols (gen_tuples rng arity) in
      let b, b' = pair_of cols (gen_tuples rng arity) in
      let probe = gen_tuple rng arity in
      let p (t : Tuple.t) = match t.(0) with Value.Int n -> n mod 2 = 0 | _ -> true in
      agree (a, a') && agree (b, b')
      && agree (Relation.union a b, Ref.union a' b')
      && agree (Relation.inter a b, Ref.inter a' b')
      && agree (Relation.diff a b, Ref.diff a' b')
      && agree (Relation.add probe a, Ref.add probe a')
      && Relation.mem probe a = Ref.mem probe a'
      && Relation.subset a b = Ref.subset a' b'
      && sign (Relation.compare a b) = sign (Ref.compare a' b')
      && Relation.equal a b = Ref.equal a' b'
      && agree (Relation.filter p a, Ref.filter p a'))

let prop_builder_matches_make =
  QCheck.Test.make ~name:"Builder.build = make (sort + dedup once)" ~count:200 arb_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let arity = 1 + Random.State.int rng 3 in
      let cols = cols_of_arity arity in
      let ts = gen_tuples rng arity in
      let b = Relation.Builder.create ~hint:1 cols in
      List.iter (Relation.Builder.add b) ts;
      let built = Relation.Builder.build b in
      let made = Relation.make cols ts in
      Relation.equal built made
      && List.equal Tuple.equal (Relation.tuples built) (Relation.tuples made))

(* Reference nested-loop natural join over the reference representation,
   compared against the batched hash join the interpreter/plans run. *)
let ref_join ra' rb' =
  let ca = Ref.columns ra' and cb = Ref.columns rb' in
  let shared = List.filter (fun c -> List.mem c ca) cb in
  let out = ca @ List.filter (fun c -> not (List.mem c ca)) cb in
  let pos cols c =
    let rec go i = function
      | [] -> assert false
      | x :: rest -> if String.equal x c then i else go (i + 1) rest
    in
    go 0 cols
  in
  let ia = List.map (pos ca) shared and ib = List.map (pos cb) shared in
  let rest_b = List.map (pos cb) (List.filter (fun c -> not (List.mem c ca)) cb) in
  List.fold_left
    (fun acc (ta : Tuple.t) ->
      List.fold_left
        (fun acc (tb : Tuple.t) ->
          if List.for_all2 (fun i j -> Value.equal ta.(i) tb.(j)) ia ib then
            Ref.add (Array.append ta (Array.of_list (List.map (fun j -> tb.(j)) rest_b))) acc
          else acc)
        acc (Ref.tuples rb'))
    (Ref.empty out) (Ref.tuples ra')

let prop_join_matches_reference =
  QCheck.Test.make ~name:"hash join ≡ reference nested-loop join" ~count:200 arb_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let ra, ra' = pair_of [ "A"; "B" ] (gen_tuples rng 2) in
      let rb, rb' = pair_of [ "B"; "C" ] (gen_tuples rng 2) in
      let joined = Algebra.eval (Algebra.Join (Algebra.Const ra, Algebra.Const rb)) Database.empty in
      let plan =
        Plan.compile ~schema_of:(fun _ -> raise Not_found)
          (Algebra.Join (Algebra.Const ra, Algebra.Const rb))
      in
      agree (joined, ref_join ra' rb') && Relation.equal joined (Plan.run plan Database.empty))

(* --- hash memo benign race under domains -------------------------------- *)

(* Fresh (memo-cold) relations shared by several domains: every concurrent
   hash/equal must agree with a sequential oracle computed on equal twins.
   This is the contract that lets sampler domains share relations and the
   interning dictionaries without a lock. *)
let prop_hash_memo_race =
  QCheck.Test.make ~name:"concurrent hash/equal = sequential (multi-domain)" ~count:25 arb_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let arity = 1 + Random.State.int rng 3 in
      let cols = cols_of_arity arity in
      let mk () =
        Array.init 16 (fun _ -> Relation.make cols (gen_tuples rng arity))
      in
      let shared = mk () in
      (* Twins with equal contents, hashed sequentially: the oracle. *)
      let twins = Array.map (fun r -> Relation.make cols (Relation.tuples r)) shared in
      let expected = Array.map Relation.hash twins in
      let n = Array.length shared in
      let worker d () =
        Array.init n (fun i ->
            let r = shared.((i + d) mod n) in
            (Relation.hash r, Relation.equal r twins.((i + d) mod n)))
      in
      let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
      let results = List.map Domain.join domains in
      (* Every domain's (i+d)-rotated traversal saw the oracle hash and
         agreed on equality with the twin. *)
      List.for_all2
        (fun d res ->
          Array.for_all Fun.id
            (Array.init n (fun i ->
                 let h, eq = res.(i) in
                 h = expected.((i + d) mod n) && eq)))
        [ 0; 1; 2; 3 ] results)

(* --- canonical iteration order pins ------------------------------------- *)

let t vs = Tuple.of_list (List.map (fun n -> Value.Int n) vs)

let test_join_output_order () =
  let r = Relation.make [ "A"; "B" ] [ t [ 2; 1 ]; t [ 1; 1 ]; t [ 1; 2 ] ] in
  let s = Relation.make [ "B"; "C" ] [ t [ 1; 9 ]; t [ 1; 3 ]; t [ 2; 0 ] ] in
  let out = Algebra.eval (Algebra.Join (Algebra.Const r, Algebra.Const s)) Database.empty in
  Alcotest.check tuple_list "ascending canonical order"
    [ t [ 1; 1; 3 ]; t [ 1; 1; 9 ]; t [ 1; 2; 0 ]; t [ 2; 1; 3 ]; t [ 2; 1; 9 ] ]
    (Relation.tuples out)

let test_aggregate_output_order () =
  let r = Relation.make [ "G"; "X" ] [ t [ 3; 1 ]; t [ 1; 4 ]; t [ 1; 1 ]; t [ 2; 5 ] ] in
  let out =
    Algebra.eval
      (Algebra.Aggregate
         { group_by = [ "G" ]; agg = Algebra.Count; src = None; out = "n"; arg = Algebra.Const r })
      Database.empty
  in
  Alcotest.check tuple_list "groups ascending" [ t [ 1; 2 ]; t [ 2; 1 ]; t [ 3; 1 ] ]
    (Relation.tuples out)

let ascending ts =
  let rec go = function
    | a :: (b :: _ as rest) -> Tuple.compare a b < 0 && go rest
    | _ -> true
  in
  go ts

let test_delta_output_order () =
  let schema_of = function "R" -> [ "A"; "B" ] | _ -> [ "B"; "C" ] in
  let dp = Plan.Delta.compile ~schema_of (Algebra.Join (Algebra.Rel "R", Algebra.Rel "S")) in
  let s = Relation.make [ "B"; "C" ] [ t [ 1; 9 ]; t [ 2; 0 ]; t [ 1; 3 ] ] in
  let r_old = Relation.make [ "A"; "B" ] [ t [ 1; 1 ] ] in
  let r_new = Relation.union r_old (Relation.make [ "A"; "B" ] [ t [ 0; 2 ]; t [ 2; 1 ] ]) in
  let db_old = Database.of_list [ ("R", r_old); ("S", s) ] in
  let db_new = Database.of_list [ ("R", r_new); ("S", s) ] in
  let delta = Database.of_list [ ("R", Relation.diff r_new r_old) ] in
  let full_old = Plan.run (Plan.Delta.plan dp) db_old in
  let full_new = Plan.run (Plan.Delta.plan dp) db_new in
  let d_out = Plan.Delta.run_delta dp db_new delta in
  Alcotest.(check bool) "delta output in canonical ascending order" true
    (ascending (Relation.tuples d_out));
  Alcotest.(check bool) "delta contract: old ∪ delta = new" true
    (Relation.equal (Relation.union full_old d_out) full_new);
  Alcotest.check tuple_list "delta tuples" [ t [ 0; 2; 0 ]; t [ 2; 1; 3 ]; t [ 2; 1; 9 ] ]
    (Relation.tuples d_out)

(* --- Progen end-to-end -------------------------------------------------- *)

let case_of seed = Workload.Progen.random_case (Random.State.make [| seed |])

let arb_case =
  QCheck.make ~print:(fun seed -> (case_of seed).Workload.Progen.source)
    QCheck.Gen.(int_bound 100_000)

(* Every database an engine trajectory visits holds relations already in
   canonical reference form: converting to the set-based reference and back
   changes nothing — not the tuples, not their order, not the hash.  Checked
   along fixed-seed sampled trajectories of both compiled kernels. *)
let prop_progen_states_reference_canonical =
  QCheck.Test.make ~name:"Progen trajectories: states ≡ reference round-trip" ~count:15 arb_case
    (fun seed ->
      let case = case_of seed in
      let canonical db =
        List.for_all
          (fun (_, r) ->
            let s = Ref.of_relation r in
            agree (r, s) && Relation.equal (Ref.to_relation s) r)
          (Database.bindings db)
      in
      let run kernel_of =
        let kernel, init = kernel_of case.Workload.Progen.program case.Workload.Progen.database in
        let q = Lang.Forever.make ~kernel ~event:case.Workload.Progen.event in
        let rng = Random.State.make [| seed |] in
        let rec go db steps ok =
          if steps = 0 || not ok then ok
          else go (Lang.Forever.step_sampled rng q db) (steps - 1) (canonical db)
        in
        go init 12 true
      in
      run Lang.Compile.inflationary_kernel && run Lang.Compile.noninflationary_kernel)

(* Exact Q answers, both semantics, are invariant under rebuilding the EDB
   from the reference representation's enumeration. *)
let prop_progen_exact_invariant_under_reference =
  QCheck.Test.make ~name:"Progen exact Q answers invariant under reference rebuild" ~count:15
    arb_case (fun seed ->
      let case = case_of seed in
      let rebuild db = Database.map (fun _ r -> Ref.to_relation (Ref.of_relation r)) db in
      let inflationary db =
        let kernel, init = Lang.Compile.inflationary_kernel case.Workload.Progen.program db in
        Eval.Exact_inflationary.eval
          (Lang.Inflationary.of_forever_unchecked
             (Lang.Forever.make ~kernel ~event:case.Workload.Progen.event))
          init
      in
      let noninflationary db =
        let kernel, init = Lang.Compile.noninflationary_kernel case.Workload.Progen.program db in
        Eval.Exact_noninflationary.eval
          ~guard:(Guard.make ~max_states:400 ())
          (Lang.Forever.make ~kernel ~event:case.Workload.Progen.event)
          init
      in
      let db = case.Workload.Progen.database in
      Q.equal (inflationary db) (inflationary (rebuild db))
      &&
      match noninflationary db with
      | exception Guard.Exhausted _ -> true
      | direct -> Q.equal direct (noninflationary (rebuild db)))

(* Fixed-seed sampling estimates are bit-identical at 1, 2 and 4 domains on
   random programs — the sharding contract holds over the columnar plane. *)
let prop_progen_domains_bit_identical =
  QCheck.Test.make ~name:"Progen fixed-seed estimates identical at 1/2/4 domains" ~count:8
    arb_case (fun seed ->
      let case = case_of seed in
      let facts =
        List.concat_map
          (fun (name, r) ->
            List.rev
              (Relation.fold (fun tu acc -> (name, Tuple.to_list tu) :: acc) r []))
          (Database.bindings case.Workload.Progen.database)
      in
      let parsed =
        { Lang.Parser.program = case.Workload.Progen.program;
          facts;
          vars = [];
          cond_facts = [];
          event = Some case.Workload.Progen.event;
          events = [ case.Workload.Progen.event ]
        }
      in
      let run d =
        (Eval.Engine.run ~seed:(seed + 7) ~domains:d ~semantics:Eval.Engine.Inflationary
           ~method_:(Eval.Engine.Sampling { eps = 0.15; delta = 0.15; burn_in = 0 })
           parsed)
          .Eval.Engine.probability
      in
      let e1 = run 1 in
      e1 = run 2 && e1 = run 4)

let () =
  Alcotest.run "columnar"
    [ ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ops_agree; prop_builder_matches_make; prop_join_matches_reference ] );
      ( "order",
        [ Alcotest.test_case "join output order" `Quick test_join_output_order;
          Alcotest.test_case "aggregate output order" `Quick test_aggregate_output_order;
          Alcotest.test_case "delta output order" `Quick test_delta_output_order
        ] );
      ("race", List.map QCheck_alcotest.to_alcotest [ prop_hash_memo_race ]);
      ( "progen",
        List.map QCheck_alcotest.to_alcotest
          [ prop_progen_states_reference_canonical;
            prop_progen_exact_invariant_under_reference;
            prop_progen_domains_bit_identical
          ] )
    ]
