module Q = Bigq.Q
module Value = Relational.Value
module Tuple = Relational.Tuple
module D = Lang.Datalog

let node i = Value.Str (Printf.sprintf "v%d" i)

(* Deterministic transitive closure from v0: all randomness lives in the
   c-table, as in condition (2') of Theorems 4.1/5.1. *)
let reach_program () =
  [ D.rule (D.deterministic_head "R" [ D.Const (node 0) ]) [];
    D.rule
      (D.deterministic_head "R" [ D.Var "Y" ])
      [ { D.pred = "R"; args = [ D.Var "X" ] }; { D.pred = "e"; args = [ D.Var "X"; D.Var "Y" ] } ]
  ]

let guarded name = Prob.Ctable.CEq (Prob.Ctable.TVar name, Prob.Ctable.TLit (Value.Bool true))

let uncertain_line ~n =
  if n < 1 then invalid_arg "uncertain_line";
  let vars = List.init n (fun i -> Prob.Ctable.flag ~p:Q.half (Printf.sprintf "e%d" i)) in
  let rows =
    List.init n (fun i ->
        { Prob.Ctable.tuple = Tuple.of_list [ node i; node (i + 1) ];
          cond = guarded (Printf.sprintf "e%d" i)
        })
  in
  let ct = Prob.Ctable.make ~vars ~tables:[ ("e", [ "x1"; "x2" ], rows) ] in
  (ct, reach_program (), Lang.Event.make "R" [ node n ])

let uncertain_parallel ~n =
  if n < 1 then invalid_arg "uncertain_parallel";
  let target = Value.Str "t" in
  let mid i = Value.Str (Printf.sprintf "m%d" i) in
  let vars =
    List.concat
      (List.init n (fun i ->
           [ Prob.Ctable.flag ~p:Q.half (Printf.sprintf "a%d" i);
             Prob.Ctable.flag ~p:Q.half (Printf.sprintf "b%d" i)
           ]))
  in
  let rows =
    List.concat
      (List.init n (fun i ->
           [ { Prob.Ctable.tuple = Tuple.of_list [ node 0; mid i ];
               cond = guarded (Printf.sprintf "a%d" i)
             };
             { Prob.Ctable.tuple = Tuple.of_list [ mid i; target ];
               cond = guarded (Printf.sprintf "b%d" i)
             }
           ]))
  in
  let ct = Prob.Ctable.make ~vars ~tables:[ ("e", [ "x1"; "x2" ], rows) ] in
  (ct, reach_program (), Lang.Event.make "R" [ target ])

let uncertain_grid ~k =
  if k < 1 then invalid_arg "uncertain_grid";
  let idx = List.init k Fun.id in
  let left i = Value.Str (Printf.sprintf "l%d" i) in
  let right j = Value.Str (Printf.sprintf "r%d" j) in
  let r i = Printf.sprintf "r%d" i and t j = Printf.sprintf "t%d" j in
  let s i j = Printf.sprintf "s%d_%d" i j in
  let names = List.map r idx @ List.map t idx @ List.concat_map (fun i -> List.map (s i) idx) idx in
  let row values name = { Prob.Ctable.tuple = Tuple.of_list values; cond = guarded name } in
  let ct =
    Prob.Ctable.make
      ~vars:(List.map (Prob.Ctable.flag ~p:Q.half) names)
      ~tables:
        [ ("R", [ "x1" ], List.map (fun i -> row [ left i ] (r i)) idx);
          ("T", [ "x1" ], List.map (fun j -> row [ right j ] (t j)) idx);
          ( "S",
            [ "x1"; "x2" ],
            List.concat_map (fun i -> List.map (fun j -> row [ left i; right j ] (s i j)) idx) idx )
        ]
  in
  let ok = Value.Str "ok" in
  let program =
    [ D.rule
        (D.deterministic_head "Q" [ D.Const ok ])
        [ { D.pred = "R"; args = [ D.Var "X" ] };
          { D.pred = "S"; args = [ D.Var "X"; D.Var "Y" ] };
          { D.pred = "T"; args = [ D.Var "Y" ] }
        ]
    ]
  in
  (ct, program, Lang.Event.make "Q" [ ok ])

let expected_line ~n = Q.pow Q.half n
let expected_parallel ~n = Q.sub Q.one (Q.pow (Q.of_ints 3 4) n)
