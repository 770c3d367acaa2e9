(* The daemon stack: JSON reader, probdb.proto/3 decoding, the shared plan
   cache, and an in-process server exercised over a real unix socket —
   the telemetry plane (metrics op, correlation ids, request logs, inline
   traces), the concurrent-session soak asserting daemon answers are
   bit-identical to one-shot Engine.run under the PROBDB_FAULT matrix,
   the durable journal (roundtrip, torn tails, the crash-point matrix,
   restart replay), protocol hardening (decode fuzz, frame bounds, read
   deadlines, error codes, idempotency dedup) and the resilient client
   (backoff policy, reconnect across a server restart, deadlines). *)

module J = Obs.Json

let json = Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (J.to_string j)) ( = )

(* --- Jsonr ---------------------------------------------------------------- *)

let test_jsonr_roundtrip () =
  let docs =
    [ J.Null;
      J.Bool true;
      J.Int (-42);
      J.Float 2.5;
      J.Str "plain";
      J.Str "esc \" \\ \n \t \r \b \012 end";
      J.Str "caf\xc3\xa9 \xe2\x88\x80x";
      J.List [ J.Int 1; J.Str "two"; J.Null; J.List []; J.Obj [] ];
      J.Obj
        [ ("a", J.Int 1);
          ("nested", J.Obj [ ("xs", J.List [ J.Float 0.125; J.Bool false ]) ]);
          ("s", J.Str "v")
        ]
    ]
  in
  List.iter (fun doc -> Alcotest.check json "roundtrip" doc (Serve.Jsonr.parse (J.to_string doc))) docs

let test_jsonr_literals () =
  Alcotest.check json "unicode escape" (J.Str "A\xc3\xa9")
    (Serve.Jsonr.parse {|"\u0041\u00e9"|});
  Alcotest.check json "surrogate pair" (J.Str "\xf0\x9f\x99\x82")
    (Serve.Jsonr.parse {|"\ud83d\ude42"|});
  Alcotest.check json "whitespace" (J.Obj [ ("k", J.List [ J.Int 1; J.Int 2 ]) ])
    (Serve.Jsonr.parse " { \"k\" : [ 1 , 2 ] } ");
  Alcotest.check json "float forms" (J.List [ J.Float 1e3; J.Float (-0.5); J.Int 7 ])
    (Serve.Jsonr.parse "[1e3, -0.5, 7]");
  List.iter
    (fun bad ->
      match Serve.Jsonr.parse_result bad with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2"; "\"\\ud800\"";
      "{\"a\":1} trailing"
    ]

(* --- Proto ---------------------------------------------------------------- *)

let test_proto_decode () =
  (match
     Serve.Proto.parse_request
       {|{"op":"query","id":"q1","tenant":"ops","class":"batch","source":"e(a). ?- e(a).","semantics":"noninflationary","method":"sample","eps":0.1,"seed":9,"stats":false}|}
   with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok { Serve.Proto.id; tenant; idem = _; req } -> (
    Alcotest.(check string) "id" "q1" id;
    Alcotest.(check string) "tenant" "ops" tenant;
    match req with
    | Serve.Proto.Query q ->
      Alcotest.(check bool) "batch" true (q.Serve.Proto.q_class = Serve.Proto.Batch);
      Alcotest.(check string) "method" "sample" q.Serve.Proto.q_method;
      Alcotest.(check (float 0.0)) "eps" 0.1 q.Serve.Proto.q_eps;
      Alcotest.(check int) "seed" 9 q.Serve.Proto.q_seed;
      Alcotest.(check bool) "stats opt-out" false q.Serve.Proto.q_stats;
      Alcotest.(check bool) "noninflationary" true
        (q.Serve.Proto.q_semantics = Eval.Engine.Noninflationary);
      (match Serve.Proto.method_of_query q with
       | Ok (Eval.Engine.Sampling { eps; delta; burn_in }) ->
         Alcotest.(check (float 0.0)) "method eps" 0.1 eps;
         Alcotest.(check (float 0.0)) "method delta" 0.05 delta;
         Alcotest.(check int) "method burn-in" 200 burn_in
       | _ -> Alcotest.fail "expected sampling method")
    | _ -> Alcotest.fail "expected Query"));
  (* estimate defaults the method to sampling; query to exact. *)
  (match Serve.Proto.parse_request {|{"op":"estimate","id":"e","source":"x"}|} with
  | Ok { req = Serve.Proto.Query q; _ } ->
    Alcotest.(check string) "estimate method" "sample" q.Serve.Proto.q_method
  | _ -> Alcotest.fail "estimate decodes as Query");
  List.iter
    (fun bad ->
      match Serve.Proto.parse_request bad with
      | Ok _ -> Alcotest.failf "accepted bad request %S" bad
      | Error _ -> ())
    [ {|{"op":"query","id":"x"}|} (* neither source nor name *);
      {|{"op":"nosuch","id":"x"}|};
      {|{"op":"query","source":"y"}|} (* missing id *);
      {|{"op":"query","id":"x","source":"y","class":"vip"}|};
      {|[1,2]|};
      "not json"
    ]

(* --- plan cache ----------------------------------------------------------- *)

let test_plan_cache () =
  let cache = Serve.Request.make_cache ~capacity:8 () in
  let spec =
    Serve.Request.make ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact
      "e(a). p(X) :- e(X). ?- p(a)."
  in
  let _, hit1 = Serve.Request.prepare ~cache spec in
  let prep2, hit2 = Serve.Request.prepare ~cache spec in
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check bool) "second is a hit" true hit2;
  let hits, misses, entries = Serve.Request.cache_stats cache in
  Alcotest.(check int) "hits" 1 hits;
  Alcotest.(check int) "misses" 1 misses;
  Alcotest.(check int) "entries" 1 entries;
  (* Differing compile options change the fingerprint. *)
  let _, hit3 =
    Serve.Request.prepare ~cache { spec with Serve.Request.semantics = Eval.Engine.Noninflationary }
  in
  Alcotest.(check bool) "option change misses" false hit3;
  (* A cached prepared value executes and answers correctly. *)
  let report = Eval.Engine.execute prep2 in
  Alcotest.(check (float 0.0)) "cached plan answers" 1.0 report.Eval.Engine.probability;
  (* Failed builds are not cached. *)
  (match Serve.Request.prepare ~cache { spec with Serve.Request.source = "e(a)." } with
   | exception Eval.Engine.Engine_error _ -> ()
   | _ -> Alcotest.fail "expected Engine_error for event-less program");
  let _, _, entries = Serve.Request.cache_stats cache in
  Alcotest.(check int) "failed build not cached" 2 entries

(* --- in-process server over a unix socket --------------------------------- *)

let next_sock = Atomic.make 0

let with_server ?(configure = fun c -> c) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "probdbd_test_%d_%d.sock" (Unix.getpid ())
         (Atomic.fetch_and_add next_sock 1))
  in
  let cfg = configure (Serve.Server.default_config (Serve.Server.Unix_sock path)) in
  let t = Serve.Server.create cfg in
  let server = Domain.spawn (fun () -> Serve.Server.serve_forever t) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown t;
      Domain.join server;
      Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists path))
    (fun () -> f path t)

let obj = function
  | J.Obj o -> o
  | j -> Alcotest.failf "expected object, got %s" (J.to_string j)

let get o k =
  match List.assoc_opt k o with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" k

let check_ok resp =
  let o = obj resp in
  (match get o "ok" with
   | J.Bool true -> ()
   | _ -> Alcotest.failf "response not ok: %s" (J.to_string resp));
  o

let reference_report ?(seed = 0) ?domains ~semantics ~method_ source =
  Eval.Engine.run ~seed ?domains ~semantics ~method_ (Lang.Parser.parse source)

(* Answers must be bit-identical to the one-shot engine: compare the float
   bits and the exact rational rendering. *)
let check_answer ~what (reference : Eval.Engine.report) resp =
  let o = check_ok resp in
  let r = obj (get o "report") in
  (match get r "probability" with
   | (J.Float _ | J.Int _) as j ->
     let got = (match j with J.Int i -> float_of_int i | J.Float f -> f | _ -> 0.0) in
     Alcotest.(check bool)
       (what ^ ": probability bit-identical")
       true
       (Int64.equal (Int64.bits_of_float reference.Eval.Engine.probability)
          (Int64.bits_of_float got))
   | j -> Alcotest.failf "probability not a number: %s" (J.to_string j));
  let exact_str = function
    | None -> J.Null
    | Some q -> J.Str (Bigq.Q.to_string q)
  in
  Alcotest.check json (what ^ ": exact rational identical")
    (exact_str reference.Eval.Engine.exact) (get r "exact")

let test_server_end_to_end () =
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (* load: validated and stored per tenant. *)
      let o =
        check_ok
          (Serve.Client.rpc_json c
             (Serve.Jsonr.parse
                {|{"op":"load","id":"l1","tenant":"t1","name":"reach","source":"edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z). ?- path(a,c)."}|}))
      in
      Alcotest.check json "rules counted" (J.Int 2) (get o "rules");
      (* query by name: exact answer matches Engine.run. *)
      let source =
        "edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z). ?- path(a,c)."
      in
      let reference =
        reference_report ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact source
      in
      let resp =
        Serve.Client.rpc_json c
          (Serve.Jsonr.parse {|{"op":"query","id":"q1","tenant":"t1","name":"reach"}|})
      in
      check_answer ~what:"exact by name" reference resp;
      Alcotest.check json "first query misses the cache" (J.Str "miss")
        (get (check_ok resp) "cache");
      let resp2 =
        Serve.Client.rpc_json c
          (Serve.Jsonr.parse {|{"op":"query","id":"q2","tenant":"t1","name":"reach"}|})
      in
      check_answer ~what:"cached exact" reference resp2;
      Alcotest.check json "repeat hits the cache" (J.Str "hit") (get (check_ok resp2) "cache");
      (* per-request stats ride along by default. *)
      let stats = obj (get (obj (get (check_ok resp2) "report")) "phases") in
      Alcotest.(check bool) "cache-hit request reports no compile phase" true
        (not (List.mem_assoc "compile" stats));
      (* estimate: fixed-seed draws identical to the one-shot sampler. *)
      let est_method = Eval.Engine.Sampling { eps = 0.1; delta = 0.1; burn_in = 200 } in
      let est_ref =
        reference_report ~seed:5 ~semantics:Eval.Engine.Inflationary ~method_:est_method source
      in
      let est =
        Serve.Client.rpc_json c
          (Serve.Jsonr.parse
             {|{"op":"estimate","id":"q3","tenant":"t1","name":"reach","eps":0.1,"delta":0.1,"seed":5}|})
      in
      check_answer ~what:"fixed-seed estimate" est_ref est;
      (* cancel of an unknown request id reports not-found. *)
      let cancel =
        check_ok
          (Serve.Client.rpc_json c
             (Serve.Jsonr.parse {|{"op":"cancel","id":"c1","tenant":"t1","target":"nope"}|}))
      in
      Alcotest.check json "unknown target" (J.Bool false) (get cancel "cancelled");
      (* unknown loaded name and malformed lines are per-request errors. *)
      let err =
        obj
          (Serve.Client.rpc_json c
             (Serve.Jsonr.parse {|{"op":"query","id":"q4","tenant":"t1","name":"nope"}|}))
      in
      Alcotest.check json "unknown program" (J.Bool false) (get err "ok");
      let err2 = obj (Serve.Jsonr.parse (Serve.Client.rpc c "definitely not json")) in
      Alcotest.check json "bad line" (J.Bool false) (get err2 "ok");
      (* stats op: cache totals and tenant counters. *)
      let sdoc = obj (get (check_ok (Serve.Client.rpc_json c
          (Serve.Jsonr.parse {|{"op":"stats","id":"s1","tenant":"t1"}|}))) "stats")
      in
      let cache = obj (get sdoc "plan_cache") in
      Alcotest.(check bool) "cache hits counted" true
        (match get cache "hits" with J.Int h -> h >= 1 | _ -> false);
      let tenants = obj (get sdoc "tenants") in
      Alcotest.(check bool) "tenant t1 served" true
        (match obj (get tenants "t1") with
         | o -> ( match get o "served" with J.Int n -> n >= 3 | _ -> false)))

(* Out-of-range sampling parameters are refused before any sampling starts:
   a negative burn-in used to walk forever between two guard polls, pinning
   the session beyond the reach of cancel. *)
let test_invalid_sampling_params () =
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      List.iter
        (fun (what, fields) ->
          let resp =
            obj
              (Serve.Client.rpc_json c
                 (Serve.Jsonr.parse
                    (Printf.sprintf
                       {|{"op":"estimate","id":"bad","tenant":"t1","semantics":"noninflationary",%s,"source":"?C(Y) @W :- C(X), e(X, Y, W). C(a). e(a, b, 1). e(b, a, 1). ?- C(b)."}|}
                       fields)))
          in
          Alcotest.check json (what ^ ": refused") (J.Bool false) (get resp "ok");
          Alcotest.check json (what ^ ": eval error") (J.Str "eval") (get resp "code"))
        [ ("burn_in -1", {|"burn_in":-1|});
          ("eps 0", {|"eps":0|});
          ("delta 1.5", {|"delta":1.5|});
          ("time-average steps 0", {|"method":"time-average","steps":0|})
        ];
      (* The session is still serving. *)
      ignore
        (check_ok
           (Serve.Client.rpc_json c (Serve.Jsonr.parse {|{"op":"ping","id":"p","tenant":"t1"}|}))))

(* The retired lumped method is refused like any unknown method: every
   exact non-inflationary answer is already solved on the lumped chain. *)
let test_lumped_method_refused () =
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let resp =
        obj
          (Serve.Client.rpc_json c
             (Serve.Jsonr.parse
                {|{"op":"query","id":"l","tenant":"t1","semantics":"noninflationary","method":"lumped","source":"?C(Y) @W :- C(X), e(X, Y, W). C(a). e(a, b, 1). e(b, a, 1). ?- C(b)."}|}))
      in
      Alcotest.check json "refused" (J.Bool false) (get resp "ok");
      Alcotest.check json "unknown method"
        (J.Str {|unknown method "lumped" (exact|sample|partitioned|time-average)|})
        (get resp "error"))

(* A query answers one event: a program with several ?- events is a bad
   request for query and estimate alike, as Engine.run refuses it, instead
   of an answer for the first event only. *)
let test_several_events_refused () =
  let source = "e(a). e(b). ?- e(a). ?- e(b)." in
  (match
     Eval.Engine.run ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact
       (Lang.Parser.parse source)
   with
   | _ -> Alcotest.fail "Engine.run answered a two-event program"
   | exception Eval.Engine.Engine_error _ -> ());
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      List.iter
        (fun op ->
          let resp =
            obj
              (Serve.Client.rpc_json c
                 (Serve.Jsonr.parse
                    (Printf.sprintf {|{"op":%S,"id":"two","tenant":"t1","source":%S}|} op
                       source)))
          in
          Alcotest.check json (op ^ ": refused") (J.Bool false) (get resp "ok");
          Alcotest.check json (op ^ ": bad_request") (J.Str "bad_request") (get resp "code"))
        [ "query"; "estimate" ])

(* JSON floats round-trip: an answer of 1/12 (two lazy walkers, on a
   4-cycle and a 3-cycle, meeting at n0) reaches the client with the very
   float Engine.run computes, not a 6-digit rendering of it. *)
let test_float_answer_bit_identical () =
  let b = Buffer.create 512 in
  List.iter
    (fun (w, n) ->
      Buffer.add_string b (Printf.sprintf "?C%d(Y) @W :- C%d(X), e%d(X, Y, W). C%d(n0). " w w w w);
      for i = 0 to n - 1 do
        Buffer.add_string b
          (Printf.sprintf "e%d(n%d, n%d, 1). e%d(n%d, n%d, 1). " w i ((i + 1) mod n) w i i)
      done)
    [ (1, 4); (2, 3) ];
  Buffer.add_string b "Both() :- C1(n0), C2(n0). ?- Both().";
  let source = Buffer.contents b in
  let reference =
    reference_report ~semantics:Eval.Engine.Noninflationary ~method_:Eval.Engine.Exact source
  in
  Alcotest.(check (option string)) "reference is 1/12" (Some "1/12")
    (Option.map Bigq.Q.to_string reference.Eval.Engine.exact);
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      check_answer ~what:"1/12" reference
        (Serve.Client.rpc_json c
           (Serve.Jsonr.parse
              (Printf.sprintf
                 {|{"op":"query","id":"w","tenant":"t1","semantics":"noninflationary","source":%S}|}
                 source))))

(* The retired "magic" key is ignored like any unknown key: a query carrying
   it is accepted, shares the plan-cache entry of the same query without it,
   and answers identically. *)
let test_magic_key_ignored () =
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let source =
        "edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z). ?- path(a,c)."
      in
      let reference =
        reference_report ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact source
      in
      let query id extra =
        Serve.Client.rpc_json c
          (Serve.Jsonr.parse
             (Printf.sprintf {|{"op":"query","id":%S,"tenant":"t1"%s,"source":%S}|} id extra
                source))
      in
      let plain = query "plain" "" in
      check_answer ~what:"without magic" reference plain;
      let magic = query "magic" {|,"magic":true|} in
      check_answer ~what:"with magic" reference magic;
      Alcotest.check json "same plan-cache entry" (J.Str "hit") (get (check_ok magic) "cache"))

(* --- per-tenant budgets, cancellation, admission --------------------------- *)

(* A slow request: pool-sharded sampling with an injected per-sample delay
   keeps one tenant's query busy while another connection races it. *)
let slow_query ~id ~tenant =
  Printf.sprintf
    {|{"op":"query","id":%S,"tenant":%S,"method":"sample","eps":0.02,"delta":0.05,"domains":1,"source":"edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z). ?- path(a,c)."}|}
    id tenant

let outcome_status resp =
  let o = check_ok resp in
  let r = obj (get o "report") in
  match obj (get r "outcome") with
  | o -> (
    match get o "status" with
    | J.Str s -> s
    | _ -> Alcotest.fail "outcome status missing")

let test_cancel_inflight () =
  Unix.putenv "PROBDB_FAULT" "delay:shard=0,ms=5";
  Fun.protect ~finally:(fun () -> Unix.putenv "PROBDB_FAULT" "") @@ fun () ->
  with_server (fun path _t ->
      let a = Serve.Client.connect_unix ~retry_ms:2000 path in
      let b = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close a;
          Serve.Client.close b)
        (fun () ->
          Serve.Client.send a (slow_query ~id:"long" ~tenant:"t1");
          Unix.sleepf 0.1;
          let cancel =
            check_ok
              (Serve.Client.rpc_json b
                 (Serve.Jsonr.parse {|{"op":"cancel","id":"c","tenant":"t1","target":"long"}|}))
          in
          Alcotest.check json "in-flight request found" (J.Bool true) (get cancel "cancelled");
          let resp = Serve.Jsonr.parse (Serve.Client.recv a) in
          Alcotest.(check string) "cancelled run reports partial" "partial"
            (outcome_status resp);
          let r = obj (get (check_ok resp) "report") in
          (match obj (get r "outcome") with
           | o ->
             Alcotest.check json "reason is interruption" (J.Str "interrupted")
               (get o "reason"))))

let test_admission_control () =
  Unix.putenv "PROBDB_FAULT" "delay:shard=0,ms=5";
  Fun.protect ~finally:(fun () -> Unix.putenv "PROBDB_FAULT" "") @@ fun () ->
  with_server
    ~configure:(fun c ->
      { c with
        Serve.Server.default_tenant =
          { c.Serve.Server.default_tenant with Serve.Server.tp_max_inflight = 1 }
      })
    (fun path _t ->
      let a = Serve.Client.connect_unix ~retry_ms:2000 path in
      let b = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close a;
          Serve.Client.close b)
        (fun () ->
          Serve.Client.send a (slow_query ~id:"one" ~tenant:"t1");
          Unix.sleepf 0.1;
          (* Same tenant: over the in-flight cap, refused immediately. *)
          let refused = obj (Serve.Client.rpc_json b (Serve.Jsonr.parse (slow_query ~id:"two" ~tenant:"t1"))) in
          Alcotest.check json "tenant over cap refused" (J.Bool false) (get refused "ok");
          (match get refused "error" with
           | J.Str m ->
             Alcotest.(check bool) "admission error says so" true
               (String.length m >= 9 && String.sub m 0 9 = "admission")
           | _ -> Alcotest.fail "error message missing");
          (* A different tenant is unaffected by t1's cap. *)
          let other =
            check_ok
              (Serve.Client.rpc_json b
                 (Serve.Jsonr.parse
                    {|{"op":"query","id":"q","tenant":"t2","source":"e(a). ?- e(a)."}|}))
          in
          ignore other;
          (* The first request still completes. *)
          ignore (outcome_status (Serve.Jsonr.parse (Serve.Client.recv a)))))

let test_tenant_budget_degrades () =
  (* A tenant with a tiny sample budget gets a partial (degraded) answer,
     not an error; an unbudgeted tenant completes the same request. *)
  with_server
    ~configure:(fun c ->
      { c with
        Serve.Server.tenants =
          [ { Serve.Server.default_profile with
              Serve.Server.tp_name = "starved";
              tp_sample_budget = Some 10;
              tp_fallback = false
            }
          ]
      })
    (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let q tenant id =
        Printf.sprintf
          {|{"op":"estimate","id":%S,"tenant":%S,"eps":0.05,"delta":0.05,"source":"edge(a,b). path(X,Y) :- edge(X,Y). ?- path(a,b)."}|}
          id tenant
      in
      let starved = Serve.Jsonr.parse (Serve.Client.rpc c (q "starved" "s1")) in
      Alcotest.(check string) "budgeted tenant degrades to partial" "partial"
        (outcome_status starved);
      let free = Serve.Jsonr.parse (Serve.Client.rpc c (q "other" "f1")) in
      Alcotest.(check string) "unbudgeted tenant completes" "complete" (outcome_status free))

(* Two lazy walkers, on a 4-cycle and a 3-cycle: a 16-state chain whose
   event holds with probability 1/12. *)
let two_walkers_src =
  let walker w n =
    Printf.sprintf "?C%d(Y) @W :- C%d(X), e%d(X, Y, W). C%d(n0). " w w w w
    ^ String.concat " "
        (List.init n (fun i ->
             Printf.sprintf "e%d(n%d, n%d, 1). e%d(n%d, n%d, 1)." w i ((i + 1) mod n) w i i))
  in
  walker 1 4 ^ " " ^ walker 2 3 ^ " Both() :- C1(n0), C2(n0). ?- Both()."

let noninflationary_query ~id ~tenant ?(extra = "") () =
  Printf.sprintf
    {|{"op":"query","id":%S,"tenant":%S,"semantics":"noninflationary"%s,"source":%S}|} id
    tenant extra two_walkers_src

(* The retired "max_states" key is ignored like any unknown key: the
   tenant's state budget is the one bound on explored states, so a 1-state
   cap in the frame changes nothing, not even the plan-cache entry. *)
let test_max_states_key_ignored () =
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let query id extra =
        Serve.Client.rpc_json c
          (Serve.Jsonr.parse (noninflationary_query ~id ~tenant:"t1" ~extra ()))
      in
      (* The JSON probability is rendered to 6 digits, so the answers are
         compared as the documents the two frames get back. *)
      let answer resp =
        let r = obj (get (check_ok resp) "report") in
        J.List [ get r "probability"; get r "exact"; get r "outcome"; get r "downgrade" ]
      in
      let plain = query "plain" "" in
      Alcotest.check json "exact answer" (J.Str "1/12")
        (get (obj (get (check_ok plain) "report")) "exact");
      let capped = query "capped" {|,"max_states":1|} in
      Alcotest.check json "same answer with max_states" (answer plain) (answer capped);
      Alcotest.check json "same plan-cache entry" (J.Str "hit") (get (check_ok capped) "cache"))

(* A tenant state budget below the chain's 16 states: interactive work
   falls back to the sampler, batch work returns a partial report. *)
let test_tenant_state_budget_per_class () =
  with_server
    ~configure:(fun c ->
      { c with
        Serve.Server.tenants =
          [ Serve.Server.profile_of_spec ~default:c.Serve.Server.default_tenant
              "tight,state_budget=5"
          ]
      })
    (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let ask clazz =
        Serve.Jsonr.parse
          (Serve.Client.rpc c
             (noninflationary_query ~id:clazz ~tenant:"tight"
                ~extra:(Printf.sprintf {|,"class":%S,"seed":3|} clazz)
                ()))
      in
      let interactive = ask "interactive" in
      Alcotest.(check string) "interactive completes" "complete" (outcome_status interactive);
      let report = obj (get (check_ok interactive) "report") in
      Alcotest.check json "interactive falls back on the state budget"
        (J.Obj [ ("from", J.Str "exact"); ("to", J.Str "sampling"); ("trigger", J.Str "state-budget") ])
        (get report "downgrade");
      Alcotest.check json "sampled, not exact" J.Null (get report "exact");
      Alcotest.(check string) "batch degrades to partial" "partial" (outcome_status (ask "batch")))

(* A non-positive budget in any profile stops the server before it binds. *)
let test_bad_budget_refused_at_create () =
  let cfg = Serve.Server.default_config (Serve.Server.Unix_sock "/nonexistent/probdbd.sock") in
  List.iter
    (fun (what, cfg) ->
      match Serve.Server.create cfg with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Failure _ -> ())
    [ ( "default state budget 0",
        { cfg with
          Serve.Server.default_tenant =
            { cfg.Serve.Server.default_tenant with Serve.Server.tp_state_budget = Some 0 }
        } );
      ( "tenant spec state_budget=-5",
        { cfg with
          Serve.Server.tenants =
            [ Serve.Server.profile_of_spec ~default:cfg.Serve.Server.default_tenant
                "ops,state_budget=-5"
            ]
        } );
      ( "tenant spec batch_deadline_ms=0",
        { cfg with
          Serve.Server.tenants =
            [ Serve.Server.profile_of_spec ~default:cfg.Serve.Server.default_tenant
                "ops,batch_deadline_ms=0"
            ]
        } )
    ]

(* --- telemetry plane: metrics op, correlation ids, logs, traces ----------- *)

let simple_query ~id ~tenant =
  Printf.sprintf
    {|{"op":"query","id":%S,"tenant":%S,"class":"interactive","source":"e(a). p(X) :- e(X). ?- p(a)."}|}
    id tenant

let family_named fams name =
  match
    List.find_opt
      (fun f -> match get (obj f) "name" with J.Str n -> n = name | _ -> false)
      fams
  with
  | Some f -> obj f
  | None -> Alcotest.failf "family %s missing" name

let labels_of row = obj (get (obj row) "labels")

let test_metrics_op () =
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let issued = [ ("acme", 3); ("zeta", 2) ] in
      List.iter
        (fun (tenant, n) ->
          for i = 1 to n do
            let resp =
              check_ok
                (Serve.Client.rpc_json c
                   (Serve.Jsonr.parse (simple_query ~id:(Printf.sprintf "%s-%d" tenant i) ~tenant)))
            in
            (* Every response carries a server-generated correlation id. *)
            match get resp "corr" with
            | J.Str corr when String.length corr > 0 -> ()
            | j -> Alcotest.failf "bad corr %s" (J.to_string j)
          done)
        issued;
      let m =
        check_ok
          (Serve.Client.rpc_json c
             (Serve.Jsonr.parse {|{"op":"metrics","id":"m1","tenant":"acme"}|}))
      in
      Alcotest.check json "proto rev" (J.Str "probdb.proto/3") (get m "schema");
      let doc = obj (get m "metrics") in
      Alcotest.check json "metrics schema" (J.Str "probdb.metrics/1") (get doc "schema");
      Alcotest.(check bool) "served counted" true
        (match get (obj (get doc "server")) "served" with J.Int n -> n >= 5 | _ -> false);
      let fams = match get doc "families" with J.List fs -> fs | _ -> Alcotest.fail "families" in
      (* The per-(tenant, class, outcome) latency histogram: _count equals
         the number of requests issued for each tenant, exactly. *)
      let hist = family_named fams "probdb_request_seconds" in
      let rows = match get hist "rows" with J.List rs -> rs | _ -> Alcotest.fail "rows" in
      List.iter
        (fun (tenant, n) ->
          match
            List.find_opt
              (fun row ->
                let l = labels_of row in
                get l "tenant" = J.Str tenant
                && get l "class" = J.Str "interactive"
                && get l "outcome" = J.Str "complete")
              rows
          with
          | None -> Alcotest.failf "no histogram row for tenant %s" tenant
          | Some row ->
            Alcotest.check json
              (Printf.sprintf "%s count = queries issued" tenant)
              (J.Int n) (get (obj row) "count"))
        issued;
      (* Sub-phase histograms cover the same request counts per tenant. *)
      List.iter
        (fun fam_name ->
          let fam = family_named fams fam_name in
          let rows = match get fam "rows" with J.List rs -> rs | _ -> [] in
          List.iter
            (fun (tenant, n) ->
              match
                List.find_opt (fun row -> get (labels_of row) "tenant" = J.Str tenant) rows
              with
              | None -> Alcotest.failf "%s: no row for %s" fam_name tenant
              | Some row ->
                Alcotest.check json (fam_name ^ " count") (J.Int n) (get (obj row) "count"))
            issued)
        [ "probdb_request_wait_seconds"; "probdb_request_compile_seconds";
          "probdb_request_eval_seconds"
        ];
      (* GC gauges were sampled. *)
      (match get (family_named fams "probdb_gc_minor_words") "rows" with
       | J.List [ row ] ->
         Alcotest.(check bool) "gc gauge positive" true
           (match get (obj row) "value" with
            | J.Int n -> n > 0
            | J.Float f -> f > 0.0
            | _ -> false)
       | _ -> Alcotest.fail "gc gauge row");
      (* Tenant rollup feeds the top client. *)
      let tenants = obj (get doc "tenants") in
      List.iter
        (fun (tenant, n) ->
          let row = obj (get tenants tenant) in
          Alcotest.check json (tenant ^ " rollup requests") (J.Int n) (get row "requests");
          Alcotest.(check bool) (tenant ^ " p95 positive") true
            (match get row "p95_ms" with J.Float f -> f > 0.0 | _ -> false))
        issued;
      (* Prometheus text: families present with per-tenant labels, buckets
         cumulative and monotone with a +Inf terminal, _count matching. *)
      let text = match get m "prometheus" with J.Str s -> s | _ -> Alcotest.fail "prometheus" in
      let contains needle =
        let nl = String.length needle and tl = String.length text in
        let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun needle ->
          if not (contains needle) then Alcotest.failf "prometheus text missing %S" needle)
        [ "# TYPE probdb_request_seconds histogram";
          "# TYPE probdb_requests_total counter";
          "# TYPE probdb_uptime_seconds gauge";
          {|probdb_request_seconds_count{tenant="acme",class="interactive",outcome="complete"} 3|};
          {|probdb_request_seconds_count{tenant="zeta",class="interactive",outcome="complete"} 2|};
          {|outcome="complete",le="+Inf"|};
          "probdb_gc_heap_words"
        ];
      (* Per labelled series: bucket counts never decrease and end at +Inf. *)
      let find_sub hay needle from =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = if i + nl > hl then None else if String.sub hay i nl = needle then Some i else go (i + 1) in
        go from
      in
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun line ->
          match (String.index_opt line ' ', find_sub line ",le=" 0) with
          | Some sp, Some le
            when String.length line > 29
                 && String.sub line 0 29 = "probdb_request_seconds_bucket" ->
            let series = String.sub line 0 le in
            let v = float_of_string (String.sub line (sp + 1) (String.length line - sp - 1)) in
            let prev = Option.value ~default:(-1.0) (Hashtbl.find_opt tbl series) in
            if v < prev then Alcotest.failf "bucket counts decreased in %s" series;
            Hashtbl.replace tbl series v
          | _ -> ())
        (String.split_on_char '\n' text);
      Alcotest.(check bool) "some bucket series seen" true (Hashtbl.length tbl > 0))

let test_metrics_disabled_and_refusals () =
  (* telemetry = false: queries answer identically, metrics errors out. *)
  with_server
    ~configure:(fun c -> { c with Serve.Server.telemetry = false })
    (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      ignore (check_ok (Serve.Client.rpc_json c (Serve.Jsonr.parse (simple_query ~id:"q" ~tenant:"t"))));
      let err = obj (Serve.Client.rpc_json c (Serve.Jsonr.parse {|{"op":"metrics","id":"m"}|})) in
      Alcotest.check json "metrics refused when plane off" (J.Bool false) (get err "ok"));
  (* Refused requests land in the refusal counter and the request
     histogram under outcome=refused. *)
  Unix.putenv "PROBDB_FAULT" "delay:shard=0,ms=5";
  Fun.protect ~finally:(fun () -> Unix.putenv "PROBDB_FAULT" "") @@ fun () ->
  with_server
    ~configure:(fun c ->
      { c with
        Serve.Server.default_tenant =
          { c.Serve.Server.default_tenant with Serve.Server.tp_max_inflight = 1 }
      })
    (fun path _t ->
      let a = Serve.Client.connect_unix ~retry_ms:2000 path in
      let b = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close a;
          Serve.Client.close b)
        (fun () ->
          Serve.Client.send a (slow_query ~id:"one" ~tenant:"t1");
          Unix.sleepf 0.1;
          let refused = obj (Serve.Client.rpc_json b (Serve.Jsonr.parse (slow_query ~id:"two" ~tenant:"t1"))) in
          Alcotest.check json "over cap refused" (J.Bool false) (get refused "ok");
          ignore (Serve.Jsonr.parse (Serve.Client.recv a));
          let m = check_ok (Serve.Client.rpc_json b (Serve.Jsonr.parse {|{"op":"metrics","id":"m"}|})) in
          let doc = obj (get m "metrics") in
          let fams = match get doc "families" with J.List fs -> fs | _ -> [] in
          let refusals = family_named fams "probdb_admission_refusals_total" in
          (match get refusals "rows" with
           | J.List (_ :: _) -> ()
           | _ -> Alcotest.fail "no refusal rows");
          let rollup = obj (get (obj (get doc "tenants")) "t1") in
          Alcotest.(check bool) "rollup counts the refusal" true
            (match get rollup "refused" with J.Int n -> n >= 1 | _ -> false)))

let test_request_log_lines () =
  let mu = Mutex.create () in
  let lines = ref [] in
  Obs.Log.set_sink ~level:Obs.Log.Info
    (Some (fun l -> Mutex.protect mu (fun () -> lines := l :: !lines)));
  Fun.protect ~finally:(fun () -> Obs.Log.set_sink None) @@ fun () ->
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let resp = check_ok (Serve.Client.rpc_json c (Serve.Jsonr.parse (simple_query ~id:"lg" ~tenant:"logged"))) in
      let corr = match get resp "corr" with J.Str s -> s | _ -> Alcotest.fail "no corr" in
      (* A parse error is logged too, at warn. *)
      ignore (Serve.Client.rpc c "not json at all");
      let captured = Mutex.protect mu (fun () -> List.rev !lines) in
      let docs = List.map (fun l -> obj (Serve.Jsonr.parse l)) captured in
      let request_lines =
        List.filter (fun d -> List.assoc_opt "event" d = Some (J.Str "request")) docs
      in
      (match
         List.find_opt (fun d -> List.assoc_opt "corr" d = Some (J.Str corr)) request_lines
       with
       | None -> Alcotest.failf "no request log line with corr %s" corr
       | Some d ->
         Alcotest.check json "log line tenant" (J.Str "logged") (get d "tenant");
         Alcotest.check json "log line op" (J.Str "query") (get d "op");
         Alcotest.check json "log line level" (J.Str "info") (get d "level");
         Alcotest.check json "log line ok" (J.Bool true) (get d "ok");
         (match get d "elapsed_ms" with
          | J.Float f when f >= 0.0 -> ()
          | J.Int i when i >= 0 -> ()
          | j -> Alcotest.failf "bad elapsed_ms %s" (J.to_string j)));
      match
        List.find_opt
          (fun d ->
            List.assoc_opt "op" d = Some (J.Str "parse")
            && List.assoc_opt "level" d = Some (J.Str "warn"))
          docs
      with
      | None -> Alcotest.fail "parse error not logged at warn"
      | Some _ -> ())

let test_query_trace_flag () =
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let plain =
        check_ok
          (Serve.Client.rpc_json c (Serve.Jsonr.parse (simple_query ~id:"p" ~tenant:"t")))
      in
      Alcotest.(check bool) "no trace without the flag" true
        (List.assoc_opt "trace" plain = None);
      let traced =
        check_ok
          (Serve.Client.rpc_json c
             (Serve.Jsonr.parse
                {|{"op":"query","id":"tr","tenant":"t","trace":true,"source":"e(a). p(X) :- e(X). ?- p(a)."}|}))
      in
      let tdoc = obj (get traced "trace") in
      let events =
        match get tdoc "traceEvents" with J.List evs -> evs | _ -> Alcotest.fail "traceEvents"
      in
      match
        List.find_opt
          (fun ev ->
            let o = obj ev in
            List.assoc_opt "name" o = Some (J.Str "request")
            && List.assoc_opt "ph" o = Some (J.Str "X"))
          events
      with
      | None -> Alcotest.fail "no enclosing request span"
      | Some ev ->
        (* The span's args carry the correlation sequence joining it to the
           response's corr id. *)
        (match List.assoc_opt "args" (obj ev) with
         | Some (J.Obj args) ->
           Alcotest.(check bool) "corr_seq stamped into span args" true
             (List.mem_assoc "corr_seq" args)
         | _ -> Alcotest.fail "request span has no args"))

(* --- soak: concurrent sessions, fault matrix, bit-identical answers ------- *)

let progen_sources =
  (* Deterministic workload: enough cases to exercise the cache and several
     sessions, small enough to stay quick. *)
  let rng = Random.State.make [| 77 |] in
  List.init 6 (fun _ -> (Workload.Progen.random_case rng).Workload.Progen.source)

let test_soak_sessions_match_cli () =
  let faults = [ ""; "delay:shard=0,ms=1"; "flaky:shard=0,after=1" ] in
  List.iter
    (fun fault ->
      Unix.putenv "PROBDB_FAULT" fault;
      Fun.protect ~finally:(fun () -> Unix.putenv "PROBDB_FAULT" "") @@ fun () ->
      (* One-shot engine references, computed under the same fault spec. *)
      let exact_refs =
        List.map
          (fun src ->
            reference_report ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact src)
          progen_sources
      in
      let sample_method = Eval.Engine.Sampling { eps = 0.15; delta = 0.1; burn_in = 50 } in
      let sample_refs =
        List.map
          (fun src ->
            reference_report ~seed:11 ~domains:1 ~semantics:Eval.Engine.Inflationary
              ~method_:sample_method src)
          progen_sources
      in
      with_server (fun path _t ->
          let sessions = 4 in
          let worker s =
            Domain.spawn (fun () ->
                let c = Serve.Client.connect_unix ~retry_ms:2000 path in
                Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
                List.mapi
                  (fun i src ->
                    let exact =
                      Serve.Client.rpc_json c
                        (J.Obj
                           [ ("op", J.Str "query");
                             ("id", J.Str (Printf.sprintf "s%d-e%d" s i));
                             ("tenant", J.Str (Printf.sprintf "tenant%d" s));
                             ("source", J.Str src)
                           ])
                    in
                    let sampled =
                      Serve.Client.rpc_json c
                        (J.Obj
                           [ ("op", J.Str "estimate");
                             ("id", J.Str (Printf.sprintf "s%d-s%d" s i));
                             ("tenant", J.Str (Printf.sprintf "tenant%d" s));
                             ("source", J.Str src);
                             ("eps", J.Float 0.15);
                             ("delta", J.Float 0.1);
                             ("burn_in", J.Int 50);
                             ("seed", J.Int 11);
                             ("domains", J.Int 1)
                           ])
                    in
                    (exact, sampled))
                  progen_sources)
          in
          let domains = List.init sessions worker in
          let per_session = List.map Domain.join domains in
          List.iteri
            (fun s results ->
              List.iteri
                (fun i (exact, sampled) ->
                  let what kind = Printf.sprintf "fault=%S s%d case %d %s" fault s i kind in
                  check_answer ~what:(what "exact") (List.nth exact_refs i) exact;
                  check_answer ~what:(what "sampled") (List.nth sample_refs i) sampled)
                results)
            per_session))
    faults

let test_soak_kill_fault_matches_cli_error () =
  (* A killed shard fails the one-shot run with Engine_error; the daemon
     must surface the same message as a protocol-level error, keep serving,
     and recover once the fault is lifted. *)
  let src = List.hd progen_sources in
  let sample_method = Eval.Engine.Sampling { eps = 0.15; delta = 0.1; burn_in = 50 } in
  Unix.putenv "PROBDB_FAULT" "kill:shard=0,after=1";
  Fun.protect ~finally:(fun () -> Unix.putenv "PROBDB_FAULT" "") @@ fun () ->
  let reference_error =
    match
      reference_report ~seed:11 ~domains:1 ~semantics:Eval.Engine.Inflationary
        ~method_:sample_method src
    with
    | _ -> Alcotest.fail "one-shot run should fail under the kill fault"
    | exception Eval.Engine.Engine_error m -> m
  in
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let req =
        J.Obj
          [ ("op", J.Str "estimate");
            ("id", J.Str "kill");
            ("source", J.Str src);
            ("eps", J.Float 0.15);
            ("delta", J.Float 0.1);
            ("burn_in", J.Int 50);
            ("seed", J.Int 11);
            ("domains", J.Int 1)
          ]
      in
      let failed = obj (Serve.Client.rpc_json c req) in
      Alcotest.check json "daemon surfaces the failure" (J.Bool false) (get failed "ok");
      Alcotest.check json "same message as the one-shot engine" (J.Str reference_error)
        (get failed "error");
      (* The session survives; lifting the fault recovers the answer. *)
      Unix.putenv "PROBDB_FAULT" "";
      let reference =
        reference_report ~seed:11 ~domains:1 ~semantics:Eval.Engine.Inflationary
          ~method_:sample_method src
      in
      check_answer ~what:"post-fault recovery" reference (Serve.Client.rpc_json c req))

(* --- proto/3: ping, error codes, idempotency dedup ------------------------ *)

let state_dir_seq = Atomic.make 0

let fresh_state_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "probdb_state_%d_%d" (Unix.getpid ())
       (Atomic.fetch_and_add state_dir_seq 1))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let code_of resp =
  match get (obj resp) "code" with
  | J.Str s -> s
  | j -> Alcotest.failf "code is not a string: %s" (J.to_string j)

let test_ping_and_error_codes () =
  with_server (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let pong = check_ok (Serve.Client.rpc_json c (Serve.Jsonr.parse {|{"op":"ping","id":"p1"}|})) in
      Alcotest.check json "pong" (J.Bool true) (get pong "pong");
      (match get pong "uptime_ms" with
       | J.Float f -> Alcotest.(check bool) "uptime non-negative" true (f >= 0.0)
       | j -> Alcotest.failf "uptime_ms: %s" (J.to_string j));
      (* every error response carries a taxonomy slug *)
      Alcotest.(check string) "parse error" "bad_request"
        (code_of (Serve.Jsonr.parse (Serve.Client.rpc c "definitely not json")));
      Alcotest.(check string) "unknown loaded name" "not_found"
        (code_of
           (Serve.Client.rpc_json c
              (Serve.Jsonr.parse {|{"op":"query","id":"q","tenant":"t","name":"nope"}|})));
      Alcotest.(check string) "missing source and name" "bad_request"
        (code_of
           (Serve.Client.rpc_json c (Serve.Jsonr.parse {|{"op":"query","id":"q2","tenant":"t"}|})));
      Alcotest.(check string) "unparsable program" "eval"
        (code_of
           (Serve.Client.rpc_json c
              (Serve.Jsonr.parse
                 {|{"op":"load","id":"l","tenant":"t","name":"x","source":"not a program ("}|}))))

let test_idem_dedup () =
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_server
    ~configure:(fun c -> { c with Serve.Server.state_dir = Some dir })
    (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let line =
        {|{"op":"query","id":"q1","tenant":"t","idem":"k-1","source":"e(a). ?- e(a)."}|}
      in
      let r1 = Serve.Jsonr.parse (Serve.Client.rpc c line) in
      let r2 = Serve.Jsonr.parse (Serve.Client.rpc c line) in
      (* The stored response comes back verbatim — same corr id, same
         payload — proving the request did not re-execute. *)
      Alcotest.check json "retry gets the stored response verbatim" r1 r2;
      let r3 =
        Serve.Jsonr.parse
          (Serve.Client.rpc c
             {|{"op":"query","id":"q1","tenant":"t","idem":"k-2","source":"e(a). ?- e(a)."}|})
      in
      Alcotest.(check bool) "a fresh key executes freshly" true
        (get (obj r3) "corr" <> get (obj r1) "corr");
      (* Keys are per tenant: another tenant's identical key is not deduped. *)
      let other =
        Serve.Jsonr.parse
          (Serve.Client.rpc c
             {|{"op":"query","id":"q1","tenant":"u","idem":"k-1","source":"e(a). ?- e(a)."}|})
      in
      Alcotest.(check bool) "tenant-scoped keys" true
        (get (obj other) "corr" <> get (obj r1) "corr");
      (* An app-level load retry journals exactly once. *)
      let load =
        {|{"op":"load","id":"l1","tenant":"t","idem":"k-load","name":"p","source":"e(a). ?- e(a)."}|}
      in
      let l1 = Serve.Jsonr.parse (Serve.Client.rpc c load) in
      let l2 = Serve.Jsonr.parse (Serve.Client.rpc c load) in
      Alcotest.check json "load retry deduped" l1 l2;
      let sdoc =
        obj (get (check_ok (Serve.Client.rpc_json c
            (Serve.Jsonr.parse {|{"op":"stats","id":"s","tenant":"t"}|}))) "stats")
      in
      Alcotest.check json "journaled exactly once" (J.Int 1)
        (get (obj (get sdoc "journal")) "appended"))

(* --- hardening: fuzz, frame bound, read deadline --------------------------- *)

let valid_request_line =
  {|{"op":"query","id":"q1","tenant":"ops","class":"batch","source":"e(a). ?- e(a).","eps":0.1,"seed":9,"idem":"ab-1"}|}

(* Random bytes: the decoder is total — Ok or Error, never an exception. *)
let prop_decode_never_raises =
  QCheck.Test.make ~name:"proto decode is total on random bytes" ~count:500
    QCheck.(string_gen_of_size Gen.(int_bound 200) Gen.(map Char.chr (int_bound 255)))
    (fun s ->
      (match Serve.Proto.parse_request s with Ok _ | Error _ -> true)
      && (match Serve.Jsonr.parse_result s with Ok _ | Error _ -> true))

(* Single-byte mutations of a valid request: decoding stays total. *)
let prop_mutation_never_raises =
  QCheck.Test.make ~name:"proto decode survives mutated valid requests" ~count:500
    QCheck.(pair (int_bound (String.length valid_request_line - 1)) (int_bound 255))
    (fun (pos, byte) ->
      let b = Bytes.of_string valid_request_line in
      Bytes.set b pos (Char.chr byte);
      match Serve.Proto.parse_request (Bytes.to_string b) with Ok _ | Error _ -> true)

(* Mid-frame truncations of a valid request: ditto. *)
let prop_truncation_never_raises =
  QCheck.Test.make ~name:"proto decode survives truncated requests" ~count:200
    QCheck.(int_bound (String.length valid_request_line))
    (fun n ->
      match Serve.Proto.parse_request (String.sub valid_request_line 0 n) with
      | Ok _ | Error _ -> true)

let test_handle_line_fuzz () =
  (* The full request path: whatever bytes arrive, handle_line answers an
     envelope (never raises), and the server still works afterwards. *)
  with_server (fun path t ->
      let rng = Random.State.make [| 42 |] in
      let check_envelope line =
        match Serve.Server.handle_line t line with
        | J.Obj fields ->
          Alcotest.(check bool)
            (Printf.sprintf "envelope has ok for %S" line)
            true
            (List.mem_assoc "ok" fields)
        | j -> Alcotest.failf "non-object response %s for %S" (J.to_string j) line
      in
      for _ = 1 to 300 do
        let len = Random.State.int rng 120 in
        check_envelope (String.init len (fun _ -> Char.chr (Random.State.int rng 256)))
      done;
      for _ = 1 to 300 do
        let b = Bytes.of_string valid_request_line in
        Bytes.set b
          (Random.State.int rng (Bytes.length b))
          (Char.chr (Random.State.int rng 256));
        check_envelope (Bytes.to_string b)
      done;
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      ignore (check_ok (Serve.Client.rpc_json c (Serve.Jsonr.parse {|{"op":"ping","id":"p"}|}))))

let test_oversized_frame () =
  with_server
    ~configure:(fun c -> { c with Serve.Server.max_frame = 256 })
    (fun path _t ->
      let a = Serve.Client.connect_unix ~retry_ms:2000 path in
      let b = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close a;
          Serve.Client.close b)
        (fun () ->
          let resp = Serve.Jsonr.parse (Serve.Client.rpc a (String.make 1000 'x')) in
          Alcotest.check json "refused" (J.Bool false) (get (obj resp) "ok");
          Alcotest.(check string) "frame_too_large" "frame_too_large" (code_of resp);
          (try
             ignore (Serve.Client.recv a);
             Alcotest.fail "oversized session should be closed"
           with End_of_file -> ());
          (* other sessions are unaffected *)
          ignore
            (check_ok (Serve.Client.rpc_json b (Serve.Jsonr.parse {|{"op":"ping","id":"p"}|})))))

(* Reads a full line from a raw fd, with a wall bound so a server bug
   cannot hang the suite. *)
let read_line_fd fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if String.contains (Buffer.contents buf) '\n' then
      List.hd (String.split_on_char '\n' (Buffer.contents buf))
    else
      match Unix.select [ fd ] [] [] 10.0 with
      | [], _, _ -> Alcotest.fail "no response within 10 s"
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "connection closed before a response line"
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ())
  in
  go ()

let test_stalled_frame_times_out () =
  with_server
    ~configure:(fun c -> { c with Serve.Server.read_deadline_ms = 150. })
    (fun path _t ->
      (* Session b idles with an empty buffer the whole time: idle
         connections are free, only a started frame is deadlined. *)
      let b = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close b) @@ fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          let partial = {|{"op":"ping","id|} in
          ignore (Unix.write_substring fd partial 0 (String.length partial));
          let resp = Serve.Jsonr.parse (read_line_fd fd) in
          Alcotest.check json "stall refused" (J.Bool false) (get (obj resp) "ok");
          Alcotest.(check string) "timeout code" "timeout" (code_of resp);
          match Unix.read fd (Bytes.create 64) 0 64 with
          | 0 -> ()
          | _ -> Alcotest.fail "stalled session should be closed after the error");
      ignore (check_ok (Serve.Client.rpc_json b (Serve.Jsonr.parse {|{"op":"ping","id":"p"}|}))))

(* --- journal: roundtrip, torn tails, the crash-point matrix ---------------- *)

let jentry i =
  { Serve.Journal.tenant = "t";
    name = Printf.sprintf "p%d" i;
    source = Printf.sprintf "e(a%d). ?- e(a%d)." i i
  }

(* Last-wins view of a replayed entry list, as the server's program table
   sees it. *)
let final_map entries =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      Hashtbl.replace tbl (e.Serve.Journal.tenant, e.Serve.Journal.name) e.Serve.Journal.source)
    entries;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let test_journal_roundtrip () =
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let j, entries, replay = Serve.Journal.open_ ~dir () in
  Alcotest.(check int) "fresh: no entries" 0 (List.length entries);
  Alcotest.(check int) "fresh: nothing truncated" 0 replay.Serve.Journal.truncated_bytes;
  List.iter (fun i -> Serve.Journal.append j (jentry i)) [ 1; 2; 3 ];
  let stats = Serve.Journal.stats j in
  Alcotest.(check int) "appended" 3 (List.assoc "appended" stats);
  Alcotest.(check bool) "fsync before every ack" true (List.assoc "fsyncs" stats >= 3);
  Serve.Journal.close j;
  let j2, entries2, replay2 = Serve.Journal.open_ ~dir () in
  Serve.Journal.close j2;
  Alcotest.(check int) "replayed records" 3 replay2.Serve.Journal.journal_records;
  Alcotest.(check int) "no snapshot yet" 0 replay2.Serve.Journal.snapshot_entries;
  Alcotest.(check int) "all entries back" 3 (List.length (final_map entries2));
  (* Compaction folds the journal into a snapshot and truncates the wal. *)
  let j3, _, _ = Serve.Journal.open_ ~compact_every:2 ~dir () in
  Serve.Journal.append j3 (jentry 4);
  (* live = 3 replayed + 1 appended >= 2: compacted *)
  let stats3 = Serve.Journal.stats j3 in
  Alcotest.(check bool) "compacted" true (List.assoc "compactions" stats3 >= 1);
  Alcotest.(check int) "wal reset after compaction" 0 (List.assoc "live_records" stats3);
  Serve.Journal.close j3;
  let j4, entries4, replay4 = Serve.Journal.open_ ~dir () in
  Serve.Journal.close j4;
  Alcotest.(check int) "snapshot carries everything" 4 replay4.Serve.Journal.snapshot_entries;
  Alcotest.(check int) "wal empty after compaction" 0 replay4.Serve.Journal.journal_records;
  Alcotest.(check int) "state intact" 4 (List.length (final_map entries4))

let test_journal_torn_tail () =
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let j, _, _ = Serve.Journal.open_ ~dir () in
  List.iter (fun i -> Serve.Journal.append j (jentry i)) [ 1; 2 ];
  Serve.Journal.close j;
  let wal = Filename.concat dir "journal.wal" in
  (* A crash mid-write leaves a torn record: here, 7 bytes that are not
     even a complete frame header. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 wal in
  output_string oc "garbage";
  close_out oc;
  let j2, entries2, replay2 = Serve.Journal.open_ ~dir () in
  Serve.Journal.close j2;
  Alcotest.(check int) "valid prefix replayed" 2 replay2.Serve.Journal.journal_records;
  Alcotest.(check int) "torn tail dropped" 7 replay2.Serve.Journal.truncated_bytes;
  Alcotest.(check int) "state is the prefix" 2 (List.length (final_map entries2));
  (* The truncation is physical: a second replay sees a clean file. *)
  let j3, _, replay3 = Serve.Journal.open_ ~dir () in
  Alcotest.(check int) "tail gone on the second open" 0 replay3.Serve.Journal.truncated_bytes;
  (* Appends continue cleanly after a truncated recovery. *)
  Serve.Journal.append j3 (jentry 3);
  Serve.Journal.close j3;
  let j4, entries4, _ = Serve.Journal.open_ ~dir () in
  Serve.Journal.close j4;
  Alcotest.(check int) "append after recovery" 3 (List.length (final_map entries4));
  (* A flipped payload byte fails the CRC: the record and everything after
     it are dropped, never replayed as garbage. *)
  let contents =
    In_channel.with_open_bin wal (fun ic -> really_input_string ic (in_channel_length ic))
  in
  let b = Bytes.of_string contents in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
  Out_channel.with_open_bin wal (fun oc -> Out_channel.output_bytes oc b);
  let j5, entries5, replay5 = Serve.Journal.open_ ~dir () in
  Serve.Journal.close j5;
  Alcotest.(check int) "corrupt record dropped" 2 replay5.Serve.Journal.journal_records;
  Alcotest.(check bool) "corruption counted" true (replay5.Serve.Journal.truncated_bytes > 0);
  Alcotest.(check int) "state is the valid prefix" 2 (List.length (final_map entries5))

(* The crash-point matrix: arm each injected crash point, observe the
   simulated death, replay — the recovered state is exactly the pre-op or
   the post-op database, never a torn third state. *)
let test_journal_crash_matrix () =
  let base = { Serve.Journal.tenant = "t"; name = "base"; source = "e(a). ?- e(a)." } in
  let next = { Serve.Journal.tenant = "t"; name = "next"; source = "e(b). ?- e(b)." } in
  let pre_op = final_map [ base ] in
  let post_op = final_map [ base; next ] in
  List.iter
    (fun (point, expect_post) ->
      let dir = fresh_state_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let j0, _, _ = Serve.Journal.open_ ~dir () in
      Serve.Journal.append j0 base;
      Serve.Journal.close j0;
      let fault = Guard.Fault.of_string ("journal-crash:point=" ^ point) in
      (* compact_every 2 so the rename points actually fire: base (replayed)
         + next reaches the compaction threshold. *)
      let j1, _, _ = Serve.Journal.open_ ~fault ~compact_every:2 ~dir () in
      (try
         Serve.Journal.append j1 next;
         Alcotest.failf "%s: expected the injected crash" point
       with Guard.Fault.Injected _ -> ());
      (* The crashed process never closes cleanly; recovery starts from
         whatever the disk holds. *)
      let j2, entries, _ = Serve.Journal.open_ ~dir () in
      Serve.Journal.close j2;
      let recovered = final_map entries in
      let expected = if expect_post then post_op else pre_op in
      if recovered <> expected then
        Alcotest.failf "%s: recovered a torn third state (%d entries)" point
          (List.length recovered);
      (* No snapshot temp orphans survive recovery. *)
      let orphans =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> String.starts_with ~prefix:"snapshot.bin.tmp." f)
      in
      Alcotest.(check (list string)) (point ^ ": temp orphans swept") [] orphans)
    [ ("pre-write", false);
      ("mid-record", false);
      ("pre-rename", true);
      ("post-rename", true)
    ]

(* --- durability through the server: restart replay, kill/restart soak ------ *)

let reach_source =
  "edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z). ?- path(a,c)."

let test_restart_replays_state () =
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let configure c = { c with Serve.Server.state_dir = Some dir } in
  let exact_ref =
    reference_report ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact reach_source
  in
  let est_method = Eval.Engine.Sampling { eps = 0.1; delta = 0.1; burn_in = 200 } in
  let est_ref =
    reference_report ~seed:5 ~semantics:Eval.Engine.Inflationary ~method_:est_method
      reach_source
  in
  with_server ~configure (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      ignore
        (check_ok
           (Serve.Client.rpc_json c
              (J.Obj
                 [ ("op", J.Str "load");
                   ("id", J.Str "l1");
                   ("tenant", J.Str "t1");
                   ("name", J.Str "reach");
                   ("source", J.Str reach_source)
                 ])));
      check_answer ~what:"pre-restart exact" exact_ref
        (Serve.Client.rpc_json c
           (Serve.Jsonr.parse {|{"op":"query","id":"q1","tenant":"t1","name":"reach"}|})));
  (* A brand-new server on the same state dir: the program is back without
     being re-sent, and answers are Q-identical. *)
  with_server ~configure (fun path _t ->
      let c = Serve.Client.connect_unix ~retry_ms:2000 path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      check_answer ~what:"post-restart exact" exact_ref
        (Serve.Client.rpc_json c
           (Serve.Jsonr.parse {|{"op":"query","id":"q2","tenant":"t1","name":"reach"}|}));
      (* fixed-seed estimates are draw-identical across the restart *)
      check_answer ~what:"post-restart estimate" est_ref
        (Serve.Client.rpc_json c
           (Serve.Jsonr.parse
              {|{"op":"estimate","id":"q3","tenant":"t1","name":"reach","eps":0.1,"delta":0.1,"seed":5}|}));
      (* replay counters are exported in stats and the telemetry plane *)
      let sdoc =
        obj (get (check_ok (Serve.Client.rpc_json c
            (Serve.Jsonr.parse {|{"op":"stats","id":"s","tenant":"t1"}|}))) "stats")
      in
      Alcotest.check json "one record replayed" (J.Int 1)
        (get (obj (get sdoc "journal")) "replayed_records");
      let m =
        check_ok
          (Serve.Client.rpc_json c (Serve.Jsonr.parse {|{"op":"metrics","id":"m","tenant":"t1"}|}))
      in
      let text = match get m "prometheus" with J.Str s -> s | _ -> Alcotest.fail "prometheus" in
      List.iter
        (fun needle ->
          let nl = String.length needle and tl = String.length text in
          let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
          if not (go 0) then Alcotest.failf "prometheus text missing %S" needle)
        [ "probdb_journal_replayed_records 1"; "probdb_journal_appends_total" ])

(* The in-process kill/restart soak: generations of the daemon die — one
   of them by an injected crash in the middle of a journal append — and
   every restart replays to a state whose answers equal the fault-free
   run.  (The CI chaos smoke does the same with real SIGKILLs.) *)
let test_kill_restart_soak () =
  let dir = fresh_state_dir () in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "PROBDB_FAULT" "";
      rm_rf dir)
    (fun () ->
      let sources = List.filteri (fun i _ -> i < 3) progen_sources in
      let exact_refs =
        List.map
          (fun src ->
            reference_report ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact src)
          sources
      in
      let est_method = Eval.Engine.Sampling { eps = 0.15; delta = 0.1; burn_in = 50 } in
      let est_refs =
        List.map
          (fun src ->
            reference_report ~seed:11 ~domains:1 ~semantics:Eval.Engine.Inflationary
              ~method_:est_method src)
          sources
      in
      let configure c = { c with Serve.Server.state_dir = Some dir } in
      let load_req i src =
        J.Obj
          [ ("op", J.Str "load");
            ("id", J.Str (Printf.sprintf "l%d" i));
            ("tenant", J.Str "soak");
            ("name", J.Str (Printf.sprintf "n%d" i));
            ("source", J.Str src)
          ]
      in
      (* Generation 1: loads n0 and n1, dies (clean shutdown — the state
         must not depend on how the process exits). *)
      with_server ~configure (fun path _t ->
          let c = Serve.Client.connect_unix ~retry_ms:2000 path in
          Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
          ignore (check_ok (Serve.Client.rpc_json c (load_req 0 (List.nth sources 0))));
          ignore (check_ok (Serve.Client.rpc_json c (load_req 1 (List.nth sources 1)))));
      (* Generation 2: crashes in the middle of journaling n2 — the torn
         record hits the disk, the session dies without an ack. *)
      Unix.putenv "PROBDB_FAULT" "journal-crash:point=mid-record";
      with_server ~configure (fun path _t ->
          Unix.putenv "PROBDB_FAULT" "";
          let c = Serve.Client.connect_unix ~retry_ms:2000 path in
          Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
          Serve.Client.send c (Obs.Json.to_string (load_req 2 (List.nth sources 2)));
          (try
             ignore (Serve.Client.recv c);
             Alcotest.fail "the crashed load must not be acked"
           with End_of_file -> ());
          (* the daemon itself survives the simulated crash *)
          let c2 = Serve.Client.connect_unix ~retry_ms:2000 path in
          Fun.protect ~finally:(fun () -> Serve.Client.close c2) @@ fun () ->
          ignore (check_ok (Serve.Client.rpc_json c2 (Serve.Jsonr.parse {|{"op":"ping","id":"p"}|}))));
      (* Generation 3: recovery truncates the torn record; the unacked load
         is re-issued (the client's contract: no ack, no durability). *)
      with_server ~configure (fun path _t ->
          let c = Serve.Client.connect_unix ~retry_ms:2000 path in
          Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
          let sdoc =
            obj (get (check_ok (Serve.Client.rpc_json c
                (Serve.Jsonr.parse {|{"op":"stats","id":"s","tenant":"soak"}|}))) "stats")
          in
          Alcotest.(check bool) "torn record truncated on replay" true
            (match get (obj (get sdoc "journal")) "truncated_bytes" with
             | J.Int n -> n > 0
             | _ -> false);
          ignore (check_ok (Serve.Client.rpc_json c (load_req 2 (List.nth sources 2)))));
      (* Final generation: every answer equals the fault-free references. *)
      with_server ~configure (fun path _t ->
          let c = Serve.Client.connect_unix ~retry_ms:2000 path in
          Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
          List.iteri
            (fun i _src ->
              let what kind = Printf.sprintf "soak case %d %s" i kind in
              let exact =
                Serve.Client.rpc_json c
                  (J.Obj
                     [ ("op", J.Str "query");
                       ("id", J.Str (Printf.sprintf "e%d" i));
                       ("tenant", J.Str "soak");
                       ("name", J.Str (Printf.sprintf "n%d" i))
                     ])
              in
              check_answer ~what:(what "exact") (List.nth exact_refs i) exact;
              let sampled =
                Serve.Client.rpc_json c
                  (J.Obj
                     [ ("op", J.Str "estimate");
                       ("id", J.Str (Printf.sprintf "s%d" i));
                       ("tenant", J.Str "soak");
                       ("name", J.Str (Printf.sprintf "n%d" i));
                       ("eps", J.Float 0.15);
                       ("delta", J.Float 0.1);
                       ("burn_in", J.Int 50);
                       ("seed", J.Int 11);
                       ("domains", J.Int 1)
                     ])
              in
              check_answer ~what:(what "estimate") (List.nth est_refs i) sampled)
            sources))

(* --- resilient client: backoff policy, reconnect, deadlines ---------------- *)

let test_backoff_monotone () =
  let module B = Serve.Client.Backoff in
  let b = B.make ~base_ms:10. ~cap_ms:100. ~budget_ms:100. ~seed:7 () in
  (match B.next b ~now_ns:1_000_000_000 with
   | B.Sleep_ms ms -> Alcotest.(check bool) "first sleep in budget" true (ms > 0. && ms <= 100.)
   | B.Give_up -> Alcotest.fail "fresh policy must sleep");
  (* budget spent by clock advance *)
  (match B.next b ~now_ns:(1_000_000_000 + 200_000_000) with
   | B.Give_up -> ()
   | B.Sleep_ms _ -> Alcotest.fail "budget must be spent after 200 ms");
  (* the monotone regression: a backwards clock reading cannot stretch the
     retry window — the high-water latch keeps the budget spent *)
  (match B.next b ~now_ns:0 with
   | B.Give_up -> ()
   | B.Sleep_ms _ -> Alcotest.fail "backwards reading stretched the retry window");
  Alcotest.(check int) "one attempt granted" 1 (B.attempts b);
  (* sleeps clamp to the remaining budget *)
  let b2 = B.make ~base_ms:1_000. ~cap_ms:5_000. ~budget_ms:50. ~seed:1 () in
  (match B.next b2 ~now_ns:0 with
   | B.Sleep_ms ms -> Alcotest.(check bool) "clamped to remaining budget" true (ms <= 50.)
   | B.Give_up -> Alcotest.fail "fresh policy must sleep");
  (* jitter is deterministic under a fixed seed *)
  let sleeps seed =
    let b = B.make ~base_ms:10. ~cap_ms:100. ~budget_ms:1_000. ~seed () in
    List.init 4 (fun i ->
        match B.next b ~now_ns:(i * 1_000_000) with
        | B.Sleep_ms ms -> ms
        | B.Give_up -> -1.)
  in
  Alcotest.(check (list (float 0.0))) "deterministic jitter" (sleeps 3) (sleeps 3)

let test_connect_retry_monotone () =
  let missing =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "probdbd_nosuch_%d.sock" (Unix.getpid ()))
  in
  (* The window is real: a dead socket stops being retried once the
     budget is spent. *)
  let t0 = Unix.gettimeofday () in
  (try
     ignore (Serve.Client.connect ~retry_ms:200 (Unix.ADDR_UNIX missing));
     Alcotest.fail "expected the connect to fail"
   with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ());
  Alcotest.(check bool) "window bounded in wall time" true (Unix.gettimeofday () -. t0 < 5.0);
  (* The monotone regression: deadline and polls read the same latched
     clock, so neither the clock's inherent offset from wall time nor a
     forward step collapses the retry window — a server that appears
     150 ms into the window is still reached.  (With the old
     gettimeofday-vs-monotone mix, the deadline compares against a clock
     billions of ns away and the window collapses to a single attempt.) *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "probdbd_test_%d_%d.sock" (Unix.getpid ())
         (Atomic.fetch_and_add next_sock 1))
  in
  Obs.advance_ns 1_000_000_000;
  let srv =
    Domain.spawn (fun () ->
        Unix.sleepf 0.15;
        let t = Serve.Server.create (Serve.Server.default_config (Serve.Server.Unix_sock path)) in
        let d = Domain.spawn (fun () -> Serve.Server.serve_forever t) in
        (t, d))
  in
  let c = Serve.Client.connect ~retry_ms:5_000 (Unix.ADDR_UNIX path) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Client.close c;
      let t, d = Domain.join srv in
      Serve.Server.shutdown t;
      Domain.join d)
    (fun () ->
      ignore (check_ok (Serve.Client.rpc_json c (Serve.Jsonr.parse {|{"op":"ping","id":"p"}|}))))

let resilient_query ~id =
  J.Obj
    [ ("op", J.Str "query");
      ("id", J.Str id);
      ("tenant", J.Str "r");
      ("source", J.Str reach_source)
    ]

let test_resilient_reconnect_across_restart () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "probdbd_test_%d_%d.sock" (Unix.getpid ())
         (Atomic.fetch_and_add next_sock 1))
  in
  let cfg = Serve.Server.default_config (Serve.Server.Unix_sock path) in
  let exact_ref =
    reference_report ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact reach_source
  in
  let t1 = Serve.Server.create cfg in
  let d1 = Domain.spawn (fun () -> Serve.Server.serve_forever t1) in
  let r = Serve.Client.resilient_connect ~retry_budget_ms:5_000. ~seed:3 (Unix.ADDR_UNIX path) in
  Fun.protect ~finally:(fun () -> Serve.Client.resilient_close r) @@ fun () ->
  check_answer ~what:"before the restart" exact_ref
    (Serve.Client.resilient_rpc r (resilient_query ~id:"r1"));
  Serve.Server.shutdown t1;
  Domain.join d1;
  (* A non-idempotent op against the dead server raises instead of being
     re-issued blind. *)
  (try
     ignore
       (Serve.Client.resilient_rpc r
          (J.Obj
             [ ("op", J.Str "load");
               ("id", J.Str "l");
               ("tenant", J.Str "r");
               ("name", J.Str "p");
               ("source", J.Str "e(a). ?- e(a).")
             ]));
     Alcotest.fail "expected the load to raise with the server down"
   with
  | End_of_file | Unix.Unix_error _ | Serve.Client.Unavailable _ -> ());
  (* Server generation 2 on the same address: the idempotent query rides
     an automatic reconnect. *)
  let t2 = Serve.Server.create cfg in
  let d2 = Domain.spawn (fun () -> Serve.Server.serve_forever t2) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown t2;
      Domain.join d2)
    (fun () ->
      check_answer ~what:"after the restart" exact_ref
        (Serve.Client.resilient_rpc r (resilient_query ~id:"r2")));
  (* With no server at all, the retry budget runs out into Unavailable. *)
  let r2 =
    try
      Some
        (Serve.Client.resilient_connect ~retry_budget_ms:200. ~seed:4 (Unix.ADDR_UNIX path))
    with Serve.Client.Unavailable _ -> None
  in
  match r2 with
  | None -> ()
  | Some r2 ->
    Fun.protect ~finally:(fun () -> Serve.Client.resilient_close r2) @@ fun () ->
    (try
       ignore (Serve.Client.resilient_rpc r2 (resilient_query ~id:"r3"));
       Alcotest.fail "expected Unavailable with no server"
     with Serve.Client.Unavailable _ | Unix.Unix_error _ | End_of_file -> ())

let test_resilient_deadline_timeout () =
  Unix.putenv "PROBDB_FAULT" "resp-delay:ms=500";
  Fun.protect ~finally:(fun () -> Unix.putenv "PROBDB_FAULT" "") @@ fun () ->
  with_server (fun path _t ->
      Unix.putenv "PROBDB_FAULT" "";
      let r =
        Serve.Client.resilient_connect ~deadline_ms:100. ~retry_budget_ms:2_000. ~seed:1
          (Unix.ADDR_UNIX path)
      in
      Fun.protect ~finally:(fun () -> Serve.Client.resilient_close r) @@ fun () ->
      try
        ignore (Serve.Client.resilient_rpc r (J.Obj [ ("op", J.Str "ping"); ("id", J.Str "p") ]));
        Alcotest.fail "expected Timeout under the delayed-response fault"
      with Serve.Client.Timeout _ -> ())

let test_resilient_rides_write_faults () =
  let exact_ref =
    reference_report ~semantics:Eval.Engine.Inflationary ~method_:Eval.Engine.Exact reach_source
  in
  List.iter
    (fun fault ->
      Unix.putenv "PROBDB_FAULT" fault;
      Fun.protect ~finally:(fun () -> Unix.putenv "PROBDB_FAULT" "") @@ fun () ->
      with_server (fun path _t ->
          Unix.putenv "PROBDB_FAULT" "";
          let r =
            Serve.Client.resilient_connect ~retry_budget_ms:5_000. ~seed:6
              (Unix.ADDR_UNIX path)
          in
          Fun.protect ~finally:(fun () -> Serve.Client.resilient_close r) @@ fun () ->
          (* Every connection serves at most one complete response before the
             fault bites; each query rides a reconnect + idempotent re-issue
             (for the torn write, the server's idem dedup answers the retry
             from its stored-response table). *)
          for i = 1 to 3 do
            check_answer
              ~what:(Printf.sprintf "fault=%s query %d" fault i)
              exact_ref
              (Serve.Client.resilient_rpc r (resilient_query ~id:(Printf.sprintf "w%d" i)))
          done))
    [ "conn-drop:after=1"; "partial-write:after=1" ]

(* --- run ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [ ( "jsonr",
        [ Alcotest.test_case "emit/parse roundtrip" `Quick test_jsonr_roundtrip;
          Alcotest.test_case "literals, escapes, rejects" `Quick test_jsonr_literals
        ] );
      ( "proto",
        [ Alcotest.test_case "request decoding" `Quick test_proto_decode ] );
      ( "cache",
        [ Alcotest.test_case "hits, misses, fingerprints" `Quick test_plan_cache ] );
      ( "server",
        [ Alcotest.test_case "load/query/estimate/stats/cancel" `Quick test_server_end_to_end;
          Alcotest.test_case "invalid sampling parameters refused" `Quick
            test_invalid_sampling_params;
          Alcotest.test_case "lumped method refused" `Quick test_lumped_method_refused;
          Alcotest.test_case "several ?- events are a bad request" `Quick
            test_several_events_refused;
          Alcotest.test_case "1/12 answer bit-identical to Engine.run" `Quick
            test_float_answer_bit_identical;
          Alcotest.test_case "retired magic key ignored" `Quick test_magic_key_ignored;
          Alcotest.test_case "cancel an in-flight request" `Quick test_cancel_inflight;
          Alcotest.test_case "per-tenant admission control" `Quick test_admission_control;
          Alcotest.test_case "per-tenant budget degrades per class" `Quick
            test_tenant_budget_degrades;
          Alcotest.test_case "retired max_states key ignored" `Quick test_max_states_key_ignored;
          Alcotest.test_case "tenant state budget: fallback or partial per class" `Quick
            test_tenant_state_budget_per_class;
          Alcotest.test_case "non-positive budgets refused at startup" `Quick
            test_bad_budget_refused_at_create
        ] );
      ( "telemetry",
        [ Alcotest.test_case "metrics op: JSON + Prometheus, exact counts" `Quick test_metrics_op;
          Alcotest.test_case "plane off and refusal accounting" `Quick
            test_metrics_disabled_and_refusals;
          Alcotest.test_case "structured request logs with corr ids" `Quick
            test_request_log_lines;
          Alcotest.test_case "per-request inline trace" `Quick test_query_trace_flag
        ] );
      ( "soak",
        [ Alcotest.test_case "4 sessions bit-identical to one-shot (fault matrix)" `Slow
            test_soak_sessions_match_cli;
          Alcotest.test_case "kill fault surfaces the one-shot error" `Quick
            test_soak_kill_fault_matches_cli_error
        ] );
      ( "proto3",
        [ Alcotest.test_case "ping op and error taxonomy codes" `Quick
            test_ping_and_error_codes;
          Alcotest.test_case "idempotency dedup: verbatim stored responses" `Quick
            test_idem_dedup
        ] );
      ( "hardening",
        ([ Alcotest.test_case "handle_line total under byte fuzz" `Quick
             test_handle_line_fuzz;
           Alcotest.test_case "oversized frame refused and closed" `Quick
             test_oversized_frame;
           Alcotest.test_case "mid-frame stall hits the read deadline" `Quick
             test_stalled_frame_times_out
         ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_decode_never_raises; prop_mutation_never_raises;
              prop_truncation_never_raises
            ]) );
      ( "journal",
        [ Alcotest.test_case "append/replay roundtrip and compaction" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "torn tails and CRC failures truncate cleanly" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "crash-point matrix: pre-op or post-op, never torn" `Quick
            test_journal_crash_matrix
        ] );
      ( "durability",
        [ Alcotest.test_case "restart replays state Q-identically" `Quick
            test_restart_replays_state;
          Alcotest.test_case "kill/restart soak equals the fault-free run" `Slow
            test_kill_restart_soak
        ] );
      ( "resilient",
        [ Alcotest.test_case "backoff: latched clock, budget, jitter" `Quick
            test_backoff_monotone;
          Alcotest.test_case "connect retry window on the monotone clock" `Quick
            test_connect_retry_monotone;
          Alcotest.test_case "reconnect across a server restart" `Quick
            test_resilient_reconnect_across_restart;
          Alcotest.test_case "per-request deadline raises Timeout" `Quick
            test_resilient_deadline_timeout;
          Alcotest.test_case "rides conn-drop and partial-write faults" `Quick
            test_resilient_rides_write_faults
        ] )
    ]
