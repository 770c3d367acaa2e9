(* Resource governance: budgets, graceful degradation, checkpoint/resume
   and deterministic fault injection (Guard + the governed Pool paths). *)

module Pool = Eval.Pool
module Engine = Eval.Engine

let parse = Lang.Parser.parse

(* --- guard basics ------------------------------------------------------- *)

let test_unlimited_is_free () =
  let g = Guard.unlimited in
  Alcotest.(check bool) "inactive" false (Guard.active g);
  Alcotest.(check bool) "no state tick" true (Guard.state_tick g = None);
  Alcotest.(check bool) "no sample tick" true (Guard.sample_tick g = None);
  Alcotest.(check bool) "no stop check" true (Guard.stop_check g = None);
  Alcotest.(check int) "nothing reached" 0 (Guard.states_reached g)

let test_state_budget () =
  let g = Guard.make ~max_states:5 () in
  let tick = Option.get (Guard.state_tick g) in
  for _ = 1 to 5 do
    tick ()
  done;
  Alcotest.(check int) "five charged" 5 (Guard.states_reached g);
  (try
     tick ();
     Alcotest.fail "expected Exhausted"
   with Guard.Exhausted (Guard.States { budget; reached }) ->
     Alcotest.(check int) "budget" 5 budget;
     Alcotest.(check int) "reached" 6 reached);
  Alcotest.(check string) "slug" "state-budget"
    (Guard.reason_slug (Guard.States { budget = 5; reached = 6 }))

let test_sample_budget () =
  let g = Guard.make ~max_samples:3 () in
  let tick = Option.get (Guard.sample_tick g) in
  for _ = 1 to 3 do
    tick ()
  done;
  (try
     tick ();
     Alcotest.fail "expected Exhausted"
   with Guard.Exhausted (Guard.Samples { budget; completed }) ->
     Alcotest.(check int) "budget" 3 budget;
     (* The overflowing draw is not a completed sample. *)
     Alcotest.(check int) "completed" 3 completed);
  Alcotest.(check string) "slug" "sample-budget"
    (Guard.reason_slug (Guard.Samples { budget = 3; completed = 4 }))

let test_deadline () =
  let g = Guard.make ~deadline_ms:0.001 () in
  (* A 1 us deadline is past by the first poll, 2 ms later. *)
  Unix.sleepf 0.002;
  Alcotest.(check bool) "exceeded" true (Guard.deadline_exceeded g);
  let check = Option.get (Guard.stop_check g) in
  (try
     check ();
     Alcotest.fail "expected Exhausted"
   with Guard.Exhausted (Guard.Deadline { budget_ms; elapsed_ms }) ->
     Alcotest.(check (float 0.0)) "budget" 0.001 budget_ms;
     Alcotest.(check bool) "elapsed past the budget" true (elapsed_ms > 0.001));
  Alcotest.(check string) "slug" "deadline" (Guard.reason_slug (Guard.deadline_reason g))

(* The deadline clock must be the latched monotone Obs.now_ns, not
   gettimeofday: advancing the high-water clock (as an NTP step landing on
   a resident server would) fires the deadline, and remaining budget is
   clamped at zero rather than ever reading negative. *)
let test_monotonic_deadline () =
  let g = Guard.make ~deadline_ms:50.0 () in
  (match Guard.remaining_ms g with
   | None -> Alcotest.fail "guard has a deadline"
   | Some r ->
     Alcotest.(check bool) "fresh budget in [0, 50]" true (r >= 0.0 && r <= 50.0));
  Alcotest.(check bool) "not yet exceeded" false (Guard.deadline_exceeded g);
  (* Step the latched clock 5 s forward — far past the 50 ms budget. *)
  Obs.advance_ns 5_000_000_000;
  Alcotest.(check bool) "latched step fires the deadline" true (Guard.deadline_exceeded g);
  (match Guard.remaining_ms g with
   | None -> Alcotest.fail "guard has a deadline"
   | Some r -> Alcotest.(check (float 0.0)) "remaining clamps at zero" 0.0 r);
  (try
     (Option.get (Guard.stop_check g)) ();
     Alcotest.fail "expected Exhausted"
   with Guard.Exhausted (Guard.Deadline { budget_ms; elapsed_ms }) ->
     Alcotest.(check (float 0.0)) "budget" 50.0 budget_ms;
     Alcotest.(check bool) "elapsed covers the step" true (elapsed_ms >= 4000.0));
  (* A guard born after the step sees a fresh, non-negative budget: two
     monotone readings can never produce a negative difference. *)
  let g2 = Guard.make ~deadline_ms:1_000_000.0 () in
  (match Guard.remaining_ms g2 with
   | None -> Alcotest.fail "guard has a deadline"
   | Some r ->
     Alcotest.(check bool) "post-step guard non-negative" true (r >= 0.0 && r <= 1_000_000.0));
  Alcotest.(check bool) "post-step guard not exceeded" false (Guard.deadline_exceeded g2)

(* A budget or deadline that is not positive is a usage error, refused
   before any run starts. *)
let test_nonpositive_refused () =
  List.iter
    (fun (what, make) ->
      match make () with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [ ("state budget 0", fun () -> Guard.make ~max_states:0 ());
      ("state budget -5", fun () -> Guard.make ~max_states:(-5) ());
      ("sample budget -3", fun () -> Guard.make ~max_samples:(-3) ());
      ("deadline 0 ms", fun () -> Guard.make ~deadline_ms:0. ());
      ("deadline -1 ms", fun () -> Guard.make ~deadline_ms:(-1.) ());
      ("deadline nan", fun () -> Guard.make ~deadline_ms:Float.nan ())
    ]

let test_cancel () =
  Guard.clear_interrupt ();
  let g = Guard.make () in
  Alcotest.(check bool) "fresh guard not cancelled" false (Guard.cancelled g);
  (Option.get (Guard.stop_check g)) ();
  Guard.cancel g;
  Alcotest.(check bool) "cancelled" true (Guard.cancelled g);
  (try
     (Option.get (Guard.stop_check g)) ();
     Alcotest.fail "expected Exhausted"
   with Guard.Exhausted Guard.Interrupted -> ());
  (* Per-guard: the process-global flag and other guards are untouched. *)
  Alcotest.(check bool) "global flag untouched" false (Guard.interrupted ());
  let g2 = Guard.make () in
  (Option.get (Guard.stop_check g2)) ()

let test_interrupt_flag () =
  Guard.clear_interrupt ();
  Alcotest.(check bool) "clear" false (Guard.interrupted ());
  Guard.request_interrupt ();
  Alcotest.(check bool) "set" true (Guard.interrupted ());
  let g = Guard.make () in
  Alcotest.(check bool) "budgetless guard is active" true (Guard.active g);
  (try
     (Option.get (Guard.stop_check g)) ();
     Alcotest.fail "expected Exhausted"
   with Guard.Exhausted Guard.Interrupted -> ());
  Guard.clear_interrupt ();
  (Option.get (Guard.stop_check g)) ();
  Alcotest.(check string) "slug" "interrupted" (Guard.reason_slug Guard.Interrupted)

(* --- chain exploration under a state budget ----------------------------- *)

(* A deterministic line chain 0 -> 1 -> ... -> 9 -> 9: eleven interned
   states would be needed; a budget of 4 must stop exploration recoverably
   (Guard.Exhausted), unlike the hard max_states Chain_error. *)
let line_step i = Prob.Dist.return (min (i + 1) 9)

let test_chain_state_budget () =
  let build guard =
    Markov.Chain.of_step ~hash:Hashtbl.hash ~equal:Int.equal ?guard ~init:[ 0 ]
      ~step:line_step ()
  in
  let full = build None in
  Alcotest.(check int) "full chain" 10 (Markov.Chain.num_states full);
  let g = Guard.make ~max_states:4 () in
  (try
     ignore (build (Some g));
     Alcotest.fail "expected Exhausted"
   with Guard.Exhausted (Guard.States { budget; _ }) ->
     Alcotest.(check int) "budget" 4 budget);
  Alcotest.(check bool) "progress recorded" true (Guard.states_reached g > 0)

(* --- fault specs -------------------------------------------------------- *)

let test_fault_parse () =
  Alcotest.(check bool) "none" true Guard.Fault.(is_none none);
  let spec = Guard.Fault.of_string "kill:shard=3,after=1;flaky:shard=2,after=0" in
  Alcotest.(check bool) "not none" false (Guard.Fault.is_none spec);
  Alcotest.(check string) "roundtrip" "kill:shard=3,after=1;flaky:shard=2,after=0"
    (Guard.Fault.to_string spec);
  Alcotest.(check bool) "untargeted shard has no hook" true
    (Guard.Fault.hook spec ~shard:7 = None);
  (match Guard.Fault.hook spec ~shard:3 with
   | None -> Alcotest.fail "expected a hook for shard 3"
   | Some h ->
     h ~attempt:0 ~completed:0;
     (try
        h ~attempt:0 ~completed:1;
        Alcotest.fail "expected Injected"
      with Guard.Fault.Injected _ -> ()));
  (match Guard.Fault.hook spec ~shard:2 with
   | None -> Alcotest.fail "expected a hook for shard 2"
   | Some h ->
     (try
        h ~attempt:0 ~completed:0;
        Alcotest.fail "expected Transient"
      with Guard.Fault.Transient _ -> ());
     (* The retry attempt runs clean. *)
     h ~attempt:1 ~completed:0);
  List.iter
    (fun bad ->
      try
        ignore (Guard.Fault.of_string bad);
        Alcotest.fail (Printf.sprintf "expected Invalid_argument for %S" bad)
      with Invalid_argument _ -> ())
    [ "boom"; "kill:shard=x,after=1"; "kill:after=1"; "delay:shard=0"; "kill:shard=0" ]

let test_serve_fault_parse () =
  (* The serve-layer fault kinds: parse, roundtrip, accessors. *)
  let spec =
    Guard.Fault.of_string
      "conn-drop:after=2;partial-write:after=1;resp-delay:ms=3.5;journal-crash:point=pre-rename"
  in
  Alcotest.(check string) "roundtrip"
    "conn-drop:after=2;partial-write:after=1;resp-delay:ms=3.5;journal-crash:point=pre-rename"
    (Guard.Fault.to_string spec);
  Alcotest.(check (option int)) "conn_drop" (Some 2) (Guard.Fault.conn_drop spec);
  Alcotest.(check (option int)) "partial_write" (Some 1) (Guard.Fault.partial_write spec);
  Alcotest.(check (option (float 0.0))) "resp_delay_ms" (Some 3.5)
    (Guard.Fault.resp_delay_ms spec);
  Alcotest.(check bool) "armed point" true
    (Guard.Fault.journal_crash spec ~point:"pre-rename");
  Alcotest.(check bool) "unarmed point" false
    (Guard.Fault.journal_crash spec ~point:"post-rename");
  (* A pool-fault spec answers None/false on every serve accessor. *)
  let pool_spec = Guard.Fault.of_string "kill:shard=0,after=1" in
  Alcotest.(check (option int)) "no conn_drop" None (Guard.Fault.conn_drop pool_spec);
  Alcotest.(check (option int)) "no partial_write" None (Guard.Fault.partial_write pool_spec);
  Alcotest.(check bool) "no crash point" false
    (Guard.Fault.journal_crash pool_spec ~point:"pre-write");
  (* Serve faults never fire in pool workers: real shards (numbered from
     0) have no hook for them, and even the sentinel shard -1 they map to
     yields only an inert hook. *)
  List.iter
    (fun shard ->
      Alcotest.(check bool)
        (Printf.sprintf "no hook for shard %d" shard)
        true
        (Guard.Fault.hook spec ~shard = None))
    [ 0; 1; 7 ];
  (match Guard.Fault.hook spec ~shard:(-1) with
   | None -> ()
   | Some h ->
     (* an inert hook: serve faults are consumed by the daemon, not here *)
     h ~attempt:0 ~completed:0;
     h ~attempt:1 ~completed:99);
  let mixed = Guard.Fault.of_string "conn-drop:after=1;kill:shard=0,after=0" in
  (match Guard.Fault.hook mixed ~shard:0 with
   | None -> Alcotest.fail "expected a hook for the pool fault"
   | Some h -> (
     try
       h ~attempt:0 ~completed:0;
       Alcotest.fail "expected Injected"
     with Guard.Fault.Injected _ -> ()));
  (* Every valid journal crash point parses; anything else is rejected. *)
  List.iter
    (fun point ->
      let s = Guard.Fault.of_string ("journal-crash:point=" ^ point) in
      Alcotest.(check bool) point true (Guard.Fault.journal_crash s ~point))
    [ "pre-write"; "mid-record"; "pre-rename"; "post-rename" ];
  List.iter
    (fun bad ->
      try
        ignore (Guard.Fault.of_string bad);
        Alcotest.fail (Printf.sprintf "expected Invalid_argument for %S" bad)
      with Invalid_argument _ -> ())
    [ "journal-crash:point=nowhere"; "journal-crash:after=1"; "conn-drop:ms=1";
      "resp-delay:after=1"; "partial-write:point=pre-write"
    ]

(* --- pool: failure collection and retry --------------------------------- *)

let test_pool_two_kills () =
  (* Regression for the all-failures contract: two independently killed
     shards must BOTH be collected, with the lowest shard at top level and
     its original backtrace preserved. *)
  let fault = Guard.Fault.of_string "kill:shard=3,after=1;kill:shard=5,after=0" in
  List.iter
    (fun domains ->
      try
        ignore
          (Pool.run_samples ~fault ~domains ~samples:40 (Random.State.make [| 1 |])
             (fun rng -> Random.State.bool rng));
        Alcotest.fail "expected Worker_error"
      with Pool.Worker_error { shard; completed; exn = Guard.Fault.Injected _; failures } ->
        Alcotest.(check int) "first failed shard at top level" 3 shard;
        Alcotest.(check int) "one sample before the kill" 1 completed;
        Alcotest.(check (list int)) "all failed shards collected" [ 3; 5 ]
          (List.map (fun f -> f.Pool.shard) failures);
        let f5 = List.nth failures 1 in
        Alcotest.(check int) "shard 5 killed before its first sample" 0 f5.Pool.completed)
    [ 1; 4 ]

let test_pool_flaky_retry_is_transparent () =
  (* A transient fault is retried once, replaying the shard from its last
     published state: the result must equal the fault-free run exactly. *)
  let run rng = Random.State.float rng 1.0 < 0.37 in
  let clean =
    Pool.run_samples ~domains:4 ~samples:64 (Random.State.make [| 9 |]) run
  in
  let fault = Guard.Fault.of_string "flaky:shard=2,after=3" in
  let flaky =
    Pool.run_samples ~fault ~domains:4 ~samples:64 (Random.State.make [| 9 |]) run
  in
  Alcotest.(check int) "hits identical" clean.Pool.hits flaky.Pool.hits;
  Alcotest.(check int) "all samples completed" 64 flaky.Pool.completed;
  Alcotest.(check bool) "complete" true (flaky.Pool.stopped = None)

(* --- checkpoints -------------------------------------------------------- *)

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_checkpoint_roundtrip () =
  let path = tmp_path "guard_test_roundtrip.ckpt" in
  let rng = Random.State.make [| 5 |] in
  let ck =
    {
      Guard.Checkpoint.key = "k1";
      samples = 40;
      shards =
        [| { Guard.Checkpoint.shard = 0; todo = 20; completed = 7; hits = 3; rng };
           { Guard.Checkpoint.shard = 1; todo = 20; completed = 20; hits = 11;
             rng = Random.State.copy rng }
        |];
    }
  in
  Guard.Checkpoint.save path ck;
  let ck' = Guard.Checkpoint.load path in
  Alcotest.(check string) "key" ck.Guard.Checkpoint.key ck'.Guard.Checkpoint.key;
  Alcotest.(check int) "samples" 40 ck'.Guard.Checkpoint.samples;
  Alcotest.(check int) "shards" 2 (Array.length ck'.Guard.Checkpoint.shards);
  Alcotest.(check int) "hits survive" 11 ck'.Guard.Checkpoint.shards.(1).Guard.Checkpoint.hits;
  (* The marshalled RNG state drives the same stream. *)
  Alcotest.(check int) "rng stream restored"
    (Random.State.bits ck.Guard.Checkpoint.shards.(0).Guard.Checkpoint.rng)
    (Random.State.bits ck'.Guard.Checkpoint.shards.(0).Guard.Checkpoint.rng);
  Sys.remove path

let test_checkpoint_bad_files () =
  (try
     ignore (Guard.Checkpoint.load (tmp_path "guard_test_does_not_exist.ckpt"));
     Alcotest.fail "expected Error on missing file"
   with Guard.Checkpoint.Error _ -> ());
  let path = tmp_path "guard_test_bad_magic.ckpt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "not a checkpoint\n");
  (try
     ignore (Guard.Checkpoint.load path);
     Alcotest.fail "expected Error on bad magic"
   with Guard.Checkpoint.Error _ -> ());
  Sys.remove path

(* Two domains checkpointing to the same target concurrently (two resident
   sessions sharing a configured checkpoint path): with unique temp files
   every save must land atomically, so every concurrent load sees a
   complete snapshot — one writer's or the other's, never a torn file —
   and no save may fail on a raced rename. *)
let test_checkpoint_concurrent_savers () =
  let path = tmp_path "guard_test_concurrent.ckpt" in
  let snapshot tag =
    let rng = Random.State.make [| tag |] in
    { Guard.Checkpoint.key = "concurrent";
      samples = tag;
      shards = [| { Guard.Checkpoint.shard = 0; todo = tag; completed = tag; hits = tag; rng } |]
    }
  in
  Guard.Checkpoint.save path (snapshot 0);
  let rounds = 150 in
  let writer tag =
    Domain.spawn (fun () ->
        for i = 1 to rounds do
          Guard.Checkpoint.save path (snapshot ((tag * 1_000_000) + i))
        done)
  in
  let d1 = writer 1 and d2 = writer 2 in
  (* Concurrent reads while both writers race the rename. *)
  for _ = 1 to 200 do
    let ck = Guard.Checkpoint.load path in
    Alcotest.(check string) "complete snapshot" "concurrent" ck.Guard.Checkpoint.key;
    let s = ck.Guard.Checkpoint.samples in
    Alcotest.(check int) "self-consistent shard" s
      ck.Guard.Checkpoint.shards.(0).Guard.Checkpoint.completed
  done;
  (* A failed save (shared temp truncated or renamed away underneath a
     writer) raises here. *)
  Domain.join d1;
  Domain.join d2;
  let final = Guard.Checkpoint.load path in
  Alcotest.(check string) "final snapshot intact" "concurrent" final.Guard.Checkpoint.key;
  (* No temp-file litter: every unique temp was renamed or unlinked. *)
  let dir = Filename.get_temp_dir_name () in
  let leftovers =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f ->
           String.starts_with ~prefix:(Filename.basename path ^ ".tmp") f)
  in
  Alcotest.(check (list string)) "no stale temp files" [] leftovers;
  Sys.remove path

let test_resume_equals_uninterrupted () =
  (* The acceptance property: interrupt (here: a sample budget) + resume is
     bit-identical to the uninterrupted run, at every domain count. *)
  let run rng = Random.State.float rng 1.0 < 0.42 in
  let samples = 50 in
  List.iter
    (fun domains ->
      let full =
        Pool.run_samples ~domains ~samples (Random.State.make [| 21 |]) run
      in
      Alcotest.(check bool) "full run complete" true (full.Pool.stopped = None);
      let path = tmp_path (Printf.sprintf "guard_test_resume_%d.ckpt" domains) in
      let ckpt = { Pool.path; key = "resume-test"; resume = None } in
      let guard = Guard.make ~max_samples:17 () in
      let partial =
        Pool.run_samples ~guard ~ckpt ~domains ~samples (Random.State.make [| 21 |]) run
      in
      Alcotest.(check int) "budget honoured" 17 partial.Pool.completed;
      Alcotest.(check bool) "stopped on the sample budget" true
        (match partial.Pool.stopped with Some (Guard.Samples _) -> true | _ -> false);
      let saved = Guard.Checkpoint.load path in
      let resumed =
        Pool.run_samples
          ~ckpt:{ Pool.path; key = "resume-test"; resume = Some saved }
          ~domains ~samples (Random.State.make [| 21 |]) run
      in
      Alcotest.(check int)
        (Printf.sprintf "domains=%d resumed hits = uninterrupted hits" domains)
        full.Pool.hits resumed.Pool.hits;
      Alcotest.(check int) "resumed completes everything" samples resumed.Pool.completed;
      Alcotest.(check bool) "resumed run is complete" true (resumed.Pool.stopped = None);
      Sys.remove path)
    [ 1; 2; 4 ]

let test_resume_key_mismatch () =
  let run rng = Random.State.bool rng in
  let path = tmp_path "guard_test_key.ckpt" in
  let _ =
    Pool.run_samples
      ~ckpt:{ Pool.path; key = "key-a"; resume = None }
      ~domains:1 ~samples:10 (Random.State.make [| 2 |]) run
  in
  let saved = Guard.Checkpoint.load path in
  (try
     ignore
       (Pool.run_samples
          ~ckpt:{ Pool.path; key = "key-b"; resume = Some saved }
          ~domains:1 ~samples:10 (Random.State.make [| 2 |]) run);
     Alcotest.fail "expected Checkpoint.Error on key mismatch"
   with Guard.Checkpoint.Error _ -> ());
  (try
     ignore
       (Pool.run_samples
          ~ckpt:{ Pool.path; key = "key-a"; resume = Some saved }
          ~domains:1 ~samples:99 (Random.State.make [| 2 |]) run);
     Alcotest.fail "expected Checkpoint.Error on sample-count mismatch"
   with Guard.Checkpoint.Error _ -> ());
  Sys.remove path

(* --- engine: outcomes, fallback, stats/3 -------------------------------- *)

let walk_src = "?C(Y) @W :- C(X), e(X, Y, W).\nC(a).\ne(a, b, 1).\ne(b, a, 1).\n?- C(b)."

let test_engine_partial_sampling () =
  let parsed = parse walk_src in
  let guard = Guard.make ~max_samples:25 () in
  let r =
    Engine.run ~seed:4 ~guard ~semantics:Engine.Noninflationary
      ~method_:(Engine.Sampling { eps = 0.1; delta = 0.1; burn_in = 10 })
      parsed
  in
  match r.Engine.outcome with
  | Engine.Complete -> Alcotest.fail "expected a partial outcome"
  | Engine.Partial { completed; requested; ci; reason } ->
    Alcotest.(check int) "completed = budget" 25 completed;
    Alcotest.(check bool) "requested larger" true (requested > 25);
    Alcotest.(check string) "reason" "sample-budget" (Guard.reason_slug reason);
    (match ci with
     | None -> Alcotest.fail "expected a Wilson interval"
     | Some (lo, hi) ->
       Alcotest.(check bool) "valid interval" true (0.0 <= lo && lo <= hi && hi <= 1.0);
       Alcotest.(check bool) "estimate inside" true
         (lo <= r.Engine.probability && r.Engine.probability <= hi))

let test_engine_partial_agrees_with_prefix () =
  (* Soundness: the partial estimate IS the deterministic prefix estimate —
     the same run with samples = budget, not some silently different answer. *)
  let parsed = parse walk_src in
  let guard = Guard.make ~max_samples:25 () in
  let partial =
    Engine.run ~seed:4 ~domains:2 ~guard ~semantics:Engine.Noninflationary
      ~method_:(Engine.Sampling { eps = 0.1; delta = 0.1; burn_in = 10 })
      parsed
  in
  (* A budgeted pool run completes shard quotas clamped by the same
     deterministic split, so re-running with the clamped total reproduces
     the partial estimate bit-for-bit. *)
  let kernel, init =
    Lang.Compile.noninflationary_kernel parsed.Lang.Parser.program
      (Lang.Parser.database_of_facts parsed.Lang.Parser.facts)
  in
  let query =
    Lang.Forever.compile
      ~schema_of:(Lang.Compile.schema_of_database init)
      (Lang.Forever.make ~kernel ~event:(Option.get parsed.Lang.Parser.event))
  in
  let r =
    Eval.Sample_noninflationary.run_samples (Random.State.make [| 4 |]) ~domains:2
      ~burn_in:10 ~samples:25 query init
  in
  Alcotest.(check (float 0.0)) "prefix estimate"
    (float_of_int r.Pool.hits /. float_of_int r.Pool.completed)
    partial.Engine.probability

let test_engine_fallback_downgrade () =
  let parsed = parse walk_src in
  let guard = Guard.make ~max_states:1 () in
  let r =
    Engine.run ~seed:4 ~guard
      ~on_budget:(Engine.Fallback { eps = 0.1; delta = 0.1; burn_in = 10 })
      ~semantics:Engine.Noninflationary ~method_:Engine.Exact parsed
  in
  (match r.Engine.downgrade with
   | None -> Alcotest.fail "expected a recorded downgrade"
   | Some d ->
     Alcotest.(check string) "from" "exact" d.Engine.from_;
     Alcotest.(check string) "to" "sampling" d.Engine.to_;
     Alcotest.(check string) "trigger" "state-budget" d.Engine.trigger);
  (match r.Engine.outcome with
   | Engine.Complete -> ()
   | Engine.Partial _ -> Alcotest.fail "fallback run should complete");
  Alcotest.(check bool) "sampled answer in range" true
    (0.0 <= r.Engine.probability && r.Engine.probability <= 1.0)

let test_engine_degrade_exact () =
  let parsed = parse walk_src in
  let guard = Guard.make ~max_states:1 () in
  let r =
    Engine.run ~seed:4 ~guard ~semantics:Engine.Noninflationary ~method_:Engine.Exact parsed
  in
  (match r.Engine.outcome with
   | Engine.Partial { reason = Guard.States _; ci = None; _ } -> ()
   | _ -> Alcotest.fail "expected an exact partial outcome");
  Alcotest.(check bool) "no answer is nan, not a guess" true (Float.is_nan r.Engine.probability)

let test_engine_fail_policy () =
  let parsed = parse walk_src in
  let guard = Guard.make ~max_states:1 () in
  try
    ignore
      (Engine.run ~seed:4 ~guard ~on_budget:Engine.Fail ~semantics:Engine.Noninflationary
         ~method_:Engine.Exact parsed);
    Alcotest.fail "expected Engine_error"
  with Engine.Engine_error _ -> ()

(* An uncertain line of 8 flags: the lineage path builds one diagram node
   per base edge before saturating, so a 3-state budget runs out there. *)
let line8_src =
  let b = Buffer.create 512 in
  for i = 0 to 7 do
    Buffer.add_string b (Printf.sprintf "var x%d = { true: 1/2, false: 1/2 }.\n" i);
    Buffer.add_string b (Printf.sprintf "edge(v%d, v%d) when x%d = true.\n" i (i + 1) i)
  done;
  Buffer.add_string b "R(v0) :- .\nR(Y) :- R(X), edge(X, Y).\n?- R(v8).\n";
  Buffer.contents b

let run_line8 ?on_budget () =
  Engine.run ~seed:4 ~guard:(Guard.make ~max_states:3 ()) ?on_budget
    ~semantics:Engine.Inflationary ~method_:Engine.Exact (parse line8_src)

let test_lineage_degrade () =
  let r = run_line8 () in
  Alcotest.(check (option string)) "lineage path" (Some "lineage")
    (List.assoc_opt "pc-table method" r.Engine.diagnostics);
  (match r.Engine.outcome with
   | Engine.Partial { reason = Guard.States _; ci = None; _ } -> ()
   | _ -> Alcotest.fail "expected a state-budget partial outcome");
  Alcotest.(check bool) "answer is nan" true (Float.is_nan r.Engine.probability)

let test_lineage_fallback () =
  let r = run_line8 ~on_budget:(Engine.Fallback { eps = 0.1; delta = 0.1; burn_in = 0 }) () in
  (match r.Engine.downgrade with
   | Some { Engine.from_ = "exact"; to_ = "sampling"; trigger = "state-budget" } -> ()
   | _ -> Alcotest.fail "expected a state-budget downgrade to sampling");
  (match r.Engine.outcome with
   | Engine.Complete -> ()
   | Engine.Partial _ -> Alcotest.fail "fallback run should complete");
  Alcotest.(check bool) "sampled, not exact" true (r.Engine.exact = None);
  Alcotest.(check bool) "estimate near 1/256" true (r.Engine.probability <= 0.1)

let test_lineage_fail () =
  match run_line8 ~on_budget:Engine.Fail () with
  | _ -> Alcotest.fail "expected Engine_error"
  | exception Engine.Engine_error _ -> ()

(* --- one state budget across every exact path --------------------------- *)

(* Two lazy walkers, on a 4-cycle and a 3-cycle, meeting at n0: a 16-state
   chain (answer 1/12) that splits into no partition classes, so every
   chain-based path explores all of it. *)
let two_walkers_src =
  let b = Buffer.create 512 in
  List.iter
    (fun (w, n) ->
      Buffer.add_string b (Printf.sprintf "?C%d(Y) @W :- C%d(X), e%d(X, Y, W).\nC%d(n0).\n" w w w w);
      for i = 0 to n - 1 do
        Buffer.add_string b
          (Printf.sprintf "e%d(n%d, n%d, 1). e%d(n%d, n%d, 1).\n" w i ((i + 1) mod n) w i i)
      done)
    [ (1, 4); (2, 3) ];
  Buffer.add_string b "Both() :- C1(n0), C2(n0).\n?- Both().\n";
  Buffer.contents b

(* Inflationary reachability over random edge choices: the Prop 4.4
   traversal visits one state per set of reached nodes. *)
let choices_src =
  "?N(<X>, Y) @W :- R(X), e(X, Y, W).\nR(Y) :- N(X, Y).\nR(a).\n\
   e(a, b, 1). e(a, c, 1). e(b, d, 1). e(b, c, 1). e(c, d, 1). e(c, a, 1).\n?- R(d)."

(* [line8_src] with a negated atom: pc-table evaluation enumerates worlds. *)
let line8_neg_src =
  let event = "?- R(v8).\n" in
  String.sub line8_src 0 (String.length line8_src - String.length event)
  ^ "S(X) :- R(X), !blocked(X).\nblocked(v0).\n?- S(v8).\n"

let tight_budget = 3

type budget_row = {
  path : string;
  degrade : unit -> Guard.reason option;
      (** the reason the path stopped with under [Degrade], [None] if it completed *)
  fallback : (unit -> Engine.report) option;  (** the run under [Fallback], where a sampler exists *)
}

let engine_row path ~semantics ?(method_ = Engine.Exact) src =
  let run on_budget =
    Engine.run ~seed:4 ~guard:(Guard.make ~max_states:tight_budget ()) ~on_budget ~semantics
      ~method_ (parse src)
  in
  { path;
    degrade =
      (fun () ->
        let r = run Engine.Degrade in
        match r.Engine.outcome with
        | Engine.Partial { reason; completed; requested; _ } ->
          (* The state that overflowed the budget is not progress. *)
          Alcotest.(check (pair int int)) (path ^ ": completed/requested")
            (tight_budget, tight_budget) (completed, requested);
          Alcotest.(check (option string)) (path ^ ": states explored")
            (Some (string_of_int tight_budget))
            (List.assoc_opt "states explored" r.Engine.diagnostics);
          Some reason
        | Engine.Complete -> None);
    fallback = Some (fun () -> run (Engine.Fallback { eps = 0.1; delta = 0.1; burn_in = 20 }))
  }

(* Library entry points without a report raise [Exhausted] instead. *)
let library_row path f =
  { path;
    degrade =
      (fun () ->
        match f (Guard.make ~max_states:tight_budget ()) with
        | () -> None
        | exception Guard.Exhausted reason -> Some reason);
    fallback = None
  }

let two_walkers_query () =
  let parsed = parse two_walkers_src in
  let kernel, init = Engine.noninflationary_kernel parsed in
  let event = Option.get parsed.Lang.Parser.event in
  (kernel, event, init)

let budget_rows =
  [ engine_row "Prop 4.4 traversal" ~semantics:Engine.Inflationary choices_src;
    engine_row "pc-table lineage" ~semantics:Engine.Inflationary line8_src;
    engine_row "pc-table worlds" ~semantics:Engine.Inflationary line8_neg_src;
    engine_row "non-inflationary chain" ~semantics:Engine.Noninflationary two_walkers_src;
    engine_row "partitioned" ~semantics:Engine.Noninflationary
      ~method_:Engine.Exact_partitioned two_walkers_src;
    library_row "hitting time" (fun guard ->
        let kernel, event, init = two_walkers_query () in
        ignore
          (Eval.Exact_noninflationary.expected_hitting_time ~guard
             (Lang.Forever.make ~kernel ~event) init))
  ]

let test_budget_every_exact_path () =
  List.iter
    (fun row ->
      (match row.degrade () with
       | Some (Guard.States { budget; _ }) ->
         Alcotest.(check int) (row.path ^ ": budget") tight_budget budget
       | Some r -> Alcotest.failf "%s: stopped by %s" row.path (Guard.describe r)
       | None -> Alcotest.failf "%s: completed under a %d-state budget" row.path tight_budget);
      match row.fallback with
      | None -> ()
      | Some run -> (
        let r = run () in
        (match r.Engine.downgrade with
         | Some { Engine.to_ = "sampling"; trigger = "state-budget"; _ } -> ()
         | _ -> Alcotest.failf "%s: no state-budget downgrade to sampling" row.path);
        match r.Engine.outcome with
        | Engine.Complete -> ()
        | Engine.Partial _ -> Alcotest.failf "%s: fallback did not complete" row.path))
    budget_rows

(* The same programs answer exactly when the budget is not in the way,
   the pc-table ones on the path their row names. *)
let test_budget_rows_complete_unbounded () =
  List.iter
    (fun (src, semantics, method_, expect, pc_method) ->
      let r = Engine.run ~semantics ~method_ (parse src) in
      Alcotest.(check (option string)) "exact" (Some expect)
        (Option.map Bigq.Q.to_string r.Engine.exact);
      Alcotest.(check (option string)) "pc-table method" pc_method
        (List.assoc_opt "pc-table method" r.Engine.diagnostics))
    [ (choices_src, Engine.Inflationary, Engine.Exact, "5/8", None);
      (line8_src, Engine.Inflationary, Engine.Exact, "1/256", Some "lineage");
      (line8_neg_src, Engine.Inflationary, Engine.Exact, "1/256", Some "worlds");
      (two_walkers_src, Engine.Noninflationary, Engine.Exact, "1/12", None);
      (two_walkers_src, Engine.Noninflationary, Engine.Exact_partitioned, "1/12", None)
    ]

let test_stats3_json_shape () =
  let parsed = parse walk_src in
  let r =
    Engine.run ~seed:4 ~stats:true ~semantics:Engine.Noninflationary ~method_:Engine.Exact
      parsed
  in
  match Engine.json_of_report ~tool:"test" r with
  | Obs.Json.Obj fields ->
    Alcotest.(check bool) "schema /3" true
      (List.assoc_opt "schema" fields = Some (Obs.Json.Str "probdb.stats/3"));
    (match List.assoc_opt "outcome" fields with
     | Some (Obs.Json.Obj o) ->
       Alcotest.(check bool) "complete" true
         (List.assoc_opt "status" o = Some (Obs.Json.Str "complete"))
     | _ -> Alcotest.fail "outcome object missing");
    Alcotest.(check bool) "downgrade null" true
      (List.assoc_opt "downgrade" fields = Some Obs.Json.Null)
  | _ -> Alcotest.fail "expected a JSON object"

(* --- qcheck: budget soundness on random programs ------------------------ *)

let case_of seed =
  let rng = Random.State.make [| seed |] in
  Workload.Progen.random_case rng

let arb_case_budget =
  QCheck.make
    ~print:(fun (seed, budget) ->
      Printf.sprintf "budget=%d %s" budget (case_of seed).Workload.Progen.source)
    QCheck.Gen.(pair (int_bound 100_000) (int_range 1 120))

(* A budgeted run is never silently wrong: either it reports Partial with
   completed <= budget, or it completed everything and its estimate equals
   the ungoverned run's bit-for-bit. *)
let prop_budget_soundness =
  QCheck.Test.make ~name:"governed sampler: partial or exactly the ungoverned answer"
    ~count:40 arb_case_budget (fun (seed, budget) ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.inflationary_kernel case.Workload.Progen.program
          case.Workload.Progen.database
      in
      let q =
        Lang.Inflationary.of_forever_unchecked
          (Lang.Forever.make ~kernel ~event:case.Workload.Progen.event)
      in
      let samples = 100 in
      let clean d =
        Eval.Sample_inflationary.run_samples ~domains:d ~samples
          (Random.State.make [| seed |])
          q init
      in
      let guard = Guard.make ~max_samples:budget () in
      let governed d =
        Eval.Sample_inflationary.run_samples ~guard ~domains:d ~samples
          (Random.State.make [| seed |])
          q init
      in
      List.for_all
        (fun d ->
          let c = clean d and g = governed d in
          match g.Pool.stopped with
          | None -> g.Pool.hits = c.Pool.hits && g.Pool.completed = samples
          | Some (Guard.Samples _) ->
            g.Pool.completed <= budget && g.Pool.completed < samples
          | Some _ -> false)
        [ 1; 4 ])

(* Resume identity on random programs: budget-stop + resume completes with
   the uninterrupted run's exact hit count. *)
let prop_resume_identity =
  QCheck.Test.make ~name:"checkpoint resume = uninterrupted on random programs" ~count:15
    (QCheck.make
       ~print:(fun seed -> (case_of seed).Workload.Progen.source)
       QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let case = case_of seed in
      let kernel, init =
        Lang.Compile.inflationary_kernel case.Workload.Progen.program
          case.Workload.Progen.database
      in
      let q =
        Lang.Inflationary.of_forever_unchecked
          (Lang.Forever.make ~kernel ~event:case.Workload.Progen.event)
      in
      let samples = 60 in
      let path = tmp_path (Printf.sprintf "guard_prop_resume_%d.ckpt" seed) in
      let full =
        Eval.Sample_inflationary.run_samples ~domains:2 ~samples
          (Random.State.make [| seed |])
          q init
      in
      let guard = Guard.make ~max_samples:23 () in
      let _ =
        Eval.Sample_inflationary.run_samples ~guard
          ~ckpt:{ Pool.path; key = "prop"; resume = None }
          ~domains:2 ~samples
          (Random.State.make [| seed |])
          q init
      in
      let saved = Guard.Checkpoint.load path in
      let resumed =
        Eval.Sample_inflationary.run_samples
          ~ckpt:{ Pool.path; key = "prop"; resume = Some saved }
          ~domains:2 ~samples
          (Random.State.make [| seed |])
          q init
      in
      Sys.remove path;
      resumed.Pool.stopped = None && resumed.Pool.hits = full.Pool.hits
      && resumed.Pool.completed = samples)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "guard"
    [ ( "guard",
        [ Alcotest.test_case "unlimited guard is free" `Quick test_unlimited_is_free;
          Alcotest.test_case "state budget" `Quick test_state_budget;
          Alcotest.test_case "sample budget" `Quick test_sample_budget;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "monotonic latched deadline clock" `Quick test_monotonic_deadline;
          Alcotest.test_case "non-positive budgets refused" `Quick test_nonpositive_refused;
          Alcotest.test_case "per-guard cancel" `Quick test_cancel;
          Alcotest.test_case "interrupt flag" `Quick test_interrupt_flag
        ] );
      ( "chain",
        [ Alcotest.test_case "state budget stops BFS recoverably" `Quick
            test_chain_state_budget
        ] );
      ( "fault",
        [ Alcotest.test_case "spec parsing and hooks" `Quick test_fault_parse;
          Alcotest.test_case "serve-layer fault kinds and accessors" `Quick
            test_serve_fault_parse;
          Alcotest.test_case "two killed shards are both collected" `Quick test_pool_two_kills;
          Alcotest.test_case "flaky retry is transparent" `Quick
            test_pool_flaky_retry_is_transparent
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "save/load roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "missing file and bad magic" `Quick test_checkpoint_bad_files;
          Alcotest.test_case "concurrent savers never tear the target" `Quick
            test_checkpoint_concurrent_savers;
          Alcotest.test_case "resume = uninterrupted at domains 1/2/4" `Quick
            test_resume_equals_uninterrupted;
          Alcotest.test_case "key and shape mismatches refused" `Quick test_resume_key_mismatch
        ] );
      ( "engine",
        [ Alcotest.test_case "sampling partial with Wilson CI" `Quick
            test_engine_partial_sampling;
          Alcotest.test_case "partial estimate is the prefix estimate" `Quick
            test_engine_partial_agrees_with_prefix;
          Alcotest.test_case "fallback records the downgrade" `Quick
            test_engine_fallback_downgrade;
          Alcotest.test_case "exact degrade reports progress, answers nan" `Quick
            test_engine_degrade_exact;
          Alcotest.test_case "fail policy raises" `Quick test_engine_fail_policy;
          Alcotest.test_case "lineage state budget degrades" `Quick test_lineage_degrade;
          Alcotest.test_case "lineage state budget falls back to sampling" `Quick
            test_lineage_fallback;
          Alcotest.test_case "lineage state budget under fail raises" `Quick test_lineage_fail;
          Alcotest.test_case "stats/3 document shape" `Quick test_stats3_json_shape
        ] );
      ( "one budget",
        [ Alcotest.test_case "every exact path stops or falls back" `Quick
            test_budget_every_exact_path;
          Alcotest.test_case "the same programs complete unbounded" `Quick
            test_budget_rows_complete_unbounded
        ] );
      qsuite "qcheck" [ prop_budget_soundness; prop_resume_identity ]
    ]
