(* The two in-process workloads, exact-oneshot and sample-pool: one caller in
   a closed loop driving each query text through the public entry points
   Lang.Parser.parse -> Eval.Engine.prepare / execute -> json_of_report. *)

open Common
module Q = Bigq.Q
module E = Eval.Engine

type item = {
  q : Gen.query;
  method_ : E.method_;
  expected : Q.t;  (* closed form, or the exact answer computed at set-up *)
}

type layers = {
  parse_ms : float;
  prepare_ms : float;
  execute_ms : float;
  render_ms : float;
}

(* One answer through the user-facing path.  Traced answers time each
   layer call and collect the engine's Obs stats in a scope of their own. *)
let answer ?(trace = false) ~seed ~domains item =
  let go () =
    let t0 = now_ns () in
    let parsed = Lang.Parser.parse item.q.Gen.source in
    let t1 = now_ns () in
    let prep = E.prepare ~semantics:item.q.Gen.semantics ~method_:item.method_ parsed in
    let t2 = now_ns () in
    let report = E.execute ~seed ?domains ~stats:trace prep in
    let t3 = now_ns () in
    let rendered = Obs.Json.to_string (E.json_of_report ~tool:"perfbench" report) in
    let t4 = now_ns () in
    if String.length rendered = 0 then fail_check "empty report";
    ( report,
      { parse_ms = ms_between t0 t1;
        prepare_ms = ms_between t1 t2;
        execute_ms = ms_between t2 t3;
        render_ms = ms_between t3 t4
      } )
  in
  if not trace then go ()
  else
    Obs.Scope.run (Obs.Scope.make ()) (fun () ->
        Obs.set_enabled true;
        go ())

(* --- decks ----------------------------------------------------------------- *)

let exact_deck ~tiny rng =
  (* Chains: 2 walkers with 15..25 states and 3 walkers with 27, 36 and
     36; worlds: uncertain lines with 8..11 variables and parallel pairs
     with 8 and 10.  The two families take about the same time per deck;
     smaller shapes are left out because their answer time is mostly
     fixed per-query cost, which swings most with the machine's load. *)
  let pairs = [ [| 3; 5 |]; [| 5; 3 |]; [| 4; 4 |]; [| 4; 5 |]; [| 5; 4 |]; [| 5; 5 |] ] in
  let triples = [ [| 3; 3; 3 |]; [| 3; 3; 4 |]; [| 3; 4; 3 |] ] in
  let chains = if tiny then [ [| 3; 3 |] ] else pairs @ triples in
  let lines = if tiny then [ 6 ] else [ 8; 9; 10; 11 ] in
  let pars = if tiny then [ 3 ] else [ 4; 5 ] in
  let qs =
    List.map (Gen.chain rng) chains
    @ List.map (Gen.line rng) lines
    @ List.map (fun m -> Gen.parallel rng ~paths:m ~len:2) pars
  in
  List.map (fun q -> { q; method_ = E.Exact; expected = Option.get q.Gen.expected }) qs
  |> Array.of_list |> Gen.shuffle rng

let eps = 0.05
let delta = 0.05

(* The Theorem 5.6 walk inputs get their exact answer and their burn-in
   (the measured mixing time from the start state) here, at set-up. *)
let walk_item q =
  let parsed = Lang.Parser.parse q.Gen.source in
  let exact =
    match (E.run ~semantics:E.Noninflationary ~method_:E.Exact parsed).E.exact with
    | Some p -> p
    | None -> fail_check "walk %s: no exact answer" q.Gen.shape
  in
  let event = Option.get parsed.Lang.Parser.event in
  let kernel, init =
    Lang.Compile.noninflationary_kernel parsed.Lang.Parser.program
      (Lang.Parser.database_of_facts parsed.Lang.Parser.facts)
  in
  let burn_in =
    match Eval.Sample_noninflationary.estimate_burn_in ~eps (Lang.Forever.make ~kernel ~event) init with
    | Some t -> max 1 t
    | None -> fail_check "walk %s: chain does not mix" q.Gen.shape
  in
  { q; method_ = E.Sampling { eps; delta; burn_in }; expected = exact }

let sample_deck ~tiny rng =
  let walks =
    (if tiny then [ 3 ] else [ 3; 4; 5 ])
    |> List.map (fun k ->
           Gen.walk rng ~name:(Printf.sprintf "complete-%d" k) (Workload.Graphs.complete k) ~nodes:k)
  in
  let barbells =
    (if tiny then [] else [ 2; 3 ])
    |> List.map (fun k ->
           Gen.walk rng ~name:(Printf.sprintf "barbell-%d" k) (Workload.Graphs.barbell k)
             ~nodes:(2 * k))
  in
  (* Parallel paths of 4 uncertain edges: 40..48 variables, far beyond
     exact enumeration; the answer is the closed form. *)
  let pctables =
    (if tiny then [ 2 ] else [ 10; 11; 12 ])
    |> List.map (fun m ->
           let q = { (Gen.parallel rng ~paths:m ~len:4) with Gen.family = "pctable" } in
           { q;
             method_ = E.Sampling { eps; delta; burn_in = 0 };
             expected = Option.get q.Gen.expected
           })
  in
  List.map walk_item (walks @ barbells) @ pctables |> Array.of_list |> Gen.shuffle rng

(* --- the closed loop -------------------------------------------------------- *)

type tally = {
  mutable answers : int;
  mutable failed : int;
  mutable misses : int;  (* sampling estimates more than eps off *)
  mutable lat : float list;  (* ms per answer *)
  mutable wall_ns : int;
  mutable cpu_s : float;
}

let tally () = { answers = 0; failed = 0; misses = 0; lat = []; wall_ns = 0; cpu_s = 0.0 }

let is_sampling item = match item.method_ with E.Sampling _ -> true | _ -> false

(* Checks one report: exact answers must be Q-equal to the expected value;
   an estimate must be a complete probability, and is a miss when it lies
   more than eps from the exact answer. *)
let check tl item (report : E.report) =
  if is_sampling item then begin
    let p = report.E.probability in
    if report.E.outcome <> E.Complete || Float.is_nan p || p < 0.0 || p > 1.0 then
      tl.failed <- tl.failed + 1
    else if Float.abs (p -. Q.to_float item.expected) > eps then tl.misses <- tl.misses + 1
  end
  else
    match report.E.exact with
    | Some v when Q.equal v item.expected -> ()
    | _ ->
      say "WRONG %s %s: got %s, expected %s" item.q.Gen.family item.q.Gen.shape
        (match report.E.exact with Some v -> Q.to_string v | None -> "none")
        (Q.to_string item.expected);
      tl.failed <- tl.failed + 1

let next_seed = ref 0

(* One pass over the deck; [on_answer] sees each answer's traced
   breakdown, wall ms and CPU ms. *)
let pass ?trace ?(on_answer = fun _ _ _ _ _ -> ()) ~base_seed ~domains tl deck =
  let c0 = cpu_s () in
  let w0 = now_ns () in
  Array.iter
    (fun item ->
      incr next_seed;
      let c = cpu_s () in
      let t0 = now_ns () in
      let report, layers = answer ?trace ~seed:(base_seed + !next_seed) ~domains item in
      let ms = ms_between t0 (now_ns ()) in
      let cpu_ms = (cpu_s () -. c) *. 1000.0 in
      check tl item report;
      tl.answers <- tl.answers + 1;
      tl.lat <- ms :: tl.lat;
      on_answer item report layers ms cpu_ms)
    deck;
  tl.wall_ns <- tl.wall_ns + (now_ns () - w0);
  tl.cpu_s <- tl.cpu_s +. (cpu_s () -. c0)

(* Misses allowed over [n] estimates: delta * n plus three binomial
   standard deviations. *)
let miss_bound n =
  let n = float_of_int n in
  (delta *. n) +. (3.0 *. sqrt (n *. delta *. (1.0 -. delta)))

let family_shares tl_by_family =
  Hashtbl.fold (fun fam ms acc -> (fam, ms) :: acc) tl_by_family []
  |> List.sort compare

(* --- the end-to-end run ------------------------------------------------------ *)

type spec = {
  name : string;
  deck : tiny:bool -> Random.State.t -> item array;
  domains : int option;
}

let exact_oneshot = { name = "exact-oneshot"; deck = exact_deck; domains = None }
let sample_pool = { name = "sample-pool"; deck = sample_deck; domains = Some 2 }

let setup spec ~tiny ~seed =
  let rng = Random.State.make [| seed |] in
  let deck = spec.deck ~tiny rng in
  (* Warm-up pass: interning tables and the heap reach their working size
     before timing, and every answer is checked once. *)
  let tl = tally () in
  pass ~base_seed:(seed * 7919) ~domains:spec.domains tl deck;
  if tl.failed > 0 then fail_check "warm-up pass: %d wrong answers" tl.failed;
  deck

(* One set-up and its wall time in seconds. *)
let timed_setup_once spec ~tiny ~seed =
  let t0 = now_ns () in
  let deck = setup spec ~tiny ~seed in
  (s_between t0 (now_ns ()), deck)

(* Best time per query shape: the deck is answered in whole passes until
   the time is up, and every end-to-end figure is computed from each
   shape's fastest answer, its wall time and, separately, its CPU.  On a
   machine shared with other tenants a slow spell adds time to some answers
   and never takes any away, so the fastest of a shape's many repeats is the
   steadiest estimate of what the code costs: whole-run medians, and the
   best of fifteen slices of a run, spread by up to a quarter over seeds. *)
type shape = {
  key : string;
  mutable times : float list;  (* ms per answer *)
  mutable best_ms : float;
  mutable best_cpu_ms : float;
}

(* Peak memory is read after this many measured passes, the same work on
   every run: the sampler's heap grows with the number of answers (about
   0.4 MB a second on sample-pool), so a reading at the end of a timed run
   would track throughput. *)
let mem_passes = 10

let report_end_to_end spec ~setup_s ~mem_mb (tl : tally) shapes =
  let best = List.map (fun s -> s.best_ms) shapes in
  let n = float_of_int (List.length shapes) in
  emit "setup_s" "s" setup_s;
  emit "answers_per_s" "1/s" (n /. (List.fold_left ( +. ) 0.0 best /. 1000.0));
  emit "latency_p50_ms" "ms" (median best);
  emit "latency_tail_ms" "ms" (highest best);
  emit "cpu_ms_per_answer" "ms" (List.fold_left (fun a s -> a +. s.best_cpu_ms) 0.0 shapes /. n);
  emit "mem_peak_mb" "MB" mem_mb;
  let t = tail tl.lat in
  say "%s: %d answers of %d shapes (%d failed, %d eps-misses)" spec.name tl.answers (List.length shapes)
    tl.failed tl.misses;
  say "  all answers: p50 %.3f ms, tail %.3f ms (p%.2f of %d samples), %.2f answers/s" (median tl.lat)
    t.value t.pct t.samples
    (float_of_int tl.answers /. (float_of_int tl.wall_ns /. 1e9));
  say "  %-24s %8s %10s %10s %10s" "shape" "answers" "best ms" "median ms" "best cpu";
  List.iter
    (fun s ->
      say "  %-24s %8d %10.3f %10.3f %10.3f" s.key (List.length s.times) s.best_ms (median s.times) s.best_cpu_ms)
    shapes

(* Set-up runs once before the timed passes and [setup_reps - 1] more times
   spread evenly over them, after the memory reading; setup_s is the median.
   A shared machine stays slow for seconds at a time, so set-ups made back
   to back all land in the same spell. *)
let run_plain spec ~tiny ~seed ~seconds =
  let s0, deck = timed_setup_once spec ~tiny ~seed in
  let setups = ref [ s0 ] in
  let another () = setups := fst (timed_setup_once spec ~tiny ~seed) :: !setups in
  let key item = item.q.Gen.family ^ ":" ^ item.q.Gen.shape in
  let shapes = Array.map (fun item -> { key = key item; times = []; best_ms = infinity; best_cpu_ms = infinity }) deck in
  let by_key = Hashtbl.create 16 in
  Array.iter (fun s -> Hashtbl.replace by_key s.key s) shapes;
  let by_family = Hashtbl.create 4 in
  let on_answer item _ _ ms cpu_ms =
    let f = item.q.Gen.family in
    Hashtbl.replace by_family f (ms +. Option.value ~default:0.0 (Hashtbl.find_opt by_family f));
    let s = Hashtbl.find by_key (key item) in
    s.times <- ms :: s.times;
    s.best_ms <- Float.min s.best_ms ms;
    s.best_cpu_ms <- Float.min s.best_cpu_ms cpu_ms
  in
  let tl = tally () in
  let t0 = now_ns () in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let passes = ref 0 and mem = ref None in
  while !passes = 0 || now_ns () < t_end do
    pass ~on_answer ~base_seed:seed ~domains:spec.domains tl deck;
    incr passes;
    if !passes = mem_passes then mem := Some (self_hwm_mb ());
    let due = t0 + ((t_end - t0) / setup_reps * List.length !setups) in
    if !mem <> None && List.length !setups < setup_reps && now_ns () >= due then another ()
  done;
  let mem_mb = match !mem with Some m -> m | None -> self_hwm_mb () in
  while List.length !setups < setup_reps do
    another ()
  done;
  say "set-up %d times: %s s" setup_reps (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setups));
  report_end_to_end spec ~setup_s:(median !setups) ~mem_mb tl (Array.to_list shapes);
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) by_family 0.0 in
  List.iter
    (fun (f, ms) -> say "  family %-8s %5.1f%% of answer time" f (100.0 *. ms /. total))
    (family_shares by_family);
  tl

(* --- the traced run ------------------------------------------------------------ *)

(* Direct calls into the layers under execute, once per deck query:
   chain construction and the linear solve for product chains, world
   enumeration for pc-tables.  Outside every timed answer. *)
let probe_layers deck =
  let chains = ref 0 and build = ref 0.0 and solve = ref 0.0 and states = ref 0 and edges = ref 0 in
  let wqs = ref 0 and worlds = ref 0 and wms = ref 0.0 in
  Array.iter
    (fun item ->
      let parsed = Lang.Parser.parse item.q.Gen.source in
      let program = parsed.Lang.Parser.program and event = Option.get parsed.Lang.Parser.event in
      match item.q.Gen.family with
      | "chain" ->
        let kernel, init =
          Lang.Compile.noninflationary_kernel program (Lang.Parser.database_of_facts parsed.Lang.Parser.facts)
        in
        let query =
          Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init)
            (Lang.Forever.make ~kernel ~event)
        in
        let t0 = now_ns () in
        let chain = Eval.Exact_noninflationary.build_chain query init in
        let t1 = now_ns () in
        let pi = Markov.Stationary.exact chain in
        let t2 = now_ns () in
        if Array.length pi <> Markov.Chain.num_states chain then fail_check "stationary vector size";
        incr chains;
        build := !build +. ms_between t0 t1;
        solve := !solve +. ms_between t1 t2;
        states := !states + Markov.Chain.num_states chain;
        edges := !edges + List.length (Markov.Chain.edges chain)
      | "worlds" ->
        let ct = Option.get (Lang.Parser.ctable_of parsed) in
        let t0 = now_ns () in
        let p = Eval.Exact_inflationary.eval_ctable ~plan:true ~program ~event ct in
        let t1 = now_ns () in
        if not (Q.equal p item.expected) then fail_check "eval_ctable disagrees on %s" item.q.Gen.shape;
        incr wqs;
        worlds := !worlds + Prob.Ctable.num_worlds ct;
        wms := !wms +. ms_between t0 t1
      | _ -> ())
    deck;
  let per n x = if n = 0 then 0.0 else x /. float_of_int n in
  set_layer "markov.chain.build_ms" (per !chains !build);
  set_layer "markov.solve_ms" (per !chains !solve);
  set_layer "markov.chain.states" (float_of_int !states);
  set_layer "markov.chain.edges" (float_of_int !edges);
  set_layer "eval.exact_inflationary.worlds" (float_of_int !worlds);
  set_layer "eval.exact_inflationary.ms" (per !wqs !wms);
  if !wms > 0.0 then set_layer "eval.exact_inflationary.worlds_per_s" (float_of_int !worlds /. (!wms /. 1000.0))

let per_answer tl = float_of_int tl.wall_ns /. 1e6 /. float_of_int (max 1 tl.answers)

(* Alternates untraced and traced passes (and, for the pool, passes at one
   domain) until the time is up; the traced answers give the layer rows and
   the difference in mean answer time is the tracing overhead. *)
let run_traced spec ~tiny ~seed ~seconds =
  let deck = setup spec ~tiny ~seed in
  let plain = tally () and traced = tally () and single = tally () in
  let parse = ref 0.0 and prep = ref 0.0 and exec = ref 0.0 and render = ref 0.0 and total = ref 0.0 in
  let steps = ref 0 and states = ref 0 and samples = ref 0 and skews = ref [] and passes = ref 0 in
  let sampling_exec = ref 0.0 in
  let on_answer item (report : E.report) l ms _ =
    parse := !parse +. l.parse_ms;
    prep := !prep +. l.prepare_ms;
    exec := !exec +. l.execute_ms;
    render := !render +. l.render_ms;
    total := !total +. ms;
    if is_sampling item then sampling_exec := !sampling_exec +. l.execute_ms;
    match report.E.stats with
    | None -> fail_check "traced answer without stats"
    | Some st ->
      steps := !steps + st.E.steps;
      states := !states + st.E.states;
      let shard_ms = List.map (fun s -> s.Obs.ms) st.E.shards in
      samples := List.fold_left (fun a s -> a + s.Obs.samples) !samples st.E.shards;
      if List.length shard_ms >= 2 && List.fold_left Float.min infinity shard_ms > 0.0 then
        skews := (List.fold_left Float.max 0.0 shard_ms /. List.fold_left Float.min infinity shard_ms) :: !skews
  in
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  while !passes = 0 || now_ns () < t_end do
    pass ~base_seed:seed ~domains:spec.domains plain deck;
    pass ~trace:true ~on_answer ~base_seed:seed ~domains:spec.domains traced deck;
    if spec.domains <> None then pass ~base_seed:seed ~domains:(Some 1) single deck;
    incr passes
  done;
  let n = float_of_int traced.answers and per_pass x = float_of_int x /. float_of_int !passes in
  set_layer "lang.parser.ms" (!parse /. n);
  set_layer "eval.engine.prepare.ms" (!prep /. n);
  set_layer "eval.engine.execute.ms" (!exec /. n);
  set_layer "render.ms" (!render /. n);
  set_layer "unattributed.ms" ((!total -. !parse -. !prep -. !exec -. !render) /. n);
  set_layer "harness.answer_ms" (!total /. n);
  set_layer "harness.trace_overhead_pct" (100.0 *. ((per_answer traced /. per_answer plain) -. 1.0));
  let sampled = Array.exists is_sampling deck in
  if sampled then begin
    set_layer "eval.sampler.samples" (per_pass !samples);
    set_layer "eval.sampler.kernel_steps" (per_pass !steps);
    set_layer "eval.sampler.steps_per_s" (float_of_int !steps /. (!sampling_exec /. 1000.0));
    let answers = plain.answers + traced.answers + single.answers in
    let misses = plain.misses + traced.misses + single.misses in
    set_layer "eval.sampler.eps_miss_ratio" (float_of_int misses /. float_of_int answers)
  end
  else begin
    set_layer "eval.engine.steps" (per_pass !steps);
    set_layer "eval.engine.states" (per_pass !states)
  end;
  if spec.domains <> None then begin
    set_layer "eval.pool.speedup_2v1" (per_answer single /. per_answer plain);
    set_layer "eval.pool.cpu_over_wall" (plain.cpu_s /. (float_of_int plain.wall_ns /. 1e9));
    set_layer "eval.pool.shard_skew" (median !skews)
  end;
  probe_layers deck;
  say "%s traced: %d passes; %d untraced / %d traced answers; %.3f / %.3f ms per answer" spec.name !passes
    plain.answers traced.answers (per_answer plain) (per_answer traced);
  let failed = plain.failed + traced.failed + single.failed in
  let answers = plain.answers + traced.answers + single.answers in
  (answers, failed, plain.misses + traced.misses + single.misses)
