module Q = Bigq.Q

type semantics =
  | Inflationary
  | Noninflationary

type method_ =
  | Exact
  | Exact_partitioned
  | Sampling of {
      eps : float;
      delta : float;
      burn_in : int;
    }
  | Time_average of {
      steps : int;
      burn_in : int;
    }

type stats = {
  engine : string;
  steps : int;
  states : int;
  draws : int;
  elapsed_ms : float;
  phases : (string * float) list;
  operators : (string * int * float) list;
  shards : Obs.shard list;
  series : (string * int) list;
}

type outcome =
  | Complete
  | Partial of {
      reason : Guard.reason;
      completed : int;
      requested : int;
      ci : (float * float) option;
    }

type downgrade = {
  from_ : string;
  to_ : string;
  trigger : string;
}

type budget_policy =
  | Fail
  | Degrade
  | Fallback of {
      eps : float;
      delta : float;
      burn_in : int;
    }

type report = {
  probability : float;
  exact : Q.t option;
  semantics : semantics;
  method_ : method_;
  stats : stats option;
  diagnostics : (string * string) list;
  outcome : outcome;
  downgrade : downgrade option;
}

exception Engine_error of string

let err fmt = Format.kasprintf (fun s -> raise (Engine_error s)) fmt

let engine_name semantics method_ =
  match (semantics, method_) with
  | _, Time_average _ -> "time-average"
  | Inflationary, (Exact | Exact_partitioned) -> "exact-inflationary"
  | Noninflationary, Exact -> "exact-noninflationary"
  | Noninflationary, Exact_partitioned -> "exact-partitioned"
  | Inflationary, Sampling _ -> "sample-inflationary"
  | Noninflationary, Sampling _ -> "sample-noninflationary"

let method_slug = function
  | Exact -> "exact"
  | Exact_partitioned -> "exact-partitioned"
  | Sampling _ -> "sampling"
  | Time_average _ -> "time-average"

let semantics_slug = function
  | Inflationary -> "inflationary"
  | Noninflationary -> "noninflationary"

(* Assemble the run's stats from the [Obs] tables.  Step counts come from
   whichever layer drove the run: the samplers ("engine.steps") or chain
   exploration ("chain.expanded"); likewise states.  Draw counts are
   repair-key draws plus raw chain-walk draws. *)
let collect_stats ~engine ~elapsed_ms =
  let steps = Obs.count_of "engine.steps" + Obs.count_of "chain.expanded" in
  let states =
    let chain_states = Obs.count_of "chain.states" in
    if chain_states > 0 then chain_states else Obs.count_of "engine.states"
  in
  let draws = Obs.count_of "repair_key.draws" + Obs.count_of "walk.steps" in
  let operators =
    List.filter
      (fun (name, _, _) ->
        String.starts_with ~prefix:"plan." name || String.starts_with ~prefix:"pplan." name)
      (Obs.snapshot ())
  in
  {
    engine;
    steps;
    states;
    draws;
    elapsed_ms;
    phases = Obs.phases ();
    operators;
    shards = Obs.shards ();
    series = Obs.Series.counts ();
  }

(* Runtime inputs of a prepared program: everything [execute] varies per
   request while the compiled artifacts stay fixed. *)
type exec_env = {
  rng : Random.State.t;
  env_max_steps : int option;
  env_domains : int;
  env_guard : Guard.t;
  env_on_budget : budget_policy;
  env_ckpt : Pool.ckpt option;
}

type prepared = {
  prep_semantics : semantics;
  prep_method : method_;
  prep_exec : exec_env -> report;
}

(* The sampling parameters' domains, checked before any work starts: a
   negative burn-in would walk forever between two guard polls, and the
   Hoeffding sample count is undefined outside (0, 1). *)
let check_sampling ~eps ~delta ~burn_in =
  if not (eps > 0.0 && eps < 1.0) then err "eps must lie in (0, 1), got %g" eps;
  if not (delta > 0.0 && delta < 1.0) then err "delta must lie in (0, 1), got %g" delta;
  if burn_in < 0 then err "burn-in must be non-negative, got %d" burn_in

let noninflationary_kernel (parsed : Lang.Parser.parsed) =
  let program = parsed.Lang.Parser.program in
  match Lang.Parser.ctable_of parsed with
  | Some ct -> Lang.Compile.noninflationary_kernel_ctable program ct
  | None ->
    Lang.Compile.noninflationary_kernel program
      (Lang.Parser.database_of_facts parsed.Lang.Parser.facts)

let prepare ~semantics ~method_ (parsed : Lang.Parser.parsed) =
  (match method_ with
   | Sampling { eps; delta; burn_in } -> check_sampling ~eps ~delta ~burn_in
   | Time_average { steps; burn_in } ->
     if steps <= 0 then err "steps must be positive, got %d" steps;
     if burn_in < 0 then err "burn-in must be non-negative, got %d" burn_in
   | Exact | Exact_partitioned -> ());
  let event =
    match parsed.Lang.Parser.events with
    | [ e ] -> e
    | [] -> err "program has no ?- event"
    | events ->
      err "program has %d ?- events; a run answers one" (List.length events)
  in
  (* Everything below sees only the event's cone: rules, facts and pc-table
     variables the event cannot depend on are gone before any kernel is
     built (engine.mli says why the answer is unchanged). *)
  let input = parsed in
  let sliced =
    Obs.phase "slice" (fun () -> Lang.Slice.slice ~roots:[ event.Lang.Event.relation ] input)
  in
  let parsed = sliced.Lang.Slice.parsed in
  let program = parsed.Lang.Parser.program in
  let ctable = Lang.Parser.ctable_of parsed in
  let db = Lang.Parser.database_of_facts parsed.Lang.Parser.facts in
  (* Compile the kernel to physical plans against the initial database's
     schemas; stepping is then plan execution. *)
  let compile_query init query =
    Obs.phase "compile" (fun () ->
        Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init) query)
  in
  let install_seminaive init query =
    Obs.phase "compile" (fun () ->
        let sn =
          Lang.Seminaive.compile ~schema_of:(Lang.Compile.schema_of_database init) program
        in
        ( Lang.Seminaive.install sn query,
          [ ( "plan strategy",
              Printf.sprintf "semi-naive (%d/%d rule plans incremental)"
                (Lang.Seminaive.incremental_rules sn) (Lang.Seminaive.total_rules sn) )
          ] ))
  in
  let sample_inflationary env ?init_sampler ~samples rng query init =
    Obs.phase "sample" @@ fun () ->
    Sample_inflationary.run_samples ?max_steps:env.env_max_steps ?init_sampler
      ~guard:env.env_guard ?ckpt:env.env_ckpt ~domains:env.env_domains ~samples rng query init
  in
  let sample_noninflationary env rng ~burn_in ~samples query init =
    Obs.phase "sample" @@ fun () ->
    Sample_noninflationary.run_samples ~guard:env.env_guard ?ckpt:env.env_ckpt
      ~domains:env.env_domains rng ~burn_in ~samples query init
  in
  let domain_diags env = [ ("domains", string_of_int env.env_domains) ] in
  let base_diags =
    [ ("rules", string_of_int (List.length input.Lang.Parser.program));
      ("facts", string_of_int (List.length input.Lang.Parser.facts));
      ("cone relations", Lang.Slice.describe sliced);
      ("linear", string_of_bool (Lang.Linearity.is_linear input.Lang.Parser.program));
      ( "repair-key on base only",
        string_of_bool (Lang.Linearity.repair_key_on_base_only input.Lang.Parser.program) )
    ]
  in
  let mk ?exact ?(outcome = Complete) ?downgrade ~probability diags =
    {
      probability;
      exact;
      semantics;
      method_;
      stats = None;
      diagnostics = base_diags @ diags;
      outcome;
      downgrade;
    }
  in
  (* A sampling run's report: complete when the pool ran
     every requested sample, otherwise Partial carrying the best estimate
     so far with its Wilson 95% CI (the Thm 4.3 / Thm 5.6 guarantee only
     covers the full sample count, so the partial answer is reported as an
     interval, not a certified point). *)
  let sample_report env ?downgrade ~diags (r : Pool.run) =
    let completed = r.Pool.completed in
    let probability =
      if completed = 0 then Float.nan
      else float_of_int r.Pool.hits /. float_of_int completed
    in
    match r.Pool.stopped with
    | None -> mk ~probability ?downgrade (diags @ domain_diags env)
    | Some reason ->
      if env.env_on_budget = Fail then
        err "sampling stopped before completion (--on-budget fail): %s"
          (Guard.describe reason);
      let ci = Obs.wilson_interval ~hits:r.Pool.hits ~total:completed in
      mk ~probability ?downgrade
        ~outcome:
          (Partial { reason; completed; requested = r.Pool.requested; ci = Some ci })
        (diags
        @ [ ("completed samples", Printf.sprintf "%d/%d" completed r.Pool.requested) ]
        @ domain_diags env)
  in
  (* Exact evaluation ran out of budget: under [Fail] raise; under
     [Degrade] (and under [Fallback] for reasons a sampler cannot outrun,
     i.e. anything but the state budget) report how far enumeration got.
     [Fallback] on a blown state budget re-runs the query with the sampler
     — exactly where Thm 4.3/5.6 keep the approximation sound — and records
     the downgrade. *)
  let on_exhausted_exact env reason ~diags ~fallback =
    match (env.env_on_budget, reason) with
    | Fail, _ ->
      err "budget exhausted during exact evaluation (--on-budget fail): %s"
        (Guard.describe reason)
    | Fallback { eps; delta; burn_in }, Guard.States _ ->
      let dg =
        { from_ = method_slug method_; to_ = "sampling"; trigger = Guard.reason_slug reason }
      in
      fallback ~eps ~delta ~burn_in ~downgrade:dg
    | (Degrade | Fallback _), _ ->
      (* The state that overflowed the budget was charged but never
         explored: progress is reported up to the budget, not past it. *)
      let explored, requested =
        let reached = Guard.states_reached env.env_guard in
        match Guard.state_budget env.env_guard with
        | Some b -> (min reached b, b)
        | None -> (reached, 0)
      in
      mk ~probability:Float.nan
        ~outcome:(Partial { reason; completed = explored; requested; ci = None })
        (diags @ [ ("states explored", string_of_int explored) ])
  in
  (* Sampling a pc-table program (Thm 4.3).  The probe draws one world from
     [env.rng] before the pool splits the stream and compiles the kernel
     against it: all worlds share schemas, and the probe keeps the kernel's
     schema and arity errors.  A positive, repair-key-free program is then
     sampled on its ground program (the predicate that picks exact lineage);
     any other program runs the kernel to each world's fixpoint. *)
  let sample_ctable env ?downgrade ?(diags = []) ~eps ~delta ct =
    let samples = Sample_inflationary.samples_needed ~eps ~delta in
    let sampler = Sample_inflationary.ctable_sampler ~program ct in
    let kernel, init0 = Lang.Compile.inflationary_kernel program (sampler env.rng) in
    let r, how =
      if Exact_inflationary.lineage_applies program then begin
        match
          Obs.phase "ground" (fun () ->
              Sample_inflationary.ground ~guard:env.env_guard ~program ~event ct)
        with
        | g ->
          let facts, instances = Sample_inflationary.ground_size g in
          ( Obs.phase "sample" (fun () ->
                Sample_inflationary.run_ground ~guard:env.env_guard ?ckpt:env.env_ckpt
                  ~domains:env.env_domains ~samples env.rng g),
            Printf.sprintf "ground (%d facts, %d instances)" facts instances )
        | exception Guard.Exhausted reason ->
          ({ Pool.hits = 0; completed = 0; requested = samples; stopped = Some reason }, "ground")
      end
      else begin
        let query =
          Lang.Inflationary.of_forever_unchecked
            (compile_query init0 (Lang.Forever.make ~kernel ~event))
        in
        ( sample_inflationary env ~init_sampler:sampler ~samples env.rng query
            Relational.Database.empty,
          "kernel" )
      end
    in
    sample_report env r ?downgrade
      ~diags:(diags @ [ ("samples", string_of_int samples); ("pc-table sampler", how) ])
  in
  let walk_diags ~samples ~burn_in query =
    [ ("samples", string_of_int samples);
      ("burn-in", string_of_int burn_in);
      ("stepper", Sample_noninflationary.stepper query)
    ]
  in
  let fallback_noninflationary env ~query ~init ~eps ~delta ~burn_in ~downgrade =
    let samples = Sample_inflationary.samples_needed ~eps ~delta in
    let r = sample_noninflationary env env.rng ~burn_in ~samples query init in
    sample_report env r ~downgrade ~diags:(walk_diags ~samples ~burn_in query)
  in
  (* Each branch does its compile-time work NOW (kernel compilation, plan
     compilation, semi-naive installation — all seed-independent) and
     returns the runtime closure.  Branches whose compilation consumes RNG
     draws (pc-table sampling probes a world for schemas) compile inside the
     closure instead: re-preparation per request is what keeps fixed-seed
     estimates draw-identical to the one-shot path, and a cached [prepared]
     stays trivially reusable. *)
  let exec =
    match (semantics, method_, ctable) with
      | Inflationary, Time_average _, _ ->
        err "time-average evaluation applies to non-inflationary queries"
      | Noninflationary, Time_average { steps; burn_in }, _ ->
        let kernel, init = noninflationary_kernel parsed in
        let query = compile_query init (Lang.Forever.make ~kernel ~event) in
        fun env ->
          let p =
            Obs.phase "sample" (fun () ->
                Sample_noninflationary.eval_time_average env.rng ~burn_in ~steps query init)
          in
          mk ~probability:p
            [ ("steps", string_of_int steps);
              ("burn-in", string_of_int burn_in);
              ("stepper", Sample_noninflationary.stepper query)
            ]
      | Inflationary, Exact, Some ct -> begin
        (* pc-table input: choices are made once (Section 3.3), so the
           answer is the world-weighted average — by one lineage fixpoint
           when the program allows it, by enumeration otherwise. *)
        let ct_diags =
          [ ("pc-table worlds", Bigq.Bigint.to_string (Prob.Ctable.count_worlds ct));
            ( "pc-table method",
              if Exact_inflationary.lineage_applies program then "lineage" else "worlds" )
          ]
        in
        fun env ->
          match
            Obs.phase "evaluate" (fun () ->
                Exact_inflationary.eval_ctable_method ~guard:env.env_guard ~plan:true ~program
                  ~event ct)
          with
          | p, how ->
            let nodes =
              match how with
              | Exact_inflationary.Lineage { nodes } -> [ ("lineage nodes", string_of_int nodes) ]
              | Exact_inflationary.Worlds -> []
            in
            mk ~probability:(Q.to_float p) ?exact:(Some p) (ct_diags @ nodes)
          | exception Guard.Exhausted reason ->
            on_exhausted_exact env reason ~diags:ct_diags
              ~fallback:(fun ~eps ~delta ~burn_in:_ ~downgrade ->
                sample_ctable env ~downgrade ~diags:ct_diags ~eps ~delta ct)
      end
      | Inflationary, Sampling { eps; delta; _ }, Some ct ->
        (* The schema probe consumes RNG draws, so everything happens per
           request, against this request's stream. *)
        fun env -> sample_ctable env ~eps ~delta ct
      | Noninflationary, Exact, _ -> begin
        let kernel, init = noninflationary_kernel parsed in
        let query = compile_query init (Lang.Forever.make ~kernel ~event) in
        fun env ->
          match Exact_noninflationary.analyse ~guard:env.env_guard query init with
          | a ->
            mk
              ~probability:(Q.to_float a.Exact_noninflationary.result)
              ?exact:(Some a.Exact_noninflationary.result)
              [ ("chain states", string_of_int a.Exact_noninflationary.num_states);
                ("lumped classes", string_of_int a.Exact_noninflationary.num_classes);
                ("irreducible", string_of_bool a.Exact_noninflationary.irreducible);
                ("ergodic", string_of_bool a.Exact_noninflationary.ergodic)
              ]
          | exception Guard.Exhausted reason ->
            on_exhausted_exact env reason ~diags:[]
              ~fallback:(fun ~eps ~delta ~burn_in ~downgrade ->
                fallback_noninflationary env ~query ~init ~eps ~delta ~burn_in ~downgrade)
      end
      | Noninflationary, Sampling { eps; delta; burn_in }, _ ->
        let kernel, init = noninflationary_kernel parsed in
        let query = compile_query init (Lang.Forever.make ~kernel ~event) in
        let samples = Sample_inflationary.samples_needed ~eps ~delta in
        fun env ->
          let r = sample_noninflationary env env.rng ~burn_in ~samples query init in
          sample_report env r ~diags:(walk_diags ~samples ~burn_in query)
      | _, Exact_partitioned, Some _ ->
        err "partitioned evaluation does not support pc-table inputs"
      | Inflationary, Exact, None -> begin
        let kernel, init = Lang.Compile.inflationary_kernel program db in
        let fq, strat_diags =
          install_seminaive init (compile_query init (Lang.Forever.make ~kernel ~event))
        in
        let query = Lang.Inflationary.of_forever_unchecked fq in
        fun env ->
          match
            Obs.phase "evaluate" (fun () ->
                Exact_inflationary.eval_with_stats ~guard:env.env_guard query init)
          with
          | p, st ->
            mk ~probability:(Q.to_float p) ?exact:(Some p)
              ([ ("states visited", string_of_int st.Exact_inflationary.states_visited);
                 ("fixpoints", string_of_int st.Exact_inflationary.fixpoints)
               ]
              @ strat_diags)
          | exception Guard.Exhausted reason ->
            on_exhausted_exact env reason ~diags:[]
              ~fallback:(fun ~eps ~delta ~burn_in:_ ~downgrade ->
                let samples = Sample_inflationary.samples_needed ~eps ~delta in
                let r = sample_inflationary env ~samples env.rng query init in
                sample_report env r ~downgrade ~diags:[ ("samples", string_of_int samples) ])
      end
      | Inflationary, Sampling { eps; delta; _ }, None ->
        let kernel, init = Lang.Compile.inflationary_kernel program db in
        let query =
          Lang.Inflationary.of_forever_unchecked
            (compile_query init (Lang.Forever.make ~kernel ~event))
        in
        let samples = Sample_inflationary.samples_needed ~eps ~delta in
        fun env ->
          let r = sample_inflationary env ~samples env.rng query init in
          sample_report env r ~diags:[ ("samples", string_of_int samples) ]
      | Inflationary, Exact_partitioned, _ ->
        err "partitioned evaluation applies to non-inflationary queries"
      | Noninflationary, Exact_partitioned, None -> (
        fun env ->
          match Partition.eval_noninflationary ~guard:env.env_guard program db event with
          | p, classes ->
            mk ~probability:(Q.to_float p) ?exact:(Some p)
              [ ("partition classes", string_of_int classes) ]
          | exception Guard.Exhausted reason ->
            on_exhausted_exact env reason ~diags:[]
              ~fallback:(fun ~eps ~delta ~burn_in ~downgrade ->
                let kernel, init = Lang.Compile.noninflationary_kernel program db in
                let query = compile_query init (Lang.Forever.make ~kernel ~event) in
                fallback_noninflationary env ~query ~init ~eps ~delta ~burn_in ~downgrade))
  in
  { prep_semantics = semantics; prep_method = method_; prep_exec = exec }

(* Boundary for invalid fallback parameters, sampler divergence and worker
   failure: translated into [Engine_error]s that carry where the failure
   happened, instead of a raw exception escaping from an anonymous worker
   domain. *)
let exec_prepared (p : prepared) env =
  (match env.env_on_budget with
   | Fallback { eps; delta; burn_in } -> check_sampling ~eps ~delta ~burn_in
   | Fail | Degrade -> ());
  try p.prep_exec env with
  | Pool.Worker_error { shard; completed; exn = Sample_inflationary.Did_not_converge n; _ }
    ->
    err "sampling did not reach a fixpoint within %d steps (shard %d, %d samples completed)" n
      shard completed
  | Pool.Worker_error { shard; completed; exn; failures } ->
    let others = List.filter (fun f -> f.Pool.shard <> shard) failures in
    let extra =
      if others = [] then ""
      else
        Printf.sprintf " (also failed: shards %s)"
          (String.concat "," (List.map (fun f -> string_of_int f.Pool.shard) others))
    in
    err "worker on shard %d failed after %d samples: %s%s" shard completed
      (Printexc.to_string exn) extra
  | Guard.Checkpoint.Error m -> err "checkpoint error: %s" m

let make_env ~seed ~max_steps ~domains ~guard ~on_budget ~ckpt =
  {
    rng = Random.State.make [| seed |];
    env_max_steps = max_steps;
    env_domains = domains;
    env_guard = guard;
    env_on_budget = on_budget;
    env_ckpt = ckpt;
  }

(* Run a prepared program.  No stats bracket of its own: the caller owns
   the current [Obs] scope (a server gives each request a private one and
   enables it there); with [stats] the report carries whatever that scope
   collected, timed from this call — compile time is the caller's concern,
   which is the point of caching prepared programs. *)
let execute ?(seed = 0) ?max_steps ?(domains = 1) ?(guard = Guard.unlimited)
    ?(on_budget = Degrade) ?ckpt ?(stats = false) (p : prepared) =
  let t0 = Obs.now_ns () in
  let env = make_env ~seed ~max_steps ~domains ~guard ~on_budget ~ckpt in
  let base = exec_prepared p env in
  if not stats then base
  else begin
    let elapsed_ms = Obs.ms_of_ns (Obs.now_ns () - t0) in
    { base with
      stats =
        Some (collect_stats ~engine:(engine_name p.prep_semantics p.prep_method) ~elapsed_ms)
    }
  end

let run ?(seed = 0) ?max_steps ?(domains = 1)
    ?(guard = Guard.unlimited) ?(on_budget = Degrade) ?ckpt ?(stats = false)
    ~semantics ~method_ (parsed : Lang.Parser.parsed) =
  let obs_was = Obs.enabled () in
  if stats then begin
    Obs.reset ();
    Obs.set_enabled true
  end;
  Fun.protect ~finally:(fun () -> if stats && not obs_was then Obs.set_enabled false)
  @@ fun () ->
  let t0 = Obs.now_ns () in
  let p = prepare ~semantics ~method_ parsed in
  let env = make_env ~seed ~max_steps ~domains ~guard ~on_budget ~ckpt in
  let base = exec_prepared p env in
  if not stats then base
  else begin
    let elapsed_ms = Obs.ms_of_ns (Obs.now_ns () - t0) in
    { base with stats = Some (collect_stats ~engine:(engine_name semantics method_) ~elapsed_ms) }
  end

let pp_semantics fmt = function
  | Inflationary -> Format.pp_print_string fmt "inflationary"
  | Noninflationary -> Format.pp_print_string fmt "non-inflationary"

let pp_method fmt = function
  | Exact -> Format.pp_print_string fmt "exact"
  | Exact_partitioned -> Format.pp_print_string fmt "exact (partitioned)"
  | Sampling { eps; delta; burn_in } ->
    Format.fprintf fmt "sampling (eps=%g delta=%g burn-in=%d)" eps delta burn_in
  | Time_average { steps; burn_in } ->
    Format.fprintf fmt "time-average (steps=%d burn-in=%d)" steps burn_in

let pp_stats fmt s =
  Format.fprintf fmt "@[<v>engine    : %s@,steps     : %d@,states    : %d@,draws     : %d"
    s.engine s.steps s.states s.draws;
  Format.fprintf fmt "@,elapsed   : %.3f ms" s.elapsed_ms;
  if s.phases <> [] then begin
    Format.fprintf fmt "@,phases    :";
    List.iter (fun (name, ms) -> Format.fprintf fmt "@,  %-12s %10.3f ms" name ms) s.phases
  end;
  if s.operators <> [] then begin
    Format.fprintf fmt "@,operators :";
    List.iter
      (fun (name, ticks, ms) ->
        Format.fprintf fmt "@,  %-18s %10d ticks %10.3f ms" name ticks ms)
      s.operators
  end;
  if s.shards <> [] then begin
    Format.fprintf fmt "@,shards    :";
    List.iter
      (fun { Obs.shard; samples; hits; ms } ->
        Format.fprintf fmt "@,  %4d %8d samples %8d hits %10.3f ms" shard samples hits ms)
      s.shards
  end;
  if s.series <> [] then begin
    Format.fprintf fmt "@,series    :";
    List.iter
      (fun (name, points) -> Format.fprintf fmt "@,  %-22s %8d points" name points)
      s.series
  end;
  Format.fprintf fmt "@]"

let pp_report fmt r =
  Format.fprintf fmt "@[<v>semantics : %a@,method    : %a@,answer    : %.6f" pp_semantics
    r.semantics pp_method r.method_ r.probability;
  (match r.exact with
   | Some q -> Format.fprintf fmt "@,exact     : %s" (Q.to_string q)
   | None -> ());
  (match r.outcome with
   | Complete -> ()
   | Partial { reason; completed; requested; ci } ->
     Format.fprintf fmt "@,outcome   : partial — %s (%d/%d completed)" (Guard.describe reason)
       completed requested;
     (match ci with
      | Some (lo, hi) -> Format.fprintf fmt "@,ci95      : [%.6f, %.6f]" lo hi
      | None -> ()));
  (match r.downgrade with
   | Some d -> Format.fprintf fmt "@,downgrade : %s -> %s (%s)" d.from_ d.to_ d.trigger
   | None -> ());
  List.iter (fun (k, v) -> Format.fprintf fmt "@,%-10s: %s" k v) r.diagnostics;
  (match r.stats with
   | Some s -> Format.fprintf fmt "@,--- stats ---@,%a" pp_stats s
   | None -> ());
  Format.fprintf fmt "@]"

(* The documented "probdb.stats/3" schema (see README): always carries
   engine/steps/states/draws/elapsed_ms; phases/operators/shards hold
   whatever the run populated.  /2 added the [series] summary block (point
   counts per recorded series name; full points go to [--series-json]); /3
   added [outcome] (complete/partial with reason, progress and Wilson CI)
   and [downgrade] (recorded exact-to-sampling fallback, else null). *)
let json_of_stats s =
  let open Obs.Json in
  Obj
    [ ("engine", Str s.engine);
      ("steps", Int s.steps);
      ("states", Int s.states);
      ("draws", Int s.draws);
      ("elapsed_ms", Float s.elapsed_ms);
      ("phases", Obj (List.map (fun (name, ms) -> (name, Float ms)) s.phases));
      ( "operators",
        Obj
          (List.map
             (fun (name, ticks, ms) ->
               (name, Obj [ ("ticks", Int ticks); ("ms", Float ms) ]))
             s.operators) );
      ( "shards",
        List
          (List.map
             (fun { Obs.shard; samples; hits; ms } ->
               Obj
                 [ ("shard", Int shard);
                   ("samples", Int samples);
                   ("hits", Int hits);
                   ("ms", Float ms)
                 ])
             s.shards) );
      ("series", Obj (List.map (fun (name, points) -> (name, Int points)) s.series))
    ]

let json_of_outcome =
  let open Obs.Json in
  function
  | Complete -> Obj [ ("status", Str "complete") ]
  | Partial { reason; completed; requested; ci } ->
    Obj
      ([ ("status", Str "partial");
         ("reason", Str (Guard.reason_slug reason));
         ("detail", Str (Guard.describe reason));
         ("completed", Int completed);
         ("requested", Int requested)
       ]
      @
      match ci with
      | Some (lo, hi) -> [ ("ci_low", Float lo); ("ci_high", Float hi) ]
      | None -> [])

let json_of_report ~tool r =
  let open Obs.Json in
  let stats_fields =
    match r.stats with
    | Some s -> (match json_of_stats s with Obj fields -> fields | _ -> assert false)
    | None -> []
  in
  Obj
    ([ ("schema", Str "probdb.stats/3");
       ("tool", Str tool);
       ("semantics", Str (semantics_slug r.semantics));
       ("method", Str (method_slug r.method_));
       ("probability", Float r.probability);
       ("exact", match r.exact with Some q -> Str (Q.to_string q) | None -> Null);
       ("outcome", json_of_outcome r.outcome);
       ( "downgrade",
         match r.downgrade with
         | Some d ->
           Obj [ ("from", Str d.from_); ("to", Str d.to_); ("trigger", Str d.trigger) ]
         | None -> Null )
     ]
    @ stats_fields
    @ [ ("diagnostics", Obj (List.map (fun (k, v) -> (k, Str v)) r.diagnostics)) ])
