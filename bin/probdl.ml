(* probdl — evaluate probabilistic datalog programs (Deutch, Koch & Milo,
   PODS 2010) from the command line.

     probdl run program.pdl --semantics inflationary --method exact
     probdl run program.pdl --semantics noninflationary --method sample \
            --burn-in 200 --eps 0.05 --delta 0.05
     probdl check program.pdl      # parse, classify, report diagnostics *)

open Cmdliner

let read_parsed path =
  try Ok (Lang.Parser.parse_file path) with
  | Lang.Parser.Parse_error msg -> Error msg
  | Lang.Datalog.Datalog_error msg -> Error msg
  | Prob.Ctable.Ctable_error msg -> Error msg
  | Sys_error msg -> Error msg

(* The input restricted to the events' joint cone, as [Eval.Engine.prepare]
   restricts it to one event's. *)
let slice_to events parsed =
  Lang.Slice.slice ~roots:(List.map (fun e -> e.Lang.Event.relation) events) parsed

let semantics_conv =
  let parse = function
    | "inflationary" | "inf" -> Ok Eval.Engine.Inflationary
    | "noninflationary" | "noninf" -> Ok Eval.Engine.Noninflationary
    | s -> Error (`Msg (Printf.sprintf "unknown semantics %S (inflationary|noninflationary)" s))
  in
  let print fmt = function
    | Eval.Engine.Inflationary -> Format.pp_print_string fmt "inflationary"
    | Eval.Engine.Noninflationary -> Format.pp_print_string fmt "noninflationary"
  in
  Arg.conv (parse, print)

let program_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"Datalog program file.")

let semantics_arg =
  Arg.(
    value
    & opt semantics_conv Eval.Engine.Inflationary
    & info [ "s"; "semantics" ] ~docv:"SEM" ~doc:"inflationary or noninflationary.")

let method_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("exact", `Exact); ("sample", `Sample); ("partitioned", `Partitioned);
             ("time-average", `Time_average)
           ])
        `Exact
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:"exact, sample, partitioned or time-average.")

let eps_arg = Arg.(value & opt float 0.05 & info [ "eps" ] ~doc:"Absolute error bound (sampling).")
let delta_arg = Arg.(value & opt float 0.05 & info [ "delta" ] ~doc:"Failure probability (sampling).")
let burn_in_arg =
  Arg.(value & opt int 200 & info [ "burn-in" ] ~doc:"Walk length per sample (non-inflationary sampling).")
let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.")
let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "domains" ]
        ~docv:"N"
        ~doc:
          "Shard sampling across $(docv) OCaml domains (default 1; 0 = all cores; never more \
           than the machine has). Fixed-seed estimates are identical for any N >= 1.")

let steps_arg =
  Arg.(
    value
    & opt int 10_000
    & info [ "steps" ] ~doc:"Counted window length (time-average method).")

let max_steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ]
        ~doc:
          "Per-sample step cap for the inflationary sampler (default 100000).  It does not \
           apply to a positive, repair-key-free pc-table program, which samples by unit \
           propagation over its ground program: that always terminates.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Wall-clock budget; on expiry the run stops and reports what it has (see --on-budget).")

let state_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "state-budget" ] ~docv:"N"
        ~doc:
          "Budget of states an exact method may explore (chain states, inflationary \
           traversal states, lineage nodes, pc-table worlds); past it the run stops and \
           degrades per --on-budget.  Default 100000.")

let sample_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sample-budget" ] ~docv:"N"
        ~doc:"Stop sampling after $(docv) completed samples even if (eps, delta) ask for more.")

let on_budget_arg =
  let policies = [ ("fail", `Fail); ("partial", `Partial); ("fallback", `Fallback) ] in
  Arg.(
    value
    & opt (enum policies) `Partial
    & info [ "on-budget" ] ~docv:"POLICY"
        ~doc:
          "Reaction when a budget runs out: $(b,fail) exits 1; $(b,partial) (default) reports \
           the best answer so far (sampling: estimate + Wilson 95% interval; exact: progress \
           only) and exits 3; $(b,fallback) additionally re-runs an exact method that blew \
           its state budget under the sampler with the given --eps/--delta/--burn-in, \
           recording the downgrade in the report.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Periodically save per-shard sampler state to $(docv) (schema probdb.ckpt/1); a \
           later --resume run continues from it with a bit-identical final estimate. \
           Sampling methods only.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint written by --checkpoint (same program, parameters and \
           seed required). Keeps checkpointing to $(docv) unless --checkpoint names another \
           file.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Collect run metrics and print them as a table after the report.")

let stats_json_arg =
  Arg.(
    value & flag
    & info [ "stats-json" ]
        ~doc:
          "Collect run metrics and emit the whole report as one machine-readable JSON document \
           (schema probdb.stats/3) on stdout instead of the table.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans and per-iteration series and write them to $(docv) as Chrome \
           trace-event JSON (open in Perfetto or chrome://tracing; pid/tid = shard). \
           Implies series recording.")

let series_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "series-json" ] ~docv:"FILE"
        ~doc:
          "Record per-iteration convergence series (fixpoint growth, chain frontier, running \
           estimate with Wilson 95% bounds) and write them to $(docv) as JSON (schema \
           probdb.series/1).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Live progress line on stderr, updated from the recorded series: current step, \
           states, running estimate ± its confidence half-width.")

(* The outcome column of the multi-event answer table: what the outcome
   and downgrade lines of a single-event report say. *)
let outcome_summary r =
  let outcome =
    match r.Eval.Engine.outcome with
    | Eval.Engine.Complete -> "complete"
    | Eval.Engine.Partial { reason; completed; requested; _ } ->
      Printf.sprintf "partial — %s (%d/%d completed)" (Guard.describe reason) completed
        requested
  in
  match r.Eval.Engine.downgrade with
  | None -> outcome
  | Some d -> Printf.sprintf "%s, downgrade %s -> %s (%s)" outcome d.from_ d.to_ d.trigger

(* [s] padded with spaces to [n] display columns: events print "∈", three
   bytes wide in UTF-8 but one column on screen. *)
let pad n s =
  let width = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr width) s;
  s ^ String.make (max 0 (n - !width)) ' '

let run_cmd =
  let run path semantics method_ eps delta burn_in steps seed max_steps domains
      deadline_ms state_budget sample_budget on_budget checkpoint resume stats stats_json
      trace_file series_file progress =
    let stats = stats || stats_json in
    let trace_on = trace_file <> None in
    let series_on = trace_on || series_file <> None || progress in
    match read_parsed path with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok { Lang.Parser.events = []; _ } ->
      Format.eprintf "error: program has no ?- event@.";
      1
    | Ok parsed -> (
      let events = parsed.Lang.Parser.events in
      let method_ =
        match method_ with
        | `Exact -> Eval.Engine.Exact
        | `Partitioned -> Eval.Engine.Exact_partitioned
        | `Sample -> Eval.Engine.Sampling { eps; delta; burn_in }
        | `Time_average -> Eval.Engine.Time_average { steps; burn_in }
      in
      let domains =
        match domains with Some 0 -> Some (Eval.Pool.available ()) | d -> d
      in
      let governed =
        deadline_ms <> None || state_budget <> None || sample_budget <> None
        || checkpoint <> None || resume <> None
      in
      (* Every event is answered by its own run, each bounded by its own
         state and sample budgets (the default state budget when none is
         given); the deadline, counted from here, covers the whole command.
         Governed runs also take SIGINT gracefully: the guard watches the
         interrupt flag, so a checkpointing run stops with a final
         checkpoint and a partial report instead of dying mid-save. *)
      let max_states = Option.value state_budget ~default:Guard.default_state_budget in
      let guard =
        try Guard.make ?deadline_ms ~max_states ?max_samples:sample_budget ()
        with Invalid_argument msg ->
          Format.eprintf "error: %s@." msg;
          exit 1
      in
      let guard_for i =
        if i = 0 then guard
        else
          Guard.make
            ?deadline_ms:(Option.map (Float.max Float.epsilon) (Guard.remaining_ms guard))
            ~max_states ?max_samples:sample_budget ()
      in
      let on_budget =
        match on_budget with
        | `Fail -> Eval.Engine.Fail
        | `Partial -> Eval.Engine.Degrade
        | `Fallback -> Eval.Engine.Fallback { eps; delta; burn_in }
      in
      (* The checkpoint key ties a snapshot to the run that wrote it:
         program text + seed + semantics + sampling parameters + event.  A
         mismatch makes resume fail loudly instead of mixing sampler states.
         With several events, event i checkpoints to FILE.i.  Every resume
         file is loaded before any event runs. *)
      let ckpts =
        let digest = Digest.to_hex (Digest.file path) in
        let file i f = if List.length events > 1 then Printf.sprintf "%s.%d" f i else f in
        List.mapi
          (fun i e ->
            let key =
              Printf.sprintf "probdl|%s|%d|%s|%g|%g|%d|%s" digest seed
                (Serve.Request.semantics_slug semantics)
                eps delta burn_in
                (Format.asprintf "%a" Lang.Event.pp e)
            in
            match
              Serve.Request.make_ckpt ~key ~checkpoint:(Option.map (file i) checkpoint)
                ~resume:(Option.map (file i) resume)
            with
            | Ok ckpt -> ckpt
            | Error msg ->
              Format.eprintf "error: %s@." msg;
              exit 1)
          events
      in
      if governed then begin
        Guard.clear_interrupt ();
        Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Guard.request_interrupt ()))
      end;
      (* Tracing and series recording are enabled here, around the whole
         command, so that every event's run records into one artifact. *)
      if trace_on then begin
        Obs.Trace.reset ();
        Obs.Trace.set_enabled true
      end;
      if series_on then begin
        Obs.Series.reset ();
        Obs.Series.set_enabled true
      end;
      let progress_printed =
        if progress then Serve.Request.install_progress ~label:"step" () else ref false
      in
      let finish code =
        if !progress_printed then prerr_newline ();
        if progress then Obs.Series.set_observer None;
        if trace_on then Obs.Trace.set_enabled false;
        if series_on then Obs.Series.set_enabled false;
        (* Partial runs (exit 3) flush artifacts too: the recorded trace and
           series are exactly what a budget post-mortem wants. *)
        if code = 0 || code = 3 then begin
          (match trace_file with Some f -> Obs.Trace.write f | None -> ());
          (match series_file with Some f -> Obs.Series.write f | None -> ())
        end;
        code
      in
      let run_event i (e, ckpt) =
        Eval.Engine.run ~seed ?max_steps ?domains ~guard:(guard_for i) ~on_budget ?ckpt
          ~stats ~semantics ~method_
          { parsed with Lang.Parser.event = Some e; events = [ e ] }
      in
      finish
      @@ try
        let reports = List.mapi run_event (List.combine events ckpts) in
        (match reports with
         | [ report ] ->
           if stats_json then
             print_endline (Obs.Json.to_string (Eval.Engine.json_of_report ~tool:"probdl" report))
           else Format.printf "%a@." Eval.Engine.pp_report report
         | _ when stats_json ->
           print_endline
             (Obs.Json.to_string
                (Obs.Json.List (List.map (Eval.Engine.json_of_report ~tool:"probdl") reports)))
         | _ ->
           let answers = List.combine events reports in
           Format.printf "%-30s %-14s %-20s %s@." "event" "answer" "exact" "outcome";
           List.iter
             (fun (e, r) ->
               Format.printf "%s %-14.6f %-20s %s@."
                 (pad 30 (Format.asprintf "%a" Lang.Event.pp e))
                 r.Eval.Engine.probability
                 (match r.Eval.Engine.exact with Some q -> Bigq.Q.to_string q | None -> "-")
                 (outcome_summary r))
             answers;
           List.iter
             (fun (e, r) ->
               match r.Eval.Engine.stats with
               | None -> ()
               | Some s ->
                 Format.printf "@[<v>--- stats: %a ---" Lang.Event.pp e;
                 List.iter
                   (fun (k, v) -> Format.printf "@,%-10s: %s" k v)
                   r.Eval.Engine.diagnostics;
                 Format.printf "@,%a@]@." Eval.Engine.pp_stats s)
             answers);
        if List.exists (fun r -> r.Eval.Engine.outcome <> Eval.Engine.Complete) reports then 3
        else 0
      with
      | Eval.Engine.Engine_error msg | Lang.Compile.Compile_error msg
      | Markov.Chain.Chain_error msg ->
        Format.eprintf "error: %s@." msg;
        1)
  in
  let doc = "Evaluate the program's ?- event probability." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ program_arg $ semantics_arg $ method_arg $ eps_arg $ delta_arg $ burn_in_arg
      $ steps_arg $ seed_arg $ max_steps_arg $ domains_arg $ deadline_arg $ state_budget_arg $ sample_budget_arg $ on_budget_arg
      $ checkpoint_arg $ resume_arg $ stats_arg $ stats_json_arg $ trace_arg $ series_json_arg
      $ progress_arg)

let check_cmd =
  let check path =
    match read_parsed path with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok parsed ->
      let program = parsed.Lang.Parser.program in
      Format.printf "@[<v>parsed %d rules, %d facts@," (List.length program)
        (List.length parsed.Lang.Parser.facts);
      Format.printf "IDB: %s@," (String.concat ", " (Lang.Datalog.idb_predicates program));
      Format.printf "EDB: %s@," (String.concat ", " (Lang.Datalog.edb_predicates program));
      Format.printf "linear: %b@," (Lang.Linearity.is_linear program);
      Format.printf "repair-key on base relations only: %b@,"
        (Lang.Linearity.repair_key_on_base_only program);
      Format.printf "probabilistic rules: %d@,"
        (List.length (List.filter Lang.Datalog.is_probabilistic_rule program));
      (let pc_depth = if Option.is_some (Lang.Parser.ctable_of parsed) then 2 else 0 in
       match Lang.Tractable.mixing_bound program ~pc_table_depth:pc_depth with
       | Some d ->
         Format.printf "feed-forward: yes — non-inflationary chain mixes exactly within %d steps@," d
       | None -> Format.printf "feed-forward: no (recursive dependencies)@,");
      (match parsed.Lang.Parser.event with
       | Some e -> Format.printf "event: %a@," Lang.Event.pp e
       | None -> Format.printf "event: (none)@,");
      (match parsed.Lang.Parser.events with
       | [] -> ()
       | events ->
         let s = slice_to events parsed in
         let names = function [] -> "(none)" | l -> String.concat ", " l in
         Format.printf "cone relations: %s (%s)@," (Lang.Slice.describe s)
           (names s.Lang.Slice.cone);
         Format.printf "dropped relations: %s@," (names s.Lang.Slice.dropped));
      Format.printf "@]@.";
      0
  in
  let doc = "Parse and classify a program without evaluating it." in
  Cmd.v (Cmd.info "check" ~doc) Term.(const check $ program_arg)

let print_cmd =
  let print path =
    match read_parsed path with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok parsed ->
      Format.printf "%a@." Lang.Datalog.pp_program parsed.Lang.Parser.program;
      0
  in
  let doc = "Pretty-print the parsed program (normalised syntax)." in
  Cmd.v (Cmd.info "print" ~doc) Term.(const print $ program_arg)

let explain_cmd =
  let explain path =
    match read_parsed path with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok parsed ->
      let program = parsed.Lang.Parser.program in
      let db = Lang.Parser.database_of_facts parsed.Lang.Parser.facts in
      (* Base-tuple legend. *)
      let base =
        List.concat_map
          (fun (name, r) ->
            List.rev (Relational.Relation.fold (fun t acc -> (name, t) :: acc) r []))
          (Relational.Database.bindings db)
      in
      Format.printf "base tuples:@.";
      List.iteri
        (fun i (name, t) ->
          Format.printf "  [%d] %s%s@." i name (Relational.Tuple.to_string t))
        base;
      Format.printf "@.derivable facts (all rule firings, provenance in brackets):@.";
      let facts = Eval.Partition.saturate program db in
      let sorted =
        List.sort
          (fun (p1, t1, _) (p2, t2, _) ->
            match String.compare p1 p2 with 0 -> Relational.Tuple.compare t1 t2 | c -> c)
          facts
      in
      List.iter
        (fun (pred, t, prov) ->
          Format.printf "  %s%s  [%s]@." pred (Relational.Tuple.to_string t)
            (String.concat "," (List.map string_of_int prov)))
        sorted;
      let parts = Eval.Partition.classes program db in
      Format.printf "@.independence classes (Section 5.1): %d@." (List.length parts);
      List.iteri
        (fun i part ->
          Format.printf "  class %d: %s@." i
            (String.concat ", "
               (List.map (fun (n, t) -> n ^ Relational.Tuple.to_string t) part)))
        parts;
      0
  in
  let doc = "Show derivable facts with provenance and the independence classes." in
  Cmd.v (Cmd.info "explain" ~doc) Term.(const explain $ program_arg)

let worlds_cmd =
  let worlds path =
    match read_parsed path with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok parsed -> (
      match Lang.Parser.ctable_of parsed with
      | None ->
        Format.printf "certain input: a single world (no var declarations).@.";
        0
      | Some ct ->
        let worlds = Prob.Ctable.worlds ct in
        Format.printf "%d possible worlds:@.@." (Prob.Dist.size worlds);
        List.iteri
          (fun i (db, p) ->
            Format.printf "world %d, probability %s:@." (i + 1) (Bigq.Q.to_string p);
            List.iter
              (fun (name, r) ->
                Relational.Relation.iter
                  (fun t -> Format.printf "  %s%s@." name (Relational.Tuple.to_string t))
                  r)
              (Relational.Database.bindings db);
            Format.printf "@.")
          (Prob.Dist.support worlds);
        0)
  in
  let doc = "Enumerate the possible worlds of a pc-table input." in
  Cmd.v (Cmd.info "worlds" ~doc) Term.(const worlds $ program_arg)

let hitting_cmd =
  let hitting path =
    match read_parsed path with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
    | Ok parsed -> (
      match parsed.Lang.Parser.events with
      | [] ->
        Format.eprintf "error: program has no ?- event@.";
        1
      | _ :: _ :: _ as events ->
        Format.eprintf "error: program has %d ?- events; hitting answers one@."
          (List.length events);
        1
      | [ event ] -> (
        try
          let kernel, init =
            Eval.Engine.noninflationary_kernel (slice_to [ event ] parsed).Lang.Slice.parsed
          in
          let query =
            Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init)
              (Lang.Forever.make ~kernel ~event)
          in
          let guard = Guard.make ~max_states:Guard.default_state_budget () in
          (match Eval.Exact_noninflationary.expected_hitting_time ~guard query init with
           | Some t ->
             Format.printf "expected steps until %a first holds: %s (~%.6f)@." Lang.Event.pp event
               (Bigq.Q.to_string t) (Bigq.Q.to_float t)
           | None ->
             Format.printf "the event is reached with probability < 1: expectation is infinite@.");
          0
        with
        | Markov.Chain.Chain_error msg | Lang.Compile.Compile_error msg ->
          Format.eprintf "error: %s@." msg;
          1
        | Guard.Exhausted reason ->
          Format.eprintf "partial: %s@." (Guard.describe reason);
          3))
  in
  let doc = "Exact expected time until the event first holds (non-inflationary semantics)." in
  Cmd.v (Cmd.info "hitting" ~doc) Term.(const hitting $ program_arg)

(* --- interactive REPL ---------------------------------------------------- *)

type repl_state = {
  mutable clauses : string list;  (* accumulated program text, reversed *)
  mutable semantics : Eval.Engine.semantics;
  mutable sampling : bool;
  mutable eps : float;
  mutable burn_in : int;
}

let repl_help () =
  print_string
    "Enter clauses (facts, rules, var declarations) to accumulate a program.\n\
     A query  ?- R(a).  evaluates immediately. Commands:\n\
     \  :show              print the accumulated program\n\
     \  :clear             start over\n\
     \  :load FILE         append a file's clauses\n\
     \  :set semantics inflationary|noninflationary\n\
     \  :set method exact|sample\n\
     \  :set eps FLOAT     sampling accuracy (default 0.05)\n\
     \  :set burn-in INT   walk length for non-inflationary sampling\n\
     \  :help              this message\n\
     \  :quit              leave\n"

let repl_eval st query_line =
  let src = String.concat "\n" (List.rev st.clauses) ^ "\n" ^ query_line in
  match (try Ok (Lang.Parser.parse src) with
         | Lang.Parser.Parse_error m | Lang.Datalog.Datalog_error m -> Error m
         | Prob.Ctable.Ctable_error m -> Error m)
  with
  | Error msg -> Format.printf "error: %s@." msg
  | Ok parsed -> (
    let method_ =
      if st.sampling then Eval.Engine.Sampling { eps = st.eps; delta = 0.05; burn_in = st.burn_in }
      else Eval.Engine.Exact
    in
    (* The typed query is the last event: clauses loaded from a file may
       carry ?- events of their own. *)
    let event = List.hd (List.rev parsed.Lang.Parser.events) in
    try
      let guard = Guard.make ~max_states:Guard.default_state_budget () in
      let report =
        Eval.Engine.run ~guard ~semantics:st.semantics ~method_
          { parsed with Lang.Parser.event = Some event; events = [ event ] }
      in
      match (report.Eval.Engine.outcome, report.Eval.Engine.exact) with
      | Eval.Engine.Partial { reason; _ }, _ ->
        Format.printf "partial: %s@." (Guard.describe reason)
      | Eval.Engine.Complete, Some q ->
        Format.printf "%s (~%.6f)@." (Bigq.Q.to_string q) report.Eval.Engine.probability
      | Eval.Engine.Complete, None ->
        Format.printf "~%.6f (sampled)@." report.Eval.Engine.probability
    with
    | Eval.Engine.Engine_error msg | Lang.Compile.Compile_error msg
    | Markov.Chain.Chain_error msg ->
      Format.printf "error: %s@." msg)

let repl_add st line =
  (* Validate the program with the new clause before accepting it. *)
  let candidate = String.concat "\n" (List.rev (line :: st.clauses)) in
  match (try Ok (Lang.Parser.parse candidate) with
         | Lang.Parser.Parse_error m | Lang.Datalog.Datalog_error m -> Error m
         | Prob.Ctable.Ctable_error m -> Error m)
  with
  | Ok _ -> st.clauses <- line :: st.clauses
  | Error msg -> Format.printf "error: %s@." msg

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let repl_cmd =
  let repl () =
    let st =
      { clauses = []; semantics = Eval.Engine.Inflationary; sampling = false; eps = 0.05; burn_in = 200 }
    in
    Format.printf "probdl repl — :help for commands, :quit to leave@.";
    (try
       while true do
         print_string "probdl> ";
         let line = String.trim (input_line stdin) in
         if line = "" then ()
         else if line = ":quit" || line = ":q" then raise Exit
         else if line = ":help" then repl_help ()
         else if line = ":show" then
           List.iter print_endline (List.rev st.clauses)
         else if line = ":clear" then st.clauses <- []
         else if starts_with ":load " line then begin
           let path = String.trim (String.sub line 6 (String.length line - 6)) in
           match (try Ok (In_channel.with_open_text path In_channel.input_all) with Sys_error m -> Error m) with
           | Ok text -> repl_add st text
           | Error msg -> Format.printf "error: %s@." msg
         end
         else if line = ":set semantics inflationary" || line = ":set semantics inf" then
           st.semantics <- Eval.Engine.Inflationary
         else if line = ":set semantics noninflationary" || line = ":set semantics noninf" then
           st.semantics <- Eval.Engine.Noninflationary
         else if line = ":set method exact" then st.sampling <- false
         else if line = ":set method sample" then st.sampling <- true
         else if starts_with ":set eps " line then
           (match float_of_string_opt (String.trim (String.sub line 9 (String.length line - 9))) with
            | Some e when e > 0.0 -> st.eps <- e
            | _ -> Format.printf "error: bad eps@.")
         else if starts_with ":set burn-in " line then
           (match int_of_string_opt (String.trim (String.sub line 13 (String.length line - 13))) with
            | Some b when b >= 0 -> st.burn_in <- b
            | _ -> Format.printf "error: bad burn-in@.")
         else if starts_with ":" line then Format.printf "unknown command %s (:help)@." line
         else if starts_with "?-" line then repl_eval st line
         else repl_add st line
       done
     with Exit | End_of_file -> ());
    0
  in
  let doc = "Interactive session: accumulate clauses, evaluate ?- queries." in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const repl $ const ())

let main =
  let doc = "probabilistic fixpoint and Markov chain query languages" in
  Cmd.group (Cmd.info "probdl" ~version:"1.0.0" ~doc)
    [ run_cmd; check_cmd; print_cmd; explain_cmd; worlds_cmd; hitting_cmd; repl_cmd ]

(* Exit codes: 0 complete, 1 engine/input error, 2 usage error, 3 partial
   result.  Cmdliner reports usage errors as 124; remap to the documented
   contract. *)
let () = exit (match Cmd.eval' main with 124 -> 2 | c -> c)
