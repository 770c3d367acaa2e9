(* Shared request execution: the pieces a query needs whether it arrives
   over the daemon's wire protocol or a CLI invocation — a compile-relevant
   fingerprint, the shared prepared-plan cache, the checkpoint plumbing and
   the --progress observer both CLIs used to duplicate. *)

type spec = {
  source : string;
  semantics : Eval.Engine.semantics;
  method_ : Eval.Engine.method_;
}

let make ~semantics ~method_ source = { source; semantics; method_ }

let semantics_slug = function
  | Eval.Engine.Inflationary -> "inflationary"
  | Eval.Engine.Noninflationary -> "noninflationary"

let method_slug = function
  | Eval.Engine.Exact -> "exact"
  | Eval.Engine.Exact_partitioned -> "partitioned"
  | Eval.Engine.Sampling { eps; delta; burn_in } ->
    Printf.sprintf "sample(%g,%g,%d)" eps delta burn_in
  | Eval.Engine.Time_average { steps; burn_in } ->
    Printf.sprintf "time-average(%d,%d)" steps burn_in

(* Every field that influences the prepared artifact participates; two
   specs with equal fingerprints compile to interchangeable plans. *)
let fingerprint spec =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ "probdb.plan/3";
            semantics_slug spec.semantics;
            method_slug spec.method_;
            spec.source
          ]))

type cache = Eval.Engine.prepared Prob.Pplan.Cache.t

let make_cache ?capacity () = Prob.Pplan.Cache.create ?capacity "plan_cache"

let cache_stats = Prob.Pplan.Cache.stats

exception Bad_request of string

let prepare ?cache spec =
  let build () =
    let parsed = Lang.Parser.parse spec.source in
    (match parsed.Lang.Parser.events with
     | _ :: _ :: _ as events ->
       raise
         (Bad_request
            (Printf.sprintf "program has %d ?- events; a query answers one"
               (List.length events)))
     | _ -> ());
    Eval.Engine.prepare ~semantics:spec.semantics ~method_:spec.method_ parsed
  in
  match cache with
  | None -> (build (), false)
  | Some c ->
    let missed = ref false in
    let prep =
      Prob.Pplan.Cache.find_or_add c (fingerprint spec) (fun () ->
          missed := true;
          build ())
    in
    (prep, not !missed)

(* The daemon's compile-phase histogram wants the cache lookup inside the
   measurement: a hit costs the fingerprint digest only, and that gap —
   microseconds against a full parse+compile — is exactly what the
   latency distribution should show. *)
let prepare_timed ?cache spec =
  let t0 = Obs.now_ns () in
  let prep, hit = prepare ?cache spec in
  (prep, hit, max 0 (Obs.now_ns () - t0))

(* The checkpoint wiring shared by probdl/probmc: digest the caller's raw
   key material, pick the save path, load the resume snapshot.  [Error] is
   the resume-load failure message (the CLIs print it and exit 1). *)
let make_ckpt ~key ~checkpoint ~resume =
  match (checkpoint, resume) with
  | None, None -> Ok None
  | _ ->
    let key = Digest.to_hex (Digest.string key) in
    let save_path =
      match (checkpoint, resume) with
      | Some c, _ -> c
      | None, Some r -> r
      | None, None -> assert false
    in
    (match resume with
     | None -> Ok (Some { Eval.Pool.path = save_path; key; resume = None })
     | Some f -> (
       match Guard.Checkpoint.load f with
       | snapshot -> Ok (Some { Eval.Pool.path = save_path; key; resume = Some snapshot })
       | exception Guard.Checkpoint.Error msg ->
         Error (Printf.sprintf "cannot resume from %s: %s" f msg)))

(* The [--progress] line both CLIs install: fed by the Series observer
   (possibly from several worker domains at once, hence the mutex),
   throttled to ~10 updates/s and overwritten in place on stderr.  [label]
   is the leading word ("step" for probdl, "samples" for probmc).  Returns
   the "anything printed" flag so the caller can terminate the line. *)
let install_progress ~label () =
  let mu = Mutex.create () in
  let printed = ref false in
  let last = ref 0 in
  let step = ref 0 and states = ref 0 in
  let est = ref Float.nan and lo = ref Float.nan and hi = ref Float.nan in
  Obs.Series.set_observer
    (Some
       (fun ~name ~shard:_ ~it v ->
         Mutex.lock mu;
         (match name with
          | "sampler.estimate" ->
            if it > !step then step := it;
            est := v
          | "sampler.ci_low" -> lo := v
          | "sampler.ci_high" -> hi := v
          | "chain.states" ->
            step := it;
            states := int_of_float v
          | "chain.frontier" -> step := it
          | "fixpoint.db_tuples" -> if it > !step then step := it
          | _ -> ());
         let now = Obs.now_ns () in
         if now - !last > 100_000_000 then begin
           last := now;
           printed := true;
           let b = Buffer.create 80 in
           Buffer.add_string b (Printf.sprintf "\r%s %-8d" label !step);
           if !states > 0 then Buffer.add_string b (Printf.sprintf " states %-8d" !states);
           if Float.is_finite !est then begin
             Buffer.add_string b (Printf.sprintf " estimate %.4f" !est);
             if Float.is_finite !lo && Float.is_finite !hi then
               Buffer.add_string b (Printf.sprintf " \xc2\xb1 %.4f" ((!hi -. !lo) /. 2.0))
           end;
           Buffer.add_string b "    ";
           output_string stderr (Buffer.contents b);
           flush stderr
         end;
         Mutex.unlock mu));
  printed
