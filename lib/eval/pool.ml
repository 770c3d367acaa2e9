(* A small worker pool over OCaml 5 domains for embarrassingly parallel
   sampling work.

   Tasks are indexed closures pulled off a shared atomic counter, so which
   domain runs which task is nondeterministic — but results land in their
   task's slot and every task closes over its own deterministic RNG stream,
   so the merged output is a pure function of the inputs, independent of
   [domains] and of scheduling. *)

let available () = Domain.recommended_domain_count ()

type failure = {
  shard : int;
  completed : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

(* A failure inside a shard, tagged with which shard and how many of its
   samples had completed — so a diverging sampler can be reported as "shard
   7 diverged after 113 samples" instead of a bare exception escaping from
   some anonymous domain.  Every shard runs to its own conclusion before
   the error is raised, so [failures] lists all failed shards (ascending;
   the carried [shard]/[completed]/[exn] are the first of them) and the
   raise preserves the first failure's original backtrace. *)
exception
  Worker_error of { shard : int; completed : int; exn : exn; failures : failure list }

let () =
  Printexc.register_printer (function
    | Worker_error { shard; completed; exn; failures } ->
      let rest = List.filter (fun f -> f.shard <> shard) failures in
      let extra =
        if rest = [] then ""
        else
          Printf.sprintf " (+%d more failed shards: %s)" (List.length rest)
            (String.concat "," (List.map (fun f -> string_of_int f.shard) rest))
      in
      Some
        (Printf.sprintf "Pool.Worker_error (shard %d, %d samples completed): %s%s" shard
           completed (Printexc.to_string exn) extra)
    | _ -> None)

let raise_failures = function
  | [] -> ()
  | first :: _ as failures ->
    Printexc.raise_with_backtrace
      (Worker_error
         { shard = first.shard; completed = first.completed; exn = first.exn; failures })
      first.backtrace

let split_rngs rng n =
  (* [Random.State.split] is deterministic given the parent state, so a
     fixed seed yields the same [n] child streams on every run. *)
  let a = Array.make n rng in
  for i = 0 to n - 1 do
    a.(i) <- Random.State.split rng
  done;
  a

let map_tasks ~domains (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    (* Never more domains than the machine offers: the runtime's domain
       limit would otherwise fail a spawn midway and strand the domains
       already running. *)
    let domains = max 1 (min (min domains n) (available ())) in
    if domains = 1 then Array.map (fun f -> f ()) tasks
    else begin
      let results : ('a, exn) result option array = Array.make n None in
      let next = Atomic.make 0 in
      (* Spawned domains start in the global [Obs] scope; enter the
         caller's so shard rows and counters land in the scope of the run
         that owns these tasks (a server request's, usually). *)
      let scope = Obs.Scope.current () in
      let worker () =
        Obs.Scope.run scope @@ fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            results.(i) <- Some (try Ok (tasks.(i) ()) with e -> Error e);
            loop ()
          end
        in
        loop ()
      in
      let spawned = Array.init (domains - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join spawned;
      Array.map
        (function
          | Some (Ok r) -> r
          | Some (Error e) -> raise e
          | None -> assert false)
        results
    end
  end

let shard_sizes ~shards total =
  let base = total / shards and extra = total mod shards in
  Array.init shards (fun s -> base + if s < extra then 1 else 0)

(* Shard count depends only on the workload size, never on [domains]: the
   per-shard RNG streams and counts are then identical whatever the domain
   count, which is what makes estimates reproducible across [domains]=1 and
   [domains]=k.  32 shards keep 4-8 domains load-balanced without splitting
   the RNG excessively. *)
let default_shards samples = if samples < 32 then samples else 32

(* Convergence cadence: record the running estimate every k-th completed
   sample, where k depends only on the shard's workload — so the recorded
   series, like the estimate itself, is identical at any domain count. *)
let series_stride todo = max 1 (todo / 8)

(* Per-shard task outcome for the collect-all-failures protocol: tasks
   never raise; workers run every shard to its own conclusion and failures
   are aggregated after the join. *)
type task_result =
  | Done of { hits : int; completed : int }
  | Failed of failure

let collect results =
  let failures =
    Array.to_list results
    |> List.filter_map (function Failed f -> Some f | Done _ -> None)
  in
  raise_failures failures;
  Array.fold_left
    (fun (h, c) -> function
      | Done { hits; completed } -> (h + hits, c + completed)
      | Failed _ -> assert false)
    (0, 0) results

type run = {
  hits : int;
  completed : int;
  requested : int;
  stopped : Guard.reason option;
}

type ckpt = { path : string; key : string; resume : Guard.Checkpoint.t option }

let resume_cells ~shards ~sizes ~samples ~key (saved : Guard.Checkpoint.t) =
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Guard.Checkpoint.Error m)) fmt
  in
  if saved.Guard.Checkpoint.key <> key then
    fail "checkpoint key mismatch: file has %S, this run is %S (different program, event, seed or parameters)"
      saved.Guard.Checkpoint.key key;
  if saved.Guard.Checkpoint.samples <> samples then
    fail "checkpoint sample-count mismatch: file has %d, this run wants %d"
      saved.Guard.Checkpoint.samples samples;
  if Array.length saved.Guard.Checkpoint.shards <> shards then
    fail "checkpoint shard-count mismatch: file has %d, this run wants %d"
      (Array.length saved.Guard.Checkpoint.shards) shards;
  Array.mapi
    (fun s (ss : Guard.Checkpoint.shard_state) ->
      if ss.shard <> s || ss.todo <> sizes.(s) || ss.completed > ss.todo then
        fail "checkpoint shard %d is inconsistent (todo %d, completed %d)" s ss.todo
          ss.completed;
      { ss with Guard.Checkpoint.rng = Random.State.copy ss.rng })
    saved.Guard.Checkpoint.shards

(* The one sampling loop: fixed sharding and RNG streams, per-sample
   budget/deadline/interrupt checks, deterministic fault hooks, retry-once
   on transient failures, and periodic checkpoints.  Shards replay from the
   last published cell state on retry and on resume, which is what makes
   interrupted+resumed runs bit-identical to uninterrupted ones: a cell's
   RNG state is exactly the state after its [completed] samples. *)
let run_samples ?(guard = Guard.unlimited) ?fault ?ckpt ~domains ~samples rng run =
  if samples <= 0 then invalid_arg "Pool.run_samples: samples must be positive";
  let fault = match fault with Some f -> f | None -> Guard.Fault.of_env () in
  let shards = default_shards samples in
  let rngs = split_rngs rng shards in
  let sizes = shard_sizes ~shards samples in
  (* A sample budget clamps each shard's quota up front with the same
     deterministic split as the samples themselves, so a budgeted run is a
     prefix of the unbudgeted one shard by shard. *)
  let clamp =
    match Guard.sample_budget guard with
    | Some b when b < samples -> Some b
    | _ -> None
  in
  let quotas =
    match clamp with Some b -> shard_sizes ~shards b | None -> sizes
  in
  let cells =
    match ckpt with
    | Some { resume = Some saved; key; _ } ->
      resume_cells ~shards ~sizes ~samples ~key saved
    | _ ->
      Array.init shards (fun s ->
          {
            Guard.Checkpoint.shard = s;
            todo = sizes.(s);
            completed = 0;
            hits = 0;
            rng = Random.State.copy rngs.(s);
          })
  in
  let save_mu = Mutex.create () in
  let save_ckpt =
    match ckpt with
    | None -> None
    | Some { path; key; _ } ->
      Some
        (fun () ->
          Mutex.protect save_mu (fun () ->
              Guard.Checkpoint.save path
                { Guard.Checkpoint.key; samples; shards = Array.copy cells }))
  in
  (* First stop reason wins and halts every shard at its next sample
     boundary; partial progress stays in the cells. *)
  let stop : Guard.reason option Atomic.t = Atomic.make None in
  let should_stop () =
    match Atomic.get stop with
    | Some _ -> true
    | None ->
      if Guard.interrupted () || Guard.cancelled guard then begin
        ignore (Atomic.compare_and_set stop None (Some Guard.Interrupted));
        true
      end
      else if Guard.deadline_exceeded guard then begin
        ignore (Atomic.compare_and_set stop None (Some (Guard.deadline_reason guard)));
        true
      end
      else false
  in
  let obs = Obs.enabled () in
  let ser = Obs.Series.enabled () in
  let trc = Obs.Trace.enabled () in
  let tasks =
    Array.init shards (fun s ->
        let todo = quotas.(s) in
        let k = series_stride sizes.(s) in
        let ckpt_stride = max 1 (sizes.(s) / 8) in
        let fhook = Guard.Fault.hook fault ~shard:s in
        fun () ->
          if ser || trc then Obs.set_tid s;
          let t0 = if obs || trc then Obs.now_ns () else 0 in
          let publish ~completed ~hits rng =
            cells.(s) <-
              {
                Guard.Checkpoint.shard = s;
                todo = sizes.(s);
                completed;
                hits;
                rng = Random.State.copy rng;
              }
          in
          let attempt att =
            let start = cells.(s) in
            let rng = Random.State.copy start.Guard.Checkpoint.rng in
            let hits = ref start.Guard.Checkpoint.hits in
            let completed = ref start.Guard.Checkpoint.completed in
            match
              while !completed < todo && not (should_stop ()) do
                (match fhook with
                | None -> ()
                | Some h -> h ~attempt:att ~completed:!completed);
                if run rng then incr hits;
                incr completed;
                if ser && !completed mod k = 0 then begin
                  let h = !hits and c = !completed in
                  let lo, hi = Obs.wilson_interval ~hits:h ~total:c in
                  Obs.Series.add "sampler.estimate" ~shard:s ~it:c
                    (float_of_int h /. float_of_int c);
                  Obs.Series.add "sampler.ci_low" ~shard:s ~it:c lo;
                  Obs.Series.add "sampler.ci_high" ~shard:s ~it:c hi
                end;
                match save_ckpt with
                | Some save when !completed mod ckpt_stride = 0 ->
                  publish ~completed:!completed ~hits:!hits rng;
                  save ()
                | _ -> ()
              done
            with
            | () ->
              publish ~completed:!completed ~hits:!hits rng;
              Ok ()
            | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              (* Keep the partial progress: a resumed run replays the failed
                 shard from its last consistent state. *)
              publish ~completed:!completed ~hits:!hits rng;
              Error (e, bt)
          in
          let outcome =
            match attempt 0 with
            | Ok () -> None
            | Error (Guard.Fault.Transient _, _) -> begin
              (* Retry once: the cell still holds the last consistent
                 (completed, hits, rng) triple, so the replay is
                 deterministic — same stream, same samples. *)
              if obs then Obs.incr (Obs.counter "pool.retries");
              match attempt 1 with Ok () -> None | Error (e, bt) -> Some (e, bt)
            end
            | Error (e, bt) -> Some (e, bt)
          in
          match outcome with
          | Some (exn, backtrace) ->
            Failed { shard = s; completed = cells.(s).Guard.Checkpoint.completed; exn; backtrace }
          | None ->
            let cell = cells.(s) in
            if trc then
              Obs.Trace.complete ~tid:s ~t0 ~dur:(Obs.now_ns () - t0)
                ~args:
                  [
                    ("samples", cell.Guard.Checkpoint.completed);
                    ("hits", cell.Guard.Checkpoint.hits);
                  ]
                "pool.shard";
            if obs then
              Obs.record_shard
                {
                  Obs.shard = s;
                  samples = cell.Guard.Checkpoint.completed;
                  hits = cell.Guard.Checkpoint.hits;
                  ms = Obs.ms_of_ns (Obs.now_ns () - t0);
                };
            Done
              {
                hits = cell.Guard.Checkpoint.hits;
                completed = cell.Guard.Checkpoint.completed;
              })
  in
  let results = map_tasks ~domains tasks in
  if ser || trc then Obs.set_tid 0;
  (* Flush the end state unconditionally: a kill/stop between two stride
     points must not lose the progress published since the last save. *)
  (match save_ckpt with Some f -> f () | None -> ());
  let hits, completed = collect results in
  let stopped =
    match Atomic.get stop with
    | Some r -> Some r
    | None -> (
      match clamp with
      | Some budget -> Some (Guard.Samples { budget; completed })
      | None -> None)
  in
  { hits; completed; requested = samples; stopped }
