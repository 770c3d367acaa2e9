(** Worker pool over OCaml 5 domains for the sampling engines (Thm 4.3 /
    Thm 5.6), whose independent restarts are embarrassingly parallel.

    Determinism contract: work is cut into shards whose number and RNG
    streams depend only on the workload and the caller's RNG — never on the
    domain count — so for a fixed seed the merged result is bit-identical
    across runs {e and} across domain counts.  {!run_samples} extends the
    same contract to governed runs: a budgeted run completes a
    deterministic prefix of the unbudgeted sample set, and an interrupted
    run resumed from its checkpoint finishes with the identical estimate. *)

val available : unit -> int
(** [Domain.recommended_domain_count ()]: the hardware parallelism budget. *)

type failure = {
  shard : int;
  completed : int;  (** samples completed in that shard when it failed *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

exception
  Worker_error of { shard : int; completed : int; exn : exn; failures : failure list }
(** Raised by {!run_samples} when [run] raises: every shard
    still runs to its own conclusion, then all failed shards are collected
    into [failures] (ascending shard order) and the first one's
    shard/completed/exn ride along at top level for compatibility.  The
    raise preserves the first failure's original backtrace
    ([Printexc.raise_with_backtrace]).  Raised on the calling domain after
    all domains join. *)

val split_rngs : Random.State.t -> int -> Random.State.t array
(** [split_rngs rng n] deterministically splits [n] independent child
    streams off [rng] (advancing it). *)

val map_tasks : domains:int -> (unit -> 'a) array -> 'a array
(** Runs the tasks on [domains] domains (clamped to
    [1 .. min #tasks (available ())]) and
    returns their results in task order.  Task-to-domain assignment is
    dynamic (work stealing off a shared counter); results are positioned by
    task index, so the output does not depend on scheduling.  If a task
    raises, the exception is re-raised after all domains are joined. *)

type run = {
  hits : int;
  completed : int;  (** samples actually evaluated (= [requested] iff complete) *)
  requested : int;
  stopped : Guard.reason option;  (** [None] iff the run completed *)
}

type ckpt = {
  path : string;  (** where to save [probdb.ckpt/1] snapshots *)
  key : string;  (** run fingerprint; resuming refuses a mismatched key *)
  resume : Guard.Checkpoint.t option;  (** a previously saved state to continue *)
}

val run_samples :
  ?guard:Guard.t ->
  ?fault:Guard.Fault.spec ->
  ?ckpt:ckpt ->
  domains:int ->
  samples:int ->
  Random.State.t ->
  (Random.State.t -> bool) ->
  run
(** [run_samples ~domains ~samples rng run]: evaluates [run] on [samples]
    independent trials and counts the [true] results.  The trials are cut
    into [min samples 32] shards, each drawing from its own stream split
    off [rng]; shards run on up to [domains] domains ({!map_tasks}).  For a
    fixed (rng state, samples) the result is the same at every domain
    count.  Raises [Invalid_argument] when [samples <= 0].  Per sample the
    loop reads one stop flag and polls the guard's deadline, cancellation
    and the interrupt flag:

    - A sample budget clamps each shard's quota up front with the same
      deterministic split as the samples themselves, so the budgeted run
      evaluates a fixed-seed-reproducible subset and reports
      [stopped = Some (Samples _)].
    - Deadline and interrupt stop every shard at its next sample boundary
      ([stopped = Some (Deadline _ | Interrupted)]); completed counts and
      hit counts of the finished prefix are returned.
    - [ckpt] persists per-shard progress (hit counts + RNG states) every
      1/8 of a shard's workload and once at the end, atomically; [resume]
      replays each shard from its saved RNG state, making
      interrupt-then-resume bit-identical to an uninterrupted run at any
      domain count.  Raises {!Guard.Checkpoint.Error} when the saved file
      does not match this run's key or shape.
    - [fault] injects deterministic failures ({!Guard.Fault}); shards
      failing with {!Guard.Fault.Transient} are retried once, replaying
      deterministically from their last published state.

    Telemetry is latched once per run: with {!Obs.Series} enabled each
    shard records a ["sampler.estimate"] series with Wilson 95% bounds
    every k-th sample (k a function of the shard's workload only, so the
    merged series is domain-count independent); with {!Obs.Trace} enabled
    each shard emits one complete ["pool.shard"] span on its own tid. *)
