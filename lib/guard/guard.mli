(** Resource governance for long evaluations: cooperative budgets
    (wall-clock deadline, explored-state budget, sample budget), a global
    interrupt flag for SIGINT handling, deterministic fault injection for
    the worker pool ({!Fault}) and versioned sampler checkpoints
    ({!Checkpoint}).

    Contract (same as [Obs]): evaluation sites consult the guard once when
    they build their closures — {!state_tick}, {!sample_tick} and
    {!stop_check} return [None] for an inactive guard, so the executed hot
    loop with governance off is exactly the unguarded one.  An active
    guard's checks run once per expanded state / drawn sample, never per
    tuple.

    Budget exhaustion raises {!Exhausted} carrying a structured
    {!type-reason}; callers catch it at an engine boundary and turn it into
    a partial result.  A guard is single-run state: build one per
    [Engine.run] call and do not share an active guard between concurrent
    runs (the counters are plain mutable fields; worker pools charge
    samples through their own shard totals instead). *)

type reason =
  | Deadline of { budget_ms : float; elapsed_ms : float }
  | States of { budget : int; reached : int }
  | Samples of { budget : int; completed : int }
  | Interrupted

exception Exhausted of reason

val describe : reason -> string
(** Human-readable one-liner, e.g.
    ["state budget exhausted: reached 1024 states (budget 1000)"]. *)

val reason_slug : reason -> string
(** Machine key for reports: ["deadline"] | ["state-budget"] |
    ["sample-budget"] | ["interrupted"]. *)

type t

val unlimited : t
(** The inactive guard: every checker returns [None], nothing is ever
    charged or checked.  This is the default everywhere. *)

val default_state_budget : int
(** 100 000: the state budget [probdl] and the daemon's default tenant
    apply when none is given, so an exact run over an exponential state
    space (Prop 4.4, Prop 5.4) ends in a declared outcome.  Library callers
    get {!unlimited} unless they ask. *)

val make :
  ?deadline_ms:float -> ?max_states:int -> ?max_samples:int -> unit -> t
(** An active guard.  [max_states] bounds the states every exact method
    explores (chain states, Prop 4.4 traversal states, lineage nodes,
    enumerated worlds); [max_samples] bounds drawn samples.  Raises
    [Invalid_argument] when a budget or the deadline is not positive.  The deadline clock starts at [make] time and reads
    the monotonic [Obs.now_ns] high-water clock, never [gettimeofday]
    directly — a wall-clock step (NTP, manual set) in a resident process
    can neither fire a deadline early nor defer it indefinitely, and
    remaining budget never reads negative.  A guard with no budgets at all
    still watches the {!interrupt} flag — build one when checkpointing or
    handling SIGINT without resource limits. *)

val remaining_ms : t -> float option
(** Milliseconds left on the deadline budget, clamped at [0.]; [None] when
    the guard has no deadline.  Monotone non-increasing across calls. *)

val active : t -> bool

val state_budget : t -> int option
val sample_budget : t -> int option
val deadline_ms : t -> float option

val states_reached : t -> int
(** States charged so far via {!state_tick} (0 for [unlimited]). *)

val state_tick : t -> (unit -> unit) option
(** [None] iff the guard is inactive.  The returned closure charges one
    explored state and raises {!Exhausted} when the state budget is
    exceeded, the deadline has passed, or an interrupt/cancel was
    requested.  Deadline/interrupt are polled on every call (one latched
    [Obs.now_ns] read — fine at per-state granularity). *)

val sample_tick : t -> (unit -> unit) option
(** Like {!state_tick} for one drawn sample against the sample budget.
    Sequential samplers use this; {!Eval.Pool} instead clamps shard quotas
    up front and uses {!stop_check}. *)

val stop_check : t -> (unit -> unit) option
(** Deadline + interrupt only: charges nothing.  [None] iff inactive. *)

val deadline_exceeded : t -> bool
val deadline_reason : t -> reason
(** The [Deadline] reason with the current elapsed time.  Meaningful only
    for a guard with a deadline; raises [Invalid_argument] otherwise. *)

(** {2 Interrupt flag}

    Process-global, set from a signal handler ([Sys.Signal_handle] runs in
    the main OCaml execution context, so an atomic set is safe) and polled
    by every active guard's checkers. *)

val request_interrupt : unit -> unit
val interrupted : unit -> bool
val clear_interrupt : unit -> unit

val cancel : t -> unit
(** Per-guard cancellation: the guard's checkers raise
    [Exhausted Interrupted] at their next poll, without touching the
    process-global interrupt flag other concurrent runs watch — this is how
    a server cancels one request.  Meaningful only for an active guard
    ({!unlimited} has no checkers). *)

val cancelled : t -> bool

(** {2 Deterministic fault injection}

    Test-only failures for {!Eval.Pool} workers, enabled via the
    [PROBDB_FAULT] environment variable (or an explicit spec in tests) so
    production binaries never pay for them.  Spec grammar, [';']-separated:
    {v
      kill:shard=K,after=N    raise Injected in shard K before sample N+1
      delay:shard=K,ms=M      sleep M ms before each of shard K's samples
      flaky:shard=K,after=N   raise Transient once (first attempt only)
    v}

    Serve-layer faults (consumed by the daemon's session loop and journal,
    invisible to pool workers — {!Fault.hook} never fires on them):
    {v
      conn-drop:after=N         close the connection after N responses
      partial-write:after=N     write a torn prefix of response N+1, then close
      resp-delay:ms=M           sleep M ms before each response write
      journal-crash:point=P     raise Injected at journal point P, where P is
                                pre-write | mid-record | pre-rename | post-rename
    v} *)
module Fault : sig
  exception Injected of string
  (** A permanent injected failure — never retried. *)

  exception Transient of string
  (** A transient injected failure — the pool retries the shard once. *)

  type spec

  val none : spec
  val is_none : spec -> bool

  val of_string : string -> spec
  (** Parses the grammar above; raises [Invalid_argument] on a malformed
      spec. *)

  val of_env : unit -> spec
  (** [PROBDB_FAULT] when set (malformed values raise [Invalid_argument]),
      {!none} otherwise. *)

  val to_string : spec -> string

  val hook : spec -> shard:int -> (attempt:int -> completed:int -> unit) option
  (** [None] when no fault targets [shard] — the pool then runs its
      fault-free loop.  Otherwise a closure called before every sample with
      the retry attempt (0, then 1 after a transient) and the number of
      samples completed so far in this attempt.  Serve-layer faults never
      match a shard. *)

  (** {3 Serve-layer accessors}

      Queried by the daemon; [None] / [false] when the spec carries no
      fault of that kind. *)

  val conn_drop : spec -> int option
  (** Responses to serve before dropping the connection. *)

  val partial_write : spec -> int option
  (** Responses to serve intact before writing a torn prefix and closing. *)

  val resp_delay_ms : spec -> float option
  (** Sleep this long before every response write. *)

  val journal_crash : spec -> point:string -> bool
  (** Whether the spec asks for a simulated crash ({!Injected}) at the named
      journal point ([pre-write] | [mid-record] | [pre-rename] |
      [post-rename]). *)
end

(** {2 Sampler checkpoints}

    Versioned snapshot of a pool run's per-shard progress: hit counts and
    RNG states.  Format: one magic line ["probdb.ckpt/1\n"] followed by a
    [Marshal]ed {!Checkpoint.t}.  Saves are atomic (unique temp file —
    pid + counter, so concurrent savers to one target never truncate each
    other — flushed, then renamed; the temp is unlinked on failure), so a
    checkpoint file is always either absent, the previous snapshot, or
    a complete new one — never torn.  Resuming replays each shard from its saved
    RNG state, which makes a resumed run bit-identical to an uninterrupted
    one at any domain count (shard layout depends only on the workload). *)
module Checkpoint : sig
  exception Error of string

  type shard_state = {
    shard : int;
    todo : int;  (** this shard's full quota in the uninterrupted run *)
    completed : int;
    hits : int;
    rng : Random.State.t;  (** state after [completed] samples *)
  }

  type t = {
    key : string;
        (** fingerprint of (program, seed, method parameters); resume
            refuses a mismatched key *)
    samples : int;  (** total requested samples across all shards *)
    shards : shard_state array;
  }

  val magic : string

  val save : string -> t -> unit
  val load : string -> t
  (** Raises {!Error} on a missing file, bad magic or undecodable body. *)
end
