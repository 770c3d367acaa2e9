(** Uniform front-end over the four engines, used by the CLI and examples:
    parse → slice to the event's cone → compile under the chosen semantics
    → evaluate.

    {b Cone slicing.}  {!prepare} first restricts the input to the event's
    cone ({!Lang.Slice}): the event relation, closed backwards over the
    rules through positive and negated body atoms.  Rules whose head is
    outside the cone, facts and conditional facts of relations outside it,
    and pc-table variables that no kept condition mentions are dropped
    before any kernel, chain, fixpoint or sample is built, so every method
    runs on the slice.  This is sound because the cone is
    dependency-closed — a cone relation's next value is computed from cone
    relations only — and because each rule's repair-key draws are
    independent of every other rule's.  Projecting a database state onto
    the cone is then a strongly lumpable map of the state chain: from the
    projected start state the projected process has the same law as the
    sliced program's.  The event reads only the cone, so its long-run mass
    (Prop 5.4 / Thm 5.5), its probability at the inflationary fixpoint
    (Prop 4.4) and its hitting times are unchanged; out-of-cone pc-table
    variables marginalise out of the world average.  A product of
    independent walkers with the event on one of them is thus answered on
    that walker's chain alone.  Out-of-cone repair-key draws no longer
    consume the sampler's RNG, so fixed-seed estimates differ from an
    unsliced run's, with the same guarantee. *)

type semantics =
  | Inflationary
  | Noninflationary

type method_ =
  | Exact
      (** Prop 4.4 / Prop 5.4+Thm 5.5; a non-inflationary chain is solved on
          its event-lumped quotient, reported as [lumped classes] *)
  | Exact_partitioned  (** §5.1 (non-inflationary only) *)
  | Sampling of {
      eps : float;
      delta : float;
      burn_in : int;  (** walk length before sampling (non-inflationary) *)
    }  (** Thm 4.3 / Thm 5.6 *)
  | Time_average of {
      steps : int;  (** length of the counted window *)
      burn_in : int;  (** discarded prefix before counting *)
    }
      (** single-walk long-run average estimator (non-inflationary only):
          {!Sample_noninflationary.eval_time_average} *)

(** Structured run metrics, populated from {!Obs} when [run ~stats:true].
    [steps] counts kernel steps taken (sampling) or states expanded (exact
    chain exploration); [states] distinct states interned or memoised;
    [draws] repair-key RNG draws plus raw chain-walk draws; [operators]
    per-plan-operator (name, ticks, ms); [shards] the {!Pool} shard table
    (parallel sampling only); [series] point counts per recorded
    {!Obs.Series} name (non-empty only when series recording was on). *)
type stats = {
  engine : string;  (** e.g. ["exact-noninflationary"], ["sample-inflationary"] *)
  steps : int;
  states : int;
  draws : int;
  elapsed_ms : float;
  phases : (string * float) list;  (** per-phase ms: compile/sample/explore/solve/evaluate *)
  operators : (string * int * float) list;
  shards : Obs.shard list;
  series : (string * int) list;
}

(** How far the run got.  [Complete] is the full answer with its usual
    guarantee (exact rational, or Thm 4.3 / Thm 5.6 (ε,δ) certificate).
    [Partial] is a budget- or interrupt-truncated run: for sampling methods
    the best estimate so far, with [completed]/[requested] sample counts and
    a Wilson 95% interval; for exact methods the answer is [nan] and
    [completed]/[requested] count states explored (at most the budget: the
    state that overflowed it is not counted) vs the state budget. *)
type outcome =
  | Complete
  | Partial of {
      reason : Guard.reason;
      completed : int;
      requested : int;
      ci : (float * float) option;  (** Wilson 95% interval (sampling only) *)
    }

(** A recorded graceful degradation: an exact run blew its state budget and
    was re-run with the sampler ([--on-budget fallback]). *)
type downgrade = {
  from_ : string;  (** method slug of the exact engine that exceeded budget *)
  to_ : string;  (** always ["sampling"] *)
  trigger : string;  (** {!Guard.reason_slug} of the exhausted budget *)
}

(** What to do when a {!Guard} budget runs out mid-evaluation.  [Fail]
    raises {!Engine_error}; [Degrade] (the default) returns a [Partial]
    report; [Fallback] additionally re-runs exact methods that exceeded the
    {e state} budget under the sampler with the given (ε,δ) parameters,
    recording the switch in [report.downgrade].  Budgets a sampler cannot
    outrun (deadline, sample budget, interrupt) degrade even under
    [Fallback]. *)
type budget_policy =
  | Fail
  | Degrade
  | Fallback of {
      eps : float;
      delta : float;
      burn_in : int;
    }

type report = {
  probability : float;  (** the query answer (float view); [nan] on exact Partial *)
  exact : Bigq.Q.t option;  (** exact value when the method is exact *)
  semantics : semantics;
  method_ : method_;
  stats : stats option;  (** [Some] iff [run ~stats:true] *)
  diagnostics : (string * string) list;  (** human-readable key/value pairs *)
  outcome : outcome;
  downgrade : downgrade option;  (** [Some] iff a fallback fired *)
}

exception Engine_error of string

(** A compiled request: parse/slice/compile work done once, runtime
    inputs (seed, budgets, domains, policy) supplied per {!execute}.  A
    prepared program holds only immutable compiled artifacts (physical
    plans are safe to execute concurrently from several domains), so one
    value can be cached and shared across concurrent executions — this is
    what the server's plan cache stores.  Branches whose compilation
    consumes RNG draws (pc-table sampling probes a world for schemas)
    defer compilation into {!execute} so fixed-seed estimates stay
    draw-identical to {!run}'s. *)
type prepared

val prepare :
  semantics:semantics ->
  method_:method_ ->
  Lang.Parser.parsed ->
  prepared
(** Compile-time half of {!run}: same defaults and diagnostics.  The
    input is sliced to the event's cone first (an [Obs] phase "slice"),
    and the report's ["cone relations"] row reads ["i of n"]; the
    ["rules"], ["facts"], ["linear"] and ["repair-key on base only"] rows
    describe the input as written.  Raises
    {!Engine_error} when the input does not carry exactly one [?-] event
    (a program with several is answered one event at a time, each on its
    own cone: [{parsed with event = Some e; events = [e]}]), the method
    does not apply to the semantics, or the method's parameters are out of range
    ([eps] and [delta] must lie in (0, 1), [burn_in] must be [>= 0],
    [steps] must be [> 0]).  Phases ("slice"/"compile") are recorded
    into the current {!Obs} scope when stats are enabled there. *)

val noninflationary_kernel :
  Lang.Parser.parsed -> Prob.Interp.t * Relational.Database.t
(** The non-inflationary kernel of an input as given (certain facts or a
    pc-table) and its initial database; no slicing. *)

val execute :
  ?seed:int ->
  ?max_steps:int ->
  ?domains:int ->
  ?guard:Guard.t ->
  ?on_budget:budget_policy ->
  ?ckpt:Pool.ckpt ->
  ?stats:bool ->
  prepared ->
  report
(** Runtime half of {!run}, with the same defaults and error boundary.
    Unlike {!run} it does NOT reset or toggle {!Obs}: the caller owns the
    current scope (a server enables stats in a per-request scope around
    this call).  With [stats], [report.stats] is assembled from the
    current scope, timed from this call — a cache-hitting caller pays no
    compile time and reports none. *)

val run :
  ?seed:int ->
  ?max_steps:int ->
  ?domains:int ->
  ?guard:Guard.t ->
  ?on_budget:budget_policy ->
  ?ckpt:Pool.ckpt ->
  ?stats:bool ->
  semantics:semantics ->
  method_:method_ ->
  Lang.Parser.parsed ->
  report
(** Every run compiles the kernel to physical plans ({!Prob.Pplan}) built
    once per program and executed every step; the exact inflationary
    engines step each fixpoint through semi-naive delta plans
    ({!Lang.Seminaive}), recorded in the report's diagnostics under
    ["plan strategy"].  Exact inflationary evaluation over a pc-table
    reports ["pc-table method"] instead: ["lineage"] when the program has
    no repair-key rule and no negated atom (one annotated fixpoint,
    {!Exact_inflationary.eval_ctable}, with the event diagram's size under
    ["lineage nodes"]), ["worlds"] otherwise.  Inflationary sampling over a
    pc-table reports ["pc-table sampler"]: ["ground (F facts, I instances)"]
    for the same programs lineage applies to (the program is grounded once
    on the max world and each sample is unit propagation,
    {!Sample_inflationary.run_ground}), ["kernel"] otherwise (each sample
    steps the kernel to its world's fixpoint).  Both give the same
    estimate for a fixed seed.  Non-inflationary sampling and
    time-average report ["stepper"]: ["memo"] when the walk replays each
    state's recorded draws ({!Sample_noninflationary}), ["plan"] when it
    runs the kernel every step; the same estimate either way, and the
    row is also on a [Fallback] from an exhausted chain.  Sampling
    methods run on {!Pool.run_samples}:
    [domains] (default 1) is how many OCaml domains the shards spread
    over, at most {!Pool.available}.  For a fixed [seed] the estimate is
    the same at every domain count, because the shards and their RNG
    streams depend only on the seed and the sample count.

    [max_steps] bounds the inflationary
    sampler's walk to the fixpoint (default 100000 inside
    {!Sample_inflationary}); the ground pc-table sampler takes no kernel
    steps and ignores it.  [stats] (default false) resets and enables
    {!Obs} for the duration of the run and fills [report.stats]; off, the
    evaluators execute their uninstrumented closures.  {!Obs.Trace} and
    {!Obs.Series} are the caller's to enable, reset and flush: whatever
    they record while enabled accumulates across runs.

    [guard] (default {!Guard.unlimited}) bounds the run: deadline, state
    budget and sample budget are checked cooperatively at hot-loop
    boundaries, and {!Guard.request_interrupt} stops it from a signal
    handler.  The state budget is the one bound on explored states for
    every exact method — chain states (plain and partitioned, summed over
    the partition's classes), Prop 4.4 traversal states, lineage nodes and
    enumerated pc-table worlds; with the default guard nothing is
    bounded ([probdl] and [probdbd] pass
    {!Guard.default_state_budget} when no budget is given).  [on_budget] (default [Degrade]) picks the reaction — see
    {!budget_policy}; [report.outcome] says whether the answer is complete.
    [ckpt] adds periodic checkpointing and/or a resume snapshot to
    sampling methods ({!Pool.run_samples}): a resumed run's estimate is
    bit-identical to an uninterrupted one with the same seed.  Fault injection is read from the [PROBDB_FAULT] environment
    variable inside {!Pool}.

    Raises {!Engine_error} when the parsed input does not carry exactly one
    [?-] event, the method does not apply (e.g. partitioned inflationary), the method's or
    a [Fallback] policy's parameters are out of range, a budget runs out
    under [on_budget = Fail], a checkpoint file is invalid, or a
    sampler diverges — {!Pool.Worker_error} (carrying
    {!Sample_inflationary.Did_not_converge} for a divergent run) is caught
    here and converted into an [Engine_error] naming the shard and samples
    completed (and listing any other shards that failed in the same
    run). *)

val pp_report : Format.formatter -> report -> unit

val pp_stats : Format.formatter -> stats -> unit

val json_of_stats : stats -> Obs.Json.t

val json_of_report : tool:string -> report -> Obs.Json.t
(** The machine-readable ["probdb.stats/3"] document emitted by
    [--stats-json]: always [schema]/[tool]/[semantics]/[method]/
    [probability]/[exact]/[outcome]/[downgrade]/[diagnostics]; plus
    [engine]/[steps]/[states]/[draws]/[elapsed_ms]/[phases]/[operators]/
    [shards]/[series] when [report.stats] is populated.  [outcome] is
    [{"status":"complete"}] or [{"status":"partial", "reason", "detail",
    "completed", "requested"(, "ci_low", "ci_high")}]; [downgrade] is
    [null] or [{"from", "to", "trigger"}].  /2 added [series]; /3 added
    [outcome] and [downgrade]. *)
