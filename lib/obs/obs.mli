(** Zero-cost-when-off observability: named monotonic counters with
    accumulated wall-clock time, a per-run phase table, a per-shard sampling
    table, per-iteration time series ({!Series}), a span/instant recorder
    flushed to Chrome trace-event JSON ({!Trace}), mergeable log-bucketed
    histograms ({!Hist}) and leveled structured JSON logging ({!Log}).

    Contract: instrumentation sites consult {!enabled} (or
    {!Trace.enabled}/{!Series.enabled}/{!Log.enabled}) once when they build
    their closures (plan compilation, chain construction, pool task
    creation) or once per top-level operation — never per tuple inside a
    hot loop.  With everything disabled the executed closures are exactly
    the uninstrumented ones.  Counter updates are plain word-sized writes
    into a per-(scope, domain) cell lane, so concurrent {!Eval.Pool}
    workers never contend and never lose increments; readers merge the
    lanes on demand, so {!snapshot} is exact once the writers have
    quiesced (joined or synchronised — every reporting path).  The phase
    and shard tables are mutex-protected and always exact. *)

type counter

(** Scoped stats: counters, the phase table, the shard table, {!Series}
    buffers and {!Trace} buffers all live in a scope, so a resident server
    can give each request its own registry and report per-tenant stats,
    series and spans exactly — one session's ticks or spans never bleed
    into another's.  The default is a process-global scope (every CLI path
    is unchanged); the current scope is domain-local ([Domain.DLS]), so
    entering a scope on one domain never disturbs another.  {!Eval.Pool}
    workers enter the caller's scope for the duration of each task, so
    parallel evaluation records into the scope of the request that spawned
    it. *)
module Scope : sig
  type t

  val make : unit -> t
  (** A fresh scope: stats/series/trace disabled, empty tables and
      buffers, trace epoch based at creation time. *)

  val global : t
  (** The process-global default scope every domain starts in. *)

  val current : unit -> t

  val run : t -> (unit -> 'a) -> 'a
  (** Runs the thunk with [t] as the executing domain's current scope,
      restoring the previous scope on exit (also on exception). *)
end

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Stats switch of the {e current} scope. *)

val counter : string -> counter
(** Registers (or finds) the counter named [name] in the current scope.
    Counters persist across {!reset}, which only zeroes them. *)

val incr : counter -> unit
(** Counts in the current scope: a handle registered in another scope
    (a module-level counter registers in the global scope at load time)
    updates its namesake in the current scope when stats are enabled
    there, registering it on first use; with stats off there the update
    goes to the handle's own scope.  Likewise {!add} and {!record_max}. *)

val add : counter -> int -> unit

val record_max : counter -> int -> unit
(** Raises the counter's count to [n] if it is currently smaller (per-lane
    max, merged with max across lanes — for high-water marks like frontier
    size). *)

val count : counter -> int
val ns : counter -> int

val now_ns : unit -> int
(** Wall-clock nanoseconds ([Unix.gettimeofday]-backed; ~200ns grain),
    clamped against a global high-water mark so readings never decrease —
    an NTP step backwards repeats the last reading instead of producing
    negative durations downstream.  All budget arithmetic ([Guard]
    deadlines, spans, sampled operator timings) reads this clock, never
    [gettimeofday] directly. *)

val advance_ns : int -> unit
(** Pushes the {!now_ns} high-water mark forward by [n] nanoseconds without
    consulting the wall clock — the tested equivalent of an NTP step
    forward.  Negative [n] is ignored (the clock is monotone). *)

val ms_of_ns : int -> float

val count_of : string -> int
(** Count of the named counter, [0] if never registered. *)

val ms_of : string -> float
(** Accumulated milliseconds of the named counter, [0.] if never
    registered. *)

val snapshot : unit -> (string * int * float) list
(** All counters with activity, sorted by name: (name, count, ms). *)

val wrap1 : string -> ('a -> 'b) -> 'a -> 'b
(** [wrap1 name f]: when stats are enabled at wrap time, a closure that
    counts one tick per application under [name] and estimates wall time by
    sampling — 1-in-64 applications (per lane) are clocked, and each clocked
    duration is scaled at read time by the number of applications it stands
    for ([ticks / ceil(ticks / 64)] per lane, so fewer than 64 applications
    scale by their own count) — so the reported [ms] is a statistical
    estimate while [ticks] stays exact; when disabled, [f] itself (no
    branch, no indirection beyond the original closure). *)

val wrap2 : string -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c

val current_tid : unit -> int
(** The executing domain's current shard id (domain-local, default [0]).
    {!Eval.Pool} stamps it per task; {!Series.add} and {!Trace} events use
    it as their default shard/track. *)

val set_tid : int -> unit

val wilson_interval : hits:int -> total:int -> float * float
(** 95% Wilson score interval for [hits] successes in [total] trials —
    always within [[0,1]], sensible at 0 and [total] hits; [(0., 1.)] when
    [total <= 0]. *)

(** Minimal JSON emitter for the stats reports ([--stats-json] in [probdl]
    and [probmc]), trace files, series dumps, metrics documents and log
    lines.  A finite [Float] prints with the fewest significant digits
    (15, 16 or 17) that [float_of_string] reads back bit-identical; NaN and
    infinities print as [null]. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val to_file : string -> t -> unit
  (** Writes [to_string] plus a trailing newline to [path]. *)
end

(** Mergeable log-bucketed histograms over non-negative integer
    observations (latency nanoseconds, sizes).  Every histogram shares one
    fixed geometric bucket grid — upper bounds grow by [2^(1/4)] (~19%)
    from 1, with a terminal [+Inf] overflow bucket — so {!Hist.merge} is
    element-wise addition of bucket counts: exact, and independent of how
    the observations were sharded across domains.  A histogram is plain
    mutable state with no internal lock: callers serialise writers (the
    daemon records under its telemetry mutex; tests merge after joins). *)
module Hist : sig
  type t

  val make : unit -> t

  val observe : t -> int -> unit
  (** Records one observation; negative values clamp to 0. *)

  val total : t -> int
  (** Number of observations. *)

  val sum : t -> int
  (** Sum of (clamped) observations — exact, not bucket-approximated. *)

  val merge : t -> t -> t
  (** A fresh histogram holding both operands' observations.  Because the
      bucket grid is a program constant, [merge a b] has exactly the
      bucket counts of a histogram fed the concatenated observation
      streams, at any sharding. *)

  val quantile : t -> float -> int
  (** [quantile t q] for [q] in [[0,1]]: the upper bound of the bucket
      containing the observation of rank [ceil (q * total)] — within one
      bucket width (a factor [2^(1/4)]) above the true order statistic.
      [0] when empty; observations past the last finite bound report the
      last finite bound. *)

  val cumulative : t -> (int option * int) list
  (** Cumulative bucket counts in increasing bound order, one entry per
      non-empty bucket: [(Some upper_bound, cum)], terminated by the
      [+Inf] entry [(None, total)] which is always present.  Cumulative
      counts are monotone by construction — the Prometheus [_bucket]
      rendering is a direct transcription. *)

  val equal : t -> t -> bool
end

(** Named append-only per-iteration time series: (iteration, value) points
    keyed by (series name, shard), living in the {e current scope}.
    Recording is mutex-protected (points arrive rarely — every k-th
    sample, once per BFS level or fixpoint step); sites latch
    {!Series.enabled} at closure-build time so the disabled path stays the
    uninstrumented one.  Buffers cap at 65536 points per (name, shard) and
    count drops beyond that. *)
module Series : sig
  val enabled : unit -> bool
  val set_enabled : bool -> unit

  val add : ?shard:int -> string -> it:int -> float -> unit
  (** Appends a point to series [name] under [shard] (default
      {!current_tid}).  No-op when disabled. *)

  type observer = name:string -> shard:int -> it:int -> float -> unit

  val set_observer : observer option -> unit
  (** Installs (or clears) a callback in the current scope invoked after
      every recorded point — the live [--progress] hook.  Called outside
      the series lock, possibly from worker domains concurrently: the
      observer must be thread-safe. *)

  val merged : unit -> (string * int * (int * float) list) list
  (** All series sorted by (name, shard), each shard's points in recording
      order — a pure function of what was recorded, independent of domain
      count and scheduling for fixed-seed runs. *)

  val counts : unit -> (string * int) list
  (** Total recorded points per series name, name-sorted (the stats
      summary block). *)

  val dropped : unit -> int
  val reset : unit -> unit

  val json : unit -> Json.t
  (** Schema [probdb.series/1]: [{schema; series: [{name; shard; points:
      [[it, v], ...]}]; dropped}]. *)

  val write : string -> unit
end

(** Span/instant event recorder flushed to Chrome trace-event JSON loadable
    in Perfetto or [chrome://tracing].  Buffers live in the {e current
    scope}, so a per-request scope yields a tenant-clean trace: two
    concurrent daemon sessions never interleave into one buffer.  Appends
    take no lock: one bounded buffer per (scope, tid), single writer (the
    domain running that shard's task).  Full buffers drop new events and
    count them rather than overwrite — recorded spans stay balanced.
    Timestamps are {!now_ns} readings rebased to the scope's epoch (its
    creation time, or the last {!Trace.reset}). *)
module Trace : sig
  val enabled : unit -> bool
  val set_enabled : bool -> unit

  type event = {
    ph : char;  (** ['B'] | ['E'] | ['X'] | ['i'] *)
    name : string;
    ts : int;  (** ns since the scope's trace epoch *)
    dur : int;  (** ns; complete (['X']) events only *)
    tid : int;
    args : (string * int) list;
  }

  val instant : ?args:(string * int) list -> ?tid:int -> string -> unit
  val begin_span : ?args:(string * int) list -> ?tid:int -> string -> unit
  val end_span : ?tid:int -> string -> unit

  val complete : ?args:(string * int) list -> ?tid:int -> t0:int -> dur:int -> string -> unit
  (** One 'X' (complete) event: [t0] an absolute {!now_ns} reading, [dur]
      clamped at 0. *)

  val with_span : ?args:(string * int) list -> string -> (unit -> 'a) -> 'a
  (** Runs the thunk inside a complete span when enabled, just runs it when
      disabled. *)

  val events : unit -> event list
  (** Everything recorded in the current scope, grouped by tid ascending,
      each tid's events stably sorted by [ts] (complete events are
      recorded at completion but stamped with their start time) — hence
      ts-monotone per tid. *)

  val dropped : unit -> int

  val reset : unit -> unit
  (** Clears the current scope's buffers and re-bases its epoch at the
      current clock. *)

  val json : unit -> Json.t
  (** Chrome trace-event JSON: [{"traceEvents": [...], ...}] with integer
      microsecond [ts]/[dur] and [pid] = [tid] = shard id; the current
      {!Series.json} document rides along under the ["series"] key (viewers
      ignore unknown top-level keys). *)

  val write : string -> unit
end

(** Leveled structured JSON logging.  Off by default: no sink, zero cost —
    sites latch {!Log.enabled} like every other plane switch.  A sink is
    process-global (one log stream per daemon); each call emits a single
    JSON line [{"ts"; "ts_ns"; "level"; "event"; ...fields}] under a mutex
    so concurrent session domains never interleave bytes.  [probdbd
    --log-json] installs a stderr sink and stamps every line with the
    request's correlation id. *)
module Log : sig
  type level = Debug | Info | Warn | Error

  val slug : level -> string
  (** ["debug"] | ["info"] | ["warn"] | ["error"]. *)

  val set_sink : ?level:level -> (string -> unit) option -> unit
  (** Installs (or clears, with [None]) the process-global sink; lines at
      or above [level] (default [Info]) are emitted.  The emit function
      receives one complete JSON line without the trailing newline. *)

  val enabled : level -> bool
  (** Whether a line at [level] would be emitted — latch this at
      closure-build time on hot paths. *)

  val log : level -> string -> (string * Json.t) list -> unit
  (** [log level event fields] emits [{"ts"; "ts_ns"; "level"; "event";
      ...fields}].  No-op without a sink or below its level. *)
end

val phase : string -> (unit -> 'a) -> 'a
(** Times the thunk into the phase table when stats are enabled
    (accumulating over same-named phases) and emits a complete trace span
    when tracing is enabled; just runs it when both are off. *)

val phases : unit -> (string * float) list
(** Phase table in first-recorded order: (name, ms). *)

type shard = {
  shard : int;
  samples : int;
  hits : int;
  ms : float;
}

val record_shard : shard -> unit
val shards : unit -> shard list
(** Shard table sorted by shard id. *)

val reset : unit -> unit
(** Zeroes every counter and clears the phase and shard tables.
    {!Trace.reset} and {!Series.reset} are separate: a CLI enables and
    flushes them across a whole multi-event run. *)
