(** The probdbd server: a long-lived multi-tenant query daemon speaking
    {!Proto} (probdb.proto/3) over a Unix or TCP socket.

    Each accepted connection is a session running on its own Domain, so
    every request executes inside a fresh {!Obs.Scope} — per-tenant stats
    never bleed between concurrent sessions.  Compiled plans are shared
    across all sessions through one {!Request.cache} (the interned value
    store in {!Relational.Value} is process-global and shared
    automatically).  Per-tenant budgets are enforced by an active
    {!Guard} per request, with admission control refusing requests beyond
    the tenant's in-flight cap, and budget exhaustion degrading per
    request class: interactive requests fall back to the sampler (when
    the tenant profile allows), batch requests return partial reports.

    The telemetry plane (on by default, [config.telemetry]) records every
    request into a {!Telemetry} registry — per-(tenant, class, outcome)
    latency histograms with admission-wait/compile/eval sub-phases —
    served back by the ["metrics"] op as [probdb.metrics/1] JSON plus
    Prometheus text.  Every request gets a correlation id echoed as
    ["corr"] in its response, stamped into {!Obs.Log} request lines and
    (for ["trace"]: true queries) into the request span's args.

    Durability ([config.state_dir]): the server journals every [load]
    through {!Journal} — framed, CRC-checked, fsynced — strictly before
    applying it to the in-memory program table and before acking, and
    replays snapshot + journal at {!create}, so a daemon restarted on the
    same state dir answers queries [Q]-identically to the pre-crash one.
    Hardening: per-frame read deadlines ([config.read_deadline_ms], the
    clock starts at a frame's first byte, so idle connections are free but
    a stalled mid-frame sender is cut off), a max request frame size
    ([config.max_frame]), an error taxonomy ({!Proto} [code] slugs) under
    which no malformed, oversized or torn request can kill a session loop,
    and (tenant, ["idem"]) response dedup so a client retry of a request
    that already completed returns the stored response verbatim.
    Serve-layer chaos faults ([PROBDB_FAULT]: [conn-drop], [partial-write],
    [resp-delay], [journal-crash]) are latched once at {!create}. *)

type addr =
  | Unix_sock of string
  | Tcp of string * int

(** Per-tenant budget profile.  [None] budgets are unlimited; the guard
    built for a request still watches interrupts and cancellation. *)
type tenant_profile = {
  tp_name : string;
  tp_deadline_ms : float option;  (** interactive-class deadline *)
  tp_batch_deadline_ms : float option;
  tp_state_budget : int option;
  tp_sample_budget : int option;
  tp_max_inflight : int;  (** admission: concurrent queries per tenant *)
  tp_fallback : bool;
      (** interactive requests re-run blown exact evaluations under the
          sampler instead of returning a partial report *)
}

val default_profile : tenant_profile
(** State budget {!Guard.default_state_budget}, no other budget,
    [tp_max_inflight] 8, fallback on. *)

val profile_of_spec : default:tenant_profile -> string -> tenant_profile
(** Parses ["name,deadline_ms=500,state_budget=10000,max_inflight=2,..."]
    (keys: deadline_ms, batch_deadline_ms, state_budget, sample_budget,
    max_inflight, fallback) on top of [default].  Raises
    [Invalid_argument] on malformed specs. *)

type config = {
  socket : addr;
  max_sessions : int;  (** concurrent connections; excess refused *)
  cache_capacity : int;  (** shared plan cache entries (FIFO eviction) *)
  default_tenant : tenant_profile;  (** applied to unlisted tenants *)
  tenants : tenant_profile list;
  telemetry : bool;
      (** record per-request metrics and answer the ["metrics"] op; off,
          the request path is the plain uninstrumented one and ["metrics"]
          returns an error *)
  state_dir : string option;
      (** durable journal + snapshot directory; [None] keeps the daemon
          fully in-memory (no fsync on the load path) *)
  journal_compact_every : int;
      (** journal records that trigger snapshot compaction *)
  read_deadline_ms : float;
      (** per-frame read deadline, measured from a frame's first byte *)
  max_frame : int;  (** max request line length in bytes *)
}

val default_config : addr -> config
(** 64 sessions, 64 cache entries, {!default_profile} for everyone,
    telemetry on, no state dir, compaction every 64 records, 10 s read
    deadline, 1 MiB max frame. *)

type t

val create : config -> t
(** Binds and listens.  Raises [Failure] first when a tenant profile
    carries a non-positive budget or deadline (the check of
    {!Guard.make}).  For a unix socket, a leftover path with no
    listener behind it (crashed server) is removed first; a live listener
    raises [Failure].  With [state_dir] set, opens the journal and replays
    snapshot + records (truncating a torn tail) into the program table
    before any connection is accepted; raises {!Journal.Error} on corrupt
    state. *)

val serve_forever : t -> unit
(** The accept loop; returns after {!shutdown}: closes the listener,
    drains live sessions, joins their domains and unlinks a unix socket
    path. *)

val shutdown : t -> unit
(** Idempotent; safe from a signal handler or another domain. *)

val handle_line : t -> string -> Obs.Json.t
(** One request line → its response document (exposed for direct
    in-process use and tests; sessions loop over this).  Never raises —
    unexpected exceptions become [code]: ["internal"] error responses —
    except [Guard.Fault.Injected] from an armed journal crash point, which
    propagates to simulate the process dying. *)
