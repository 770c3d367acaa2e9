(** Non-inflationary ("forever") queries — Definition 3.2.

    A forever-query is a transition kernel [Q] (a probabilistic first-order
    interpretation) plus a query event [e].  Running [State := Q(State)]
    forever induces a random walk over database instances; the query result
    is the long-run average probability that [e] holds. *)

type delta_stepper =
  db:Relational.Database.t ->
  delta:Relational.Database.t option ->
  (Relational.Database.t * Relational.Database.t) Prob.Dist.t
(** A semi-naive stepper: given the current state and the delta since the
    previous state ([None] on the first step, forcing a full evaluation),
    return the distribution of [(successor, successor − current)] pairs.
    The successor distribution must equal {!step}'s exactly; the paired
    delta covers every IDB relation that grew.  Only meaningful for
    inflationary kernels, where states grow monotonically. *)

type t = {
  kernel : Prob.Interp.t;  (** the logical kernel — always present *)
  plan : Prob.Pplan.interp option;
      (** compiled physical plans for the kernel; when present, {!step} and
          {!step_sampled} execute them instead of interpreting [kernel] *)
  delta : delta_stepper option;
      (** semi-naive stepper (e.g. {!Seminaive.stepper}); engines that
          thread deltas use it instead of {!step}, others ignore it *)
  event : Event.t;
}

val make : kernel:Prob.Interp.t -> event:Event.t -> t
(** An interpreted query ([plan = None], [delta = None]). *)

val compile : schema_of:(string -> string list) -> t -> t
(** Compile the kernel to physical plans ({!Prob.Pplan.compile_interp});
    [schema_of] gives each mentioned relation's columns (e.g. from the
    initial database).  Stepping a compiled query yields identical
    distributions, and identical fixed-seed samples, as the interpreted
    query — the plans only change how each step executes.  Raises
    {!Relational.Relation.Schema_error} on schema violations the
    interpreter would only hit mid-run. *)

val interpreted : t -> t
(** Drop the compiled plans and the delta stepper: the uncompiled
    reference the tests and benchmarks compare plans against. *)

val is_compiled : t -> bool

val with_delta : t -> delta_stepper -> t
val without_delta : t -> t
(** [without_delta] keeps the plans but drops the semi-naive stepper: the
    naive stepping the tests and benchmarks compare deltas against. *)

val delta_stepper : t -> delta_stepper option

val step : t -> Relational.Database.t -> Relational.Database.t Prob.Dist.t
(** One application of the transition kernel. *)

val step_sampled : Random.State.t -> t -> Relational.Database.t -> Relational.Database.t

val static_draws : t -> bool
(** The query is compiled and its kernel's draws depend on the state alone
    ({!Prob.Pplan.static_draws}): the precondition for {!step_drawn}
    replays. *)

val step_drawn :
  Prob.Repair_key.draw -> t -> Relational.Database.t -> Relational.Database.t
(** One step of the compiled kernel, each repair-key group's tuple picked
    by the draw function, in the order {!step_sampled} draws them;
    [step_drawn (Dist.sample rng)] is [step_sampled rng].  Raises
    [Invalid_argument] on an interpreted query. *)

val is_inflationary_at : t -> Relational.Database.t -> bool
(** Whether every world of [Q(A)] contains [A] — Definition 3.4 checked at
    one state.  (The definition quantifies over all databases; engines use
    this dynamic check on the states they actually visit.) *)

val pp : Format.formatter -> t -> unit
