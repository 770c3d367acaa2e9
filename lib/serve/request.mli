(** Shared request execution for the daemon and the CLI front-ends: a
    compile-relevant request [spec], the shared prepared-plan cache keyed
    by its {!fingerprint}, the checkpoint wiring and the [--progress]
    observer that probdl and probmc used to each carry a copy of.

    The execution split itself lives in {!Eval.Engine} ([prepare] /
    [execute]); this module adds the caching and front-end plumbing around
    it so a daemon request and a one-shot CLI run go through the same
    compiled artifacts and report the same answers. *)

(** Everything that influences compilation.  Two specs with equal
    {!fingerprint}s produce interchangeable {!Eval.Engine.prepared}
    values. *)
type spec = {
  source : string;  (** program text (concrete syntax) *)
  semantics : Eval.Engine.semantics;
  method_ : Eval.Engine.method_;
}

val make :
  semantics:Eval.Engine.semantics -> method_:Eval.Engine.method_ -> string -> spec

val semantics_slug : Eval.Engine.semantics -> string
val method_slug : Eval.Engine.method_ -> string

val fingerprint : spec -> string
(** Hex digest over the spec (including the full source text); the plan
    cache key. *)

type cache = Eval.Engine.prepared Prob.Pplan.Cache.t

val make_cache : ?capacity:int -> unit -> cache
(** A {!Prob.Pplan.Cache} named ["plan_cache"], so hits and misses tick
    the ["plan_cache.hit"] / ["plan_cache.miss"] {!Obs} counters of the
    requesting scope (when stats are enabled there). *)

val cache_stats : cache -> int * int * int
(** (hits, misses, entries) — see {!Prob.Pplan.Cache.stats}. *)

exception Bad_request of string
(** The program cannot be answered as one query: it carries several [?-]
    events. *)

val prepare : ?cache:cache -> spec -> Eval.Engine.prepared * bool
(** Parse + compile the spec, through [cache] when given.  The boolean is
    true on a cache hit.  Parse/compile exceptions ({!Lang.Parser.Parse_error},
    {!Eval.Engine.Engine_error}, …) propagate and are never cached; a
    program with several [?-] events raises {!Bad_request}. *)

val prepare_timed : ?cache:cache -> spec -> Eval.Engine.prepared * bool * int
(** {!prepare} plus its wall-clock cost in {!Obs.now_ns} nanoseconds
    (cache lookup included) — the daemon's compile-phase histogram
    sample. *)

val make_ckpt :
  key:string ->
  checkpoint:string option ->
  resume:string option ->
  (Eval.Pool.ckpt option, string) result
(** The checkpoint plumbing shared by the CLIs: digests the raw [key]
    material, saves to [checkpoint] (falling back to the [resume] path)
    and loads the resume snapshot.  [Ok None] when neither flag was given;
    [Error msg] when the resume file cannot be loaded. *)

val install_progress : label:string -> unit -> bool ref
(** Install the [--progress] Series observer: a throttled, in-place
    updated stderr line led by [label] (["step"]/["samples"]).  Returns
    the "anything printed" flag the caller checks to terminate the line.
    Remove with [Obs.Series.set_observer None]. *)
