(** Finite probability distributions with exact rational weights.

    A distribution is a finite list of (outcome, probability) pairs with
    positive probabilities.  Operations that could create duplicate outcomes
    take a [compare] so equal outcomes are merged; this keeps supports
    canonical, which matters when outcomes are whole database instances
    acting as Markov-chain states. *)

type 'a t

exception Invalid_distribution of string

val return : 'a -> 'a t
(** The point mass. *)

val make : compare:('a -> 'a -> int) -> ('a * Bigq.Q.t) list -> 'a t
(** Merges equal outcomes and drops zero-probability ones.  Raises
    {!Invalid_distribution} if any weight is negative, or the weights do not
    sum to 1. *)

val make_unnormalised : compare:('a -> 'a -> int) -> ('a * Bigq.Q.t) list -> 'a t
(** Like {!make} but rescales positive weights to sum to 1.  Raises
    {!Invalid_distribution} on an empty or all-zero support. *)

val uniform : compare:('a -> 'a -> int) -> 'a list -> 'a t

val support : 'a t -> ('a * Bigq.Q.t) list
(** In ascending outcome order; probabilities are positive and sum to 1. *)

val size : 'a t -> int
val outcomes : 'a t -> 'a list

val prob : ('a -> bool) -> 'a t -> Bigq.Q.t
(** Total mass of outcomes satisfying the predicate. *)

val prob_of : compare:('a -> 'a -> int) -> 'a -> 'a t -> Bigq.Q.t

val map : compare:('b -> 'b -> int) -> ('a -> 'b) -> 'a t -> 'b t

val bind : compare:('b -> 'b -> int) -> 'a t -> ('a -> 'b t) -> 'b t

val product : compare:('c -> 'c -> int) -> ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
(** Independent product, combined with the given function. *)

val sequence : compare:('a list -> 'a list -> int) -> 'a t list -> 'a list t
(** Independent product of a list of distributions. *)

val expectation : ('a -> Bigq.Q.t) -> 'a t -> Bigq.Q.t

val sample : Random.State.t -> 'a t -> 'a
(** Draws an outcome; uses float approximations of the rational weights,
    falling back to the last outcome on rounding shortfall. *)

val cumulative : 'a t -> float array
(** The running sums of the float approximations of the weights, in
    {!support} order: the table {!sample} compares its draw against. *)

val index : float array -> float -> int
(** [index (cumulative d) u] is the position in {!support} of the outcome
    {!sample} returns when its uniform draw is [u]: the first running sum
    above [u], else the last outcome.  Lets a caller keep the table and
    repeat the draw without the distribution. *)

val is_point : 'a t -> 'a option
(** [Some x] when the distribution is a point mass on [x]. *)

val total_variation : compare:('a -> 'a -> int) -> 'a t -> 'a t -> Bigq.Q.t
(** Total-variation distance [1/2 Σ |p(x) − q(x)|]. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
