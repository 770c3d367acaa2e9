(** Finite Markov chains over labelled states (Section 2.3 of the paper).

    States are indexed [0 .. num_states - 1]; each carries a label of type
    ['a].  Every state has an outgoing distribution with exact rational
    probabilities summing to 1. *)

type 'a t

exception Chain_error of string

val of_step :
  hash:('a -> int) ->
  equal:('a -> 'a -> bool) ->
  ?guard:Guard.t ->
  init:'a list ->
  step:('a -> 'a Prob.Dist.t) ->
  unit ->
  'a t
(** Explores the state space reachable from [init] by breadth-first search.
    This is how a transition kernel and an input database induce the chain
    over database instances (Section 3.1).  States are interned in a hash
    table keyed by [(hash, equal)] — [hash] must agree with [equal] — so
    exploration costs O(states * out-degree) expected rather than the
    O(n log n) full-state comparisons of a map.

    [guard] (default {!Guard.unlimited}: no bound) is the only bound on
    exploration.  It is charged one state per fresh intern and polled once
    per expanded state, so exploration raises {!Guard.Exhausted} when the
    guard's state budget or deadline runs out or an interrupt is requested
    — a recoverable stop that engines turn into a partial result or a
    sampling fallback. *)

val of_rows :
  ?equal:('a -> 'a -> bool) -> ?hash:('a -> int) -> 'a array -> (int * Bigq.Q.t) list array -> 'a t
(** Direct construction; row [i] lists the successors of state [i].
    [equal] (default structural equality) and [hash] (default
    [Hashtbl.hash], which must agree with [equal]) drive the label lookup
    behind {!index}.  Raises {!Chain_error} if a row does not sum to 1 or
    mentions a bad index. *)

val num_states : 'a t -> int
val label : 'a t -> int -> 'a
val index : 'a t -> 'a -> int option
val succ : 'a t -> int -> (int * Bigq.Q.t) list
val prob : 'a t -> int -> int -> Bigq.Q.t
(** One-step transition probability. *)

val identity_minus : 'a t -> int array -> Bigq.Q.t array array
(** [identity_minus c states] is [I - P] restricted to rows and columns
    [states] (distinct indices), in that order: the matrix of the absorption
    and hitting systems.  Built from the sparse rows in O(k{^2} + edges). *)

val edges : 'a t -> (int * int * Bigq.Q.t) list

val row_dist : 'a t -> int -> int Prob.Dist.t
val map_labels : ('a -> 'b) -> 'a t -> 'b t

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
