(** Probabilistic c-tables (Definition 2.1 of the paper).

    A c-table attaches to every tuple a condition over random variables with
    finite domains; the variables are independent, each with its own
    distribution (the paper notes this loses no generality).  A valuation of
    the variables selects a possible world whose probability is the product
    of the individual variable probabilities. *)

module Q = Bigq.Q
module Value = Relational.Value

type var = {
  vname : string;
  domain : (Value.t * Q.t) list;  (** value/probability pairs, summing to 1 *)
}

(** Conditions: boolean combinations of (in)equalities between variables and
    constants. *)
type cond =
  | CTrue
  | CEq of term * term
  | CNeq of term * term
  | CAnd of cond * cond
  | COr of cond * cond
  | CNot of cond

and term =
  | TVar of string
  | TLit of Value.t

type row = {
  tuple : Relational.Tuple.t;
  cond : cond;
}

type t
(** A probabilistic c-table database: per-relation conditional rows plus the
    variable declarations. *)

exception Ctable_error of string

val make : vars:var list -> tables:(string * string list * row list) list -> t
(** [make ~vars ~tables] where each table is (name, columns, rows).  Raises
    {!Ctable_error} on duplicate variables, a condition mentioning an
    undeclared variable, or a variable distribution that lists a value
    twice or does not sum to 1. *)

val vars : t -> var list
val tables : t -> (string * string list * row list) list
val flag : p:Q.t -> string -> var
(** [flag ~p x] is a boolean variable that is [true] with probability [p]. *)

val cond_vars : string list -> cond -> string list
(** [cond_vars acc c] prepends the variables [c] mentions to [acc]
    (repeats kept). *)

type valuation = (string * Value.t) list

val valuations : t -> valuation Seq.t
(** All valuations, lazily (their count is the product of domain sizes). *)

val valuation_prob : t -> valuation -> Q.t

val sample_valuation : Random.State.t -> t -> valuation
(** One {!draw} from [compile t], named. *)

val eval_cond : valuation -> cond -> bool

(** {2 Compiled sampling}

    For drawing many valuations of one c-table: each variable's
    distribution becomes a float table once, and a valuation is an array
    indexed by the variable's position in {!vars}. *)

type compiled

val compile : t -> compiled

val draw : Random.State.t -> compiled -> Value.t array
(** A fresh valuation, by variable position.  Each variable takes one
    [Random.State.float] draw, in declaration order, and the value
    [Dist.sample] would pick for that draw from
    [Dist.make ~compare:Value.compare v.domain]: same support, same float
    sums, same last-value rule.  A fixed seed therefore gives the
    valuation {!sample_valuation} gives. *)

val compile_cond : compiled -> cond -> Value.t array -> bool
(** [compile_cond c cond] decides [cond] on {!draw}'s valuations, as
    {!eval_cond} decides it on the named one.  Raises {!Ctable_error} on a
    variable the c-table does not declare. *)

val instantiate : t -> valuation -> Relational.Database.t
(** The world selected by a valuation: tuples whose conditions hold. *)

val worlds : t -> Relational.Database.t Dist.t
(** The full possible-worlds distribution.  Exponential in the number of
    variables; meant for small inputs and for testing the samplers. *)

val certain : Relational.Database.t -> t
(** A c-table with no variables denoting the given database. *)

val num_worlds : t -> int
(** The number of valuations (the product of the domain sizes), saturating
    at [max_int]: 62 or more flags read [max_int] instead of wrapping.
    {!count_worlds} is exact. *)

val count_worlds : t -> Bigq.Bigint.t
(** The exact number of valuations. *)
