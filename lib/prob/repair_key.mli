(** The [repair-key] operator of Koch's probabilistic algebra (§2.2), the
    probabilistic primitive of all the paper's languages.

    [repair-key ~A@P (R)] groups the tuples of [R] by their key value over
    columns [~A] and samples exactly one tuple per group, with probability
    proportional to the weight column [P] (uniform when [P] is omitted).
    The possible worlds are the maximal key repairs; groups are independent,
    so a world's probability is the product of its per-group choices. *)

exception Repair_error of string

val repair : key:string list -> ?weight:string -> Relational.Relation.t
  -> Relational.Relation.t Dist.t
(** Raises {!Repair_error} if a weight is not a positive number, or
    {!Relational.Relation.Schema_error} on unknown columns.  Tuples that
    agree on every non-weight column are first collapsed by summing their
    weights (the footnote-1 semantics restoring the functional dependency
    [schema(R) − P → P]).  The result schema equals the input schema. *)

val num_repairs : key:string list -> Relational.Relation.t -> int
(** Number of possible worlds ([Π] group sizes) without enumerating them. *)

val sample : Random.State.t -> key:string list -> ?weight:string
  -> Relational.Relation.t -> Relational.Relation.t
(** Draws one repair without materialising the distribution — the step the
    sampling engines (Thm 4.3, Thm 5.6) rely on to stay polynomial. *)

(** {2 Positional entry points}

    Used by compiled plans ({!Pplan}), which resolve the key and weight
    columns to positions once at plan-build time.  [repair ~key ?weight r]
    is exactly [repair_at] on the resolved positions, and
    [sample rng ~key ?weight r] is [draw_at (Dist.sample rng)] on them, so
    name-based and positional evaluation agree — including the RNG draw
    sequence: groups are visited in ascending key order either way. *)

val repair_at : key:int array -> ?weight:int -> Relational.Relation.t
  -> Relational.Relation.t Dist.t

type draw = Relational.Tuple.t Dist.t -> Relational.Tuple.t
(** Picks one tuple of a key group's (normalised) distribution.
    [Dist.sample rng] is the random draw; a caller may record the draws or
    replay earlier ones instead. *)

val draw_at : draw -> key:int array -> ?weight:int
  -> Relational.Relation.t -> Relational.Relation.t
(** One repair, calling [draw] once per key group in ascending key order.
    Counts one ["repair_key.draws"] tick per group. *)
