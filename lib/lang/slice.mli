(** Event-cone slicing: the part of an input that a query event can
    depend on.

    The cone of a set of root relations is their closure under "is read
    by a rule for": a head relation in the cone brings in the relations of
    its positive and its negated body atoms.  Slicing keeps the rules whose
    head is in the cone, the facts and conditional facts whose relation is
    in the cone, and the pc-table variables that a kept condition mentions;
    everything else is dropped.  An event on a root relation has the same
    answer on the slice under either semantics; {!Eval.Engine}'s
    documentation and DESIGN.md ("Evaluation pipeline") give the
    argument. *)

type t = {
  parsed : Parser.parsed;
      (** the sliced input; physically the input itself when nothing was
          dropped *)
  cone : string list;  (** relations of the input in the cone, sorted *)
  dropped : string list;  (** relations of the input outside the cone, sorted *)
}

val cone : roots:string list -> Datalog.program -> string list
(** The roots' cone over the program's rules, sorted.  Roots that no rule
    derives are in their own cone, whether the program mentions them or
    not. *)

val slice : roots:string list -> Parser.parsed -> t
(** Restrict the input to the roots' cone.  Events are left as they are. *)

val describe : t -> string
(** ["i of n"]: relations in the cone out of the relations the input
    mentions (rules, facts and conditional facts). *)
