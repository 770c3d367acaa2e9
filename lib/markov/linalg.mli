(** Exact linear algebra over the rationals — the "Gaussian elimination"
    steps of Proposition 5.4 and Theorem 5.5. *)

val solve : Bigq.Q.t array array -> Bigq.Q.t array -> Bigq.Q.t array option
(** [solve a b] solves [a x = b] for square [a]; [None] when [a] is
    singular.  Modifies neither input.

    Algorithm: each row of [[a | b]] is scaled to integers by the lcm of its
    denominators, then Bareiss fraction-free elimination runs over
    {!Bigq.Bigint} with first-non-zero row pivoting, every update dividing
    exactly by the previous pivot.  Rows whose entry in the pivot column is
    zero are skipped; a skipped row is brought up to date when it is next
    touched (times the current previous pivot, exactly divided by the pivot
    it was last updated with), so sparse chain systems pay only for the
    rows each pivot reaches.  Integer back-substitution yields [det * x],
    and each unknown is normalised to lowest terms once.

    Size bound: every intermediate integer is a minor of the row-scaled
    matrix [[a | b]] (or, in back-substitution, a Cramer numerator), so its
    magnitude is at most the Hadamard bound of that matrix; no [Q] gcd is
    taken inside the elimination. *)

val mat_vec : Bigq.Q.t array array -> Bigq.Q.t array -> Bigq.Q.t array
val vec_mat : Bigq.Q.t array -> Bigq.Q.t array array -> Bigq.Q.t array
(** Row-vector times matrix: distribution evolution [π P]. *)

val identity : int -> Bigq.Q.t array array
