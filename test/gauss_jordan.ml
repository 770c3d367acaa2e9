(* Reference solver for the differential tests: Gauss–Jordan elimination
   over Q with first-non-zero row pivoting, one [Q] operation (and so one
   gcd) per touched entry per pivot.  [Markov.Linalg.solve] must agree with
   it on every system: both [None], or both [Q]-equal vectors. *)

module Q = Bigq.Q

let solve a b =
  let n = Array.length a in
  if n = 0 then Some [||]
  else begin
    let m = Array.map Array.copy a in
    let b = Array.copy b in
    let ok = ref true in
    (try
       for col = 0 to n - 1 do
         (* Find a pivot row with a non-zero entry in this column. *)
         let pivot = ref (-1) in
         for row = col to n - 1 do
           if !pivot = -1 && not (Q.is_zero m.(row).(col)) then pivot := row
         done;
         if !pivot = -1 then begin
           ok := false;
           raise Exit
         end;
         if !pivot <> col then begin
           let tmp = m.(col) in
           m.(col) <- m.(!pivot);
           m.(!pivot) <- tmp;
           let tb = b.(col) in
           b.(col) <- b.(!pivot);
           b.(!pivot) <- tb
         end;
         let inv_p = Q.inv m.(col).(col) in
         for j = col to n - 1 do
           m.(col).(j) <- Q.mul m.(col).(j) inv_p
         done;
         b.(col) <- Q.mul b.(col) inv_p;
         for row = 0 to n - 1 do
           if row <> col && not (Q.is_zero m.(row).(col)) then begin
             let f = m.(row).(col) in
             for j = col to n - 1 do
               m.(row).(j) <- Q.sub m.(row).(j) (Q.mul f m.(col).(j))
             done;
             b.(row) <- Q.sub b.(row) (Q.mul f b.(col))
           end
         done
       done
     with Exit -> ());
    if !ok then Some b else None
  end
