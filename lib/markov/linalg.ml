module Q = Bigq.Q
module Z = Bigq.Bigint

(* Quotient of a division known to leave no remainder. *)
let exact_div a d = if Z.is_zero a || Z.equal d Z.one then a else fst (Z.divmod a d)

(* [row | rhs] times the lcm of its denominators: an integer equation with
   the same solutions. *)
let integer_row row rhs =
  let entries = Array.append row [| rhs |] in
  let lcm =
    Array.fold_left
      (fun l q ->
        let d = Q.den q in
        if Z.equal d Z.one then l else Z.mul l (exact_div d (Z.gcd l d)))
      Z.one entries
  in
  Array.map (fun q -> Z.mul (Q.num q) (exact_div lcm (Q.den q))) entries

let swap arr i j =
  let t = arr.(i) in
  arr.(i) <- arr.(j);
  arr.(j) <- t

let solve a b =
  let n = Array.length a in
  let m = Array.init n (fun i -> integer_row a.(i) b.(i)) in
  (* Bareiss: after step [k] every row below [k] holds (k+2)-minors, and the
     update divides exactly by the previous pivot.  A row whose entry in the
     pivot column is zero only gets scaled by [pivot / previous pivot], so it
     is skipped and [level.(i)] keeps the pivot it was last brought up to
     date with; the scales telescope, and the next real update of that row
     divides by [level.(i)] instead of the previous pivot. *)
  let level = Array.make n Z.one in
  let prev = ref Z.one in
  let catch_up i =
    if not (Z.equal level.(i) !prev) then begin
      let row = m.(i) in
      for j = i to n do
        row.(j) <- exact_div (Z.mul row.(j) !prev) level.(i)
      done;
      level.(i) <- !prev
    end
  in
  match
    for k = 0 to n - 1 do
      (* Lazy rows are non-zero multiples of their current values, so the
         pivot search can read them as they are. *)
      let p = ref k in
      while !p < n && Z.is_zero m.(!p).(k) do
        incr p
      done;
      if !p = n then raise Exit;
      swap m k !p;
      swap level k !p;
      catch_up k;
      let pivot_row = m.(k) in
      let pk = pivot_row.(k) in
      for i = k + 1 to n - 1 do
        let row = m.(i) in
        let f = row.(k) in
        if not (Z.is_zero f) then begin
          let d = level.(i) in
          for j = k + 1 to n do
            let rj = row.(j) and pj = pivot_row.(j) in
            if not (Z.is_zero rj && Z.is_zero pj) then
              row.(j) <- exact_div (Z.sub (Z.mul pk rj) (Z.mul f pj)) d
          done;
          row.(k) <- Z.zero;
          level.(i) <- pk
        end
      done;
      prev := pk
    done
  with
  | exception Exit -> None
  | () ->
    (* [det] is the determinant of the row-scaled, row-permuted matrix, so
       by Cramer's rule [y.(k) = det * x_k] is an integer at every step. *)
    let det = !prev in
    let y = Array.make n Z.zero in
    for k = n - 1 downto 0 do
      let row = m.(k) in
      let acc = ref (Z.mul det row.(n)) in
      for j = k + 1 to n - 1 do
        if not (Z.is_zero row.(j)) then acc := Z.sub !acc (Z.mul row.(j) y.(j))
      done;
      y.(k) <- exact_div !acc row.(k)
    done;
    Some (Array.map (fun yk -> Q.make yk det) y)

let mat_vec a x =
  Array.map (fun row -> Q.sum (List.map2 Q.mul (Array.to_list row) (Array.to_list x))) a

let vec_mat x a =
  let n = Array.length a in
  let cols = if n = 0 then 0 else Array.length a.(0) in
  Array.init cols (fun j ->
      let acc = ref Q.zero in
      for i = 0 to n - 1 do
        acc := Q.add !acc (Q.mul x.(i) a.(i).(j))
      done;
      !acc)

let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then Q.one else Q.zero))
