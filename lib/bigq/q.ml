type t = { qnum : Bigint.t; qden : Bigint.t }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then { qnum = Bigint.zero; qden = Bigint.one }
  else begin
    let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    let g = Bigint.gcd num den in
    let q1, _ = Bigint.divmod num g and q2, _ = Bigint.divmod den g in
    { qnum = q1; qden = q2 }
  end

let zero = { qnum = Bigint.zero; qden = Bigint.one }
let one = { qnum = Bigint.one; qden = Bigint.one }
let half = { qnum = Bigint.one; qden = Bigint.of_int 2 }

let of_int n = { qnum = Bigint.of_int n; qden = Bigint.one }
let of_ints a b = make (Bigint.of_int a) (Bigint.of_int b)

(* Exact: every finite float is m * 2^e with m a 53-bit integer, so the
   result represents the float's precise value (not a decimal rounding). *)
let of_float f =
  if not (Float.is_finite f) then invalid_arg "Q.of_float: not finite";
  if f = 0.0 then zero
  else begin
    let m, e = Float.frexp f in
    let m = Bigint.of_int (Int64.to_int (Int64.of_float (Float.ldexp m 53))) in
    let e = e - 53 in
    if e >= 0 then { qnum = Bigint.mul m (Bigint.pow (Bigint.of_int 2) e); qden = Bigint.one }
    else make m (Bigint.pow (Bigint.of_int 2) (-e))
  end
let of_bigint n = { qnum = n; qden = Bigint.one }
let num q = q.qnum
let den q = q.qden

let is_zero q = Bigint.is_zero q.qnum
let is_one q = Bigint.equal q.qnum Bigint.one && Bigint.equal q.qden Bigint.one
let sign q = Bigint.sign q.qnum

let compare a b =
  (* Cross-multiplication; denominators are positive so order is preserved. *)
  Bigint.compare (Bigint.mul a.qnum b.qden) (Bigint.mul b.qnum a.qden)

let equal a b = Bigint.equal a.qnum b.qnum && Bigint.equal a.qden b.qden

(* Values are kept in lowest terms with a positive denominator, so hashing
   the representation hashes the number. *)
let hash q = ((Bigint.hash q.qnum * 0x01000193) lxor Bigint.hash q.qden) land max_int

let neg q = { q with qnum = Bigint.neg q.qnum }
let abs q = { q with qnum = Bigint.abs q.qnum }

(* Adding zero returns the other operand: both are already in lowest terms,
   and sums that start from [zero] (every [sum], every accumulator) skip a
   gcd. *)
let add a b =
  if is_zero a then b
  else if is_zero b then a
  else
    make
      (Bigint.add (Bigint.mul a.qnum b.qden) (Bigint.mul b.qnum a.qden))
      (Bigint.mul a.qden b.qden)

let sub a b = add a (neg b)
let mul a b = make (Bigint.mul a.qnum b.qnum) (Bigint.mul a.qden b.qden)
let div a b = make (Bigint.mul a.qnum b.qden) (Bigint.mul a.qden b.qnum)
let inv q = div one q

let pow q k =
  if k >= 0 then { qnum = Bigint.pow q.qnum k; qden = Bigint.pow q.qden k }
  else inv { qnum = Bigint.pow q.qnum (-k); qden = Bigint.pow q.qden (-k) }

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let sum qs = List.fold_left add zero qs

let to_float q =
  (* Scale both parts down so each fits comfortably in a float mantissa
     range before dividing; avoids inf/inf on huge operands. *)
  let shift = Stdlib.max 0 (Stdlib.max (Bigint.num_bits q.qnum) (Bigint.num_bits q.qden) - 512) in
  Bigint.to_float (Bigint.shift_right q.qnum shift)
  /. Bigint.to_float (Bigint.shift_right q.qden shift)

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    make
      (Bigint.of_string (String.sub s 0 i))
      (Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)))
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (Bigint.of_string s)
     | Some i ->
       let whole = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       let negative = String.length whole > 0 && whole.[0] = '-' in
       let whole_q = if whole = "" || whole = "-" || whole = "+" then zero else of_bigint (Bigint.of_string whole) in
       let frac_q =
         if frac = "" then zero
         else
           make
             (Bigint.of_string frac)
             (Bigint.of_nat (Nat.pow (Nat.of_int 10) (String.length frac)))
       in
       if negative then sub whole_q frac_q else add whole_q frac_q)

let to_string q =
  if Bigint.equal q.qden Bigint.one then Bigint.to_string q.qnum
  else Bigint.to_string q.qnum ^ "/" ^ Bigint.to_string q.qden

let pp fmt q = Format.pp_print_string fmt (to_string q)
