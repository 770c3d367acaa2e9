module Q = Bigq.Q

type 'a t = ('a * Q.t) list
(* Invariant: outcomes strictly ascending in the compare used to build the
   value, probabilities positive, sum exactly 1. *)

exception Invalid_distribution of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_distribution s)) fmt

(* Sort by outcome and coalesce equal outcomes, dropping zero weights. *)
let merge ~compare pairs =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) pairs in
  let rec go = function
    | [] -> []
    | (x, p) :: rest ->
      let rec take acc = function
        | (y, q) :: rest when compare x y = 0 -> take (Q.add acc q) rest
        | rest -> (acc, rest)
      in
      let total, rest = take p rest in
      if Q.is_zero total then go rest else (x, total) :: go rest
  in
  go sorted

let check_nonneg pairs =
  List.iter
    (fun (_, p) -> if Q.sign p < 0 then invalid "negative probability %s" (Q.to_string p))
    pairs

let return x = [ (x, Q.one) ]

let make ~compare pairs =
  check_nonneg pairs;
  let merged = merge ~compare pairs in
  let total = Q.sum (List.map snd merged) in
  if not (Q.is_one total) then invalid "probabilities sum to %s, not 1" (Q.to_string total);
  merged

let make_unnormalised ~compare pairs =
  check_nonneg pairs;
  let merged = merge ~compare pairs in
  let total = Q.sum (List.map snd merged) in
  if Q.is_zero total then invalid "empty or all-zero support";
  List.map (fun (x, p) -> (x, Q.div p total)) merged

let uniform ~compare xs =
  match xs with
  | [] -> invalid "uniform over empty list"
  | _ ->
    let w = Q.inv (Q.of_int (List.length xs)) in
    make_unnormalised ~compare (List.map (fun x -> (x, w)) xs)

let support d = d
let size = List.length
let outcomes d = List.map fst d

let prob pred d =
  Q.sum (List.filter_map (fun (x, p) -> if pred x then Some p else None) d)

let prob_of ~compare x d = prob (fun y -> compare x y = 0) d

let map ~compare f d = merge ~compare (List.map (fun (x, p) -> (f x, p)) d)

let bind ~compare d f =
  merge ~compare
    (List.concat_map (fun (x, p) -> List.map (fun (y, q) -> (y, Q.mul p q)) (f x)) d)

let product ~compare f da db =
  merge ~compare
    (List.concat_map
       (fun (a, p) -> List.map (fun (b, q) -> (f a b, Q.mul p q)) db)
       da)

let sequence ~compare ds =
  let raw =
    List.fold_right
      (fun d acc ->
        List.concat_map (fun (x, p) -> List.map (fun (xs, q) -> (x :: xs, Q.mul p q)) acc) d)
      ds
      [ ([], Q.one) ]
  in
  merge ~compare raw

let expectation f d = Q.sum (List.map (fun (x, p) -> Q.mul (f x) p) d)

let sample rng d =
  let u = Random.State.float rng 1.0 in
  let rec go acc = function
    | [] -> assert false
    | [ (x, _) ] -> x
    | (x, p) :: rest ->
      let acc = acc +. Q.to_float p in
      if u < acc then x else go acc rest
  in
  go 0.0 d

(* [sample] without the draw: the table of running sums it compares the
   uniform draw against, and the index it stops at.  Built by the same
   additions in the same order, so [index (cumulative d) u] is the outcome
   [sample] returns for the draw [u]. *)
let cumulative d =
  let cum = Array.make (List.length d) 0.0 in
  List.iteri (fun i (_, p) -> cum.(i) <- (if i = 0 then 0.0 else cum.(i - 1)) +. Q.to_float p) d;
  cum

let index cum u =
  let last = Array.length cum - 1 in
  let i = ref 0 in
  while !i < last && not (u < cum.(!i)) do
    incr i
  done;
  !i

let is_point = function [ (x, _) ] -> Some x | _ -> None

let total_variation ~compare da db =
  (* Merge the two supports; each side's missing outcome has probability 0. *)
  let rec go acc da db =
    match (da, db) with
    | [], [] -> acc
    | (_, p) :: rest, [] -> go (Q.add acc p) rest []
    | [], (_, q) :: rest -> go (Q.add acc q) [] rest
    | (x, p) :: ra, (y, q) :: rb ->
      let c = compare x y in
      if c = 0 then go (Q.add acc (Q.abs (Q.sub p q))) ra rb
      else if c < 0 then go (Q.add acc p) ra db
      else go (Q.add acc q) da rb
  in
  Q.mul Q.half (go Q.zero da db)

let pp pp_elt fmt d =
  Format.fprintf fmt "@[<v>";
  List.iter (fun (x, p) -> Format.fprintf fmt "%s : %a@," (Q.to_string p) pp_elt x) d;
  Format.fprintf fmt "@]"
