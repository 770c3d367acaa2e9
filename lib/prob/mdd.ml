module Q = Bigq.Q
module Value = Relational.Value
module Int_tbl = Hashtbl.Make (Int)

type t = int

let bot = 0
let top = 1
let equal = Int.equal

(* Unique-table key: the tested variable and the children's ids. *)
module Key = struct
  type t = int * int array

  let equal ((v1, k1) : t) (v2, k2) =
    v1 = v2
    && Array.length k1 = Array.length k2
    &&
    let rec go i = i < 0 || (k1.(i) = k2.(i) && go (i - 1)) in
    go (Array.length k1 - 1)

  let hash ((v, k) : t) = Array.fold_left (fun h c -> ((h * 31) + c) land max_int) v k
end

module Unique = Hashtbl.Make (Key)

type man = {
  names : (string, int) Hashtbl.t;
  doms : (Value.t * Q.t) array array;  (** per variable, in declaration order *)
  on_node : unit -> unit;
  mutable var_of : int array;  (** node id → variable index; leaves hold [nvars] *)
  mutable kids_of : int array array;
  mutable next : int;
  unique : int Unique.t;
  conj_memo : int Int_tbl.t;
  disj_memo : int Int_tbl.t;
  neg_memo : int Int_tbl.t;
}

let create ?(on_node = ignore) vars =
  let doms = Array.of_list (List.map (fun v -> Array.of_list v.Ctable.domain) vars) in
  let names = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace names v.Ctable.vname i) vars;
  let n = Array.length doms in
  {
    names;
    doms;
    on_node;
    var_of = Array.make 64 n;
    kids_of = Array.make 64 [||];
    next = 2;
    unique = Unique.create 64;
    conj_memo = Int_tbl.create 64;
    disj_memo = Int_tbl.create 64;
    neg_memo = Int_tbl.create 16;
  }

let nodes_created m = m.next - 2
let var m x = m.var_of.(x)

(* The node testing [v] with these children: reduced (no node whose
   children all agree) and hash-consed. *)
let mk m v kids =
  let k0 = kids.(0) in
  if Array.for_all (fun k -> k = k0) kids then k0
  else
    match Unique.find_opt m.unique (v, kids) with
    | Some x -> x
    | None ->
      m.on_node ();
      let x = m.next in
      if x = Array.length m.var_of then begin
        let grow a fill = Array.append a (Array.make (Array.length a) fill) in
        m.var_of <- grow m.var_of 0;
        m.kids_of <- grow m.kids_of [||]
      end;
      m.var_of.(x) <- v;
      m.kids_of.(x) <- kids;
      m.next <- x + 1;
      Unique.add m.unique (v, kids) x;
      x

(* The child of [x] for entry [i] of variable [v], where [v] is at or above
   [x]'s own variable in the order. *)
let cofactor m x v i = if var m x = v then m.kids_of.(x).(i) else x

(* Shannon expansion of a binary operation on the topmost variable of its
   operands, memoised on the (ordered) operand pair: ids stay far below
   2^31, so the pair packs into one int. *)
let apply m memo op a b =
  let a, b = if a < b then (a, b) else (b, a) in
  let key = (a lsl 31) lor b in
  match Int_tbl.find_opt memo key with
  | Some r -> r
  | None ->
    let v = min (var m a) (var m b) in
    let kid i = op (cofactor m a v i) (cofactor m b v i) in
    let r = mk m v (Array.init (Array.length m.doms.(v)) kid) in
    Int_tbl.add memo key r;
    r

let rec conj m a b =
  if a = bot || b = bot then bot
  else if a = top then b
  else if b = top || a = b then a
  else apply m m.conj_memo (conj m) a b

let rec disj m a b =
  if a = top || b = top then top
  else if a = bot then b
  else if b = bot || a = b then a
  else apply m m.disj_memo (disj m) a b

let rec neg m a =
  if a = bot then top
  else if a = top then bot
  else
    match Int_tbl.find_opt m.neg_memo a with
    | Some r -> r
    | None ->
      let r = mk m (var m a) (Array.map (neg m) m.kids_of.(a)) in
      Int_tbl.add m.neg_memo a r;
      r

let index m name =
  match Hashtbl.find_opt m.names name with
  | Some v -> v
  | None -> raise (Ctable.Ctable_error (Printf.sprintf "unbound variable %s in condition" name))

(* [x = c]: true on every domain entry whose value equals [c]. *)
let lit m v c = mk m v (Array.map (fun (d, _) -> if Value.equal d c then top else bot) m.doms.(v))

let eq m a b =
  match (a, b) with
  | Ctable.TLit c, Ctable.TLit d -> if Value.equal c d then top else bot
  | Ctable.TVar x, Ctable.TLit c | Ctable.TLit c, Ctable.TVar x -> lit m (index m x) c
  | Ctable.TVar x, Ctable.TVar y ->
    let vx = index m x and vy = index m y in
    if vx = vy then top
    else
      Array.fold_left
        (fun acc (c, _) -> disj m acc (conj m (lit m vx c) (lit m vy c)))
        bot m.doms.(vx)

let rec of_cond m = function
  | Ctable.CTrue -> top
  | Ctable.CEq (a, b) -> eq m a b
  | Ctable.CNeq (a, b) -> neg m (eq m a b)
  | Ctable.CAnd (a, b) -> conj m (of_cond m a) (of_cond m b)
  | Ctable.COr (a, b) -> disj m (of_cond m a) (of_cond m b)
  | Ctable.CNot a -> neg m (of_cond m a)

let prob m x =
  let memo = Int_tbl.create 64 in
  let rec go x =
    if x = bot then Q.zero
    else if x = top then Q.one
    else
      match Int_tbl.find_opt memo x with
      | Some p -> p
      | None ->
        let dom = m.doms.(var m x) in
        let kids = m.kids_of.(x) in
        let p = ref Q.zero in
        Array.iteri
          (fun i (_, w) -> if Q.sign w > 0 then p := Q.add !p (Q.mul w (go kids.(i))))
          dom;
        Int_tbl.add memo x !p;
        !p
  in
  go x

let size m x =
  let seen = Int_tbl.create 64 in
  let rec go x =
    if not (Int_tbl.mem seen x) then begin
      Int_tbl.add seen x ();
      if x > top then Array.iter go m.kids_of.(x)
    end
  in
  go x;
  Int_tbl.length seen
