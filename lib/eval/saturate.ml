module Datalog = Lang.Datalog
module Tuple = Relational.Tuple
module Value = Relational.Value

module Tuple_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type 'a algebra = {
  one : 'a;
  conj : 'a -> 'a -> 'a;
  disj : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
}

type 'a fact = {
  tuple : Tuple.t;
  mutable ann : 'a;
  mutable stamp : int;  (** last round whose change list holds this fact *)
}

(* A hash index on some columns of the facts of one arity. *)
type 'a index = {
  arity : int;
  cols : int array;
  buckets : 'a fact list Tuple_tbl.t;
}

type 'a rel = {
  name : string;
  facts : 'a fact Tuple_tbl.t;
  mutable all : 'a fact list;
  mutable indexes : 'a index list;
  mutable delta : 'a fact list;  (** changed in the previous round *)
  mutable changed : 'a fact list;  (** changed in this round *)
}

type 'a t = {
  rels : 'a rel list;  (** in order of first mention *)
  by_name : (string, 'a rel) Hashtbl.t;
  mutable rounds : int;
}

let rel_of t name =
  match Hashtbl.find_opt t.by_name name with
  | Some r -> r
  | None -> invalid_arg ("Saturate: unknown predicate " ^ name)

let index_key ix tuple = Array.map (fun c -> tuple.(c)) ix.cols

let index_add ix f =
  if Array.length f.tuple = ix.arity then begin
    let k = index_key ix f.tuple in
    let l = Option.value ~default:[] (Tuple_tbl.find_opt ix.buckets k) in
    Tuple_tbl.replace ix.buckets k (f :: l)
  end

let get_index rel ~arity cols =
  match List.find_opt (fun ix -> ix.arity = arity && ix.cols = cols) rel.indexes with
  | Some ix -> ix
  | None ->
    let ix = { arity; cols; buckets = Tuple_tbl.create 16 } in
    List.iter (index_add ix) rel.all;
    rel.indexes <- ix :: rel.indexes;
    ix

(* A fact joins this round's change list when it is new or its annotation
   grew. *)
let mark ~round rel f =
  if f.stamp <> round then begin
    f.stamp <- round;
    rel.changed <- f :: rel.changed
  end

let insert ~round rel tuple ann =
  let f = { tuple; ann; stamp = -1 } in
  Tuple_tbl.add rel.facts tuple f;
  rel.all <- f :: rel.all;
  List.iter (fun ix -> index_add ix f) rel.indexes;
  mark ~round rel f;
  f

(* Record [ann] as one more derivation of [tuple]. *)
let add alg ~round rel tuple ann =
  match Tuple_tbl.find_opt rel.facts tuple with
  | None -> ignore (insert ~round rel tuple ann)
  | Some f ->
    let merged = alg.disj f.ann ann in
    if not (alg.equal merged f.ann) then begin
      f.ann <- merged;
      mark ~round rel f
    end

(* --- rule plans ----------------------------------------------------------- *)

type src =
  | Const of Value.t
  | Slot of int

(* What a column of a matched fact does to the environment. *)
type op =
  | Bind of int
  | Same of int
  | Is of Value.t

type 'a step = {
  srel : 'a rel;
  sarity : int;
  index : ('a index * src array) option;  (** [None]: scan every fact *)
  ops : (int * op) array;
}

(* One way to fire a rule: [first] ranges over a change list (or, for an
   empty body, is absent), the other atoms over every fact. *)
type 'a plan = {
  first : 'a step option;
  rest : 'a step array;
  head_rel : 'a rel;
  head : src array;
  guards : (Datalog.cmp * src * src) list;
  slots : int;
}

let compile_rule t (r : Datalog.rule) =
  let slot_of = Hashtbl.create 8 in
  let slot x =
    match Hashtbl.find_opt slot_of x with
    | Some s -> s
    | None ->
      let s = Hashtbl.length slot_of in
      Hashtbl.add slot_of x s;
      s
  in
  let src = function Datalog.Const c -> Const c | Datalog.Var x -> Slot (slot x) in
  let step ~bound ~scan (a : Datalog.atom) =
    let before = Hashtbl.copy bound in
    let key = ref [] and ops = ref [] in
    List.iteri
      (fun i arg ->
        match arg with
        | Datalog.Const c -> if scan then ops := (i, Is c) :: !ops else key := (i, Const c) :: !key
        | Datalog.Var x ->
          let s = slot x in
          if Hashtbl.mem before x then begin
            if scan then ops := (i, Same s) :: !ops else key := (i, Slot s) :: !key
          end
          else if Hashtbl.mem bound x then ops := (i, Same s) :: !ops
          else begin
            Hashtbl.replace bound x ();
            ops := (i, Bind s) :: !ops
          end)
      a.Datalog.args;
    let srel = rel_of t a.Datalog.pred in
    let sarity = List.length a.Datalog.args in
    let index =
      match List.rev !key with
      | [] -> None
      | key ->
        let cols = Array.of_list (List.map fst key) in
        Some (get_index srel ~arity:sarity cols, Array.of_list (List.map snd key))
    in
    { srel; sarity; index; ops = Array.of_list (List.rev !ops) }
  in
  let finish first rest =
    let head =
      Array.of_list
        (List.map (fun (ha : Datalog.head_arg) -> src ha.Datalog.term) r.Datalog.head.Datalog.hargs)
    in
    let guards =
      List.map
        (fun (c : Datalog.constraint_) -> (c.Datalog.cmp, src c.Datalog.lhs, src c.Datalog.rhs))
        r.Datalog.constraints
    in
    let head_rel = rel_of t r.Datalog.head.Datalog.hpred in
    { first; rest; head_rel; head; guards; slots = Hashtbl.length slot_of }
  in
  match r.Datalog.body with
  | [] -> [ finish None [||] ]
  | body ->
    (* Slots are numbered once per rule, so every plan of it shares them. *)
    List.iter
      (fun (a : Datalog.atom) -> List.iter (fun arg -> ignore (src arg)) a.Datalog.args)
      body;
    List.mapi
      (fun j delta_atom ->
        let bound = Hashtbl.create 8 in
        let first = step ~bound ~scan:true delta_atom in
        let rest =
          List.filteri (fun i _ -> i <> j) body
          |> List.map (step ~bound ~scan:false)
          |> Array.of_list
        in
        finish (Some first) rest)
      body

let matches env (s : _ step) (tuple : Tuple.t) =
  Array.length tuple = s.sarity
  && Array.for_all
       (fun (i, op) ->
         match op with
         | Bind x ->
           env.(x) <- tuple.(i);
           true
         | Same x -> Value.equal env.(x) tuple.(i)
         | Is c -> Value.equal c tuple.(i))
       s.ops

let value env = function Const c -> c | Slot s -> env.(s)

let holds env (cmp, a, b) =
  let d = Value.compare (value env a) (value env b) in
  match cmp with
  | Datalog.Eq -> d = 0
  | Datalog.Ne -> d <> 0
  | Datalog.Lt -> d < 0
  | Datalog.Le -> d <= 0
  | Datalog.Gt -> d > 0
  | Datalog.Ge -> d >= 0

(* Fire one plan: each match of its body folds the matched facts into an
   accumulator with [conj] (from [one]) and, when the guards hold, hands
   the head tuple and the accumulator to [emit]. *)
let fire ~one ~conj ~emit p candidates =
  let env = Array.make p.slots (Value.Int 0) in
  let emit acc =
    if List.for_all (holds env) p.guards then emit p.head_rel (Array.map (value env) p.head) acc
  in
  let rec go k acc =
    if k = Array.length p.rest then emit acc
    else begin
      let s = p.rest.(k) in
      let facts =
        match s.index with
        | None -> s.srel.all
        | Some (ix, key) ->
          Option.value ~default:[] (Tuple_tbl.find_opt ix.buckets (Array.map (value env) key))
      in
      List.iter (fun f -> if matches env s f.tuple then go (k + 1) (conj acc f)) facts
    end
  in
  match p.first with
  | None -> go 0 one
  | Some s -> List.iter (fun f -> if matches env s f.tuple then go 0 (conj one f)) candidates

(* The semi-naive loop over [fire p candidates ~round]; [base] inserts the
   round-0 facts. *)
let saturate ~poll ~fire program ~base_preds ~base =
  let names = ref [] in
  let by_name = Hashtbl.create 16 in
  let mention name =
    if not (Hashtbl.mem by_name name) then begin
      let r =
        { name; facts = Tuple_tbl.create 16; all = []; indexes = []; delta = []; changed = [] }
      in
      Hashtbl.add by_name name r;
      names := r :: !names
    end
  in
  List.iter mention base_preds;
  List.iter
    (fun (r : Datalog.rule) ->
      List.iter (fun (a : Datalog.atom) -> mention a.Datalog.pred) r.Datalog.body;
      mention r.Datalog.head.Datalog.hpred)
    program;
  let t = { rels = List.rev !names; by_name; rounds = 0 } in
  let plans = List.concat_map (compile_rule t) program in
  base t;
  List.iter (fun p -> if Option.is_none p.first then fire ~round:0 p []) plans;
  let rec loop round =
    let live = ref false in
    List.iter
      (fun r ->
        r.delta <- r.changed;
        r.changed <- [];
        if not (List.is_empty r.delta) then live := true)
      t.rels;
    if !live then begin
      poll ();
      t.rounds <- round;
      List.iter
        (fun p ->
          match p.first with
          | Some s when not (List.is_empty s.srel.delta) -> fire ~round p s.srel.delta
          | Some _ | None -> ())
        plans;
      loop (round + 1)
    end
  in
  loop 1;
  t

let run ?(poll = ignore) alg program base =
  let fire ~round =
    fire ~one:alg.one ~conj:(fun ann f -> alg.conj ann f.ann) ~emit:(add alg ~round)
  in
  saturate ~poll ~fire program
    ~base_preds:(List.map (fun (name, _, _) -> name) base)
    ~base:(fun t ->
      List.iter (fun (name, tuple, ann) -> add alg ~round:0 (rel_of t name) tuple ann) base)

(* --- grounding ------------------------------------------------------------ *)

type ground = {
  model : int t;
  num_facts : int;
  instances : (int * int array) list;
}

(* Saturation in which a fact's annotation is its id, fixed when the fact
   is first derived, so every fact enters exactly one change list.  A rule
   instance is found at the latest when its last body fact is in the
   change list, and may be found more than once (one plan per body atom),
   hence the dedup. *)
let ground ?(poll = ignore) program base =
  let next = ref 0 in
  let seen = Hashtbl.create 64 in
  let instances = ref [] in
  let intern ~round rel tuple =
    match Tuple_tbl.find_opt rel.facts tuple with
    | Some f -> f.ann
    | None ->
      let id = !next in
      incr next;
      ignore (insert ~round rel tuple id);
      id
  in
  let fire ~round =
    fire ~one:[] ~conj:(fun ids f -> f.ann :: ids) ~emit:(fun rel tuple ids ->
        let head = intern ~round rel tuple in
        let body = Array.of_list (List.sort_uniq Int.compare ids) in
        (* An instance whose head is in its body never derives anything. *)
        if (not (Array.mem head body)) && not (Hashtbl.mem seen (head, body)) then begin
          Hashtbl.add seen (head, body) ();
          instances := (head, body) :: !instances
        end)
  in
  let model =
    saturate ~poll ~fire program
      ~base_preds:(List.map fst base)
      ~base:(fun t -> List.iter (fun (name, tuple) -> ignore (intern ~round:0 (rel_of t name) tuple)) base)
  in
  { model; num_facts = !next; instances = List.rev !instances }

let find t name tuple =
  match Hashtbl.find_opt t.by_name name with
  | None -> None
  | Some r -> Option.map (fun f -> f.ann) (Tuple_tbl.find_opt r.facts tuple)

let fold f t acc =
  List.fold_left
    (fun acc r ->
      List.sort (fun a b -> Tuple.compare a.tuple b.tuple) r.all
      |> List.fold_left (fun acc fact -> f r.name fact.tuple fact.ann acc) acc)
    acc t.rels

let rounds t = t.rounds
