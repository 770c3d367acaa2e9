module Q = Bigq.Q
module Database = Relational.Database
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Int_set = Set.Make (Int)

(* --- Union-find over base tuple ids ----------------------------------- *)

type uf = { parent : int array }

let uf_create n = { parent = Array.init n Fun.id }

let rec uf_find uf i =
  if uf.parent.(i) = i then i
  else begin
    let r = uf_find uf uf.parent.(i) in
    uf.parent.(i) <- r;
    r
  end

let uf_union uf i j =
  let ri = uf_find uf i and rj = uf_find uf j in
  if ri <> rj then uf.parent.(ri) <- rj

(* --- Saturation -------------------------------------------------------- *)

let base_tuples db =
  List.concat_map
    (fun (name, r) -> List.rev (Relation.fold (fun t acc -> (name, t) :: acc) r []))
    (Database.bindings db)

(* A fact's provenance is the set of base-tuple ids its derivations used:
   joining body facts and collecting alternative derivations both take the
   union. *)
let provenance =
  { Saturate.one = Int_set.empty;
    conj = Int_set.union;
    disj = Int_set.union;
    equal = Int_set.equal
  }

let saturate_internal program db =
  let base = base_tuples db in
  let facts =
    Saturate.run provenance program
      (List.mapi (fun i (name, t) -> (name, t, Int_set.singleton i)) base)
  in
  (base, facts)

let saturate program db =
  let _, facts = saturate_internal program db in
  List.rev (Saturate.fold (fun pred t prov acc -> (pred, t, Int_set.elements prov) :: acc) facts [])

let has_negation program =
  List.exists (fun (r : Lang.Datalog.rule) -> r.Lang.Datalog.neg <> []) program

(* Each probabilistic rule's head predicate and key mask: head facts that
   agree on the key arguments compete in one repair-key choice. *)
let choice_groups program =
  List.filter_map
    (fun (r : Lang.Datalog.rule) ->
      let h = r.Lang.Datalog.head in
      if not (Lang.Datalog.is_probabilistic_rule r) then None
      else Some (h.Lang.Datalog.hpred, List.map (fun a -> a.Lang.Datalog.is_key) h.Lang.Datalog.hargs))
    program

module Tuple_tbl = Hashtbl.Make (Tuple)

let classes program db =
  (* Negation makes derivability non-monotone, so the provenance
     saturation no longer over-approximates interaction; fall back to a
     single class (no partitioning). *)
  if has_negation program then [ base_tuples db ]
  else
  let base, facts = saturate_internal program db in
  let groups = choice_groups program in
  let chosen pred = List.exists (fun (p, _) -> String.equal p pred) groups in
  (* A choice among facts derivable from no base tuple at all would be
     drawn afresh in every class's sub-database, so the classes would not
     be independent: one class again. *)
  if
    Saturate.fold
      (fun pred _ prov acc -> acc || (chosen pred && Int_set.is_empty prov))
      facts false
  then [ base ]
  else begin
  let n = List.length base in
  let uf = uf_create n in
  (* All base ids co-occurring in some fact's provenance interact.  The
     union order fixes which id roots each class, and with it the order the
     classes are listed in: predicates are visited in the order of a
     16-bucket string table filled in first-mention order, tuples in
     ascending order. *)
  let by_pred = Hashtbl.create 16 in
  Saturate.fold
    (fun pred _ prov () ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_pred pred) in
      Hashtbl.replace by_pred pred (prov :: prev))
    facts ();
  Hashtbl.iter
    (fun _ provs ->
      List.iter
        (fun prov ->
          match Int_set.elements prov with
          | [] -> ()
          | first :: rest -> List.iter (uf_union uf first) rest)
        (List.rev provs))
    by_pred;
  (* The alternatives of one repair-key choice interact too: the walk picks
     one of them, so every base id behind any of them joins one class. *)
  List.iter
    (fun (gpred, keys) ->
      let root_of = Tuple_tbl.create 16 in
      Saturate.fold
        (fun pred t prov () ->
          if String.equal pred gpred then
            let key = Tuple.of_list (List.filteri (fun i _ -> List.nth keys i) (Tuple.to_list t)) in
            Int_set.iter
              (fun i ->
                match Tuple_tbl.find_opt root_of key with
                | Some root -> uf_union uf root i
                | None -> Tuple_tbl.replace root_of key i)
              prov)
        facts ())
    groups;
  let classes = Hashtbl.create 16 in
  List.iteri
    (fun i bt ->
      let root = uf_find uf i in
      let prev = Option.value ~default:[] (Hashtbl.find_opt classes root) in
      Hashtbl.replace classes root (bt :: prev))
    base;
  Hashtbl.fold (fun _ members acc -> List.rev members :: acc) classes []
  end

let restrict db keep =
  Database.map
    (fun name r ->
      Relation.filter (fun t -> List.exists (fun (n, t') -> String.equal n name && Tuple.equal t t') keep) r)
    db

(* Each class is compiled against its own sub-database and explored under
   the one run guard, so the budget spans every class's chain. *)
let eval_noninflationary ?guard program db event =
  let parts = classes program db in
  let p_none =
    List.fold_left
      (fun acc part ->
        let kernel, init = Lang.Compile.noninflationary_kernel program (restrict db part) in
        let query =
          Obs.phase "compile" (fun () ->
              Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init)
                (Lang.Forever.make ~kernel ~event))
        in
        Q.mul acc (Q.sub Q.one (Exact_noninflationary.eval ?guard query init)))
      Q.one parts
  in
  (Q.sub Q.one p_none, List.length parts)
