module D = Datalog
module SS = Set.Make (String)

type t = {
  parsed : Parser.parsed;
  cone : string list;
  dropped : string list;
}

let cone_set ~roots (program : D.program) =
  let rules = Hashtbl.create 16 in
  List.iter (fun (r : D.rule) -> Hashtbl.add rules r.D.head.D.hpred r) program;
  let reads (r : D.rule) = List.map (fun (a : D.atom) -> a.D.pred) (r.D.body @ r.D.neg) in
  let rec close seen = function
    | [] -> seen
    | rel :: rest when SS.mem rel seen -> close seen rest
    | rel :: rest ->
      close (SS.add rel seen) (List.concat_map reads (Hashtbl.find_all rules rel) @ rest)
  in
  close SS.empty roots

let cone ~roots program = SS.elements (cone_set ~roots program)

let relations (p : Parser.parsed) =
  let of_rules =
    List.fold_left
      (fun acc (r : D.rule) ->
        List.fold_left
          (fun acc (a : D.atom) -> SS.add a.D.pred acc)
          (SS.add r.D.head.D.hpred acc) (r.D.body @ r.D.neg))
      SS.empty p.Parser.program
  in
  let of_facts = List.fold_left (fun acc (name, _) -> SS.add name acc) of_rules p.Parser.facts in
  List.fold_left (fun acc (name, _, _) -> SS.add name acc) of_facts p.Parser.cond_facts

let slice ~roots (p : Parser.parsed) =
  let cone = cone_set ~roots p.Parser.program in
  let all = relations p in
  let program = List.filter (fun (r : D.rule) -> SS.mem r.D.head.D.hpred cone) p.Parser.program in
  let facts = List.filter (fun (name, _) -> SS.mem name cone) p.Parser.facts in
  let cond_facts = List.filter (fun (name, _, _) -> SS.mem name cone) p.Parser.cond_facts in
  let used =
    SS.of_list (List.fold_left (fun acc (_, _, c) -> Prob.Ctable.cond_vars acc c) [] cond_facts)
  in
  let vars = List.filter (fun v -> SS.mem v.Prob.Ctable.vname used) p.Parser.vars in
  let same a b = List.compare_lengths a b = 0 in
  let unchanged =
    same program p.Parser.program && same facts p.Parser.facts
    && same cond_facts p.Parser.cond_facts && same vars p.Parser.vars
  in
  {
    parsed = (if unchanged then p else { p with Parser.program; facts; cond_facts; vars });
    cone = SS.elements (SS.inter cone all);
    dropped = SS.elements (SS.diff all cone);
  }

let describe t =
  Printf.sprintf "%d of %d" (List.length t.cone) (List.length t.cone + List.length t.dropped)
