(* Magic-sets demand rewrite relative to a ground query event.

   The event [~t ∈ R] asks about one ground tuple, so most of the kernel's
   work may be irrelevant.  The rewrite specialises the program to that
   demand in three passes:

   1. Dead-rule elimination: rules whose head predicate is unreachable
      from the event predicate (through positive or negated body atoms)
      cannot influence the event and are dropped.  Dropping probabilistic
      rules is sound because their repair-key choices are independent of
      the kept rules' — they marginalise out of the event probability.

   2. Probabilistic-safety ("total") closure.  Under the inflationary
      semantics, restricting *when* a tuple is derived changes

        - repair-key distributions: choices are made per new-valuations
          batch, so the batching itself is semantically relevant; and
        - rules with negation: [D(X) :- R(X), !T(X)] fires only while
          T(X) is still absent, so derivation timing is observable.

      Every predicate with a probabilistic rule, every rule mentioning
      negation (its head and its negated predicates), and — transitively —
      every predicate those rules read, therefore keeps its original,
      unrestricted rules.  Only the remaining purely-positive
      deterministic slice is demand-restricted; there the kernel computes
      a least fixpoint, which magic sets preserves for the demanded facts.

   3. Classical adornment of that slice, seeded at the event predicate
      with the all-bound adornment (the event tuple is ground).  Body
      atoms are reordered by a greedy sideways-information-passing
      heuristic so bindings actually reach the recursive atoms — e.g. in
      [R(Y) :- R(X), e(X, Y)] with Y bound, [e] is visited first and the
      rule becomes backward chaining. *)

module D = Datalog
module SS = Set.Make (String)

type stats = {
  rewritten : bool;
  dropped_rules : int;
  total_predicates : string list;
  adorned_predicates : int;
  magic_rules : int;
}

type t = {
  program : D.program;
  event : Event.t;
  stats : stats;
}

let program t = t.program
let event t = t.event
let stats t = t.stats

let pp_stats fmt s =
  Format.fprintf fmt "dropped %d rule(s); %d adorned predicate version(s); %d magic rule(s)%s"
    s.dropped_rules s.adorned_predicates s.magic_rules
    (match s.total_predicates with
    | [] -> ""
    | ps -> "; kept total: " ^ String.concat ", " ps)

let adorn_suffix a = String.concat "" (List.map (fun b -> if b then "b" else "f") a)
let adorned_name p a = p ^ "__" ^ adorn_suffix a
let magic_name p a = "__magic_" ^ p ^ "__" ^ adorn_suffix a

let atom_vars (a : D.atom) =
  List.filter_map (function D.Var v -> Some v | D.Const _ -> None) a.D.args

(* All predicate names a program mentions — used to refuse the rewrite if a
   generated name would collide with a user predicate. *)
let mentioned_predicates (program : D.program) =
  List.fold_left
    (fun acc (r : D.rule) ->
      List.fold_left
        (fun acc (a : D.atom) -> SS.add a.D.pred acc)
        (SS.add r.D.head.D.hpred acc)
        (r.D.body @ r.D.neg))
    SS.empty program

let unchanged ~dropped_rules ~total program event =
  {
    program;
    event;
    stats =
      {
        rewritten = dropped_rules > 0;
        dropped_rules;
        total_predicates = SS.elements total;
        adorned_predicates = 0;
        magic_rules = 0;
      };
  }

let rewrite ~(event : Event.t) (program : D.program) =
  let idb = SS.of_list (D.idb_predicates program) in
  let rules_of p =
    List.filter (fun (r : D.rule) -> String.equal r.D.head.D.hpred p) program
  in
  let body_preds (r : D.rule) =
    List.map (fun (a : D.atom) -> a.D.pred) (r.D.body @ r.D.neg)
  in
  (* Pass 1: predicates reachable from the event. *)
  let reachable = SS.of_list (Slice.cone ~roots:[ event.Event.relation ] program) in
  let kept =
    List.filter (fun (r : D.rule) -> SS.mem r.D.head.D.hpred reachable) program
  in
  let dropped_rules = List.length program - List.length kept in
  (* Pass 2: the total closure. *)
  let total =
    let seed =
      List.concat_map
        (fun (r : D.rule) ->
          let negated = List.map (fun (a : D.atom) -> a.D.pred) r.D.neg in
          if D.is_probabilistic_rule r || r.D.neg <> [] then
            r.D.head.D.hpred :: negated
          else negated)
        kept
    in
    let rec close t =
      let t' =
        SS.fold
          (fun p acc ->
            if SS.mem p idb then
              List.fold_left
                (fun acc q -> SS.add q acc)
                acc
                (List.concat_map body_preds (rules_of p))
            else acc)
          t t
      in
      if SS.equal t t' then t else close t'
    in
    close (SS.of_list seed)
  in
  let restricted p =
    SS.mem p idb && SS.mem p reachable && not (SS.mem p total)
  in
  if not (restricted event.Event.relation) then
    (* Event over an EDB or total predicate: only dead-rule elimination. *)
    unchanged ~dropped_rules ~total:(SS.inter total reachable) kept event
  else begin
    (* Pass 3: adornment. *)
    let generated = ref SS.empty in
    let fresh name =
      generated := SS.add name !generated;
      name
    in
    let seen_adorn : (string * bool list, unit) Hashtbl.t = Hashtbl.create 16 in
    let queue = Queue.create () in
    let demand p a =
      if not (Hashtbl.mem seen_adorn (p, a)) then begin
        Hashtbl.add seen_adorn (p, a) ();
        Queue.add (p, a) queue
      end
    in
    let magic_seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let magic_rules = ref [] in
    let add_magic (r : D.rule) =
      let key = Format.asprintf "%a" D.pp_rule r in
      if not (Hashtbl.mem magic_seen key) then begin
        Hashtbl.add magic_seen key ();
        magic_rules := r :: !magic_rules
      end
    in
    let adorned_rules = ref [] in
    (* Greedy SIP ordering: prefer atoms that can consume a binding —
       non-restricted ones first (cheap filters), then restricted ones
       (which propagate the binding into a magic set); among atoms sharing
       no bound variable, prefer non-restricted.  First in original order
       wins within a class. *)
    let sip_order boundset atoms =
      let shares bs (a : D.atom) =
        let vars = atom_vars a in
        vars = [] || List.exists (fun v -> SS.mem v bs) vars
      in
      let score bs a =
        match (restricted a.D.pred, shares bs a) with
        | false, true -> 0
        | true, true -> 1
        | false, false -> 2
        | true, false -> 3
      in
      let rec pick bs remaining ordered =
        match remaining with
        | [] -> List.rev ordered
        | _ ->
            let best =
              List.fold_left
                (fun acc a ->
                  let s = score bs a in
                  match acc with Some (_, sb) when sb <= s -> acc | _ -> Some (a, s))
                None remaining
            in
            let a = fst (Option.get best) in
            let remaining =
              let dropped = ref false in
              List.filter
                (fun a' ->
                  if (not !dropped) && a' == a then begin
                    dropped := true;
                    false
                  end
                  else true)
                remaining
            in
            let bs = List.fold_left (fun s v -> SS.add v s) bs (atom_vars a) in
            pick bs remaining (a :: ordered)
      in
      pick boundset atoms []
    in
    let process (p, a) =
      List.iter
        (fun (r : D.rule) ->
          let head_positions = List.combine r.D.head.D.hargs a in
          let magic_head_atom =
            {
              D.pred = fresh (magic_name p a);
              args =
                List.filter_map
                  (fun ((ha : D.head_arg), b) -> if b then Some ha.D.term else None)
                  head_positions;
            }
          in
          let boundset0 =
            List.fold_left
              (fun s ((ha : D.head_arg), b) ->
                match (b, ha.D.term) with
                | true, D.Var v -> SS.add v s
                | _ -> s)
              SS.empty head_positions
          in
          let ordered = sip_order boundset0 r.D.body in
          let rec walk bs prefix_rev transformed_rev = function
            | [] -> List.rev transformed_rev
            | (atom : D.atom) :: rest ->
                let atom' =
                  if restricted atom.D.pred then begin
                    let aq =
                      List.map
                        (function D.Const _ -> true | D.Var v -> SS.mem v bs)
                        atom.D.args
                    in
                    demand atom.D.pred aq;
                    let m_args =
                      List.filter_map
                        (fun (arg, b) -> if b then Some arg else None)
                        (List.combine atom.D.args aq)
                    in
                    add_magic
                      {
                        D.head =
                          D.deterministic_head (fresh (magic_name atom.D.pred aq)) m_args;
                        body = magic_head_atom :: List.rev prefix_rev;
                        neg = [];
                        constraints = [];
                      };
                    { atom with D.pred = fresh (adorned_name atom.D.pred aq) }
                  end
                  else atom
                in
                let bs =
                  List.fold_left (fun s v -> SS.add v s) bs (atom_vars atom)
                in
                walk bs (atom' :: prefix_rev) (atom' :: transformed_rev) rest
          in
          let body' = walk boundset0 [] [] ordered in
          adorned_rules :=
            {
              r with
              D.head = { r.D.head with D.hpred = fresh (adorned_name p a) };
              body = magic_head_atom :: body';
            }
            :: !adorned_rules)
        (rules_of p)
    in
    let event_values = Relational.Tuple.to_list event.Event.tuple in
    let all_bound = List.map (fun _ -> true) event_values in
    demand event.Event.relation all_bound;
    while not (Queue.is_empty queue) do
      process (Queue.pop queue)
    done;
    let seed_rule =
      {
        D.head =
          D.deterministic_head
            (fresh (magic_name event.Event.relation all_bound))
            (List.map (fun v -> D.Const v) event_values);
        body = [];
        neg = [];
        constraints = [];
      }
    in
    if not (SS.is_empty (SS.inter !generated (mentioned_predicates program))) then
      (* A generated name collides with a user predicate — refuse the
         adornment rather than risk capture. *)
      unchanged ~dropped_rules ~total:(SS.inter total reachable) kept event
    else begin
      let total_kept =
        List.filter (fun (r : D.rule) -> SS.mem r.D.head.D.hpred total) kept
      in
      let program' =
        total_kept @ List.rev !adorned_rules @ List.rev !magic_rules @ [ seed_rule ]
      in
      D.validate program';
      let event' =
        Event.make (adorned_name event.Event.relation all_bound) event_values
      in
      {
        program = program';
        event = event';
        stats =
          {
            rewritten = true;
            dropped_rules;
            total_predicates = SS.elements (SS.inter total reachable);
            adorned_predicates = Hashtbl.length seen_adorn;
            magic_rules = List.length !magic_rules + 1;
          };
      }
    end
  end
