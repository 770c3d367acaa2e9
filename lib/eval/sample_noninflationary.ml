module Database = Relational.Database
module Dist = Prob.Dist

let steps_c = Obs.counter "engine.steps"
let states_c = Obs.counter "engine.states"
let draws_c = Obs.counter "repair_key.draws"

(* --- the step memo -----------------------------------------------------------

   A walk keeps revisiting a few states, and with static draws
   ([Lang.Forever.static_draws]) a state's step is a function of the state
   and one choice per repair-key group.  So the first step from a state
   runs the kernel with a recording draw, which keeps each group's
   cumulative table and the choices it made; later steps draw one float per
   group against those tables and look the successor up by the choice
   vector.  Only a vector not seen before runs the kernel again, with the
   choices forced.  Every step draws exactly the floats [Dist.sample] would,
   in the same order, so memoised and plain walks are draw-identical. *)

let memo_states = 1024
let memo_transitions = 64 * memo_states

(* A choice vector's key: [width] little-endian bytes per group, wide enough
   for the state's largest group, so keys are exact for any number of
   groups of any size. *)
module Next = Hashtbl.Make (struct
  type t = Bytes.t

  let equal = Bytes.equal
  let hash = Hashtbl.hash
end)

module States = Hashtbl.Make (Database)

(* What the first step from a state recorded: per group, in draw order, the
   cumulative table ([Dist.cumulative]) of its distribution; plus scratch
   for the step being taken, its choices and their key. *)
type draws = {
  cum : float array array;
  width : int;
  choices : int array;
  key : Bytes.t;
}

type node = {
  db : Database.t;
  holds : bool;
  mutable draws : draws option;  (** [None] until the first step from it *)
  next : position Next.t;
}

and position =
  | Node of node
  | Plain of Database.t
      (** off the memo: a state met once it was full, and every later
          state of the walk, stepped on the plans without a lookup *)

type memo = {
  query : Lang.Forever.t;
  states : node States.t;
  mutable transitions : int;
  mutable replayed : int;  (** draws answered from tables, not yet counted *)
}

let create query = { query; states = States.create 64; transitions = 0; replayed = 0 }

(* The position of [db]: its node, interned while the memo has room. *)
let locate memo db =
  match States.find_opt memo.states db with
  | Some n -> Node n
  | None when States.length memo.states < memo_states ->
    let n =
      { db;
        holds = Lang.Event.holds memo.query.Lang.Forever.event db;
        draws = None;
        next = Next.create 1
      }
    in
    States.add memo.states db n;
    if Obs.enabled () then Obs.incr states_c;
    Node n
  | None -> Plain db

let set_choice d k i =
  d.choices.(k) <- i;
  for j = 0 to d.width - 1 do
    Bytes.set d.key ((k * d.width) + j) (Char.chr ((i lsr (8 * j)) land 0xff))
  done

(* Step to [db'] and remember the transition when both ends are interned. *)
let link memo n d db' =
  let pos = locate memo db' in
  (match pos with
   | Node _ when memo.transitions < memo_transitions ->
     Next.add n.next (Bytes.copy d.key) pos;
     memo.transitions <- memo.transitions + 1
   | Node _ | Plain _ -> ());
  pos

let record memo rng n =
  let cum = ref [] and choices = ref [] in
  let draw dist =
    let c = Dist.cumulative dist in
    let i = Dist.index c (Random.State.float rng 1.0) in
    cum := c :: !cum;
    choices := i :: !choices;
    fst (List.nth (Dist.support dist) i)
  in
  let db' = Lang.Forever.step_drawn draw memo.query n.db in
  let cum = Array.of_list (List.rev !cum) in
  let groups = Array.length cum in
  let largest = Array.fold_left (fun m c -> max m (Array.length c)) 1 cum in
  let rec bytes v = if v < 256 then 1 else 1 + bytes (v lsr 8) in
  let width = bytes (largest - 1) in
  let d = { cum; width; choices = Array.make groups 0; key = Bytes.create (groups * width) } in
  List.iteri (set_choice d) (List.rev !choices);
  n.draws <- Some d;
  link memo n d db'

let replay memo rng n d =
  let groups = Array.length d.cum in
  for k = 0 to groups - 1 do
    set_choice d k (Dist.index d.cum.(k) (Random.State.float rng 1.0))
  done;
  match Next.find_opt n.next d.key with
  | Some pos ->
    memo.replayed <- memo.replayed + groups;
    pos
  | None ->
    let k = ref (-1) in
    let force dist =
      incr k;
      fst (List.nth (Dist.support dist) d.choices.(!k))
    in
    link memo n d (Lang.Forever.step_drawn force memo.query n.db)

let step memo rng = function
  | Node ({ draws = Some d; _ } as n) -> replay memo rng n d
  | Node n -> record memo rng n
  | Plain db -> Plain (Lang.Forever.step_sampled rng memo.query db)

let holds memo = function
  | Node n -> n.holds
  | Plain db -> Lang.Event.holds memo.query.Lang.Forever.event db

(* The forced and recording runs count their draws in [Repair_key]; the
   replayed ones are counted here, once per walk. *)
let flush memo =
  if memo.replayed > 0 then begin
    if Obs.enabled () then Obs.add draws_c memo.replayed;
    memo.replayed <- 0
  end

(* One memo per domain, for the query it was made for: shards on one domain
   run one after another, and no two domains share a memo.  The calling
   domain drops its memo when the run ends, so nothing outlives a run. *)
let memo_key : memo option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let memo_for query =
  match Domain.DLS.get memo_key with
  | Some m when m.query == query -> m
  | _ ->
    let m = create query in
    Domain.DLS.set memo_key (Some m);
    m

let stepper query = if Lang.Forever.static_draws query then "memo" else "plan"

(* --- the estimators ------------------------------------------------------- *)

let walk_plain rng ~burn_in query init =
  let rec go db k =
    if k = 0 then Lang.Event.holds query.Lang.Forever.event db
    else go (Lang.Forever.step_sampled rng query db) (k - 1)
  in
  go init burn_in

let walk_memo memo rng ~burn_in init =
  let rec go pos k = if k = 0 then holds memo pos else go (step memo rng pos) (k - 1) in
  let hit = go (locate memo init) burn_in in
  flush memo;
  hit

let run_samples ?guard ?fault ?ckpt ?(domains = 1) rng ~burn_in ~samples query init =
  if burn_in < 0 then invalid_arg "run_samples: burn_in must be non-negative";
  let run walk =
    Pool.run_samples ?guard ?fault ?ckpt ~domains ~samples rng (fun rng ->
        if Obs.enabled () then Obs.add steps_c burn_in;
        walk rng)
  in
  if Lang.Forever.static_draws query then
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set memo_key None)
      (fun () -> run (fun rng -> walk_memo (memo_for query) rng ~burn_in init))
  else run (fun rng -> walk_plain rng ~burn_in query init)

(* The long-run average is over the stationary regime; averaging from the
   initial state folds the pre-mixing prefix into the estimate and biases
   it on slow-mixing chains.  [burn_in] walks (and discards) that prefix
   before any state is counted. *)
let eval_time_average rng ?(burn_in = 0) ~steps query init =
  if steps <= 0 then invalid_arg "eval_time_average: steps must be positive";
  if burn_in < 0 then invalid_arg "eval_time_average: burn_in must be non-negative";
  if Obs.enabled () then Obs.add steps_c (burn_in + steps);
  let walk step holds init =
    let pos = ref init in
    for _ = 1 to burn_in do
      pos := step !pos
    done;
    let hits = ref 0 in
    for _ = 1 to steps do
      if holds !pos then incr hits;
      pos := step !pos
    done;
    float_of_int !hits /. float_of_int steps
  in
  if Lang.Forever.static_draws query then begin
    let memo = create query in
    let p = walk (step memo rng) (holds memo) (locate memo init) in
    flush memo;
    p
  end
  else
    walk (Lang.Forever.step_sampled rng query) (Lang.Event.holds query.Lang.Forever.event) init

let estimate_burn_in ?max_steps ~eps query init =
  let chain = Exact_noninflationary.build_chain query init in
  match Markov.Chain.index chain init with
  | None -> None
  | Some start -> Markov.Mixing.mixing_time_from ?max_steps ~eps chain ~start
