module Algebra = Relational.Algebra
module Relation = Relational.Relation
module Database = Relational.Database
module Plan = Relational.Plan

(* Ordered: a node's draws are the most dynamic of its operands'. *)
type draws =
  | No_draws  (* Repair_key-free *)
  | Static  (* every repair-key reads a Repair_key-free argument *)
  | Dynamic  (* some repair-key reads another's result *)

type t = {
  schema : string list;
  eval : Database.t -> Relation.t Dist.t;
  draw : Repair_key.draw -> Database.t -> Relation.t;
  draws : draws;
}

let schema p = p.schema
let eval p db = p.eval db
let sample rng p db = p.draw (Dist.sample rng) db

let rcompare = Relation.compare

(* A Repair_key-free subtree is one compiled deterministic plan: a point
   distribution under [eval], no draw under [draw] — exactly like the
   interpreter's [to_algebra] fast path. *)
let det plan =
  {
    schema = Plan.schema plan;
    eval = (fun db -> Dist.return (Plan.run plan db));
    draw = (fun _ db -> Plan.run plan db);
    draws = No_draws;
  }

(* [Obs.wrap1]/[wrap2] are identity when stats are off (checked once here,
   at plan-build time).  Under [eval] the tick count is one per support
   element of the operand distribution — the number of worlds the operator
   actually touched. *)
let unary ~op out f c =
  let f = Obs.wrap1 ("pplan." ^ op) f in
  {
    schema = out;
    eval = (fun db -> Dist.map ~compare:rcompare f (c.eval db));
    draw = (fun draw db -> f (c.draw draw db));
    draws = c.draws;
  }

(* The interpreter ([Palgebra.eval_sampled]) hands both sub-results to one
   function call, whose arguments OCaml evaluates right to left — so the
   RIGHT operand draws from the RNG first.  Draw in that same order here,
   keeping fixed-seed runs bit-identical with and without plans. *)
let binary ~op out f a b =
  let f = Obs.wrap2 ("pplan." ^ op) f in
  {
    schema = out;
    eval = (fun db -> Dist.product ~compare:rcompare f (a.eval db) (b.eval db));
    draw =
      (fun draw db ->
        let rb = b.draw draw db in
        let ra = a.draw draw db in
        f ra rb);
    draws = max a.draws b.draws;
  }

let rec plan ~schema_of (e : Palgebra.t) =
  match Palgebra.to_algebra e with
  | Some a -> det (Plan.compile ~schema_of a)
  | None -> (
    match e with
    | Palgebra.Rel _ | Palgebra.Const _ -> assert false (* deterministic, handled above *)
    | Palgebra.Select (p, e) ->
      let c = plan ~schema_of e in
      unary ~op:"select" c.schema (Plan.Ops.select c.schema p) c
    | Palgebra.Project (cols, e) ->
      let c = plan ~schema_of e in
      let out, f = Plan.Ops.project c.schema cols in
      unary ~op:"project" out f c
    | Palgebra.Rename (pairs, e) ->
      let c = plan ~schema_of e in
      let out, f = Plan.Ops.rename c.schema pairs in
      unary ~op:"rename" out f c
    | Palgebra.Product (a, b) ->
      let ca = plan ~schema_of a and cb = plan ~schema_of b in
      let out, f = Plan.Ops.product ca.schema cb.schema in
      binary ~op:"product" out f ca cb
    | Palgebra.Join (a, b) ->
      let ca = plan ~schema_of a and cb = plan ~schema_of b in
      let out, f = Plan.Ops.join ca.schema cb.schema in
      binary ~op:"join" out f ca cb
    | Palgebra.Union (a, b) ->
      let ca = plan ~schema_of a and cb = plan ~schema_of b in
      let out, f = Plan.Ops.union ca.schema cb.schema in
      binary ~op:"union" out f ca cb
    | Palgebra.Diff (a, b) ->
      let ca = plan ~schema_of a and cb = plan ~schema_of b in
      let out, f = Plan.Ops.diff ca.schema cb.schema in
      binary ~op:"diff" out f ca cb
    | Palgebra.Extend (c, term, e) ->
      let ce = plan ~schema_of e in
      let out, f = Plan.Ops.extend ce.schema c term in
      unary ~op:"extend" out f ce
    | Palgebra.Aggregate { group_by; agg; src; out; arg } ->
      let c = plan ~schema_of arg in
      let out_cols, f = Plan.Ops.aggregate c.schema ~group_by ~agg ~src ~out in
      unary ~op:"aggregate" out_cols f c
    | Palgebra.Repair_key { key; weight; arg } ->
      let c = plan ~schema_of arg in
      (* Key positions first, then the weight position: the Schema_error
         precedence of the name-based evaluator. *)
      let ki = Array.of_list (Algebra.indices_of c.schema key) in
      let wi = Option.map (fun w -> List.hd (Algebra.indices_of c.schema [ w ])) weight in
      let repair = Obs.wrap1 "pplan.repair_key" (Repair_key.repair_at ~key:ki ?weight:wi) in
      let draw_one =
        Obs.wrap2 "pplan.repair_key" (fun draw r -> Repair_key.draw_at draw ~key:ki ?weight:wi r)
      in
      {
        schema = c.schema;
        eval = (fun db -> Dist.bind ~compare:rcompare (c.eval db) repair);
        draw =
          (fun draw db ->
            let r = c.draw draw db in
            draw_one draw r);
        (* The groups, and so the draws, depend on the argument alone: when
           it draws nothing they are a function of the state. *)
        draws = (if c.draws = No_draws then Static else Dynamic);
      })

let compile ~schema_of e = plan ~schema_of e

(* --- delta plans -------------------------------------------------------- *)

(* Repair-key makes a fresh independent choice per step, so probabilistic
   subtrees cannot be incrementalised — like delta-aggregate invalidation,
   a probabilistic [delta] falls back to full evaluation.  Deterministic
   expressions get the full [Plan.Delta] treatment. *)
type delta = {
  base : t;
  det : Plan.Delta.t option;  (* [Some] iff the expression is Repair_key-free *)
}

let compile_delta ~schema_of e =
  match Palgebra.to_algebra e with
  | Some a ->
    let d = Plan.Delta.compile ~schema_of a in
    { base = det (Plan.Delta.plan d); det = Some d }
  | None -> { base = plan ~schema_of e; det = None }

let delta_base d = d.base

let delta_incremental d =
  match d.det with Some pd -> Plan.Delta.incremental pd | None -> false

let delta_eval d db delta =
  match (d.det, delta) with
  | Some pd, Some dd when Plan.Delta.incremental pd ->
    Dist.return (Plan.Delta.run_delta pd db dd)
  | _ -> d.base.eval db

(* --- whole interpretations ---------------------------------------------- *)

type interp = (string * t) list

let compile_interp ~schema_of i =
  List.map (fun (name, q) -> (name, compile ~schema_of q)) (Interp.bindings i)

(* Mirrors [Interp.apply]: per-relation result distributions against the old
   state, folded into databases with the same product order and compare. *)
let apply ip db =
  let dists = List.map (fun (name, p) -> (name, p.eval db)) ip in
  List.fold_left
    (fun acc (name, d) ->
      Dist.product ~compare:Database.compare (fun db r -> Database.add name r db) acc d)
    (Dist.return Database.empty) dists

(* Mirrors [Interp.apply_sampled]: rules drawn in binding order. *)
let apply_drawn draw ip db =
  List.fold_left
    (fun acc (name, p) -> Database.add name (p.draw draw db) acc)
    Database.empty ip

let apply_sampled rng ip db = apply_drawn (Dist.sample rng) ip db

let static_draws ip = List.for_all (fun (_, p) -> p.draws <> Dynamic) ip

(* --- compiled-artifact cache --------------------------------------------- *)

module Cache = struct
  type 'a t = {
    name : string;
    capacity : int;
    table : (string, 'a) Hashtbl.t;
    order : string Queue.t; (* insertion order; FIFO eviction *)
    mu : Mutex.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create ?(capacity = 64) name =
    if capacity <= 0 then invalid_arg "Pplan.Cache.create: capacity must be positive";
    {
      name;
      capacity;
      table = Hashtbl.create 16;
      order = Queue.create ();
      mu = Mutex.create ();
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }

  (* Obs ticks follow the zero-cost contract: consulted per lookup (a cache
     lookup is a top-level operation, not a hot loop) and only when stats
     are enabled in the current scope.  The "<name>.hit"/"<name>.miss"
     names surface in stats reports' operator tables when the cache is
     named under the "pplan." prefix. *)
  let tick t suffix =
    if Obs.enabled () then Obs.incr (Obs.counter (t.name ^ suffix))

  let find_or_add t key build =
    let cached = Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.table key) in
    match cached with
    | Some v ->
      Atomic.incr t.hits;
      tick t ".hit";
      v
    | None ->
      (* Build outside the lock: compilation can be slow and must not
         serialise unrelated lookups.  Two concurrent misses on one key may
         both build; the artifacts are interchangeable (compilation is
         deterministic) and the first insert wins. *)
      Atomic.incr t.misses;
      tick t ".miss";
      let v = build () in
      Mutex.protect t.mu (fun () ->
          match Hashtbl.find_opt t.table key with
          | Some v' -> v'
          | None ->
            if Hashtbl.length t.table >= t.capacity then begin
              match Queue.take_opt t.order with
              | Some oldest -> Hashtbl.remove t.table oldest
              | None -> ()
            end;
            Hashtbl.replace t.table key v;
            Queue.add key t.order;
            v)

  let stats t = (Atomic.get t.hits, Atomic.get t.misses, Mutex.protect t.mu (fun () -> Hashtbl.length t.table))

  let clear t =
    Mutex.protect t.mu (fun () ->
        Hashtbl.reset t.table;
        Queue.clear t.order)
end
