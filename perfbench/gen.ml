(* Workload generators: every input is program text, built from the run's
   seed, together with the answer it must produce.  The seed renames
   constants, picks the event and shuffles the order; the shape multiset of
   a deck is fixed, so the cost of a deck does not depend on the seed. *)

module Q = Bigq.Q

type query = {
  family : string;  (* "chain" | "worlds" | "walk" | "pctable" | ... *)
  shape : string;  (* human-readable size, e.g. "3x4x5" or "line-9" *)
  source : string;
  semantics : Eval.Engine.semantics;
  expected : Q.t option;  (* closed form, when one is known *)
}

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A per-seed constant prefix, so two seeds never share interned names. *)
let prefix rng = Printf.sprintf "k%d" (Random.State.int rng 1_000_000)

let facts_of_edges b ~rel ~node edges =
  List.iter
    (fun { Workload.Graphs.src; dst; weight } ->
      Buffer.add_string b (Printf.sprintf "%s(%s, %s, %d).\n" rel (node src) (node dst) weight))
    edges

(* --- exact-oneshot -------------------------------------------------------- *)

(* Independent lazy-cycle walkers (the E4/E19 product chain): the chain has
   prod(sizes) states and the event "walker j sits at node m" has long-run
   probability 1/sizes.(j). *)
let chain rng sizes =
  let p = prefix rng in
  let node i = Printf.sprintf "%sn%d" p i in
  let w = Array.length sizes in
  let j = Random.State.int rng w in
  let m = Random.State.int rng sizes.(j) in
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i k ->
      Buffer.add_string b
        (Printf.sprintf "?C%d(Y) @W :- C%d(X), e%d(X, Y, W).\n" (i + 1) (i + 1) (i + 1));
      Buffer.add_string b (Printf.sprintf "C%d(%s).\n" (i + 1) (node 0));
      facts_of_edges b ~rel:(Printf.sprintf "e%d" (i + 1)) ~node (Workload.Graphs.cycle k))
    sizes;
  Buffer.add_string b (Printf.sprintf "?- C%d(%s).\n" (j + 1) (node m));
  { family = "chain";
    shape = String.concat "x" (Array.to_list (Array.map string_of_int sizes));
    source = Buffer.contents b;
    semantics = Eval.Engine.Noninflationary;
    expected = Some (Q.of_ints 1 sizes.(j))
  }

let reach_rules b ~node ~start =
  Buffer.add_string b (Printf.sprintf "R(%s) :- .\nR(Y) :- R(X), edge(X, Y).\n" (node start))

let flag b name = Buffer.add_string b (Printf.sprintf "var %s = { true: 1/2, false: 1/2 }.\n" name)

(* Uncertain path v0 -> ... -> vn, each edge present w.p. 1/2 (2^n worlds):
   Pr[vn reached] = 1/2^n, as Workload.Uncertain.uncertain_line. *)
let line rng n =
  let p = prefix rng in
  let node i = Printf.sprintf "%sv%d" p i in
  let b = Buffer.create 1024 in
  for i = 0 to n - 1 do
    flag b (Printf.sprintf "%sx%d" p i);
    Buffer.add_string b (Printf.sprintf "edge(%s, %s) when %sx%d = true.\n" (node i) (node (i + 1)) p i)
  done;
  reach_rules b ~node ~start:0;
  Buffer.add_string b (Printf.sprintf "?- R(%s).\n" (node n));
  { family = "worlds";
    shape = Printf.sprintf "line-%d" n;
    source = Buffer.contents b;
    semantics = Eval.Engine.Inflationary;
    expected = Some (Workload.Uncertain.expected_line ~n)
  }

(* [paths] disjoint paths of [len] uncertain edges from v0 to t:
   Pr[t reached] = 1 - (1 - 2^-len)^paths.  With len = 2 this is
   Workload.Uncertain.uncertain_parallel. *)
let parallel rng ~paths ~len =
  let p = prefix rng in
  let node i = Printf.sprintf "%sv%d" p i in
  let mid i k = if k = 0 then node 0 else if k = len then p ^ "t" else Printf.sprintf "%sm%d_%d" p i k in
  let b = Buffer.create 1024 in
  for i = 0 to paths - 1 do
    for k = 1 to len do
      let x = Printf.sprintf "%sa%d_%d" p i k in
      flag b x;
      Buffer.add_string b
        (Printf.sprintf "edge(%s, %s) when %s = true.\n" (mid i (k - 1)) (mid i k) x)
    done
  done;
  reach_rules b ~node ~start:0;
  Buffer.add_string b (Printf.sprintf "?- R(%st).\n" p);
  let miss = Q.sub Q.one (Q.pow Q.half len) in
  { family = "worlds";
    shape = Printf.sprintf "parallel-%dx%d" paths len;
    source = Buffer.contents b;
    semantics = Eval.Engine.Inflationary;
    expected = Some (Q.sub Q.one (Q.pow miss paths))
  }

(* --- sample-pool ----------------------------------------------------------- *)

(* The Example 3.3 walk over a seed-relabelled graph; the exact long-run
   probability is computed at set-up. *)
let walk rng ~name edges ~nodes =
  let p = prefix rng in
  let perm = shuffle rng (Array.init nodes Fun.id) in
  let node i = Printf.sprintf "%sn%d" p perm.(i) in
  let target = Random.State.int rng nodes in
  let b = Buffer.create 1024 in
  Buffer.add_string b "?C(Y) @W :- C(X), e(X, Y, W).\n";
  Buffer.add_string b (Printf.sprintf "C(%s).\n" (node 0));
  facts_of_edges b ~rel:"e" ~node edges;
  Buffer.add_string b (Printf.sprintf "?- C(%s).\n" (node target));
  { family = "walk";
    shape = name;
    source = Buffer.contents b;
    semantics = Eval.Engine.Noninflationary;
    expected = None
  }

(* --- daemon-mix ------------------------------------------------------------ *)

(* The E26 compile-heavy shape: a 40-rule copy chain whose answer is 1. *)
let copy_chain ~tag =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Printf.sprintf "%s_0(a).\n" tag);
  for i = 1 to 40 do
    Buffer.add_string b (Printf.sprintf "%s_%d(X) :- %s_%d(X).\n" tag i tag (i - 1))
  done;
  Buffer.add_string b (Printf.sprintf "?- %s_40(a).\n" tag);
  Buffer.contents b
