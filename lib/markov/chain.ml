module Q = Bigq.Q
module Dist = Prob.Dist

type 'a t = {
  labels : 'a array;
  rows : (int * Q.t) list array;
  find : 'a -> int option;
}

exception Chain_error of string

let err fmt = Format.kasprintf (fun s -> raise (Chain_error s)) fmt

let check_row n i row =
  let total = Q.sum (List.map snd row) in
  if not (Q.is_one total) then err "row %d sums to %s, not 1" i (Q.to_string total);
  List.iter
    (fun (j, p) ->
      if j < 0 || j >= n then err "row %d targets invalid state %d" i j;
      if Q.sign p <= 0 then err "row %d has non-positive probability" i)
    row

let of_rows ?(equal = fun a b -> a = b) ?(hash = Hashtbl.hash) labels rows =
  let n = Array.length labels in
  if Array.length rows <> n then err "labels/rows length mismatch";
  Array.iteri (check_row n) rows;
  (* Hashed lookup rather than an O(n) scan with polymorphic equality (which
     mis-compares labels carrying caches or abstract internals).  [hash] must
     agree with [equal]; equal labels then share a bucket, and on duplicates
     the first index wins, matching the old scan. *)
  let size = max 16 (2 * n) in
  let buckets = Array.make size [] in
  let slot l = hash l land max_int mod size in
  Array.iteri
    (fun i l ->
      let b = slot l in
      if not (List.exists (fun (l', _) -> equal l' l) buckets.(b)) then
        buckets.(b) <- (l, i) :: buckets.(b))
    labels;
  let find l =
    List.find_map (fun (l', i) -> if equal l' l then Some i else None) buckets.(slot l)
  in
  { labels; rows; find }

(* Exploration stats.  [obs] is latched once per construction; the check
   inside the BFS loop is per expanded state (one branch per [step] call,
   which itself evaluates a whole query) — never per tuple. *)
let expanded_c = Obs.counter "chain.expanded"
let states_c = Obs.counter "chain.states"
let edges_c = Obs.counter "chain.edges"
let frontier_c = Obs.counter "chain.frontier_max"

let of_step (type a) ~(hash : a -> int) ~(equal : a -> a -> bool)
    ?(guard = Guard.unlimited) ~(init : a list) ~(step : a -> a Dist.t) () =
  let module H = Hashtbl.Make (struct
    type t = a

    let equal = equal
    let hash = hash
  end) in
  let index : int H.t = H.create 256 in
  let states : a option array ref = ref (Array.make 16 None) in
  let count = ref 0 in
  let push s =
    if !count = Array.length !states then begin
      let bigger = Array.make (2 * !count) None in
      Array.blit !states 0 bigger 0 !count;
      states := bigger
    end;
    !states.(!count) <- Some s;
    incr count
  in
  (* Budget checks follow the [obs] latching: [gtick]/[gstop] are [None]
     for the default unlimited guard, so the governed-off loop is the
     unguarded one.  [gtick] is charged per fresh intern, [gstop] polled
     per expanded state so deadlines and interrupts fire even when
     exploration stops discovering new states. *)
  let gtick = Guard.state_tick guard in
  let gstop = Guard.stop_check guard in
  (* Interning costs one hash + an expected O(1) bucket probe instead of the
     O(log n) full-state comparisons of a Map, so exploring an n-state chain
     is O(n * out-degree) expected. *)
  let intern s =
    match H.find_opt index s with
    | Some i -> (i, false)
    | None ->
      let i = !count in
      (match gtick with Some tick -> tick () | None -> ());
      H.add index s i;
      push s;
      (i, true)
  in
  let get i = match !states.(i) with Some s -> s | None -> assert false in
  let obs = Obs.enabled () in
  (* Per-level telemetry is latched like [obs]: one extra branch per popped
     state when something is recording, zero when not.  BFS levels are
     tracked by counting down how many pops remain in the current level —
     when the countdown hits zero, everything now queued is the next
     level's frontier. *)
  let ser = Obs.Series.enabled () in
  let trc = Obs.Trace.enabled () in
  let track = ser || trc in
  let level = ref 0 in
  let remaining = ref 0 in
  let queue = Queue.create () in
  List.iter (fun s -> Queue.add (fst (intern s)) queue) init;
  if track then remaining := Queue.length queue;
  let rows = Hashtbl.create 64 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    (match gstop with Some check -> check () | None -> ());
    if not (Hashtbl.mem rows i) then begin
      let d = step (get i) in
      let row =
        List.map
          (fun (s', p) ->
            let j, fresh = intern s' in
            if fresh then Queue.add j queue;
            (j, p))
          (Dist.support d)
      in
      Hashtbl.replace rows i row;
      if obs then begin
        Obs.incr expanded_c;
        Obs.add edges_c (List.length row);
        Obs.record_max frontier_c (Queue.length queue)
      end
    end;
    if track then begin
      decr remaining;
      if !remaining = 0 then begin
        let frontier = Queue.length queue in
        if ser then begin
          Obs.Series.add "chain.frontier" ~it:!level (float_of_int frontier);
          Obs.Series.add "chain.states" ~it:!level (float_of_int !count)
        end;
        if trc then
          Obs.Trace.instant "chain.level"
            ~args:[ ("level", !level); ("frontier", frontier); ("states", !count) ];
        incr level;
        remaining := frontier
      end
    end
  done;
  let n = !count in
  if obs then Obs.add states_c n;
  let labels = Array.init n get in
  let rows =
    Array.init n (fun i ->
        match Hashtbl.find_opt rows i with Some r -> r | None -> [ (i, Q.one) ])
  in
  Array.iteri (check_row n) rows;
  { labels; rows; find = (fun l -> H.find_opt index l) }

let num_states c = Array.length c.labels
let label c i = c.labels.(i)
let index c l = c.find l
let succ c i = c.rows.(i)

let prob c i j =
  match List.assoc_opt j c.rows.(i) with
  | Some p -> p
  | None -> Q.zero

let identity_minus c states =
  let k = Array.length states in
  let local = Array.make (Array.length c.labels) (-1) in
  Array.iteri (fun i s -> local.(s) <- i) states;
  Array.init k (fun i ->
      let row = Array.make k Q.zero in
      row.(i) <- Q.one;
      List.iter
        (fun (t, p) ->
          let j = local.(t) in
          if j >= 0 then row.(j) <- Q.sub row.(j) p)
        c.rows.(states.(i));
      row)

let edges c =
  let acc = ref [] in
  Array.iteri (fun i row -> List.iter (fun (j, p) -> acc := (i, j, p) :: !acc) row) c.rows;
  List.rev !acc

let row_dist c i = Dist.make ~compare:Int.compare c.rows.(i)

let map_labels f c =
  let labels = Array.map f c.labels in
  { labels; rows = c.rows; find = (fun _ -> None) }

let pp pp_label fmt c =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun i row ->
      Format.fprintf fmt "%d [%a] ->" i pp_label c.labels.(i);
      List.iter (fun (j, p) -> Format.fprintf fmt " %d:%s" j (Q.to_string p)) row;
      Format.fprintf fmt "@,")
    c.rows;
  Format.fprintf fmt "@]"
