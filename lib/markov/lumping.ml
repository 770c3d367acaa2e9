module Q = Bigq.Q

type result = {
  quotient : int Chain.t;
  class_of : int array;
  num_classes : int;
}

(* Probability vector of a state into the current classes, canonicalised as
   a sorted association list. *)
let signature chain class_of s =
  let module M = Map.Make (Int) in
  let m =
    List.fold_left
      (fun acc (t, p) ->
        M.update class_of.(t) (function None -> Some p | Some q -> Some (Q.add q p)) acc)
      M.empty (Chain.succ chain s)
  in
  M.bindings m

let lump ~initial chain =
  let n = Chain.num_states chain in
  let pred = Array.make n [] in
  for s = n - 1 downto 0 do
    List.iter
      (fun (t, p) -> if not (Q.is_zero p) then pred.(t) <- (s, p) :: pred.(t))
      (Chain.succ chain s)
  done;
  let labels = Hashtbl.create 16 in
  let class_of =
    Array.init n (fun s ->
        let l = initial s in
        match Hashtbl.find_opt labels l with
        | Some c -> c
        | None ->
          let c = Hashtbl.length labels in
          Hashtbl.add labels l c;
          c)
  in
  let k = ref (Hashtbl.length labels) in
  (* Class [c] is the segment [first.(c), last.(c)) of [elems]; [pos]
     inverts [elems]. *)
  let elems = Array.init n Fun.id in
  Array.stable_sort (fun s t -> Int.compare class_of.(s) class_of.(t)) elems;
  let pos = Array.make n 0 and first = Array.make n 0 and last = Array.make n 0 in
  Array.iteri
    (fun i s ->
      pos.(s) <- i;
      let c = class_of.(s) in
      if i = 0 || class_of.(elems.(i - 1)) <> c then first.(c) <- i;
      last.(c) <- i + 1)
    elems;
  let swap i j =
    let s = elems.(i) and t = elems.(j) in
    elems.(i) <- t;
    pos.(t) <- i;
    elems.(j) <- s;
    pos.(s) <- j
  in
  let weight = Array.make n Q.zero and hit = Array.make n false and touched = Array.make n 0 in
  let pending = Array.make n false and work = Stack.create () in
  let push c =
    pending.(c) <- true;
    Stack.push c work
  in
  for c = 0 to !k - 1 do
    push c
  done;
  (* Splitter loop: weigh the predecessors of one class by their mass into
     it, then split every class whose members weigh differently.  Weight 0
     (no edge into the splitter) is the untouched remainder of a class.
     Once every class is a single state nothing can split. *)
  while !k < n && not (Stack.is_empty work) do
    let c = Stack.pop work in
    pending.(c) <- false;
    let preds = ref [] in
    for i = first.(c) to last.(c) - 1 do
      List.iter
        (fun (s, p) ->
          if hit.(s) then weight.(s) <- Q.add weight.(s) p
          else begin
            hit.(s) <- true;
            weight.(s) <- p;
            preds := s :: !preds
          end)
        pred.(elems.(i))
    done;
    (* Gather each class's weighed members at the front of its segment. *)
    let split = ref [] in
    List.iter
      (fun s ->
        let b = class_of.(s) in
        if touched.(b) = 0 then split := b :: !split;
        swap pos.(s) (first.(b) + touched.(b));
        touched.(b) <- touched.(b) + 1)
      !preds;
    List.iter
      (fun b ->
        let f = first.(b) and m = touched.(b) in
        touched.(b) <- 0;
        let seg = Array.sub elems f m in
        Array.stable_sort (fun s t -> Q.compare weight.(s) weight.(t)) seg;
        Array.iteri
          (fun i s ->
            elems.(f + i) <- s;
            pos.(s) <- f + i)
          seg;
        (* Carve each run of equal weight off as a new class; the last run
           keeps [b] when no untouched remainder does. *)
        let g = ref f and pieces = ref [] in
        for h = f + 1 to f + m do
          if h = f + m || not (Q.equal weight.(elems.(h)) weight.(elems.(h - 1))) then
            if h < last.(b) then begin
              let c' = !k in
              incr k;
              first.(c') <- !g;
              last.(c') <- h;
              for i = !g to h - 1 do
                class_of.(elems.(i)) <- c'
              done;
              pieces := c' :: !pieces;
              g := h
            end
        done;
        first.(b) <- !g;
        if !pieces <> [] then
          if pending.(b) then List.iter push !pieces
          else begin
            (* [b] was already a splitter with its old members, so mass
               into one piece follows from mass into the others: skip the
               largest. *)
            let size c = last.(c) - first.(c) in
            let largest =
              List.fold_left (fun l c -> if size c > size l then c else l) b !pieces
            in
            List.iter (fun c -> if c <> largest then push c) (b :: !pieces)
          end)
      !split;
    List.iter (fun s -> hit.(s) <- false) !preds
  done;
  (* Number the classes by first occurrence. *)
  let renum = Array.make !k (-1) and k = ref 0 in
  let class_of =
    Array.init n (fun s ->
        let c = class_of.(s) in
        if renum.(c) < 0 then begin
          renum.(c) <- !k;
          incr k
        end;
        renum.(c))
  in
  let k = !k in
  let representative = Array.make k (-1) in
  for s = n - 1 downto 0 do
    representative.(class_of.(s)) <- s
  done;
  let rows = Array.init k (fun c -> signature chain class_of representative.(c)) in
  { quotient = Chain.of_rows (Array.init k Fun.id) rows; class_of; num_classes = k }

let long_run_mass chain ~start ~event =
  let lumping = Obs.phase "lump" (fun () -> lump ~initial:event chain) in
  Obs.phase "solve" @@ fun () ->
  let { quotient; class_of; num_classes } = lumping in
  let representative = Array.make num_classes 0 in
  Array.iteri (fun s c -> representative.(c) <- s) class_of;
  (* Theorem 5.5: the walk is absorbed into a closed component and then
     occupies it by that component's stationary law; transient classes have
     zero long-run occupation.  An irreducible quotient is the single closed
     component, absorbed with probability 1 (Proposition 5.4). *)
  let scc = Absorption.scc quotient in
  let laws =
    List.filter_map
      (fun (component, p) ->
        if Q.is_zero p then None
        else Some (p, Stationary.exact_on_component quotient scc.Scc.members.(component)))
      (Absorption.into_closed quotient ~start:class_of.(start))
  in
  let mass =
    Q.sum
      (List.map
         (fun (p, pi) ->
           Q.mul p
             (Q.sum
                (List.filter_map (fun (c, pc) -> if event representative.(c) then Some pc else None) pi)))
         laws)
  in
  (lumping, mass)
