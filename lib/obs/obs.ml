(* Zero-cost-when-off observability: named monotonic counters with
   accumulated wall-clock time, a per-run phase table, a per-shard sampling
   table, per-iteration time series ([Series]), a span/instant event
   recorder flushed to Chrome trace-event JSON ([Trace]), mergeable
   log-bucketed histograms ([Hist]) and leveled structured JSON logging
   ([Log]).

   The contract that keeps the off path free: instrumentation sites consult
   [enabled] (or [Trace.enabled]/[Series.enabled]/[Log.enabled]) once, when
   they BUILD their closures (plan compilation, chain construction, pool
   task creation) or once per top-level operation — never per tuple inside
   a hot loop.  With everything disabled the compiled closures are exactly
   the uninstrumented ones, so there is nothing to measure and nothing to
   branch on.

   Counter updates are plain word-sized writes into a per-(scope, domain)
   cell lane: each domain owns its lane, so concurrent [Eval.Pool] workers
   never contend and never lose increments — the daemon exports exact
   counts without an atomic RMW on the operator path.  Readers merge the
   lanes on demand; the merge is exact once writers have quiesced (domain
   joins and the pool's task hand-off publish the writes), which every
   reporting path guarantees.  The rarely-written tables are
   mutex-protected.  Trace buffers are single-writer (one per (scope, tid),
   and a tid is owned by whichever domain runs that shard's task), so span
   recording takes no lock either. *)

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* --- JSON ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  (* Escapes everything RFC 8259 requires: the quote, the backslash, and
     every control byte below 0x20 (with the usual short forms for \n, \r,
     \t, \b, \f).  Bytes >= 0x20 pass through untouched — relation-name
     derived strings are the common case and they are plain ASCII, but any
     byte sequence round-trips as the same byte sequence. *)
  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      (* NaN/inf are not JSON; they should never occur, but emit null rather
         than an unparseable token if they do. *)
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
      else Buffer.add_string b "null"
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ", ";
          write b x)
        xs;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          write b v)
        fields;
      Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 256 in
    write b t;
    Buffer.contents b

  let to_file path t =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (to_string t);
        output_char oc '\n')
end

(* --- histograms ------------------------------------------------------------

   One fixed geometric bucket grid shared by every histogram in the
   process: upper bounds grow by 2^(1/4) (~19% relative error bound) from
   1, deduplicated at the small end where rounding collapses steps, with a
   terminal +Inf overflow bucket.  Because the grid is a program constant,
   merging histograms is element-wise addition of bucket counts — exact,
   and independent of how the observations were sharded across domains or
   scrape intervals.  That is the property that lets shard-local
   histograms, per-request histograms and the daemon's cumulative families
   all add up without re-bucketing error. *)

module Hist = struct
  let bounds =
    let rec go acc v =
      let b = int_of_float (Float.round v) in
      let acc = match acc with b' :: _ when b' = b -> acc | _ -> b :: acc in
      if b > max_int / 2 then List.rev acc else go acc (v *. sqrt (sqrt 2.0))
    in
    Array.of_list (go [] 1.0)

  let overflow = Array.length bounds

  type t = {
    counts : int array; (* one slot per finite bound + the overflow slot *)
    mutable total : int;
    mutable sum : int;
  }

  let make () = { counts = Array.make (overflow + 1) 0; total = 0; sum = 0 }

  (* Smallest bucket whose upper bound covers [v]; bounds are sorted, so
     binary search with invariant bounds.(lo) < v <= bounds.(hi). *)
  let index v =
    if v <= bounds.(0) then 0
    else if v > bounds.(overflow - 1) then overflow
    else begin
      let lo = ref 0 and hi = ref (overflow - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if v <= bounds.(mid) then hi := mid else lo := mid
      done;
      !hi
    end

  let observe t v =
    let v = max 0 v in
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum + v

  let total t = t.total
  let sum t = t.sum

  let merge a b =
    let t = make () in
    Array.iteri (fun i n -> t.counts.(i) <- n + b.counts.(i)) a.counts;
    t.total <- a.total + b.total;
    t.sum <- a.sum + b.sum;
    t

  let equal a b = a.total = b.total && a.sum = b.sum && a.counts = b.counts

  (* The observation of rank ceil(q * total) sits in some bucket; its upper
     bound over-estimates the true order statistic by at most one bucket
     width (a factor 2^(1/4)).  Overflow observations report the last
     finite bound — a floor, clearly marked by the +Inf bucket count. *)
  let quantile t q =
    if t.total = 0 then 0
    else begin
      let rank = int_of_float (Float.ceil (q *. float_of_int t.total)) in
      let rank = max 1 (min t.total rank) in
      let i = ref 0 and cum = ref 0 in
      while !cum < rank do
        cum := !cum + t.counts.(!i);
        if !cum < rank then incr i
      done;
      bounds.(min !i (overflow - 1))
    end

  let cumulative t =
    let acc = ref [] and cum = ref 0 in
    Array.iteri
      (fun i n ->
        if n > 0 then begin
          cum := !cum + n;
          if i < overflow then acc := (Some bounds.(i), !cum) :: !acc
        end)
      t.counts;
    List.rev !acc @ [ (None, t.total) ]
end

(* --- monotone clock --------------------------------------------------------

   [gettimeofday] quantises around ~200ns at current epoch values — fine
   for operator executions that cost microseconds and up.  The wall clock
   can step backwards (NTP adjustments), which would turn span and sampled
   durations negative and corrupt the ×64-scaled estimates, so readings are
   clamped against a global high-water mark: [now_ns] is non-decreasing
   across all domains. *)

let last_ns = Atomic.make 0

let push_ns t =
  let rec settle () =
    let seen = Atomic.get last_ns in
    if t <= seen then seen
    else if Atomic.compare_and_set last_ns seen t then t
    else settle ()
  in
  settle ()

let now_ns () = push_ns (int_of_float (Unix.gettimeofday () *. 1e9))

(* Advance the high-water mark without consulting the wall clock: the tested
   equivalent of an NTP step forward.  Deadline arithmetic built on [now_ns]
   must stay monotone under any such latch. *)
let advance_ns n = ignore (push_ns (Atomic.get last_ns + max 0 n))

let ms_of_ns n = float_of_int n /. 1e6

(* The registry is a persistent map swapped atomically: lookups — which
   happen on every plan build, thousands of times in per-world evaluators —
   are lock-free; the mutex only serialises first registrations. *)
module SMap = Map.Make (String)

type shard = {
  shard : int;
  samples : int;
  hits : int;
  ms : float;
}

type series_observer = name:string -> shard:int -> it:int -> float -> unit

(* Trace events, defined outside the Trace module so scope buffers can hold
   them; re-exported as [Trace.event] with the same field names. *)
type tevent = {
  ph : char; (* 'B' | 'E' | 'X' | 'i' *)
  name : string;
  ts : int; (* ns since the scope's trace epoch *)
  dur : int; (* ns; complete ('X') events only *)
  tid : int;
  args : (string * int) list;
}

(* --- scopes ----------------------------------------------------------------

   Counters, phases, the shard table, series buffers and trace buffers live
   in a *scope* so a resident server can give each request its own arena:
   one tenant's operator ticks, series points or spans must not bleed into
   another tenant's stats report or trace export.  The default scope is
   process-global — every CLI path behaves exactly as before — and the
   current scope is domain-local state ([Domain.DLS]), which fits the
   server's session-per-domain shape: entering a scope on one domain never
   disturbs runs on another, and [Eval.Pool] workers enter the caller's
   scope per task.

   Counters are striped: each domain writes a private cell lane (2 slots
   per counter — count and sampled ns) and readers merge the lanes, so no
   increment is ever lost to a concurrent plain write.  A counter carries
   its dense registration index and its owning scope; the executing
   domain's lane for that scope is cached in domain-local storage, so the
   hot path is a DLS read, a physical-equality check and two array
   writes. *)

type counter = {
  c_name : string;
  c_id : int; (* dense registration index within c_scope *)
  c_scope : scope;
  mutable c_max : bool; (* lanes merge with max instead of sum *)
}

and lane = {
  l_dom : int;
  mutable l_cells : int array; (* 2 slots per counter id: count, ns *)
}

and sbuf = {
  sb_name : string;
  sb_shard : int;
  mutable sb_points : (int * float) array;
  mutable sb_len : int;
  mutable sb_dropped : int;
}

and tbuf = {
  tb_tid : int;
  tb_events : tevent array;
  mutable tb_len : int;
  mutable tb_dropped : int;
}

and scope = {
  on : bool Atomic.t;
  registry : counter SMap.t Atomic.t;
  registry_mu : Mutex.t; (* also guards next_id and the lane list *)
  mutable next_id : int;
  mutable lanes : lane list;
  mutable phase_rows : (string * float) list;
  phase_mu : Mutex.t;
  mutable shard_rows : shard list;
  shard_mu : Mutex.t;
  (* series state *)
  s_on : bool Atomic.t;
  s_table : (string * int, sbuf) Hashtbl.t;
  s_mu : Mutex.t;
  mutable s_observer : series_observer option;
  (* trace state *)
  t_on : bool Atomic.t;
  t_epoch : int Atomic.t;
  t_bufs : tbuf option array Atomic.t;
  t_mu : Mutex.t;
}

let make_scope () =
  {
    on = Atomic.make false;
    registry = Atomic.make SMap.empty;
    registry_mu = Mutex.create ();
    next_id = 0;
    lanes = [];
    phase_rows = [];
    phase_mu = Mutex.create ();
    shard_rows = [];
    shard_mu = Mutex.create ();
    s_on = Atomic.make false;
    s_table = Hashtbl.create 32;
    s_mu = Mutex.create ();
    s_observer = None;
    t_on = Atomic.make false;
    t_epoch = Atomic.make (now_ns ());
    t_bufs = Atomic.make [||];
    t_mu = Mutex.create ();
  }

let global_scope = make_scope ()
let scope_key = Domain.DLS.new_key (fun () -> global_scope)
let current_scope () = Domain.DLS.get scope_key

module Scope = struct
  type t = scope

  let make = make_scope
  let global = global_scope
  let current = current_scope

  let run s f =
    let prev = Domain.DLS.get scope_key in
    Domain.DLS.set scope_key s;
    Fun.protect ~finally:(fun () -> Domain.DLS.set scope_key prev) f
end

let enabled () = Atomic.get (current_scope ()).on
let set_enabled b = Atomic.set (current_scope ()).on b

let counter name =
  let sc = current_scope () in
  match SMap.find_opt name (Atomic.get sc.registry) with
  | Some c -> c
  | None ->
    with_lock sc.registry_mu (fun () ->
        match SMap.find_opt name (Atomic.get sc.registry) with
        | Some c -> c
        | None ->
          let c = { c_name = name; c_id = sc.next_id; c_scope = sc; c_max = false } in
          sc.next_id <- sc.next_id + 1;
          Atomic.set sc.registry (SMap.add name c (Atomic.get sc.registry));
          c)

(* --- lanes -----------------------------------------------------------------

   One lane per (scope, domain), created on first touch and cached in DLS
   keyed by physical scope identity.  Lane creation takes the registry
   mutex once per (scope, domain) pair; after that every increment is a
   plain write into the domain-private array.  Only the owning domain grows
   its lane, so the merge path's unsynchronised [l_cells] read sees at
   worst a superseded array with stale zeros — and reporting paths always
   run after the writers have quiesced (join / task hand-off), where the
   merge is exact. *)

let lane_key : (scope * lane) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let lane_for sc =
  match Domain.DLS.get lane_key with
  | Some (s, l) when s == sc -> l
  | _ ->
    let dom = (Domain.self () :> int) in
    let l =
      with_lock sc.registry_mu (fun () ->
          match List.find_opt (fun l -> l.l_dom = dom) sc.lanes with
          | Some l -> l
          | None ->
            let l = { l_dom = dom; l_cells = Array.make 16 0 } in
            sc.lanes <- l :: sc.lanes;
            l)
    in
    Domain.DLS.set lane_key (Some (sc, l));
    l

let cells_for c =
  let l = lane_for c.c_scope in
  let need = (2 * c.c_id) + 2 in
  let cells = l.l_cells in
  if Array.length cells >= need then cells
  else begin
    let bigger = Array.make (max need (2 * Array.length cells)) 0 in
    Array.blit cells 0 bigger 0 (Array.length cells);
    l.l_cells <- bigger;
    bigger
  end

let incr c =
  let cells = cells_for c in
  let i = 2 * c.c_id in
  cells.(i) <- cells.(i) + 1

let add c n =
  let cells = cells_for c in
  let i = 2 * c.c_id in
  cells.(i) <- cells.(i) + n

let record_max c n =
  if not c.c_max then c.c_max <- true;
  let cells = cells_for c in
  let i = 2 * c.c_id in
  if n > cells.(i) then cells.(i) <- n

let lane_get l i =
  let cells = l.l_cells in
  if i < Array.length cells then cells.(i) else 0

let sample_mask = 63 (* wrap1/wrap2 clock the calls whose tick lands on mask = 0 *)

(* Call under [c.c_scope.registry_mu].  The ns slot holds the clocked
   calls' unscaled time; a lane that ticked [v] times clocked
   ceil(v / 64) of them, so each clocked call stands for
   v / ceil(v / 64) calls. *)
let merge_lanes c =
  let cnt, tns =
    List.fold_left
      (fun (cnt, tns) l ->
        let v = lane_get l (2 * c.c_id) and t = lane_get l ((2 * c.c_id) + 1) in
        let timed = (v + sample_mask) / (sample_mask + 1) in
        ( (if c.c_max then max cnt v else cnt + v),
          if v = 0 then tns else tns +. (float_of_int t *. float_of_int v /. float_of_int timed) ))
      (0, 0.0) c.c_scope.lanes
  in
  (cnt, int_of_float tns)

let count c = fst (with_lock c.c_scope.registry_mu (fun () -> merge_lanes c))
let ns c = snd (with_lock c.c_scope.registry_mu (fun () -> merge_lanes c))

let count_of name =
  match SMap.find_opt name (Atomic.get (current_scope ()).registry) with
  | Some c -> count c
  | None -> 0

let ms_of name =
  match SMap.find_opt name (Atomic.get (current_scope ()).registry) with
  | Some c -> ms_of_ns (ns c)
  | None -> 0.0

let snapshot () =
  let sc = current_scope () in
  with_lock sc.registry_mu (fun () ->
      (* SMap.fold yields keys in order, so the rows come out name-sorted. *)
      SMap.fold
        (fun name c acc ->
          let n, t = merge_lanes c in
          if n = 0 && t = 0 then acc else (name, n, ms_of_ns t) :: acc)
        (Atomic.get sc.registry) []
      |> List.rev)

(* --- closure wrappers (the only sanctioned way to instrument hot paths) ---

   Ticks cost one plain increment per call.  Wall-clock is sampled: the
   lane-local tick's previous value selects 1-in-64 calls for timing, so
   the two clock reads — the expensive part, individual operator
   executions often cost less than the clock grain — amortise to ~1/64 of
   a call each.  The measured duration is stored unscaled and
   [merge_lanes] scales it by the calls each clocked call stands for, so
   an operator run 4 times reports 4 calls' worth, not 64.  Operator [ms]
   is therefore an estimate; [ticks] are exact always (each domain ticks
   its own lane) and phase times exact too.  The timing write re-resolves
   the cell array: [f] may itself register counters and grow this lane. *)

let wrap1 name f =
  if not (enabled ()) then f
  else begin
    let c = counter name in
    let i = 2 * c.c_id in
    fun x ->
      let cells = cells_for c in
      let k = cells.(i) in
      cells.(i) <- k + 1;
      if k land sample_mask = 0 then begin
        let t0 = now_ns () in
        let r = f x in
        let dur = max 0 (now_ns () - t0) in
        let cells = cells_for c in
        cells.(i + 1) <- cells.(i + 1) + dur;
        r
      end
      else f x
  end

let wrap2 name f =
  if not (enabled ()) then f
  else begin
    let c = counter name in
    let i = 2 * c.c_id in
    fun x y ->
      let cells = cells_for c in
      let k = cells.(i) in
      cells.(i) <- k + 1;
      if k land sample_mask = 0 then begin
        let t0 = now_ns () in
        let r = f x y in
        let dur = max 0 (now_ns () - t0) in
        let cells = cells_for c in
        cells.(i + 1) <- cells.(i + 1) + dur;
        r
      end
      else f x y
  end

(* --- current shard / trace thread id --------------------------------------

   Recording sites sit inside closures shared by every shard ([run_once],
   plan operators), so "which shard is this?" cannot be threaded as an
   argument without touching every signature on the hot path.  Instead
   [Eval.Pool] stamps the executing domain with the shard id of the task it
   is about to run; series points and trace events read it back.  Work
   stealing migrates *tasks* across domains, never a task mid-run, so the
   stamp is set per task, not per domain. *)

let tid_key = Domain.DLS.new_key (fun () -> 0)
let current_tid () = Domain.DLS.get tid_key
let set_tid t = Domain.DLS.set tid_key t

(* Wilson score interval at 95%: the sampler's running confidence band.
   Unlike the normal approximation it stays inside [0,1] and behaves at
   p-hat = 0/1, which early iterations always hit. *)
let wilson_interval ~hits ~total =
  if total <= 0 then (0.0, 1.0)
  else begin
    let z = 1.959963984540054 in
    let n = float_of_int total in
    let p = float_of_int hits /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = p +. (z2 /. (2.0 *. n)) in
    let half = z *. sqrt (((p *. (1.0 -. p)) +. (z2 /. (4.0 *. n))) /. n) in
    (* The exact bounds at p-hat = 0 (lower) and 1 (upper) are 0 and 1;
       pin them so rounding noise cannot push the point estimate outside
       its own interval. *)
    let lo = if hits = 0 then 0.0 else Float.max 0.0 ((centre -. half) /. denom) in
    let hi = if hits = total then 1.0 else Float.min 1.0 ((centre +. half) /. denom) in
    (lo, hi)
  end

(* --- per-iteration time series ---------------------------------------------

   Scoped like counters: a per-request scope gets its own table, so one
   session's progress points never interleave with another's. *)

module Series = struct
  let enabled () = Atomic.get (current_scope ()).s_on
  let set_enabled b = Atomic.set (current_scope ()).s_on b

  (* Points arrive rarely — every k-th sample, once per BFS level, once per
     fixpoint step — so a mutex per append is cheap next to the work between
     appends; the hot-path discipline lives at the recording sites, which
     latch [enabled] at closure-build time. *)
  let capacity = 65536

  type observer = series_observer

  let set_observer f =
    let sc = current_scope () in
    with_lock sc.s_mu (fun () -> sc.s_observer <- f)

  let add ?shard name ~it v =
    let sc = current_scope () in
    if Atomic.get sc.s_on then begin
      let shard = match shard with Some s -> s | None -> current_tid () in
      let notify =
        with_lock sc.s_mu (fun () ->
            let key = (name, shard) in
            let b =
              match Hashtbl.find_opt sc.s_table key with
              | Some b -> b
              | None ->
                let b =
                  { sb_name = name; sb_shard = shard; sb_points = Array.make 64 (0, 0.0);
                    sb_len = 0; sb_dropped = 0 }
                in
                Hashtbl.add sc.s_table key b;
                b
            in
            (if b.sb_len >= capacity then b.sb_dropped <- b.sb_dropped + 1
             else begin
               if b.sb_len = Array.length b.sb_points then begin
                 let bigger = Array.make (min capacity (2 * b.sb_len)) (0, 0.0) in
                 Array.blit b.sb_points 0 bigger 0 b.sb_len;
                 b.sb_points <- bigger
               end;
               b.sb_points.(b.sb_len) <- (it, v);
               b.sb_len <- b.sb_len + 1
             end);
            sc.s_observer)
      in
      (* Outside the lock: the observer may print, and a slow consumer must
         not serialise other shards' appends. *)
      match notify with None -> () | Some f -> f ~name ~shard ~it v
    end

  (* Rows sorted by (name, shard): the merge is a pure function of what was
     recorded, whatever order shards finished in — which is what makes
     fixed-seed series identical at any domain count. *)
  let merged () =
    let sc = current_scope () in
    let rows =
      with_lock sc.s_mu (fun () ->
          Hashtbl.fold
            (fun _ b acc -> (b.sb_name, b.sb_shard, Array.sub b.sb_points 0 b.sb_len) :: acc)
            sc.s_table [])
    in
    rows
    |> List.sort (fun (n1, s1, _) (n2, s2, _) ->
           match String.compare n1 n2 with 0 -> Int.compare s1 s2 | c -> c)
    |> List.map (fun (name, shard, pts) -> (name, shard, Array.to_list pts))

  let counts () =
    let totals =
      List.fold_left
        (fun acc (name, _, pts) ->
          let n = List.length pts in
          match SMap.find_opt name acc with
          | Some m -> SMap.add name (m + n) acc
          | None -> SMap.add name n acc)
        SMap.empty (merged ())
    in
    SMap.bindings totals

  let dropped () =
    let sc = current_scope () in
    with_lock sc.s_mu (fun () -> Hashtbl.fold (fun _ b acc -> acc + b.sb_dropped) sc.s_table 0)

  let reset () =
    let sc = current_scope () in
    with_lock sc.s_mu (fun () -> Hashtbl.reset sc.s_table)

  let json () =
    Json.Obj
      [ ("schema", Json.Str "probdb.series/1");
        ( "series",
          Json.List
            (List.map
               (fun (name, shard, pts) ->
                 Json.Obj
                   [ ("name", Json.Str name);
                     ("shard", Json.Int shard);
                     ( "points",
                       Json.List
                         (List.map (fun (it, v) -> Json.List [ Json.Int it; Json.Float v ]) pts)
                     )
                   ])
               (merged ())) );
        ("dropped", Json.Int (dropped ()))
      ]

  let write path = Json.to_file path (json ())
end

(* --- trace events -----------------------------------------------------------

   Scoped like counters and series: buffers hang off the current scope, so
   a per-request scope yields a tenant-clean trace — two concurrent daemon
   sessions record into disjoint buffer sets even at the same tid. *)

module Trace = struct
  let enabled () = Atomic.get (current_scope ()).t_on
  let set_enabled b = Atomic.set (current_scope ()).t_on b

  type event = tevent = {
    ph : char; (* 'B' | 'E' | 'X' | 'i' *)
    name : string;
    ts : int; (* ns since the scope's trace epoch *)
    dur : int; (* ns; complete ('X') events only *)
    tid : int;
    args : (string * int) list;
  }

  (* Timestamps are rebased to the scope's epoch (creation time, or the
     last [reset]): Chrome trace [ts] is microseconds and must survive a
     float round-trip in viewers, so epoch-sized values (~1.7e15 µs) would
     lose their low bits — run-relative ones fit comfortably. *)

  let capacity = 65536

  let dummy = { ph = 'i'; name = ""; ts = 0; dur = 0; tid = 0; args = [] }

  (* One buffer per (scope, tid), looked up through an atomically published
     array: the append path is a bounds check, a load and two plain writes
     — no lock, because a buffer has a single writer (the domain running
     that shard's task; flushes happen after the joins).  The mutex only
     guards growing the array and creating buffers. *)
  let install sc tid =
    with_lock sc.t_mu (fun () ->
        let a = Atomic.get sc.t_bufs in
        let a =
          if tid < Array.length a then a
          else begin
            let bigger = Array.make (max (tid + 1) (2 * max 1 (Array.length a))) None in
            Array.blit a 0 bigger 0 (Array.length a);
            bigger
          end
        in
        match a.(tid) with
        | Some b ->
          Atomic.set sc.t_bufs a;
          b
        | None ->
          let b = { tb_tid = tid; tb_events = Array.make capacity dummy; tb_len = 0; tb_dropped = 0 } in
          a.(tid) <- Some b;
          Atomic.set sc.t_bufs a;
          b)

  let buffer sc tid =
    let a = Atomic.get sc.t_bufs in
    if tid < Array.length a then match a.(tid) with Some b -> b | None -> install sc tid
    else install sc tid

  let record sc (ev : event) =
    let b = buffer sc ev.tid in
    (* Full buffers drop the *new* event and count it, instead of
       overwriting old ones: destructive wrap-around would orphan the E of
       any span whose B it ate, and a trace that silently loses its oldest
       spans misleads more than one that reports how much it dropped. *)
    if b.tb_len >= capacity then b.tb_dropped <- b.tb_dropped + 1
    else begin
      b.tb_events.(b.tb_len) <- ev;
      b.tb_len <- b.tb_len + 1
    end

  let ts_of sc t = max 0 (t - Atomic.get sc.t_epoch)

  let instant ?(args = []) ?tid name =
    let sc = current_scope () in
    if Atomic.get sc.t_on then begin
      let tid = match tid with Some t -> t | None -> current_tid () in
      record sc { ph = 'i'; name; ts = ts_of sc (now_ns ()); dur = 0; tid; args }
    end

  let begin_span ?(args = []) ?tid name =
    let sc = current_scope () in
    if Atomic.get sc.t_on then begin
      let tid = match tid with Some t -> t | None -> current_tid () in
      record sc { ph = 'B'; name; ts = ts_of sc (now_ns ()); dur = 0; tid; args }
    end

  let end_span ?tid name =
    let sc = current_scope () in
    if Atomic.get sc.t_on then begin
      let tid = match tid with Some t -> t | None -> current_tid () in
      record sc { ph = 'E'; name; ts = ts_of sc (now_ns ()); dur = 0; tid; args = [] }
    end

  (* [t0] is an absolute [now_ns] reading; the duration is clamped like
     every other delta so a clock step cannot produce a negative span. *)
  let complete ?(args = []) ?tid ~t0 ~dur name =
    let sc = current_scope () in
    if Atomic.get sc.t_on then begin
      let tid = match tid with Some t -> t | None -> current_tid () in
      record sc { ph = 'X'; name; ts = ts_of sc t0; dur = max 0 dur; tid; args }
    end

  let with_span ?(args = []) name f =
    if not (enabled ()) then f ()
    else begin
      let t0 = now_ns () in
      Fun.protect ~finally:(fun () -> complete ~args ~t0 ~dur:(now_ns () - t0) name) f
    end

  let events () =
    let a = Atomic.get (current_scope ()).t_bufs in
    let acc = ref [] in
    for t = Array.length a - 1 downto 0 do
      match a.(t) with
      | None -> ()
      | Some b ->
        (* Recording order is completion order, and a complete ('X') event
           carries its *start* timestamp — so a long span recorded after a
           short one would read out of order.  A stable per-tid sort by ts
           restores the timeline while leaving same-instant events (B/E
           pairs from back-to-back spans) in recording order. *)
        let tid_events = Array.sub b.tb_events 0 b.tb_len in
        let keyed = Array.mapi (fun i e -> (e.ts, i, e)) tid_events in
        Array.sort (fun (ts, i, _) (ts', i', _) -> Stdlib.compare (ts, i) (ts', i')) keyed;
        for i = Array.length keyed - 1 downto 0 do
          let _, _, e = keyed.(i) in
          acc := e :: !acc
        done
    done;
    !acc

  let dropped () =
    Array.fold_left
      (fun acc -> function None -> acc | Some b -> acc + b.tb_dropped)
      0
      (Atomic.get (current_scope ()).t_bufs)

  let reset () =
    let sc = current_scope () in
    with_lock sc.t_mu (fun () -> Atomic.set sc.t_bufs [||]);
    Atomic.set sc.t_epoch (now_ns ())

  (* Chrome trace-event JSON.  [ts]/[dur] are integer microseconds (the
     format's unit); [pid] and [tid] both carry the shard id, so Perfetto
     groups one track per shard. *)
  let json_of_event e =
    let base =
      [ ("name", Json.Str e.name);
        ("ph", Json.Str (String.make 1 e.ph));
        ("ts", Json.Int (e.ts / 1000));
        ("pid", Json.Int e.tid);
        ("tid", Json.Int e.tid)
      ]
    in
    let dur = if e.ph = 'X' then [ ("dur", Json.Int (max 0 e.dur / 1000)) ] else [] in
    let scope = if e.ph = 'i' then [ ("s", Json.Str "t") ] else [] in
    let args =
      if e.args = [] then []
      else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.args)) ]
    in
    Json.Obj (base @ dur @ scope @ args)

  (* Extra top-level keys are legal in the trace format (viewers ignore the
     ones they do not know), so the per-iteration series ride along in the
     same file: one artifact per run. *)
  let json () =
    Json.Obj
      [ ("traceEvents", Json.List (List.map json_of_event (events ())));
        ("displayTimeUnit", Json.Str "ms");
        ("series", Series.json ());
        ("dropped", Json.Int (dropped ()))
      ]

  let write path = Json.to_file path (json ())
end

(* --- structured logging ----------------------------------------------------

   One sink per process (a daemon has one log stream), installed once at
   startup — so unlike counters/series/trace the switch is global, and the
   default (no sink) costs a single atomic load per site latch.  Lines are
   complete JSON objects emitted under a mutex: concurrent session domains
   never interleave bytes mid-line. *)

module Log = struct
  type level = Debug | Info | Warn | Error

  let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
  let slug = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

  type sink = {
    s_min : int;
    s_emit : string -> unit;
  }

  let sink : sink option Atomic.t = Atomic.make None
  let sink_mu = Mutex.create ()

  let set_sink ?(level = Info) emit =
    Atomic.set sink
      (match emit with None -> None | Some e -> Some { s_min = severity level; s_emit = e })

  let enabled lvl =
    match Atomic.get sink with None -> false | Some s -> severity lvl >= s.s_min

  (* ISO-8601 UTC with milliseconds, derived from [now_ns] so log lines,
     spans and deadlines share one clock. *)
  let timestamp ns =
    let tm = Unix.gmtime (float_of_int ns /. 1e9) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
      (ns / 1_000_000 mod 1000)

  let log lvl event fields =
    match Atomic.get sink with
    | None -> ()
    | Some s when severity lvl < s.s_min -> ()
    | Some s ->
      let t = now_ns () in
      let line =
        Json.to_string
          (Json.Obj
             (("ts", Json.Str (timestamp t))
             :: ("ts_ns", Json.Int t)
             :: ("level", Json.Str (slug lvl))
             :: ("event", Json.Str event)
             :: fields))
      in
      with_lock sink_mu (fun () -> s.s_emit line)
end

(* --- phases --------------------------------------------------------------- *)

let add_phase name ms =
  let sc = current_scope () in
  with_lock sc.phase_mu (fun () ->
      let rec bump = function
        | [] -> [ (name, ms) ]
        | (n, acc) :: rest when String.equal n name -> (n, acc +. ms) :: rest
        | row :: rest -> row :: bump rest
      in
      sc.phase_rows <- bump sc.phase_rows)

(* Phases double as trace spans: a run with tracing but no [--stats] still
   gets its compile/evaluate/sample slices. *)
let phase name f =
  let on = enabled () in
  let tr = Trace.enabled () in
  if not (on || tr) then f ()
  else begin
    let t0 = now_ns () in
    let finally () =
      let dur = max 0 (now_ns () - t0) in
      if on then add_phase name (ms_of_ns dur);
      if tr then Trace.complete ~t0 ~dur name
    in
    Fun.protect ~finally f
  end

let phases () =
  let sc = current_scope () in
  with_lock sc.phase_mu (fun () -> sc.phase_rows)

(* --- shard table ----------------------------------------------------------- *)

let record_shard s =
  let sc = current_scope () in
  with_lock sc.shard_mu (fun () -> sc.shard_rows <- s :: sc.shard_rows)

let shards () =
  let sc = current_scope () in
  List.sort
    (fun a b -> Int.compare a.shard b.shard)
    (with_lock sc.shard_mu (fun () -> sc.shard_rows))

(* --- reset ----------------------------------------------------------------- *)

let reset () =
  let sc = current_scope () in
  with_lock sc.registry_mu (fun () ->
      List.iter (fun l -> Array.fill l.l_cells 0 (Array.length l.l_cells) 0) sc.lanes);
  with_lock sc.phase_mu (fun () -> sc.phase_rows <- []);
  with_lock sc.shard_mu (fun () -> sc.shard_rows <- [])
