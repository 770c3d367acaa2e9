(* Tests for the Obs telemetry layer: the monotonic clock, JSON escaping
   round-tripped against a reference parser, Chrome trace-event format
   invariants, and Series merge determinism across domain counts. *)

module J = Obs.Json

(* --- reference JSON parser ---------------------------------------------- *)

(* Independent recursive-descent parser used to validate what [Obs.Json]
   emits — deliberately not sharing any code with the emitter.  Numbers with
   a '.', 'e' or 'E' parse as [Float], everything else as [Int]; [\uXXXX]
   escapes below 0x100 decode to the raw byte (the emitter only produces
   them for control bytes). *)
exception Parse_error of string

let parse_json (s : string) : J.t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let code =
             (hex s.[!pos] lsl 12) lor (hex s.[!pos + 1] lsl 8) lor (hex s.[!pos + 2] lsl 4)
             lor hex s.[!pos + 3]
           in
           pos := !pos + 4;
           if code < 0x100 then Buffer.add_char b (Char.chr code)
           else fail "non-byte \\u escape"
         | c -> fail (Printf.sprintf "bad escape \\%c" c));
        go ()
      | c when Char.code c < 0x20 -> fail "raw control byte in string"
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_num_char c =
      match c with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      J.Float (float_of_string tok)
    else J.Int (int_of_string tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" J.Null
    | Some 't' -> literal "true" (J.Bool true)
    | Some 'f' -> literal "false" (J.Bool false)
    | Some '"' -> J.Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        J.List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        J.List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        J.Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        J.Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let rec pp_json fmt (j : J.t) =
  match j with
  | J.Null -> Format.fprintf fmt "null"
  | J.Bool b -> Format.fprintf fmt "%b" b
  | J.Int i -> Format.fprintf fmt "%d" i
  | J.Float f -> Format.fprintf fmt "%g" f
  | J.Str s -> Format.fprintf fmt "%S" s
  | J.List xs ->
    Format.fprintf fmt "[%a]" (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp_json) xs
  | J.Obj fs ->
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.fprintf f "; ")
         (fun f (k, v) -> Format.fprintf f "%S: %a" k pp_json v))
      fs

let json_t = Alcotest.testable pp_json ( = )

let assoc_exn k = function
  | J.Obj fields ->
    (match List.assoc_opt k fields with
     | Some v -> v
     | None -> Alcotest.failf "missing key %S" k)
  | _ -> Alcotest.failf "not an object while looking for %S" k

(* --- clock ---------------------------------------------------------------- *)

let test_now_ns_monotone () =
  let prev = ref (Obs.now_ns ()) in
  for _ = 1 to 50_000 do
    let t = Obs.now_ns () in
    if t < !prev then Alcotest.failf "clock went backwards: %d after %d" t !prev;
    prev := t
  done

let test_durations_nonneg () =
  let was = Obs.enabled () in
  Obs.reset ();
  Obs.set_enabled true;
  (* > 64 applications so wrap1's 1-in-64 sampling clocks at least one. *)
  let f = Obs.wrap1 "test.wrapped" (fun x -> x + 1) in
  for i = 1 to 200 do
    ignore (f i)
  done;
  Obs.phase "test.phase" (fun () -> ignore (Sys.opaque_identity (Array.make 64 0)));
  Alcotest.(check int) "ticks exact" 200 (Obs.count_of "test.wrapped");
  if Obs.ms_of "test.wrapped" < 0.0 then
    Alcotest.failf "negative wrapped ms: %f" (Obs.ms_of "test.wrapped");
  (match List.assoc_opt "test.phase" (Obs.phases ()) with
   | None -> Alcotest.fail "phase not recorded"
   | Some ms -> if ms < 0.0 then Alcotest.failf "negative phase ms: %f" ms);
  Obs.reset ();
  Obs.set_enabled was

(* Fewer than 64 applications clock only the first, which stands for all of
   them, not for 64.  Each call sleeps longer than the one before, so the
   clocked first call is the shortest and the estimate (4 × the first) stays
   below the phase that holds all four. *)
let test_sampled_ms_within_phase () =
  let was = Obs.enabled () in
  Obs.reset ();
  Obs.set_enabled true;
  let f = Obs.wrap1 "test.few" (fun n -> Unix.sleepf (0.002 *. float_of_int n)) in
  Obs.phase "test.few_phase" (fun () -> List.iter f [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "ticks exact" 4 (Obs.count_of "test.few");
  let phase_ms =
    match List.assoc_opt "test.few_phase" (Obs.phases ()) with
    | Some ms -> ms
    | None -> Alcotest.fail "phase not recorded"
  in
  let op_ms = Obs.ms_of "test.few" in
  if op_ms > phase_ms then
    Alcotest.failf "operator %.3f ms exceeds its phase %.3f ms" op_ms phase_ms;
  if op_ms <= 0.0 then Alcotest.failf "operator ms not recorded: %.3f" op_ms;
  Obs.reset ();
  Obs.set_enabled was

(* --- JSON escaping -------------------------------------------------------- *)

let test_escape_corner_cases () =
  List.iter
    (fun s ->
      let round = parse_json (J.to_string (J.Str s)) in
      Alcotest.check json_t (Printf.sprintf "round-trip %S" s) (J.Str s) round)
    [ "";
      "plain";
      "\"";
      "\\";
      "\"\\\"";
      "\n\r\t\b\012";
      "\000\001\031";
      "a\"b\\c\nd";
      "h\xc3\xa9llo";  (* UTF-8 bytes pass through *)
      "trailing backslash \\";
      "/slashes//";
      String.init 32 Char.chr
    ]

let arb_byte_string =
  QCheck.string_gen_of_size (QCheck.Gen.int_bound 60) (QCheck.Gen.map Char.chr (QCheck.Gen.int_bound 255))

let escape_roundtrip =
  QCheck.Test.make ~name:"Json escaping round-trips arbitrary byte strings" ~count:500
    arb_byte_string (fun s -> parse_json (J.to_string (J.Str s)) = J.Str s)

(* Float-free values so round-trip equality is exact (the emitter prints
   floats with %.6g, which is lossy by design). *)
let arb_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun s -> J.Str s) (string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 20))
      ]
  in
  let tree =
    fix (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [ (3, leaf);
              (1, map (fun xs -> J.List xs) (list_size (int_bound 4) (self (depth - 1))));
              ( 1,
                map
                  (fun kvs -> J.Obj kvs)
                  (list_size (int_bound 4)
                     (pair (string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12))
                        (self (depth - 1)))) )
            ])
      2
  in
  QCheck.make ~print:(fun j -> J.to_string j) tree

let json_roundtrip =
  QCheck.Test.make ~name:"Json documents round-trip through the reference parser" ~count:300
    arb_json (fun j -> parse_json (J.to_string j) = j)

(* --- trace format --------------------------------------------------------- *)

let with_trace f =
  Obs.Trace.reset ();
  Obs.Series.reset ();
  Obs.Trace.set_enabled true;
  Obs.Series.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Series.set_enabled false;
      Obs.Trace.reset ();
      Obs.Series.reset ())
    f

let check_balanced_and_monotone events =
  (* Per tid: B/E obey stack discipline and close, ts never decreases, and
     the groups come out tid-ascending. *)
  let last_tid = ref min_int in
  let depth = ref 0 in
  let last_ts = ref 0 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.tid < !last_tid then
        Alcotest.failf "tid groups out of order: %d after %d" e.tid !last_tid;
      if e.tid > !last_tid then begin
        if !depth <> 0 then Alcotest.failf "unbalanced spans on tid %d" !last_tid;
        last_tid := e.tid;
        last_ts := 0
      end;
      if e.ts < !last_ts then
        Alcotest.failf "ts went backwards on tid %d: %d after %d" e.tid e.ts !last_ts;
      last_ts := e.ts;
      if e.ts < 0 then Alcotest.failf "negative ts %d" e.ts;
      if e.dur < 0 then Alcotest.failf "negative dur %d" e.dur;
      match e.ph with
      | 'B' -> incr depth
      | 'E' ->
        decr depth;
        if !depth < 0 then Alcotest.failf "E without B on tid %d" e.tid
      | 'X' | 'i' -> ()
      | c -> Alcotest.failf "unknown ph %c" c)
    events;
  if !depth <> 0 then Alcotest.failf "unbalanced spans on tid %d" !last_tid

let test_trace_spans_balanced () =
  with_trace (fun () ->
      Obs.Trace.begin_span "outer";
      Obs.Trace.instant "mark" ~args:[ ("k", 1) ];
      Obs.Trace.begin_span "inner";
      Obs.Trace.end_span "inner";
      Obs.Trace.end_span "outer";
      Obs.Trace.begin_span ~tid:3 "shard";
      Obs.Trace.instant ~tid:3 "tick";
      Obs.Trace.end_span ~tid:3 "shard";
      let t0 = Obs.now_ns () in
      Obs.Trace.complete ~tid:1 ~t0 ~dur:(Obs.now_ns () - t0) "done";
      let events = Obs.Trace.events () in
      Alcotest.(check int) "all events recorded" 9 (List.length events);
      check_balanced_and_monotone events)

let test_trace_json_shape () =
  with_trace (fun () ->
      Obs.Trace.with_span "work" (fun () -> Obs.Trace.instant "inside");
      Obs.Series.add "s" ~it:0 1.0;
      let doc = parse_json (J.to_string (Obs.Trace.json ())) in
      let events =
        match assoc_exn "traceEvents" doc with
        | J.List evs -> evs
        | _ -> Alcotest.fail "traceEvents is not a list"
      in
      Alcotest.(check int) "two events" 2 (List.length events);
      List.iter
        (fun ev ->
          (match assoc_exn "ph" ev with
           | J.Str ("B" | "E" | "X" | "i") -> ()
           | v -> Alcotest.failf "bad ph %s" (J.to_string v));
          (match assoc_exn "ts" ev with
           | J.Int ts when ts >= 0 -> ()
           | v -> Alcotest.failf "bad ts %s" (J.to_string v));
          (match (assoc_exn "pid" ev, assoc_exn "tid" ev) with
           | J.Int p, J.Int t when p = t -> ()
           | _ -> Alcotest.fail "pid <> tid");
          match assoc_exn "ph" ev with
          | J.Str "X" ->
            (match assoc_exn "dur" ev with
             | J.Int d when d >= 0 -> ()
             | v -> Alcotest.failf "bad dur %s" (J.to_string v))
          | J.Str "i" ->
            (match assoc_exn "s" ev with
             | J.Str "t" -> ()
             | v -> Alcotest.failf "bad instant scope %s" (J.to_string v))
          | _ -> ())
        events;
      match assoc_exn "schema" (assoc_exn "series" doc) with
      | J.Str "probdb.series/1" -> ()
      | v -> Alcotest.failf "bad series schema %s" (J.to_string v))

let test_trace_disabled_records_nothing () =
  Obs.Trace.reset ();
  Obs.Trace.begin_span "ghost";
  Obs.Trace.end_span "ghost";
  Obs.Trace.instant "ghost";
  Alcotest.(check int) "no events" 0 (List.length (Obs.Trace.events ()))

(* --- series determinism --------------------------------------------------- *)

let pool_run ~domains =
  Obs.Series.reset ();
  Obs.Series.set_enabled true;
  let rng = Random.State.make [| 11 |] in
  let hits =
    (Eval.Pool.run_samples ~domains ~samples:500 rng (fun rng -> Random.State.float rng 1.0 < 0.3))
      .Eval.Pool.hits
  in
  let merged = Obs.Series.merged () in
  Obs.Series.set_enabled false;
  Obs.Series.reset ();
  (hits, merged)

let test_pool_series_domain_independent () =
  let h1, m1 = pool_run ~domains:1 in
  let h2, m2 = pool_run ~domains:2 in
  let h4, m4 = pool_run ~domains:4 in
  Alcotest.(check int) "hits 1 vs 2 domains" h1 h2;
  Alcotest.(check int) "hits 1 vs 4 domains" h1 h4;
  if m1 = [] then Alcotest.fail "no series recorded";
  if m1 <> m2 then Alcotest.fail "merged series differ between 1 and 2 domains";
  if m1 <> m4 then Alcotest.fail "merged series differ between 1 and 4 domains"

let test_pool_series_estimates_sane () =
  Obs.Series.reset ();
  Obs.Series.set_enabled true;
  let rng = Random.State.make [| 5 |] in
  ignore (Eval.Pool.run_samples ~domains:2 ~samples:400 rng (fun rng -> Random.State.bool rng));
  let merged = Obs.Series.merged () in
  Obs.Series.set_enabled false;
  Obs.Series.reset ();
  let streams name = List.filter (fun (n, _, _) -> String.equal n name) merged in
  if streams "sampler.estimate" = [] then Alcotest.fail "no estimate streams";
  List.iter
    (fun (name, shard, points) ->
      ignore shard;
      if String.equal name "sampler.estimate" || String.equal name "sampler.ci_low"
         || String.equal name "sampler.ci_high"
      then
        List.iter
          (fun (it, v) ->
            if it <= 0 then Alcotest.failf "%s: non-positive iteration %d" name it;
            if v < 0.0 || v > 1.0 then Alcotest.failf "%s: value %f outside [0,1]" name v)
          points)
    merged

(* Interleaving streams' points in any cross-stream order yields the same
   merged view: merged sorts by (name, shard) and each stream keeps its own
   recording order, which we preserve by construction. *)
let series_merge_order_insensitive =
  let arb =
    QCheck.make
      ~print:QCheck.Print.(list (pair int (list int)))
      QCheck.Gen.(
        list_size (int_range 1 4)
          (pair (int_bound 3) (list_size (int_range 1 6) (int_bound 100))))
  in
  QCheck.Test.make ~name:"Series merge is insensitive to cross-stream interleaving" ~count:100
    arb (fun streams ->
      (* streams: (shard, values) — names derived from the index so streams
         are distinct even when shards collide. *)
      let streams =
        List.mapi (fun i (shard, vals) -> (Printf.sprintf "s%d" (i mod 2), shard, vals)) streams
      in
      let record_stream (name, shard, vals) =
        List.iteri (fun it v -> Obs.Series.add name ~shard ~it (float_of_int v)) vals
      in
      let sequential () =
        Obs.Series.reset ();
        Obs.Series.set_enabled true;
        List.iter record_stream streams;
        let m = Obs.Series.merged () in
        Obs.Series.set_enabled false;
        m
      in
      let interleaved () =
        Obs.Series.reset ();
        Obs.Series.set_enabled true;
        (* Round-robin across streams, preserving each stream's own order. *)
        let queues =
          List.map (fun (name, shard, vals) -> (name, shard, ref (List.mapi (fun i v -> (i, v)) vals)))
            streams
        in
        let progressed = ref true in
        while !progressed do
          progressed := false;
          List.iter
            (fun (name, shard, q) ->
              match !q with
              | [] -> ()
              | (it, v) :: rest ->
                q := rest;
                progressed := true;
                Obs.Series.add name ~shard ~it (float_of_int v))
            queues
        done;
        let m = Obs.Series.merged () in
        Obs.Series.set_enabled false;
        m
      in
      let a = sequential () in
      let b = interleaved () in
      Obs.Series.reset ();
      (* Same-key streams concatenate in recording order, so compare as
         per-key point multisets: sort each key's points. *)
      let canon m =
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun (name, shard, points) ->
            let key = (name, shard) in
            let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
            Hashtbl.replace tbl key (prev @ points))
          m;
        Hashtbl.fold (fun k v acc -> (k, List.sort compare v) :: acc) tbl []
        |> List.sort compare
      in
      canon a = canon b)

(* --- wilson interval ------------------------------------------------------ *)

let test_wilson_bounds () =
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    "degenerate total" (0.0, 1.0)
    (Obs.wilson_interval ~hits:0 ~total:0);
  List.iter
    (fun (hits, total) ->
      let lo, hi = Obs.wilson_interval ~hits ~total in
      let p = float_of_int hits /. float_of_int total in
      (* The algebra puts p inside [lo, hi] exactly; allow rounding slack at
         the clamped endpoints (hits = 0 or hits = total). *)
      if not (0.0 <= lo && lo <= p +. 1e-9 && p <= hi +. 1e-9 && hi <= 1.0) then
        Alcotest.failf "wilson(%d,%d) = (%f, %f) not bracketing %f" hits total lo hi p;
      if total > 1 && hi -. lo >= 1.0 then
        Alcotest.failf "wilson(%d,%d) interval degenerate" hits total)
    [ (0, 10); (5, 10); (10, 10); (1, 1); (0, 1); (50, 400); (399, 400) ]

let test_wilson_narrows () =
  let width ~total =
    let lo, hi = Obs.wilson_interval ~hits:(total / 2) ~total in
    hi -. lo
  in
  if not (width ~total:1000 < width ~total:10) then
    Alcotest.fail "interval did not narrow with more samples"

(* --- chain-level series --------------------------------------------------- *)

let test_chain_level_series () =
  with_trace (fun () ->
      (* Lazy random walk on Z/8: every state reaches every other, explored
         breadth-first from state 0 — several BFS levels. *)
      let step s =
        Prob.Dist.make ~compare:Int.compare
          [ (s, Bigq.Q.half); ((s + 1) mod 8, Bigq.Q.half) ]
      in
      let chain =
        Markov.Chain.of_step ~hash:Hashtbl.hash ~equal:Int.equal ~init:[ 0 ] ~step ()
      in
      Alcotest.(check int) "eight states" 8 (Markov.Chain.num_states chain);
      let merged = Obs.Series.merged () in
      let points name =
        match List.find_opt (fun (n, _, _) -> String.equal n name) merged with
        | Some (_, _, pts) -> pts
        | None -> Alcotest.failf "series %s missing" name
      in
      let frontier = points "chain.frontier" in
      let states = points "chain.states" in
      Alcotest.(check int) "one frontier point per level" (List.length states)
        (List.length frontier);
      let rec non_decreasing = function
        | (_, a) :: ((_, b) :: _ as rest) ->
          if b < a then Alcotest.fail "interned-state count decreased";
          non_decreasing rest
        | _ -> ()
      in
      non_decreasing states;
      (match List.rev states with
       | (_, last) :: _ ->
         Alcotest.(check (float 0.0)) "final states count" 8.0 last
       | [] -> Alcotest.fail "no state points");
      let levels =
        List.filter (fun (e : Obs.Trace.event) -> String.equal e.name "chain.level")
          (Obs.Trace.events ())
      in
      Alcotest.(check int) "instants mirror series" (List.length frontier) (List.length levels))

(* --- histograms ----------------------------------------------------------- *)

let bucket_factor = sqrt (sqrt 2.0)

let hist_of obs =
  let h = Obs.Hist.make () in
  List.iter (Obs.Hist.observe h) obs;
  h

(* Heavy-tailed non-negative observations spanning many decades of the
   bucket grid: uniform mantissa shifted by a random magnitude. *)
let arb_obs =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(
      list_size (int_range 1 200) (map2 (fun mag v -> v lsl mag) (int_bound 30) (int_bound 1000)))

let hist_merge_exact =
  QCheck.Test.make ~name:"Hist.merge of shard-local histograms = histogram of concatenation"
    ~count:200
    QCheck.(pair arb_obs (int_range 1 8))
    (fun (obs, shards) ->
      let parts = Array.make shards [] in
      List.iteri (fun i v -> parts.(i mod shards) <- v :: parts.(i mod shards)) obs;
      let merged =
        Array.fold_left (fun acc part -> Obs.Hist.merge acc (hist_of part)) (Obs.Hist.make ())
          parts
      in
      let whole = hist_of obs in
      Obs.Hist.equal merged whole
      && Obs.Hist.total merged = List.length obs
      && Obs.Hist.sum merged = Obs.Hist.sum whole
      && Obs.Hist.cumulative merged = Obs.Hist.cumulative whole)

let hist_quantile_bound =
  QCheck.Test.make ~name:"Hist.quantile within one bucket width of the true order statistic"
    ~count:200 arb_obs (fun obs ->
      let sorted = List.sort compare obs in
      let n = List.length sorted in
      let h = hist_of obs in
      List.for_all
        (fun q ->
          let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
          let true_v = List.nth sorted (rank - 1) in
          let est = Obs.Hist.quantile h q in
          (* The estimate is the upper bound of the true value's bucket:
             never below it, and at most one grid step (rounded) above. *)
          true_v <= est
          && float_of_int est <= (float_of_int (max true_v 1) *. bucket_factor) +. 1.0)
        [ 0.0; 0.5; 0.9; 0.95; 0.99; 1.0 ])

let hist_cumulative_shape =
  QCheck.Test.make ~name:"Hist.cumulative is monotone with a +Inf terminal" ~count:200 arb_obs
    (fun obs ->
      let h = hist_of obs in
      let rec check prev_bound prev_cum = function
        | [] -> false (* the +Inf entry is mandatory *)
        | [ (None, total) ] -> prev_cum <= total && total = Obs.Hist.total h
        | (Some b, c) :: rest -> prev_bound < b && prev_cum < c && check b c rest
        | (None, _) :: _ :: _ -> false
      in
      check min_int 0 (Obs.Hist.cumulative h))

let test_hist_empty () =
  let h = Obs.Hist.make () in
  Alcotest.(check int) "empty total" 0 (Obs.Hist.total h);
  Alcotest.(check int) "empty sum" 0 (Obs.Hist.sum h);
  Alcotest.(check int) "empty quantile" 0 (Obs.Hist.quantile h 0.99);
  (match Obs.Hist.cumulative h with
   | [ (None, 0) ] -> ()
   | c -> Alcotest.failf "empty cumulative has %d entries" (List.length c));
  Obs.Hist.observe h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Obs.Hist.sum h);
  Alcotest.(check int) "clamped observation counted" 1 (Obs.Hist.total h)

(* --- counters under concurrent writers ------------------------------------ *)

(* Four domains hammering the same scope's counters with no coordination:
   lane-striped cells mean no increment is ever lost — the merged totals
   are exact after the joins, the regression for the documented
   lost-increment race of the old shared-cell counters. *)
let test_counter_race_exact () =
  let scope = Obs.Scope.make () in
  Obs.Scope.run scope (fun () -> Obs.set_enabled true);
  let domains = 4 and per = 50_000 in
  let barrier = Atomic.make 0 in
  let worker i =
    Domain.spawn (fun () ->
        Obs.Scope.run scope (fun () ->
            Atomic.incr barrier;
            while Atomic.get barrier < domains do
              Domain.cpu_relax ()
            done;
            let ticks = Obs.counter "race.ticks" in
            let bytes = Obs.counter "race.bytes" in
            for _ = 1 to per do
              Obs.incr ticks;
              Obs.add bytes 3
            done;
            Obs.record_max (Obs.counter "race.hwm") (i + 1)))
  in
  let ds = List.init domains worker in
  List.iter Domain.join ds;
  Obs.Scope.run scope (fun () ->
      Alcotest.(check int) "no lost increments" (domains * per) (Obs.count_of "race.ticks");
      Alcotest.(check int) "adds exact" (domains * per * 3) (Obs.count_of "race.bytes");
      Alcotest.(check int) "record_max merges with max" domains (Obs.count_of "race.hwm"))

(* --- structured logging --------------------------------------------------- *)

let test_log_sink_and_levels () =
  let lines = ref [] in
  Obs.Log.set_sink ~level:Obs.Log.Warn (Some (fun l -> lines := l :: !lines));
  Alcotest.(check bool) "warn enabled" true (Obs.Log.enabled Obs.Log.Warn);
  Alcotest.(check bool) "error enabled" true (Obs.Log.enabled Obs.Log.Error);
  Alcotest.(check bool) "info filtered" false (Obs.Log.enabled Obs.Log.Info);
  Obs.Log.log Obs.Log.Debug "noise" [];
  Obs.Log.log Obs.Log.Info "noise" [];
  Obs.Log.log Obs.Log.Warn "slow" [ ("ms", J.Float 12.5) ];
  Obs.Log.log Obs.Log.Error "boom" [ ("corr", J.Str "abc-1") ];
  Obs.Log.set_sink None;
  Obs.Log.log Obs.Log.Error "after-close" [];
  Alcotest.(check bool) "cleared sink disables" false (Obs.Log.enabled Obs.Log.Error);
  let captured = List.rev !lines in
  Alcotest.(check int) "only at-or-above min level" 2 (List.length captured);
  List.iter2
    (fun line (lvl, event) ->
      let doc = parse_json line in
      Alcotest.check json_t "level" (J.Str lvl) (assoc_exn "level" doc);
      Alcotest.check json_t "event" (J.Str event) (assoc_exn "event" doc);
      (match assoc_exn "ts_ns" doc with
       | J.Int t when t > 0 -> ()
       | v -> Alcotest.failf "bad ts_ns %s" (J.to_string v));
      match assoc_exn "ts" doc with
      | J.Str ts ->
        if String.length ts <> 24 || ts.[4] <> '-' || ts.[10] <> 'T' || ts.[23] <> 'Z' then
          Alcotest.failf "ts not ISO-8601 UTC ms: %s" ts
      | v -> Alcotest.failf "ts not a string: %s" (J.to_string v))
    captured
    [ ("warn", "slow"); ("error", "boom") ];
  Alcotest.check json_t "custom field verbatim" (J.Str "abc-1")
    (assoc_exn "corr" (parse_json (List.nth captured 1)))

(* --- scopes --------------------------------------------------------------- *)

(* Two concurrent sessions (domains) running in their own scopes, ticking
   the same counter names in lockstep: each scope must see exactly its own
   counts and the global registry none of them — the regression for the
   process-global registry that bled stats between a resident server's
   tenants. *)
let test_scope_isolation () =
  Obs.reset ();
  let turn = Atomic.make 0 in
  let rounds = 200 in
  let session my_turn ticks =
    let scope = Obs.Scope.make () in
    Obs.Scope.run scope (fun () ->
        Obs.set_enabled true;
        for i = 0 to rounds - 1 do
          (* Strict alternation forces genuine interleaving of the two
             sessions' increments. *)
          while Atomic.get turn land 1 <> my_turn do
            Domain.cpu_relax ()
          done;
          for _ = 1 to ticks do
            Obs.incr (Obs.counter "tenant.requests")
          done;
          if i land 7 = 0 then Obs.phase (Printf.sprintf "round-%d" i) (fun () -> ());
          Atomic.incr turn
        done;
        (Obs.count_of "tenant.requests", List.length (Obs.phases ())))
  in
  let d1 = Domain.spawn (fun () -> session 0 1) in
  let d2 = Domain.spawn (fun () -> session 1 3) in
  let c1, p1 = Domain.join d1 in
  let c2, p2 = Domain.join d2 in
  Alcotest.(check int) "session 1 sees its own ticks" rounds c1;
  Alcotest.(check int) "session 2 sees its own ticks" (3 * rounds) c2;
  Alcotest.(check int) "session 1 phases" (rounds / 8) p1;
  Alcotest.(check int) "session 2 phases" (rounds / 8) p2;
  (* The calling domain still sits in the global scope: untouched. *)
  Alcotest.(check int) "global scope untouched" 0 (Obs.count_of "tenant.requests");
  Alcotest.(check int) "global phases untouched" 0 (List.length (Obs.phases ()))

(* Two interleaved sessions, each tracing in its own scope: the span-name
   sets must come out disjoint and the global scope empty — the regression
   for the process-global Trace/Series buffers that interleaved concurrent
   sessions' spans into one trace. *)
let test_scoped_trace_isolation () =
  let turn = Atomic.make 0 in
  let rounds = 100 in
  let session my_turn name =
    let scope = Obs.Scope.make () in
    Obs.Scope.run scope (fun () ->
        Obs.Trace.set_enabled true;
        Obs.Series.set_enabled true;
        for i = 0 to rounds - 1 do
          while Atomic.get turn land 1 <> my_turn do
            Domain.cpu_relax ()
          done;
          Obs.Trace.with_span name (fun () -> Obs.Trace.instant (name ^ ".tick"));
          Obs.Series.add (name ^ ".series") ~it:i (float_of_int i);
          Atomic.incr turn
        done;
        ( List.map (fun (e : Obs.Trace.event) -> e.name) (Obs.Trace.events ()),
          List.map (fun (n, _, _) -> n) (Obs.Series.merged ()) ))
  in
  let d1 = Domain.spawn (fun () -> session 0 "alice") in
  let d2 = Domain.spawn (fun () -> session 1 "bob") in
  let e1, s1 = Domain.join d1 in
  let e2, s2 = Domain.join d2 in
  Alcotest.(check int) "session 1 keeps all its events" (2 * rounds) (List.length e1);
  Alcotest.(check int) "session 2 keeps all its events" (2 * rounds) (List.length e2);
  let module SS = Set.Make (String) in
  Alcotest.(check bool) "span-name sets disjoint" true
    (SS.is_empty (SS.inter (SS.of_list e1) (SS.of_list e2)));
  Alcotest.(check bool) "session 1 sees only its spans" true
    (SS.subset (SS.of_list e1) (SS.of_list [ "alice"; "alice.tick" ]));
  Alcotest.(check bool) "session 2 sees only its spans" true
    (SS.subset (SS.of_list e2) (SS.of_list [ "bob"; "bob.tick" ]));
  Alcotest.(check (list string)) "session 1 series isolated" [ "alice.series" ] s1;
  Alcotest.(check (list string)) "session 2 series isolated" [ "bob.series" ] s2;
  Alcotest.(check int) "global trace untouched" 0 (List.length (Obs.Trace.events ()))

let test_scope_reset_is_scoped () =
  Obs.reset ();
  Obs.set_enabled true;
  Obs.incr (Obs.counter "outer.count");
  let scope = Obs.Scope.make () in
  Obs.Scope.run scope (fun () ->
      Obs.set_enabled true;
      Obs.incr (Obs.counter "inner.count");
      Obs.reset ();
      Alcotest.(check int) "inner reset clears inner" 0 (Obs.count_of "inner.count"));
  Alcotest.(check int) "inner reset leaves outer" 1 (Obs.count_of "outer.count");
  (* Scope.run restores the previous scope even on exceptions. *)
  (try
     Obs.Scope.run (Obs.Scope.make ()) (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "previous scope restored after raise" true
    (Obs.Scope.current () == Obs.Scope.global);
  Obs.set_enabled false;
  Obs.reset ()

(* --- run ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [ ( "clock",
        [ Alcotest.test_case "now_ns monotone" `Quick test_now_ns_monotone;
          Alcotest.test_case "durations non-negative" `Quick test_durations_nonneg;
          Alcotest.test_case "sampled ms within its phase" `Quick test_sampled_ms_within_phase
        ] );
      ( "json",
        [ Alcotest.test_case "escape corner cases" `Quick test_escape_corner_cases;
          QCheck_alcotest.to_alcotest escape_roundtrip;
          QCheck_alcotest.to_alcotest json_roundtrip
        ] );
      ( "trace",
        [ Alcotest.test_case "spans balanced, ts monotone" `Quick test_trace_spans_balanced;
          Alcotest.test_case "chrome trace shape" `Quick test_trace_json_shape;
          Alcotest.test_case "disabled records nothing" `Quick test_trace_disabled_records_nothing
        ] );
      ( "series",
        [ Alcotest.test_case "pool series domain-independent" `Slow
            test_pool_series_domain_independent;
          Alcotest.test_case "pool estimates within bounds" `Quick test_pool_series_estimates_sane;
          QCheck_alcotest.to_alcotest series_merge_order_insensitive
        ] );
      ( "wilson",
        [ Alcotest.test_case "bounds bracket the estimate" `Quick test_wilson_bounds;
          Alcotest.test_case "narrows with samples" `Quick test_wilson_narrows
        ] );
      ( "chain",
        [ Alcotest.test_case "per-level frontier series" `Quick test_chain_level_series ] );
      ( "hist",
        [ QCheck_alcotest.to_alcotest hist_merge_exact;
          QCheck_alcotest.to_alcotest hist_quantile_bound;
          QCheck_alcotest.to_alcotest hist_cumulative_shape;
          Alcotest.test_case "empty and clamped observations" `Quick test_hist_empty
        ] );
      ( "counters",
        [ Alcotest.test_case "4-domain hammer loses nothing" `Slow test_counter_race_exact ] );
      ( "log",
        [ Alcotest.test_case "sink capture, levels, JSON shape" `Quick test_log_sink_and_levels ] );
      ( "scopes",
        [ Alcotest.test_case "two sessions never bleed counters" `Quick test_scope_isolation;
          Alcotest.test_case "two sessions never bleed spans" `Quick test_scoped_trace_isolation;
          Alcotest.test_case "reset is scoped, exit restores" `Quick test_scope_reset_is_scoped
        ] )
    ]
