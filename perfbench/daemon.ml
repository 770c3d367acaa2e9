(* daemon-mix: an open-loop load generator against a `probdbd serve` child
   over its Unix socket, on a fixed geometric ladder of offered rates.
   One process, two connections; each request is timed from when it was
   due to be sent, so a stall shows up in every request queued behind it. *)

open Common
module J = Obs.Json
module E = Eval.Engine

(* --- configuration (mirrored in perfbench/README.md) ------------------------- *)

let ladder = [| 100.; 200.; 400.; 800.; 1600.; 3200.; 6400. |]
let nominal = 3 (* index of the rung the latency metrics are taken at *)
let limit_ms = 20.0
let conns = 2

(* Seconds of offered load per rung, as a share of --seconds: the nominal
   rung gets the most so its tail rests on many samples.  The ladder takes
   half the run, the closed-loop phase the other half. *)
let rung_share i = if i = nominal then 0.2 else 0.3 /. float_of_int (Array.length ladder - 1)

(* Slices of the closed-loop phase, requests per slice, and how many are in
   flight. *)
let slices = 15
let slice_requests = 2000
let in_flight = 4

(* --- the traffic ------------------------------------------------------------- *)

type kind =
  | Hot of int  (* query by name over the loaded hot set *)
  | Cold  (* inline compile-heavy program, distinct per request *)
  | Load of int  (* journaled write of one of the load templates *)
  | Estimate

let kind_slug = function Hot _ -> "hot" | Cold -> "cold" | Load _ -> "load" | Estimate -> "estimate"

type req = {
  kind : kind;
  tag : string;  (* cold program tag or load name *)
  due_ns : int;  (* offset from the rung start *)
  line : string;
  mutable sent_ns : int;
  mutable recv_ns : int;
  mutable resp : string;
}

(* The hot set: eight tiny programs, four inflationary reachability queries
   over certain cycles and four exact walks on small complete graphs. *)
let hot_sources =
  Array.init 8 (fun i ->
      if i < 4 then
        let k = 4 + i in
        let b = Buffer.create 256 in
        List.iter
          (fun { Workload.Graphs.src; dst; _ } ->
            Buffer.add_string b (Printf.sprintf "e(h%dn%d, h%dn%d).\n" i src i dst))
          (Workload.Graphs.cycle k);
        Buffer.add_string b
          (Printf.sprintf "R(h%dn0) :- .\nR(Y) :- R(X), e(X, Y).\n?- R(h%dn%d).\n" i i (k / 2));
        (Buffer.contents b, E.Inflationary)
      else
        let k = 2 + (i mod 2) in
        let b = Buffer.create 256 in
        Buffer.add_string b "?C(Y) @W :- C(X), e(X, Y, W).\n";
        Buffer.add_string b (Printf.sprintf "C(h%dn0).\n" i);
        List.iter
          (fun { Workload.Graphs.src; dst; weight } ->
            Buffer.add_string b (Printf.sprintf "e(h%dn%d, h%dn%d, %d).\n" i src i dst weight))
          (Workload.Graphs.complete k);
        Buffer.add_string b (Printf.sprintf "?- C(h%dn%d).\n" i (k - 1));
        (Buffer.contents b, E.Noninflationary))

(* Loads write one of four small reachability programs under a fresh name. *)
let load_sources =
  Array.init 4 (fun i ->
      Printf.sprintf "e(l%d, m%d).\ne(m%d, t%d).\nR(l%d) :- .\nR(Y) :- R(X), e(X, Y).\n?- R(t%d).\n" i i
        i i i i)

let estimate_source = fst hot_sources.(5)
let estimate_params = [ ("eps", J.Float 0.1); ("delta", J.Float 0.1); ("burn_in", J.Int 3) ]
let semantics_slug = function E.Inflationary -> "inflationary" | E.Noninflationary -> "noninflationary"

let obj fields = J.to_string (J.Obj fields)

let request_line ~id ~tag ~seed = function
  | Hot h ->
    obj
      [ ("op", J.Str "query"); ("id", J.Str id); ("name", J.Str (Printf.sprintf "hot%d" h));
        ("semantics", J.Str (semantics_slug (snd hot_sources.(h)))); ("stats", J.Bool false) ]
  | Cold ->
    obj
      [ ("op", J.Str "query"); ("id", J.Str id); ("source", J.Str (Gen.copy_chain ~tag));
        ("stats", J.Bool false) ]
  | Load l ->
    obj [ ("op", J.Str "load"); ("id", J.Str id); ("name", J.Str tag); ("source", J.Str load_sources.(l)) ]
  | Estimate ->
    obj
      ([ ("op", J.Str "estimate"); ("id", J.Str id); ("source", J.Str estimate_source);
         ("semantics", J.Str "noninflationary"); ("seed", J.Int seed); ("stats", J.Bool false) ]
      @ estimate_params)

(* One block of 100 requests holds the mix exactly: 85 hot queries (the
   eight programs in turn), 10 cold programs, 4 loads and 1 estimate, in
   a seeded order. *)
let block rng =
  Array.concat
    [ Array.init 85 (fun i -> Hot (i mod 8)); Array.make 10 Cold; Array.init 4 (fun i -> Load i);
      [| Estimate |] ]
  |> Gen.shuffle rng

(* A rung's schedule: arrivals evenly spaced at [rate] for [secs], kinds
   from consecutive blocks.  [salt] keeps cold programs and load names
   distinct across rungs and runs of one daemon. *)
let schedule rng ~salt ~rate ~secs =
  let n = max 1 (int_of_float (rate *. secs)) in
  let kinds = Array.concat (List.init ((n / 100) + 1) (fun _ -> block rng)) in
  Array.init n (fun i ->
      let id = Printf.sprintf "%s-%d" salt i in
      let tag = Printf.sprintf "%s_%d" salt i in
      { kind = kinds.(i); tag; due_ns = int_of_float (float_of_int i /. rate *. 1e9);
        line = request_line ~id ~tag ~seed:(Random.State.bits rng) kinds.(i);
        sent_ns = 0; recv_ns = 0; resp = "" })

(* --- the connection event loop ------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  pending : req Queue.t;
}

let live_pids : int list ref = ref []

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := []

(* Every child still running when the benchmark exits, normally or not, is
   killed and reaped. *)
let () =
  at_exit kill_children;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ]

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exit code %d" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "signal %d" s

(* Connects, retrying while the freshly spawned daemon [pid] creates its
   socket; a daemon that exits first fails the run at once. *)
let connect ~pid sock =
  let deadline = now_ns () + 30_000_000_000 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
      Unix.set_nonblock fd;
      fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now_ns () < deadline ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _, status ->
         live_pids := List.filter (( <> ) pid) !live_pids;
         failwith (Printf.sprintf "probdbd exited (%s) before listening on %s" (describe_status status) sock));
      Unix.sleepf 0.002;
      go ()
  in
  { fd = go (); buf = Buffer.create 65536; pending = Queue.create () }

let chunk = Bytes.create 65536

(* Reads what is available on [c] and completes its oldest pending requests,
   one per response line (the protocol answers in order per connection). *)
let drain c now =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | 0 -> failwith "daemon closed the connection"
  | n ->
    Buffer.add_subbytes c.buf chunk 0 n;
    let s = Buffer.contents c.buf in
    (match String.rindex_opt s '\n' with
     | None -> ()
     | Some last ->
       Buffer.clear c.buf;
       Buffer.add_substring c.buf s (last + 1) (String.length s - last - 1);
       List.iter
         (fun line ->
           let r = Queue.pop c.pending in
           r.recv_ns <- now;
           r.resp <- line)
         (String.split_on_char '\n' (String.sub s 0 last)))

(* Waits up to [timeout] seconds (forever when negative) for responses on
   any connection, and for [c] to take more bytes when [writing]. *)
let wait ?writing cs timeout =
  let w = match writing with Some c -> [ c.fd ] | None -> [] in
  match Unix.select (List.map (fun c -> c.fd) cs) w [] timeout with
  | r, _, _ ->
    let now = now_ns () in
    List.iter (fun c -> if List.mem c.fd r then drain c now) cs
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Writes all of [s] to [c] without ever blocking: while the daemon's
   receive buffer is full, its responses are read, so neither side can
   wait on the other. *)
let send cs c s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    match Unix.write_substring c.fd s !off (n - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      wait ~writing:c cs (-1.0)
  done

let outstanding cs = List.fold_left (fun a c -> a + Queue.length c.pending) 0 cs

type rung_stats = {
  backlog_max : int;
  span_s : float;  (* first due to last response *)
}

(* Sends every request at its due time (to the connection with fewer
   requests outstanding) and collects every response.  With [window], due
   times are ignored and a closed loop keeps that many requests in flight. *)
let drive ?window cs reqs =
  let n = Array.length reqs in
  let start = now_ns () + 2_000_000 in
  let next = ref 0 and backlog_max = ref 0 in
  let ready now =
    match window with
    | Some w -> outstanding cs < w
    | None -> start + reqs.(!next).due_ns <= now
  in
  while !next < n || outstanding cs > 0 do
    let now = now_ns () in
    while !next < n && ready now do
      let r = reqs.(!next) in
      let c =
        List.fold_left
          (fun a b -> if Queue.length b.pending < Queue.length a.pending then b else a)
          (List.hd cs) cs
      in
      r.sent_ns <- now_ns ();
      Queue.push r c.pending;
      send cs c (r.line ^ "\n");
      incr next;
      backlog_max := max !backlog_max (outstanding cs)
    done;
    wait cs
      (if !next < n && window = None then
         Float.max 0.0 (float_of_int (start + reqs.(!next).due_ns - now_ns ()) /. 1e9)
       else 0.05)
  done;
  Array.iter
    (fun r ->
      r.sent_ns <- r.sent_ns - start;
      r.recv_ns <- r.recv_ns - start)
    reqs;
  let last = Array.fold_left (fun a r -> max a r.recv_ns) 0 reqs in
  { backlog_max = !backlog_max; span_s = float_of_int last /. 1e9 }

let latency_ms r = float_of_int (r.recv_ns - r.due_ns) /. 1e6
let lag_ms r = float_of_int (r.sent_ns - r.due_ns) /. 1e6

exception Refused of string

(* One synchronous request on an idle connection; a response that is not
   ok raises [Refused]. *)
let rpc c fields =
  let r = { kind = Cold; tag = ""; due_ns = 0; line = ""; sent_ns = 0; recv_ns = 0; resp = "" } in
  Queue.push r c.pending;
  send [ c ] c (obj fields ^ "\n");
  while Queue.length c.pending > 0 do
    wait [ c ] (-1.0)
  done;
  match Serve.Jsonr.parse r.resp with
  | J.Obj fs when List.assoc_opt "ok" fs = Some (J.Bool true) -> fs
  | _ -> raise (Refused r.resp)

(* --- answers ------------------------------------------------------------------ *)

let field k = function J.Obj fs -> List.assoc_opt k fs | _ -> None

(* The comparable part of a report: its "exact" and "probability" fields
   as the engine renders them (a float that prints as an integer parses
   back as one, so the rendered text is compared). *)
let answer_key report =
  let text k = match field k report with Some v -> J.to_string v | None -> "missing" in
  (text "exact", text "probability")

let reference ~source ~semantics ~method_ ~seed =
  let prep = E.prepare ~semantics ~method_ (Lang.Parser.parse source) in
  answer_key (E.json_of_report ~tool:"probdbd" (E.execute ~seed prep))

type refs = {
  hot : (string * string) array;
  cold : string * string;
  loads : (string * string) array;
}

let references () =
  { hot =
      Array.map
        (fun (source, semantics) -> reference ~source ~semantics ~method_:E.Exact ~seed:0)
        hot_sources;
    cold =
      reference ~source:(Gen.copy_chain ~tag:"ref") ~semantics:E.Inflationary ~method_:E.Exact
        ~seed:0;
    loads =
      Array.map
        (fun source -> reference ~source ~semantics:E.Inflationary ~method_:E.Exact ~seed:0)
        load_sources
  }

let estimate_method = E.Sampling { eps = 0.1; delta = 0.1; burn_in = 3 }

(* Verdict on one response: [`Ok elapsed_ms], [`Wrong], or [`Error code]. *)
let judge refs r =
  match Serve.Jsonr.parse r.resp with
  | exception Serve.Jsonr.Error m -> failwith ("unparseable response: " ^ m)
  | resp -> (
    match field "ok" resp with
    | Some (J.Bool true) -> (
      let elapsed = match field "elapsed_ms" resp with Some (J.Float f) -> f | Some (J.Int i) -> float_of_int i | _ -> 0.0 in
      let got = match field "report" resp with Some rep -> Some (answer_key rep) | None -> None in
      let expect =
        match r.kind with
        | Hot h -> Some refs.hot.(h)
        | Cold -> Some refs.cold
        | Load _ -> None
        | Estimate ->
          let seed = match Serve.Jsonr.parse r.line |> field "seed" with Some (J.Int s) -> s | _ -> 0 in
          Some
            (reference ~source:estimate_source ~semantics:E.Noninflationary
               ~method_:estimate_method ~seed)
      in
      match (r.kind, got, expect) with
      | Load _, _, _ -> `Ok elapsed
      | _, Some g, Some e when g = e -> `Ok elapsed
      | _ -> `Wrong)
    | _ ->
      `Error (match field "code" resp with Some (J.Str c) -> c | _ -> "unknown"))

(* --- the child process ---------------------------------------------------------- *)

type daemon = {
  pid : int;
  proc : string;  (* its /proc directory, for CPU and peak memory *)
  dir : string;
  cs : conn list;
}

let sock_of dir = Filename.concat dir "d.sock"
let log_of dir = Filename.concat dir "daemon.log"

(* The kernel keeps the first 15 bytes of an executable's name as comm. *)
let comm_of path =
  let b = Filename.basename path in
  if String.length b > 15 then String.sub b 0 15 else b

let spawn ~probdbd ~dir =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log = Unix.openfile (log_of dir) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process probdbd
      [| probdbd; "serve"; "--socket"; sock_of dir; "--state-dir"; Filename.concat dir "state" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  live_pids := pid :: !live_pids;
  let cs = List.init conns (fun _ -> connect ~pid (sock_of dir)) in
  { pid; proc = child_proc_dir pid ~comm:(comm_of probdbd); dir; cs }

let reap d signal =
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.cs;
  (try Unix.kill d.pid signal with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  live_pids := List.filter (( <> ) d.pid) !live_pids

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let ping d = ignore (rpc (List.hd d.cs) [ ("op", J.Str "ping"); ("id", J.Str "ping") ])

let query_fields d fields =
  let fs = rpc (List.hd d.cs) (("op", J.Str "query") :: ("id", J.Str "q") :: fields) in
  match List.assoc_opt "report" fs with
  | Some rep -> answer_key rep
  | None -> failwith "query response carries no report"

(* Set-up: a fresh daemon on an empty state directory, the hot set loaded
   (journaled), every hot program, one cold program and one estimate
   answered and checked once. *)
let start ~probdbd ~root ~refs i =
  let dir = Filename.concat root (Printf.sprintf "d%d" i) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let d = spawn ~probdbd ~dir in
  let c = List.hd d.cs in
  Array.iteri
    (fun h (source, _) ->
      ignore
        (rpc c
           [ ("op", J.Str "load"); ("id", J.Str "load"); ("name", J.Str (Printf.sprintf "hot%d" h));
             ("source", J.Str source) ]))
    hot_sources;
  Array.iteri
    (fun h (_, semantics) ->
      let got =
        query_fields d
          [ ("name", J.Str (Printf.sprintf "hot%d" h)); ("semantics", J.Str (semantics_slug semantics)) ]
      in
      if got <> refs.hot.(h) then fail_check "daemon answer for hot%d differs from the engine's" h)
    hot_sources;
  (* Fill the 64-entry plan cache with cold programs, so timing starts at
     its steady state. *)
  for k = 1 to 64 do
    if query_fields d [ ("source", J.Str (Gen.copy_chain ~tag:(Printf.sprintf "warm%d" k))) ] <> refs.cold
    then fail_check "daemon answer for the copy chain differs from the engine's"
  done;
  d

let stop d =
  reap d Sys.sigterm;
  rm_rf d.dir

(* --- metrics and stats documents ------------------------------------------------ *)

let num = function Some (J.Int i) -> float_of_int i | Some (J.Float f) -> f | _ -> 0.0

let metrics_doc d =
  match List.assoc_opt "metrics" (rpc (List.hd d.cs) [ ("op", J.Str "metrics"); ("id", J.Str "m") ]) with
  | Some doc -> doc
  | None -> failwith "metrics response carries no document"

let stats_doc d =
  match List.assoc_opt "stats" (rpc (List.hd d.cs) [ ("op", J.Str "stats"); ("id", J.Str "s") ]) with
  | Some doc -> doc
  | None -> failwith "stats response carries no document"

let family doc name =
  match field "families" doc with
  | Some (J.List fams) -> (
    match List.find_opt (fun f -> field "name" f = Some (J.Str name)) fams with
    | Some f -> (match field "rows" f with Some (J.List rows) -> rows | _ -> [])
    | None -> [])
  | _ -> []

(* (count, sum_ns) of a histogram family over all its rows. *)
let histo doc name =
  List.fold_left
    (fun (c, s) row -> (c +. num (field "count" row), s +. num (field "sum_ns" row)))
    (0.0, 0.0) (family doc name)

let scalar doc name = List.fold_left (fun acc row -> acc +. num (field "value" row)) 0.0 (family doc name)
let path doc keys = List.fold_left (fun acc k -> Option.bind acc (field k)) (Some doc) keys |> num

(* --- the run ---------------------------------------------------------------------- *)

type outcome = {
  mutable wrong : int;
  mutable errors : (string * int) list;  (* by code *)
  mutable acked : (string * int) list;  (* load name, template *)
}

type rung = {
  rate : float;
  reqs : req array;
  st : rung_stats;
  lat : float list;
  tail_ : tail;
  lag_tail : float;
  meets : bool;
}

let run_rung ?window ?conns d rng refs out ~salt ~rate ~secs =
  let reqs = schedule rng ~salt ~rate ~secs in
  let st = drive ?window (Option.value conns ~default:d.cs) reqs in
  Array.iter
    (fun r ->
      match judge refs r with
      | `Ok _ -> (
        match r.kind with
        | Load l -> out.acked <- (r.tag, l) :: out.acked
        | _ -> ())
      | `Wrong ->
        say "WRONG %s answer: %s" (kind_slug r.kind) r.resp;
        out.wrong <- out.wrong + 1
      | `Error code ->
        out.errors <-
          (code, 1 + Option.value ~default:0 (List.assoc_opt code out.errors))
          :: List.remove_assoc code out.errors)
    reqs;
  (* In a closed loop a request's latency is its round trip; on the
     schedule it runs from when the request was due. *)
  let lat_of = if window = None then latency_ms else fun r -> float_of_int (r.recv_ns - r.sent_ns) /. 1e6 in
  let lat = Array.to_list (Array.map lat_of reqs) in
  let t = tail lat in
  let lag_tail = (tail (Array.to_list (Array.map lag_ms reqs))).value in
  (* Meeting the limit also needs a backlog that does not grow: the last
     tenth of the rung must be served within the limit at its median. *)
  let n = Array.length reqs in
  let last = Array.to_list (Array.map latency_ms (Array.sub reqs (n - max 1 (n / 10)) (max 1 (n / 10)))) in
  let meets = t.value <= limit_ms && median last <= limit_ms in
  { rate; reqs; st; lat; tail_ = t; lag_tail; meets }

(* Replays query requests in process through the daemon's request path
   minus the socket: a 64-entry plan cache keyed like Serve.Request's,
   parse and prepare on a miss, then execute and render.  Gives the
   daemon-mix mix its lang/eval/render layer rows. *)
let replay reqs =
  let cache = Prob.Pplan.Cache.create ~capacity:64 "perfbench_replay" in
  let parse = ref 0.0 and prep = ref 0.0 and exec = ref 0.0 and render = ref 0.0 and total = ref 0.0 in
  let n = ref 0 in
  Array.iter
    (fun r ->
      let source, semantics, method_, seed =
        match r.kind with
        | Hot h -> (fst hot_sources.(h), snd hot_sources.(h), E.Exact, 0)
        | Cold -> (Gen.copy_chain ~tag:r.tag, E.Inflationary, E.Exact, 0)
        | Estimate -> (estimate_source, E.Noninflationary, estimate_method, 1)
        | Load _ -> ("", E.Inflationary, E.Exact, 0)
      in
      if source <> "" then begin
        let t0 = now_ns () in
        let spec = Serve.Request.make ~semantics ~method_ source in
        let prepared =
          Prob.Pplan.Cache.find_or_add cache (Serve.Request.fingerprint spec) (fun () ->
              let a = now_ns () in
              let parsed = Lang.Parser.parse source in
              let b = now_ns () in
              let p = E.prepare ~semantics ~method_ parsed in
              let c = now_ns () in
              parse := !parse +. ms_between a b;
              prep := !prep +. ms_between b c;
              p)
        in
        let t1 = now_ns () in
        let report = E.execute ~seed prepared in
        let t2 = now_ns () in
        ignore (J.to_string (E.json_of_report ~tool:"probdbd" report));
        let t3 = now_ns () in
        exec := !exec +. ms_between t1 t2;
        render := !render +. ms_between t2 t3;
        total := !total +. ms_between t0 t3;
        incr n
      end)
    reqs;
  let per x = x /. float_of_int (max 1 !n) in
  (per !parse, per !prep, per !exec, per !render, per !total)

let measure ~probdbd ~root ~seed ~seconds ~tiny ~trace =
  let rates = if tiny then [| 50.; 200. |] else ladder in
  let nominal = if tiny then 1 else nominal in
  let share i = if tiny then 0.5 else rung_share i in
  let refs = references () in
  let reps = ref 0 in
  let setup_s, d =
    timed_setup ~reps:setup_reps ~dispose:stop (fun () ->
        incr reps;
        start ~probdbd ~root ~refs !reps)
  in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let out = { wrong = 0; errors = []; acked = [] } in
  let salt i = Printf.sprintf "s%dr%d" seed i in
  (* Rungs above the nominal one send at most 2500 requests: past
     saturation more would only lengthen the drain. *)
  let secs i = if i <= nominal then seconds *. share i else Float.min (seconds *. share i) (2500.0 /. rates.(i)) in
  let rung i ~salt = run_rung d rng refs out ~salt ~rate:rates.(i) ~secs:(secs i) in
  (* Traced runs first replay the nominal rung without any polling: the
     baseline the tracing overhead is measured against. *)
  let baseline = if trace then Some (rung nominal ~salt:(salt 99)) else None in
  let s_start = if trace then Some (stats_doc d) else None in
  let docs = ref None in
  let rungs =
    Array.mapi
      (fun i _ ->
        if trace && i = nominal then begin
          let m0 = metrics_doc d in
          let r = rung i ~salt:(salt i) in
          docs := Some (m0, metrics_doc d);
          r
        end
        else rung i ~salt:(salt i))
      rates
  in
  (* The end-to-end figures come from a closed loop on one connection that
     keeps [in_flight] requests of the same mix outstanding, in [slices]
     slices, each figure the median of its per-slice values: the daemon is
     never idle, so a request's round trip is the daemon's own work and a
     short queue, not the wake-up latency of an idle machine, which swings
     too much on shared hardware to gate on. *)
  let steady =
    List.init slices (fun k ->
        let cpu0 = proc_cpu_s d.proc in
        let r =
          run_rung ~window:in_flight ~conns:[ List.hd d.cs ] d rng refs out
            ~salt:(Printf.sprintf "%sc%d" (salt 97) k)
            ~rate:1e6
            ~secs:(float_of_int (if tiny then 100 else slice_requests) /. 1e6)
        in
        (r, (proc_cpu_s d.proc -. cpu0) *. 1000.0 /. float_of_int (Array.length r.reqs)))
  in
  let mem = proc_hwm_mb d.proc in
  let answered =
    Array.fold_left (fun a r -> a + Array.length r.reqs) 0 rungs
    + List.fold_left (fun a (r, _) -> a + Array.length r.reqs) 0 steady
  in
  let nom = rungs.(nominal) and top = rungs.(Array.length rungs - 1) in
  say "daemon-mix: %d requests over %d rungs, latency limit %.0f ms at the tail" answered
    (Array.length rungs) limit_ms;
  say "  %8s %6s %9s %9s %8s %9s %8s %10s %s" "rate/s" "n" "p50 ms" "tail ms" "tail pct" "lag tail" "backlog"
    "answers/s" "meets";
  Array.iter
    (fun r ->
      say "  %8.0f %6d %9.3f %9.3f %8.2f %9.3f %8d %10.1f %b" r.rate (Array.length r.reqs) (median r.lat)
        r.tail_.value r.tail_.pct r.lag_tail r.st.backlog_max
        (float_of_int (Array.length r.reqs) /. r.st.span_s)
        r.meets)
    rungs;
  let max_rate =
    Array.fold_left (fun acc r -> if r.meets then Float.max acc r.rate else acc) 0.0 rungs
  in
  if not (rungs.(0).meets && not top.meets) then
    say "  WARNING: the ladder does not bracket the limit (lowest meets: %b, top meets: %b)"
      rungs.(0).meets top.meets;
  let loads =
    Array.to_list (Array.sub rungs 0 (nominal + 1))
    |> List.concat_map (fun r ->
           Array.to_list r.reqs
           |> List.filter (fun q -> match q.kind with Load _ -> true | _ -> false)
           |> List.map latency_ms)
  in
  (* The pre-crash journal counters, then SIGKILL and a restart on the same
     state directory: time to the first answered ping is the recovery time,
     and every acked load must answer as the engine does. *)
  let s_end = if trace then Some (stats_doc d) else None in
  let m_end = if trace then Some (metrics_doc d) else None in
  (* The daemon's GC gauges read the counters of the session domain that
     served the last query, so allocation per request is measured on one
     connection: a pipelined burst of the nominal mix between two metrics
     polls that follow a query on that same connection. *)
  let gc_words =
    if not trace then 0.0
    else begin
      let c = List.hd d.cs in
      ignore (query_fields d [ ("name", J.Str "hot0") ]);
      let m0 = metrics_doc d in
      let burst =
        schedule rng ~salt:(salt 98) ~rate:1e9 ~secs:3e-7
        |> Array.to_list
        |> List.filter (fun r -> match r.kind with Load _ -> false | _ -> true)
        |> Array.of_list
      in
      ignore (drive [ c ] burst);
      ignore (query_fields d [ ("name", J.Str "hot0") ]);
      let m1 = metrics_doc d in
      let queries = Array.length burst + 1 in
      (scalar m1 "probdb_gc_minor_words" -. scalar m0 "probdb_gc_minor_words") /. float_of_int queries
    end
  in
  let ping_ms =
    if not trace then 0.0
    else
      median
        (List.init 200 (fun _ ->
             let t0 = now_ns () in
             ping d;
             ms_between t0 (now_ns ())))
  in
  reap d Sys.sigkill;
  let t0 = now_ns () in
  let d2 = spawn ~probdbd ~dir:d.dir in
  ping d2;
  let recovery_ms = ms_between t0 (now_ns ()) in
  List.iter
    (fun (name, l) ->
      let answers =
        match query_fields d2 [ ("name", J.Str name) ] with
        | got -> got = refs.loads.(l)
        | exception Refused _ -> false
      in
      if not answers then begin
        say "WRONG: acked load %s does not answer after the restart" name;
        out.wrong <- out.wrong + 1
      end)
    out.acked;
  Array.iteri
    (fun h (_, semantics) ->
      if query_fields d2
           [ ("name", J.Str (Printf.sprintf "hot%d" h)); ("semantics", J.Str (semantics_slug semantics)) ]
         <> refs.hot.(h)
      then fail_check "hot%d answers differently after the restart" h)
    hot_sources;
  stop d2;
  let errors = List.fold_left (fun a (_, n) -> a + n) 0 out.errors in
  let refused = Option.value ~default:0 (List.assoc_opt Serve.Proto.code_capacity out.errors) in
  let failed = out.wrong + errors in
  let lt = tail loads in
  say "  set-up %.3f s; recovery %.2f ms replaying %d acked loads" setup_s recovery_ms
    (List.length out.acked);
  say "  load_p50_ms %.3f ms, load_tail_ms %.3f ms (p%.2f of %d, rungs <= nominal)" (median loads) lt.value
    lt.pct lt.samples;
  let rate_of (r, _) = float_of_int (Array.length r.reqs) /. r.st.span_s in
  let show f = String.concat " " (List.map (fun x -> Printf.sprintf "%.3f" (f x)) steady) in
  say "  closed loop, %d in flight on one connection, per slice of %d requests:" in_flight
    (Array.length (fst (List.hd steady)).reqs);
  say "    answers/s %s" (show rate_of);
  say "    p50 ms    %s" (show (fun (r, _) -> median r.lat));
  say "    tail ms   %s" (show (fun (r, _) -> r.tail_.value));
  say "    cpu ms    %s" (show snd);
  say "  max_rate_at_slo_rps %.0f 1/s; failed_ratio %.6f" max_rate
    (float_of_int failed /. float_of_int answered);
  List.iter (fun (code, n) -> say "  errors with code %s: %d" code n) out.errors;
  if not trace then begin
    emit "setup_s" "s" setup_s;
    let mid f = median (List.map f steady) in
    emit "answers_per_s" "1/s" (mid rate_of);
    emit "latency_p50_ms" "ms" (mid (fun (r, _) -> median r.lat));
    emit "latency_tail_ms" "ms" (mid (fun (r, _) -> r.tail_.value));
    emit "cpu_ms_per_answer" "ms" (mid snd);
    emit "mem_peak_mb" "MB" mem
  end
  else begin
    let m0, m1 = Option.get !docs in
    let s_start = Option.get s_start and s_end = Option.get s_end and m_end = Option.get m_end in
    (* Layer rows of the nominal rung's query requests: generator lag,
       everything outside the daemon's own timer (socket, JSON, session
       queue, admission), and the compile/eval histograms' means. *)
    let queries = Array.to_list nom.reqs |> List.filter (fun r -> match r.kind with Load _ -> false | _ -> true) in
    let elapsed r = match judge refs r with `Ok e -> e | _ -> 0.0 in
    let outside = List.map (fun r -> float_of_int (r.recv_ns - r.sent_ns) /. 1e6 -. elapsed r) queries in
    let mean_of f = mean (List.map f queries) in
    let hmean name =
      let c0, s0 = histo m0 name and c1, s1 = histo m1 name in
      if c1 > c0 then (s1 -. s0) /. (c1 -. c0) /. 1e6 else 0.0
    in
    let total = mean_of latency_ms and lag = mean_of lag_ms and out_ms = mean outside in
    let compile = hmean "probdb_request_compile_seconds" and evalm = hmean "probdb_request_eval_seconds" in
    set_layer "harness.gen_lag_ms" lag;
    set_layer "serve.outside_ms" out_ms;
    set_layer "serve.compile_ms" compile;
    set_layer "serve.eval_ms" evalm;
    set_layer "serve.unattributed_ms" (total -. lag -. out_ms -. compile -. evalm);
    set_layer "serve.latency_mean_ms" total;
    set_layer "serve.nominal_p50_ms" (median nom.lat);
    set_layer "serve.nominal_tail_ms" nom.tail_.value;
    set_layer "serve.outside_p50_ms" (median outside);
    set_layer "serve.outside_tail_ms" (tail outside).value;
    set_layer "serve.admission_wait_ms" (hmean "probdb_request_wait_seconds");
    set_layer "gc.minor_words_per_req" gc_words;
    let hits k = path s_end [ "plan_cache"; k ] -. path s_start [ "plan_cache"; k ] in
    set_layer "serve.request.plan_cache.hit_ratio" (hits "hits" /. Float.max 1.0 (hits "hits" +. hits "misses"));
    let jr k = path s_end [ "journal"; k ] -. path s_start [ "journal"; k ] in
    set_layer "serve.journal.fsyncs_per_load" (jr "fsyncs" /. Float.max 1.0 (jr "appended"));
    set_layer "serve.journal.compactions" (jr "compactions");
    set_layer "relational.value.intern_strings" (path s_end [ "intern"; "strings" ]);
    set_layer "gc.top_heap_words" (scalar m_end "probdb_gc_top_heap_words");
    set_layer "serve.refused" (float_of_int refused);
    set_layer "serve.errors" (float_of_int errors);
    set_layer "serve.client.ping_rtt_ms" ping_ms;
    set_layer "harness.gen_lag_tail_ms" (Array.fold_left (fun a r -> Float.max a r.lag_tail) 0.0 rungs);
    set_layer "harness.backlog_max" (float_of_int nom.st.backlog_max);
    let base = Option.get baseline in
    set_layer "harness.trace_overhead_pct" (100.0 *. ((mean nom.lat /. mean base.lat) -. 1.0));
    let parse, prep, exec, render, answer = replay nom.reqs in
    set_layer "lang.parser.ms" parse;
    set_layer "eval.engine.prepare.ms" prep;
    set_layer "eval.engine.execute.ms" exec;
    set_layer "render.ms" render;
    set_layer "unattributed.ms" (answer -. parse -. prep -. exec -. render);
    set_layer "harness.answer_ms" answer;
    set_layer "load_p50_ms" (median loads);
    set_layer "load_tail_ms" lt.value;
    set_layer "max_rate_at_slo_rps" max_rate;
    set_layer "recovery_ms" recovery_ms;
    set_layer "failed_ratio" (float_of_int failed /. float_of_int answered)
  end;
  (answered, failed, out.wrong = 0)

(* The last lines of every daemon log under [root], to standard error. *)
let dump_logs root =
  let dirs = try Sys.readdir root with Sys_error _ -> [||] in
  Array.sort compare dirs;
  Array.iter
    (fun d ->
      match In_channel.with_open_text (log_of (Filename.concat root d)) In_channel.input_all with
      | exception Sys_error _ -> ()
      | text ->
        let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
        let n = List.length lines in
        List.iteri (fun i l -> if i >= n - 20 then prerr_endline ("probdbd " ^ d ^ ": " ^ l)) lines)
    dirs

let run ~probdbd ~seed ~seconds ~tiny ~trace =
  if not (Sys.file_exists ".perfbench-run") then Unix.mkdir ".perfbench-run" 0o755;
  let root = Filename.concat ".perfbench-run" (string_of_int (Unix.getpid ())) in
  (* A run killed before its clean-up may have left this pid's directory. *)
  rm_rf root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () ->
      kill_children ();
      (try rm_rf root with Unix.Unix_error _ | Sys_error _ -> ());
      try Unix.rmdir ".perfbench-run" with Unix.Unix_error _ -> ())
  @@ fun () ->
  try measure ~probdbd ~root ~seed ~seconds ~tiny ~trace
  with e ->
    dump_logs root;
    raise e
