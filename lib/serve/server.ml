(* The probdbd server: a long-lived multi-tenant query daemon.  One
   accept loop; one Domain per connection (sessions need their own Obs
   scopes, which live in domain-local storage); a shared prepared-plan
   cache keyed by Request.fingerprint; per-tenant budgets with admission
   control; a (tenant, request-id) → Guard registry for cross-session
   cancellation; graceful SIGTERM shutdown with socket cleanup.

   The telemetry plane rides on the request boundary: every request gets
   a server-generated correlation id (echoed in the response, stamped
   into log lines and trace span args), and — when the plane is on — its
   latency recorded into the Telemetry registry per (tenant, class,
   outcome) with admission-wait/compile/eval sub-phases.  The plane is
   latched once per request ([t.tel] is an option): with it off the
   request path is the plain PR 8 one. *)

type addr =
  | Unix_sock of string
  | Tcp of string * int

type tenant_profile = {
  tp_name : string;
  tp_deadline_ms : float option;
  tp_batch_deadline_ms : float option;
  tp_state_budget : int option;
  tp_sample_budget : int option;
  tp_max_inflight : int;
  tp_fallback : bool;
}

let default_profile =
  { tp_name = "default";
    tp_deadline_ms = None;
    tp_batch_deadline_ms = None;
    tp_state_budget = Some Guard.default_state_budget;
    tp_sample_budget = None;
    tp_max_inflight = 8;
    tp_fallback = true
  }

(* "name,deadline_ms=500,state_budget=10000,max_inflight=2,fallback=false" *)
let profile_of_spec ~default spec =
  match String.split_on_char ',' spec with
  | [] | [ "" ] -> invalid_arg "empty tenant spec"
  | name :: settings ->
    List.fold_left
      (fun p setting ->
        match String.index_opt setting '=' with
        | None -> invalid_arg (Printf.sprintf "tenant setting %S is not KEY=VALUE" setting)
        | Some i ->
          let k = String.sub setting 0 i in
          let v = String.sub setting (i + 1) (String.length setting - i - 1) in
          let fl () =
            match float_of_string_opt v with
            | Some f -> f
            | None -> invalid_arg (Printf.sprintf "tenant setting %s: bad number %S" k v)
          in
          let int () =
            match int_of_string_opt v with
            | Some n -> n
            | None -> invalid_arg (Printf.sprintf "tenant setting %s: bad integer %S" k v)
          in
          (match k with
           | "deadline_ms" -> { p with tp_deadline_ms = Some (fl ()) }
           | "batch_deadline_ms" -> { p with tp_batch_deadline_ms = Some (fl ()) }
           | "state_budget" -> { p with tp_state_budget = Some (int ()) }
           | "sample_budget" -> { p with tp_sample_budget = Some (int ()) }
           | "max_inflight" -> { p with tp_max_inflight = int () }
           | "fallback" -> { p with tp_fallback = bool_of_string v }
           | _ -> invalid_arg (Printf.sprintf "unknown tenant setting %S" k)))
      { default with tp_name = name } settings

type config = {
  socket : addr;
  max_sessions : int;
  cache_capacity : int;
  default_tenant : tenant_profile;
  tenants : tenant_profile list;
  telemetry : bool;
  state_dir : string option;
  journal_compact_every : int;
  read_deadline_ms : float;
  max_frame : int;
}

let default_config socket =
  { socket;
    max_sessions = 64;
    cache_capacity = 64;
    default_tenant = default_profile;
    tenants = [];
    telemetry = true;
    state_dir = None;
    journal_compact_every = 64;
    read_deadline_ms = 10_000.;
    max_frame = 1 lsl 20
  }

type t = {
  cfg : config;
  sockaddr : Unix.sockaddr;
  listen_fd : Unix.file_descr;
  stop : bool Atomic.t;
  cache : Request.cache;
  programs_mu : Mutex.t;
  programs : (string * string, string) Hashtbl.t;  (* (tenant, name) -> source *)
  inflight_mu : Mutex.t;
  inflight : (string * string, Guard.t) Hashtbl.t;  (* (tenant, request id) *)
  tenant_mu : Mutex.t;
  tenant_inflight : (string, int) Hashtbl.t;
  tenant_served : (string, int) Hashtbl.t;
  sessions : int Atomic.t;
  served : int Atomic.t;
  conns_mu : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable workers : (unit Domain.t * bool Atomic.t) list;
  started_ns : int;
  tel : Telemetry.t option;
  corr_seq : int Atomic.t;
  journal : Journal.t option;
  fault : Guard.Fault.spec;
  (* Idempotency dedup: (tenant, idem key) → the response document already
     sent for that key, FIFO-bounded.  A retried request whose first
     attempt completed gets the stored response verbatim — same corr, same
     payload — instead of re-executing. *)
  idem_mu : Mutex.t;
  idem_tbl : (string * string, Obs.Json.t) Hashtbl.t;
  idem_order : (string * string) Queue.t;
}

let idem_capacity = 4096

(* A unix-socket path with no listener behind it (crashed server) is
   removed; a live listener is a hard error; anything else at the path is
   not ours to delete. *)
let cleanup_stale_socket path =
  if Sys.file_exists path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> `Live
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
      | exception Unix.Unix_error (e, _, _) -> `Other (Unix.error_message e)
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match verdict with
    | `Live -> failwith (Printf.sprintf "%s: a server is already listening" path)
    | `Stale ->
      prerr_endline (Printf.sprintf "probdbd: removing stale socket %s" path);
      (try Sys.remove path with Sys_error _ -> ())
    | `Gone -> ()
    | `Other msg -> failwith (Printf.sprintf "%s: cannot probe socket: %s" path msg)
  end

(* Every profile's budgets pass [Guard.make]'s domain check once, before
   the socket is bound: a bad flag or tenant spec stops the daemon at
   startup instead of failing each request. *)
let check_profile p =
  try
    ignore
      (Guard.make ?deadline_ms:p.tp_deadline_ms ?max_states:p.tp_state_budget
         ?max_samples:p.tp_sample_budget ());
    ignore (Guard.make ?deadline_ms:p.tp_batch_deadline_ms ())
  with Invalid_argument m -> failwith (Printf.sprintf "tenant %s: %s" p.tp_name m)

let create cfg =
  List.iter check_profile (cfg.default_tenant :: cfg.tenants);
  let sockaddr, fd =
    match cfg.socket with
    | Unix_sock path ->
      cleanup_stale_socket path;
      (Unix.ADDR_UNIX path, Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0)
    | Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (Unix.ADDR_INET (addr, port), fd)
  in
  (try Unix.bind fd sockaddr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd 64;
  let fault = Guard.Fault.of_env () in
  (* Durable state: open (and replay) the journal before accepting a
     single connection, so every session sees the recovered programs. *)
  let journal, replayed =
    match cfg.state_dir with
    | None -> (None, [])
    | Some dir ->
      let j, entries, _replay =
        Journal.open_ ~fault ~compact_every:cfg.journal_compact_every ~dir ()
      in
      (Some j, entries)
  in
  let programs = Hashtbl.create 16 in
  List.iter
    (fun (e : Journal.entry) ->
      Hashtbl.replace programs (e.Journal.tenant, e.Journal.name)
        e.Journal.source)
    replayed;
  { cfg;
    sockaddr;
    listen_fd = fd;
    stop = Atomic.make false;
    cache = Request.make_cache ~capacity:cfg.cache_capacity ();
    programs_mu = Mutex.create ();
    programs;
    inflight_mu = Mutex.create ();
    inflight = Hashtbl.create 16;
    tenant_mu = Mutex.create ();
    tenant_inflight = Hashtbl.create 8;
    tenant_served = Hashtbl.create 8;
    sessions = Atomic.make 0;
    served = Atomic.make 0;
    conns_mu = Mutex.create ();
    conns = [];
    workers = [];
    started_ns = Obs.now_ns ();
    tel = (if cfg.telemetry then Some (Telemetry.create ()) else None);
    corr_seq = Atomic.make 0;
    journal;
    fault;
    idem_mu = Mutex.create ();
    idem_tbl = Hashtbl.create 64;
    idem_order = Queue.create ()
  }

(* Correlation ids: a per-process tag (low bits of the start time, so two
   daemon generations never collide in merged logs) plus a dense sequence
   number.  The sequence number alone fits a trace span's integer args;
   the full string goes into responses and log lines. *)
let next_corr t =
  let seq = Atomic.fetch_and_add t.corr_seq 1 in
  (Printf.sprintf "%08x-%d" (t.started_ns land 0xffffffff) seq, seq)

let tenant_profile t name =
  match List.find_opt (fun p -> p.tp_name = name) t.cfg.tenants with
  | Some p -> p
  | None -> { t.cfg.default_tenant with tp_name = name }

(* --- request handling ----------------------------------------------------- *)

(* Per-tenant admission: at most [tp_max_inflight] concurrently executing
   queries per tenant; excess requests are refused immediately rather than
   queued, so one tenant cannot occupy every session domain. *)
let admit t prof f =
  let admitted =
    Mutex.protect t.tenant_mu (fun () ->
        let cur = Option.value ~default:0 (Hashtbl.find_opt t.tenant_inflight prof.tp_name) in
        if cur >= prof.tp_max_inflight then false
        else begin
          Hashtbl.replace t.tenant_inflight prof.tp_name (cur + 1);
          true
        end)
  in
  if not admitted then
    Error
      (Printf.sprintf "admission: tenant %S at capacity (%d requests in flight)"
         prof.tp_name prof.tp_max_inflight)
  else
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect t.tenant_mu (fun () ->
            let cur = Option.value ~default:0 (Hashtbl.find_opt t.tenant_inflight prof.tp_name) in
            Hashtbl.replace t.tenant_inflight prof.tp_name (max 0 (cur - 1))))
      (fun () -> Ok (f ()))

let resolve_source t tenant (q : Proto.query) =
  match (q.q_source, q.q_name) with
  | Some src, _ -> Ok src
  | None, Some name -> (
    match Mutex.protect t.programs_mu (fun () -> Hashtbl.find_opt t.programs (tenant, name)) with
    | Some src -> Ok src
    | None -> Error (Printf.sprintf "no program %S loaded for tenant %S" name tenant))
  | None, None -> Error "query needs \"source\" or \"name\""

let register_inflight t tenant id guard =
  Mutex.protect t.inflight_mu (fun () -> Hashtbl.replace t.inflight (tenant, id) guard)

let unregister_inflight t tenant id =
  Mutex.protect t.inflight_mu (fun () -> Hashtbl.remove t.inflight (tenant, id))

let run_query t ~tenant ~id ~corr ~corr_seq (q : Proto.query) =
  let prof = tenant_profile t tenant in
  let clazz = Proto.clazz_slug q.q_class in
  let t_recv = Obs.now_ns () in
  (* The telemetry latch: one option match per request.  With the plane
     off, [record] is a constant no-op and the path below is the plain
     uninstrumented one. *)
  let record ~outcome ~wait_ns ~compile_ns ~eval_ns ~cache_hit ~degraded =
    match t.tel with
    | None -> ()
    | Some tel ->
      Telemetry.record tel ~tenant ~clazz ~outcome
        ~total_ns:(max 0 (Obs.now_ns () - t_recv))
        ~wait_ns ~compile_ns ~eval_ns ~cache_hit ~degraded
  in
  let fail ~outcome ~code m =
    record ~outcome ~wait_ns:0 ~compile_ns:0 ~eval_ns:0 ~cache_hit:None ~degraded:false;
    Proto.error_response ~id ~corr ~code m
  in
  match resolve_source t tenant q with
  | Error m ->
    let code =
      if q.Proto.q_source = None && q.Proto.q_name <> None then
        Proto.code_not_found
      else Proto.code_bad_request
    in
    fail ~outcome:Telemetry.Errored ~code m
  | Ok source -> (
    match Proto.method_of_query q with
    | Error m -> fail ~outcome:Telemetry.Errored ~code:Proto.code_bad_request m
    | Ok method_ -> (
      let spec = { Request.source; semantics = q.q_semantics; method_ } in
      let deadline_ms =
        match q.q_class with
        | Proto.Interactive -> prof.tp_deadline_ms
        | Proto.Batch -> prof.tp_batch_deadline_ms
      in
      (* Always an active guard: budgets may all be absent, but cancel
         needs checkers in the hot loop. *)
      let guard =
        Guard.make ?deadline_ms ?max_states:prof.tp_state_budget
          ?max_samples:prof.tp_sample_budget ()
      in
      (* Degradation per request class: interactive work falls back to the
         sampler when an exact run blows the tenant's state budget (the
         client wants an answer now); batch work degrades to a partial
         report it can retry with room to spare. *)
      let on_budget =
        match q.q_class with
        | Proto.Interactive when prof.tp_fallback ->
          Eval.Engine.Fallback { eps = q.q_eps; delta = q.q_delta; burn_in = q.q_burn_in }
        | _ -> Eval.Engine.Degrade
      in
      match
        admit t prof (fun () ->
            let wait_ns = max 0 (Obs.now_ns () - t_recv) in
            register_inflight t tenant id guard;
            Fun.protect
              ~finally:(fun () -> unregister_inflight t tenant id)
              (fun () ->
                (* Every request runs in a fresh Obs scope: counters,
                   phases, series and trace buffers from concurrent
                   tenants never bleed into each other, and worker domains
                   spawned by the pool inherit this scope. *)
                let scope = Obs.Scope.make () in
                Obs.Scope.run scope (fun () ->
                    if q.q_stats then Obs.set_enabled true;
                    if q.q_trace then Obs.Trace.set_enabled true;
                    let t0 = Obs.now_ns () in
                    let prep, hit, compile_ns = Request.prepare_timed ~cache:t.cache spec in
                    let t1 = Obs.now_ns () in
                    let report =
                      Eval.Engine.execute ~seed:q.q_seed ?max_steps:q.q_max_steps
                        ?domains:q.q_domains ~guard ~on_budget ~stats:q.q_stats prep
                    in
                    let t2 = Obs.now_ns () in
                    let trace =
                      if not q.q_trace then None
                      else begin
                        (* The request as one enclosing span with the
                           correlation sequence in its args, so the
                           exported trace joins the response's "corr" and
                           the server's log line. *)
                        Obs.Trace.complete ~args:[ ("corr_seq", corr_seq) ] ~t0
                          ~dur:(t2 - t0) "request";
                        Some (Obs.Trace.json ())
                      end
                    in
                    (report, hit, Obs.ms_of_ns (t2 - t0), wait_ns, compile_ns,
                     max 0 (t2 - t1), trace))))
      with
      | Error m ->
        record ~outcome:Telemetry.Refused ~wait_ns:0 ~compile_ns:0 ~eval_ns:0
          ~cache_hit:None ~degraded:false;
        Proto.error_response ~id ~corr ~code:Proto.code_capacity m
      | Ok (report, hit, elapsed_ms, wait_ns, compile_ns, eval_ns, trace) ->
        Atomic.incr t.served;
        Mutex.protect t.tenant_mu (fun () ->
            let cur = Option.value ~default:0 (Hashtbl.find_opt t.tenant_served tenant) in
            Hashtbl.replace t.tenant_served tenant (cur + 1));
        let outcome =
          match report.Eval.Engine.outcome with
          | Eval.Engine.Complete -> Telemetry.Complete
          | Eval.Engine.Partial _ -> Telemetry.Partial
        in
        record ~outcome ~wait_ns ~compile_ns ~eval_ns ~cache_hit:(Some hit)
          ~degraded:(report.Eval.Engine.downgrade <> None);
        Proto.response ~id ~corr
          ([ ("tenant", Obs.Json.Str tenant);
             ("class", Obs.Json.Str clazz);
             ("cache", Obs.Json.Str (if hit then "hit" else "miss"));
             ("elapsed_ms", Obs.Json.Float elapsed_ms);
             ("report", Eval.Engine.json_of_report ~tool:"probdbd" report)
           ]
          @ match trace with None -> [] | Some tj -> [ ("trace", tj) ])
      | exception Request.Bad_request m ->
        fail ~outcome:Telemetry.Errored ~code:Proto.code_bad_request m
      | exception Eval.Engine.Engine_error m ->
        fail ~outcome:Telemetry.Errored ~code:Proto.code_eval m
      | exception Lang.Parser.Parse_error m ->
        fail ~outcome:Telemetry.Errored ~code:Proto.code_eval m
      | exception Lang.Datalog.Datalog_error m ->
        fail ~outcome:Telemetry.Errored ~code:Proto.code_eval m
      | exception Lang.Compile.Compile_error m ->
        fail ~outcome:Telemetry.Errored ~code:Proto.code_eval m
      | exception Prob.Ctable.Ctable_error m ->
        fail ~outcome:Telemetry.Errored ~code:Proto.code_eval m
      | exception Markov.Chain.Chain_error m ->
        fail ~outcome:Telemetry.Errored ~code:Proto.code_eval m))

let stats_response t ~id ~corr =
  let hits, misses, entries = Request.cache_stats t.cache in
  let strings, rationals = Relational.Value.Intern.stats () in
  let tenants =
    Mutex.protect t.tenant_mu (fun () ->
        let names =
          List.sort_uniq String.compare
            (Hashtbl.fold (fun k _ acc -> k :: acc) t.tenant_inflight []
            @ Hashtbl.fold (fun k _ acc -> k :: acc) t.tenant_served [])
        in
        List.map
          (fun name ->
            ( name,
              Obs.Json.Obj
                [ ( "inflight",
                    Obs.Json.Int
                      (Option.value ~default:0 (Hashtbl.find_opt t.tenant_inflight name)) );
                  ( "served",
                    Obs.Json.Int
                      (Option.value ~default:0 (Hashtbl.find_opt t.tenant_served name)) )
                ] ))
          names)
  in
  Proto.response ~id ~corr
    [ ( "stats",
        Obs.Json.Obj
          ([ ("uptime_ms", Obs.Json.Float (Obs.ms_of_ns (Obs.now_ns () - t.started_ns)));
            ("sessions", Obs.Json.Int (Atomic.get t.sessions));
            ("served", Obs.Json.Int (Atomic.get t.served));
            ( "plan_cache",
              Obs.Json.Obj
                [ ("hits", Obs.Json.Int hits);
                  ("misses", Obs.Json.Int misses);
                  ("entries", Obs.Json.Int entries)
                ] );
            ( "intern",
              Obs.Json.Obj
                [ ("strings", Obs.Json.Int strings); ("rationals", Obs.Json.Int rationals) ] );
            ("tenants", Obs.Json.Obj tenants)
           ]
          @
          match t.journal with
          | None -> []
          | Some j ->
            [ ( "journal",
                Obs.Json.Obj
                  (List.map (fun (k, v) -> (k, Obs.Json.Int v)) (Journal.stats j))
              )
            ]) )
    ]

let metrics_response t ~id ~corr =
  match t.tel with
  | None ->
    Proto.error_response ~id ~corr ~code:Proto.code_bad_request
      "metrics: telemetry plane is disabled"
  | Some tel ->
    let hits, misses, entries = Request.cache_stats t.cache in
    let inflight =
      Mutex.protect t.tenant_mu (fun () ->
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tenant_inflight [])
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let journal =
      match t.journal with None -> [] | Some j -> Journal.stats j
    in
    let doc, text =
      Telemetry.render tel ~journal
        ~uptime_ms:(Obs.ms_of_ns (Obs.now_ns () - t.started_ns))
        ~sessions:(Atomic.get t.sessions)
        ~served:(Atomic.get t.served)
        ~inflight ~cache:(hits, misses, entries) ()
    in
    Proto.response ~id ~corr [ ("metrics", doc); ("prometheus", Obs.Json.Str text) ]

let op_slug = function
  | Proto.Load _ -> "load"
  | Proto.Query _ -> "query"
  | Proto.Stats -> "stats"
  | Proto.Metrics -> "metrics"
  | Proto.Cancel _ -> "cancel"
  | Proto.Ping -> "ping"

(* Idempotency dedup table: FIFO-bounded, keyed (tenant, idem). *)
let idem_find t tenant key =
  Mutex.protect t.idem_mu (fun () -> Hashtbl.find_opt t.idem_tbl (tenant, key))

let idem_store t tenant key resp =
  Mutex.protect t.idem_mu (fun () ->
      let k = (tenant, key) in
      if not (Hashtbl.mem t.idem_tbl k) then begin
        Hashtbl.replace t.idem_tbl k resp;
        Queue.push k t.idem_order;
        if Queue.length t.idem_order > idem_capacity then
          Hashtbl.remove t.idem_tbl (Queue.pop t.idem_order)
      end)

let handle_line t line =
  let corr, corr_seq = next_corr t in
  let t0 = Obs.now_ns () in
  (* One structured log line per request, whatever the op or outcome —
     the latch is per request, so a sink installed mid-flight applies from
     the next request on. *)
  let finish ~id ~tenant ~op resp =
    if Obs.Log.enabled Obs.Log.Info then begin
      let fields = match resp with Obs.Json.Obj fs -> fs | _ -> [] in
      let ok =
        match List.assoc_opt "ok" fields with Some (Obs.Json.Bool b) -> b | _ -> false
      in
      let error =
        match List.assoc_opt "error" fields with
        | Some (Obs.Json.Str m) -> [ ("error", Obs.Json.Str m) ]
        | _ -> []
      in
      Obs.Log.log
        (if ok then Obs.Log.Info else Obs.Log.Warn)
        "request"
        ([ ("corr", Obs.Json.Str corr);
           ("id", Obs.Json.Str id);
           ("tenant", Obs.Json.Str tenant);
           ("op", Obs.Json.Str op);
           ("ok", Obs.Json.Bool ok);
           ("elapsed_ms", Obs.Json.Float (Obs.ms_of_ns (Obs.now_ns () - t0)))
         ]
        @ error)
    end;
    resp
  in
  match Proto.parse_request line with
  | Error m ->
    finish ~id:"" ~tenant:"" ~op:"parse"
      (Proto.error_response ~id:"" ~corr ~code:Proto.code_bad_request m)
  | Ok { Proto.id; tenant; idem; req } -> (
    (* Dedup first: a retried request whose first attempt already
       completed gets the stored response verbatim (same corr), without
       re-executing — the contract that makes client-side re-issue safe
       even for [load]. *)
    match
      match idem with None -> None | Some key -> idem_find t tenant key
    with
    | Some stored -> finish ~id ~tenant ~op:(op_slug req) stored
    | None ->
      let resp =
        (* No exception may escape a request: anything unexpected becomes
           a [code_internal] error response and the session loop lives on.
           The one deliberate exception is [Guard.Fault.Injected] — the
           chaos harness's simulated crash must propagate. *)
        try
          match req with
          | Proto.Load { name; source } -> (
          match
            try Ok (Lang.Parser.parse source) with
            | Lang.Parser.Parse_error m | Lang.Datalog.Datalog_error m -> Error m
            | Prob.Ctable.Ctable_error m -> Error m
          with
          | Error m -> Proto.error_response ~id ~corr ~code:Proto.code_eval m
          | Ok parsed -> (
            (* Durability: the record is framed, written and fsynced
               before the in-memory table changes and before the ack —
               an acked load is always recoverable, and a journal
               failure applies nothing. *)
            match
              match t.journal with
              | None -> Ok ()
              | Some j -> (
                try Ok (Journal.append j { Journal.tenant; name; source })
                with Journal.Error m -> Error m)
            with
            | Error m ->
              Proto.error_response ~id ~corr ~code:Proto.code_journal
                (Printf.sprintf "journal: %s" m)
            | Ok () ->
              Mutex.protect t.programs_mu (fun () ->
                  Hashtbl.replace t.programs (tenant, name) source);
              Proto.response ~id ~corr
                [ ("loaded", Obs.Json.Str name);
                  ("rules", Obs.Json.Int (List.length parsed.Lang.Parser.program));
                  ("facts", Obs.Json.Int (List.length parsed.Lang.Parser.facts))
                ]))
        | Proto.Query q -> run_query t ~tenant ~id ~corr ~corr_seq q
        | Proto.Stats -> stats_response t ~id ~corr
        | Proto.Metrics -> metrics_response t ~id ~corr
        | Proto.Cancel { target } ->
          let found =
            Mutex.protect t.inflight_mu (fun () ->
                match Hashtbl.find_opt t.inflight (tenant, target) with
                | Some g ->
                  Guard.cancel g;
                  true
                | None -> false)
          in
          Proto.response ~id ~corr [ ("cancelled", Obs.Json.Bool found) ]
        | Proto.Ping ->
          Proto.response ~id ~corr
            [ ("pong", Obs.Json.Bool true);
              ( "uptime_ms",
                Obs.Json.Float (Obs.ms_of_ns (Obs.now_ns () - t.started_ns)) )
            ]
        with
        | Guard.Fault.Injected _ as e -> raise e
        | e ->
          Proto.error_response ~id ~corr ~code:Proto.code_internal
            (Printf.sprintf "internal error: %s" (Printexc.to_string e))
      in
      (match idem with
       | Some key -> idem_store t tenant key resp
       | None -> ());
      finish ~id ~tenant ~op:(op_slug req) resp)

(* --- sessions ------------------------------------------------------------- *)

let track_conn t fd = Mutex.protect t.conns_mu (fun () -> t.conns <- fd :: t.conns)

let untrack_conn t fd =
  Mutex.protect t.conns_mu (fun () -> t.conns <- List.filter (fun c -> c != fd) t.conns)

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

type read_outcome =
  | RLine of string
  | REof
  | RToo_long
  | RTimed_out

(* Raw-fd line reader with a frame bound and a per-frame read deadline.
   The deadline clock starts at the first byte of a frame — an idle
   connection with an empty buffer blocks indefinitely, exactly like the
   channel reader it replaces; a connection that starts a line and stalls
   (slow loris) is timed out.  The frame bound caps the bytes a single
   request may occupy before the server answers [frame_too_large] and
   closes — no unbounded buffering, no resync attempt. *)
let make_reader fd ~max_frame ~deadline_ms =
  let chunk_len = 8192 in
  let chunk = Bytes.create chunk_len in
  let acc = Buffer.create 256 in
  let lines = Queue.create () in
  let drain_acc () =
    let s = Buffer.contents acc in
    match String.rindex_opt s '\n' with
    | None -> ()
    | Some last ->
      Buffer.clear acc;
      Buffer.add_substring acc s (last + 1) (String.length s - last - 1);
      List.iter
        (fun l -> Queue.push l lines)
        (String.split_on_char '\n' (String.sub s 0 last))
  in
  let pop () =
    let l = Queue.pop lines in
    if String.length l > max_frame then RToo_long else RLine l
  in
  fun () ->
    if not (Queue.is_empty lines) then pop ()
    else begin
      let started =
        ref (if Buffer.length acc > 0 then Some (Obs.now_ns ()) else None)
      in
      let rec loop () =
        if not (Queue.is_empty lines) then pop ()
        else if Buffer.length acc > max_frame then RToo_long
        else begin
          let timeout =
            match !started with
            | None -> -1.0 (* block: no partial frame, no deadline *)
            | Some t0 -> (deadline_ms -. Obs.ms_of_ns (Obs.now_ns () - t0)) /. 1e3
          in
          if !started <> None && timeout <= 0. then RTimed_out
          else
            match Unix.select [ fd ] [] [] timeout with
            | [], _, _ -> RTimed_out
            | _ -> (
              match Unix.read fd chunk 0 chunk_len with
              | 0 -> REof
              | n ->
                if !started = None then started := Some (Obs.now_ns ());
                Buffer.add_subbytes acc chunk 0 n;
                drain_acc ();
                loop ())
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        end
      in
      loop ()
    end

(* The response write path, with the serve-layer chaos faults injected
   exactly here: a delayed response sleeps first, a partial write sends a
   torn prefix and hangs up, a connection drop hangs up after the write —
   all downstream of request execution, so the server state a client
   observes after a fault is the committed one. *)
let deliver t ~written fd resp =
  (match Guard.Fault.resp_delay_ms t.fault with
   | Some ms -> Unix.sleepf (ms /. 1000.)
   | None -> ());
  let line = Obs.Json.to_string resp ^ "\n" in
  match Guard.Fault.partial_write t.fault with
  | Some after when !written >= after ->
    write_all fd (String.sub line 0 ((String.length line + 1) / 2));
    `Drop
  | _ ->
    write_all fd line;
    incr written;
    (match Guard.Fault.conn_drop t.fault with
     | Some after when !written >= after -> `Drop
     | _ -> `Ok)

let session t fd =
  let next_line =
    make_reader fd ~max_frame:t.cfg.max_frame
      ~deadline_ms:t.cfg.read_deadline_ms
  in
  let written = ref 0 in
  (try
     let continue = ref true in
     while !continue && not (Atomic.get t.stop) do
       match next_line () with
       | RLine "" -> ()
       | RLine line -> (
         match handle_line t line with
         | resp -> (
           match deliver t ~written fd resp with
           | `Ok -> ()
           | `Drop -> continue := false)
         | exception Guard.Fault.Injected _ ->
           (* Simulated crash: the connection dies without a response,
              exactly what a SIGKILL mid-request looks like from outside. *)
           continue := false)
       | REof -> continue := false
       | RToo_long ->
         ignore
           (deliver t ~written fd
              (Proto.error_response ~id:"" ~code:Proto.code_frame_too_large
                 (Printf.sprintf "frame exceeds %d bytes" t.cfg.max_frame)));
         continue := false
       | RTimed_out ->
         ignore
           (deliver t ~written fd
              (Proto.error_response ~id:"" ~code:Proto.code_timeout
                 (Printf.sprintf "read deadline (%.0f ms) expired mid-frame"
                    t.cfg.read_deadline_ms)));
         continue := false
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  untrack_conn t fd;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Atomic.decr t.sessions

let refuse fd msg =
  let oc = Unix.out_channel_of_descr fd in
  (try
     output_string oc (Obs.Json.to_string (Proto.error_response ~id:"" msg));
     output_char oc '\n';
     flush oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Join worker domains whose session has finished; called opportunistically
   from the accept loop so a long-lived daemon does not accumulate handles. *)
let reap t =
  let finished, live =
    Mutex.protect t.conns_mu (fun () ->
        let f, l = List.partition (fun (_, done_) -> Atomic.get done_) t.workers in
        t.workers <- l;
        (f, l))
  in
  ignore live;
  List.iter (fun (d, _) -> Domain.join d) finished

let shutdown t =
  if not (Atomic.exchange t.stop true) then begin
    (* Wake the accept loop with a throwaway connection; it observes the
       stop flag and exits. *)
    try
      let fd =
        Unix.socket (Unix.domain_of_sockaddr t.sockaddr) Unix.SOCK_STREAM 0
      in
      (try Unix.connect fd t.sockaddr with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()
    with Unix.Unix_error _ -> ()
  end

let serve_forever t =
  (* A client hanging up mid-response must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try
     while not (Atomic.get t.stop) do
       match Unix.accept t.listen_fd with
       | fd, _ ->
         if Atomic.get t.stop then (try Unix.close fd with Unix.Unix_error _ -> ())
         else if Atomic.get t.sessions >= t.cfg.max_sessions then
           refuse fd
             (Printf.sprintf "admission: server at capacity (%d sessions)" t.cfg.max_sessions)
         else begin
           Atomic.incr t.sessions;
           track_conn t fd;
           let done_ = Atomic.make false in
           let d =
             Domain.spawn (fun () ->
                 Fun.protect ~finally:(fun () -> Atomic.set done_ true) (fun () -> session t fd))
           in
           Mutex.protect t.conns_mu (fun () -> t.workers <- (d, done_) :: t.workers);
           reap t
         end
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     done
   with Unix.Unix_error _ when Atomic.get t.stop -> ());
  (* Drain: close the listener, nudge every live session off its blocking
     read, join all workers, remove the socket file. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Mutex.protect t.conns_mu (fun () ->
      List.iter
        (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        t.conns);
  let workers = Mutex.protect t.conns_mu (fun () ->
      let w = t.workers in
      t.workers <- [];
      w)
  in
  List.iter (fun (d, _) -> Domain.join d) workers;
  (match t.journal with Some j -> Journal.close j | None -> ());
  match t.cfg.socket with
  | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ()
