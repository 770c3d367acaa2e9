(* probdbd — resident multi-tenant query server speaking probdb.proto/3
   (newline-delimited JSON) over a unix or TCP socket.

     probdbd serve --socket /tmp/probdbd.sock
     probdbd serve --state-dir /var/lib/probdbd   # durable loads + replay
     probdbd serve --tcp 7411 --deadline-ms 500 --tenant 'ops,max_inflight=2'
     probdbd serve --log-json 2>requests.jsonl
     echo '{"op":"query","id":"1","source":"e(a). ?- e(a)."}' \
       | probdbd client --socket /tmp/probdbd.sock
     probdbd client --socket /tmp/probdbd.sock --retry --deadline-ms 2000
     probdbd top --socket /tmp/probdbd.sock --interval 2 *)

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string "probdbd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path to listen on (or connect to).")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Listen on (or connect to) 127.0.0.1:$(docv) instead of a unix socket.")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Host for --tcp.")

let addr_of socket tcp host =
  match tcp with
  | Some port -> Serve.Server.Tcp (host, port)
  | None -> Serve.Server.Unix_sock socket

let serve_cmd =
  let max_sessions_arg =
    Arg.(
      value & opt int 64
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Concurrent connections; further clients are refused with an error response.")
  in
  let cache_arg =
    Arg.(
      value & opt int 64
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Shared compiled-plan cache entries (FIFO eviction).")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-tenant deadline for interactive-class requests.")
  in
  let batch_deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "batch-deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-tenant deadline for batch-class requests.")
  in
  let state_budget_arg =
    Arg.(
      value & opt int Guard.default_state_budget
      & info [ "state-budget" ] ~docv:"N"
          ~doc:"Default per-tenant budget of states an exact method may explore.")
  in
  let sample_budget_arg =
    Arg.(
      value & opt (some int) None
      & info [ "sample-budget" ] ~docv:"N" ~doc:"Default per-tenant sample budget.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 8
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Admission control: concurrent queries per tenant; excess refused.")
  in
  let no_fallback_arg =
    Arg.(
      value & flag
      & info [ "no-fallback" ]
          ~doc:
            "Disable the default degradation for interactive requests (re-running a \
             budget-blown exact evaluation under the sampler); they return partial \
             reports like batch requests.")
  in
  let tenant_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "tenant" ] ~docv:"SPEC"
          ~doc:
            "Per-tenant profile overriding the defaults, e.g. \
             $(b,ops,deadline_ms=500,state_budget=10000,max_inflight=2,fallback=false). \
             Repeatable.")
  in
  let no_telemetry_arg =
    Arg.(
      value & flag
      & info [ "no-telemetry" ]
          ~doc:
            "Disable the telemetry plane: no per-request metrics are recorded and the \
             $(b,metrics) op returns an error.  The request path is the plain \
             uninstrumented one.")
  in
  let log_json_arg =
    Arg.(
      value & flag
      & info [ "log-json" ]
          ~doc:
            "Emit one structured JSON log line per request to stderr, carrying the \
             request's correlation id (the response's $(b,corr) field).")
  in
  let log_level_arg =
    Arg.(
      value
      & opt (enum [ ("debug", Obs.Log.Debug); ("info", Obs.Log.Info);
                    ("warn", Obs.Log.Warn); ("error", Obs.Log.Error) ])
          Obs.Log.Info
      & info [ "log-level" ] ~docv:"LEVEL" ~doc:"Minimum level for --log-json lines.")
  in
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Durable state directory: every $(b,load) is journaled (CRC-framed, \
             fsynced before the ack) and replayed on restart, so recovered \
             databases answer queries identically to the pre-crash server.")
  in
  let read_deadline_arg =
    Arg.(
      value & opt float 10_000.
      & info [ "read-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-frame read deadline, measured from a request's first byte; a \
             connection that stalls mid-frame is answered with a $(b,timeout) \
             error and closed.  Idle connections are unaffected.")
  in
  let max_frame_arg =
    Arg.(
      value & opt int (1 lsl 20)
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:
            "Largest accepted request line; longer frames get a \
             $(b,frame_too_large) error and the connection is closed.")
  in
  let serve socket tcp host max_sessions cache_capacity deadline_ms batch_deadline_ms
      state_budget sample_budget max_inflight no_fallback tenant_specs no_telemetry
      log_json log_level state_dir read_deadline_ms max_frame =
    let default_tenant =
      { Serve.Server.default_profile with
        tp_deadline_ms = deadline_ms;
        tp_batch_deadline_ms = batch_deadline_ms;
        tp_state_budget = Some state_budget;
        tp_sample_budget = sample_budget;
        tp_max_inflight = max_inflight;
        tp_fallback = not no_fallback
      }
    in
    match
      List.map (Serve.Server.profile_of_spec ~default:default_tenant) tenant_specs
    with
    | exception Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      1
    | tenants -> (
      let cfg =
        { Serve.Server.socket = addr_of socket tcp host;
          max_sessions;
          cache_capacity;
          default_tenant;
          tenants;
          telemetry = not no_telemetry;
          state_dir;
          journal_compact_every = 64;
          read_deadline_ms;
          max_frame
        }
      in
      if log_json then
        Obs.Log.set_sink ~level:log_level (Some (fun line -> prerr_endline line));
      match Serve.Server.create cfg with
      | exception Failure msg ->
        Format.eprintf "error: %s@." msg;
        1
      | exception Serve.Journal.Error msg ->
        Format.eprintf "error: state dir: %s@." msg;
        1
      | exception Unix.Unix_error (e, fn, arg) ->
        Format.eprintf "error: %s: %s %s@." fn (Unix.error_message e) arg;
        1
      | t ->
        let stop _ = Serve.Server.shutdown t in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        (match cfg.socket with
         | Serve.Server.Unix_sock path -> Format.eprintf "probdbd: listening on %s@." path
         | Serve.Server.Tcp (h, p) -> Format.eprintf "probdbd: listening on %s:%d@." h p);
        Obs.Log.log Obs.Log.Info "serve.start"
          [ ( "socket",
              Obs.Json.Str
                (match cfg.socket with
                 | Serve.Server.Unix_sock path -> path
                 | Serve.Server.Tcp (h, p) -> Printf.sprintf "%s:%d" h p) );
            ("telemetry", Obs.Json.Bool cfg.telemetry)
          ];
        Serve.Server.serve_forever t;
        Obs.Log.log Obs.Log.Info "serve.stop" [];
        Format.eprintf "probdbd: shut down@.";
        0)
  in
  let doc = "Run the resident query server (probdb.proto/3)." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket_arg $ tcp_arg $ host_arg $ max_sessions_arg $ cache_arg
      $ deadline_arg $ batch_deadline_arg $ state_budget_arg $ sample_budget_arg
      $ max_inflight_arg $ no_fallback_arg $ tenant_arg $ no_telemetry_arg
      $ log_json_arg $ log_level_arg $ state_dir_arg $ read_deadline_arg
      $ max_frame_arg)

let client_cmd =
  let wait_arg =
    Arg.(
      value & opt int 0
      & info [ "wait-ms" ] ~docv:"MS"
          ~doc:"Retry a refused/absent socket for up to $(docv) before giving up.")
  in
  let retry_arg =
    Arg.(
      value & flag
      & info [ "retry" ]
          ~doc:
            "Resilient mode: reconnect with jittered exponential backoff when the \
             server drops the connection, and re-issue idempotent ops \
             (query/estimate/stats/metrics/ping) automatically.  Every request \
             carries an idempotency key so a retry the server already answered is \
             deduplicated instead of re-executed.")
  in
  let retry_budget_arg =
    Arg.(
      value & opt float 5_000.
      & info [ "retry-budget-ms" ] ~docv:"MS"
          ~doc:"Total reconnect/re-issue budget per request in --retry mode.")
  in
  let client_deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request response deadline in --retry mode; expiry fails the \
                request with a timeout.")
  in
  let client socket tcp host wait_ms retry retry_budget_ms deadline_ms =
    let sockaddr =
      match addr_of socket tcp host with
      | Serve.Server.Unix_sock path -> Unix.ADDR_UNIX path
      | Serve.Server.Tcp (h, p) -> Unix.ADDR_INET (Unix.inet_addr_of_string h, p)
    in
    if retry then begin
      match
        Serve.Client.resilient_connect ?deadline_ms
          ~retry_budget_ms:(Float.max retry_budget_ms (float_of_int wait_ms))
          sockaddr
      with
      | exception Serve.Client.Unavailable m ->
        Format.eprintf "error: cannot connect: %s@." m;
        1
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "error: cannot connect: %s@." (Unix.error_message e);
        1
      | r ->
        let rc = ref 0 in
        let continue = ref true in
        while !continue do
          match input_line stdin with
          | "" -> ()
          | line -> (
            match Serve.Jsonr.parse_result line with
            | Error m ->
              Format.eprintf "error: request is not JSON: %s@." m;
              rc := 1
            | Ok j -> (
              match Serve.Client.resilient_rpc r j with
              | resp -> print_endline (Obs.Json.to_string resp)
              | exception Serve.Client.Timeout m
              | exception Serve.Client.Unavailable m ->
                Format.eprintf "error: %s@." m;
                rc := 1))
          | exception End_of_file -> continue := false
        done;
        Serve.Client.resilient_close r;
        !rc
    end
    else
      match Serve.Client.connect ~retry_ms:wait_ms sockaddr with
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "error: cannot connect: %s@." (Unix.error_message e);
        1
      | c ->
        let rc = ref 0 in
        (try
           let continue = ref true in
           while !continue do
             match input_line stdin with
             | "" -> ()
             | line -> print_endline (Serve.Client.rpc c line)
             | exception End_of_file -> continue := false
           done
         with End_of_file ->
           Format.eprintf "error: server closed the connection@.";
           rc := 1);
        Serve.Client.close c;
        !rc
  in
  let doc = "Send request lines from stdin to a running server, print responses." in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const client $ socket_arg $ tcp_arg $ host_arg $ wait_arg $ retry_arg
      $ retry_budget_arg $ client_deadline_arg)

(* --- top: live per-tenant metrics table ------------------------------------ *)

let jfield o k = match o with Obs.Json.Obj fs -> List.assoc_opt k fs | _ -> None

let jfloat = function
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int i) -> float_of_int i
  | _ -> 0.0

let jint = function
  | Some (Obs.Json.Int i) -> i
  | Some (Obs.Json.Float f) -> int_of_float f
  | _ -> 0

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period between metrics polls.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print a single snapshot without clearing the screen and exit.")
  in
  let wait_arg =
    Arg.(
      value & opt int 0
      & info [ "wait-ms" ] ~docv:"MS"
          ~doc:"Retry a refused/absent socket for up to $(docv) before giving up.")
  in
  let render ~once ~prev ~now_s doc =
    let server = jfield doc "server" in
    let uptime_s = jfloat (Option.bind server (fun s -> jfield s "uptime_ms")) /. 1e3 in
    let sessions = jint (Option.bind server (fun s -> jfield s "sessions")) in
    let served = jint (Option.bind server (fun s -> jfield s "served")) in
    let tenants = match jfield doc "tenants" with Some (Obs.Json.Obj fs) -> fs | _ -> [] in
    let b = Buffer.create 1024 in
    if not once then Buffer.add_string b "\027[2J\027[H";
    Buffer.add_string b
      (Printf.sprintf "probdbd top — uptime %.1fs  sessions %d  served %d\n\n" uptime_s
         sessions served);
    Buffer.add_string b
      (Printf.sprintf "%-12s %8s %8s %9s %9s %9s %7s %6s %8s\n" "TENANT" "Q/S" "INFLIGHT"
         "P50(MS)" "P95(MS)" "P99(MS)" "CACHE%" "DEGR" "REFUSED");
    List.iter
      (fun (name, row) ->
        let f k = jfield row k in
        let requests = jint (f "requests") in
        let qps =
          match Hashtbl.find_opt prev name with
          | Some (r0, t0) when now_s > t0 -> float_of_int (requests - r0) /. (now_s -. t0)
          | _ -> 0.0
        in
        Hashtbl.replace prev name (requests, now_s);
        let hits = jint (f "cache_hits") and misses = jint (f "cache_misses") in
        let cache_pct =
          if hits + misses = 0 then 0.0
          else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
        in
        Buffer.add_string b
          (Printf.sprintf "%-12s %8.1f %8d %9.2f %9.2f %9.2f %6.1f%% %6d %8d\n" name qps
             (jint (f "inflight")) (jfloat (f "p50_ms")) (jfloat (f "p95_ms"))
             (jfloat (f "p99_ms")) cache_pct (jint (f "degraded")) (jint (f "refused"))))
      tenants;
    if tenants = [] then Buffer.add_string b "(no requests recorded yet)\n";
    print_string (Buffer.contents b);
    flush stdout
  in
  let top socket tcp host wait_ms interval once =
    let sockaddr =
      match addr_of socket tcp host with
      | Serve.Server.Unix_sock path -> Unix.ADDR_UNIX path
      | Serve.Server.Tcp (h, p) -> Unix.ADDR_INET (Unix.inet_addr_of_string h, p)
    in
    match Serve.Client.connect ~retry_ms:wait_ms sockaddr with
    | exception Unix.Unix_error (e, _, _) ->
      Format.eprintf "error: cannot connect: %s@." (Unix.error_message e);
      1
    | c -> (
      let prev = Hashtbl.create 8 in
      let poll n =
        let fields =
          Serve.Client.rpc_fields c
            (Obs.Json.Obj
               [ ("op", Obs.Json.Str "metrics");
                 ("id", Obs.Json.Str (Printf.sprintf "top-%d" n))
               ])
        in
        match List.assoc_opt "metrics" fields with
        | Some doc -> render ~once ~prev ~now_s:(Unix.gettimeofday ()) doc
        | None -> failwith "response carries no \"metrics\" document"
      in
      try
        let rc =
          if once then (
            poll 0;
            0)
          else begin
            let n = ref 0 in
            while true do
              poll !n;
              Stdlib.incr n;
              Unix.sleepf (Float.max 0.1 interval)
            done;
            0
          end
        in
        Serve.Client.close c;
        rc
      with
      | Failure m ->
        Serve.Client.close c;
        Format.eprintf "error: %s@." m;
        1
      | End_of_file ->
        Serve.Client.close c;
        Format.eprintf "error: server closed the connection@.";
        1)
  in
  let doc = "Poll the metrics op and render a live per-tenant table." in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const top $ socket_arg $ tcp_arg $ host_arg $ wait_arg $ interval_arg $ once_arg)

let main =
  let doc = "resident probabilistic query server" in
  Cmd.group (Cmd.info "probdbd" ~version:"1.0.0" ~doc) [ serve_cmd; client_cmd; top_cmd ]

let () = exit (match Cmd.eval' main with 124 -> 2 | c -> c)
