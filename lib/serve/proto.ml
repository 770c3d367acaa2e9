(* probdb.proto/3 — the daemon's newline-delimited JSON protocol.  One
   request object per line in, one response object per line out.

   Rev 2 over rev 1: a "metrics" op (probdb.metrics/1 JSON + Prometheus
   text), a server-generated correlation id echoed as "corr" in every
   response, and an optional per-query "trace": true flag returning the
   request's Chrome trace document inline.

   Rev 3 over rev 2: a "ping" op (liveness probe), an optional client
   idempotency key "idem" on any request (the server deduplicates a
   retried request whose key it has already answered, returning the
   stored response verbatim), and a machine-readable "code" slug on
   error responses.  Rev-2 requests decode unchanged. *)

let schema = "probdb.proto/3"

type clazz =
  | Interactive
  | Batch

let clazz_slug = function
  | Interactive -> "interactive"
  | Batch -> "batch"

type query = {
  q_class : clazz;
  q_name : string option;
  q_source : string option;
  q_semantics : Eval.Engine.semantics;
  q_method : string;
  q_eps : float;
  q_delta : float;
  q_burn_in : int;
  q_steps : int;
  q_seed : int;
  q_domains : int option;
  q_max_states : int;
  q_max_steps : int option;
  q_stats : bool;
  q_trace : bool;
}

type request =
  | Load of {
      name : string;
      source : string;
    }
  | Query of query
  | Stats
  | Metrics
  | Cancel of { target : string }
  | Ping

type envelope = {
  id : string;
  tenant : string;
  idem : string option;
  req : request;
}

(* Error taxonomy (rev 3): every error response carries one of these
   machine-readable slugs next to the human-readable "error" text. *)
let code_bad_request = "bad_request"
let code_not_found = "not_found"
let code_capacity = "capacity"
let code_frame_too_large = "frame_too_large"
let code_timeout = "timeout"
let code_eval = "eval"
let code_journal = "journal"
let code_internal = "internal"

(* --- decoding ------------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let assoc = function
  | Obs.Json.Obj o -> o
  | _ -> bad "request must be a JSON object"

let opt_str o k =
  match List.assoc_opt k o with
  | None | Some Obs.Json.Null -> None
  | Some (Obs.Json.Str s) -> Some s
  | Some _ -> bad "field %S must be a string" k

let req_str o k =
  match opt_str o k with
  | Some s -> s
  | None -> bad "missing field %S" k

let opt_int o k =
  match List.assoc_opt k o with
  | None | Some Obs.Json.Null -> None
  | Some (Obs.Json.Int i) -> Some i
  | Some (Obs.Json.Float f) when Float.is_integer f -> Some (int_of_float f)
  | Some _ -> bad "field %S must be an integer" k

let opt_float o k =
  match List.assoc_opt k o with
  | None | Some Obs.Json.Null -> None
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | Some _ -> bad "field %S must be a number" k

let opt_bool o k =
  match List.assoc_opt k o with
  | None | Some Obs.Json.Null -> None
  | Some (Obs.Json.Bool b) -> Some b
  | Some _ -> bad "field %S must be a boolean" k

let dflt d = Option.value ~default:d

(* Defaults mirror the probdl CLI so a daemon query with only [source]
   behaves like [probdl run] with no flags. *)
let query_of o ~default_method =
  let q =
    { q_class =
        (match opt_str o "class" with
         | None | Some "interactive" -> Interactive
         | Some "batch" -> Batch
         | Some c -> bad "unknown class %S (interactive|batch)" c);
      q_name = opt_str o "name";
      q_source = opt_str o "source";
      q_semantics =
        (match opt_str o "semantics" with
         | None | Some "inflationary" | Some "inf" -> Eval.Engine.Inflationary
         | Some "noninflationary" | Some "noninf" -> Eval.Engine.Noninflationary
         | Some s -> bad "unknown semantics %S (inflationary|noninflationary)" s);
      q_method = dflt default_method (opt_str o "method");
      q_eps = dflt 0.05 (opt_float o "eps");
      q_delta = dflt 0.05 (opt_float o "delta");
      q_burn_in = dflt 200 (opt_int o "burn_in");
      q_steps = dflt 10_000 (opt_int o "steps");
      q_seed = dflt 0 (opt_int o "seed");
      q_domains = opt_int o "domains";
      q_max_states = dflt 100_000 (opt_int o "max_states");
      q_max_steps = opt_int o "max_steps";
      q_stats = dflt true (opt_bool o "stats");
      q_trace = dflt false (opt_bool o "trace")
    }
  in
  if q.q_name = None && q.q_source = None then bad "query needs \"source\" or \"name\"";
  q

let request_of_json j =
  try
    let o = assoc j in
    let id =
      match opt_str o "id" with
      | Some i -> i
      | None -> bad "missing field \"id\""
    in
    let tenant = dflt "default" (opt_str o "tenant") in
    let idem = opt_str o "idem" in
    let req =
      match opt_str o "op" with
      | Some "load" -> Load { name = req_str o "name"; source = req_str o "source" }
      | Some "query" -> Query (query_of o ~default_method:"exact")
      | Some "estimate" -> Query (query_of o ~default_method:"sample")
      | Some "stats" -> Stats
      | Some "metrics" -> Metrics
      | Some "cancel" -> Cancel { target = req_str o "target" }
      | Some "ping" -> Ping
      | Some op ->
          bad "unknown op %S (load|query|estimate|stats|metrics|cancel|ping)" op
      | None -> bad "missing field \"op\""
    in
    Ok { id; tenant; idem; req }
  with Bad m -> Error m

let parse_request line =
  match Jsonr.parse_result line with
  | Error m -> Error m
  | Ok j -> request_of_json j

let method_of_query q =
  match q.q_method with
  | "exact" -> Ok Eval.Engine.Exact
  | "sample" ->
    Ok (Eval.Engine.Sampling { eps = q.q_eps; delta = q.q_delta; burn_in = q.q_burn_in })
  | "partitioned" -> Ok Eval.Engine.Exact_partitioned
  | "time-average" ->
    Ok (Eval.Engine.Time_average { steps = q.q_steps; burn_in = q.q_burn_in })
  | m -> Error (Printf.sprintf "unknown method %S (exact|sample|partitioned|time-average)" m)

(* --- encoding ------------------------------------------------------------- *)

let corr_field = function
  | None -> []
  | Some c -> [ ("corr", Obs.Json.Str c) ]

let response ~id ?corr fields =
  Obs.Json.Obj
    (("schema", Obs.Json.Str schema)
     :: ("id", Obs.Json.Str id)
     :: ("ok", Obs.Json.Bool true)
     :: (corr_field corr @ fields))

let error_response ~id ?corr ?code msg =
  let code_field =
    match code with None -> [] | Some c -> [ ("code", Obs.Json.Str c) ]
  in
  Obs.Json.Obj
    (("schema", Obs.Json.Str schema)
     :: ("id", Obs.Json.Str id)
     :: ("ok", Obs.Json.Bool false)
     :: (corr_field corr @ (("error", Obs.Json.Str msg) :: code_field)))
