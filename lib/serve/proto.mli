(** probdb.proto/3 — the daemon's wire protocol.  Newline-delimited JSON:
    each request is one JSON object on one line, each response one JSON
    object on one line, answered in order per connection.

    Requests carry ["op"] ∈ load|query|estimate|stats|metrics|cancel|ping,
    a caller request ["id"] (echoed back), and an optional ["tenant"]
    (default ["default"]).  [estimate] is [query] with the method
    defaulted to ["sample"].  Responses always carry ["schema"], ["id"]
    and ["ok"]; failures set ["ok"]: false with an ["error"] string and a
    machine-readable ["code"] slug.

    Rev 2 over rev 1: the ["metrics"] op (a [probdb.metrics/1] JSON
    document plus a Prometheus-text rendering of the same families), a
    server-generated correlation id echoed as ["corr"] in every response
    (and stamped into the server's log lines and trace span args), and an
    optional per-query ["trace"]: true flag that enables {!Obs.Trace} in
    the request's scope and returns the Chrome trace document inline
    under ["trace"].

    Rev 3 over rev 2: the ["ping"] op (a liveness probe answered without
    touching any tenant state), an optional client idempotency key
    ["idem"] on any request — the server remembers the response it sent
    for a given (tenant, idem) and answers a retried request with the
    stored response verbatim instead of re-executing it — and the
    ["code"] error slug.  Rev-2 requests decode unchanged. *)

val schema : string

(** Request class: [Interactive] requests run under the tenant's
    interactive deadline and (when the tenant allows it) degrade by
    sampler fallback on budget exhaustion; [Batch] requests get the batch
    deadline and plain partial degradation. *)
type clazz =
  | Interactive
  | Batch

val clazz_slug : clazz -> string

(** A decoded query/estimate request.  Field defaults mirror the probdl
    CLI flags ([q_stats] defaults true: responses carry per-request Obs
    stats unless the client opts out). *)
type query = {
  q_class : clazz;
  q_name : string option;  (** evaluate a program [load]ed under this name *)
  q_source : string option;  (** …or inline program text *)
  q_semantics : Eval.Engine.semantics;
  q_method : string;  (** method slug, resolved by {!method_of_query} *)
  q_eps : float;
  q_delta : float;
  q_burn_in : int;
  q_steps : int;
  q_seed : int;
  q_domains : int option;
  q_max_steps : int option;
  q_stats : bool;
  q_trace : bool;  (** per-request trace export, returned inline *)
}

type request =
  | Load of {
      name : string;
      source : string;
    }  (** validate [source] and store it under [(tenant, name)] *)
  | Query of query
  | Stats  (** server-wide counters: cache, intern store, tenants *)
  | Metrics
      (** the telemetry plane: [probdb.metrics/1] JSON + Prometheus text *)
  | Cancel of { target : string }
      (** cancel the tenant's in-flight request whose id is [target] *)
  | Ping  (** liveness probe: answered immediately, never journaled *)

type envelope = {
  id : string;
  tenant : string;
  idem : string option;
      (** client idempotency key; the server dedups retried requests on
          [(tenant, idem)] *)
  req : request;
}

(** {2 Error codes}

    The ["code"] slug attached to error responses — stable, machine
    readable, orthogonal to the human-readable ["error"] text. *)

val code_bad_request : string
(** malformed JSON, unknown op, missing/ill-typed field, or a
    [query]/[estimate] program with several [?-] events *)

val code_not_found : string
(** [query] by [name] that was never [load]ed for this tenant *)

val code_capacity : string
(** admission control refused the request ([max_inflight]) *)

val code_frame_too_large : string
(** request line exceeded the server's max frame size *)

val code_timeout : string
(** the connection's read deadline expired mid-frame *)

val code_eval : string
(** parse/compile/evaluation failure of a well-formed request *)

val code_journal : string
(** the durable journal could not persist a [load] (nothing was applied) *)

val code_internal : string
(** unexpected server-side exception; the session survives *)

val request_of_json : Obs.Json.t -> (envelope, string) result
val parse_request : string -> (envelope, string) result

val method_of_query : query -> (Eval.Engine.method_, string) result
(** Resolves the method slug against the query's sampling parameters. *)

val response : id:string -> ?corr:string -> (string * Obs.Json.t) list -> Obs.Json.t
(** An [ok]: true response envelope around [fields], carrying the
    server's correlation id when one was assigned. *)

val error_response :
  id:string -> ?corr:string -> ?code:string -> string -> Obs.Json.t
(** An [ok]: false envelope with the ["error"] text and, when given, the
    machine-readable ["code"] slug. *)
