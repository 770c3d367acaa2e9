type reason =
  | Deadline of { budget_ms : float; elapsed_ms : float }
  | States of { budget : int; reached : int }
  | Samples of { budget : int; completed : int }
  | Interrupted

exception Exhausted of reason

let describe = function
  | Deadline { budget_ms; elapsed_ms } ->
      Printf.sprintf "deadline exceeded: %.0f ms elapsed (budget %.0f ms)"
        elapsed_ms budget_ms
  | States { budget; reached } ->
      Printf.sprintf "state budget exhausted: reached %d states (budget %d)"
        reached budget
  | Samples { budget; completed } ->
      Printf.sprintf "sample budget exhausted: completed %d samples (budget %d)"
        completed budget
  | Interrupted -> "interrupted"

let reason_slug = function
  | Deadline _ -> "deadline"
  | States _ -> "state-budget"
  | Samples _ -> "sample-budget"
  | Interrupted -> "interrupted"

let () =
  Printexc.register_printer (function
    | Exhausted r -> Some (Printf.sprintf "Guard.Exhausted(%s)" (describe r))
    | _ -> None)

type t = {
  active : bool;
  started_ns : int;  (* Obs.now_ns at make *)
  deadline_ms : float option;
  state_budget : int option;
  sample_budget : int option;
  mutable states : int;
  mutable samples : int;
  cancelled : bool Atomic.t;
}

let unlimited =
  {
    active = false;
    started_ns = 0;
    deadline_ms = None;
    state_budget = None;
    sample_budget = None;
    states = 0;
    samples = 0;
    cancelled = Atomic.make false;
  }

let default_state_budget = 100_000

(* One domain check for every entry point: a non-positive budget or
   deadline can only stop a run before it starts, which is a usage error,
   not an outcome. *)
let make ?deadline_ms ?max_states ?max_samples () =
  let positive what = function
    | Some n when n <= 0 -> invalid_arg (Printf.sprintf "%s must be positive, got %d" what n)
    | _ -> ()
  in
  positive "state budget" max_states;
  positive "sample budget" max_samples;
  (match deadline_ms with
   | Some ms when not (ms > 0.) ->
     invalid_arg (Printf.sprintf "deadline must be positive, got %g ms" ms)
   | _ -> ());
  {
    active = true;
    started_ns = Obs.now_ns ();
    deadline_ms;
    state_budget = max_states;
    sample_budget = max_samples;
    states = 0;
    samples = 0;
    cancelled = Atomic.make false;
  }

let active g = g.active
let state_budget g = g.state_budget
let sample_budget g = g.sample_budget
let deadline_ms g = g.deadline_ms
let states_reached g = g.states

(* Process-global interrupt flag, set from the SIGINT handler. *)
let interrupt = Atomic.make false
let request_interrupt () = Atomic.set interrupt true
let interrupted () = Atomic.get interrupt
let clear_interrupt () = Atomic.set interrupt false

(* Per-guard cancellation: a resident server cancels one request's guard
   without touching the process-global interrupt flag other sessions poll. *)
let cancel g = Atomic.set g.cancelled true
let cancelled g = Atomic.get g.cancelled

(* All deadline arithmetic reads the Obs.now_ns high-water clock, never
   gettimeofday directly: the latched clock is monotone across NTP steps, so
   in a resident process a wall-clock step backwards can no longer defer a
   deadline indefinitely (nor make a fresh budget read negative) — elapsed
   time is a difference of two non-decreasing readings taken after
   [started_ns], hence >= 0 always. *)
let elapsed_ms g = Obs.ms_of_ns (Obs.now_ns () - g.started_ns)

let remaining_ms g =
  match g.deadline_ms with
  | None -> None
  | Some budget_ms -> Some (Float.max 0. (budget_ms -. elapsed_ms g))

let deadline_exceeded g =
  match g.deadline_ms with
  | None -> false
  | Some budget_ms -> elapsed_ms g > budget_ms

let deadline_reason g =
  match g.deadline_ms with
  | None -> invalid_arg "Guard.deadline_reason: guard has no deadline"
  | Some budget_ms -> Deadline { budget_ms; elapsed_ms = elapsed_ms g }

(* Deadline + interrupt poll shared by every checker.  One latched clock
   read costs ~30ns — negligible against one state expansion or one sampled
   trajectory, which is the granularity these run at. *)
let check_stop g =
  if Atomic.get interrupt || Atomic.get g.cancelled then
    raise (Exhausted Interrupted);
  match g.deadline_ms with
  | None -> ()
  | Some budget_ms ->
      let elapsed_ms = elapsed_ms g in
      if elapsed_ms > budget_ms then
        raise (Exhausted (Deadline { budget_ms; elapsed_ms }))

let state_tick g =
  if not g.active then None
  else
    Some
      (fun () ->
        check_stop g;
        g.states <- g.states + 1;
        match g.state_budget with
        | Some budget when g.states > budget ->
            raise (Exhausted (States { budget; reached = g.states }))
        | _ -> ())

let sample_tick g =
  if not g.active then None
  else
    Some
      (fun () ->
        check_stop g;
        g.samples <- g.samples + 1;
        match g.sample_budget with
        | Some budget when g.samples > budget ->
            raise (Exhausted (Samples { budget; completed = g.samples - 1 }))
        | _ -> ())

let stop_check g = if not g.active then None else Some (fun () -> check_stop g)

module Fault = struct
  exception Injected of string
  exception Transient of string

  let () =
    Printexc.register_printer (function
      | Injected m -> Some (Printf.sprintf "Guard.Fault.Injected(%s)" m)
      | Transient m -> Some (Printf.sprintf "Guard.Fault.Transient(%s)" m)
      | _ -> None)

  type fault =
    | Kill of { shard : int; after : int }
    | Delay of { shard : int; ms : float }
    | Flaky of { shard : int; after : int }
    | Conn_drop of { after : int }
    | Partial_write of { after : int }
    | Resp_delay of { ms : float }
    | Journal_crash of { point : string }

  type spec = fault list

  let none = []
  let is_none s = s = []

  let journal_points = [ "pre-write"; "mid-record"; "pre-rename"; "post-rename" ]

  let fault_to_string = function
    | Kill { shard; after } -> Printf.sprintf "kill:shard=%d,after=%d" shard after
    | Delay { shard; ms } -> Printf.sprintf "delay:shard=%d,ms=%g" shard ms
    | Flaky { shard; after } -> Printf.sprintf "flaky:shard=%d,after=%d" shard after
    | Conn_drop { after } -> Printf.sprintf "conn-drop:after=%d" after
    | Partial_write { after } -> Printf.sprintf "partial-write:after=%d" after
    | Resp_delay { ms } -> Printf.sprintf "resp-delay:ms=%g" ms
    | Journal_crash { point } -> Printf.sprintf "journal-crash:point=%s" point

  let to_string s = String.concat ";" (List.map fault_to_string s)

  let bad spec msg =
    invalid_arg (Printf.sprintf "Guard.Fault: bad spec %S (%s)" spec msg)

  (* "kill:shard=2,after=10" -> Kill {shard=2; after=10} *)
  let parse_fault item =
    match String.index_opt item ':' with
    | None -> bad item "expected KIND:key=value,..."
    | Some i ->
        let kind = String.sub item 0 i in
        let rest = String.sub item (i + 1) (String.length item - i - 1) in
        let kvs =
          String.split_on_char ',' rest
          |> List.map (fun kv ->
                 match String.index_opt kv '=' with
                 | None -> bad item (Printf.sprintf "missing '=' in %S" kv)
                 | Some j ->
                     ( String.sub kv 0 j,
                       String.sub kv (j + 1) (String.length kv - j - 1) ))
        in
        let int_field k =
          match List.assoc_opt k kvs with
          | None -> bad item (Printf.sprintf "missing field %S" k)
          | Some v -> (
              match int_of_string_opt v with
              | Some n when n >= 0 -> n
              | _ -> bad item (Printf.sprintf "field %s=%S is not a count" k v))
        in
        let float_field k =
          match List.assoc_opt k kvs with
          | None -> bad item (Printf.sprintf "missing field %S" k)
          | Some v -> (
              match float_of_string_opt v with
              | Some f when f >= 0. -> f
              | _ -> bad item (Printf.sprintf "field %s=%S is not a duration" k v))
        in
        let str_field k =
          match List.assoc_opt k kvs with
          | None -> bad item (Printf.sprintf "missing field %S" k)
          | Some v -> v
        in
        (match kind with
        | "kill" -> Kill { shard = int_field "shard"; after = int_field "after" }
        | "delay" -> Delay { shard = int_field "shard"; ms = float_field "ms" }
        | "flaky" -> Flaky { shard = int_field "shard"; after = int_field "after" }
        | "conn-drop" -> Conn_drop { after = int_field "after" }
        | "partial-write" -> Partial_write { after = int_field "after" }
        | "resp-delay" -> Resp_delay { ms = float_field "ms" }
        | "journal-crash" ->
            let point = str_field "point" in
            if not (List.mem point journal_points) then
              bad item
                (Printf.sprintf "unknown journal crash point %S (expected %s)"
                   point
                   (String.concat "|" journal_points));
            Journal_crash { point }
        | k -> bad item (Printf.sprintf "unknown fault kind %S" k))

  let of_string s =
    String.split_on_char ';' s
    |> List.filter_map (fun item ->
           let item = String.trim item in
           if item = "" then None else Some (parse_fault item))

  let of_env () =
    match Sys.getenv_opt "PROBDB_FAULT" with
    | None | Some "" -> none
    | Some s -> of_string s

  (* Serve-layer faults have no shard: [shard_of] maps them to -1, which no
     pool worker ever matches (shards are numbered from 0), so a serve spec
     in PROBDB_FAULT cannot leak into the sampler pool and vice versa. *)
  let shard_of = function
    | Kill { shard; _ } | Delay { shard; _ } | Flaky { shard; _ } -> shard
    | Conn_drop _ | Partial_write _ | Resp_delay _ | Journal_crash _ -> -1

  let conn_drop spec =
    List.find_map (function Conn_drop { after } -> Some after | _ -> None) spec

  let partial_write spec =
    List.find_map
      (function Partial_write { after } -> Some after | _ -> None)
      spec

  let resp_delay_ms spec =
    List.find_map (function Resp_delay { ms } -> Some ms | _ -> None) spec

  let journal_crash spec ~point =
    List.exists (function Journal_crash { point = p } -> p = point | _ -> false) spec

  let hook spec ~shard =
    match List.filter (fun f -> shard_of f = shard) spec with
    | [] -> None
    | faults ->
        Some
          (fun ~attempt ~completed ->
            List.iter
              (function
                | Kill { after; _ } ->
                    if completed >= after then
                      raise
                        (Injected
                           (Printf.sprintf
                              "injected kill in shard %d after %d samples"
                              shard after))
                | Delay { ms; _ } -> Unix.sleepf (ms /. 1000.)
                | Flaky { after; _ } ->
                    if attempt = 0 && completed >= after then
                      raise
                        (Transient
                           (Printf.sprintf
                              "injected transient fault in shard %d after %d \
                               samples"
                              shard after))
                | Conn_drop _ | Partial_write _ | Resp_delay _
                | Journal_crash _ ->
                    (* serve-layer faults are consumed by the daemon's
                       session/journal code, never by pool workers *)
                    ())
              faults)
end

module Checkpoint = struct
  exception Error of string

  let () =
    Printexc.register_printer (function
      | Error m -> Some (Printf.sprintf "Guard.Checkpoint.Error(%s)" m)
      | _ -> None)

  type shard_state = {
    shard : int;
    todo : int;
    completed : int;
    hits : int;
    rng : Random.State.t;
  }

  type t = { key : string; samples : int; shards : shard_state array }

  let magic = "probdb.ckpt/1"

  (* Tmp names must be unique per writer: a fixed [path ^ ".tmp"] lets two
     concurrent savers (daemon sessions checkpointing the same target)
     truncate each other mid-Marshal and rename a torn body into place.
     pid + a process-wide counter disambiguates both across processes and
     across domains within one; the rename itself is atomic, so the target
     is always absent, the previous snapshot, or a complete new one. *)
  let tmp_counter = Atomic.make 0

  let save path t =
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_counter 1)
    in
    let oc = open_out_bin tmp in
    (try
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () ->
           output_string oc magic;
           output_char oc '\n';
           Marshal.to_channel oc t [];
           flush oc);
       Sys.rename tmp path
     with e ->
       (* Never leave an orphaned tmp behind a failed write or rename. *)
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e)

  let load path =
    let oc =
      try open_in_bin path
      with Sys_error m -> raise (Error (Printf.sprintf "cannot open checkpoint: %s" m))
    in
    Fun.protect
      ~finally:(fun () -> close_in_noerr oc)
      (fun () ->
        let line = try input_line oc with End_of_file -> "" in
        if line <> magic then
          raise
            (Error
               (Printf.sprintf "%s: bad checkpoint magic %S (expected %S)" path
                  line magic));
        match (Marshal.from_channel oc : t) with
        | t -> t
        | exception _ ->
            raise (Error (Printf.sprintf "%s: undecodable checkpoint body" path)))
end
