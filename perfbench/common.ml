(* Clocks, order statistics, process accounting and the metric table shared
   by the three workloads.  Every interval is read from the non-decreasing
   Obs.now_ns wall clock; CPU time is a separate number (Unix.times sums it
   over every domain of the process, so it is never used as a duration). *)

let now_ns = Obs.now_ns
let ms_between t0 t1 = float_of_int (t1 - t0) /. 1e6
let s_between t0 t1 = float_of_int (t1 - t0) /. 1e9

(* Process CPU seconds, user + system, summed over all domains. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A /proc/<pid>/stat line as (comm, fields from field 3 on); the comm
   field may hold spaces, so fields are counted from the closing
   parenthesis.  None when the process is gone. *)
let read_stat dir =
  match open_in (Filename.concat dir "stat") with
  | exception Sys_error _ -> None
  | ic -> (
    match Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) with
    | exception (Sys_error _ | End_of_file) -> None
    | line ->
      let lp = String.index line '(' and rp = String.rindex line ')' in
      let rest = String.sub line (rp + 2) (String.length line - rp - 2) in
      Some (String.sub line (lp + 1) (rp - lp - 1), Array.of_list (String.split_on_char ' ' rest)))

(* The /proc directory of a child started by this process.  Under a pid
   namespace of its own with /proc mounted for an outer one, the pid that
   Unix.create_process returns names another process or none in /proc; the
   child is then found by its parent (this process as /proc/self names it)
   and its command name. *)
let child_proc_dir pid ~comm =
  let self = Filename.basename (Unix.readlink "/proc/self") in
  let ours dir =
    match read_stat dir with
    | Some (c, f) -> c = comm && f.(1) = self
    | None -> false
  in
  let direct = Printf.sprintf "/proc/%d" pid in
  if ours direct then direct
  else
    let numeric s = s <> "" && String.for_all (fun ch -> ch >= '0' && ch <= '9') s in
    match
      Sys.readdir "/proc" |> Array.to_list |> List.filter numeric
      |> List.map (Filename.concat "/proc") |> List.filter ours
    with
    | [ dir ] -> dir
    | [] -> failwith (Printf.sprintf "no /proc entry for child %d (%s)" pid comm)
    | _ -> failwith (Printf.sprintf "several /proc entries match child %d (%s)" pid comm)

(* user + system CPU seconds of the process at [dir] (a /proc/<pid>
   directory), from its stat fields 14 and 15, in clock ticks. *)
let clk_tck = 100.0

let proc_cpu_s dir =
  match read_stat dir with
  (* f starts at field 3 (state): utime is field 14, stime field 15. *)
  | Some (_, f) -> (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck
  | None -> failwith (dir ^ "/stat is unreadable")

(* A "VmHWM:   1234 kB" style line of <dir>/status, in MB. *)
let proc_status_mb dir key =
  let ic = open_in (Filename.concat dir "status") in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec loop () =
    match input_line ic with
    | line when String.starts_with ~prefix:(key ^ ":") line ->
      let v =
        String.split_on_char ' ' line
        |> List.filter (fun s -> s <> "" && s.[0] >= '0' && s.[0] <= '9')
        |> List.hd
      in
      float_of_string v /. 1024.0
    | _ -> loop ()
    | exception End_of_file -> failwith ("no " ^ key ^ " in /proc status")
  in
  loop ()

let self_hwm_mb () = proc_status_mb "/proc/self" "VmHWM"
let proc_hwm_mb dir = proc_status_mb dir "VmHWM"

(* --- order statistics ------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let highest xs = List.fold_left Float.max neg_infinity xs

let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The tail the benchmark reports: the highest order statistic with at least
   ten samples beyond it, with its percentile and the sample count.  Fewer
   than eleven samples report the maximum at percentile 100. *)
type tail = {
  value : float;
  pct : float;
  samples : int;
}

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = nan; pct = nan; samples = 0 }
  else if n <= 10 then { value = a.(n - 1); pct = 100.0; samples = n }
  else
    let rank = n - 11 in
    { value = a.(rank); pct = 100.0 *. float_of_int (rank + 1) /. float_of_int n; samples = n }

(* --- metrics --------------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
}

let metrics : metric list ref = ref []
let emit name unit_ value = metrics := { name; value; unit_ } :: !metrics

(* Lines printed before the result line; the last stdout line is JSON. *)
let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt

exception Check_failed of string

let fail_check fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed =
  let body =
    List.rev !metrics
    |> List.map (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
    |> String.concat ", "
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

(* How many times a workload sets up; setup_s is their median. *)
let setup_reps = 7

(* Set-up runs [reps] times: the median wall time is [setup_s], every value
   but the last is released with [dispose], and the last is kept. *)
let timed_setup ~reps ?(dispose = ignore) f =
  let rec go i times prev =
    Option.iter dispose prev;
    let t0 = now_ns () in
    let v = f () in
    let times = s_between t0 (now_ns ()) :: times in
    if i < reps then go (i + 1) times (Some v)
    else begin
      say "set-up %d times: %s s" reps (String.concat " " (List.rev_map (Printf.sprintf "%.4f") times));
      (median times, v)
    end
  in
  go 1 [] None

(* The metric names, units and order of BENCHMARK.json.  End-to-end metrics
   are emitted by the untraced run, per-layer ones by the traced run; a
   layer a workload does not exercise reads 0. *)
let end_to_end =
  [ ("setup_s", "s"); ("answers_per_s", "1/s"); ("latency_p50_ms", "ms"); ("latency_tail_ms", "ms");
    ("cpu_ms_per_answer", "ms"); ("mem_peak_mb", "MB") ]

let per_layer =
  [ ("lang.parser.ms", "ms"); ("eval.engine.prepare.ms", "ms"); ("eval.engine.execute.ms", "ms");
    ("render.ms", "ms"); ("unattributed.ms", "ms"); ("harness.answer_ms", "ms");
    ("harness.trace_overhead_pct", "%");
    ("markov.chain.build_ms", "ms"); ("markov.chain.states", "count"); ("markov.chain.edges", "count");
    ("markov.solve_ms", "ms"); ("eval.exact_inflationary.worlds", "count");
    ("eval.exact_inflationary.worlds_per_s", "1/s"); ("eval.exact_inflationary.ms", "ms");
    ("eval.engine.steps", "count"); ("eval.engine.states", "count");
    ("eval.sampler.samples", "count"); ("eval.sampler.kernel_steps", "count");
    ("eval.sampler.steps_per_s", "1/s"); ("eval.pool.speedup_2v1", "x"); ("eval.pool.cpu_over_wall", "x");
    ("eval.pool.shard_skew", "x"); ("eval.sampler.eps_miss_ratio", "ratio");
    ("harness.gen_lag_ms", "ms"); ("serve.outside_ms", "ms"); ("serve.compile_ms", "ms");
    ("serve.eval_ms", "ms"); ("serve.unattributed_ms", "ms"); ("serve.latency_mean_ms", "ms");
    ("serve.nominal_p50_ms", "ms"); ("serve.nominal_tail_ms", "ms");
    ("serve.outside_p50_ms", "ms"); ("serve.outside_tail_ms", "ms"); ("serve.admission_wait_ms", "ms");
    ("serve.client.ping_rtt_ms", "ms"); ("serve.request.plan_cache.hit_ratio", "ratio");
    ("serve.journal.fsyncs_per_load", "ratio"); ("serve.journal.compactions", "count");
    ("relational.value.intern_strings", "count"); ("gc.minor_words_per_req", "words");
    ("gc.top_heap_words", "words"); ("serve.refused", "count"); ("serve.errors", "count");
    ("harness.gen_lag_tail_ms", "ms"); ("harness.backlog_max", "count");
    ("load_p50_ms", "ms"); ("load_tail_ms", "ms"); ("max_rate_at_slo_rps", "1/s"); ("recovery_ms", "ms");
    ("failed_ratio", "ratio") ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64

let set_layer name v =
  if not (List.mem_assoc name per_layer) then invalid_arg ("unknown per-layer metric " ^ name);
  Hashtbl.replace layer_values name v

let emit_layers () =
  List.iter
    (fun (name, unit_) -> emit name unit_ (Option.value ~default:0.0 (Hashtbl.find_opt layer_values name)))
    per_layer
