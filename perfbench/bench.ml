(* The repository benchmark.  One workload per invocation:

     bench.exe --workload exact-oneshot|sample-pool|daemon-mix --seed N \
               --seconds S --trace 0|1 [--probdbd PATH] [--tiny]

   prints a human-readable report and, as its last stdout line, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  A failed
   correctness check still prints the result line (correct = false) and
   exits 1; an error from the program under test exits 2 without one.
   perfbench/run.py builds this and the daemon, then runs it. *)

open Common

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let probdbd = ref "_build/default/bin/probdbd.exe" and tiny = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME exact-oneshot | sample-pool | daemon-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--probdbd", Arg.Set_string probdbd, "PATH daemon executable for daemon-mix");
      ("--tiny", Arg.Set tiny, " smallest sizes of every workload (the self-test)")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and tiny = !tiny and seed = !seed and seconds = !seconds in
  let inproc spec =
    if trace then begin
      let answers, failed, misses = Inproc.run_traced spec ~tiny ~seed ~seconds in
      (answers, failed, float_of_int misses <= Inproc.miss_bound answers)
    end
    else begin
      let tl = Inproc.run_plain spec ~tiny ~seed ~seconds in
      (tl.Inproc.answers, tl.Inproc.failed, float_of_int tl.Inproc.misses <= Inproc.miss_bound tl.Inproc.answers)
    end
  in
  match
    match !workload with
    | "exact-oneshot" -> inproc Inproc.exact_oneshot
    | "sample-pool" -> inproc Inproc.sample_pool
    | "daemon-mix" -> Daemon.run ~probdbd:!probdbd ~seed ~seconds ~tiny ~trace
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  with
  | exception (Check_failed msg | Failure msg | Arg.Bad msg) ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  | exception e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 2
  | attempted, failed, quality_ok ->
    if trace then emit_layers ();
    let expected = if trace then per_layer else end_to_end in
    let got = List.rev_map (fun m -> (m.name, m.unit_)) !metrics in
    if got <> expected then begin
      prerr_endline "perfbench: emitted metrics do not match the declared list";
      exit 2
    end;
    let correct = failed = 0 && quality_ok in
    print_endline (result_line ~correct ~attempted ~failed);
    if not correct then exit 1
