(* The Octant benchmark.

     octbench --workload study|cold|hot|stream --seed N --seconds S --trace 0|1
              [--world W] [--size full|tiny]

   Builds the workload's inputs from the seed, measures it for S seconds
   and checks every output it received.  It prints each metric as
   "metric NAME VALUE UNIT", each output check as "check ok|FAILED NAME",
   and last one JSON line {"correct","attempted","failed","metrics"}:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  It exits 1 when an output is wrong and 2 when the run
   itself fails. *)

module Telemetry = Obs.Telemetry
module Json = Octant_serve.Json
open Runs

(* The deployment every workload localizes in.  World 11 is held out for
   re-checking claims (README.md). *)
let default_world = 7

(* The fixture and the workload's inputs are built this many times
   before the run and this many after it, and the median reported, so
   the figure spans the run's noise rather than one moment of it. *)
let setup_reps = 3

let unit_of_layer name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ms" || ends "_ms_p50" || ends "_ms_p90" then "ms"
  else if ends "_us" then "us"
  else if ends "_s" then "s"
  else if ends "_share" then "share"
  else if ends "speedup" then "x"
  else if ends "words_per_target" then "words"
  else "count"

let print_metric (m : metric) = Printf.printf "metric %s %.6g %s\n" m.name m.value m.unit_

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : metric) ->
                  (m.name, Json.Obj [ ("value", Json.num m.value); ("unit", Json.Str m.unit_) ]))
                metrics) );
       ])

let end_to_end ~setup_s (win : window) (v : verdict) =
  [
    metric "setup_s" "s" setup_s;
    metric "throughput_per_s" "1/s" win.throughput;
    metric "latency_p50_ms" "ms" win.latency_p50_ms;
    metric "latency_p90_ms" "ms" win.latency_p90_ms;
    metric "error_median_mi" "mi" v.error_median_mi;
    metric "coverage_share" "share" v.coverage_share;
  ]

let run ~spec ~size ~world ~seed ~seconds ~traced =
  Printf.printf "# octbench workload=%s seed=%d world=%d seconds=%g trace=%d nproc=%d\n%!"
    spec.name seed world seconds (Bool.to_int traced) Workload.nproc;
  let build () =
    Workload.time (fun () ->
        let w = Workload.make ~size ~world ~seed in
        (w, spec.launch w))
  in
  (* The first build pays for growing the heap; it is not set-up. *)
  ignore (build ());
  let reps = List.init setup_reps (fun _ -> build ()) in
  let (w, start), _ = List.hd (List.rev reps) in
  (* Every server is forked before the run starts a thread or a domain. *)
  let ladder = if traced then Some (Ladder.spawn w) else None in
  let inst, start_s = Workload.time start in
  inst.warm ();
  let own = inst.daemons @ Option.to_list inst.front in
  let windows, layer_rows, ladder_checks =
    match ladder with
    | None -> ([ inst.measure ~seconds ], [], [])
    | Some servers ->
        (* Untraced then traced halves against the same servers: their
           latency ratio is the cost of tracing. *)
        let untraced = inst.measure ~seconds:(seconds /. 2.0) in
        Telemetry.reset ();
        Telemetry.enable ();
        List.iter Child.enable_trace own;
        let stats () = List.map (fun c -> Wire.stats (Child.port c)) inst.daemons in
        let before = stats () in
        let traced_win = inst.measure ~seconds:(seconds /. 2.0) in
        let serving = { Ladder.before; after = stats () } in
        let overhead = (traced_win.latency_p50_ms /. untraced.latency_p50_ms) -. 1.0 in
        let rows, checks = Ladder.run servers w inst.sample ~own:serving in
        ([ untraced; traced_win ], rows @ [ ("trace.overhead_share", overhead) ], checks)
  in
  let peak_rss_mb =
    List.fold_left (fun acc c -> acc +. Child.peak_rss_mb c.Child.pid) (Child.peak_rss_mb 0) own
  in
  let verdict = inst.finish () in
  let reps = reps @ List.init setup_reps (fun _ -> build ()) in
  let setup_s = Workload.median (Array.of_list (List.map snd reps)) +. start_s in
  let zero_events = traced || Telemetry.total_events (Telemetry.snapshot ()) = 0 in
  let stopped =
    List.map
      (fun c -> (Child.name c, Child.stop c))
      (own @ match ladder with Some s -> Ladder.children s | None -> [])
  in
  let checks =
    verdict.checks @ ladder_checks
    @ [ ("untraced run recorded zero telemetry events", zero_events) ]
    @ List.map
        (fun (name, code) ->
          ( Printf.sprintf "%s exited cleanly%s" name
              (if traced then "" else " with zero telemetry events"),
            code = 0 ))
        stopped
  in
  let attempted = List.fold_left (fun n (win : window) -> n + win.attempted) 0 windows in
  let failed = List.fold_left (fun n (win : window) -> n + win.failed) 0 windows in
  List.iteri
    (fun k (win : window) ->
      if traced then Printf.printf "# window %d (%s)\n" k (if k = 0 then "untraced" else "traced");
      List.iter print_metric
        (end_to_end ~setup_s win verdict
        @ [ metric "latency_samples" "count" (float_of_int win.samples) ]
        @ win.extra))
    windows;
  (* Printed, not reported: the peak depends on when the major GC catches
     up with domains allocating in parallel, and swings by a third between
     identical runs. *)
  print_metric (metric "peak_rss_mb" "MiB" peak_rss_mb);
  Printf.printf "metric failed_share %.6g share\n"
    (float_of_int failed /. float_of_int (max 1 attempted));
  let layer = List.map (fun (name, v) -> metric name (unit_of_layer name) v) layer_rows in
  List.iter print_metric layer;
  List.iter (fun (name, ok) -> Printf.printf "check %s %s\n" (if ok then "ok" else "FAILED") name) checks;
  let correct = failed = 0 && List.for_all snd checks in
  let reported =
    if traced then layer
    else end_to_end ~setup_s (List.hd windows) verdict
  in
  print_endline (result_line ~correct ~attempted ~failed reported);
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let world = ref default_world and size = ref Workload.Full in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME study|cold|hot|stream");
      ("--seed", Arg.Set_int seed, "N probe-stream seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--world", Arg.Set_int world, "W deployment seed (default 7)");
      ( "--size",
        Arg.Symbol
          ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Workload.Tiny else Workload.Full),
        " full (51 hosts) or tiny (15 hosts, for the smoke test)" );
    ]
  in
  let usage = "octbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun s -> s.name = !workload) Runs.all with
  | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  | Some spec ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let code =
        try
          if run ~spec ~size:!size ~world:!world ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
          then 0
          else 1
        with e ->
          Printf.eprintf "octbench: %s\n%!" (Printexc.to_string e);
          List.iter (fun c -> ignore (Child.stop c)) !Child.live;
          2
      in
      exit code
