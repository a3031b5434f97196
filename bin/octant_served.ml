(* Octant as a service: a long-lived localization daemon.

   Prepares one Pipeline context at startup (deployment construction,
   heights, calibration — the expensive part every one-shot CLI run pays)
   and then serves localize requests over TCP from a single-threaded
   event loop: newline-delimited JSON frames, or length-prefixed binary
   frames for clients that open with the "OCTB" magic.  Concurrent
   requests micro-batch onto the multicore batch engine and repeated
   observations replay from a sharded LRU cache.

     octant_served --seed 7 --hosts 51 --port 7700
     echo '{"id":1,"rtt_ms":[12.5,33.1,...]}' | nc 127.0.0.1 7700

   SIGTERM / SIGINT (or a {"op":"shutdown"} frame) drains gracefully:
   queued requests are computed and answered before the process exits. *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Deployment random seed.")

let hosts_arg =
  Arg.(value & opt int 51 & info [ "hosts" ] ~docv:"N" ~doc:"Number of deployed hosts (all become landmarks).")

let probes_arg =
  Arg.(value & opt int 10 & info [ "probes" ] ~docv:"K" ~doc:"Ping probes per measurement.")

let port_arg =
  Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port; 0 picks an ephemeral one.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "bind" ] ~docv:"ADDR" ~doc:"Bind address.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs" ] ~docv:"J"
        ~doc:"Domains per dispatched batch; 0 uses one per available core.")

let max_queue_arg =
  Arg.(
    value
    & opt int 256
    & info [ "max-queue" ] ~docv:"N" ~doc:"Admission bound; requests beyond it are shed.")

let max_batch_arg =
  Arg.(value & opt int 64 & info [ "max-batch" ] ~docv:"N" ~doc:"Requests per dispatched batch.")

let batch_delay_arg =
  Arg.(
    value
    & opt float 2.0
    & info [ "batch-delay-ms" ] ~docv:"MS" ~doc:"Coalescing window after the first queued request.")

let cache_arg =
  Arg.(
    value
    & opt int 1024
    & info [ "cache" ] ~docv:"N" ~doc:"LRU result-cache capacity; 0 disables caching.")

let cache_shards_arg =
  Arg.(
    value
    & opt int 8
    & info [ "cache-shards" ] ~docv:"N"
        ~doc:
          "Result-cache shard count (rounded down to a power of two, clamped to the \
           capacity).")

let sessions_arg =
  Arg.(
    value
    & opt int 256
    & info [ "sessions" ] ~docv:"N"
        ~doc:
          "Live streaming-session cap for {\"op\":\"update\"} clients; the \
           least-recently-touched session past it is evicted.")

let max_conns_arg =
  Arg.(
    value
    & opt int 900
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Live-connection cap; connections past it are closed at accept.  Must stay \
           below the select(2) FD_SETSIZE limit (1024 on Linux).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Default per-request deadline when a request carries none.")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"MODE"
        ~doc:
          "Collect telemetry for the run and emit it at shutdown: $(b,json) (JSON to \
           stdout) or $(b,json:FILE).")

let harden_arg =
  Arg.(
    value & flag
    & info [ "harden" ]
        ~doc:
          "Enable Byzantine-landmark hardening for every localization this \
           daemon serves: consistency-score each landmark's latency \
           constraint against the consensus region, down-weight repeat \
           offenders, and trim far-flung weight-band cells at estimate \
           extraction.")

let serve seed hosts probes port host jobs max_queue max_batch batch_delay_ms cache
    cache_shards sessions max_conns deadline harden telemetry =
  let telemetry_sink =
    match telemetry with
    | None -> None
    | Some "json" -> Some None
    | Some s when String.starts_with ~prefix:"json:" s ->
        Some (Some (String.sub s 5 (String.length s - 5)))
    | Some other ->
        Printf.eprintf "invalid --telemetry mode %S (json | json:FILE)\n" other;
        exit 2
  in
  if telemetry_sink <> None then begin
    Octant.Telemetry.reset ();
    Octant.Telemetry.enable ()
  end;
  (* Resident context: all hosts of the simulated deployment act as the
     landmark set clients measure against. *)
  let deployment = Netsim.Deployment.make ~seed ~n_hosts:hosts () in
  let bridge = Eval.Bridge.create ~probes deployment in
  let n = Eval.Bridge.host_count bridge in
  let all = Array.init n Fun.id in
  let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:(-1) all in
  let inter = Eval.Bridge.inter_rtt_for bridge all in
  let ctx =
    Octant.Pipeline.prepare
      ~config:
        {
          Octant.Pipeline.default_config with
          Octant.Pipeline.harden = (if harden then Some Octant.Harden.default else None);
        }
      ~landmarks ~inter_landmark_rtt_ms:inter ()
  in
  let config =
    {
      Octant_serve.Server.default_config with
      Octant_serve.Server.host;
      port;
      jobs = (if jobs = 0 then None else Some jobs);
      max_queue;
      max_batch;
      batch_delay_s = batch_delay_ms /. 1000.0;
      cache_capacity = cache;
      cache_shards;
      session_capacity = sessions;
      max_connections = max_conns;
      default_deadline_ms = deadline;
    }
  in
  let srv = Octant_serve.Server.start ~config ~ctx () in
  Printf.printf "octant_served listening on %s:%d (%d landmarks, jobs=%s)\n%!" host
    (Octant_serve.Server.port srv)
    (Octant.Pipeline.landmark_count ctx)
    (if jobs = 0 then "auto" else string_of_int jobs);
  let on_signal _ = Octant_serve.Server.request_shutdown srv in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Octant_serve.Server.wait srv;
  Printf.printf "octant_served draining...\n%!";
  Octant_serve.Server.stop srv;
  (match telemetry_sink with
  | None -> ()
  | Some dest -> (
      Octant.Telemetry.disable ();
      let json = Octant.Telemetry.to_json (Octant.Telemetry.snapshot ()) in
      match dest with
      | None -> print_endline json
      | Some path ->
          let oc = open_out path in
          output_string oc json;
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "telemetry written to %s\n" path));
  Printf.printf "octant_served stopped\n%!"

let main =
  Cmd.v
    (Cmd.info "octant_served" ~version:"1.0.0"
       ~doc:"Octant localization daemon (newline-delimited JSON over TCP)")
    Term.(
      const serve $ seed_arg $ hosts_arg $ probes_arg $ port_arg $ host_arg $ jobs_arg
      $ max_queue_arg $ max_batch_arg $ batch_delay_arg $ cache_arg
      $ cache_shards_arg $ sessions_arg $ max_conns_arg $ deadline_arg $ harden_arg
      $ telemetry_arg)

let () = exit (Cmd.eval main)
