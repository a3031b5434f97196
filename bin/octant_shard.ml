(* Sharded serving front: consistent-hash fan-out over octant_served
   backends.

   Owns the client-facing port; each localize request is keyed by its
   quantized observation and routed to one of N backend daemons over
   persistent binary connections, so each backend's result cache holds a
   disjoint key range and aggregate cache capacity scales with the
   backend count.  The front never computes.

     octant_served --port 7701 &
     octant_served --port 7702 &
     octant_shard --backend 127.0.0.1:7701 --backend 127.0.0.1:7702

   SIGTERM / SIGINT (or a {"op":"shutdown"} frame) drains: requests
   already fanned out are answered before the front exits; backends keep
   running. *)

open Cmdliner

let port_arg =
  Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port; 0 picks an ephemeral one.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "bind" ] ~docv:"ADDR" ~doc:"Bind address.")

let backend_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" s))
    | Some i -> (
        let host = String.sub s 0 i in
        let port_s = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port_s with
        | Some p when p > 0 && p < 65536 && host <> "" -> Ok (host, p)
        | _ -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" s)))
  in
  Arg.conv (parse, fun fmt (h, p) -> Format.fprintf fmt "%s:%d" h p)

let backends_arg =
  Arg.(
    non_empty
    & opt_all backend_conv []
    & info [ "backend" ] ~docv:"HOST:PORT"
        ~doc:"Backend daemon address; repeat once per backend.")

let vnodes_arg =
  Arg.(
    value
    & opt int 128
    & info [ "vnodes" ] ~docv:"N" ~doc:"Virtual nodes per backend on the hash ring.")

let attempts_arg =
  Arg.(
    value
    & opt int 3
    & info [ "max-attempts" ] ~docv:"N"
        ~doc:
          "Routing attempts per request (first send plus re-fans after backend loss) \
           before the front answers with an error.")

let max_conns_arg =
  Arg.(
    value
    & opt int 900
    & info [ "max-conns" ] ~docv:"N"
        ~doc:"Live client-connection cap; connections past it are closed at accept.")

let drain_arg =
  Arg.(
    value
    & opt float 5.0
    & info [ "drain-timeout" ] ~docv:"S"
        ~doc:
          "How long shutdown waits for in-flight backend replies before answering the \
           remainder with errors.")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"MODE"
        ~doc:
          "Collect telemetry for the run and emit it at shutdown: $(b,json) (JSON to \
           stdout) or $(b,json:FILE).")

let serve port host backends vnodes max_attempts max_conns drain_timeout telemetry =
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
  let config =
    {
      Octant_serve.Shard.default_config with
      Octant_serve.Shard.host;
      port;
      backends;
      vnodes;
      max_attempts;
      max_connections = max_conns;
      drain_timeout_s = drain_timeout;
    }
  in
  let front =
    try Octant_serve.Shard.start ~config () with
    | Failure msg | Invalid_argument msg ->
        Printf.eprintf "octant_shard: %s\n" msg;
        exit 1
  in
  let up =
    List.length
      (List.filter (fun b -> b.Octant_serve.Shard.bs_up) (Octant_serve.Shard.backend_stats front))
  in
  Printf.printf "octant_shard listening on %s:%d (%d/%d backends up)\n%!" host
    (Octant_serve.Shard.port front)
    up (List.length backends);
  let on_signal _ = Octant_serve.Shard.request_shutdown front in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Octant_serve.Shard.wait front;
  Printf.printf "octant_shard draining...\n%!";
  Octant_serve.Shard.stop front;
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
  Printf.printf "octant_shard stopped\n%!"

let main =
  Cmd.v
    (Cmd.info "octant_shard" ~version:"1.0.0"
       ~doc:"Sharded front for octant_served backends (consistent-hash fan-out)")
    Term.(
      const serve $ port_arg $ host_arg $ backends_arg $ vnodes_arg $ attempts_arg
      $ max_conns_arg $ drain_arg $ telemetry_arg)

let () = exit (Cmd.eval main)
