(* Server children.  Every daemon and the front run in a child process
   forked before the benchmark creates any domain or thread (OCaml 5
   refuses Unix.fork once a second domain exists), so the load
   generator never shares a runtime lock with the servers.

   A child listens, reports its port on a pipe and then blocks reading a
   control pipe: 'T' resets and enables telemetry (acknowledged), end of
   file stops the server.  A child that closes with telemetry never
   enabled must have recorded zero events; it exits 3 otherwise, so an
   untraced run can prove its numbers were taken with tracing off.  A
   parent that dies closes the control pipe too, so no child outlives
   the benchmark. *)

module Telemetry = Obs.Telemetry
module Server = Octant_serve.Server
module Shard = Octant_serve.Shard

type t = { name : string; pid : int; port : int; ctl : Unix.file_descr; ack : in_channel }

let name c = c.name
let port c = c.port

(* Parent-side pipe ends of the children still running: a new child must
   close them, or an older child would never see its control pipe close. *)
let live : t list ref = ref []

let child_main ~traced ~start ~ctl ~ack =
  let set_trace () =
    Telemetry.reset ();
    Telemetry.enable ()
  in
  if traced then set_trace () else Telemetry.disable ();
  let port, stop = start () in
  let out = Unix.out_channel_of_descr ack in
  Printf.fprintf out "%d\n%!" port;
  let byte = Bytes.create 1 in
  let rec serve traced =
    match Unix.read ctl byte 0 1 with
    | 0 -> traced
    | _ ->
        if Bytes.get byte 0 = 'T' then begin
          set_trace ();
          output_string out "T\n";
          flush out;
          serve true
        end
        else serve traced
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> serve traced
  in
  let traced = serve traced in
  stop ();
  if traced || Telemetry.total_events (Telemetry.snapshot ()) = 0 then 0 else 3

let spawn ~name ~traced start =
  flush_all ();
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  let ack_r, ack_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close ctl_w;
      Unix.close ack_r;
      List.iter
        (fun c ->
          (try Unix.close c.ctl with Unix.Unix_error _ -> ());
          close_in_noerr c.ack)
        !live;
      let code =
        try child_main ~traced ~start ~ctl:ctl_r ~ack:ack_w
        with e ->
          Printf.eprintf "%s: %s\n%!" name (Printexc.to_string e);
          2
      in
      Unix._exit code
  | pid ->
      Unix.close ctl_r;
      Unix.close ack_w;
      let ack = Unix.in_channel_of_descr ack_r in
      let port =
        match int_of_string_opt (input_line ack) with
        | Some p -> p
        | None | (exception End_of_file) -> failwith (name ^ " did not start")
      in
      let c = { name; pid; port; ctl = ctl_w; ack } in
      live := c :: !live;
      c

let daemon ?(traced = false) ~name ~ctx ~jobs () =
  spawn ~name ~traced (fun () ->
      let config = { Server.default_config with Server.jobs = Some jobs } in
      let srv = Server.start ~config ~ctx () in
      (Server.port srv, fun () -> Server.stop srv))

let front ?(traced = false) ~name backends =
  spawn ~name ~traced (fun () ->
      let config =
        {
          Shard.default_config with
          Shard.backends = List.map (fun b -> ("127.0.0.1", b.port)) backends;
        }
      in
      let front = Shard.start ~config () in
      (Shard.port front, fun () -> Shard.stop front))

let enable_trace c =
  ignore (Unix.write_substring c.ctl "T" 0 1);
  if input_line c.ack <> "T" then failwith (c.name ^ ": trace switch not acknowledged")

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* Stop a child and reap it: its exit code, or 9 when it had to be killed. *)
let stop c =
  live := List.filter (fun d -> d.pid <> c.pid) !live;
  (try Unix.close c.ctl with Unix.Unix_error _ -> ());
  let deadline = Workload.Clock.now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ ->
        if Workload.Clock.now () > deadline then begin
          Unix.kill c.pid Sys.sigkill;
          ignore (Unix.waitpid [] c.pid);
          9
        end
        else begin
          Unix.sleepf 0.01;
          reap ()
        end
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 9
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  let code = reap () in
  close_in_noerr c.ack;
  code
