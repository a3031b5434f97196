(* Command-line front end for the Octant reproduction.

   Subcommands mirror the experiment surface:

     octant_cli localize --seed 7 --hosts 51 --target 3
     octant_cli calibrate --seed 7 --hosts 51 --landmark 0
     octant_cli study --seed 7 --hosts 51
     octant_cli sweep --seed 7 --counts 10,20,30,40,50
     octant_cli ablation --seed 7 --hosts 51 *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Deployment random seed.")

let hosts_arg =
  Arg.(value & opt int 51 & info [ "hosts" ] ~docv:"N" ~doc:"Number of deployed hosts.")

let probes_arg =
  Arg.(value & opt int 10 & info [ "probes" ] ~docv:"K" ~doc:"Ping probes per measurement.")

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= 0 -> Ok j
    | Some _ -> Error (`Msg "must be >= 0 (0 = one domain per core)")
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv 0
    & info [ "jobs" ] ~docv:"J"
        ~doc:
          "Localization domains. 0 (the default) uses one per available \
           core; results are identical at every setting.")

(* 0 = auto: let the library pick Domain.recommended_domain_count. *)
let jobs_opt = function 0 -> None | j -> Some j

let harden_arg =
  Arg.(
    value & flag
    & info [ "harden" ]
        ~doc:
          "Enable Byzantine-landmark hardening: consistency-score each \
           landmark's latency constraint against the median-of-means \
           consensus region, down-weight repeat offenders before they reach \
           the solver, and trim far-flung weight-band cells at estimate \
           extraction.")

let harden_opt hardened = if hardened then Some Octant.Harden.default else None

(* --- telemetry --- *)

type telemetry_mode = Tree | Json_stdout | Json_file of string

let telemetry_arg =
  let parse = function
    | "tree" -> Ok Tree
    | "json" -> Ok Json_stdout
    | s when String.starts_with ~prefix:"json:" s ->
        Ok (Json_file (String.sub s 5 (String.length s - 5)))
    | s -> Error (`Msg (Printf.sprintf "invalid telemetry mode %S (tree | json | json:FILE)" s))
  in
  let print fmt = function
    | Tree -> Format.pp_print_string fmt "tree"
    | Json_stdout -> Format.pp_print_string fmt "json"
    | Json_file f -> Format.fprintf fmt "json:%s" f
  in
  Arg.(
    value
    & opt ~vopt:(Some Tree) (some (conv (parse, print))) None
    & info [ "telemetry" ] ~docv:"MODE"
        ~doc:
          "Collect pipeline telemetry and report it after the run: $(b,tree) \
           (human-readable; the default when the flag is bare), $(b,json) (JSON \
           to stdout), or $(b,json:FILE) (JSON to a file).")

(* Enable collection around [f] and emit the snapshot afterwards, also on
   exceptions (a crashed run's partial counters are exactly what you want
   to see). *)
let with_telemetry mode f =
  match mode with
  | None -> f ()
  | Some mode ->
      Octant.Telemetry.reset ();
      Octant.Telemetry.enable ();
      let finally () =
        Octant.Telemetry.disable ();
        let snap = Octant.Telemetry.snapshot () in
        match mode with
        | Tree -> Format.printf "@.%a@." Octant.Telemetry.pp_tree snap
        | Json_stdout -> print_endline (Octant.Telemetry.to_json snap)
        | Json_file path ->
            let oc = open_out path in
            output_string oc (Octant.Telemetry.to_json snap);
            output_char oc '\n';
            close_out oc;
            Printf.eprintf "telemetry written to %s\n" path
      in
      Fun.protect ~finally f

let mk_bridge seed n_hosts probes =
  let deployment = Netsim.Deployment.make ~seed ~n_hosts () in
  (deployment, Eval.Bridge.create ~probes deployment)

(* --- localize --- *)

let localize seed hosts probes target no_piecewise no_geo harden telemetry =
  with_telemetry telemetry @@ fun () ->
  let deployment, bridge = mk_bridge seed hosts probes in
  let n = Eval.Bridge.host_count bridge in
  if target < 0 || target >= n then begin
    Printf.eprintf "target must be in [0, %d)\n" n;
    exit 1
  end;
  let all = Array.init n Fun.id in
  let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:target all in
  let lm_indices = Array.of_list (List.filter (fun i -> i <> target) (Array.to_list all)) in
  let inter = Eval.Bridge.inter_rtt_for bridge lm_indices in
  let obs = Eval.Bridge.observations bridge ~landmark_indices:all ~target in
  let config =
    {
      Octant.Pipeline.default_config with
      Octant.Pipeline.use_piecewise = not no_piecewise;
      use_land_mask = not no_geo;
      whois_weight = (if no_geo then 0.0 else Octant.Pipeline.default_config.Octant.Pipeline.whois_weight);
      harden = harden_opt harden;
    }
  in
  let ctx = Octant.Pipeline.prepare ~config ~landmarks ~inter_landmark_rtt_ms:inter () in
  let est, audit =
    if telemetry = None then (Octant.Pipeline.localize ~undns:Eval.Bridge.undns ctx obs, [])
    else Octant.Pipeline.localize_audited ~undns:Eval.Bridge.undns ctx obs
  in
  let truth = Eval.Bridge.position bridge target in
  let city = Netsim.Deployment.host_city deployment (Eval.Bridge.host_id bridge target) in
  Printf.printf "target:      host %d in %s (%.3f, %.3f)\n" target city.Netsim.City.name
    truth.Geo.Geodesy.lat truth.Geo.Geodesy.lon;
  Printf.printf "estimate:    (%.3f, %.3f)\n" est.Octant.Estimate.point.Geo.Geodesy.lat
    est.Octant.Estimate.point.Geo.Geodesy.lon;
  Printf.printf "error:       %.1f miles\n" (Octant.Estimate.error_miles est truth);
  Printf.printf "region:      %.0f sq mi across %d cells (covers truth: %b)\n"
    (Octant.Estimate.region_area_sq_miles est)
    est.Octant.Estimate.cells_used
    (Octant.Estimate.covers est truth);
  Printf.printf "height:      %.2f ms\n" est.Octant.Estimate.target_height_ms;
  Printf.printf "constraints: %d\n" est.Octant.Estimate.constraints_used;
  Printf.printf "time:        %.2f s\n" est.Octant.Estimate.solve_time_s;
  if audit <> [] then begin
    Printf.printf "\nconstraint audit (%d constraints, solver order):\n" (List.length audit);
    List.iter
      (fun (e : Octant.Telemetry.Audit.entry) ->
        Printf.printf "  %-34s w=%.2f %-8s cells %3d -> %3d (%d split, %d dropped)%s\n"
          e.Octant.Telemetry.Audit.source e.Octant.Telemetry.Audit.weight
          e.Octant.Telemetry.Audit.polarity e.Octant.Telemetry.Audit.cells_before
          e.Octant.Telemetry.Audit.cells_after e.Octant.Telemetry.Audit.splits
          e.Octant.Telemetry.Audit.dropped
          (if e.Octant.Telemetry.Audit.shrank then "" else "  [kept everything]"))
      audit
  end

let localize_cmd =
  let target =
    Arg.(value & opt int 0 & info [ "target" ] ~docv:"I" ~doc:"Host index to localize.")
  in
  let no_piecewise =
    Arg.(value & flag & info [ "no-piecewise" ] ~doc:"Disable piecewise router localization.")
  in
  let no_geo = Arg.(value & flag & info [ "no-geo" ] ~doc:"Disable geographic constraints.") in
  Cmd.v
    (Cmd.info "localize" ~doc:"Localize one host of a simulated deployment")
    Term.(
      const localize $ seed_arg $ hosts_arg $ probes_arg $ target $ no_piecewise $ no_geo
      $ harden_arg $ telemetry_arg)

(* --- calibrate --- *)

let calibrate seed hosts probes landmark =
  let _, bridge = mk_bridge seed hosts probes in
  let n = Eval.Bridge.host_count bridge in
  let all = Array.init n Fun.id in
  let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:(-1) all in
  let inter = Eval.Bridge.inter_rtt_for bridge all in
  let ctx = Octant.Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  Eval.Report.print_figure2 (Octant.Pipeline.calibration ctx landmark)

let calibrate_cmd =
  let landmark =
    Arg.(value & opt int 0 & info [ "landmark" ] ~docv:"I" ~doc:"Landmark index to calibrate.")
  in
  Cmd.v
    (Cmd.info "calibrate" ~doc:"Print one landmark's latency-distance calibration (Figure 2)")
    Term.(const calibrate $ seed_arg $ hosts_arg $ probes_arg $ landmark)

(* --- study --- *)

let study seed hosts probes jobs harden telemetry =
  with_telemetry telemetry @@ fun () ->
  let config = { Octant.Pipeline.default_config with Octant.Pipeline.harden = harden_opt harden } in
  let s = Eval.Study.run ~config ~seed ~n_hosts:hosts ~probes ?jobs:(jobs_opt jobs) () in
  Eval.Report.print_figure3 s;
  print_newline ();
  Eval.Report.print_timing s

let study_cmd =
  Cmd.v
    (Cmd.info "study" ~doc:"Leave-one-out comparison of all methods (Figure 3)")
    Term.(
      const study $ seed_arg $ hosts_arg $ probes_arg $ jobs_arg $ harden_arg $ telemetry_arg)

(* --- sweep --- *)

let sweep seed hosts counts jobs harden telemetry =
  with_telemetry telemetry @@ fun () ->
  let landmark_counts =
    String.split_on_char ',' counts |> List.map String.trim |> List.map int_of_string
  in
  let config = { Octant.Pipeline.default_config with Octant.Pipeline.harden = harden_opt harden } in
  let s = Eval.Sweep.run ~config ~seed ~n_hosts:hosts ~landmark_counts ?jobs:(jobs_opt jobs) () in
  Eval.Report.print_figure4 s

let sweep_cmd =
  let counts =
    Arg.(
      value
      & opt string "10,15,20,25,30,35,40,45,50"
      & info [ "counts" ] ~docv:"LIST" ~doc:"Comma-separated landmark counts.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Coverage vs number of landmarks (Figure 4)")
    Term.(
      const sweep $ seed_arg $ hosts_arg $ counts $ jobs_arg $ harden_arg $ telemetry_arg)

(* --- ablation --- *)

let ablation seed hosts =
  Eval.Report.print_ablation (Eval.Ablation.run ~seed ~n_hosts:hosts ())

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation" ~doc:"Disable each Octant mechanism in turn")
    Term.(const ablation $ seed_arg $ hosts_arg)

(* --- stream --- *)

(* Replay a recorded observation feed through the persistent session API.
   The feed is newline-delimited JSON in the daemon's own update-frame
   shape ({!Octant_serve.Protocol}), one frame per line:

     {"op":"update","target_id":"t1","epoch":0,"rtt_ms":[12.3,...]}
     {"op":"update","target_id":"t1","epoch":1,"delta":[[3,17.2],[5,9.1]]}
     {"op":"update","target_id":"t1","retire_upto":0}

   Each applied frame prints the per-update estimate delta: how far the
   point estimate moved, how the region changed, and the session's live
   evidence.  --verify re-solves the session's constraint log from
   scratch after every frame and fails on any divergence — the prefix
   -parity contract, checkable on any recorded feed. *)
let stream seed hosts probes feed verify harden telemetry =
  with_telemetry telemetry @@ fun () ->
  let module Protocol = Octant_serve.Protocol in
  let module Json = Octant_serve.Json in
  let _, bridge = mk_bridge seed hosts probes in
  let n = Eval.Bridge.host_count bridge in
  let all = Array.init n Fun.id in
  let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:(-1) all in
  let inter = Eval.Bridge.inter_rtt_for bridge all in
  let config = { Octant.Pipeline.default_config with Octant.Pipeline.harden = harden_opt harden } in
  let ctx = Octant.Pipeline.prepare ~config ~landmarks ~inter_landmark_rtt_ms:inter () in
  let sessions = Octant_serve.Lru.create ~capacity:1024 () in
  let prev : (string, Octant.Estimate.t) Hashtbl.t = Hashtbl.create 8 in
  let fail line_no fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s:%d: %s\n" feed line_no msg;
        exit 1)
      fmt
  in
  let estimates_equal (a : Octant.Estimate.t) (b : Octant.Estimate.t) =
    a.Octant.Estimate.point = b.Octant.Estimate.point
    && a.Octant.Estimate.point_plane = b.Octant.Estimate.point_plane
    && a.Octant.Estimate.area_km2 = b.Octant.Estimate.area_km2
    && a.Octant.Estimate.top_weight = b.Octant.Estimate.top_weight
    && a.Octant.Estimate.cells_used = b.Octant.Estimate.cells_used
    && a.Octant.Estimate.constraints_used = b.Octant.Estimate.constraints_used
    && a.Octant.Estimate.target_height_ms = b.Octant.Estimate.target_height_ms
  in
  let report line_no kind target (est : Octant.Estimate.t) session =
    let moved =
      match Hashtbl.find_opt prev target with
      | Some p -> Geo.Geodesy.distance_km p.Octant.Estimate.point est.Octant.Estimate.point
      | None -> 0.0
    in
    Hashtbl.replace prev target est;
    Printf.printf
      "%4d  %-6s %-12s (%8.3f, %9.3f)  moved %8.2f km  area %12.0f km2  live %3d  cells %3d\n%!"
      line_no kind target est.Octant.Estimate.point.Geo.Geodesy.lat
      est.Octant.Estimate.point.Geo.Geodesy.lon moved est.Octant.Estimate.area_km2
      (Octant.Pipeline.Session.live_constraints session)
      est.Octant.Estimate.cells_used;
    if verify then begin
      let replay = Octant.Pipeline.Session.replay_estimate session in
      if not (estimates_equal est replay) then
        fail line_no "prefix parity violated for %S: incremental and batch replay diverged"
          target
    end
  in
  let apply line_no (u : Protocol.update) =
    match Protocol.base_observations_of u with
    | Some obs ->
        let session, est =
          try Octant.Pipeline.Session.create ~epoch:u.Protocol.u_epoch ctx obs
          with Invalid_argument msg -> fail line_no "bad base observations: %s" msg
        in
        let est =
          match u.Protocol.u_retire_upto with
          | Some upto -> Octant.Pipeline.Session.retire session ~upto_epoch:upto
          | None -> est
        in
        ignore (Octant_serve.Lru.add sessions u.Protocol.u_target session);
        report line_no "base" u.Protocol.u_target est session
    | None -> (
        match Octant_serve.Lru.find sessions u.Protocol.u_target with
        | None -> fail line_no "unknown session %S (no prior base frame)" u.Protocol.u_target
        | Some session ->
            let delta = Protocol.quantized_delta u in
            let est = ref (Octant.Pipeline.Session.estimate session) in
            (try
               if Array.length delta > 0 then
                 est :=
                   Octant.Pipeline.Session.fold session
                     {
                       Octant.Pipeline.Session.d_rtts = delta;
                       d_epoch = u.Protocol.u_epoch;
                     }
             with Invalid_argument msg -> fail line_no "bad delta: %s" msg);
            (match u.Protocol.u_retire_upto with
            | Some upto -> est := Octant.Pipeline.Session.retire session ~upto_epoch:upto
            | None -> ());
            let kind = if Array.length delta > 0 then "delta" else "retire" in
            report line_no kind u.Protocol.u_target !est session)
  in
  let ic = try open_in feed with Sys_error e -> Printf.eprintf "%s\n" e; exit 1 in
  let line_no = ref 0 and applied = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       if String.trim line <> "" then begin
         match Json.of_string line with
         | Error e -> fail !line_no "bad frame: %s" e
         | Ok json -> (
             match Protocol.parse_request json with
             | Error e -> fail !line_no "bad request: %s" e
             | Ok (Protocol.Update u) ->
                 apply !line_no u;
                 incr applied
             | Ok _ -> fail !line_no "feed frames must be updates (op=\"update\")")
       end
     done
   with End_of_file -> ());
  close_in ic;
  Printf.printf "replayed %d updates across %d live sessions%s\n" !applied
    (Octant_serve.Lru.length sessions)
    (if verify then " (prefix parity verified)" else "")

let stream_cmd =
  let feed =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FEED"
          ~doc:
            "Recorded observation feed: newline-delimited JSON update frames in the \
             daemon's wire shape.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "After every applied frame, re-solve the session's constraint log from \
             scratch and fail on any divergence from the incremental estimate.")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"Replay a recorded observation feed through persistent solver sessions")
    Term.(
      const stream $ seed_arg $ hosts_arg $ probes_arg $ feed $ verify $ harden_arg
      $ telemetry_arg)

let main =
  Cmd.group
    (Cmd.info "octant_cli" ~version:"1.0.0"
       ~doc:"Octant geolocalization framework — reproduction CLI")
    [ localize_cmd; calibrate_cmd; study_cmd; sweep_cmd; ablation_cmd; stream_cmd ]

let () = exit (Cmd.eval main)
