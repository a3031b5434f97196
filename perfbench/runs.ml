(* The four workloads.  Each builds its inputs from the fixture (timed as
   set-up), launches its servers, measures windows of a given length and
   finally checks every output it received. *)

module Json = Octant_serve.Json
module Protocol = Octant_serve.Protocol
module Pipeline = Octant.Pipeline
module Clock = Workload.Clock

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one measured window saw. *)
type window = {
  attempted : int;
  failed : int;
  throughput : float;  (** Operations per second. *)
  latency_p50_ms : float;  (** Of the workload's primary operation. *)
  latency_p90_ms : float;
  samples : int;  (** Latency samples behind the percentiles. *)
  extra : metric list;  (** Workload-specific figures, printed only. *)
}

(* Pooled percentiles, for windows of few, long operations. *)
let pooled ~attempted ~failed ~throughput lat =
  {
    attempted;
    failed;
    throughput;
    latency_p50_ms = Workload.median lat;
    latency_p90_ms = Workload.pct 90.0 lat;
    samples = Array.length lat;
    extra = [];
  }

(* Windows of many short operations are cut into stretches and each
   figure is the median over stretches (Gen.sliced): half-second ones for
   hot, two-second ones (enough updates for a p90) for stream. *)
let hot_slices = 10
let stream_slices = 5

(* What the fixed, seed-determined part of a workload's output says. *)
type verdict = {
  checks : (string * bool) list;
  error_median_mi : float;
  coverage_share : float;
}

type instance = {
  daemons : Child.t list;  (** The workload's own daemons. *)
  front : Child.t option;
  warm : unit -> unit;  (** Untimed; its outputs are checked with the rest. *)
  measure : seconds:float -> window;
  finish : unit -> verdict;  (** After every window; checks all outputs. *)
  sample : Ladder.sample;  (** The inputs the traced run pushes down the ladder. *)
}

type t = {
  name : string;
  launch : Workload.t -> unit -> instance;
      (** Applied to the fixture it generates the inputs (repeated for the
          set-up median, so it starts nothing); applied to [()] it starts
          the servers. *)
}

let status_failed answers codec =
  List.fold_left
    (fun n (a : Gen.answer) ->
      match Wire.decode codec a.Gen.payload with
      | Ok j when Protocol.status_of j = "ok" -> n
      | _ -> n + 1)
    0 answers

(* Every reply equals [ok_reply] of its reference estimate. *)
let replies_match codec answers ~id_of ~expected_of =
  List.for_all
    (fun (a : Gen.answer) ->
      match Wire.decode codec a.Gen.payload with
      | Ok reply -> Workload.reply_matches ~id:(id_of a.Gen.i) ~expected:(expected_of a.Gen.i) reply
      | Error _ -> false)
    answers

let accuracy_of w ests =
  Workload.accuracy w (Array.mapi (fun k e -> (Workload.target_of_request w k, e)) ests)

let num_id i = Json.Num (float_of_int i)

(* [f] over a fresh connection to a server child. *)
let with_conn codec child f =
  let conn = Wire.connect codec (Child.port child) in
  Fun.protect ~finally:(fun () -> Wire.close conn) (fun () -> f conn)

let wire_sample (reqs : Protocol.localize array) =
  { Ladder.observations = Array.map Protocol.observations_of reqs; undns = None; requests = reqs }

(* ---- study: the paper's evaluation, no serving ------------------------ *)

let study =
  let launch w =
    let observations = Workload.study_observations w in
    fun () ->
      let passes = ref [] in
      let measure ~seconds =
        let t0 = Clock.now () in
        let times = ref [] and failed = ref 0 in
        while !times = [] || Clock.since t0 < seconds do
          let results, dt =
            Workload.time (fun () ->
                let ctx = Workload.prepare w in
                Pipeline.localize_batch ~undns:Eval.Bridge.undns ~jobs:Workload.nproc ctx
                  observations)
          in
          passes := results :: !passes;
          failed := !failed + Array.fold_left (fun n r -> if Result.is_ok r then n else n + 1) 0 results;
          times := (1000.0 *. dt) :: !times
        done;
        let n = List.length !times * Array.length observations in
        pooled ~attempted:n ~failed:!failed
          ~throughput:(float_of_int n /. Clock.since t0)
          (Array.of_list !times)
      in
      let finish () =
        let sequential =
          Array.map
            (fun obs ->
              match Pipeline.localize_one ~undns:Eval.Bridge.undns w.Workload.ctx obs with
              | Ok e -> e
              | Error e -> failwith ("study reference failed: " ^ e))
            observations
        in
        let equal_sequential r =
          Array.for_all2
            (fun r s -> match r with Ok e -> Workload.same e s | Error _ -> false)
            r sequential
        in
        let error_median_mi, coverage_share = accuracy_of w sequential in
        {
          checks =
            [ ("every pass equals sequential localize_one", List.for_all equal_sequential !passes) ];
          error_median_mi;
          coverage_share;
        }
      in
      {
        daemons = [];
        front = None;
        warm = ignore;
        measure;
        finish;
        sample =
          {
            Ladder.observations;
            undns = Some Eval.Bridge.undns;
            requests =
              Array.mapi
                (fun k (o : Pipeline.observations) ->
                  Workload.localize_request ~id:k ~rtt_ms:o.Pipeline.target_rtt_ms
                    ~whois:o.Pipeline.whois_hint)
                observations;
          };
      }
  in
  { name = "study"; launch }

(* ---- cold: every request computed by one daemon ----------------------- *)

(* Enough distinct requests that a run never runs dry at today's speed
   several times over. *)
let cold_rounds = 40

let cold =
  let launch w =
    let requests = Workload.fresh_requests w ~rounds:cold_rounds in
    let frames = Array.map (fun r -> Wire.encode Wire.Octb (Protocol.Localize r)) requests in
    let n_targets = Workload.n_targets w in
    fun () ->
      let daemon = Child.daemon ~name:"daemon" ~ctx:w.Workload.ctx ~jobs:Workload.nproc () in
      (* Warm-up: the first [nproc] requests, untimed but checked with the
         rest. *)
      let cursor = ref 0 and answers = ref [] in
      let warm () =
        answers :=
          with_conn Wire.Octb daemon (fun conn ->
              Gen.closed conn (Gen.sequence cursor frames ~stop:(fun i -> i >= Workload.nproc)))
      in
      let measure ~seconds =
        let t_end = Clock.now () +. seconds in
        (* Stop at the deadline, but never before the first round (one
           request per target, the accuracy sample) is answered. *)
        let next =
          Gen.sequence cursor frames ~stop:(fun i -> i >= n_targets && Clock.now () >= t_end)
        in
        let conns = List.init Workload.nproc (fun _ -> Wire.connect Wire.Octb (Child.port daemon)) in
        let got =
          Fun.protect
            ~finally:(fun () -> List.iter Wire.close conns)
            (fun () -> List.concat (Gen.run (List.map (fun c -> Gen.lane c Gen.Closed next) conns)))
        in
        answers := got @ !answers;
        pooled ~attempted:(List.length got) ~failed:(status_failed got Wire.Octb)
          ~throughput:(Gen.rate got) (Gen.latencies got)
      in
      let finish () =
        let answered = List.sort (fun a b -> compare a.Gen.i b.Gen.i) !answers in
        let idx = Array.of_list (List.map (fun a -> a.Gen.i) answered) in
        let refs = Workload.references w (Array.map (fun i -> requests.(i)) idx) in
        let ref_of = Hashtbl.create (Array.length idx) in
        Array.iteri (fun j i -> Hashtbl.replace ref_of i refs.(j)) idx;
        let stats = Wire.stats (Child.port daemon) in
        let error_median_mi, coverage_share =
          accuracy_of w (Array.init n_targets (fun i -> Hashtbl.find ref_of i))
        in
        {
          checks =
            [
              ( "every reply equals the direct reference",
                replies_match Wire.Octb answered ~id_of:num_id ~expected_of:(Hashtbl.find ref_of) );
              ("cold: zero cache hits", Wire.num stats [ "cache"; "hits" ] = 0.0);
            ];
          error_median_mi;
          coverage_share;
        }
      in
      {
        daemons = [ daemon ];
        front = None;
        warm;
        measure;
        finish;
        sample = wire_sample (Array.sub requests 0 n_targets);
      }
  in
  { name = "cold"; launch }

(* ---- hot: cached replies through the front ---------------------------- *)

(* Offered load of the open-loop phase, requests per second over both
   connections: about a third of what the closed loop sustains on a
   2-core host, so queueing does not amplify the host's own drift. *)
let hot_rate = 1500.0

let hot =
  let launch w =
    let keys = Workload.fresh_requests w ~rounds:1 in
    let frames codec = Array.map (fun r -> Wire.encode codec (Protocol.Localize r)) keys in
    let json_frames = frames Wire.Json_lines and octb_frames = frames Wire.Octb in
    let nk = Array.length keys in
    fun () ->
      let a = Child.daemon ~name:"daemon-a" ~ctx:w.Workload.ctx ~jobs:Workload.nproc () in
      let b = Child.daemon ~name:"daemon-b" ~ctx:w.Workload.ctx ~jobs:Workload.nproc () in
      let front = Child.front ~name:"front" [ a; b ] in
      (* Every key into its backend's cache. *)
      let warm () = with_conn Wire.Octb front (fun conn -> Wire.pipeline conn octb_frames) in
      let answers = ref [] in
      let measure ~seconds =
        let codecs = [ (Wire.Json_lines, json_frames); (Wire.Octb, octb_frames) ] in
        let conns = List.map (fun (codec, _) -> Wire.connect codec (Child.port front)) codecs in
        (* Each connection cycles the keys; the open phase staggers the two
           schedules by half an interval. *)
        let lanes mode ~stop =
          List.mapi
            (fun j ((_, frames), conn) ->
              let k = ref 0 in
              let next () =
                if stop () then None
                else begin
                  incr k;
                  Some (!k, frames.(!k mod nk))
                end
              in
              Gen.lane ~phase:(0.5 *. float_of_int j) conn mode next)
            (List.combine codecs conns)
        in
        let per_conn = hot_rate /. float_of_int (List.length conns) in
        let opened, closed =
          Fun.protect
            ~finally:(fun () -> List.iter Wire.close conns)
            (fun () ->
              let opened =
                Gen.run ~seconds:(seconds /. 2.0) (lanes (Gen.Open per_conn) ~stop:(fun () -> false))
              in
              let t_end = Clock.now () +. (seconds /. 2.0) in
              (opened, Gen.run (lanes Gen.Closed ~stop:(fun () -> Clock.now () >= t_end))))
        in
        let per_codec = List.map2 (fun (codec, _) (o, c) -> (codec, o @ c)) codecs (List.combine opened closed) in
        answers := per_codec @ !answers;
        let opened = List.concat opened and closed = List.concat closed in
        let open_ms = Gen.latencies opened in
        let late_ms =
          Array.of_list (List.map (fun a -> 1000.0 *. (a.Gen.sent -. a.Gen.due)) opened)
        in
        {
          attempted = List.length opened + List.length closed;
          failed = List.fold_left (fun n (codec, got) -> n + status_failed got codec) 0 per_codec;
          throughput = Gen.sliced_rate ~slices:hot_slices closed;
          latency_p50_ms = Gen.sliced_pct ~slices:hot_slices 50.0 opened;
          latency_p90_ms = Gen.sliced_pct ~slices:hot_slices 90.0 opened;
          samples = List.length opened;
          extra =
            [
              metric "latency_p99_ms" "ms" (Workload.pct 99.0 open_ms);
              metric "late_p99_ms" "ms" (Workload.pct 99.0 late_ms);
              metric "offered_per_s" "1/s" hot_rate;
              metric "closed_latency_p50_ms" "ms" (Workload.median (Gen.latencies closed));
            ];
        }
      in
      let finish () =
        let refs = Workload.references w keys in
        let error_median_mi, coverage_share = accuracy_of w refs in
        {
          checks =
            [
              ( "every reply equals the direct reference",
                List.for_all
                  (fun (codec, got) ->
                    replies_match codec got
                      ~id_of:(fun i -> num_id (i mod nk))
                      ~expected_of:(fun i -> refs.(i mod nk)))
                  !answers );
            ];
          error_median_mi;
          coverage_share;
        }
      in
      { daemons = [ a; b ]; front = Some front; warm; measure; finish; sample = wire_sample keys }
  in
  { name = "hot"; launch }

(* ---- stream: live updates next to one-shot reads ----------------------- *)

let stream_sessions = 3
let stream_feed_cap = 4000

(* The reader's think time: one key every 80 ms, the whole key set every
   two seconds. *)
let read_gap_s = 0.08

let stream =
  let launch w =
    let keys = Workload.fresh_requests w ~rounds:1 in
    let nk = Array.length keys in
    let ns = min stream_sessions nk in
    let target k = Printf.sprintf "t%d" k in
    let update ~id ~k ~epoch ?base ?(delta = [||]) ?retire () =
      {
        Protocol.u_id = num_id id;
        u_target = target k;
        u_epoch = epoch;
        u_base = base;
        u_delta = delta;
        u_retire_upto = retire;
        u_whois = (match base with Some _ -> keys.(k).Protocol.whois | None -> None);
      }
    in
    let opens =
      Array.init ns (fun k -> update ~id:(-1 - k) ~k ~epoch:0 ~base:keys.(k).Protocol.rtt_ms ())
    in
    let feed =
      Array.init stream_feed_cap (fun j ->
          let k = j mod ns and n = (j / ns) + 1 in
          update ~id:j ~k ~epoch:n
            ~delta:(Workload.delta w k ~count:Workload.delta_landmarks)
            ?retire:(Workload.retire_upto n) ())
    in
    let feed_frames = Array.map (fun u -> Wire.encode Wire.Octb (Protocol.Update u)) feed in
    let read_frames = Array.map (fun r -> Wire.encode Wire.Json_lines (Protocol.Localize r)) keys in
    fun () ->
      let daemon = Child.daemon ~name:"daemon" ~ctx:w.Workload.ctx ~jobs:Workload.nproc () in
      let next_update = ref 0 and next_read = ref 0 in
      let open_replies = ref [||] and updates = ref [] and reads = ref [] in
      (* Open the sessions, cache every read key, and feed two retire
         cycles, so the measured windows see sessions in steady state. *)
      let warm () =
        with_conn Wire.Json_lines daemon (fun conn ->
            open_replies := Array.map (fun u -> Wire.call conn (Protocol.Update u)) opens;
            Wire.pipeline conn read_frames);
        let cycles = 2 * Workload.retire_every * ns in
        updates :=
          with_conn Wire.Octb daemon (fun conn ->
              Gen.closed conn (Gen.sequence next_update feed_frames ~stop:(fun i -> i >= cycles)))
      in
      let measure ~seconds =
        let t_end = Clock.now () +. seconds in
        let writing = ref true and reads_start = !next_read in
        let feed_next = Gen.sequence next_update feed_frames ~stop:(fun _ -> Clock.now () >= t_end) in
        let write () =
          let r = feed_next () in
          if r = None then writing := false;
          r
        in
        (* Reads go on while updates do, and at least once over every key. *)
        let read () =
          if !writing || !next_read - reads_start < nk then begin
            let i = !next_read in
            incr next_read;
            Some (i, read_frames.(i mod nk))
          end
          else None
        in
        let writer = Wire.connect Wire.Octb (Child.port daemon) in
        let reader = Wire.connect Wire.Json_lines (Child.port daemon) in
        match
          Fun.protect
            ~finally:(fun () -> Wire.close writer; Wire.close reader)
            (fun () ->
              Gen.run [ Gen.lane writer Gen.Closed write; Gen.lane reader (Gen.Paced read_gap_s) read ])
        with
        | [ u; r ] ->
            updates := !updates @ u;
            reads := !reads @ r;
            let read_ms = Gen.latencies r in
            let retiring, folding =
              List.partition (fun a -> feed.(a.Gen.i).Protocol.u_retire_upto <> None) u
            in
            {
              attempted = List.length u + List.length r;
              failed = status_failed u Wire.Octb + status_failed r Wire.Json_lines;
              throughput = Gen.sliced_rate ~slices:stream_slices u;
              latency_p50_ms = Gen.sliced_pct ~slices:stream_slices 50.0 u;
              latency_p90_ms = Gen.sliced_pct ~slices:stream_slices 90.0 u;
              samples = List.length u;
              extra =
                [
                  metric "read_latency_p50_ms" "ms" (Workload.median read_ms);
                  metric "read_latency_p90_ms" "ms" (Workload.pct 90.0 read_ms);
                  metric "reads" "count" (float_of_int (List.length r));
                  metric "fold_latency_p50_ms" "ms" (Workload.median (Gen.latencies folding));
                  metric "fold_latency_p90_ms" "ms" (Workload.pct 90.0 (Gen.latencies folding));
                  metric "retire_latency_p50_ms" "ms" (Workload.median (Gen.latencies retiring));
                ];
            }
        | _ -> assert false
      in
      let finish () =
        (* The local mirror: one session per target, fed the same quantized
           frames in the same order. *)
        let mirror = Hashtbl.create ns in
        let opens_ok =
          Array.for_all2
            (fun (u : Protocol.update) reply ->
              let s, est =
                Pipeline.Session.create ~epoch:0 w.Workload.ctx
                  (Option.get (Protocol.base_observations_of u))
              in
              Hashtbl.replace mirror u.Protocol.u_target s;
              Workload.reply_matches ~id:u.Protocol.u_id ~expected:est reply)
            opens !open_replies
        in
        let apply (u : Protocol.update) =
          let s = Hashtbl.find mirror u.Protocol.u_target in
          let est =
            Pipeline.Session.fold s
              { Pipeline.Session.d_rtts = Protocol.quantized_delta u; d_epoch = u.Protocol.u_epoch }
          in
          match u.Protocol.u_retire_upto with
          | Some upto -> Pipeline.Session.retire s ~upto_epoch:upto
          | None -> est
        in
        let updates_ok =
          opens_ok
          && List.for_all
               (fun (a : Gen.answer) ->
                 let u = feed.(a.Gen.i) in
                 match Wire.decode Wire.Octb a.Gen.payload with
                 | Ok reply -> Workload.reply_matches ~id:u.Protocol.u_id ~expected:(apply u) reply
                 | Error _ -> false)
               !updates
        in
        let refs = Workload.references w keys in
        let error_median_mi, coverage_share = accuracy_of w refs in
        {
          checks =
            [
              ("every update reply equals the local session mirror", updates_ok);
              ( "every read equals the direct reference",
                replies_match Wire.Json_lines !reads
                  ~id_of:(fun i -> num_id (i mod nk))
                  ~expected_of:(fun i -> refs.(i mod nk)) );
            ];
          error_median_mi;
          coverage_share;
        }
      in
      { daemons = [ daemon ]; front = None; warm; measure; finish; sample = wire_sample keys }
  in
  { name = "stream"; launch }

let all = [ study; cold; hot; stream ]
