(* The fixture every workload and the traced run share.

   One PlanetLab-style deployment (the "world"), split the way
   Eval.Adversarial splits it: even hosts are landmarks, odd hosts are
   targets, so both sets span every continent.  The world seed is fixed
   per benchmark (--world); the run seed (--seed) drives every probe the
   workloads send.  Requests come from fresh probe rounds (min-of-10
   probes per landmark -> target, drawn from the run seed's stream); the
   campaign matrix in Eval.Bridge would hand back the same cached row on
   every call.  The module also holds ground truth, the bit-identity
   comparator and the one clock every timestamp in the benchmark is read
   from. *)

module Json = Octant_serve.Json
module Protocol = Octant_serve.Protocol
module Pipeline = Octant.Pipeline
module Bridge = Eval.Bridge

module Clock = struct
  (* CLOCK_MONOTONIC in nanoseconds, as seconds from an arbitrary origin. *)
  let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
  let since t0 = now () -. t0
end

let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.since t0)

let nproc = Domain.recommended_domain_count ()

type size = Full | Tiny

let hosts_of_size = function Full -> 51 | Tiny -> 15

type t = {
  bridge : Bridge.t;
  landmarks : int array;  (** Host indices: the even hosts. *)
  targets : int array;  (** Host indices: the odd hosts. *)
  ctx : Pipeline.context;
  truths : Geo.Geodesy.coord array;  (** Per target. *)
  whois : Geo.Geodesy.coord option array;  (** Per target. *)
  probes : Stats.Rng.t;  (** The run seed's probe stream. *)
}

let n_targets t = Array.length t.targets
let n_landmarks t = Array.length t.landmarks
let deployment t = Bridge.deployment t.bridge
let host t i = Bridge.host_id t.bridge i

let localize_request ~id ~rtt_ms ~whois =
  { Protocol.id = Json.Num (float_of_int id); rtt_ms; whois; deadline_ms = None; want_audit = false }

(* Heights and calibrations for the landmarks, from the campaign's
   inter-landmark RTTs. *)
let prepare_context bridge landmarks =
  Pipeline.prepare
    ~landmarks:(Bridge.landmarks_for bridge ~exclude:(-1) landmarks)
    ~inter_landmark_rtt_ms:(Bridge.inter_rtt_for bridge landmarks)
    ()

(* Deployment, measurement campaign, context.  Nothing here creates a
   domain or a thread, so server children can still be forked after it. *)
let make ~size ~world ~seed =
  let deployment = Netsim.Deployment.make ~seed:world ~n_hosts:(hosts_of_size size) () in
  let bridge = Bridge.create deployment in
  let n = Bridge.host_count bridge in
  let landmarks = Array.init ((n + 1) / 2) (fun i -> 2 * i) in
  let targets = Array.init (n / 2) (fun k -> (2 * k) + 1) in
  let ctx = prepare_context bridge landmarks in
  let whois =
    Array.map
      (fun target ->
        (Bridge.observations ~with_traceroutes:false bridge ~landmark_indices:landmarks ~target)
          .Pipeline.whois_hint)
      targets
  in
  {
    bridge;
    landmarks;
    targets;
    ctx;
    truths = Array.map (Bridge.position bridge) targets;
    whois;
    probes = Stats.Rng.create seed;
  }

let prepare t = prepare_context t.bridge t.landmarks

(* Min of 10 fresh probes from landmark index [li] to target [k].  The
   probes a workload asks for, in the order it asks for them, are a pure
   function of the run seed. *)
let probe t li k =
  Netsim.Measure.min_rtt
    (Netsim.Deployment.topology (deployment t))
    t.probes ~src:(host t t.landmarks.(li)) ~dst:(host t t.targets.(k))

let fresh_rtts t k = Array.init (n_landmarks t) (fun li -> probe t li k)

(* [rounds] fresh rounds over every target, ids numbered in send order.
   Request [i] is for target [i mod n_targets]. *)
let fresh_requests t ~rounds =
  let nt = n_targets t in
  Array.init (rounds * nt) (fun i ->
      localize_request ~id:i ~rtt_ms:(fresh_rtts t (i mod nt)) ~whois:t.whois.(i mod nt))

let target_of_request t i = i mod n_targets t

(* Full observations: one fresh RTT round plus the world's traceroutes,
   router RTTs and WHOIS hints — the paper's study input, which the wire
   protocol cannot carry. *)
let study_observations t =
  Array.mapi
    (fun k target ->
      let obs = Bridge.observations t.bridge ~landmark_indices:t.landmarks ~target in
      { obs with Pipeline.target_rtt_ms = fresh_rtts t k })
    t.targets

(* A sparse re-measurement of [count] distinct landmarks of target [k]:
   (landmark index, fresh RTT), landmarks drawn from the probe stream. *)
let delta t k ~count =
  let picked = ref [] in
  while List.length !picked < count do
    let li = Stats.Rng.int t.probes (n_landmarks t) in
    if not (List.mem li !picked) then picked := li :: !picked
  done;
  List.sort compare !picked |> List.map (fun li -> (li, probe t li k)) |> Array.of_list

(* The stream feed's shape: each update re-measures [delta_landmarks]
   landmarks, and every [retire_every]-th update of a target retires the
   epochs more than [retire_every] behind it — a sliding window. *)
let delta_landmarks = 2
let retire_every = 8
let retire_upto n = if n mod retire_every = 0 then Some (n - retire_every) else None

(* ---- bit identity ---------------------------------------------------- *)

(* Every estimate field the wire carries, in wire form: floats compare by
   bit pattern.  Only [solve_time_s], a stopwatch reading, is left out. *)
let fingerprint est = Protocol.ok_reply ~id:Json.Null ~cached:false ~audit:None est
let same a b = Json.equal (fingerprint a) (fingerprint b)

(* A wire reply is right iff it is [ok_reply] of the reference estimate
   with the request's id; only [cached] may be either. *)
let reply_matches ~id ~expected reply =
  let cached = match Json.member "cached" reply with Some (Json.Bool b) -> b | _ -> false in
  Json.equal reply (Protocol.ok_reply ~id ~cached ~audit:None expected)

(* Reference estimates for wire requests, exactly as the daemon computes
   them. *)
let references t (reqs : Protocol.localize array) =
  Pipeline.localize_batch ~jobs:nproc t.ctx (Array.map Protocol.observations_of reqs)
  |> Array.map (function Ok est -> est | Error e -> failwith ("reference failed: " ^ e))

(* ---- accuracy against ground truth ----------------------------------- *)

(* (median error in miles, share of truths inside their region) over
   estimates tagged with their target index. *)
let accuracy t (ests : (int * Octant.Estimate.t) array) =
  let errors = Array.map (fun (k, e) -> Octant.Estimate.error_miles e t.truths.(k)) ests in
  let covered =
    Array.fold_left
      (fun n (k, e) -> if Octant.Estimate.covers e t.truths.(k) then n + 1 else n)
      0 ests
  in
  (Stats.Sample.median errors, float_of_int covered /. float_of_int (Array.length ests))

(* ---- summaries ------------------------------------------------------- *)

let pct p xs = if xs = [||] then nan else Stats.Sample.percentile p xs
let median xs = pct 50.0 xs
