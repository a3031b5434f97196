type t = {
  bridge : Bridge.t;
  landmarks : int array;
  targets : int array;
  ctx : Octant.Pipeline.context;
  probes : Stats.Rng.t;
}

let make ~world ~seed =
  let bridge = Bridge.create (Netsim.Deployment.make ~seed:world ~n_hosts:51 ()) in
  let n = Bridge.host_count bridge in
  let landmarks = Array.init ((n + 1) / 2) (fun i -> 2 * i) in
  let targets = Array.init (n / 2) (fun k -> (2 * k) + 1) in
  let ctx =
    Octant.Pipeline.prepare
      ~landmarks:(Bridge.landmarks_for bridge ~exclude:(-1) landmarks)
      ~inter_landmark_rtt_ms:(Bridge.inter_rtt_for bridge landmarks)
      ()
  in
  { bridge; landmarks; targets; ctx; probes = Stats.Rng.create seed }

let context t = t.ctx

let fresh_rtts t k =
  let host i = Bridge.host_id t.bridge i in
  Array.map
    (fun l ->
      Netsim.Measure.min_rtt
        (Netsim.Deployment.topology (Bridge.deployment t.bridge))
        t.probes ~src:(host l) ~dst:(host t.targets.(k)))
    t.landmarks

let cold_observations t =
  Array.mapi
    (fun k target ->
      let obs =
        Bridge.observations ~with_traceroutes:false t.bridge ~landmark_indices:t.landmarks ~target
      in
      {
        Octant.Pipeline.target_rtt_ms = fresh_rtts t k;
        traceroutes = [||];
        whois_hint = obs.Octant.Pipeline.whois_hint;
      })
    t.targets

let study_observations t =
  Array.mapi
    (fun k target ->
      let obs = Bridge.observations t.bridge ~landmark_indices:t.landmarks ~target in
      { obs with Octant.Pipeline.target_rtt_ms = fresh_rtts t k })
    t.targets
