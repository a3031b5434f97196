(** The interleaved split of one simulated deployment, with fresh probe
    rounds: the input the benchmark's cold and study workloads feed the
    pipeline, on the library side so tier-1 tests can replay it.

    Even hosts are landmarks and odd hosts are targets (the split
    {!Adversarial} uses), so both sets span every continent.  The world
    seed picks the deployment; the probe seed drives every fresh RTT, and
    the probes drawn, in the order they are drawn, are a pure function of
    it.  A fresh round for a target is, per landmark, the min of 10 new
    probes from the probe stream. *)

type t

val make : world:int -> seed:int -> t
(** Deployment of 51 hosts from seed [world], its measurement campaign,
    the split, and the landmarks' prepared context (heights and
    calibrations from the inter-landmark RTTs). *)

val context : t -> Octant.Pipeline.context

val cold_observations : t -> Octant.Pipeline.observations array
(** One fresh round over every target, with only the target's WHOIS hint
    beside it: what a daemon's localize request carries. *)

val study_observations : t -> Octant.Pipeline.observations array
(** One fresh round over every target, with the campaign's traceroutes,
    router RTTs and WHOIS hints: the paper's full study input. *)
