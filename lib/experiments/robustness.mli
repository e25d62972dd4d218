(** Robustness scorecard: broadcast quality under injected faults.

    Makespan is the paper's only axis; this module adds degradation under a
    {!Gridb_des.Faults} model as a second, measured one.  One evaluation
    schedules a grid with a policy, executes the plan twice on the DES —
    fault-free ({!Gridb_des.Exec.run}, the baseline) and reliably under
    faults ({!Gridb_des.Exec.run_reliable}, with a selectable
    {!Gridb_des.Exec.transport}) — and, when a coordinator crashed,
    additionally invokes {!Gridb_sched.Repair} on the cluster-level
    schedule: once on the nominal instance, and (for adaptive transports)
    once on the instance rescaled by the live estimator's per-link quality,
    so the replanned makespan reflects measured rather than nominal
    numbers.  The resulting metrics (delivery ratio, makespan inflation,
    retransmission/reroute counts, repair work) feed
    [gridsched simulate --faults] and the [bench/faults] sweep. *)

type metrics = {
  policy : string;
  spec : Gridb_des.Faults.spec;
  dyn : Gridb_des.Dynamics.spec;  (** dynamics model, {!Gridb_des.Dynamics.none} if off *)
  transport : string;  (** {!Gridb_des.Exec.transport_to_string} *)
  retries : int;
  seed : int;
  total_ranks : int;
      (** planning-time ranks plus joins that arrived within the horizon *)
  delivered : int;  (** ranks holding the message at quiescence *)
  delivery_ratio : float;  (** delivered / total_ranks *)
  crashed_ranks : int;
  left_ranks : int;  (** ranks departed (dynamics) within the horizon *)
  joined_ranks : int;  (** joins that arrived within the horizon *)
  partition_drift : float option;
      (** [1 - Rand index] between Lowekamp partitions of the nominal and
          the estimator's live machine latency matrices; [None] for
          non-adaptive transports (no estimator) *)
  baseline_makespan : float;  (** fault-free DES makespan, us *)
  makespan : float;  (** reliable-run makespan over delivered ranks, us *)
  inflation : float;  (** makespan / baseline_makespan *)
  transmissions : int;  (** data transmissions incl. retransmissions *)
  retransmissions : int;
  acks : int;
  gave_up : int;  (** edges abandoned for good (retry or reroute budget) *)
  reroutes : int;  (** orphan re-parentings (adaptive + reroute only) *)
  circuit_opens : int;  (** breaker open transitions (adaptive only) *)
  repair_invoked : bool;  (** a cluster coordinator crashed *)
  repairs : int;  (** replanned inter-cluster transmissions *)
  repaired_makespan : float option;
      (** analytic completion of the {!Gridb_sched.Repair}-patched
          cluster schedule, us; [None] when repair was not invoked *)
  estimated_repaired_makespan : float option;
      (** same repair replanned on the estimator-rescaled instance
          (observed SRTT over nominal round trip on coordinator links);
          [None] unless repair was invoked under an adaptive transport *)
  summary : Gridb_des.Exec.reliable_summary option;
      (** {!Gridb_des.Exec.mean_reliable} over [repetitions] independent
          fault draws; [None] unless [repetitions] was given *)
}

val partition_drift : Gridb_des.Adaptive.t -> Gridb_topology.Machines.t -> float
(** [1 - Rand index] between the Lowekamp partition of the nominal machine
    latency matrix and that of the estimator's live
    {!Gridb_des.Adaptive.estimated_latency_matrix} (planning-time ranks
    only).  0. when the estimated clustering still matches plan time. *)

val run :
  ?policy:Gridb_sched.Policy.t ->
  ?msg:int ->
  ?retries:int ->
  ?seed:int ->
  ?noise:Gridb_des.Noise.t ->
  ?obs:Gridb_obs.Sink.t ->
  ?transport:Gridb_des.Exec.transport ->
  ?dyn:Gridb_des.Dynamics.spec ->
  ?repetitions:int ->
  ?jobs:int ->
  spec:Gridb_des.Faults.spec ->
  Gridb_topology.Grid.t ->
  metrics
(** One robustness evaluation on [grid] (root cluster 0).  Defaults:
    {!Gridb_sched.Policy.ecef_la}, 1 MB, 5 retries, seed 0, [Exact] noise,
    [Fixed] transport.  [seed] seeds both the fault model and (when [noise]
    is not [Exact]) the jitter stream of the reliable run; the baseline is
    always noise-free.  [dyn] (default {!Gridb_des.Dynamics.none}) adds a
    {!Gridb_des.Dynamics} model on a stream tagged off [seed] (adding
    churn never perturbs the fault draws): drift multiplies the link
    parameters, departures halt ranks like crashes (and count into the
    repair crash vector when a coordinator leaves), joins extend the
    population and are adopted under rerouting transports.  With [repetitions] the scorecard also carries a
    {!Gridb_des.Exec.mean_reliable} summary over that many independent
    fault draws (seeded from [seed]); [jobs] (default 1) fans those
    repetitions out over a {!Gridb_util.Pool} with a bit-identical
    summary at every worker count.

    [obs] (default {!Gridb_obs.Sink.null}) observes the scheduling pass and
    the {e faulty reliable} run (not the fault-free baseline, which would
    duplicate every send on the stream), and receives one [Repair_splice]
    event when a coordinator crash triggers schedule repair. *)

val render : metrics -> string
(** Two-column text table of the scorecard. *)
