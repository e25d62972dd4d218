(** Execution of a broadcast plan on the discrete-event engine.

    Semantics per transmission from [s] to [d] (pLogP parameters of the
    [s]-[d] link evaluated at the message size, each scaled by an
    independent noise factor): the send starts when [s] holds the message
    and its NIC is free; the NIC is busy for [g]; delivery happens [L]
    after the send starts injecting, i.e. at [start + g + L].

    With [noise = Exact] the executor reproduces the analytic predictions
    of {!Gridb_collectives.Cost} and {!Gridb_sched.Schedule} to floating
    point accuracy — an invariant the integration tests rely on.

    Observability: both executors accept an [obs] sink and publish the full
    event stream of the run — one [Send] per transmission and [Arrival] (plus
    [Ack]/[Retransmit]/[Give_up] and the engine's timer events for the
    reliable executor).  With the default {!Gridb_obs.Sink.null} every
    emission site is a single always-false test: seeded runs are
    bit-identical with and without the instrumentation layer.

    A transmission trace is a view of that stream: pass
    [~obs:(Gridb_obs.Sink.memory ())] and read it back with
    {!Trace.of_events}.

    Each executor builds a {!Config.t} and runs one {!Session} on a
    private {!Wire} and engine — bit-identical to the historical
    monolithic executors (the golden corpus digest pins this).
    The types below are equations over {!Session}'s, so values flow freely
    between the single-session API and the multi-session service layer. *)

type result = Session.result = {
  arrival : float array;  (** per-rank delivery time; [start_delay] at the root *)
  makespan : float;  (** max arrival *)
  transmissions : int;  (** number of point-to-point sends executed *)
}

val run :
  ?noise:Noise.t ->
  ?rng:Gridb_util.Rng.t ->
  ?start_delay:float ->
  ?msg:int ->
  ?obs:Gridb_obs.Sink.t ->
  Gridb_topology.Machines.t ->
  Plan.t ->
  result
(** [run machines plan] broadcasts one [msg]-byte message (default 1 MB)
    along [plan].  [start_delay] (default 0., e.g. a scheduling overhead)
    postpones the root's first injection.  [rng] is required when [noise]
    is not [Exact] (default seed 0 otherwise).  [obs] (default
    {!Gridb_obs.Sink.null}) receives the run's event stream.
    @raise Invalid_argument if plan and machine view sizes differ. *)

val mean_makespan :
  ?noise:Noise.t ->
  ?msg:int ->
  ?repetitions:int ->
  ?jobs:int ->
  seed:int ->
  Gridb_topology.Machines.t ->
  Plan.t ->
  float
(** Average makespan over independent noisy runs (default 10), the
    "measured" value reported by Figure 6.  Repetition [rep] runs on the
    indexed stream {!Gridb_util.Rng.split}[ (create seed) rep]: equal
    seeds give equal means, the repetitions' streams are pairwise
    independent (one run's draw count cannot shift another's draws), and
    the mean is bit-identical for every [jobs] setting ([jobs], default 1,
    fans repetitions out over a {!Gridb_util.Pool}). *)

type transport = Session.transport =
  | Fixed  (** model-derived RTO, exponential backoff, no reroute *)
  | Adaptive of { config : Adaptive.config; reroute : bool }
      (** live Jacobson/Karn RTO + circuit breakers; with [reroute],
          orphaned children are re-parented onto delivered ranks *)

val adaptive : ?config:Adaptive.config -> ?reroute:bool -> unit -> transport
(** [Adaptive] with {!Adaptive.default} knobs; [reroute] defaults false. *)

val transport_of_string : string -> (transport, string) Stdlib.result
(** Parses ["fixed"], ["adaptive"], ["adaptive,reroute"] (or
    ["adaptive+reroute"]), case-insensitively; adaptive forms carry
    {!Adaptive.default}. *)

val transport_to_string : transport -> string
(** Left inverse of {!transport_of_string} for default configs. *)

type reliable = Session.reliable = {
  r_arrival : float array;
      (** per-rank {e first} delivery time; [nan] for ranks never reached *)
  r_makespan : float;  (** max arrival over delivered ranks *)
  r_transmissions : int;
      (** data transmissions injected, including retransmissions (ACKs are
          control-plane and not counted) *)
  retransmissions : int;  (** timeout-triggered re-sends *)
  acks : int;  (** ACK messages delivered *)
  delivered : int;  (** ranks holding the message at quiescence *)
  gave_up : (int * int) list;
      (** [(parent, child)] edges abandoned for good: retry budget exhausted
          (fixed/adaptive), or reroute budget exhausted (reroute) *)
  crashed : int list;  (** ranks that halted within the simulated horizon *)
  left : int list;
      (** ranks whose {!Dynamics} departure fired within the horizon; []
          without a dynamics model *)
  joined : int list;
      (** join ranks (ids >= the planning-time population) whose arrival
          fell within the horizon, ascending; [] without dynamics *)
  horizon : float;  (** simulated time at quiescence, us *)
  reroutes : (int * int * int) list;
      (** [(dst, old_parent, new_parent)] re-parentings, chronological;
          [] unless the transport reroutes *)
  circuit_opens : int;  (** breaker open transitions (timeouts + blow-ups) *)
  estimator : Adaptive.t option;
      (** the live estimator after quiescence — [Some] for adaptive
          transports; feed {!Adaptive.estimated_params} to replanning *)
}

module Config = Session.Config
(** Session configuration — the optional arguments of {!run_reliable} as
    one record ({!Config.default} carries their defaults; {!Config.v}
    builds overrides).  Shared with the multi-session {!Session} layer. *)

val run_reliable :
  ?noise:Noise.t ->
  ?rng:Gridb_util.Rng.t ->
  ?start_delay:float ->
  ?msg:int ->
  ?obs:Gridb_obs.Sink.t ->
  ?faults:Faults.t ->
  ?dynamics:Dynamics.t ->
  ?on_tick:(now:float -> Adaptive.t option -> unit) ->
  ?tick_every:float ->
  ?retries:int ->
  ?transport:transport ->
  Gridb_topology.Machines.t ->
  Plan.t ->
  reliable
(** Reliable broadcast along [plan] under a {!Faults} model (default: no
    faults).  Each plan edge runs stop-and-wait ACK/timeout/retransmission:
    the receiver ACKs every delivery on the control plane (reverse-link
    latency, no NIC seizure), the sender arms a cancellable timer [rto]
    after its injection ends and retransmits with doubled [rto] on every
    timeout — capped at 1e9 us — up to [retries] retransmissions
    (default 5) before abandoning the edge — partial delivery, reported
    via [gave_up].  The initial [rto] is twice the link's noiseless round
    trip [g + L + L_back], floored at 1 us.

    [transport] (default {!Fixed}) selects the retransmission strategy.
    Under [Adaptive], every clean round trip updates a per-link
    SRTT/RTTVAR estimator ({!Adaptive}, Karn's rule included) that
    replaces the model-derived initial RTO once samples exist, and
    per-link circuit breakers publish [Circuit_open]/[Circuit_close] to
    the sink.  With [reroute] also set, an edge whose breaker opens or
    whose retry budget dies orphans its child instead of abandoning it:
    the child is re-parented onto the already-delivered alive rank with
    the best ECEF arrival score over live-estimated parameters
    ([Reroute] events), parked and retried on the next delivery if no
    candidate exists yet, and only reported in [gave_up] once its
    per-destination reroute budget ({!Adaptive.config.max_reroutes};
    0 derives [2 * ranks]) is spent — so delivery is total unless the
    destination crashed or is physically partitioned from the delivered
    set.

    Fault semantics: losses and permanent cuts are evaluated at injection
    start; a transmission to a rank that halts before its arrival vanishes;
    a halted sender stops (re)transmitting and forwarding.  Degradation
    episodes multiply both gap and latency of transmissions injected while
    they are active.

    [dynamics] adds time-varying topology on top.  {!Dynamics.factor}
    multiplies gap and latency of every transmission (the fault slowdown
    composes with it); a rank {e halts} at the earlier of its fault-model
    crash and its dynamics departure ([left] reports the latter); join
    ranks extend the rank space ([r_arrival] has one slot per join above
    the planning-time population) and are adopted through the reroute
    machinery when their arrival falls inside the simulated horizon — a
    join under a non-rerouting transport exists but is unreachable (the
    static plan predates it), and joins arriving after quiescence never
    happened.  Join links are fresh: loss-free, cut-free, undrifted,
    carrying the cluster's nominal parameters.

    [on_tick] (with [tick_every] > 0, us) is a pure observation hook: it
    receives the live estimator (if any) at the first protocol event at or
    past each tick boundary — the online re-clustering loop of
    {!Gridb_experiments}.  It runs between protocol events and must not
    mutate executor state.

    With an empty fault spec ({!Faults.is_none}) and the same [noise],
    [rng] and [start_delay], the data path is {e bit-identical} to {!run}
    {e for every transport}: same arrivals, same makespan, same
    transmission count — the estimator draws no randomness and every timer
    is cancelled by its ACK before firing.  The identity extends to
    [dynamics] models built from {!Dynamics.is_none} specs: their factor
    is exactly [1.] (an exact float multiply), they halt and join nobody,
    and tick callbacks never touch the data path.  The zero-fault identity
    the property tests pin down.
    @raise Invalid_argument on plan/machine/fault-model/dynamics-model size
    mismatch, [retries < 0] or negative [tick_every]. *)

type reliable_summary = {
  reps : int;
  delivered_fraction : float;  (** mean delivered / n over repetitions *)
  mean_retransmissions : float;
  mean_reroutes : float;
  mean_makespan : float;  (** over delivered ranks, per repetition *)
  stddev_makespan : float;  (** population standard deviation *)
  total_gave_up : int;  (** abandoned edges summed over repetitions *)
  all_delivered : bool;  (** every repetition delivered all [n] ranks *)
}

val mean_reliable :
  ?noise:Noise.t ->
  ?msg:int ->
  ?repetitions:int ->
  ?retries:int ->
  ?transport:transport ->
  ?jobs:int ->
  seed:int ->
  spec:Faults.spec ->
  Gridb_topology.Machines.t ->
  Plan.t ->
  reliable_summary
(** {!run_reliable} aggregated over independent repetitions (default 10),
    mirroring {!mean_makespan}'s indexed-stream discipline: repetition
    [rep] runs entirely on {!Gridb_util.Rng.split}[ (create seed) rep],
    burning that stream's first raw draw for its fault seed.  Equal seeds
    give equal summaries, no repetition's draw count bleeds into
    another's, and the summary is bit-identical for every [jobs] setting
    ([jobs], default 1, fans repetitions out over a {!Gridb_util.Pool}).
    The faults are re-drawn per repetition from [spec].
    @raise Invalid_argument if [repetitions < 1] (plus everything
    {!run_reliable} raises). *)
