(** One broadcast as a session on a shared engine and wire.

    This is the executor core of {!Exec}, refactored so that {e several}
    broadcasts (mixed roots, message sizes, transports) can run
    concurrently on one discrete-event {!Engine} while contending for the
    same per-NIC occupancy state ({!Wire}) — the broadcast-service
    execution model.  {!Exec.run} and {!Exec.run_reliable} each build a
    {!Config.t} and run one session of this module on a private wire and
    engine, bit-identical to the historical executors.

    Lifecycle: [launch]/[launch_reliable] validate, seed the session's
    first event at [config.start_delay] and return a handle; the caller
    runs the engine (once, for all launched sessions) and then extracts
    each session's outcome with [result]/[reliable_result].

    When [sid] is given, every event the session publishes to the
    [config.obs] sink is wrapped in {!Gridb_obs.Event.Tagged}[ { sid; _ }]
    so multi-session streams can be attributed per request
    ({!Gridb_obs.Profile} rolls them up).  Untagged ([sid] absent)
    sessions emit byte-identical streams to the historical executors.  A
    transmission trace is a view of that stream: launch with
    [obs = Gridb_obs.Sink.memory ()] and read it back with
    {!Trace.of_events}.

    Send programs: both launches read every plan edge's gap, latency,
    reverse (ACK) latency and model round trip from the plan's
    {!Plan.program} for the machine view and [config.msg], compiled on
    the first launch and memoised on the plan, so sessions sharing a
    [Plan.t] (every request of one plan-cache key) pay for it once.  Only
    off-plan edges (reroutes, dynamics join ranks) derive their pLogP
    costs per send.  Under [Noise.Exact] no noise call is made (its factor
    is exactly 1.), and with [config.faults = None] no fault-model query
    is made (each would be an identity).  None of this changes the
    arithmetic or the rng draw order: a replay is bit-identical to
    deriving every cost per send. *)

type transport = Fixed | Adaptive of { config : Adaptive.config; reroute : bool }
(** See {!Exec.transport} (the public alias). *)

type result = {
  arrival : float array;
  makespan : float;
  transmissions : int;
}
(** See {!Exec.result} (the public alias). *)

type reliable = {
  r_arrival : float array;
  r_makespan : float;
  r_transmissions : int;
  retransmissions : int;
  acks : int;
  delivered : int;
  gave_up : (int * int) list;
  crashed : int list;
  left : int list;
  joined : int list;
  horizon : float;
  reroutes : (int * int * int) list;
  circuit_opens : int;
  estimator : Adaptive.t option;
}
(** See {!Exec.reliable} (the public alias).  For sessions sharing an
    engine, [horizon] is the engine clock when [reliable_result] is
    called — global quiescence, not per-session. *)

(** Everything a session needs besides topology and plan — the optional
    arguments of [Exec.run_reliable] as one record. *)
module Config : sig
  type t = {
    noise : Noise.t;  (** per-transmission parameter noise *)
    rng : Gridb_util.Rng.t option;
        (** random stream; [None] creates a fresh seed-0 stream {e per
            launch}.  [Some] shares the stream object between sessions
            launched with the same config — give each concurrent session
            its own split stream. *)
    start_delay : float;  (** simulated time of the session's first event *)
    msg : int;  (** message size, bytes *)
    obs : Gridb_obs.Sink.t;  (** observability sink *)
    faults : Faults.t option;
        (** fault model; [None] = no faults, and no fault query at all *)
    dynamics : Dynamics.t option;  (** time-varying topology model *)
    on_tick : now:float -> Adaptive.t option -> unit;
        (** pure observation hook, see {!Exec.run_reliable} *)
    tick_every : float;  (** tick period, us; 0. disables *)
    retries : int;  (** retransmissions before giving an edge up *)
    transport : transport;
  }

  val default : t
  (** The historical defaults of [Exec.run_reliable]: exact noise, fresh
      seed-0 rng, 1 MB message, no faults/dynamics/obs, 5 retries,
      [Fixed] transport.  The static retransmission timeout is not
      configurable: twice the model round trip, at least 1 us, doubled on
      every timeout up to 1e9 us. *)

  val v :
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
    unit ->
    t
  (** {!default} with the given fields overridden. *)

  val validate : who:string -> t -> Gridb_topology.Machines.t -> Plan.t -> unit
  (** Raise [Invalid_argument] with message prefix [who] on any of the
      historical [Exec.run_reliable] argument errors (plan/fault/dynamics
      size mismatch, negative retries, negative [tick_every]). *)
end

type t
(** A launched best-effort (fault-free pLogP) session. *)

val launch :
  ?sid:int ->
  ?who:string ->
  wire:Wire.t ->
  engine:Engine.t ->
  Config.t ->
  Gridb_topology.Machines.t ->
  Plan.t ->
  t
(** Seed one best-effort broadcast (the {!Exec.run} semantics) onto
    [engine]/[wire]: the root delivers to itself at [config.start_delay]
    and forwarding events cascade from there.  Only the
    [noise]/[rng]/[start_delay]/[msg]/[obs] fields of
    [config] apply; the reliability fields are ignored.  [who] (default
    ["Session.launch"]) prefixes error messages.
    @raise Invalid_argument on plan size mismatch or a wire smaller than
    the machine view. *)

val result : t -> result
(** The session's outcome.  Call after [Engine.run] has reached
    quiescence; calling earlier gives a partial snapshot. *)

type reliable_t
(** A launched reliable session. *)

val launch_reliable :
  ?sid:int ->
  ?who:string ->
  wire:Wire.t ->
  engine:Engine.t ->
  Config.t ->
  Gridb_topology.Machines.t ->
  Plan.t ->
  reliable_t
(** Seed one reliable broadcast (the {!Exec.run_reliable} semantics:
    stop-and-wait ACK/timeout/backoff per edge, optional adaptive
    transport, faults, dynamics) onto [engine]/[wire].  The wire must
    cover the machine view {e plus} any dynamics join ranks
    ({!population}).  [who] (default ["Session.launch_reliable"])
    prefixes error messages.
    @raise Invalid_argument on everything {!Config.validate} checks, or a
    wire smaller than the session's rank population. *)

val reliable_result : reliable_t -> reliable
(** The session's outcome; call after [Engine.run]. *)

val population : Config.t -> Gridb_topology.Machines.t -> int
(** Rank population of a session under [config]: machine count plus the
    dynamics model's join ranks.  The minimum wire size for
    [launch_reliable]. *)
