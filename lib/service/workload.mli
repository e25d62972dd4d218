(** Deterministic open-loop request generation for the broadcast service.

    Requests arrive as a seeded Poisson process — open loop: the arrival
    times never depend on how fast the service drains them, so overload
    actually overloads (the scenario admission control exists for).
    Equal seeds give equal request streams. *)

type priority = Low | High
(** Service class of a request.  Degraded-mode admission
    ({!Admission.decide}) may shed [Low] traffic under overload; [High]
    traffic is only ever refused by the hard caps. *)

val priority_to_string : priority -> string
(** ["low"] / ["high"] — the form carried by [Shed] events. *)

type request = {
  rid : int;  (** dense request id, 0-based arrival order *)
  at : float;  (** arrival time, simulated us *)
  root : int;  (** root cluster *)
  msg : int;  (** message size, bytes (pre-bucketing) *)
  policy : string;  (** scheduling heuristic name *)
  deadline : float;
      (** relative completion deadline, us after [at]; [infinity] = none *)
  priority : priority;
}

type mix = {
  roots : int array;  (** candidate root clusters *)
  msgs : int array;  (** candidate message sizes *)
  policies : string array;  (** candidate heuristic names *)
  deadlines : float array;
      (** candidate relative deadlines, us; [infinity] = no deadline *)
  high_frac : float;  (** probability a request is {!High} priority *)
}

val default_mix : Gridb_topology.Machines.t -> mix
(** Up to 3 root clusters, 64 KB / 1 MB messages, ECEF and ECEF-LA —
    a key space small enough that sustained streams revisit it (plan-cache
    hit rate > 0.5 on the default bench workload).  No deadlines
    ([deadlines = [| infinity |]]) and no high-priority traffic
    ([high_frac = 0.]): the generated stream is draw-for-draw identical to
    the pre-resilience generator's. *)

val generate :
  ?mix:mix ->
  seed:int ->
  rate:float ->
  duration:float ->
  Gridb_topology.Machines.t ->
  request list
(** Requests of a Poisson process with [rate] arrivals per simulated us
    over [(0, duration]], each drawing root/size/policy — and, when the
    mix carries more than one candidate, deadline and priority — uniformly
    from [mix] (default {!default_mix}); chronological, rids dense from 0.
    @raise Invalid_argument on a non-positive, NaN or infinite
    [rate]/[duration], an empty or
    out-of-range mix, an unknown policy name, a non-positive deadline or a
    [high_frac] outside [0, 1]. *)

val mix_to_string : mix -> string
(** Render a mix as comma-separated [key=value] pairs with ['|']-separated
    list elements, e.g.
    [roots=0|1|2,msgs=65536|1000000,policies=ECEF|ECEF-LA,deadlines=inf,high=0].
    Round-trips through {!mix_of_string}. *)

val mix_of_string :
  Gridb_topology.Machines.t -> string -> (mix, string) result
(** Parse the {!mix_to_string} grammar; omitted keys keep their
    {!default_mix} values and ["default"] is the default mix itself.
    Errors name the offending key (the {!Gridb_des.Faults.of_string} /
    [Dynamics.of_string] error contract), e.g.
    [mix key "roots": bad integer "x"]. *)
