(** Rank-level broadcast plans.

    The DES executes one message dissemination described as an {e ordered}
    spanning tree over machine ranks: each node forwards to its children in
    list order, gap-serialised.  Plans are built three ways:
    - {!of_cluster_schedule}: a heuristic's inter-cluster schedule glued to
      intra-cluster trees (the hierarchical broadcast of the paper);
    - {!binomial_ranks}: the "grid-unaware" binomial over all ranks
      ("Default LAM" in Figure 6);
    - {!flat_ranks}: root sends to everyone (degenerate baseline). *)

type program = private {
  machines : Gridb_topology.Machines.t;  (** the view it was compiled for *)
  msg : int;  (** the message size it was compiled for, bytes *)
  parent : int array;  (** plan parent per rank; [-1] at the root *)
  first_child : int array;
      (** CSR offsets, length [n + 1]: rank [r]'s children are
          [child.(first_child.(r)) .. child.(first_child.(r + 1) - 1)] *)
  child : int array;  (** child ranks, each rank's in forwarding order *)
  gap : float array;
      (** indexed by child rank [k]: [Params.gap p msg] of the plan edge
          [parent.(k) -> k], [p] its link parameters; [nan] at the root *)
  latency : float array;  (** [Params.latency p] of the same edge *)
  latency_back : float array;  (** the reverse link's latency (the ACK's) *)
  round_trip : float array;
      (** [(gap +. latency) +. latency_back]: the noiseless model round
          trip the reliable session's initial RTO inflates *)
}
(** A compiled {e send program}: the plan flattened to per-rank arrays
    with every plan edge's pLogP costs evaluated once for one machine view
    and one message size.  The sessions replay it instead of calling
    [Machines.link_params] and [Piecewise.eval] on every send, ACK and
    timer; each entry is computed with the arithmetic (and float
    association) those calls used, so a replay is bit-identical.  Edges
    off the plan (reroutes, join ranks) are not in it. *)

type t = private {
  root : int;  (** root rank *)
  children : int list array;  (** ordered forwarding lists, indexed by rank *)
  compiled : program option Atomic.t;  (** the {!program} memo slot *)
}

val v : root:int -> children:int list array -> t
(** @raise Invalid_argument if the structure is not a spanning tree over
    [0 .. Array.length children - 1] rooted at [root]. *)

val of_cluster_schedule :
  ?shape:Gridb_collectives.Tree.shape ->
  Gridb_topology.Machines.t ->
  Gridb_sched.Schedule.t ->
  t
(** Hierarchical plan: each coordinator performs its scheduled inter-cluster
    sends in round order, {e then} feeds its cluster's intra tree ([shape]
    defaults to binomial), matching the [After_sends] model.
    @raise Invalid_argument if the schedule's cluster count differs from the
    machine view's. *)

val of_flat_schedule : Gridb_topology.Machines.t -> Gridb_sched.Schedule.t -> t
(** Machine-level plan from a {e flat} schedule (one "cluster" per machine,
    as built by {!Gridb_sched.Instance.of_machines}): every rank forwards
    to the ranks it was scheduled to serve, in round order.
    @raise Invalid_argument if the schedule's node count differs from the
    machine count. *)

val binomial_ranks : Gridb_topology.Machines.t -> root:int -> t
(** Binomial tree over ranks [0 .. N-1] rooted at [root], oblivious to
    cluster boundaries (ranks are relabelled so the tree is rooted at
    [root]). *)

val flat_ranks : Gridb_topology.Machines.t -> root:int -> t

val size : t -> int
val depth : t -> int
val parent_array : t -> int array
(** [parent_array t].(root) = root. *)

val program : t -> Gridb_topology.Machines.t -> msg:int -> program
(** The plan's send program for [machines] and [msg].  Memoised in a
    one-entry slot on the plan: a call with the same (physically equal)
    machine view and the same size returns the slot's program, any other
    call compiles a new one and replaces it.  The slot is an [Atomic], so
    domains sharing a plan (as {!Exec.mean_reliable} [~jobs] does) read
    whole programs; two racing compiles build equal programs and the
    later one wins.  Memory stays bounded by the plans in flight.
    @raise Invalid_argument if the machine count differs from the plan
    size. *)
