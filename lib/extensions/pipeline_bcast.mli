(** Segmented (pipelined) hierarchical broadcast.

    For multi-megabyte messages the paper's schedules leave bandwidth on
    the table: every relay waits for the whole message before forwarding.
    Splitting the message into [S] segments lets segment [k+1] overlap the
    relaying of segment [k] along the same schedule — the natural
    large-message extension of the paper's approach, analogous to what
    {!Gridb_collectives.Pipeline} does inside one cluster.

    The segmented protocol is evaluated by executing it on simMPI
    ({!simulate}); the [abl-segmented] ablation sweeps the segment count
    with it. *)

val segment_size : msg:int -> segments:int -> int
(** [ceil (msg / segments)], at least 1 byte.
    @raise Invalid_argument if [segments < 1] or [msg < 1]. *)

val simulate :
  ?noise:Gridb_des.Noise.t ->
  ?seed:int ->
  Gridb_topology.Machines.t ->
  Gridb_des.Plan.t ->
  msg:int ->
  segments:int ->
  float
(** Exact simMPI execution of the store-and-forward segmented protocol
    along a rank-level plan: every rank receives segment [k] from its
    parent, forwards it to all its children in plan order, then proceeds
    to segment [k+1].  [segments = 1] equals
    {!Gridb_mpi.Collectives.bcast_plan}'s completion time. *)
