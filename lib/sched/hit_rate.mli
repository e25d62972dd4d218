(** Hit-rate analysis (Figure 4).

    Finding the true optimum is too expensive past a handful of clusters, so
    the paper scores each heuristic by how often it attains the "global
    minimum" — the best makespan {e among the compared heuristics} on each
    random instance.  Ties count as hits for every heuristic achieving the
    minimum (within a relative tolerance), which is why the per-technique
    hit counts of Figure 4 sum to more than the iteration count. *)

type outcome = {
  name : string;
  hits : int;  (** iterations where this heuristic matched the global minimum *)
  iterations : int;
  mean_makespan : float;  (** average makespan across the same draws, us *)
  stddev_makespan : float;  (** sample standard deviation, us (0 for < 2 draws) *)
}

val stderr_makespan : outcome -> float
(** Standard error of the mean, [stddev / sqrt iterations]; 0 when empty. *)

val hit_fraction : outcome -> float

val run :
  ?epsilon:float ->
  ?model:Schedule.completion_model ->
  rng:Gridb_util.Rng.t ->
  iterations:int ->
  n:int ->
  Instance.ranges ->
  Policy.t list ->
  outcome list
(** [run ~rng ~iterations ~n ranges hs]: draws [iterations] random
    instances of [n] clusters and scores every heuristic of [hs].
    [epsilon] (default 1e-9) is the relative tie tolerance; [model]
    (default [After_sends]) selects the completion accounting.
    @raise Invalid_argument if [hs] is empty or [iterations < 1]. *)

val run_instances :
  ?epsilon:float ->
  ?model:Schedule.completion_model ->
  Instance.t list ->
  Policy.t list ->
  outcome list
(** Same scoring over a fixed list of instances (deterministic tests). *)
