(** Local-search refinement of broadcast schedules.

    A schedule of the Section 3 model is fully determined by its sequence of
    (sender, receiver) picks; the timing is forced by the gap/latency rules.
    This module improves a heuristic's pick sequence by hill climbing over
    two neighbourhoods:
    - {e swap}: exchange two adjacent picks (reorders transmissions);
    - {e re-parent}: give one receiver a different sender among the clusters
      already in [A] at that point.

    Bhat et al. close their heuristics with a comparable iterative-
    improvement phase; here it doubles as an empirical upper-bound tightener
    for the gap-to-lower-bound reports. *)

val makespan_of_picks :
  ?model:Schedule.completion_model -> Instance.t -> (int * int) list -> float option
(** Makespan under [model] of the {!State.replay} of a {!Schedule.picks}
    sequence; [None] if the sequence is invalid. *)

val improve :
  ?model:Schedule.completion_model ->
  ?max_rounds:int ->
  Instance.t ->
  Schedule.t ->
  Schedule.t
(** Steepest-descent hill climbing until a local optimum or [max_rounds]
    (default 50) neighbourhood scans.  The result is never worse than the
    input under [model] (default [After_sends]) and is always valid. *)

val improvement_ratio :
  ?model:Schedule.completion_model -> Instance.t -> Schedule.t -> float
(** [makespan (improve s) /. makespan s] — <= 1. *)

val anneal :
  ?model:Schedule.completion_model ->
  ?seed:int ->
  ?steps:int ->
  ?initial_temperature:float ->
  Instance.t ->
  Schedule.t ->
  Schedule.t
(** Simulated annealing over the same neighbourhoods: [steps] random moves
    (default 2000) with geometric cooling from [initial_temperature]
    (default 10% of the input makespan, us).  Escapes the local optima the
    hill climber stops at; returns the best valid schedule seen, which is
    never worse than the input. *)
