(** Shared helpers for the test suites.

    One float-comparison discipline, one seeded-corpus recipe and one
    property-count knob, so every suite states these the same way. *)

val feq : ?eps:float -> float -> float -> bool
(** Relative comparison: [|a - b| <= eps * max 1 |a| |b|] with [eps]
    defaulting to 1e-9 — the discipline used across the analytic tests. *)

val count : int -> int
(** [count base] is the QCheck [~count] to run: [base] multiplied by the
    [QCHECK_COUNT] environment variable when it is set to an integer
    >= 1 (a {e multiplier}, not an absolute — suites mix expensive
    15-case properties with cheap 1000-case ones, and CI scales them all
    together with e.g. [QCHECK_COUNT=10]).  Unset, unparsable or < 1
    values mean 1, i.e. [base] unchanged. *)

val random_instance : ?n:int -> int -> Gridb_sched.Instance.t
(** Table 2 random instance ([n] clusters, default 6) from the given
    seed — equal seeds give equal instances. *)

val random_grid :
  ?cluster_size:int * int -> n:int -> int -> Gridb_topology.Grid.t
(** Seeded {!Gridb_topology.Generators.uniform_random} grid;
    [cluster_size] defaults to the generator's 4-128 range. *)

val brute_force_makespan : Gridb_sched.Instance.t -> float
(** Optimal makespan by exhaustive enumeration of every (sender in [A],
    receiver in [B]) pick sequence, with no pruning: the independent oracle
    the exact solver is checked against.  [prod_{k=1}^{n-1} k (n - k)]
    leaves, so keep [n <= 7]. *)

val corpus :
  ?n_range:int * int ->
  seed:int ->
  count:int ->
  unit ->
  (int * Gridb_sched.Instance.t) list
(** Seeded instance corpus: [count] pairs of (per-instance seed,
    instance), sizes uniform in [n_range] (default 2-12).  The
    per-instance seed is what a failure should report — feeding it back
    to {!random_instance} rebuilds the offending instance. *)
