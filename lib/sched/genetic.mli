(** Genetic-algorithm schedule search, after Vorakosit & Uthayopas
    ("Generating an efficient dynamic multicast tree under grid
    environment", Euro PVM/MPI 2003 — the paper's reference [18]).

    The related work optimises grid multicast trees with a GA; this module
    applies the same idea to the paper's schedule space.  A chromosome is a
    pick sequence ({!Schedule.picks}); crossover keeps a parent-A prefix and
    completes it with parent B's remaining receivers (senders re-validated
    greedily); mutation applies one random swap / re-parent move.  Seeding
    the population with the heuristics' schedules makes the GA an
    {e anytime improver}: its best individual is never worse than the best
    seed. *)

type config = {
  population : int;  (** individuals kept per generation (>= 2) *)
  generations : int;
  mutation_probability : float;  (** per offspring, in [0, 1] *)
  seed : int;  (** RNG seed *)
}

val default_config : config
(** population 24, 40 generations, mutation 0.3, seed 0. *)

val search :
  ?config:config ->
  ?model:Schedule.completion_model ->
  ?seeds:Schedule.t list ->
  Instance.t ->
  Schedule.t
(** Run the GA.  [seeds] (default: every heuristic of {!Policy.all}
    applied to the instance) initialises the population; random valid
    completions fill the rest.  Returns the best valid schedule found —
    never worse than the best seed under [model].
    @raise Invalid_argument on a malformed config or an invalid seed
    schedule. *)

val random_schedule : rng:Gridb_util.Rng.t -> Instance.t -> Schedule.t
(** A uniformly random valid pick sequence (random sender from [A], random
    receiver from [B] at each step) — the GA's filler individuals, also a
    useful chaos baseline for tests. *)
