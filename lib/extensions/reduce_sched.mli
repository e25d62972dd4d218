(** Grid-aware scheduling for gather/reduce by time reversal.

    A broadcast schedule run backwards is a valid reduction schedule: if the
    broadcast delivers to every coordinator by time [M], then reversing
    every transmission (receiver sends to its former sender, mirrored in
    time) gathers every contribution at the root by the same [M] — the
    standard bcast/reduce duality, which lets all seven heuristics be
    reused unchanged for the reduce pattern of the paper's future work.

    The mirrored timing: a broadcast event [(src, dst)] with arrival [t]
    becomes a reduce transmission [(dst, src)] starting at [M' - t] where
    [M'] is the reversed horizon.  Intra-cluster phases swap sides: each
    cluster first runs an internal {e gather} (time [T_k], same cost as its
    broadcast under symmetric links), then its coordinator forwards
    upstream. *)

type event = {
  round : int;
  src : int;  (** sends its partial result *)
  dst : int;
  start : float;
  arrival : float;
}

type t = {
  root : int;  (** where the reduction lands *)
  n : int;
  events : event list;  (** in time order *)
  makespan : float;
}

val of_broadcast : Gridb_sched.Instance.t -> Gridb_sched.Schedule.t -> t
(** Reverse a broadcast schedule into a reduce schedule over the same
    instance.  @raise Invalid_argument if the schedule does not match the
    instance. *)

val makespan_equals_broadcast : Gridb_sched.Instance.t -> Gridb_sched.Schedule.t -> bool
(** The duality check the tests rely on: reversed makespan = broadcast
    makespan (After_sends model), up to floating point. *)

val best_heuristic :
  Gridb_sched.Instance.t -> Gridb_sched.Policy.t list -> Gridb_sched.Policy.t * t
(** Schedule a reduction with every given heuristic (via duality) and keep
    the best.  @raise Invalid_argument on an empty list. *)
