(** Timed inter-cluster broadcast schedules.

    A schedule is the ordered list of coordinator-to-coordinator
    transmissions a heuristic decided, with the timing implied by the
    paper's model: a transmission from [i] to [j] starting at [s] occupies
    [i] until [s + g_ij] (the gap) and delivers at [s + g_ij + L_ij]; a
    coordinator broadcasts internally (duration [T_j]) after its {e last}
    inter-cluster send. *)

type event = {
  round : int;  (** selection order, 0-based *)
  src : int;
  dst : int;
  start : float;  (** when the sender begins injecting *)
  sender_free : float;  (** [start + g]: sender may transmit again *)
  arrival : float;  (** [start + g + L]: receiver holds the message *)
}

type t = {
  root : int;
  n : int;
  events : event list;  (** in round order *)
  ready : float array;  (** RT_k: when coordinator [k] holds the message *)
  busy_until : float array;  (** when coordinator [k] performed its last send
                                 (equals [ready] for pure leaves) *)
}

type completion_model =
  | After_sends
      (** Section 3 formalism: a coordinator starts its intra-cluster
          broadcast only after its last inter-cluster send; cluster [k]
          completes at [busy_until.(k) + T_k].  The default everywhere. *)
  | Overlapped
      (** MagPIe-style overlap: the local broadcast proceeds concurrently
          with the coordinator's remaining wide-area sends; cluster [k]
          completes at [max (ready.(k) + T_k) busy_until.(k)].  Exposed
          because the paper's Figure 3/4 behaviour of ECEF-LAT (best mean at
          high cluster counts, high hit rate) emerges under this model —
          see EXPERIMENTS.md. *)

val makespan : ?model:completion_model -> Instance.t -> t -> float
(** Maximum per-cluster completion under the chosen model (default
    {!After_sends}). *)

val completion_times : ?model:completion_model -> Instance.t -> t -> float array
(** Per-cluster completion. *)

val validate : Instance.t -> t -> (unit, string) result
(** Structural and temporal soundness:
    - every non-root cluster receives exactly once, the root never receives;
    - senders hold the message before sending ([start >= ready src]);
    - a sender's transmissions do not overlap (gap exclusivity);
    - arrival arithmetic matches the instance matrices;
    - [ready]/[busy_until] agree with the event list. *)

val rounds : t -> int
(** Number of inter-cluster transmissions ([n - 1] when valid). *)

val picks : t -> (int * int) list
(** The (src, dst) pick sequence in round order: with the instance, all a
    schedule of this model needs ({!State.replay} rebuilds the timing). *)

val depth : t -> int
(** Longest relay chain from the root (1 for a pure flat tree). *)

val senders : t -> int list
(** Distinct clusters that performed at least one send, ascending. *)

val pp : Format.formatter -> t -> unit
