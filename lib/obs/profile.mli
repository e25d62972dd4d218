(** Per-phase profile rollup over one event stream.

    Answers the paper's Section 7 accounting question from the unified
    bus: where did the time go?  Scheduling (host spans), inter-cluster
    transmission, intra-cluster transmission and retransmission (simulated
    NIC occupancy, split by the [intra]/[try_no] tags of the [Send] events),
    plus the named counters and span totals the producers published. *)

type session_row = {
  sid : int;
  s_sends : int;  (** data transmissions tagged with this correlation id *)
  s_busy_us : float;  (** NIC occupancy (simulated us) of those sends *)
  s_makespan_us : float;  (** latest tagged arrival *)
}
(** Per-request attribution over a multi-session stream: events wrapped in
    {!Event.Tagged} are additionally accounted to their [sid]. *)

type report = {
  schedule_us : float;
      (** total of spans named ["schedule"] (host CPU time, us) *)
  transmit_us : float;
      (** inter-cluster first-attempt NIC occupancy (simulated us) *)
  intra_us : float;  (** intra-cluster first-attempt NIC occupancy *)
  retransmit_us : float;  (** NIC occupancy of retransmissions (any link) *)
  makespan_us : float;  (** latest arrival on the stream; 0 if none *)
  sends : int;  (** data transmissions (including retransmissions) *)
  retransmits : int;
  give_ups : int;
  circuit_opens : int;  (** adaptive-transport breaker trips *)
  reroutes : int;  (** orphans re-parented by the adaptive transport *)
  sheds : int;  (** requests dropped by degraded-mode admission *)
  requeues : int;  (** service retry relaunches ([Retry] events) *)
  deadline_misses : int;  (** requests past their deadline *)
  events : int;  (** stream length *)
  spans : (string * float) list;
      (** per-name span totals (us), insertion order *)
  counters : (string * int) list;
      (** named counters, last value wins, insertion order *)
  sessions : session_row list;
      (** per-sid rollup of [Tagged] events, first-seen order; [] for
          single-session (untagged) streams *)
}

val of_events : Event.t list -> report
(** Fold a chronological stream into a report.  Each [Send] event
    contributes its own NIC occupancy, [gap_end - time]. *)

val render : report -> string
(** Two-column text table of the rollup. *)
