(** Transmission traces of DES executions.

    A trace is a view of an executor's observability stream: run with
    [~obs:(Gridb_obs.Sink.memory ())] and pass {!Gridb_obs.Sink.events} to
    {!of_events}.  This module analyses the resulting log:
    per-sender NIC busy time, the critical path to the last delivery, and a
    compact textual rendering.  Used by the deeper examples and by tests
    that assert structural properties of executions (e.g. that the flat
    tree's root carries all the traffic). *)

type transmission = {
  src : int;
  dst : int;
  start : float;  (** injection start, us *)
  gap_end : float;  (** sender NIC free again *)
  arrival : float;  (** receiver holds the message *)
  msg : int;  (** bytes *)
}

val of_events : Gridb_obs.Event.t list -> transmission list
(** The transmissions of an observability stream: one per [Send] event
    (tagged or not); all other events are ignored.  The result is in
    emission order (not sorted by arrival); {!pp} sorts by arrival itself,
    and {!critical_path} takes the first of equal candidates in list
    order. *)

val sender_busy_time : transmission list -> (int * float) list
(** Total NIC occupancy per sending rank, descending. *)

val busiest_sender : transmission list -> (int * float) option

val critical_path : transmission list -> transmission list
(** The chain of transmissions leading to the latest arrival, from the
    first hop to the last (each hop's receiver is the next hop's sender).
    Empty for an empty trace. *)

val total_bytes : transmission list -> int

val pp : Format.formatter -> transmission list -> unit
(** One line per transmission in arrival order. *)
