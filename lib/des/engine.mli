(** Generic discrete-event simulation engine.

    A minimal sequential DES: a clock and a time-ordered queue of callbacks.
    Events scheduled at equal times fire in insertion order (stable), which
    keeps runs reproducible.  The broadcast executors ({!Exec.run} and the
    reliable {!Exec.run_reliable}), the MPI layer and the {!Faults}-driven
    failure-injection tests all run on this engine.

    The queue is a two-tier monotone radix queue: events due at the
    current instant (to within one ulp) sit in a small binary heap on
    (time, insertion order), and every later event waits in one of 62
    buckets indexed by the highest bit in which its time's IEEE-754 bits
    differ from the heap's, where a push costs O(1).  When the heap
    empties it is refilled from the lowest non-empty bucket.  The firing
    order is exactly (time, insertion order) whatever the tiers do, so
    a run fires the same events in the same order as with one heap.

    Timers: {!schedule_timer} enqueues a {e cancellable} event and returns a
    handle; {!cancel} removes its event from the queue there and then, so a
    cancelled event is never executed, releases its callback at once, and
    does not advance the clock, count towards {!processed} or {!pending},
    or hold back a {!run_until} horizon.  This is what arms the ACK-guarded
    retransmission timers of the reliable executor: the common (ACK
    received) path cancels the timer instead of letting a stale timeout
    fire, and the queue holds only events that will still run.

    Observability: pass a {!Gridb_obs.Sink.t} at creation to receive
    [Timer_set]/[Timer_fire]/[Timer_cancel] events.  With the default
    {!Gridb_obs.Sink.null} sink the emission sites reduce to a single
    always-false branch — the hot path is unchanged. *)

type t

type timer
(** Handle of a cancellable event. *)

val create : ?obs:Gridb_obs.Sink.t -> unit -> t
(** [obs] defaults to {!Gridb_obs.Sink.null} (no instrumentation). *)

val now : t -> float
(** Current simulation time (us).  0. before the first event. *)

val schedule : t -> time:float -> (t -> unit) -> unit
(** Enqueue a callback at an absolute time.
    @raise Invalid_argument if [time] is NaN or in the past (< [now t]). *)

val schedule_after : t -> delay:float -> (t -> unit) -> unit
(** Relative variant.  @raise Invalid_argument if [delay] is NaN or
    [delay < 0.]. *)

val schedule_timer : t -> time:float -> (t -> unit) -> timer
(** Like {!schedule}, returning a handle usable with {!cancel}.
    @raise Invalid_argument if [time] is NaN or in the past. *)

val cancel : t -> timer -> unit
(** Remove the timer's event from the queue; it will never execute.  O(1)
    for an event past the current instant (a retransmission timeout, say),
    O(log) of the current instant's events otherwise.  Cancelling an
    already-cancelled or already-fired timer is a no-op. *)

val timer_live : timer -> bool
(** False once cancelled or fired. *)

val step : t -> bool
(** Execute the next event; [false] when the queue is empty. *)

val run : t -> unit
(** Drain the queue.  Terminates iff the simulated system quiesces. *)

val run_until : t -> float -> unit
(** Process events with time <= the horizon; later events stay queued (in
    their buckets, unless they share the last fired event's instant) and
    [now] is advanced to the horizon. *)

val pending : t -> int
(** Events still queued in either tier, O(1).  Cancelled events left the
    queue when they were cancelled, so they are never counted. *)

val processed : t -> int
(** Events executed so far. *)
