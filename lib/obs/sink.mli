(** Pluggable event sinks — where the observability bus delivers.

    Three sinks cover the use cases:

    - {!null} — the default everywhere.  Producers guard every emission
      with {!enabled}, which is [false] only for [Null], so the hot paths
      pay one predictable branch and never construct an event: a
      [Null]-sink run is bit-identical to an uninstrumented one (the
      invariant the property tests pin down).
    - {!memory} — accumulates events in order; {!events} reads them back.
      This is what the consumers ([Trace.of_events],
      {!Profile.of_events}) build on.
    - {!jsonl} / {!with_jsonl} — streams one {!Event.to_json} line per
      event to a channel; {!read} parses a file back losslessly. *)

type t =
  | Null
  | Memory of { mutable events : Event.t list; mutable count : int }
      (** [events] is reverse chronological (use {!events}); [count] is its
          length *)
  | Jsonl of { oc : out_channel; mutable count : int }

val null : t

val memory : unit -> t
(** Fresh in-memory sink. *)

val jsonl : out_channel -> t
(** Streaming sink on an already-open channel (not closed by this module). *)

val with_jsonl : string -> (t -> 'a) -> ('a, string) result
(** [with_jsonl path f] opens [path], runs [f] with a [Jsonl] sink and
    closes the file (also on exceptions).  [Error] (the system's reason,
    [f] not run) when [path] cannot be opened for writing. *)

val enabled : t -> bool
(** [false] only for [Null].  Producers must test this before building an
    event — that is the zero-cost contract. *)

val emit : t -> Event.t -> unit
(** Deliver one event.  No-op on [Null]. *)

val events : t -> Event.t list
(** Chronological event list of a [Memory] sink; [[]] for the others. *)

val count : t -> int
(** Events delivered so far ([Memory] and [Jsonl]; 0 for [Null]), O(1). *)

val read : string -> (Event.t list, string) result
(** Parse a JSONL trace file back into events (blank lines skipped).
    [Error] reports the first offending line and reason, or why the file
    cannot be read (missing, a directory, no permission). *)
