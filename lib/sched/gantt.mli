(** Text Gantt charts of broadcast schedules.

    One row per cluster on a shared time axis:
    - ['.'] waiting for the message,
    - ['>'] transmitting (coordinator NIC busy with an inter-cluster gap),
    - ['#'] intra-cluster broadcast,
    - [' '] done.

    Makes the structural difference between, say, Flat Tree (one long ['>']
    band at the root) and ECEF (staircase of overlapped relays) visible at a
    glance; exposed on the CLI as [gridsched schedule --gantt]. *)

val render :
  ?model:Schedule.completion_model -> ?width:int -> Instance.t -> Schedule.t -> string
(** [width] is the number of characters of the time axis (default 72).
    @raise Invalid_argument if [width < 10]. *)

val print :
  ?model:Schedule.completion_model -> ?width:int -> Instance.t -> Schedule.t -> unit

val render_events : ?width:int -> Gridb_obs.Event.t list -> string
(** Per-rank timeline reconstructed from an observability stream instead of
    an analytic schedule: ['>'] first-attempt sends, ['r'] retransmissions
    (both from [Send] events), ['*'] message arrivals.
    Renders whatever actually happened — noise, faults and retries
    included — making it the executed-run counterpart of {!render}.
    @raise Invalid_argument if [width < 10]. *)
