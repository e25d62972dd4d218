(** Memoized broadcast plans, keyed by what actually determines them.

    The generalisation of MagPIe's per-instance schedule cache
    ({!Gridb_magpie.Tuning} is re-expressed over this module): a cached
    inter-cluster schedule may be reused by {e any} requester whose key
    matches — same topology ({!Gridb_topology.Fingerprint}), same root
    cluster, same MagPIe message-size class (next power of two, min 64 B)
    and same scheduling policy.

    Invalidation is driven by live network estimates: an entry stores the
    {!Gridb_des.Adaptive.quality} matrix observed at plan time (sparsely:
    {!Gridb_des.Adaptive.quality_entries}, every other link at quality
    [1.]), and a lookup carrying a live estimator recomputes when the mean
    absolute per-link quality drift over all [n{^2}] links exceeds the
    threshold — stale plans are replaced, nominal lookups (no estimator)
    never invalidate.

    Observability: every lookup publishes [Cache_hit]/[Cache_miss] (keyed
    ["<policy>/fp=<hex>/root=<r>/class=<c>"]) plus the running
    [plan_cache.hits]/[plan_cache.misses]/[plan_cache.invalidations]
    counters — [gridsched profile] rolls the counters up. *)

type key = private {
  fingerprint : Gridb_topology.Fingerprint.t;
  root : int;  (** root cluster of the inter-cluster schedule *)
  bucket : int;  (** message-size class, bytes *)
  policy : string;  (** heuristic name *)
}

val bucket_of_size : int -> int
(** MagPIe message classes: next power of two, minimum 64.
    @raise Invalid_argument on negative size. *)

val key :
  fingerprint:Gridb_topology.Fingerprint.t ->
  root:int ->
  msg:int ->
  policy:string ->
  key
(** Build a key; [msg] is bucketed with {!bucket_of_size}. *)

val key_string : key -> string
(** The form used in [Cache_hit]/[Cache_miss] events. *)

type t

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** divergence-forced recomputations *)
  entries : int;  (** live entries *)
}

val default_threshold : float
(** 0.25 mean absolute quality drift. *)

val create : ?threshold:float -> ?obs:Gridb_obs.Sink.t -> unit -> t
(** An empty cache.  [threshold] (default {!default_threshold}) is the
    mean absolute {!Gridb_des.Adaptive.quality} drift past which an entry
    is invalidated.
    @raise Invalid_argument if [threshold <= 0.]. *)

val lookup :
  t ->
  ?estimator:Gridb_des.Adaptive.t ->
  key ->
  compute:(unit -> Gridb_sched.Schedule.t) ->
  Gridb_sched.Schedule.t * [ `Hit | `Miss | `Invalidated ]
(** The cached schedule for [key], calling [compute] (and storing its
    result) on a miss.  With [estimator], the entry's plan-time quality
    snapshot is compared against the live matrix first: past the
    threshold the entry is dropped and recomputed ([`Invalidated]), and
    the fresh entry snapshots the {e current} matrix. *)

val find : t -> key -> Gridb_sched.Schedule.t option
(** Peek without accounting, divergence checks or events. *)

val stats : t -> stats
val threshold : t -> float

val clear : t -> unit
(** Drop every entry (counters keep running). *)
