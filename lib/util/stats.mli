(** Descriptive statistics over float samples.

    Every experiment in the paper reports an average over 10000 iterations;
    this module provides the aggregation used by the experiment drivers, plus
    dispersion measures so that the reproduction can also report confidence
    intervals the paper omits. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  p05 : float;  (** 5th percentile *)
  p95 : float;  (** 95th percentile *)
}

val mean : float array -> float
(** Arithmetic mean.  @raise Invalid_argument on empty input. *)

val variance : float array -> float
(** Unbiased sample variance; 0. for singleton input.
    @raise Invalid_argument on empty input. *)

val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,1\]], linear interpolation between
    order statistics.  Does not mutate its input.
    @raise Invalid_argument on empty input or [p] outside [\[0,1\]]. *)

val median : float array -> float

val summarize : float array -> summary
(** Full summary in a single pass over a sorted copy.
    @raise Invalid_argument on empty input. *)

(** Streaming (Welford) accumulator, used when 10000 makespans per point
    would be wasteful to retain. *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0. when empty. *)

  val variance : t -> float
  (** Unbiased; 0. when fewer than two samples. *)

  val stddev : t -> float
  val min : t -> float
  (** @raise Invalid_argument when empty. *)

  val max : t -> float
  (** @raise Invalid_argument when empty. *)

  val merge : t -> t -> t
  (** Combine two accumulators (parallel aggregation). *)
end
