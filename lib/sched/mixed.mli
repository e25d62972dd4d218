(** The mixed strategy suggested at the end of Section 6.

    "We suggest the use of performance-oriented heuristics like ECEF or
    ECEF-LA when the number of clusters is reduced, and the ECEF-LAT
    technique for grid systems with more clusters" — the switch keeps the
    hit rate high across the whole range of grid sizes.  The strategy is a
    {!Policy.Sized} descriptor, so {!Engine} resolves it per instance. *)

val default_threshold : int
(** 10 clusters — the size of GRID5000 at the time of the paper and the
    upper bound of Figure 1. *)

val strategy : ?threshold:int -> ?small:Policy.t -> ?large:Policy.t -> unit -> Policy.t
(** [strategy ()] dispatches per instance: [small] (default
    {!Policy.ecef_la}) when [n <= threshold], [large] (default
    {!Policy.ecef_lat_max}) otherwise.  The resulting policy is
    {!Policy.sized}, named ["Mixed<small|large@threshold>"].
    @raise Invalid_argument if [threshold < 1]. *)
