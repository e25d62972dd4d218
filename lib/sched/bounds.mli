(** Lower bounds on the broadcast makespan, and one upper bound.

    The paper sidesteps optimality ("it is too expensive to find the optimal
    schedule") by scoring heuristics against each other.  These analytic
    bounds give an absolute yardstick: any valid schedule of the Section 3
    model — whatever the heuristic — costs at least [combined].  The bench
    reports each heuristic's gap to the bound, and for small instances the
    tests sandwich [combined <= optimal <= heuristic]. *)

val reach : Instance.t -> int -> float
(** [reach inst k]: a lower bound on when cluster [k]'s coordinator can hold
    the message — the cheapest single incoming edge [min_i (g_ik + L_ik)]
    for non-root clusters (any relay chain only adds earlier hops), 0 for
    the root. *)

val completion_bound : Instance.t -> float
(** [max_k (reach k + T_k)]: every cluster must be reached and then finish
    its internal broadcast. *)

val fanout_bound : Instance.t -> float
(** Source-multiplication bound: with every transmission occupying its
    sender for at least [gmin = min g], after time [t] at most
    [2^(t / gmin)] coordinators can hold the message; hence the last of [n]
    coordinators is reached no earlier than [ceil (log2 n) * gmin], plus the
    cheapest latency and the smallest remaining [T]. *)

val root_gap_bound : Instance.t -> float
(** The root must perform at least one send: [min_j g_root,j] plus that
    destination's delivery and the minimum [T] over non-root clusters —
    trivial but non-zero for [n >= 2]; 0 for a single cluster (then [T_root]
    applies via {!completion_bound}). *)

val combined : Instance.t -> float
(** Maximum of all bounds — still a lower bound. *)

val upper : Instance.t -> float
(** [sum_j max_(i <> j) (g_ij + L_ij) + max_k T_k]: no schedule that
    starts every send as soon as its sender holds the message and its NIC
    is free (every heuristic's, and hence the optimum) takes longer, from
    any root — the chain of sends behind the last completion uses each
    transmission at most once.  Finite iff no such makespan can overflow
    to [inf]. *)

val gap_ratio : Instance.t -> float -> float
(** [gap_ratio inst makespan = makespan /. combined inst]: >= 1 for valid
    schedules; 1 means provably optimal.  @raise Invalid_argument if
    [makespan < 0]. *)
