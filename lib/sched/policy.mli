(** Selection policies: what a heuristic {e is}, separated from how a
    schedule is computed.

    A policy is a declarative score descriptor — a per-pair score, an
    optional per-receiver lookahead term, and (through {!pair_score} and
    {!Lookahead.shape}) an invalidation contract saying which parts of the
    score a {!State.send} can change.  {!Engine} consumes the descriptor
    and runs it either as the paper's naive full A×B scan or as an
    incremental selector with per-receiver caches; both produce the exact
    schedule the reference scan defines, including ascending-(i, j)
    tie-breaking.

    This is the only runtime representation of a heuristic: the paper's
    seven are the values below, ablations are built with {!select_min},
    and the Section 6 mixed strategy is a {!Sized} policy. *)

type pair_score =
  | Latency  (** [L_ij] — FEF.  Static: no {!State.send} invalidates it. *)
  | Transmission
      (** [g_ij + L_ij] — the FEF ablation edge weight.  Static. *)
  | Arrival
      (** [avail_i + g_ij + L_ij] — the ECEF family.  A send from [i]
          advances [avail_i] and so invalidates exactly the pairs whose
          sender is [i]; everything else is untouched. *)

val score_depends_on_avail : pair_score -> bool

val arrival_score : avail:float -> gap:float -> latency:float -> float
(** The ECEF pair score, [avail + g + L]: earliest completion of a single
    edge from a sender free at [avail].  {!Gridb_sched.State.score_arrival}
    evaluates it on an instance; the adaptive transport's in-flight reroute
    ({!Gridb_des.Adaptive}) ranks candidate parents with the same metric
    over {e live-estimated} link parameters. *)

type t

and shape =
  | Root_first
      (** The root serves the smallest-id member of [B] each round
          (FlatTree / ECO / MagPIe). *)
  | Select_min of { score : pair_score; lookahead : Lookahead.t }
      (** Minimise [score(i, j) + F_j] over A×B; ties towards the
          lexicographically smallest [(i, j)]. *)
  | Max_reach
      (** BottomUp: serve the receiver whose best
          [min_i score_arrival(i, j) + T_j] is largest (ties towards the
          smallest [j]), using that best sender (ties towards the smallest
          [i]). *)
  | Sized of { threshold : int; small : t; large : t }
      (** Section 6 mixed strategy: dispatch on the instance size. *)

val name : t -> string
val shape : t -> shape

val v : name:string -> shape -> t
(** Custom policy. *)

val flat_tree : t
(** Root sends to every other cluster in index order (ECO / MagPIe). *)

val fef : t
(** Fastest Edge First: smallest [L_ij] over [A x B]; ignores ready times. *)

val ecef : t
(** Early Completion Edge First: minimises [avail_i + g_ij + L_ij]. *)

val ecef_la : t
(** ECEF with Bhat's lookahead [F_j = min (g_jk + L_jk)]. *)

val ecef_lat_min : t
(** ECEF-LAt: lookahead [min (g_jk + L_jk + T_k)]. *)

val ecef_lat_max : t
(** ECEF-LAT: lookahead [max (g_jk + L_jk + T_k)]. *)

val bottom_up : t
(** Max-min: picks the receiver whose {e best} reach
    [min_i (avail_i + g_ij + L_ij) + T_j] is {e largest}, served by that
    best sender — contact the slowest clusters as early as possible. *)

val all : t list
(** The seven paper heuristics in paper order: FlatTree, FEF, ECEF,
    ECEF-LA, ECEF-LAt, ECEF-LAT, BottomUp. *)

val ecef_family : t list
(** The four curves of Figures 3 and 4: ECEF, ECEF-LA, ECEF-LAt,
    ECEF-LAT. *)

val names : string list
(** [List.map name all] — {e the} policy name table.  Every surface that
    enumerates policies (the CLI's [--heuristic] parser and its error
    message, [gridsched check --list], the fuzzer's scenario menu) derives
    from this list, so the registry and its listings cannot drift. *)

val select_min : ?name:string -> score:pair_score -> Lookahead.t -> t
(** General minimising policy; default name ["ECEF-LA<lookahead>"]. *)

val ecef_with : ?name:string -> Lookahead.t -> t
(** [select_min ~score:Arrival]. *)

val sized : threshold:int -> small:t -> large:t -> t
(** Named ["Mixed<small|large@threshold>"].
    @raise Invalid_argument if [threshold < 1]. *)

val resolve : n:int -> t -> t
(** Unwrap {!Sized} dispatch for an [n]-cluster instance; the result's
    shape is never [Sized]. *)

val by_name : string -> t option
(** Lookup: exact name first among {!all}; then the parameterised forms
    ["ECEF-LA<lookahead>"] and ["Mixed<small|large@threshold>"]
    (components may themselves be parameterised); finally a
    case-insensitive match {e only when unambiguous} — "ecef-lat" matches
    both ECEF-LAt and ECEF-LAT, so it resolves to [None]; spell those two
    exactly. *)
