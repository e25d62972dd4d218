(* The per-layer ledger of one traced run: counts read at the layer
   boundaries plus the span self times, reported under one fixed list of
   names whatever the workload (a layer a workload never calls reads 0). *)

type t = {
  mutable cache_lookups : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_invalidations : int;
  mutable engine_plans : int;
  mutable pair_evaluations : int;
  mutable lookahead_terms : int;
  mutable rescored : int;
  mutable decisions : int;
  mutable admits : int;
  mutable rejects_concurrency : int;
  mutable rejects_backlog : int;
  mutable sheds : int;
  mutable compiles : int;
  mutable launches : int;
  mutable transmissions : int;
  mutable retransmissions : int;
  mutable acks : int;
  mutable reroutes : int;
  mutable circuit_opens : int;
  mutable des_events : int;
  mutable realised_over_predicted : float array;  (** sorted *)
  mutable requeues : int;
  mutable retry_lookups : int;
  mutable obs_events : int;
  mutable gc : Measure.gc_delta;  (** of one untraced call *)
  mutable untraced_wall_s : float;  (** median untraced call *)
}

let create () =
  { cache_lookups = 0; cache_hits = 0; cache_misses = 0; cache_invalidations = 0;
    engine_plans = 0; pair_evaluations = 0; lookahead_terms = 0; rescored = 0;
    decisions = 0; admits = 0; rejects_concurrency = 0; rejects_backlog = 0; sheds = 0;
    compiles = 0; launches = 0; transmissions = 0; retransmissions = 0; acks = 0;
    reroutes = 0; circuit_opens = 0; des_events = 0; realised_over_predicted = [||];
    requeues = 0; retry_lookups = 0; obs_events = 0;
    gc = Measure.gc_zero;
    untraced_wall_s = nan }

(* Engine-size buckets of [engine.busy_ms.n*]: upper bounds on n. *)
let n_buckets = [| 6; 16; 32; 64; 128 |]

let bucket_of n =
  let rec go i =
    if i >= Array.length n_buckets - 1 || n <= n_buckets.(i) then i else go (i + 1)
  in
  go 0

(* Engine counters published on a Memory sink as [Counter] events. *)
let add_engine_counters t events =
  List.iter
    (function
      | Gridb_obs.Event.Counter { name = "pair_evaluations"; value } ->
          t.pair_evaluations <- t.pair_evaluations + value
      | Gridb_obs.Event.Counter { name = "lookahead_terms"; value } ->
          t.lookahead_terms <- t.lookahead_terms + value
      | Gridb_obs.Event.Counter { name = "rescored"; value } -> t.rescored <- t.rescored + value
      | _ -> ())
    events

(* Per-layer self time (ms) and self allocation of one traced ledger, the
   engine's time split by instance size, and the traced wall (ms). *)
type timing = {
  self_ms : float array;
  self_alloc : float array;
  engine_ms_by_n : float array;
  wall_ms : float;
  spans : int;
}

let timing_of led =
  let tot = Ledger.totals led in
  let by_n = Array.make (Array.length n_buckets) 0. in
  let engine = Ledger.index Ledger.Engine in
  Ledger.iter_self led (fun l tag ns _ ->
      if l = engine then
        let b = bucket_of tag in
        by_n.(b) <- by_n.(b) +. (float_of_int ns *. 1e-6));
  let sum_ns = Array.fold_left ( + ) 0 tot.Ledger.self_ns in
  if sum_ns <> Ledger.wall_ns led then
    failwith
      (Printf.sprintf "ledger: layer self times sum to %d ns, traced wall is %d ns" sum_ns
         (Ledger.wall_ns led));
  { self_ms = Array.map (fun ns -> float_of_int ns *. 1e-6) tot.Ledger.self_ns;
    self_alloc = tot.Ledger.self_alloc;
    engine_ms_by_n = by_n;
    wall_ms = float_of_int (Ledger.wall_ns led) *. 1e-6;
    spans = Ledger.spans led }

(* Element-wise median over the traced repetitions; allocation is exact,
   so the last repetition's is taken. *)
let median_timing = function
  | [] -> invalid_arg "Layers.median_timing: no traced repetition"
  | last :: _ as ts ->
      let col f i = Measure.median (List.map (fun t -> (f t).(i)) ts) in
      { self_ms = Array.mapi (fun i _ -> col (fun t -> t.self_ms) i) last.self_ms;
        self_alloc = last.self_alloc;
        engine_ms_by_n =
          Array.mapi (fun i _ -> col (fun t -> t.engine_ms_by_n) i) last.engine_ms_by_n;
        wall_ms = Measure.median (List.map (fun t -> t.wall_ms) ts);
        spans = last.spans }

let metrics t (tm : timing) =
  let open Measure in
  let busy prefix l = m (prefix ^ ".busy_ms") "ms" tm.self_ms.(Ledger.index l) in
  let words name l = m ~tol:0. name "words" tm.self_alloc.(Ledger.index l) in
  let pct p =
    if Array.length t.realised_over_predicted = 0 then 0.
    else percentile t.realised_over_predicted p
  in
  [ busy "fingerprint" Ledger.Fingerprint;
    count "plan_cache.lookups" t.cache_lookups;
    count "plan_cache.hits" t.cache_hits;
    count "plan_cache.misses" t.cache_misses;
    count "plan_cache.invalidations" t.cache_invalidations;
    m ~tol:0. "plan_cache.hit_ratio" "ratio" (ratio t.cache_hits t.cache_lookups);
    busy "plan_cache" Ledger.Plan_cache;
    words "plan_cache.alloc_words" Ledger.Plan_cache;
    count "engine.plans" t.engine_plans;
    busy "engine" Ledger.Engine;
    words "engine.alloc_words" Ledger.Engine;
    count "engine.pair_evaluations" t.pair_evaluations;
    count "engine.lookahead_terms" t.lookahead_terms;
    count "engine.rescored" t.rescored ]
  @ Array.to_list
      (Array.mapi
         (fun i n -> m (Printf.sprintf "engine.busy_ms.n%d" n) "ms" tm.engine_ms_by_n.(i))
         n_buckets)
  @ [ count "admission.decisions" t.decisions;
      count "admission.admits" t.admits;
      count "admission.rejects_concurrency" t.rejects_concurrency;
      count "admission.rejects_backlog" t.rejects_backlog;
      count "admission.sheds" t.sheds;
      busy "admission" Ledger.Admission;
      count "plan.compiles" t.compiles;
      m "plan.compile_ms" "ms" tm.self_ms.(Ledger.index Ledger.Plan);
      words "plan.alloc_words" Ledger.Plan;
      count "session.launches" t.launches;
      m "session.launch_ms" "ms" tm.self_ms.(Ledger.index Ledger.Session);
      count "session.transmissions" t.transmissions;
      count "session.retransmissions" t.retransmissions;
      count "session.acks" t.acks;
      count "session.reroutes" t.reroutes;
      count "session.circuit_opens" t.circuit_opens;
      m "des_engine.run_ms" "ms" tm.self_ms.(Ledger.index Ledger.Des_engine);
      count "des_engine.events" t.des_events;
      m ~tol:0. "des_engine.events_per_session" "count" (ratio t.des_events t.launches);
      m ~tol:0. "des_engine.alloc_words_per_event" "words"
        (if t.des_events = 0 then 0.
         else tm.self_alloc.(Ledger.index Ledger.Des_engine) /. float_of_int t.des_events);
      m ~tol:0. "session.realised_over_predicted_p50" "ratio" (pct 50.);
      m ~tol:0. "session.realised_over_predicted_p99" "ratio" (pct 99.);
      count "server.requeues" t.requeues;
      count "server.retry_lookups" t.retry_lookups;
      m "server.fold_ms" "ms" tm.self_ms.(Ledger.index Ledger.Fold);
      m "server.unattributed_ms" "ms" tm.self_ms.(Ledger.index Ledger.Root);
      count "obs.events" t.obs_events;
      m "obs.profile_ms" "ms" tm.self_ms.(Ledger.index Ledger.Profile);
      (* Collection counts depend on the heap the call starts from, so they
         are not held to exact repetition. *)
      m "gc.minor_collections" "count" (float_of_int t.gc.minor_collections);
      m "gc.major_collections" "count" (float_of_int t.gc.major_collections);
      m "gc.promoted_words" "words" t.gc.promoted_words;
      m "trace.wall_ms" "ms" tm.wall_ms;
      count "trace.spans" tm.spans;
      m "trace.overhead_ratio" "ratio" (tm.wall_ms *. 1e-3 /. t.untraced_wall_s) ]
