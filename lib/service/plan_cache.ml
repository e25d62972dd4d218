module Fingerprint = Gridb_topology.Fingerprint
module Adaptive = Gridb_des.Adaptive
module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

type key = {
  fingerprint : Fingerprint.t;
  root : int;
  bucket : int;
  policy : string;
}

let bucket_of_size msg =
  if msg < 0 then invalid_arg "Plan_cache.bucket_of_size: negative size";
  let rec up c = if c >= msg then c else up (2 * c) in
  up 64

let key ~fingerprint ~root ~msg ~policy =
  { fingerprint; root; bucket = bucket_of_size msg; policy }

let key_string k =
  Printf.sprintf "%s/fp=%s/root=%d/class=%d" k.policy
    (Fingerprint.to_string k.fingerprint)
    k.root k.bucket

(* Sparse quality matrix at plan time: the estimator's size and its
   materialised links' qualities, ascending by flattened index; every other
   link was at quality 1. *)
type snapshot = { size : int; entries : (int * float) array }

type entry = {
  schedule : Gridb_sched.Schedule.t;
  (* [None] when the entry was planned without a live estimator (nominal
     conditions, quality 1. everywhere). *)
  snapshot : snapshot option;
}

type stats = { hits : int; misses : int; invalidations : int; entries : int }

type t = {
  tbl : (key, entry) Hashtbl.t;
  threshold : float;
  obs : Sink.t;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

let default_threshold = 0.25

let create ?(threshold = default_threshold) ?(obs = Sink.null) () =
  if threshold <= 0. then invalid_arg "Plan_cache.create: threshold must be positive";
  { tbl = Hashtbl.create 64; threshold; obs; hits = 0; misses = 0; invalidations = 0 }

let snapshot_of est =
  { size = Adaptive.size est; entries = Adaptive.quality_entries est }

(* Mean absolute per-link quality drift between plan time and now, over
   all n*n links.  A nominal snapshot ([None]) counts every link as quality
   1.; incompatible estimator sizes diverge infinitely (a population change
   always invalidates).  Only links listed on either side can contribute:
   the sum walks their union in ascending index order, and every skipped
   term is |1 - 1| = 0, so the float result equals the dense n*n sum. *)
let divergence ~snapshot est =
  let n = Adaptive.size est in
  match snapshot with
  | Some snap when snap.size <> n -> infinity
  | _ ->
      let live = Adaptive.quality_entries est in
      let base = match snapshot with Some snap -> snap.entries | None -> [||] in
      let nl = Array.length live and nb = Array.length base in
      let acc = ref 0. in
      let rec merge i j =
        if i < nl || j < nb then begin
          let li = if i < nl then fst live.(i) else max_int in
          let bj = if j < nb then fst base.(j) else max_int in
          let idx = min li bj in
          let lq = if li = idx then snd live.(i) else 1. in
          let bq = if bj = idx then snd base.(j) else 1. in
          acc := !acc +. Float.abs (lq -. bq);
          merge (if li = idx then i + 1 else i) (if bj = idx then j + 1 else j)
        end
      in
      merge 0 0;
      !acc /. float_of_int (n * n)

let publish_counters t =
  if Sink.enabled t.obs then begin
    Sink.emit t.obs (Event.Counter { name = "plan_cache.hits"; value = t.hits });
    Sink.emit t.obs (Event.Counter { name = "plan_cache.misses"; value = t.misses });
    Sink.emit t.obs
      (Event.Counter { name = "plan_cache.invalidations"; value = t.invalidations })
  end

let store t k ?estimator schedule =
  Hashtbl.replace t.tbl k { schedule; snapshot = Option.map snapshot_of estimator }

let miss t k ?estimator compute =
  t.misses <- t.misses + 1;
  if Sink.enabled t.obs then Sink.emit t.obs (Event.Cache_miss { key = key_string k });
  let s = compute () in
  store t k ?estimator s;
  publish_counters t;
  s

let lookup t ?estimator k ~compute =
  match Hashtbl.find_opt t.tbl k with
  | None -> (miss t k ?estimator compute, `Miss)
  | Some entry -> (
      match estimator with
      | Some est when divergence ~snapshot:entry.snapshot est > t.threshold ->
          Hashtbl.remove t.tbl k;
          t.invalidations <- t.invalidations + 1;
          (miss t k ?estimator compute, `Invalidated)
      | _ ->
          t.hits <- t.hits + 1;
          if Sink.enabled t.obs then
            Sink.emit t.obs (Event.Cache_hit { key = key_string k });
          publish_counters t;
          (entry.schedule, `Hit))

let find t k = Option.map (fun e -> e.schedule) (Hashtbl.find_opt t.tbl k)

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    entries = Hashtbl.length t.tbl;
  }

let threshold t = t.threshold
let clear t = Hashtbl.reset t.tbl
