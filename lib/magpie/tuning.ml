module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid
module Cluster = Gridb_topology.Cluster
module Params = Gridb_plogp.Params
module Sink = Gridb_obs.Sink
module Plan_cache = Gridb_service.Plan_cache

type t = {
  machines : Machines.t;
  measured : Grid.t;
  (* The schedule cache is the shared service-layer one, keyed by the
     fingerprint of the MEASURED view (plans are computed against it, so
     re-measuring invalidates by key) plus (root, class, heuristic). *)
  cache : Plan_cache.t;
  fingerprint : Gridb_topology.Fingerprint.t;
  obs : Sink.t;
}

let measure_intra ?noise ?seed ?sizes machines cluster =
  let grid = Machines.grid machines in
  let c = Grid.cluster grid cluster in
  if c.Cluster.size >= 2 then begin
    let a = Machines.rank_of machines ~cluster ~index:0 in
    let b = Machines.rank_of machines ~cluster ~index:1 in
    Gridb_mpi.Benchmarks.measure_link ?noise ?seed ?sizes machines ~a ~b
  end
  else
    (* A single machine has no internal link to probe; its broadcast time is
       0 regardless, so any fast placeholder works. *)
    Params.linear ~latency:10. ~g0:10. ~bandwidth_mb_s:1000.

let create ?noise ?seed ?sizes ?(obs = Sink.null) machines =
  let grid = Machines.grid machines in
  let n = Grid.size grid in
  let clusters =
    List.init n (fun c ->
        let truth = Grid.cluster grid c in
        Cluster.v ~id:c
          ~name:(truth.Cluster.name ^ "-measured")
          ~size:truth.Cluster.size
          ~intra:(measure_intra ?noise ?seed ?sizes machines c))
  in
  let placeholder = Params.linear ~latency:1. ~g0:1. ~bandwidth_mb_s:1000. in
  let inter = Array.make_matrix n n placeholder in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let a = Machines.coordinator machines i in
        let b = Machines.coordinator machines j in
        inter.(i).(j) <- Gridb_mpi.Benchmarks.measure_link ?noise ?seed ?sizes machines ~a ~b
      end
    done
  done;
  let measured = Grid.v ~clusters ~inter in
  {
    machines;
    measured;
    cache = Plan_cache.create ~obs ();
    fingerprint = Gridb_topology.Fingerprint.of_machines (Machines.expand measured);
    obs;
  }

let machines t = t.machines
let obs t = t.obs
let measured_grid t = t.measured

let size_class msg =
  if msg < 0 then invalid_arg "Tuning.size_class: negative size";
  let rec up c = if c >= msg then c else up (2 * c) in
  up 64

let instance t ~root ~msg =
  Gridb_sched.Instance.of_grid ~root ~msg:(size_class msg) t.measured

let schedule ?estimator t ~heuristic ~root ~msg =
  let key =
    Plan_cache.key ~fingerprint:t.fingerprint ~root ~msg
      ~policy:(Gridb_sched.Policy.name heuristic)
  in
  let s, _ =
    Plan_cache.lookup t.cache ?estimator key ~compute:(fun () ->
        Gridb_sched.Engine.run heuristic (instance t ~root ~msg))
  in
  s

let plan_cache t = t.cache

let cache_stats t =
  let s = Plan_cache.stats t.cache in
  (s.Plan_cache.hits, s.Plan_cache.misses)
