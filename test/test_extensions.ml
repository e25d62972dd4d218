(* Tests for gridb_extensions: scatter ordering (future work), alltoall
   scheduling, and the multilevel broadcast. *)

module Scatter = Gridb_extensions.Scatter_sched
module Alltoall = Gridb_extensions.Alltoall_sched
module Multilevel = Gridb_extensions.Multilevel
module Grid5000 = Gridb_topology.Grid5000
module Generators = Gridb_topology.Generators
module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Plan = Gridb_des.Plan
module Exec = Gridb_des.Exec
module Rng = Gridb_util.Rng

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

let random_grid ?(n = 6) seed =
  let rng = Rng.create seed in
  Generators.uniform_random ~rng ~n Generators.default_random_spec

(* --- Scatter ---------------------------------------------------------------- *)

let test_scatter_orders_are_permutations () =
  let grid = Grid5000.grid () in
  let root = 0 in
  let expected = [ 1; 2; 3; 4; 5 ] in
  let is_perm o = List.sort compare o = expected in
  Alcotest.(check bool) "in_order" true (is_perm (Scatter.in_order grid ~root));
  Alcotest.(check bool) "fef" true
    (is_perm (Scatter.fastest_edge_first grid ~root ~msg_per_proc:1_000));
  Alcotest.(check bool) "ldf" true
    (is_perm (Scatter.longest_delivery_first grid ~root ~msg_per_proc:1_000));
  Alcotest.(check bool) "optimal" true
    (is_perm (Scatter.optimal_order grid ~root ~msg_per_proc:1_000))

let test_scatter_evaluate_rejects_bad_order () =
  let grid = Grid5000.grid () in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Scatter_sched.evaluate: order is not a permutation of non-root clusters")
    (fun () -> ignore (Scatter.evaluate grid ~root:0 ~msg_per_proc:100 [ 1; 2; 3 ]))

let jackson_is_optimal =
  QCheck.Test.make ~name:"Jackson LDF matches brute-force optimum" ~count:(Testutil.count 40)
    QCheck.(pair (int_range 3 7) (int_bound 10_000))
    (fun (n, seed) ->
      let grid = random_grid ~n seed in
      let msg_per_proc = 5_000 in
      let ldf =
        Scatter.evaluate grid ~root:0 ~msg_per_proc
          (Scatter.longest_delivery_first grid ~root:0 ~msg_per_proc)
      in
      let opt =
        Scatter.evaluate grid ~root:0 ~msg_per_proc
          (Scatter.optimal_order grid ~root:0 ~msg_per_proc)
      in
      feq ~eps:1e-9 ldf.Scatter.makespan opt.Scatter.makespan)

let scatter_orders_never_beat_optimal =
  QCheck.Test.make ~name:"no order beats the brute-force optimum" ~count:(Testutil.count 30)
    QCheck.(pair (int_range 3 7) (int_bound 10_000))
    (fun (n, seed) ->
      let grid = random_grid ~n seed in
      let msg_per_proc = 20_000 in
      let opt =
        (Scatter.evaluate grid ~root:0 ~msg_per_proc
           (Scatter.optimal_order grid ~root:0 ~msg_per_proc))
          .Scatter.makespan
      in
      List.for_all
        (fun order ->
          (Scatter.evaluate grid ~root:0 ~msg_per_proc order).Scatter.makespan
          >= opt -. 1e-6)
        [
          Scatter.in_order grid ~root:0;
          Scatter.fastest_edge_first grid ~root:0 ~msg_per_proc;
        ])

let test_scatter_completion_structure () =
  let grid = Grid5000.grid () in
  let msg_per_proc = 10_000 in
  let e = Scatter.evaluate grid ~root:0 ~msg_per_proc (Scatter.in_order grid ~root:0) in
  Alcotest.(check int) "every cluster completes" 6 (Array.length e.Scatter.per_cluster);
  (* completions are positive and include the root *)
  Array.iter
    (fun (c, t) ->
      Alcotest.(check bool) (Printf.sprintf "cluster %d positive" c) true (t > 0.))
    e.Scatter.per_cluster;
  Alcotest.(check bool) "makespan is the max" true
    (Array.for_all (fun (_, t) -> t <= e.Scatter.makespan +. 1e-9) e.Scatter.per_cluster)

let test_scatter_brute_force_ceiling () =
  let grid = random_grid ~n:10 1 in
  Alcotest.check_raises "too many"
    (Invalid_argument "Scatter_sched.optimal_order: too many clusters for brute force")
    (fun () -> ignore (Scatter.optimal_order grid ~root:0 ~msg_per_proc:10))

(* --- Alltoall ---------------------------------------------------------------- *)

let test_rotation_rounds_cover_all_pairs () =
  let n = 6 in
  let rounds = Alltoall.rotation_rounds n in
  Alcotest.(check int) "n(n-1) triples" (n * (n - 1)) (List.length rounds);
  let pairs = List.map (fun (_, s, d) -> (s, d)) rounds in
  let sorted = List.sort_uniq compare pairs in
  Alcotest.(check int) "each ordered pair once" (n * (n - 1)) (List.length sorted);
  List.iter (fun (_, s, d) -> Alcotest.(check bool) "no self" true (s <> d)) rounds

let test_alltoall_prediction_components () =
  let grid = Grid5000.grid () in
  let p = Alltoall.predict grid ~msg_per_pair:1_000 in
  Alcotest.(check bool) "gather > 0" true (p.Alltoall.gather > 0.);
  Alcotest.(check bool) "exchange > 0" true (p.Alltoall.exchange > 0.);
  Alcotest.(check bool) "scatter > 0" true (p.Alltoall.scatter > 0.);
  check_feq "total is the sum"
    (p.Alltoall.gather +. p.Alltoall.exchange +. p.Alltoall.scatter)
    p.Alltoall.total

let test_alltoall_scales_with_message () =
  let grid = Grid5000.grid () in
  let small = (Alltoall.predict grid ~msg_per_pair:100).Alltoall.total in
  let large = (Alltoall.predict grid ~msg_per_pair:10_000).Alltoall.total in
  Alcotest.(check bool) "monotone" true (large > small)

let test_alltoall_direct_positive () =
  let grid = Grid5000.grid () in
  Alcotest.(check bool) "positive" true (Alltoall.predict_direct grid ~msg_per_pair:100 > 0.)

let test_alltoall_nonblocking_beats_blocking () =
  let grid = Grid5000.grid () in
  let blocking = Alltoall.simulate grid ~msg_per_pair:1_000 in
  let nonblocking = Alltoall.simulate ~nonblocking:true grid ~msg_per_pair:1_000 in
  let bound = (Alltoall.predict grid ~msg_per_pair:1_000).Alltoall.total in
  Alcotest.(check bool) "nonblocking <= blocking" true (nonblocking <= blocking +. 1e-9);
  Alcotest.(check bool) "nonblocking >= gap bound" true (nonblocking >= bound -. 1e-6);
  (* posting all sends up front should land close to the bound *)
  Alcotest.(check bool) "nonblocking within 1.5x of bound" true
    (nonblocking <= 1.5 *. bound)

let test_alltoall_simulation_close_to_prediction () =
  (* The simMPI exchange is blocking, so it can exceed the gap-bound
     prediction, but must stay within a small factor and never beat it. *)
  let grid = Grid5000.grid () in
  let p = Alltoall.predict grid ~msg_per_pair:1_000 in
  let s = Alltoall.simulate grid ~msg_per_pair:1_000 in
  Alcotest.(check bool) "simulation >= bound" true (s >= p.Alltoall.total -. 1e-6);
  Alcotest.(check bool) "within 4x" true (s <= 4. *. p.Alltoall.total)

(* --- Reduce by duality ---------------------------------------------------------- *)

let reduce_duality_holds =
  QCheck.Test.make ~name:"reversed broadcast has identical makespan" ~count:(Testutil.count 50)
    QCheck.(pair (int_range 2 15) (int_bound 10_000))
    (fun (n, seed) ->
      let grid = random_grid ~n seed in
      let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg:500_000 grid in
      List.for_all
        (fun h ->
          Gridb_extensions.Reduce_sched.makespan_equals_broadcast inst
            (Engine.run h inst))
        Policy.all)

let test_reduce_events_are_reversed () =
  let grid = Grid5000.grid () in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let b = Engine.run Policy.ecef inst in
  let r = Gridb_extensions.Reduce_sched.of_broadcast inst b in
  Alcotest.(check int) "same root" 0 r.Gridb_extensions.Reduce_sched.root;
  Alcotest.(check int) "same event count"
    (List.length b.Gridb_sched.Schedule.events)
    (List.length r.Gridb_extensions.Reduce_sched.events);
  (* every broadcast edge appears flipped *)
  let flipped =
    List.map
      (fun e -> (e.Gridb_sched.Schedule.dst, e.Gridb_sched.Schedule.src))
      b.Gridb_sched.Schedule.events
    |> List.sort compare
  in
  let reduced =
    List.map
      (fun e ->
        (e.Gridb_extensions.Reduce_sched.src, e.Gridb_extensions.Reduce_sched.dst))
      r.Gridb_extensions.Reduce_sched.events
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "edges flipped" flipped reduced;
  (* events are non-negative in time and ordered *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "start >= 0" true (e.Gridb_extensions.Reduce_sched.start >= -1e-9))
    r.Gridb_extensions.Reduce_sched.events

let test_reduce_best_heuristic () =
  let grid = Grid5000.grid () in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let h, r = Gridb_extensions.Reduce_sched.best_heuristic inst Policy.all in
  Alcotest.(check bool) "best is not the flat tree" true
    (Policy.name h <> "FlatTree");
  let _, flat =
    Gridb_extensions.Reduce_sched.best_heuristic inst [ Policy.flat_tree ]
  in
  Alcotest.(check bool) "beats flat-tree reduce" true
    (r.Gridb_extensions.Reduce_sched.makespan
    < flat.Gridb_extensions.Reduce_sched.makespan)

(* --- Segmented hierarchical broadcast ------------------------------------------- *)

module Pb = Gridb_extensions.Pipeline_bcast

let grid5000_plan msg =
  let grid = Grid5000.grid () in
  let machines = Machines.expand grid in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg grid in
  (machines, Plan.of_cluster_schedule machines (Engine.run Policy.ecef_la inst))

let test_pb_segment_size () =
  Alcotest.(check int) "even" 1_000 (Pb.segment_size ~msg:4_000 ~segments:4);
  Alcotest.(check int) "rounds up" 1_001 (Pb.segment_size ~msg:4_001 ~segments:4);
  Alcotest.(check int) "floor 1" 1 (Pb.segment_size ~msg:2 ~segments:10);
  Alcotest.check_raises "segments < 1"
    (Invalid_argument "Pipeline_bcast.segment_size: segments < 1") (fun () ->
      ignore (Pb.segment_size ~msg:10 ~segments:0))

let test_pb_one_segment_matches_plain () =
  let msg = 1_000_000 in
  let machines, plan = grid5000_plan msg in
  let plain = (Exec.run ~msg machines plan).Exec.makespan in
  let seg1 = Pb.simulate machines plan ~msg ~segments:1 in
  Alcotest.(check (float 1e-6)) "S=1 = plain broadcast" plain seg1

let test_pb_segmentation_helps_large_messages () =
  let msg = 4_000_000 in
  let machines, plan = grid5000_plan msg in
  let s1 = Pb.simulate machines plan ~msg ~segments:1 in
  let s8 = Pb.simulate machines plan ~msg ~segments:8 in
  Alcotest.(check bool) "8 segments beat 1" true (s8 < s1)

(* --- DOT export ---------------------------------------------------------------- *)

let test_dot_export () =
  let grid = Grid5000.grid () in
  let dot = Gridb_topology.Dot.to_dot grid in
  Alcotest.(check bool) "graph header" true (String.length dot > 100);
  let contains sub =
    let n = String.length dot and m = String.length sub in
    let rec go i = i + m <= n && (String.sub dot i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has all clusters" true (contains "Toulouse");
  Alcotest.(check bool) "wan styled" true (contains "style=bold");
  Alcotest.(check bool) "edge count" true (contains "c0 -- c1")

(* --- Multilevel ---------------------------------------------------------------- *)

let multilevel_spec =
  { Generators.default_multilevel_spec with sites = 3; clusters_per_site = 3 }

let multilevel_machines seed =
  let rng = Rng.create seed in
  Machines.expand (Generators.multilevel ~rng multilevel_spec)

let test_representatives () =
  let reps =
    Multilevel.representatives
      ~site_of_cluster:(Generators.site_of_cluster multilevel_spec)
      ~n_clusters:9 ~root:4
  in
  Alcotest.(check int) "3 sites" 3 (Array.length reps);
  Alcotest.(check int) "root site rep is root" 4 reps.(1);
  Alcotest.(check int) "site 0 rep" 0 reps.(0);
  Alcotest.(check int) "site 2 rep" 6 reps.(2)

let multilevel_plans_span =
  QCheck.Test.make ~name:"multilevel plans span all ranks" ~count:(Testutil.count 20)
    QCheck.(pair (int_bound 1_000) (int_range 0 8))
    (fun (seed, root) ->
      let machines = multilevel_machines seed in
      let site_of_cluster = Generators.site_of_cluster multilevel_spec in
      let plan =
        Multilevel.plan ~site_of_cluster ~root ~msg:1_000_000 machines
      in
      Plan.size plan = Machines.count machines
      && plan.Plan.root = Machines.coordinator machines root)

let test_multilevel_beats_flat () =
  let machines = multilevel_machines 3 in
  let site_of_cluster = Generators.site_of_cluster multilevel_spec in
  let msg = 2_000_000 in
  let smart = Multilevel.plan ~site_of_cluster ~root:0 ~msg machines in
  let flat = Multilevel.flat_sites_plan ~site_of_cluster ~root:0 ~msg machines in
  let grid = Machines.grid machines in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg grid in
  let single_flat =
    Plan.of_cluster_schedule machines (Engine.run Policy.flat_tree inst)
  in
  let run p = (Exec.run ~msg machines p).Exec.makespan in
  Alcotest.(check bool) "heuristic multilevel <= flat multilevel" true
    (run smart <= run flat +. 1e-6);
  Alcotest.(check bool) "multilevel beats single-level flat tree" true
    (run smart < run single_flat)

let test_multilevel_exec_consistency () =
  (* Executing the same plan twice without noise is deterministic. *)
  let machines = multilevel_machines 4 in
  let site_of_cluster = Generators.site_of_cluster multilevel_spec in
  let plan = Multilevel.plan ~site_of_cluster ~root:2 ~msg:500_000 machines in
  let a = (Exec.run ~msg:500_000 machines plan).Exec.makespan in
  let b = (Exec.run ~msg:500_000 machines plan).Exec.makespan in
  check_feq "deterministic" a b

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [
      ( "scatter",
        [
          quick "orders are permutations" test_scatter_orders_are_permutations;
          quick "rejects bad order" test_scatter_evaluate_rejects_bad_order;
          QCheck_alcotest.to_alcotest jackson_is_optimal;
          QCheck_alcotest.to_alcotest scatter_orders_never_beat_optimal;
          quick "completion structure" test_scatter_completion_structure;
          quick "brute force ceiling" test_scatter_brute_force_ceiling;
        ] );
      ( "alltoall",
        [
          quick "rotation covers pairs" test_rotation_rounds_cover_all_pairs;
          quick "prediction components" test_alltoall_prediction_components;
          quick "scales with message" test_alltoall_scales_with_message;
          quick "direct positive" test_alltoall_direct_positive;
          quick "simulation close to prediction" test_alltoall_simulation_close_to_prediction;
          quick "nonblocking beats blocking" test_alltoall_nonblocking_beats_blocking;
        ] );
      ( "reduce",
        [
          QCheck_alcotest.to_alcotest reduce_duality_holds;
          quick "events reversed" test_reduce_events_are_reversed;
          quick "best heuristic" test_reduce_best_heuristic;
        ] );
      ( "pipeline-bcast",
        [
          quick "segment size" test_pb_segment_size;
          quick "one segment = plain" test_pb_one_segment_matches_plain;
          quick "segmentation helps" test_pb_segmentation_helps_large_messages;
        ] );
      ("dot", [ quick "export" test_dot_export ]);
      ( "multilevel",
        [
          quick "representatives" test_representatives;
          QCheck_alcotest.to_alcotest multilevel_plans_span;
          quick "beats flat" test_multilevel_beats_flat;
          quick "deterministic execution" test_multilevel_exec_consistency;
        ] );
    ]
