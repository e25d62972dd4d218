module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Lookahead = Gridb_sched.Lookahead
module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Mixed = Gridb_sched.Mixed
module State = Gridb_sched.State
module Topology = Gridb_topology
module Tree = Gridb_collectives.Tree
module Des = Gridb_des
module Ext = Gridb_extensions

let seconds us = us /. 1e6

let ns = [ 5; 10; 15; 20; 25; 30; 35; 40; 45; 50 ]

let sweep_figure config ~id ~title ~extract ~y_label heuristics =
  let points = Sweep.run config ~ns heuristics in
  let series =
    List.combine
      (List.map Policy.name heuristics)
      (Sweep.transpose points extract)
  in
  { Report.id; title; x_label = "clusters"; y_label; series; notes = [] }

let lookahead_sweep config =
  let heuristics = List.map Policy.ecef_with Lookahead.all in
  sweep_figure config ~id:"abl-lookahead"
    ~title:"Ablation: lookahead function plugged into the ECEF driver"
    ~extract:Sweep.mean_seconds ~y_label:"mean completion time (s)" heuristics

(* FEF scoring by transmission time instead of latency.  The Transmission
   pair score reproduces the old ascending-(i, j) first-wins scan, and being
   a policy it runs on the incremental engine like the named heuristics. *)
let fef_transmission =
  Policy.select_min ~name:"FEF(g+L)" ~score:Policy.Transmission Lookahead.none

let fef_edge_weight config =
  sweep_figure config ~id:"abl-fef-edge"
    ~title:"Ablation: FEF edge weight (latency vs transmission time)"
    ~extract:Sweep.mean_seconds ~y_label:"mean completion time (s)"
    [ Policy.fef; fef_transmission; Policy.ecef ]

let intra_shape _config =
  let grid = Topology.Grid5000.grid () in
  let shapes = Tree.all_shapes in
  let series =
    List.map
      (fun shape ->
        let points =
          List.map
            (fun msg ->
              let inst =
                Instance.of_grid ~shape ~root:Topology.Grid5000.root_cluster ~msg grid
              in
              ( float_of_int msg,
                seconds (Engine.makespan Policy.ecef_lat_max inst) ))
            Figures.message_sizes
        in
        (Tree.shape_name shape, points))
      shapes
  in
  {
    Report.id = "abl-intra-shape";
    title = "Ablation: intra-cluster tree shape feeding T_k (ECEF-LAT, GRID5000)";
    x_label = "message size (bytes)";
    y_label = "predicted completion time (s)";
    series;
    notes = [];
  }

let mixed_strategy config =
  let mixed = Mixed.strategy () in
  sweep_figure config ~id:"abl-mixed"
    ~title:"Ablation: Section 6 mixed strategy vs its components (hit counts)"
    ~extract:Sweep.hits
    ~y_label:(Printf.sprintf "hits out of %d" config.Config.iterations)
    [ Policy.ecef_la; Policy.ecef_lat_max; mixed ]

let completion_models config =
  let run model label =
    let cfg = Config.with_model model config in
    let points = Sweep.run cfg ~ns [ Policy.ecef; Policy.ecef_lat_max ] in
    List.map2
      (fun name column -> (name ^ label, column))
      [ "ECEF"; "ECEF-LAT" ]
      (Sweep.transpose points Sweep.mean_seconds)
  in
  {
    Report.id = "abl-completion";
    title = "Ablation: completion model (after-sends vs overlapped)";
    x_label = "clusters";
    y_label = "mean completion time (s)";
    series = run Schedule.After_sends "/after-sends" @ run Schedule.Overlapped "/overlapped";
    notes = [];
  }

let scatter_orders () =
  let grid = Topology.Grid5000.grid () in
  let root = Topology.Grid5000.root_cluster in
  let sizes = [ 1_000; 10_000; 50_000; 100_000; 250_000; 500_000 ] in
  let strategies =
    [
      ("in-order", fun msg -> ignore msg; Ext.Scatter_sched.in_order grid ~root);
      ("FEF", fun msg -> Ext.Scatter_sched.fastest_edge_first grid ~root ~msg_per_proc:msg);
      ( "Jackson-LDF",
        fun msg -> Ext.Scatter_sched.longest_delivery_first grid ~root ~msg_per_proc:msg );
      ("optimal", fun msg -> Ext.Scatter_sched.optimal_order grid ~root ~msg_per_proc:msg);
    ]
  in
  let series =
    List.map
      (fun (name, order_of) ->
        let points =
          List.map
            (fun msg ->
              let e = Ext.Scatter_sched.evaluate grid ~root ~msg_per_proc:msg (order_of msg) in
              (float_of_int msg, seconds e.Ext.Scatter_sched.makespan))
            sizes
        in
        (name, points))
      strategies
  in
  {
    Report.id = "abl-scatter";
    title = "Future work: scatter send-order heuristics on GRID5000";
    x_label = "bytes per process";
    y_label = "completion time (s)";
    series;
    notes = [ "Jackson-LDF is provably optimal for this model; the curves coincide." ];
  }

let multilevel_gain config =
  let rng = Gridb_util.Rng.create config.Config.seed in
  let spec = Topology.Generators.default_multilevel_spec in
  let grid = Topology.Generators.multilevel ~rng spec in
  let machines = Topology.Machines.expand grid in
  let site_of_cluster = Topology.Generators.site_of_cluster spec in
  let root = 0 in
  let sizes = [ 250_000; 1_000_000; 2_000_000; 4_000_000 ] in
  let execute plan msg =
    seconds (Des.Exec.run ~msg machines plan).Des.Exec.makespan
  in
  let strategies =
    [
      ( "multilevel(ECEF-LA/ECEF)",
        fun msg -> Ext.Multilevel.plan ~site_of_cluster ~root ~msg machines );
      ( "multilevel(flat)",
        fun msg -> Ext.Multilevel.flat_sites_plan ~site_of_cluster ~root ~msg machines );
      ( "single-level ECEF-LA",
        fun msg ->
          let inst = Instance.of_grid ~root ~msg grid in
          Des.Plan.of_cluster_schedule machines (Engine.run Policy.ecef_la inst) );
      ( "single-level FlatTree",
        fun msg ->
          let inst = Instance.of_grid ~root ~msg grid in
          Des.Plan.of_cluster_schedule machines (Engine.run Policy.flat_tree inst)
      );
    ]
  in
  let series =
    List.map
      (fun (name, plan_of) ->
        (name, List.map (fun msg -> (float_of_int msg, execute (plan_of msg) msg)) sizes))
      strategies
  in
  {
    Report.id = "abl-multilevel";
    title = "Extension: Karonis-style multilevel broadcast vs single-level";
    x_label = "message size (bytes)";
    y_label = "DES makespan (s)";
    series;
    notes =
      [
        Printf.sprintf "random %d-site x %d-cluster topology, seed %d" spec.Topology.Generators.sites
          spec.Topology.Generators.clusters_per_site config.Config.seed;
      ];
  }

let alltoall_aggregation () =
  let grid = Topology.Grid5000.grid () in
  let sizes = [ 100; 500; 1_000; 5_000; 10_000 ] in
  let per_size f = List.map (fun m -> (float_of_int m, seconds (f m))) sizes in
  let series =
    [
      ( "hierarchical (gap bound)",
        per_size (fun m ->
            (Ext.Alltoall_sched.predict grid ~msg_per_pair:m).Ext.Alltoall_sched.total) );
      ( "hierarchical (blocking sim)",
        per_size (fun m -> Ext.Alltoall_sched.simulate grid ~msg_per_pair:m) );
      ( "hierarchical (nonblocking sim)",
        per_size (fun m ->
            Ext.Alltoall_sched.simulate ~nonblocking:true grid ~msg_per_pair:m) );
      ( "direct machine-level",
        per_size (fun m -> Ext.Alltoall_sched.predict_direct grid ~msg_per_pair:m) );
    ]
  in
  {
    Report.id = "abl-alltoall";
    title = "Future work: alltoall with and without cluster aggregation (GRID5000)";
    x_label = "bytes per process pair";
    y_label = "completion time (s)";
    series;
    notes =
      [ "nonblocking isend saturates the coordinator NIC and approaches the gap bound" ];
  }

let ratio_sweep config ~ns ~iterations_cap ~denominator heuristics ~id ~title ~y_label
    ~notes =
  let iterations = min config.Config.iterations iterations_cap in
  let series =
    List.map (fun (h : Policy.t) -> (Policy.name h, ref [])) heuristics
  in
  List.iteri
    (fun point n ->
      let rng = Config.point_rng config ~point in
      let sums = Array.make (List.length heuristics) 0. in
      for _ = 1 to iterations do
        let inst = Instance.random ~rng ~n config.Config.ranges in
        let denom = denominator inst in
        List.iteri
          (fun i h -> sums.(i) <- sums.(i) +. (Engine.makespan h inst /. denom))
          heuristics
      done;
      List.iteri
        (fun i (_, acc) ->
          acc := (float_of_int n, sums.(i) /. float_of_int iterations) :: !acc)
        series)
    ns;
  {
    Report.id;
    title;
    x_label = "clusters";
    y_label;
    series = List.map (fun (name, acc) -> (name, List.rev !acc)) series;
    notes;
  }

let optimality_gap config =
  ratio_sweep config ~ns:[ 3; 4; 5; 6; 7 ] ~iterations_cap:400
    ~denominator:Gridb_opt.Exact.makespan Policy.all ~id:"abl-optgap"
    ~title:"Ablation: mean makespan ratio to the certified optimum"
    ~y_label:"heuristic / optimal"
    ~notes:
      [ "1.0 means provably optimal; the paper's 'global minimum' only compares"; "heuristics against each other." ]

let bound_gap config =
  ratio_sweep config ~ns ~iterations_cap:1_000
    ~denominator:Gridb_sched.Bounds.combined
    [ Policy.flat_tree; Policy.ecef; Policy.ecef_la; Policy.ecef_lat_max ]
    ~id:"abl-boundgap"
    ~title:"Ablation: mean makespan ratio to the analytic lower bound"
    ~y_label:"heuristic / lower bound"
    ~notes:[ "the bound (Bounds.combined) is loose but absolute and scales to any n" ]

let heterogeneity_sensitivity config =
  let n = 30 in
  let iterations = min config.Config.iterations 1_500 in
  let t_maxima_ms = [ 50.; 200.; 500.; 1_000.; 3_000.; 6_000. ] in
  let heuristics = [ Policy.fef; Policy.ecef; Policy.ecef_lat_max; Policy.bottom_up ] in
  let series = List.map (fun (h : Policy.t) -> (Policy.name h, ref [])) heuristics in
  List.iteri
    (fun point t_max ->
      let rng = Config.point_rng config ~point in
      let ranges =
        { config.Config.ranges with Instance.intra_us = (20_000., t_max *. 1e3) }
      in
      let sums = Array.make (List.length heuristics) 0. in
      for _ = 1 to iterations do
        let inst = Instance.random ~rng ~n ranges in
        List.iteri
          (fun i h -> sums.(i) <- sums.(i) +. Engine.makespan h inst)
          heuristics
      done;
      List.iteri
        (fun i (_, acc) -> acc := (t_max, seconds (sums.(i) /. float_of_int iterations)) :: !acc)
        series)
    t_maxima_ms;
  {
    Report.id = "abl-heterogeneity";
    title =
      Printf.sprintf
        "Ablation: sensitivity to intra-cluster time range (T in [20, x] ms, %d clusters)" n;
    x_label = "T upper bound (ms)";
    y_label = "mean completion time (s)";
    series = List.map (fun (name, acc) -> (name, List.rev !acc)) series;
    notes =
      [ "when T is small all heuristics coincide; the grid-aware advantage appears"; "as intra-cluster broadcasts start to dominate the critical path" ];
  }

let root_rotation () =
  let grid = Topology.Grid5000.grid () in
  let msg = 1_000_000 in
  let heuristics = [ Policy.flat_tree; Policy.ecef; Policy.ecef_lat_max ] in
  let series =
    List.map
      (fun (h : Policy.t) ->
        ( Policy.name h,
          List.init (Topology.Grid.size grid) (fun root ->
              let inst = Instance.of_grid ~root ~msg grid in
              (float_of_int root, seconds (Engine.makespan h inst))) ))
      heuristics
  in
  {
    Report.id = "abl-root";
    title = "Ablation: root sensitivity on GRID5000 (1 MB broadcast)";
    x_label = "root cluster";
    y_label = "predicted completion time (s)";
    series;
    notes =
      [ "the paper: flat tree performance varies when 'applications rotate the"; "role of the broadcast root'; grid-aware schedules barely move" ];
  }

let local_search config =
  let iterations = min config.Config.iterations 150 in
  let small_ns = [ 4; 6; 8; 10 ] in
  let series =
    List.map (fun (h : Policy.t) -> (Policy.name h, ref [])) Policy.all
  in
  List.iteri
    (fun point n ->
      let rng = Config.point_rng config ~point in
      let sums = Array.make (List.length Policy.all) 0. in
      for _ = 1 to iterations do
        let inst = Instance.random ~rng ~n config.Config.ranges in
        List.iteri
          (fun i h ->
            let s = Engine.run h inst in
            sums.(i) <- sums.(i) +. Gridb_sched.Refine.improvement_ratio inst s)
          Policy.all
      done;
      List.iteri
        (fun i (_, acc) ->
          acc := (float_of_int n, sums.(i) /. float_of_int iterations) :: !acc)
        series)
    small_ns;
  {
    Report.id = "abl-localsearch";
    title = "Ablation: local-search refinement on top of each heuristic";
    x_label = "clusters";
    y_label = "refined / original makespan";
    series = List.map (fun (name, acc) -> (name, List.rev !acc)) series;
    notes =
      [ "1.0 = the heuristic was already locally optimal; lower = the hill climber"; "found a better schedule (Bhat-style iterative improvement)" ];
  }

let metaheuristics config =
  let iterations = min config.Config.iterations 60 in
  let small_ns = [ 4; 6; 8 ] in
  let methods =
    [
      ( "greedy portfolio",
        fun inst _seed ->
          (Gridb_sched.Portfolio.run inst).Gridb_sched.Portfolio.makespan );
      ( "+ hill climbing",
        fun inst _seed ->
          let c = Gridb_sched.Portfolio.run inst in
          Schedule.makespan inst
            (Gridb_sched.Refine.improve ~max_rounds:15 inst
               c.Gridb_sched.Portfolio.schedule) );
      ( "+ annealing",
        fun inst seed ->
          let c = Gridb_sched.Portfolio.run inst in
          Schedule.makespan inst
            (Gridb_sched.Refine.anneal ~seed ~steps:600 inst
               c.Gridb_sched.Portfolio.schedule) );
      ( "+ genetic [18]",
        fun inst seed ->
          let cfg =
            { Gridb_sched.Genetic.default_config with generations = 12; population = 12; seed }
          in
          Schedule.makespan inst (Gridb_sched.Genetic.search ~config:cfg inst) );
      ("optimal", fun inst _seed -> Gridb_opt.Exact.makespan inst);
    ]
  in
  let series = List.map (fun (name, _) -> (name, ref [])) methods in
  List.iteri
    (fun point n ->
      let rng = Config.point_rng config ~point in
      let sums = Array.make (List.length methods) 0. in
      for it = 1 to iterations do
        let inst = Instance.random ~rng ~n config.Config.ranges in
        List.iteri (fun i (_, f) -> sums.(i) <- sums.(i) +. f inst it) methods
      done;
      List.iteri
        (fun i (_, acc) ->
          acc := (float_of_int n, seconds (sums.(i) /. float_of_int iterations)) :: !acc)
        series)
    small_ns;
  {
    Report.id = "abl-metaheuristics";
    title = "Ablation: metaheuristic improvers over the greedy portfolio";
    x_label = "clusters";
    y_label = "mean makespan (s)";
    series = List.map (fun (name, acc) -> (name, List.rev !acc)) series;
    notes =
      [ "the genetic search follows the paper's reference [18] (Vorakosit &"; "Uthayopas); 'optimal' is the branch-and-bound floor" ];
  }

let application_payoff () =
  let grid = Topology.Grid5000.grid () in
  let machines = Topology.Machines.expand grid in
  let iterations = 10 in
  let compute_us = 20_000. in
  let sizes = [ 100_000; 500_000; 1_000_000; 2_000_000 ] in
  let solver ?bcast msg =
    seconds
      (Gridb_mpi.Apps.run_solver ?bcast ~iterations ~compute_us ~msg machines)
        .Gridb_mpi.Runtime.makespan
  in
  let series =
    [
      ( "binomial broadcast",
        List.map (fun msg -> (float_of_int msg, solver msg)) sizes );
      ( "ECEF-LA hierarchical broadcast",
        List.map
          (fun msg ->
            let inst = Instance.of_grid ~root:0 ~msg grid in
            let plan =
              Des.Plan.of_cluster_schedule machines (Engine.run Policy.ecef_la inst)
            in
            (float_of_int msg, solver ~bcast:(Gridb_mpi.Apps.plan_bcast plan) msg))
          sizes );
    ]
  in
  {
    Report.id = "abl-application";
    title =
      Printf.sprintf
        "Application payoff: %d-iteration BSP solver on GRID5000 (%.0f ms compute/iter)"
        iterations (compute_us /. 1e3);
    x_label = "broadcast size per iteration (bytes)";
    y_label = "total application time (s)";
    series;
    notes =
      [ "each iteration: bcast from rank 0 + compute + 8-byte allreduce;"; "the broadcast strategy is the only difference between the curves" ];
  }

let hierarchy_vs_flat () =
  let grid = Topology.Grid5000.grid () in
  let machines = Topology.Machines.expand grid in
  let root = Topology.Grid5000.root_cluster in
  let heuristic = Policy.ecef_la in
  let hierarchical msg =
    let inst = Instance.of_grid ~root ~msg grid in
    let plan = Des.Plan.of_cluster_schedule machines (Engine.run heuristic inst) in
    seconds (Des.Exec.run ~msg machines plan).Des.Exec.makespan
  in
  let node_level msg =
    let inst =
      Instance.of_machines ~root:(Topology.Machines.coordinator machines root) ~msg machines
    in
    let plan = Des.Plan.of_flat_schedule machines (Engine.run heuristic inst) in
    seconds (Des.Exec.run ~msg machines plan).Des.Exec.makespan
  in
  let binomial msg =
    let plan =
      Des.Plan.binomial_ranks machines ~root:(Topology.Machines.coordinator machines root)
    in
    seconds (Des.Exec.run ~msg machines plan).Des.Exec.makespan
  in
  let sizes = [ 500_000; 1_000_000; 2_000_000; 4_000_000 ] in
  let series =
    [
      ("hierarchical ECEF-LA (6 clusters)", List.map (fun m -> (float_of_int m, hierarchical m)) sizes);
      ("node-level ECEF-LA (88 nodes)", List.map (fun m -> (float_of_int m, node_level m)) sizes);
      ("grid-unaware binomial", List.map (fun m -> (float_of_int m, binomial m)) sizes);
    ]
  in
  let evals n = Gridb_sched.Overhead.evaluations ~n heuristic in
  {
    Report.id = "abl-hierarchy";
    title = "Ablation: hierarchical vs per-process scheduling (Sections 1-2)";
    x_label = "message size (bytes)";
    y_label = "DES makespan (s)";
    series;
    notes =
      [
        Printf.sprintf
          "scheduling work: %.0f candidate evaluations at 6 clusters vs %.0f at 88 nodes (%.0fx)"
          (evals 6) (evals 88)
          (evals 88 /. evals 6);
      ];
  }

let tuned_intra () =
  let grid = Topology.Grid5000.grid () in
  let root = Topology.Grid5000.root_cluster in
  let with_t t_of msg =
    let n = Topology.Grid.size grid in
    let latency =
      Array.init n (fun i ->
          Array.init n (fun j -> if i = j then 0. else Topology.Grid.latency grid i j))
    in
    let gap =
      Array.init n (fun i ->
          Array.init n (fun j -> if i = j then 0. else Topology.Grid.gap grid i j msg))
    in
    Instance.v ~root ~latency ~gap ~intra:(Array.init n (fun c -> t_of c msg))
  in
  let binomial_t c msg =
    let cl = Topology.Grid.cluster grid c in
    Gridb_collectives.Cost.broadcast_time ~params:cl.Topology.Cluster.intra
      ~size:cl.Topology.Cluster.size ~msg ()
  in
  let tuned_t c msg =
    let cl = Topology.Grid.cluster grid c in
    Gridb_collectives.Tuned.broadcast_time ~params:cl.Topology.Cluster.intra
      ~size:cl.Topology.Cluster.size ~msg ()
  in
  let series =
    [
      ( "binomial T",
        List.map
          (fun msg ->
            ( float_of_int msg,
              seconds (Engine.makespan Policy.ecef_lat_max (with_t binomial_t msg)) ))
          Figures.message_sizes );
      ( "auto-tuned T",
        List.map
          (fun msg ->
            ( float_of_int msg,
              seconds (Engine.makespan Policy.ecef_lat_max (with_t tuned_t msg)) ))
          Figures.message_sizes );
    ]
  in
  let decisions =
    List.filter_map
      (fun c ->
        let cl = Topology.Grid.cluster grid c in
        if cl.Topology.Cluster.size <= 1 then None
        else begin
          let choice, _ =
            Gridb_collectives.Tuned.best ~params:cl.Topology.Cluster.intra
              ~size:cl.Topology.Cluster.size ~msg:4_000_000 ()
          in
          Some
            (Printf.sprintf "%s: %s" cl.Topology.Cluster.name
               (Gridb_collectives.Tuned.choice_name choice))
        end)
      (List.init (Topology.Grid.size grid) Fun.id)
  in
  {
    Report.id = "abl-tuned-intra";
    title = "Ablation: auto-tuned intra-cluster broadcast feeding T_k (ECEF-LAT)";
    x_label = "message size (bytes)";
    y_label = "predicted completion time (s)";
    series;
    notes = ("tuning decisions at 4 MB: " ^ String.concat "; " decisions) :: [];
  }

let segmented_broadcast () =
  let grid = Topology.Grid5000.grid () in
  let machines = Topology.Machines.expand grid in
  let inst = Instance.of_grid ~root:Topology.Grid5000.root_cluster ~msg:4_000_000 grid in
  let plan =
    Des.Plan.of_cluster_schedule machines (Engine.run Policy.ecef_la inst)
  in
  let segment_counts = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let series =
    List.map
      (fun msg ->
        ( Printf.sprintf "%d MB" (msg / 1_000_000),
          List.map
            (fun s ->
              ( float_of_int s,
                seconds
                  (Gridb_extensions.Pipeline_bcast.simulate machines plan ~msg ~segments:s)
              ))
            segment_counts ))
      [ 1_000_000; 2_000_000; 4_000_000 ]
  in
  {
    Report.id = "abl-segmented";
    title = "Extension: segmented hierarchical broadcast on the GRID5000 ECEF-LA plan";
    x_label = "segments";
    y_label = "simulated completion time (s)";
    series;
    notes =
      [ "segment k+1 overlaps the relaying of segment k along the same schedule;"; "the sweet spot balances pipelining against per-segment overhead" ];
  }

let all config =
  [
    lookahead_sweep config;
    fef_edge_weight config;
    intra_shape config;
    mixed_strategy config;
    completion_models config;
    optimality_gap config;
    bound_gap config;
    heterogeneity_sensitivity config;
    root_rotation ();
    local_search config;
    metaheuristics config;
    application_payoff ();
    hierarchy_vs_flat ();
    tuned_intra ();
    segmented_broadcast ();
    scatter_orders ();
    multilevel_gain config;
    alltoall_aggregation ();
  ]
