(* Cross-module property pack: invariants that cut across libraries —
   permutation symmetry, model/simulation agreement, scaling laws.  These
   complement the per-module suites with properties no single module can
   state alone. *)

module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Exact = Gridb_opt.Exact
module Bounds = Gridb_sched.Bounds
module Machines = Gridb_topology.Machines
module Generators = Gridb_topology.Generators
module Rng = Gridb_util.Rng

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let random_instance ?(n = 6) seed =
  let rng = Rng.create seed in
  Instance.random ~rng ~n Instance.table2_ranges

(* Apply a permutation to an instance (relabel clusters). *)
let permute_instance perm inst =
  let n = inst.Instance.n in
  let latency = Array.make_matrix n n 0. in
  let gap = Array.make_matrix n n 0. in
  let intra = Array.make n 0. in
  for i = 0 to n - 1 do
    intra.(perm.(i)) <- inst.Instance.intra.(i);
    for j = 0 to n - 1 do
      latency.(perm.(i)).(perm.(j)) <- inst.Instance.latency.(i).(j);
      gap.(perm.(i)).(perm.(j)) <- inst.Instance.gap.(i).(j)
    done
  done;
  Instance.v ~root:perm.(inst.Instance.root) ~latency ~gap ~intra

let permutation_invariance_of_optimal =
  QCheck.Test.make ~name:"optimal makespan is invariant under cluster relabeling"
    ~count:(Testutil.count 30)
    QCheck.(pair (int_range 2 5) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let rng = Rng.create (seed + 1) in
      let perm = Rng.permutation rng n in
      feq (Exact.makespan inst) (Exact.makespan (permute_instance perm inst)))

let permutation_invariance_of_bounds =
  QCheck.Test.make ~name:"lower bounds are invariant under cluster relabeling"
    ~count:(Testutil.count 50)
    QCheck.(pair (int_range 2 12) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let rng = Rng.create (seed + 1) in
      let perm = Rng.permutation rng n in
      feq (Bounds.combined inst) (Bounds.combined (permute_instance perm inst)))

(* Scaling: multiplying every time parameter by k scales every makespan by
   k (heuristic selections are scale-free). *)
let scale_instance k inst =
  let scale m = Array.map (Array.map (fun x -> k *. x)) m in
  Instance.v ~root:inst.Instance.root
    ~latency:(scale inst.Instance.latency)
    ~gap:(scale inst.Instance.gap)
    ~intra:(Array.map (fun x -> k *. x) inst.Instance.intra)

let time_scaling =
  QCheck.Test.make ~name:"makespans scale linearly with the time unit" ~count:(Testutil.count 40)
    QCheck.(pair (int_range 2 12) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let k = 3.5 in
      let scaled = scale_instance k inst in
      List.for_all
        (fun h ->
          feq ~eps:1e-9
            (k *. Engine.makespan h inst)
            (Engine.makespan h scaled))
        Policy.all)

(* DES/analytic agreement on arbitrary random topologies (not just the
   GRID5000 instance used by test_des). *)
let des_agrees_on_random_topologies =
  QCheck.Test.make ~name:"DES equals analytic prediction on random grids" ~count:(Testutil.count 25)
    QCheck.(pair (int_range 1 7) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let spec = { Generators.default_random_spec with cluster_size = (1, 16) } in
      let grid = Generators.uniform_random ~rng ~n spec in
      let machines = Machines.expand grid in
      let msg = 250_000 in
      let inst = Instance.of_grid ~root:0 ~msg grid in
      List.for_all
        (fun h ->
          let schedule = Engine.run h inst in
          let predicted = Schedule.makespan inst schedule in
          let plan = Gridb_des.Plan.of_cluster_schedule machines schedule in
          let r = Gridb_des.Exec.run ~msg machines plan in
          feq ~eps:1e-9 predicted r.Gridb_des.Exec.makespan)
        Policy.all)

(* simMPI and the DES plan executor agree on any plan. *)
let simmpi_agrees_with_des =
  QCheck.Test.make ~name:"simMPI bcast_plan equals DES executor" ~count:(Testutil.count 20)
    QCheck.(pair (int_range 1 5) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let spec = { Generators.default_random_spec with cluster_size = (1, 12) } in
      let grid = Generators.uniform_random ~rng ~n spec in
      let machines = Machines.expand grid in
      let root = Rng.int rng (Machines.count machines) in
      let plan = Gridb_des.Plan.binomial_ranks machines ~root in
      let des = Gridb_des.Exec.run ~msg:100_000 machines plan in
      let mpi =
        Gridb_mpi.Runtime.run_exn machines (fun ~rank ~size:_ ->
            Gridb_mpi.Collectives.bcast_plan ~rank plan ~msg:100_000)
      in
      feq ~eps:1e-9 des.Gridb_des.Exec.makespan mpi.Gridb_mpi.Runtime.makespan)

(* Monotonicity: shrinking every T can only shrink (or keep) the optimal
   makespan. *)
let optimal_monotone_in_t =
  QCheck.Test.make ~name:"optimal makespan monotone in intra times" ~count:(Testutil.count 30)
    QCheck.(pair (int_range 2 5) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let reduced =
        Instance.v ~root:inst.Instance.root ~latency:inst.Instance.latency
          ~gap:inst.Instance.gap
          ~intra:(Array.map (fun t -> t /. 2.) inst.Instance.intra)
      in
      Exact.makespan reduced <= Exact.makespan inst +. 1e-6)

(* Message-size monotonicity end to end: larger broadcasts never finish
   earlier, whatever the heuristic. *)
let makespan_monotone_in_message_size =
  QCheck.Test.make ~name:"makespan monotone in message size" ~count:(Testutil.count 20)
    QCheck.(pair (int_range 2 8) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let grid = Generators.uniform_random ~rng ~n Generators.default_random_spec in
      let small = Instance.of_grid ~root:0 ~msg:100_000 grid in
      let large = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
      List.for_all
        (fun h -> Engine.makespan h small <= Engine.makespan h large +. 1e-6)
        Policy.all)

(* Adding one more cluster can never help the portfolio's best makespan on
   the same sub-instance draws... not in general; instead: the portfolio is
   never worse than the mixed strategy, which is one of its members'
   dispatch. *)
let portfolio_beats_mixed =
  QCheck.Test.make ~name:"portfolio <= mixed strategy" ~count:(Testutil.count 40)
    QCheck.(pair (int_range 2 15) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let mixed = Gridb_sched.Mixed.strategy () in
      (Gridb_sched.Portfolio.run inst).Gridb_sched.Portfolio.makespan
      <= Engine.makespan mixed inst +. 1e-9)

let gantt_width_invariance =
  QCheck.Test.make ~name:"gantt renders at any width >= 10" ~count:(Testutil.count 20)
    QCheck.(pair (int_range 10 120) (int_bound 1_000))
    (fun (width, seed) ->
      let inst = random_instance ~n:5 seed in
      let s = Engine.run Policy.ecef inst in
      String.length (Gridb_sched.Gantt.render ~width inst s) > width)

let () =
  Alcotest.run "properties"
    [
      ( "symmetry",
        [
          QCheck_alcotest.to_alcotest permutation_invariance_of_optimal;
          QCheck_alcotest.to_alcotest permutation_invariance_of_bounds;
          QCheck_alcotest.to_alcotest time_scaling;
        ] );
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest des_agrees_on_random_topologies;
          QCheck_alcotest.to_alcotest simmpi_agrees_with_des;
        ] );
      ( "monotonicity",
        [
          QCheck_alcotest.to_alcotest optimal_monotone_in_t;
          QCheck_alcotest.to_alcotest makespan_monotone_in_message_size;
        ] );
      ( "dominance",
        [
          QCheck_alcotest.to_alcotest portfolio_beats_mixed;
          QCheck_alcotest.to_alcotest gantt_width_invariance;
        ] );
    ]
