(* Tests for gridb_magpie: measured-parameter acquisition, schedule caching
   and the library-level broadcast strategies. *)

module Tuning = Gridb_magpie.Tuning
module Bcast = Gridb_magpie.Bcast
module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid
module Grid5000 = Gridb_topology.Grid5000
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Params = Gridb_plogp.Params

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

(* A small grid keeps the measurement campaign cheap in tests. *)
let small_machines () =
  let rng = Gridb_util.Rng.create 5 in
  let spec =
    { Gridb_topology.Generators.default_random_spec with cluster_size = (2, 6) }
  in
  Machines.expand (Gridb_topology.Generators.uniform_random ~rng ~n:4 spec)

let probe_sizes = [ 1_024; 65_536; 1_048_576 ]

let tuning machines = Tuning.create ~sizes:probe_sizes machines

(* --- size classes ------------------------------------------------------- *)

let test_size_class () =
  Alcotest.(check int) "floor" 64 (Tuning.size_class 0);
  Alcotest.(check int) "small" 64 (Tuning.size_class 37);
  Alcotest.(check int) "exact power" 1024 (Tuning.size_class 1024);
  Alcotest.(check int) "rounds up" 2048 (Tuning.size_class 1025);
  Alcotest.(check int) "1MB class" 1_048_576 (Tuning.size_class 1_000_000);
  Alcotest.check_raises "negative" (Invalid_argument "Tuning.size_class: negative size")
    (fun () -> ignore (Tuning.size_class (-1)))

let size_class_properties =
  QCheck.Test.make ~name:"size class covers and is idempotent" ~count:(Testutil.count 200)
    QCheck.(int_bound 10_000_000)
    (fun msg ->
      let c = Tuning.size_class msg in
      c >= msg && c >= 64 && Tuning.size_class c = c)

(* --- measurement --------------------------------------------------------- *)

let test_measured_grid_matches_truth () =
  let machines = small_machines () in
  let t = tuning machines in
  let truth = Machines.grid machines in
  let measured = Tuning.measured_grid t in
  Alcotest.(check int) "same clusters" (Grid.size truth) (Grid.size measured);
  Alcotest.(check int) "same processes" (Grid.total_processes truth)
    (Grid.total_processes measured);
  for i = 0 to Grid.size truth - 1 do
    for j = 0 to Grid.size truth - 1 do
      if i <> j then begin
        check_feq ~eps:1e-6
          (Printf.sprintf "latency %d-%d" i j)
          (Grid.latency truth i j) (Grid.latency measured i j);
        List.iter
          (fun m ->
            check_feq ~eps:1e-6
              (Printf.sprintf "gap %d-%d at %d" i j m)
              (Grid.gap truth i j m) (Grid.gap measured i j m))
          probe_sizes
      end
    done
  done

let test_measured_schedules_match_truth_schedules () =
  (* With exact measurement, scheduling on measured parameters must yield
     the same makespan as scheduling on the truth (at the class size). *)
  let machines = small_machines () in
  let t = tuning machines in
  let truth = Machines.grid machines in
  let msg = 1_048_576 in
  let truth_inst = Gridb_sched.Instance.of_grid ~root:0 ~msg truth in
  List.iter
    (fun h ->
      let s = Tuning.schedule t ~heuristic:h ~root:0 ~msg in
      check_feq ~eps:1e-6 (Policy.name h)
        (Engine.makespan h truth_inst)
        (Gridb_sched.Schedule.makespan truth_inst s))
    Policy.all

(* --- cache ---------------------------------------------------------------- *)

let test_schedule_cache () =
  let machines = small_machines () in
  let t = tuning machines in
  Alcotest.(check (pair int int)) "cold" (0, 0) (Tuning.cache_stats t);
  ignore (Tuning.schedule t ~heuristic:Policy.ecef ~root:0 ~msg:1_000_000);
  Alcotest.(check (pair int int)) "one miss" (0, 1) (Tuning.cache_stats t);
  (* same class (1MB -> 1048576), same heuristic, same root: a hit *)
  ignore (Tuning.schedule t ~heuristic:Policy.ecef ~root:0 ~msg:1_048_000);
  Alcotest.(check (pair int int)) "then a hit" (1, 1) (Tuning.cache_stats t);
  (* different root: a miss *)
  ignore (Tuning.schedule t ~heuristic:Policy.ecef ~root:1 ~msg:1_000_000);
  Alcotest.(check (pair int int)) "root is part of the key" (1, 2) (Tuning.cache_stats t);
  (* different heuristic: a miss *)
  ignore (Tuning.schedule t ~heuristic:Policy.fef ~root:0 ~msg:1_000_000);
  Alcotest.(check (pair int int)) "heuristic is part of the key" (1, 3)
    (Tuning.cache_stats t)

(* --- strategies ------------------------------------------------------------ *)

let grid5000_tuning () = tuning (Machines.expand (Grid5000.grid ()))

let test_strategies_deliver_everywhere () =
  let t = grid5000_tuning () in
  List.iter
    (fun strategy ->
      let r = Bcast.execute ~charge_overhead:false t strategy ~root:0 ~msg:1_000_000 in
      Alcotest.(check bool)
        (Bcast.strategy_name strategy ^ " reaches all ranks")
        true
        (Array.for_all (fun x -> not (Float.is_nan x)) r.Gridb_des.Exec.arrival))
    [
      Bcast.Binomial_world;
      Bcast.Flat_two_level;
      Bcast.Scheduled Policy.ecef_la;
      Bcast.Adaptive Policy.all;
    ]

let test_scheduled_beats_baselines () =
  let t = grid5000_tuning () in
  let time strategy =
    (Bcast.execute ~charge_overhead:false t strategy ~root:0 ~msg:4_000_000)
      .Gridb_des.Exec.makespan
  in
  let scheduled = time (Bcast.Scheduled Policy.ecef_la) in
  Alcotest.(check bool) "beats flat" true (scheduled < time Bcast.Flat_two_level);
  Alcotest.(check bool) "beats binomial" true (scheduled < time Bcast.Binomial_world)

let test_adaptive_at_least_as_good_as_members () =
  let t = grid5000_tuning () in
  let adaptive = Bcast.predict t (Bcast.Adaptive Policy.all) ~root:0 ~msg:2_000_000 in
  List.iter
    (fun h ->
      let single = Bcast.predict t (Bcast.Scheduled h) ~root:0 ~msg:2_000_000 in
      Alcotest.(check bool)
        ("adaptive <= " ^ Policy.name h)
        true (adaptive <= single +. 1e-9))
    Policy.all

let test_prediction_matches_execution_without_noise () =
  (* Exact measurement + exact execution: prediction = measurement. *)
  let t = grid5000_tuning () in
  List.iter
    (fun strategy ->
      let predicted = Bcast.predict t strategy ~root:0 ~msg:1_000_000 in
      let measured =
        (Bcast.execute ~charge_overhead:false t strategy ~root:0 ~msg:1_048_576)
          .Gridb_des.Exec.makespan
      in
      check_feq ~eps:1e-6 (Bcast.strategy_name strategy) predicted measured)
    [ Bcast.Flat_two_level; Bcast.Scheduled Policy.ecef; Bcast.Binomial_world ]

let test_overhead_charged_once () =
  let t = grid5000_tuning () in
  let strategy = Bcast.Scheduled Policy.ecef_lat_max in
  let first = Bcast.execute t strategy ~root:0 ~msg:1_000_000 in
  let second = Bcast.execute t strategy ~root:0 ~msg:1_000_000 in
  Alcotest.(check bool) "cache hit is cheaper" true
    (second.Gridb_des.Exec.makespan < first.Gridb_des.Exec.makespan -. 1.);
  let third = Bcast.execute ~charge_overhead:false t strategy ~root:0 ~msg:1_000_000 in
  check_feq "uncharged equals hit" second.Gridb_des.Exec.makespan
    third.Gridb_des.Exec.makespan

let test_noisy_measurement_still_close () =
  let machines = small_machines () in
  let t =
    Tuning.create ~noise:(Gridb_des.Noise.Lognormal 0.02) ~seed:9 ~sizes:probe_sizes
      machines
  in
  let truth = Machines.grid machines in
  let measured = Tuning.measured_grid t in
  for i = 0 to Grid.size truth - 1 do
    for j = 0 to Grid.size truth - 1 do
      if i <> j then begin
        let a = Grid.latency truth i j and b = Grid.latency measured i j in
        Alcotest.(check bool)
          (Printf.sprintf "latency %d-%d within 15%%" i j)
          true
          (Float.abs (a -. b) /. a < 0.15)
      end
    done
  done

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "magpie"
    [
      ( "classes",
        [ quick "size class" test_size_class; QCheck_alcotest.to_alcotest size_class_properties ]
      );
      ( "measurement",
        [
          quick "measured grid = truth" test_measured_grid_matches_truth;
          quick "schedules on measured = truth" test_measured_schedules_match_truth_schedules;
          quick "noisy measurement close" test_noisy_measurement_still_close;
        ] );
      ("cache", [ quick "hit/miss bookkeeping" test_schedule_cache ]);
      ( "strategies",
        [
          quick "deliver everywhere" test_strategies_deliver_everywhere;
          quick "scheduled beats baselines" test_scheduled_beats_baselines;
          quick "adaptive dominates members" test_adaptive_at_least_as_good_as_members;
          quick "prediction = noiseless execution" test_prediction_matches_execution_without_noise;
          quick "overhead charged once" test_overhead_charged_once;
        ] );
    ]
