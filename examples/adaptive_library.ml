(* The "modified MagPIe" library layer of Section 7, end to end:

     1. at startup, measure pLogP parameters on the (simulated) wire;
     2. rebuild the cluster topology from the measurements;
     3. per broadcast, pick a strategy, compute (and cache) its schedule,
        charge the scheduling overhead, execute under runtime noise.

   The workload rotates the broadcast root — the scenario in which the
   paper notes the flat tree collapses ("cannot adapt to ... the use of
   different root processes"), and in which the schedule cache pays off.

   Run with: dune exec examples/adaptive_library.exe *)

module Magpie = Gridb_magpie
module Policy = Gridb_sched.Policy

let seconds us = us /. 1e6

let () =
  let machines = Gridb_topology.Machines.expand (Gridb_topology.Grid5000.grid ()) in
  Printf.printf "acquiring pLogP parameters on the simulated wire...\n";
  let tuning =
    Magpie.Tuning.create ~noise:(Gridb_des.Noise.Lognormal 0.01) ~seed:1 machines
  in
  let measured = Magpie.Tuning.measured_grid tuning in
  Printf.printf "measured topology: %d clusters / %d machines\n\n"
    (Gridb_topology.Grid.size measured)
    (Gridb_topology.Grid.total_processes measured);

  let strategies =
    [
      Magpie.Bcast.Binomial_world;
      Magpie.Bcast.Flat_two_level;
      Magpie.Bcast.Scheduled Policy.ecef_la;
      Magpie.Bcast.Adaptive Policy.all;
    ]
  in
  (* 18 broadcasts of 1 MB, root rotating over the 6 clusters. *)
  let roots = List.init 18 (fun i -> i mod 6) in
  Printf.printf "18 broadcasts (1 MB), root rotating across the 6 clusters:\n";
  List.iter
    (fun strategy ->
      let total = ref 0. in
      List.iteri
        (fun i root ->
          let r =
            Magpie.Bcast.execute ~noise:(Gridb_des.Noise.Lognormal 0.05) ~seed:(100 + i)
              tuning strategy ~root ~msg:1_000_000
          in
          total := !total +. r.Gridb_des.Exec.makespan)
        roots;
      let hits, misses = Magpie.Tuning.cache_stats tuning in
      Printf.printf "  %-28s total %7.3f s   (schedule cache: %d hits / %d misses)\n"
        (Magpie.Bcast.strategy_name strategy)
        (seconds !total) hits misses)
    strategies;
  print_newline ();
  print_endline
    "The scheduled strategies compute each (root, class) schedule once and then";
  print_endline
    "reuse it; the adaptive strategy additionally predicts every candidate on the";
  print_endline "measured parameters and keeps the winner."
