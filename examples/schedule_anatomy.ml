(* Schedule anatomy: the analysis toolkit around one broadcast schedule —
   Gantt timeline, lower bounds, certified optimum, local search,
   simulated annealing, genetic search and the DES critical path.

   Run with: dune exec examples/schedule_anatomy.exe *)

module Sched = Gridb_sched
module Topology = Gridb_topology
module Des = Gridb_des

let seconds us = us /. 1e6

let () =
  let grid = Topology.Grid5000.grid () in
  let inst = Sched.Instance.of_grid ~root:0 ~msg:1_000_000 grid in

  (* Start from the worst schedule the paper considers. *)
  let flat = Sched.Engine.run Sched.Policy.flat_tree inst in
  Printf.printf "flat tree makespan:      %.4f s\n" (seconds (Sched.Schedule.makespan inst flat));
  Sched.Gantt.print ~width:60 inst flat;

  (* Three improvers, one floor. *)
  let improved = Sched.Refine.improve inst flat in
  Printf.printf "\nafter hill climbing:     %.4f s\n"
    (seconds (Sched.Schedule.makespan inst improved));
  let annealed = Sched.Refine.anneal ~seed:1 inst flat in
  Printf.printf "after annealing:         %.4f s\n"
    (seconds (Sched.Schedule.makespan inst annealed));
  let genetic = Sched.Genetic.search ~seeds:[ flat ] inst in
  Printf.printf "after genetic search:    %.4f s\n"
    (seconds (Sched.Schedule.makespan inst genetic));
  let optimal = Gridb_opt.Exact.schedule inst in
  Printf.printf "certified optimum:       %.4f s\n"
    (seconds (Sched.Schedule.makespan inst optimal));
  Printf.printf "analytic lower bound:    %.4f s  (gap ratio of the optimum: %.3f)\n"
    (seconds (Sched.Bounds.combined inst))
    (Sched.Bounds.gap_ratio inst (Sched.Schedule.makespan inst optimal));

  Printf.printf "\noptimal schedule timeline:\n";
  Sched.Gantt.print ~width:60 inst optimal;

  (* Execute the optimum on the simulator and show its critical path. *)
  let machines = Topology.Machines.expand grid in
  let plan = Des.Plan.of_cluster_schedule machines optimal in
  let obs = Gridb_obs.Sink.memory () in
  let r = Des.Exec.run ~obs ~msg:1_000_000 machines plan in
  let trace = Des.Trace.of_events (Gridb_obs.Sink.events obs) in
  Printf.printf "\nDES makespan:            %.4f s over %d transmissions\n"
    (seconds r.Des.Exec.makespan) r.Des.Exec.transmissions;
  print_endline "critical path (rank -> rank, arrival):";
  List.iter
    (fun t ->
      Printf.printf "  %3d -> %-3d at %.4f s\n" t.Des.Trace.src t.Des.Trace.dst
        (seconds t.Des.Trace.arrival))
    (Des.Trace.critical_path trace);
  match Des.Trace.busiest_sender trace with
  | Some (rank, busy) ->
      Printf.printf "busiest sender: rank %d (NIC busy %.4f s)\n" rank (seconds busy)
  | None -> ()
