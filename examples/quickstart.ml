(* Quickstart: schedule a 1 MB broadcast on the paper's GRID5000 topology.

   Run with: dune exec examples/quickstart.exe *)

module Topology = Gridb_topology
module Sched = Gridb_sched

let () =
  (* 1. A topology: 6 clusters, 88 machines, Table 3 latencies. *)
  let grid = Topology.Grid5000.grid () in
  Format.printf "%a@." Topology.Grid.pp grid;

  (* 2. Freeze it into a scheduling instance for a 1 MB broadcast rooted at
        cluster 0 (Orsay-A).  This evaluates every link's pLogP gap at 1 MB
        and predicts each cluster's internal binomial-broadcast time T_k. *)
  let msg = 1_000_000 in
  let inst = Sched.Instance.of_grid ~root:0 ~msg grid in

  (* 3. Run a heuristic.  ECEF-LAt is one of the paper's grid-aware
        contributions: it extends Bhat's lookahead with the intra-cluster
        broadcast time. *)
  let schedule = Sched.Engine.run Sched.Policy.ecef_lat_min inst in
  Format.printf "@.%a@." Sched.Schedule.pp schedule;

  (* 4. Inspect the result. *)
  Format.printf "makespan: %a@." Gridb_util.Units.pp_time
    (Sched.Schedule.makespan inst schedule);
  Format.printf "relay depth: %d@." (Sched.Schedule.depth schedule);

  (* 5. Compare all seven heuristics of the paper on the same instance. *)
  Format.printf "@.all heuristics on this instance:@.";
  List.iter
    (fun h ->
      Format.printf "  %-10s %a@." (Sched.Policy.name h) Gridb_util.Units.pp_time
        (Sched.Engine.makespan h inst))
    Sched.Policy.all;

  (* 6. For small grids the true optimum is computable: 6 clusters is well
        inside the exact solver's ceiling. *)
  Format.printf "@.optimal (certified): %a@." Gridb_util.Units.pp_time
    (Gridb_opt.Exact.makespan inst)
