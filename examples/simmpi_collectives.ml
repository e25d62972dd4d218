(* The simMPI substrate on its own: write collectives as per-rank programs
   and get pLogP-accurate timings out of the discrete-event engine.

   Run with: dune exec examples/simmpi_collectives.exe *)

module Topology = Gridb_topology
module Mpi = Gridb_mpi
module Sched = Gridb_sched
module Des = Gridb_des

let ms us = us /. 1e3

let () =
  let grid = Topology.Grid5000.grid () in
  let machines = Topology.Machines.expand grid in
  let n = Topology.Machines.count machines in
  Printf.printf "simMPI world: %d ranks over %d clusters\n\n" n (Topology.Grid.size grid);

  (* Grid-unaware binomial broadcast — the "Default LAM" baseline. *)
  let r =
    Mpi.Runtime.run_exn machines (fun ~rank ~size ->
        Mpi.Collectives.bcast ~rank ~size ~root:0 ~msg:1_000_000 ())
  in
  let exact_bcast = r.Mpi.Runtime.makespan in
  Printf.printf "binomial MPI_Bcast (1 MB):      %8.2f ms, %d messages\n"
    (ms r.Mpi.Runtime.makespan) r.Mpi.Runtime.messages;

  (* The same broadcast along a grid-aware hierarchical plan. *)
  let inst = Sched.Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let schedule = Sched.Engine.run Sched.Policy.ecef_la inst in
  let plan = Des.Plan.of_cluster_schedule machines schedule in
  let r =
    Mpi.Runtime.run_exn machines (fun ~rank ~size:_ ->
        Mpi.Collectives.bcast_plan ~rank plan ~msg:1_000_000)
  in
  Printf.printf "hierarchical ECEF-LA broadcast: %8.2f ms, %d messages\n"
    (ms r.Mpi.Runtime.makespan) r.Mpi.Runtime.messages;

  (* An allreduce carrying real values. *)
  let check = ref 0. in
  let r =
    Mpi.Runtime.run_exn machines (fun ~rank ~size ->
        let total =
          Mpi.Collectives.allreduce ~rank ~size ~msg:8 ~value:(float_of_int rank) ( +. )
        in
        if rank = size - 1 then check := total)
  in
  Printf.printf "allreduce (sum of ranks):       %8.2f ms, result %.0f (expected %d)\n"
    (ms r.Mpi.Runtime.makespan) !check (n * (n - 1) / 2);

  (* Barrier and alltoall. *)
  let r = Mpi.Runtime.run_exn machines (fun ~rank ~size -> Mpi.Collectives.barrier ~rank ~size ()) in
  Printf.printf "dissemination barrier:          %8.2f ms, %d messages\n"
    (ms r.Mpi.Runtime.makespan) r.Mpi.Runtime.messages;

  let r =
    Mpi.Runtime.run_exn machines (fun ~rank ~size ->
        Mpi.Collectives.alltoall ~rank ~size ~msg:1_000 ())
  in
  Printf.printf "alltoall (1 KB per pair):       %8.2f ms, %d messages\n"
    (ms r.Mpi.Runtime.makespan) r.Mpi.Runtime.messages;

  (* Noise: the same collective under measurement jitter. *)
  let noisy =
    Mpi.Runtime.run_exn ~noise:Des.Noise.default_measured ~seed:3 machines
      (fun ~rank ~size -> Mpi.Collectives.bcast ~rank ~size ~root:0 ~msg:1_000_000 ())
  in
  Printf.printf "\nbinomial bcast with jitter:     %8.2f ms (exact was %8.2f ms)\n"
    (ms noisy.Mpi.Runtime.makespan) (ms exact_bcast)
