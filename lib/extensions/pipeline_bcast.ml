module Plan = Gridb_des.Plan
module Api = Gridb_mpi.Runtime.Api

let segment_size ~msg ~segments =
  if segments < 1 then invalid_arg "Pipeline_bcast.segment_size: segments < 1";
  if msg < 1 then invalid_arg "Pipeline_bcast.segment_size: msg < 1";
  max 1 ((msg + segments - 1) / segments)

let simulate ?noise ?seed machines plan ~msg ~segments =
  let seg = segment_size ~msg ~segments in
  let parents = Plan.parent_array plan in
  let result =
    Gridb_mpi.Runtime.run_exn ?noise ?seed machines (fun ~rank ~size:_ ->
        for tag = 1 to segments do
          if rank <> plan.Plan.root then
            ignore (Api.recv ~src:parents.(rank) ~tag ());
          List.iter
            (fun child -> Api.send ~dst:child ~tag ~msg_size:seg ())
            plan.Plan.children.(rank)
        done)
  in
  result.Gridb_mpi.Runtime.makespan
