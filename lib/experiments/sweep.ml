module Hit_rate = Gridb_sched.Hit_rate

type point = { n : int; outcomes : Hit_rate.outcome list }

let run (config : Config.t) ~ns heuristics =
  List.mapi
    (fun i n ->
      let rng = Config.point_rng config ~point:i in
      let outcomes =
        Hit_rate.run ~model:config.Config.model ~rng
          ~iterations:config.Config.iterations ~n config.Config.ranges heuristics
      in
      { n; outcomes })
    ns

let mean_seconds point =
  List.map (fun o -> o.Hit_rate.mean_makespan /. 1e6) point.outcomes

let hits point = List.map (fun o -> float_of_int o.Hit_rate.hits) point.outcomes

let transpose points extract =
  match points with
  | [] -> []
  | first :: _ ->
      let k = List.length (extract first) in
      List.init k (fun col ->
          List.map (fun p -> (float_of_int p.n, List.nth (extract p) col)) points)

let max_stderr_seconds points =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc o -> Float.max acc (Hit_rate.stderr_makespan o /. 1e6))
        acc p.outcomes)
    0. points
