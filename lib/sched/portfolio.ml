type choice = {
  heuristic : string;
  schedule : Schedule.t;
  makespan : float;
  evaluated : int;
}

let run ?model ?(heuristics = Policy.all) inst =
  if heuristics = [] then invalid_arg "Portfolio.run: empty heuristic list";
  let scored =
    List.map
      (fun p ->
        let schedule = Engine.run p inst in
        (Policy.name p, schedule, Schedule.makespan ?model inst schedule))
      heuristics
  in
  let name, schedule, makespan =
    List.fold_left
      (fun ((_, _, best_m) as best) ((_, _, m) as candidate) ->
        if m < best_m then candidate else best)
      (List.hd scored) (List.tl scored)
  in
  { heuristic = name; schedule; makespan; evaluated = List.length heuristics }

let scheduling_evaluations ?(heuristics = Policy.all) n =
  List.fold_left (fun acc p -> acc +. Overhead.evaluations ~n p) 0. heuristics
