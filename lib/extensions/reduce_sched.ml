module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule

type event = {
  round : int;
  src : int;
  dst : int;
  start : float;
  arrival : float;
}

type t = {
  root : int;
  n : int;
  events : event list;
  makespan : float;
}

let of_broadcast inst schedule =
  (match Schedule.validate inst schedule with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Reduce_sched.of_broadcast: " ^ reason));
  let horizon = Schedule.makespan ~model:Schedule.After_sends inst schedule in
  (* Mirror: a broadcast transmission occupying [start, arrival] becomes a
     reduce transmission occupying [horizon - arrival, horizon - start],
     flowing dst -> src.  Rounds renumber in the new time order. *)
  let mirrored =
    List.rev_map
      (fun e ->
        {
          round = 0;
          src = e.Schedule.dst;
          dst = e.Schedule.src;
          start = horizon -. e.Schedule.arrival;
          arrival = horizon -. e.Schedule.start;
        })
      schedule.Schedule.events
  in
  let ordered =
    List.stable_sort (fun a b -> Float.compare a.start b.start) mirrored
    |> List.mapi (fun i e -> { e with round = i })
  in
  { root = schedule.Schedule.root; n = schedule.Schedule.n; events = ordered; makespan = horizon }

let makespan_equals_broadcast inst schedule =
  let r = of_broadcast inst schedule in
  let b = Schedule.makespan ~model:Schedule.After_sends inst schedule in
  Float.abs (r.makespan -. b) <= 1e-9 *. Float.max 1. b

let best_heuristic inst heuristics =
  match heuristics with
  | [] -> invalid_arg "Reduce_sched.best_heuristic: empty list"
  | hs ->
      let scored =
        List.map
          (fun h ->
            let r = of_broadcast inst (Gridb_sched.Engine.run h inst) in
            (h, r))
          hs
      in
      List.fold_left
        (fun (bh, br) (h, r) -> if r.makespan < br.makespan then (h, r) else (bh, br))
        (List.hd scored) (List.tl scored)
