let makespan_of_picks ?model inst picks =
  Option.map (Schedule.makespan ?model inst) (State.replay inst picks)

(* Neighbourhood enumeration over a pick array. *)
let neighbours ~root picks =
  let arr = Array.of_list picks in
  let len = Array.length arr in
  let swaps =
    List.init (max 0 (len - 1)) (fun i ->
        let copy = Array.copy arr in
        let tmp = copy.(i) in
        copy.(i) <- copy.(i + 1);
        copy.(i + 1) <- tmp;
        Array.to_list copy)
  in
  (* Re-parent pick i: its receiver keeps its slot, the sender becomes any
     cluster already received before round i (including the root). *)
  let reparent =
    List.concat
      (List.init len (fun i ->
           let _, dst = arr.(i) in
           let candidates =
             root :: (Array.to_list (Array.sub arr 0 i) |> List.map snd)
           in
           List.filter_map
             (fun new_src ->
               if new_src = fst arr.(i) || new_src = dst then None
               else begin
                 let copy = Array.copy arr in
                 copy.(i) <- (new_src, dst);
                 Some (Array.to_list copy)
               end)
             candidates))
  in
  swaps @ reparent

let improve ?model ?(max_rounds = 50) inst schedule =
  let rec climb round picks best =
    if round >= max_rounds then picks
    else begin
      let improved =
        List.fold_left
          (fun acc candidate ->
            match makespan_of_picks ?model inst candidate with
            | Some m -> (
                match acc with
                | Some (_, best_m) when best_m <= m -> acc
                | _ when m < best -> Some (candidate, m)
                | _ -> acc)
            | None -> acc)
          None
          (neighbours ~root:inst.Instance.root picks)
      in
      match improved with
      | Some (candidate, m) -> climb (round + 1) candidate m
      | None -> picks
    end
  in
  let picks = Schedule.picks schedule in
  let base = Schedule.makespan ?model inst schedule in
  let final = climb 0 picks base in
  match State.replay inst final with
  | Some s -> s
  | None -> schedule

(* One random move: an adjacent swap or a re-parent at a random position. *)
let random_neighbour rng ~root picks =
  let arr = Array.of_list picks in
  let len = Array.length arr in
  if len < 2 then picks
  else if Gridb_util.Rng.bool rng then begin
    let i = Gridb_util.Rng.int rng (len - 1) in
    let copy = Array.copy arr in
    let tmp = copy.(i) in
    copy.(i) <- copy.(i + 1);
    copy.(i + 1) <- tmp;
    Array.to_list copy
  end
  else begin
    let i = Gridb_util.Rng.int rng len in
    let _, dst = arr.(i) in
    let candidates =
      root :: (Array.to_list (Array.sub arr 0 i) |> List.map snd)
      |> List.filter (fun c -> c <> dst && c <> fst arr.(i))
    in
    match candidates with
    | [] -> Array.to_list arr
    | cs ->
        let new_src = List.nth cs (Gridb_util.Rng.int rng (List.length cs)) in
        let copy = Array.copy arr in
        copy.(i) <- (new_src, dst);
        Array.to_list copy
  end

let anneal ?model ?(seed = 0) ?(steps = 2_000) ?initial_temperature inst schedule =
  let rng = Gridb_util.Rng.create seed in
  let root = inst.Instance.root in
  let base = Schedule.makespan ?model inst schedule in
  let temperature0 =
    match initial_temperature with Some t -> t | None -> 0.1 *. Float.max 1. base
  in
  (* Cool to ~1% of the initial temperature over the run. *)
  let cooling = if steps <= 1 then 1. else Float.exp (Float.log 0.01 /. float_of_int steps) in
  let current = ref (Schedule.picks schedule) in
  let current_m = ref base in
  let best = ref !current in
  let best_m = ref base in
  let temperature = ref temperature0 in
  for _ = 1 to steps do
    let candidate = random_neighbour rng ~root !current in
    (match makespan_of_picks ?model inst candidate with
    | Some m ->
        let accept =
          m <= !current_m
          || Gridb_util.Rng.float rng 1. < Float.exp ((!current_m -. m) /. !temperature)
        in
        if accept then begin
          current := candidate;
          current_m := m;
          if m < !best_m then begin
            best := candidate;
            best_m := m
          end
        end
    | None -> ());
    temperature := !temperature *. cooling
  done;
  match State.replay inst !best with Some s -> s | None -> schedule

let improvement_ratio ?model inst schedule =
  let base = Schedule.makespan ?model inst schedule in
  if base <= 0. then 1.
  else Schedule.makespan ?model inst (improve ?model inst schedule) /. base
