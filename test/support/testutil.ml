module Rng = Gridb_util.Rng
module Instance = Gridb_sched.Instance
module Generators = Gridb_topology.Generators

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let multiplier =
  lazy
    (match Sys.getenv_opt "QCHECK_COUNT" with
    | None -> 1
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some m when m >= 1 -> m
        | _ -> 1))

let count base = max 1 (base * Lazy.force multiplier)

let random_instance ?(n = 6) seed =
  let rng = Rng.create seed in
  Instance.random ~rng ~n Instance.table2_ranges

let random_grid ?cluster_size ~n seed =
  let spec =
    match cluster_size with
    | None -> Generators.default_random_spec
    | Some range -> { Generators.default_random_spec with cluster_size = range }
  in
  Generators.uniform_random ~rng:(Rng.create seed) ~n spec

let brute_force_makespan inst =
  let n = inst.Instance.n in
  let gap = inst.Instance.gap
  and lat = inst.Instance.latency
  and intra = inst.Instance.intra in
  let in_a = Array.make n false and avail = Array.make n 0. in
  in_a.(inst.Instance.root) <- true;
  let best = ref infinity in
  let rec dfs left =
    if left = 0 then begin
      let mk = ref 0. in
      for k = 0 to n - 1 do
        mk := Float.max !mk (avail.(k) +. intra.(k))
      done;
      best := Float.min !best !mk
    end
    else
      for i = 0 to n - 1 do
        if in_a.(i) then
          for j = 0 to n - 1 do
            if not in_a.(j) then begin
              let saved = avail.(i) in
              avail.(i) <- saved +. gap.(i).(j);
              avail.(j) <- avail.(i) +. lat.(i).(j);
              in_a.(j) <- true;
              dfs (left - 1);
              in_a.(j) <- false;
              avail.(i) <- saved
            end
          done
      done
  in
  dfs (n - 1);
  !best

let corpus ?(n_range = (2, 12)) ~seed ~count () =
  let rng = Rng.create seed in
  let lo, hi = n_range in
  List.init count (fun _ ->
      let n = Rng.int_in rng lo hi in
      let instance_seed = Rng.int rng 1_000_000 in
      (instance_seed, random_instance ~n instance_seed))
