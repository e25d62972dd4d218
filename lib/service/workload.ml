module Rng = Gridb_util.Rng
module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid

type priority = Low | High

let priority_to_string = function Low -> "low" | High -> "high"

type request = {
  rid : int;
  at : float;
  root : int;
  msg : int;
  policy : string;
  deadline : float;
  priority : priority;
}

type mix = {
  roots : int array;
  msgs : int array;
  policies : string array;
  deadlines : float array;
  high_frac : float;
}

let default_mix machines =
  let clusters = Grid.size (Machines.grid machines) in
  {
    (* Few distinct roots/sizes/policies: the key space stays small, so a
       sustained request stream revisits keys and the plan cache earns its
       keep (hit rate > 0.5 on the default bench workload). *)
    roots = Array.init (min 3 clusters) Fun.id;
    msgs = [| 65_536; 1_000_000 |];
    policies = [| "ECEF"; "ECEF-LA" |];
    (* No deadlines and no high-priority traffic by default: the classic
       (pre-resilience) request stream, draw for draw. *)
    deadlines = [| infinity |];
    high_frac = 0.;
  }

let validate_mix machines m =
  let clusters = Grid.size (Machines.grid machines) in
  if Array.length m.roots = 0 then invalid_arg "Workload.generate: empty root mix";
  Array.iter
    (fun r ->
      if r < 0 || r >= clusters then
        invalid_arg "Workload.generate: root cluster out of range")
    m.roots;
  if Array.length m.msgs = 0 then invalid_arg "Workload.generate: empty size mix";
  Array.iter
    (fun s -> if s < 1 then invalid_arg "Workload.generate: message size < 1")
    m.msgs;
  if Array.length m.policies = 0 then
    invalid_arg "Workload.generate: empty policy mix";
  Array.iter
    (fun p ->
      if Gridb_sched.Policy.by_name p = None then
        invalid_arg (Printf.sprintf "Workload.generate: unknown policy %S" p))
    m.policies;
  if Array.length m.deadlines = 0 then
    invalid_arg "Workload.generate: empty deadline mix";
  Array.iter
    (fun d ->
      if Float.is_nan d || d <= 0. then
        invalid_arg "Workload.generate: deadline must be positive (or infinite)")
    m.deadlines;
  if Float.is_nan m.high_frac || m.high_frac < 0. || m.high_frac > 1. then
    invalid_arg "Workload.generate: high_frac outside [0, 1]"

let generate ?mix ~seed ~rate ~duration machines =
  (* A NaN bound never ends the arrival loop, an infinite rate never
     advances it and an infinite window never closes it. *)
  if not (rate > 0.) then invalid_arg "Workload.generate: rate must be positive";
  if rate = infinity then invalid_arg "Workload.generate: rate must be finite";
  if not (duration > 0.) then invalid_arg "Workload.generate: duration must be positive";
  if duration = infinity then invalid_arg "Workload.generate: duration must be finite";
  let m = match mix with Some m -> m | None -> default_mix machines in
  validate_mix machines m;
  let rng = Rng.create seed in
  (* Open loop: arrivals are a Poisson process of rate [rate], independent
     of service times — the generator never waits for completions.  Fixed
     per-request draw order (interarrival, root, size, policy, then
     deadline and priority) keeps equal seeds giving equal request streams
     whatever the mix sizes.  The deadline/priority draws are skipped
     entirely when their menu is degenerate, so a resilience-free mix
     consumes exactly the draws the pre-deadline generator did — the
     zero-chaos streams are bit-identical to the historical ones. *)
  let rec go rid t acc =
    let t = t +. Rng.exponential rng rate in
    if t > duration then List.rev acc
    else
      let root = Rng.pick rng m.roots in
      let msg = Rng.pick rng m.msgs in
      let policy = Rng.pick rng m.policies in
      let deadline =
        if Array.length m.deadlines = 1 then m.deadlines.(0)
        else Rng.pick rng m.deadlines
      in
      let priority =
        if m.high_frac <= 0. then Low
        else if m.high_frac >= 1. then High
        else if Rng.bernoulli rng m.high_frac then High
        else Low
      in
      go (rid + 1) t ({ rid; at = t; root; msg; policy; deadline; priority } :: acc)
  in
  go 0 0. []

(* --- mix spec codec ---------------------------------------------------- *)

(* Same surface grammar as [Faults.of_string] / [Dynamics.of_string]:
   comma-separated key=value pairs, every parse error names the offending
   key.  List-valued keys separate their elements with '|'. *)

let float_string f = if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%.17g" f

let mix_to_string m =
  let ints a = String.concat "|" (Array.to_list (Array.map string_of_int a)) in
  let floats a =
    String.concat "|"
      (Array.to_list
         (Array.map (fun d -> if d = infinity then "inf" else float_string d) a))
  in
  Printf.sprintf "roots=%s,msgs=%s,policies=%s,deadlines=%s,high=%s" (ints m.roots)
    (ints m.msgs)
    (String.concat "|" (Array.to_list m.policies))
    (floats m.deadlines) (float_string m.high_frac)

let mix_of_string machines s =
  let err key fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "mix key %S: %s" key m)) fmt
  in
  let split_elems v = String.split_on_char '|' v in
  let parse_ints key v k =
    let rec go acc = function
      | [] -> k (Array.of_list (List.rev acc))
      | e :: rest -> (
          match int_of_string_opt (String.trim e) with
          | Some i -> go (i :: acc) rest
          | None -> err key "bad integer %S" e)
    in
    go [] (split_elems v)
  in
  let parse_floats key v k =
    let rec go acc = function
      | [] -> k (Array.of_list (List.rev acc))
      | e :: rest -> (
          match float_of_string_opt (String.trim e) with
          | Some f -> go (f :: acc) rest
          | None -> err key "bad number %S" e)
    in
    go [] (split_elems v)
  in
  let rec fold m = function
    | [] -> Ok m
    | pair :: rest -> (
        match String.index_opt pair '=' with
        | None -> Error (Printf.sprintf "mix: expected key=value, got %S" pair)
        | Some i -> (
            let key = String.trim (String.sub pair 0 i) in
            let v = String.sub pair (i + 1) (String.length pair - i - 1) in
            match key with
            | "roots" -> parse_ints key v (fun a -> fold { m with roots = a } rest)
            | "msgs" -> parse_ints key v (fun a -> fold { m with msgs = a } rest)
            | "policies" ->
                fold
                  { m with policies = Array.of_list (List.map String.trim (split_elems v)) }
                  rest
            | "deadlines" ->
                parse_floats key v (fun a -> fold { m with deadlines = a } rest)
            | "high" -> (
                match float_of_string_opt (String.trim v) with
                | Some f when f >= 0. && f <= 1. -> fold { m with high_frac = f } rest
                | Some _ -> err key "fraction outside [0, 1]"
                | None -> err key "bad number %S" v)
            | other -> Error (Printf.sprintf "mix: unknown key %S" other)))
  in
  let m0 = default_mix machines in
  if String.trim s = "default" then Ok m0
  else
    match fold m0 (String.split_on_char ',' (String.trim s)) with
    | Error _ as e -> e
    | Ok m -> (
        match validate_mix machines m with
        | () -> Ok m
        | exception Invalid_argument msg -> Error msg)
