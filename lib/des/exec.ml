module Machines = Gridb_topology.Machines

type result = Session.result = {
  arrival : float array;
  makespan : float;
  transmissions : int;
}

type transport = Session.transport =
  | Fixed
  | Adaptive of { config : Adaptive.config; reroute : bool }

type reliable = Session.reliable = {
  r_arrival : float array;
  r_makespan : float;
  r_transmissions : int;
  retransmissions : int;
  acks : int;
  delivered : int;
  gave_up : (int * int) list;
  crashed : int list;
  left : int list;
  joined : int list;
  horizon : float;
  reroutes : (int * int * int) list;
  circuit_opens : int;
  estimator : Adaptive.t option;
}

module Config = Session.Config

(* Both executors are single-session wrappers over {!Session}: a private
   wire sized to the session's rank population, a private engine, one
   launch, run to quiescence, extract.  Bit-identical to the historical
   monolithic executors (the golden corpus digest pins this). *)

let run ?noise ?rng ?start_delay ?msg ?obs machines plan =
  let config = Config.v ?noise ?rng ?start_delay ?msg ?obs () in
  let n = Machines.count machines in
  if Plan.size plan <> n then invalid_arg "Exec.run: plan size mismatch";
  let wire = Wire.create ~n in
  let engine = Engine.create ~obs:config.Config.obs () in
  let s = Session.launch ~who:"Exec.run" ~wire ~engine config machines plan in
  Engine.run engine;
  Session.result s

let mean_makespan ?(noise = Noise.default_measured) ?(msg = 1_000_000)
    ?(repetitions = 10) ?(jobs = 1) ~seed machines plan =
  if repetitions < 1 then invalid_arg "Exec.mean_makespan: repetitions < 1";
  (* One indexed stream per repetition ([Rng.split] is pure in the base
     state and the index): equal seeds give equal means, no repetition's
     draw count can bleed into another's stream, and every repetition is a
     self-contained task the pool may run on any worker in any order. *)
  let base = Gridb_util.Rng.create seed in
  let makespans =
    Gridb_util.Pool.mapi ~jobs
      (fun rep () ->
        (run ~noise ~rng:(Gridb_util.Rng.split base rep) ~msg machines plan).makespan)
      (Array.make repetitions ())
  in
  Array.fold_left ( +. ) 0. makespans /. float_of_int repetitions

let adaptive ?(config = Adaptive.default) ?(reroute = false) () =
  Adaptive { config; reroute }

let transport_of_string str =
  match String.lowercase_ascii (String.trim str) with
  | "fixed" -> Ok Fixed
  | "adaptive" -> Ok (adaptive ())
  | "adaptive,reroute" | "adaptive+reroute" -> Ok (adaptive ~reroute:true ())
  | other ->
      Error
        (Printf.sprintf "unknown transport %S (known: fixed, adaptive, adaptive,reroute)"
           other)

let transport_to_string = function
  | Fixed -> "fixed"
  | Adaptive { reroute = false; _ } -> "adaptive"
  | Adaptive { reroute = true; _ } -> "adaptive,reroute"

let run_reliable ?noise ?rng ?start_delay ?msg ?obs ?faults ?dynamics ?on_tick
    ?tick_every ?retries ?transport machines plan =
  let config =
    Config.v ?noise ?rng ?start_delay ?msg ?obs ?faults ?dynamics ?on_tick
      ?tick_every ?retries ?transport ()
  in
  Config.validate ~who:"Exec.run_reliable" config machines plan;
  let wire = Wire.create ~n:(Session.population config machines) in
  let engine = Engine.create ~obs:config.Config.obs () in
  let s =
    Session.launch_reliable ~who:"Exec.run_reliable" ~wire ~engine config machines
      plan
  in
  Engine.run engine;
  Session.reliable_result s

type reliable_summary = {
  reps : int;
  delivered_fraction : float;
  mean_retransmissions : float;
  mean_reroutes : float;
  mean_makespan : float;
  stddev_makespan : float;
  total_gave_up : int;
  all_delivered : bool;
}

let mean_reliable ?(noise = Noise.default_measured) ?(msg = 1_000_000)
    ?(repetitions = 10) ?(retries = 5) ?(transport = Fixed) ?(jobs = 1) ~seed ~spec
    machines plan =
  if repetitions < 1 then invalid_arg "Exec.mean_reliable: repetitions < 1";
  let n = Machines.count machines in
  (* Same indexed-stream discipline as [mean_makespan]: repetition [rep]
     runs entirely on [Rng.split base rep], burning the stream's first raw
     draw for its fault seed.  Equal seeds give equal summaries, no
     repetition's draw count bleeds into another's stream, and the pool may
     execute repetitions on any worker in any order. *)
  let base = Gridb_util.Rng.create seed in
  let results =
    Gridb_util.Pool.mapi ~jobs
      (fun rep () ->
        let stream = Gridb_util.Rng.split base rep in
        let fseed = Int64.to_int (Gridb_util.Rng.bits64 stream) land max_int in
        let faults = Faults.create ~seed:fseed ~n spec in
        run_reliable ~noise ~rng:stream ~msg ~faults ~retries ~transport machines plan)
      (Array.make repetitions ())
  in
  let makespans = Array.map (fun r -> r.r_makespan) results in
  let delivered = ref 0 in
  let retrans = ref 0 in
  let reroutes = ref 0 in
  let gave = ref 0 in
  let all = ref true in
  Array.iter
    (fun r ->
      delivered := !delivered + r.delivered;
      retrans := !retrans + r.retransmissions;
      reroutes := !reroutes + List.length r.reroutes;
      gave := !gave + List.length r.gave_up;
      if r.delivered <> n then all := false)
    results;
  let reps = float_of_int repetitions in
  let mean = Array.fold_left ( +. ) 0. makespans /. reps in
  let var =
    Array.fold_left (fun acc m -> acc +. ((m -. mean) *. (m -. mean))) 0. makespans /. reps
  in
  {
    reps = repetitions;
    delivered_fraction = float_of_int !delivered /. (reps *. float_of_int n);
    mean_retransmissions = float_of_int !retrans /. reps;
    mean_reroutes = float_of_int !reroutes /. reps;
    mean_makespan = mean;
    stddev_makespan = sqrt var;
    total_gave_up = !gave;
    all_delivered = !all;
  }
