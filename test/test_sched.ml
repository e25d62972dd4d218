(* Tests for gridb_sched: instances, the A/B state machine, schedules, all
   seven heuristics, lookaheads, optimality, the mixed strategy and the
   hit-rate machinery.  This is the paper's core contribution, so the
   property-based coverage is densest here. *)

module Instance = Gridb_sched.Instance
module State = Gridb_sched.State
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Lookahead = Gridb_sched.Lookahead
module Exact = Gridb_opt.Exact
module Mixed = Gridb_sched.Mixed
module Hit_rate = Gridb_sched.Hit_rate
module Rng = Gridb_util.Rng

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

let random_instance ?(n = 6) seed =
  let rng = Rng.create seed in
  Instance.random ~rng ~n Instance.table2_ranges

(* A tiny hand-built instance where the optimal structure is known:
   root 0, one fast relay 1 close to everything, one slow distant cluster 2. *)
let hand_instance () =
  let latency = [| [| 0.; 1.; 10. |]; [| 1.; 0.; 1. |]; [| 10.; 1.; 0. |] |] in
  let gap = [| [| 0.; 2.; 20. |]; [| 2.; 0.; 2. |]; [| 20.; 2.; 0. |] |] in
  let intra = [| 0.; 0.; 0. |] in
  Instance.v ~root:0 ~latency ~gap ~intra

(* --- Instance ------------------------------------------------------------ *)

let test_instance_validation () =
  Alcotest.check_raises "root range" (Invalid_argument "Instance.v: root out of range")
    (fun () ->
      ignore (Instance.v ~root:3 ~latency:[| [| 0. |] |] ~gap:[| [| 0. |] |] ~intra:[| 0. |]));
  Alcotest.check_raises "negative entry" (Invalid_argument "Instance.v: bad latency entry")
    (fun () ->
      ignore
        (Instance.v ~root:0 ~latency:[| [| -1. |] |] ~gap:[| [| 0. |] |] ~intra:[| 0. |]));
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Instance.v: latency height mismatch")
    (fun () ->
      ignore (Instance.v ~root:0 ~latency:[| [| 0. |]; [| 0. |] |] ~gap:[| [| 0. |] |] ~intra:[| 0. |]))

let test_instance_copies_inputs () =
  let latency = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let gap = [| [| 0.; 2. |]; [| 2.; 0. |] |] in
  let inst = Instance.v ~root:0 ~latency ~gap ~intra:[| 0.; 0. |] in
  latency.(0).(1) <- 999.;
  check_feq "defensive copy" 1. inst.Instance.latency.(0).(1)

let test_instance_random_ranges =
  QCheck.Test.make ~name:"random instances respect Table 2 ranges" ~count:(Testutil.count 100)
    QCheck.(int_range 2 30)
    (fun n ->
      let rng = Rng.create n in
      let inst = Instance.random ~rng ~n Instance.table2_ranges in
      let ok = ref (inst.Instance.root = 0 && inst.Instance.n = n) in
      for i = 0 to n - 1 do
        let t = inst.Instance.intra.(i) in
        ok := !ok && t >= 20_000. && t <= 3_000_000.;
        for j = 0 to n - 1 do
          if i <> j then begin
            let l = inst.Instance.latency.(i).(j) and g = inst.Instance.gap.(i).(j) in
            ok :=
              !ok && l >= 1_000. && l <= 15_000. && g >= 100_000. && g <= 600_000.
              && feq l inst.Instance.latency.(j).(i)
              && feq g inst.Instance.gap.(j).(i)
          end
        done
      done;
      !ok)

let test_instance_of_grid_matches_components () =
  let grid = Gridb_topology.Grid5000.grid () in
  let msg = 1_000_000 in
  let inst = Instance.of_grid ~root:0 ~msg grid in
  check_feq "latency from grid" (Gridb_topology.Grid.latency grid 0 2)
    inst.Instance.latency.(0).(2);
  check_feq "gap from grid" (Gridb_topology.Grid.gap grid 0 2 msg) inst.Instance.gap.(0).(2);
  (* T of a singleton cluster is 0 *)
  check_feq "singleton T" 0. inst.Instance.intra.(3);
  (* T of Orsay-A equals the binomial cost model *)
  let c = Gridb_topology.Grid.cluster grid 0 in
  check_feq "binomial T"
    (Gridb_collectives.Cost.broadcast_time ~params:c.Gridb_topology.Cluster.intra
       ~size:c.Gridb_topology.Cluster.size ~msg ())
    inst.Instance.intra.(0)

let test_instance_of_machines () =
  let grid = Gridb_topology.Grid5000.grid () in
  let machines = Gridb_topology.Machines.expand grid in
  let inst = Instance.of_machines ~root:0 ~msg:1_000_000 machines in
  Alcotest.(check int) "one node per machine" 88 inst.Instance.n;
  Alcotest.(check bool) "all T zero" true
    (Array.for_all (fun t -> t = 0.) inst.Instance.intra);
  (* intra-cluster pair: Orsay params; inter: Table 3 *)
  check_feq "intra pair latency" 47.56 inst.Instance.latency.(0).(1);
  check_feq "inter pair latency" 12181.52 inst.Instance.latency.(0).(61);
  (* node-level scheduling never loses to hierarchical on the same grid *)
  let hier = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  Alcotest.(check bool) "flat ECEF <= hierarchical ECEF" true
    (Engine.makespan Policy.ecef inst
    <= Engine.makespan Policy.ecef hier +. 1e-6)

(* --- State ------------------------------------------------------------ *)

let test_state_initial () =
  let inst = random_instance 1 in
  let s = State.create inst in
  Alcotest.(check (list int)) "A = {root}" [ 0 ] (State.members_a s);
  Alcotest.(check int) "B has n-1" (inst.Instance.n - 1) (List.length (State.members_b s));
  Alcotest.(check int) "count_b" (inst.Instance.n - 1) (State.count_b s);
  Alcotest.(check bool) "not finished" false (State.finished s);
  check_feq "root ready at 0" 0. (State.ready s 0);
  check_feq "root avail at 0" 0. (State.avail s 0)

let test_state_send_semantics () =
  let inst = hand_instance () in
  let s = State.create inst in
  State.send s ~src:0 ~dst:1;
  (* start 0, gap 2, latency 1 *)
  check_feq "sender avail = gap" 2. (State.avail s 0);
  check_feq "receiver ready = g+L" 3. (State.ready s 1);
  Alcotest.(check bool) "1 in A" true (State.in_a s 1);
  State.send s ~src:0 ~dst:2;
  (* second send starts at 2 (gap exclusivity): ready_2 = 2 + 20 + 10 *)
  check_feq "serialised gap" 32. (State.ready s 2);
  Alcotest.(check bool) "finished" true (State.finished s)

let test_state_send_rejects () =
  let inst = hand_instance () in
  let s = State.create inst in
  Alcotest.check_raises "src in B" (Invalid_argument "State.send: src in B") (fun () ->
      State.send s ~src:1 ~dst:2);
  State.send s ~src:0 ~dst:1;
  Alcotest.check_raises "dst in A" (Invalid_argument "State.send: dst already in A")
    (fun () -> State.send s ~src:0 ~dst:1);
  Alcotest.check_raises "self" (Invalid_argument "State.send: src = dst") (fun () ->
      State.send s ~src:0 ~dst:0)

let test_state_earliest_arrival () =
  let inst = hand_instance () in
  let s = State.create inst in
  check_feq "0->1" 3. (State.earliest_arrival s ~src:0 ~dst:1);
  check_feq "0->2" 30. (State.earliest_arrival s ~src:0 ~dst:2);
  Alcotest.check_raises "dst in A" (Invalid_argument "State.earliest_arrival: dst in A")
    (fun () -> ignore (State.earliest_arrival s ~src:0 ~dst:0))

let test_state_iterators_match_lists () =
  let inst = random_instance ~n:10 3 in
  let s = State.create inst in
  State.send s ~src:0 ~dst:4;
  State.send s ~src:4 ~dst:7;
  let via_iter collect =
    let acc = ref [] in
    collect s (fun i -> acc := i :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "iter_a" (State.members_a s) (via_iter State.iter_a);
  Alcotest.(check (list int)) "iter_b" (State.members_b s) (via_iter State.iter_b)

(* --- Schedules: validity for every heuristic on random instances ------- *)

let all_heuristics_valid =
  QCheck.Test.make ~name:"every heuristic emits a valid schedule" ~count:(Testutil.count 150)
    QCheck.(pair (int_range 1 24) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      List.for_all
        (fun h ->
          let s = Engine.run h inst in
          match Schedule.validate inst s with
          | Ok () -> true
          | Error msg ->
              QCheck.Test.fail_reportf "%s invalid on n=%d seed=%d: %s" (Policy.name h)
                n seed msg)
        Policy.all)

let schedules_are_deterministic =
  QCheck.Test.make ~name:"heuristics are deterministic" ~count:(Testutil.count 50)
    QCheck.(pair (int_range 2 15) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      List.for_all
        (fun h ->
          Schedule.makespan inst (Engine.run h inst)
          = Schedule.makespan inst (Engine.run h inst))
        Policy.all)

let makespan_lower_bound =
  (* Any schedule's makespan is at least the best single-hop reach of the
     farthest cluster plus its T, and at least max T. *)
  QCheck.Test.make ~name:"makespan respects trivial lower bounds" ~count:(Testutil.count 100)
    QCheck.(pair (int_range 2 20) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let max_t = Array.fold_left Float.max 0. inst.Instance.intra in
      List.for_all
        (fun h ->
          let ms = Engine.makespan h inst in
          ms >= max_t -. 1e-6)
        Policy.all)

let flat_tree_has_depth_one =
  QCheck.Test.make ~name:"flat tree never relays" ~count:(Testutil.count 50)
    QCheck.(pair (int_range 2 20) (int_bound 1_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let s = Engine.run Policy.flat_tree inst in
      Schedule.depth s = 1 && Schedule.senders s = [ 0 ])

let test_schedule_depth_and_senders () =
  let inst = hand_instance () in
  let s = Engine.run Policy.ecef inst in
  (* ECEF: 0->1 arrives at 3; then both 0 and 1 can send to 2:
     from 1: avail 3 + g 2 + L 1 = 6; from 0: avail 2 + 20 + 10 = 32.
     So 1 relays: depth 2. *)
  Alcotest.(check int) "depth 2" 2 (Schedule.depth s);
  Alcotest.(check (list int)) "senders 0 and 1" [ 0; 1 ] (Schedule.senders s);
  check_feq "makespan 6" 6. (Schedule.makespan inst s)

let test_flat_tree_order_dependence () =
  (* The paper: flat tree "depends on how the clusters list is arranged". *)
  let inst = hand_instance () in
  let s = Engine.run Policy.flat_tree inst in
  check_feq "flat sends in index order: ready_1" 3. s.Schedule.ready.(1);
  check_feq "flat second send" 32. s.Schedule.ready.(2);
  check_feq "flat makespan" 32. (Schedule.makespan inst s)

let test_completion_models_differ () =
  let inst = hand_instance () in
  (* give cluster 1 a long internal broadcast to expose the overlap *)
  let inst =
    Instance.v ~root:0 ~latency:inst.Instance.latency ~gap:inst.Instance.gap
      ~intra:[| 0.; 100.; 0. |]
  in
  let s = Engine.run Policy.ecef inst in
  (* cluster 1 receives at 3, relays until 5, then T=100:
     after-sends: 5 + 100 = 105; overlapped: max(3 + 100, 5) = 103. *)
  check_feq "after-sends" 105. (Schedule.makespan ~model:Schedule.After_sends inst s);
  check_feq "overlapped" 103. (Schedule.makespan ~model:Schedule.Overlapped inst s)

let test_validate_catches_corruption () =
  let inst = hand_instance () in
  let s = Engine.run Policy.ecef inst in
  let bad_ready = { s with Schedule.ready = Array.map (fun r -> r +. 1.) s.Schedule.ready } in
  Alcotest.(check bool) "corrupted ready detected" true
    (Result.is_error (Schedule.validate inst bad_ready));
  let bad_events =
    match s.Schedule.events with
    | e :: rest -> { s with Schedule.events = { e with Schedule.dst = e.Schedule.src } :: rest }
    | [] -> s
  in
  Alcotest.(check bool) "self send detected" true
    (Result.is_error (Schedule.validate inst bad_events))

let test_single_cluster_schedule () =
  let inst = Instance.v ~root:0 ~latency:[| [| 0. |] |] ~gap:[| [| 0. |] |] ~intra:[| 55. |] in
  List.iter
    (fun h ->
      let s = Engine.run h inst in
      Alcotest.(check int) "no events" 0 (Schedule.rounds s);
      check_feq "makespan = T" 55. (Schedule.makespan inst s))
    Policy.all

(* --- Heuristic semantics -------------------------------------------------- *)

let test_fef_picks_min_latency_first () =
  let inst = hand_instance () in
  let s = Engine.run Policy.fef inst in
  match s.Schedule.events with
  | first :: _ ->
      Alcotest.(check int) "first dst is closest" 1 first.Schedule.dst;
      Alcotest.(check int) "first src is root" 0 first.Schedule.src
  | [] -> Alcotest.fail "no events"

let test_ecef_la_reduces_to_ecef_with_none () =
  (* With the 'none' lookahead the ECEF-LA driver must equal plain ECEF. *)
  let h = Policy.ecef_with Lookahead.none in
  for seed = 0 to 20 do
    let inst = random_instance ~n:12 seed in
    check_feq
      (Printf.sprintf "seed %d" seed)
      (Engine.makespan Policy.ecef inst)
      (Engine.makespan h inst)
  done

let test_lookahead_values () =
  let inst = hand_instance () in
  let s = State.create inst in
  (* B = {1, 2}; for j=1, rest = {2}: min-edge = g_12 + L_12 = 3. *)
  check_feq "min-edge j=1" 3. (Lookahead.min_edge.Lookahead.eval s ~j:1);
  check_feq "min-edge j=2" 3. (Lookahead.min_edge.Lookahead.eval s ~j:2);
  (* with T: intra all 0 here, so identical *)
  check_feq "min-edge+T" 3. (Lookahead.min_edge_plus_t.Lookahead.eval s ~j:1);
  check_feq "max-edge+T" 3. (Lookahead.max_edge_plus_t.Lookahead.eval s ~j:1);
  check_feq "none" 0. (Lookahead.none.Lookahead.eval s ~j:1)

let test_lookahead_last_member_zero () =
  let inst = hand_instance () in
  let s = State.create inst in
  State.send s ~src:0 ~dst:1;
  (* B = {2}: no other member, all lookaheads collapse to 0. *)
  List.iter
    (fun la -> check_feq la.Lookahead.name 0. (la.Lookahead.eval s ~j:2))
    Lookahead.all

let test_lookahead_max_dominates_min =
  QCheck.Test.make ~name:"max-edge+T >= min-edge+T pointwise" ~count:(Testutil.count 100)
    QCheck.(pair (int_range 3 15) (int_bound 1_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let s = State.create inst in
      List.for_all
        (fun j ->
          Lookahead.max_edge_plus_t.Lookahead.eval s ~j
          >= Lookahead.min_edge_plus_t.Lookahead.eval s ~j -. 1e-9)
        (State.members_b s))

let test_ecef_lat_prefers_slow_cluster () =
  (* Cluster 1 is slow (huge T) and marginally farther than the fast
     clusters 2 and 3.  ECEF-LAT's max-lookahead penalises every receiver
     except the slow one (whose own T is excluded from its F), so LAT
     fetches the slow cluster first; ECEF-LAt sticks to the cheapest
     receiver. *)
  let latency =
    [|
      [| 0.; 1.1; 1.; 1. |];
      [| 1.1; 0.; 1.; 1. |];
      [| 1.; 1.; 0.; 1. |];
      [| 1.; 1.; 1.; 0. |];
    |]
  in
  let gap = Array.make_matrix 4 4 2. in
  for i = 0 to 3 do gap.(i).(i) <- 0. done;
  let inst = Instance.v ~root:0 ~latency ~gap ~intra:[| 0.; 1000.; 0.; 0. |] in
  let first_dst h =
    match (Engine.run h inst).Schedule.events with
    | e :: _ -> e.Schedule.dst
    | [] -> -1
  in
  Alcotest.(check int) "LAT first fetches the slow cluster" 1
    (first_dst Policy.ecef_lat_max);
  Alcotest.(check int) "LAt first fetches a fast cluster" 2
    (first_dst Policy.ecef_lat_min)

let test_bottom_up_targets_slowest () =
  let latency = [| [| 0.; 1.; 1. |]; [| 1.; 0.; 1. |]; [| 1.; 1.; 0. |] |] in
  let gap = [| [| 0.; 2.; 2. |]; [| 2.; 0.; 2. |]; [| 2.; 2.; 0. |] |] in
  let inst = Instance.v ~root:0 ~latency ~gap ~intra:[| 0.; 0.; 5000. |] in
  let s = Engine.run Policy.bottom_up inst in
  match s.Schedule.events with
  | e :: _ -> Alcotest.(check int) "slowest first" 2 e.Schedule.dst
  | [] -> Alcotest.fail "no events"

let test_by_name () =
  let name n = Option.map Policy.name (Policy.by_name n) in
  (* "ecef-lat" matches both ECEF-LAt (min) and ECEF-LAT (max) up to case:
     it must resolve to neither rather than silently picking one. *)
  Alcotest.(check (option string)) "ecef-lat is ambiguous" None (name "ecef-lat");
  Alcotest.(check (option string)) "ECEF-LAt exact" (Some "ECEF-LAt") (name "ECEF-LAt");
  Alcotest.(check (option string)) "ECEF-LAT exact" (Some "ECEF-LAT") (name "ECEF-LAT");
  Alcotest.(check (option string))
    "unambiguous case-insensitive still works" (Some "BottomUp") (name "bottomup");
  (* Parameterised names round-trip through by_name. *)
  Alcotest.(check (option string))
    "ECEF-LA<lookahead>" (Some "ECEF-LA<min-edge+T>") (name "ECEF-LA<min-edge+T>");
  Alcotest.(check (option string))
    "mixed round-trips"
    (Some "Mixed<ECEF-LA|ECEF-LAT@10>")
    (name (Policy.name (Mixed.strategy ())));
  Alcotest.(check (option string))
    "mixed with parameterised component"
    (Some "Mixed<ECEF-LA<min-edge>|ECEF-LAT@7>")
    (name "Mixed<ECEF-LA<min-edge>|ECEF-LAT@7>");
  Alcotest.(check bool) "unknown" true (Policy.by_name "nope" = None);
  Alcotest.(check bool) "ECEF-LA<nope>" true (Policy.by_name "ECEF-LA<nope>" = None);
  Alcotest.(check int) "all has 7" 7 (List.length Policy.all);
  Alcotest.(check int) "family has 4" 4 (List.length Policy.ecef_family)

(* --- Optimal (the exact solver) ------------------------------------------ *)

let optimal_not_beaten =
  QCheck.Test.make ~name:"no heuristic beats the optimal" ~count:(Testutil.count 60)
    QCheck.(pair (int_range 2 6) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let opt = Exact.makespan inst in
      List.for_all (fun h -> Engine.makespan h inst >= opt -. 1e-6) Policy.all)

let optimal_schedule_is_valid_and_matches =
  QCheck.Test.make ~name:"optimal schedule valid and achieves its makespan" ~count:(Testutil.count 40)
    QCheck.(pair (int_range 2 6) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let s = Exact.schedule inst in
      Result.is_ok (Schedule.validate inst s)
      && feq ~eps:1e-9 (Schedule.makespan inst s) (Exact.makespan inst))

let test_optimal_rejects_large () =
  let inst = random_instance ~n:9 3 in
  Alcotest.check_raises "caller's ceiling"
    (Invalid_argument "Exact: 9 clusters exceeds the ceiling of 8") (fun () ->
      ignore (Exact.makespan ~max_clusters:8 inst))

let test_optimal_two_clusters () =
  let inst = hand_instance () in
  (* Optimal for the hand instance is the ECEF schedule (relay through 1). *)
  check_feq "optimal = 6" 6. (Exact.makespan inst)

(* --- Mixed strategy -------------------------------------------------------- *)

let test_mixed_dispatch () =
  let mixed = Mixed.strategy ~threshold:5 () in
  let small = random_instance ~n:4 11 in
  check_feq "small = ECEF-LA"
    (Engine.makespan Policy.ecef_la small)
    (Engine.makespan mixed small);
  let large = random_instance ~n:12 11 in
  check_feq "large = ECEF-LAT"
    (Engine.makespan Policy.ecef_lat_max large)
    (Engine.makespan mixed large)

(* --- Hit rate -------------------------------------------------------------- *)

let test_hit_rate_bookkeeping () =
  let instances = List.init 50 (fun i -> random_instance ~n:8 i) in
  let outcomes = Hit_rate.run_instances instances Policy.ecef_family in
  Alcotest.(check int) "4 outcomes" 4 (List.length outcomes);
  List.iter
    (fun o ->
      Alcotest.(check int) "iterations recorded" 50 o.Hit_rate.iterations;
      Alcotest.(check bool) "hits within range" true (o.Hit_rate.hits >= 0 && o.Hit_rate.hits <= 50))
    outcomes;
  (* at least one heuristic achieves the global minimum on every draw *)
  let total_hits = List.fold_left (fun acc o -> acc + o.Hit_rate.hits) 0 outcomes in
  Alcotest.(check bool) "every draw has a winner" true (total_hits >= 50)

let test_hit_rate_identical_heuristics_tie () =
  let instances = List.init 20 (fun i -> random_instance ~n:6 (100 + i)) in
  let outcomes = Hit_rate.run_instances instances [ Policy.ecef; Policy.ecef ] in
  match outcomes with
  | [ a; b ] ->
      Alcotest.(check int) "both always hit" 20 a.Hit_rate.hits;
      Alcotest.(check int) "both always hit (2)" 20 b.Hit_rate.hits
  | _ -> Alcotest.fail "expected two outcomes"

let test_hit_rate_rejects () =
  Alcotest.check_raises "no heuristics" (Invalid_argument "Hit_rate: no heuristics")
    (fun () -> ignore (Hit_rate.run_instances [ random_instance 0 ] []));
  Alcotest.check_raises "bad iterations" (Invalid_argument "Hit_rate.run: iterations < 1")
    (fun () ->
      ignore
        (Hit_rate.run ~rng:(Rng.create 0) ~iterations:0 ~n:3 Instance.table2_ranges
           Policy.all))

(* --- Bounds -------------------------------------------------------------- *)

let bounds_below_every_heuristic =
  QCheck.Test.make ~name:"combined bound never exceeds any heuristic" ~count:(Testutil.count 80)
    QCheck.(pair (int_range 2 20) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let lb = Gridb_sched.Bounds.combined inst in
      List.for_all (fun h -> Engine.makespan h inst >= lb -. 1e-6) Policy.all)

let upper_bound_above_every_heuristic =
  QCheck.Test.make ~name:"upper bound is at least every heuristic" ~count:(Testutil.count 80)
    QCheck.(pair (int_range 1 20) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let ub = Gridb_sched.Bounds.upper inst in
      List.for_all (fun h -> Engine.makespan h inst <= ub +. 1e-6) Policy.all)

let bounds_below_optimal =
  QCheck.Test.make ~name:"combined bound never exceeds the optimum" ~count:(Testutil.count 40)
    QCheck.(pair (int_range 2 6) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      Gridb_sched.Bounds.combined inst <= Exact.makespan inst +. 1e-6)

let test_bounds_hand_instance () =
  let inst = hand_instance () in
  (* reach: cluster 1 cheapest in-edge min(0->1: 3, 2->1: 3) = 3;
     cluster 2 cheapest min(0->2: 30, 1->2: 3) = 3. *)
  check_feq "reach root" 0. (Gridb_sched.Bounds.reach inst 0);
  check_feq "reach 1" 3. (Gridb_sched.Bounds.reach inst 1);
  check_feq "reach 2" 3. (Gridb_sched.Bounds.reach inst 2);
  (* fanout: gmin 2, lmin 1, tmin 0, ceil(log2 3) = 2 -> 5. *)
  check_feq "fanout" 5. (Gridb_sched.Bounds.fanout_bound inst);
  (* root gap: min over j of g+L+T = 3. *)
  check_feq "root gap" 3. (Gridb_sched.Bounds.root_gap_bound inst);
  check_feq "combined" 5. (Gridb_sched.Bounds.combined inst);
  (* upper: worst in-edge per cluster, 30 + 3 + 30, plus max T = 0. *)
  check_feq "upper" 63. (Gridb_sched.Bounds.upper inst);
  (* optimal is 6: the bound is tight within 20% here *)
  check_feq "gap ratio of optimum" (6. /. 5.)
    (Gridb_sched.Bounds.gap_ratio inst (Exact.makespan inst))

let test_bounds_single_cluster () =
  let inst = Instance.v ~root:0 ~latency:[| [| 0. |] |] ~gap:[| [| 0. |] |] ~intra:[| 42. |] in
  check_feq "combined = T_root" 42. (Gridb_sched.Bounds.combined inst);
  check_feq "upper = T_root" 42. (Gridb_sched.Bounds.upper inst);
  (* Finite entries whose sum overflows: the bound says so. *)
  let huge = [| [| 0.; 1e308; 1e308 |]; [| 1e308; 0.; 1e308 |]; [| 1e308; 1e308; 0. |] |] in
  let inst = Instance.v ~root:0 ~latency:huge ~gap:huge ~intra:[| 0.; 0.; 0. |] in
  Alcotest.(check bool) "overflow is not finite" false
    (Float.is_finite (Gridb_sched.Bounds.upper inst));
  Alcotest.check_raises "negative makespan"
    (Invalid_argument "Bounds.gap_ratio: negative makespan") (fun () ->
      ignore (Gridb_sched.Bounds.gap_ratio inst (-1.)))

(* --- Refine ------------------------------------------------------------- *)

let test_refine_picks_roundtrip () =
  let inst = random_instance ~n:8 5 in
  let s = Engine.run Policy.ecef inst in
  let picks = Schedule.picks s in
  match State.replay inst picks with
  | None -> Alcotest.fail "replay of a valid schedule failed"
  | Some s2 -> check_feq "same makespan" (Schedule.makespan inst s) (Schedule.makespan inst s2)

let test_refine_replay_rejects_invalid () =
  let inst = hand_instance () in
  Alcotest.(check bool) "sender not in A" true
    (State.replay inst [ (1, 2); (0, 1) ] = None);
  Alcotest.(check bool) "incomplete" true (State.replay inst [ (0, 1) ] = None);
  Alcotest.(check bool) "valid" true (State.replay inst [ (0, 1); (1, 2) ] <> None)

let refine_never_worse =
  QCheck.Test.make ~name:"local search never degrades a schedule" ~count:(Testutil.count 40)
    QCheck.(pair (int_range 2 10) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      List.for_all
        (fun h ->
          let s = Engine.run h inst in
          let refined = Gridb_sched.Refine.improve ~max_rounds:10 inst s in
          Result.is_ok (Schedule.validate inst refined)
          && Schedule.makespan inst refined <= Schedule.makespan inst s +. 1e-6)
        [ Policy.flat_tree; Policy.fef; Policy.ecef_lat_max ])

let refine_never_beats_optimal =
  QCheck.Test.make ~name:"local search stays above the optimum" ~count:(Testutil.count 30)
    QCheck.(pair (int_range 2 6) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let s = Gridb_sched.Refine.improve inst (Engine.run Policy.flat_tree inst) in
      Schedule.makespan inst s >= Exact.makespan inst -. 1e-6)

let test_refine_improves_flat_tree () =
  (* On the hand instance, the flat tree (makespan 32) must be improved to
     the optimal relay schedule (6). *)
  let inst = hand_instance () in
  let flat = Engine.run Policy.flat_tree inst in
  check_feq "flat is 32" 32. (Schedule.makespan inst flat);
  let refined = Gridb_sched.Refine.improve inst flat in
  check_feq "refined reaches the optimum" 6. (Schedule.makespan inst refined);
  Alcotest.(check bool) "ratio < 1" true
    (Gridb_sched.Refine.improvement_ratio inst flat < 0.25)

let anneal_never_worse =
  QCheck.Test.make ~name:"annealing never degrades a schedule" ~count:(Testutil.count 20)
    QCheck.(pair (int_range 2 8) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let s = Engine.run Policy.flat_tree inst in
      let refined = Gridb_sched.Refine.anneal ~seed ~steps:400 inst s in
      Result.is_ok (Schedule.validate inst refined)
      && Schedule.makespan inst refined <= Schedule.makespan inst s +. 1e-6)

let test_anneal_escapes_hand_instance () =
  let inst = hand_instance () in
  let flat = Engine.run Policy.flat_tree inst in
  let refined = Gridb_sched.Refine.anneal ~seed:3 ~steps:500 inst flat in
  check_feq "reaches the optimum" 6. (Schedule.makespan inst refined)

let test_anneal_deterministic_per_seed () =
  let inst = random_instance ~n:7 77 in
  let s = Engine.run Policy.fef inst in
  let a = Schedule.makespan inst (Gridb_sched.Refine.anneal ~seed:5 inst s) in
  let b = Schedule.makespan inst (Gridb_sched.Refine.anneal ~seed:5 inst s) in
  check_feq "same seed same result" a b

(* --- Genetic ------------------------------------------------------------- *)

module Genetic = Gridb_sched.Genetic

let test_random_schedule_valid =
  QCheck.Test.make ~name:"random schedules are valid" ~count:(Testutil.count 50)
    QCheck.(pair (int_range 1 15) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let rng = Rng.create seed in
      Result.is_ok (Schedule.validate inst (Genetic.random_schedule ~rng inst)))

let ga_never_worse_than_best_seed =
  QCheck.Test.make ~name:"GA result <= best seeded heuristic" ~count:(Testutil.count 15)
    QCheck.(pair (int_range 2 9) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let config = { Genetic.default_config with generations = 8; population = 10; seed } in
      let best_heuristic =
        List.fold_left
          (fun acc h -> Float.min acc (Engine.makespan h inst))
          infinity Policy.all
      in
      let s = Genetic.search ~config inst in
      Result.is_ok (Schedule.validate inst s)
      && Schedule.makespan inst s <= best_heuristic +. 1e-6)

let ga_respects_optimal =
  QCheck.Test.make ~name:"GA never beats the brute-force optimum" ~count:(Testutil.count 10)
    QCheck.(pair (int_range 2 5) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let config = { Genetic.default_config with generations = 15; population = 12; seed } in
      Schedule.makespan inst (Genetic.search ~config inst)
      >= Testutil.brute_force_makespan inst -. 1e-6)

let test_ga_improves_flat_seed () =
  (* Seeded only with the flat tree, the GA must find the relay schedule of
     the hand instance. *)
  let inst = hand_instance () in
  let flat = Engine.run Policy.flat_tree inst in
  let s =
    Genetic.search
      ~config:{ Genetic.default_config with generations = 20; population = 8; seed = 4 }
      ~seeds:[ flat ] inst
  in
  check_feq "finds the optimum" 6. (Schedule.makespan inst s)

let test_ga_rejects_bad_config () =
  let inst = random_instance ~n:4 1 in
  Alcotest.check_raises "population" (Invalid_argument "Genetic.search: population < 2")
    (fun () ->
      ignore (Genetic.search ~config:{ Genetic.default_config with population = 1 } inst));
  Alcotest.check_raises "mutation"
    (Invalid_argument "Genetic.search: mutation probability outside [0, 1]") (fun () ->
      ignore
        (Genetic.search
           ~config:{ Genetic.default_config with mutation_probability = 2. }
           inst))

(* --- Portfolio -------------------------------------------------------------- *)

let portfolio_dominates_members =
  QCheck.Test.make ~name:"portfolio achieves the member minimum" ~count:(Testutil.count 40)
    QCheck.(pair (int_range 2 12) (int_bound 10_000))
    (fun (n, seed) ->
      let inst = random_instance ~n seed in
      let choice = Gridb_sched.Portfolio.run inst in
      let member_min =
        List.fold_left
          (fun acc h -> Float.min acc (Engine.makespan h inst))
          infinity Policy.all
      in
      Float.abs (choice.Gridb_sched.Portfolio.makespan -. member_min) < 1e-9
      && Result.is_ok (Schedule.validate inst choice.Gridb_sched.Portfolio.schedule))

let test_portfolio_fields () =
  let inst = random_instance ~n:6 1 in
  let c = Gridb_sched.Portfolio.run inst in
  Alcotest.(check int) "evaluated all" 7 c.Gridb_sched.Portfolio.evaluated;
  Alcotest.(check bool) "winner named" true
    (Policy.by_name c.Gridb_sched.Portfolio.heuristic <> None);
  Alcotest.check_raises "empty list"
    (Invalid_argument "Portfolio.run: empty heuristic list") (fun () ->
      ignore (Gridb_sched.Portfolio.run ~heuristics:[] inst));
  Alcotest.(check bool) "evaluation cost positive" true
    (Gridb_sched.Portfolio.scheduling_evaluations 10 > 0.)

let test_portfolio_tie_break () =
  (* With two clusters every heuristic emits the single possible event, so
     all seven tie and the winner must be the first heuristic in list order. *)
  let inst = random_instance ~n:2 4 in
  let c = Gridb_sched.Portfolio.run inst in
  Alcotest.(check string) "first member wins ties"
    (Policy.name (List.hd Policy.all)) c.Gridb_sched.Portfolio.heuristic;
  check_feq "tie makespan" (Engine.makespan (List.hd Policy.all) inst)
    c.Gridb_sched.Portfolio.makespan

(* --- Gantt -------------------------------------------------------------- *)

let test_gantt_golden () =
  let inst =
    Instance.v ~root:0
      ~latency:[| [| 0.; 10.; 10. |]; [| 10.; 0.; 10. |]; [| 10.; 10.; 0. |] |]
      ~gap:[| [| 0.; 100.; 100. |]; [| 100.; 0.; 100. |]; [| 100.; 100.; 0. |] |]
      ~intra:[| 50.; 50.; 50. |]
  in
  let ev ~round ~src ~dst ~start =
    { Schedule.round; src; dst; start; sender_free = start +. 100.; arrival = start +. 110. }
  in
  let s =
    { Schedule.root = 0; n = 3;
      events = [ ev ~round:0 ~src:0 ~dst:1 ~start:0.; ev ~round:1 ~src:0 ~dst:2 ~start:100. ];
      ready = [| 0.; 110.; 210. |];
      busy_until = [| 200.; 110.; 210. |] }
  in
  let expected =
    String.concat "\n"
      [ "schedule gantt (root 0, makespan 260 us)";
        "c0   |>>>>>>>>>>>>>>>>>>>>>>>>>>>>>>########  |";
        "c1   |................########                |";
        "c2   |................................####### |";
        "      0                                  260 us";
        "      . waiting   > sending   # intra-cluster broadcast";
        "" ]
  in
  Alcotest.(check string) "exact render" expected
    (Gridb_sched.Gantt.render ~width:40 inst s)

let test_gantt_renders () =
  let inst = random_instance ~n:5 9 in
  let s = Engine.run Policy.ecef_la inst in
  let text = Gridb_sched.Gantt.render inst s in
  Alcotest.(check bool) "has rows for every cluster" true
    (List.length (String.split_on_char '\n' text) >= 5 + 3);
  Alcotest.(check bool) "mentions makespan" true (String.length text > 100);
  Alcotest.check_raises "narrow width" (Invalid_argument "Gantt.render: width < 10")
    (fun () -> ignore (Gridb_sched.Gantt.render ~width:5 inst s))

let test_gantt_flat_tree_structure () =
  let inst = hand_instance () in
  let s = Engine.run Policy.flat_tree inst in
  let text = Gridb_sched.Gantt.render ~width:32 inst s in
  (* the root row must contain sending glyphs, receivers waiting dots *)
  let lines = String.split_on_char '\n' text in
  let root_row = List.nth lines 1 in
  Alcotest.(check bool) "root sends" true (String.contains root_row '>');
  let c2_row = List.nth lines 3 in
  Alcotest.(check bool) "c2 waits" true (String.contains c2_row '.')

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sched"
    [
      ( "instance",
        [
          quick "validation" test_instance_validation;
          quick "defensive copies" test_instance_copies_inputs;
          QCheck_alcotest.to_alcotest test_instance_random_ranges;
          quick "of_grid components" test_instance_of_grid_matches_components;
          quick "of_machines flat view" test_instance_of_machines;
        ] );
      ( "state",
        [
          quick "initial" test_state_initial;
          quick "send semantics" test_state_send_semantics;
          quick "send rejects" test_state_send_rejects;
          quick "earliest arrival" test_state_earliest_arrival;
          quick "iterators" test_state_iterators_match_lists;
        ] );
      ( "schedule",
        [
          QCheck_alcotest.to_alcotest all_heuristics_valid;
          QCheck_alcotest.to_alcotest schedules_are_deterministic;
          QCheck_alcotest.to_alcotest makespan_lower_bound;
          QCheck_alcotest.to_alcotest flat_tree_has_depth_one;
          quick "depth and senders" test_schedule_depth_and_senders;
          quick "flat order dependence" test_flat_tree_order_dependence;
          quick "completion models" test_completion_models_differ;
          quick "validate catches corruption" test_validate_catches_corruption;
          quick "single cluster" test_single_cluster_schedule;
        ] );
      ( "heuristics",
        [
          quick "FEF min latency first" test_fef_picks_min_latency_first;
          quick "LA<none> = ECEF" test_ecef_la_reduces_to_ecef_with_none;
          quick "lookahead values" test_lookahead_values;
          quick "lookahead last member" test_lookahead_last_member_zero;
          QCheck_alcotest.to_alcotest test_lookahead_max_dominates_min;
          quick "LAT prefers slow receiver" test_ecef_lat_prefers_slow_cluster;
          quick "BottomUp targets slowest" test_bottom_up_targets_slowest;
          quick "by_name" test_by_name;
        ] );
      ( "optimal",
        [
          QCheck_alcotest.to_alcotest optimal_not_beaten;
          QCheck_alcotest.to_alcotest optimal_schedule_is_valid_and_matches;
          quick "rejects large" test_optimal_rejects_large;
          quick "hand instance optimum" test_optimal_two_clusters;
        ] );
      ("mixed", [ quick "dispatch" test_mixed_dispatch ]);
      ( "bounds",
        [
          QCheck_alcotest.to_alcotest bounds_below_every_heuristic;
          QCheck_alcotest.to_alcotest bounds_below_optimal;
          QCheck_alcotest.to_alcotest upper_bound_above_every_heuristic;
          quick "hand instance" test_bounds_hand_instance;
          quick "single cluster" test_bounds_single_cluster;
        ] );
      ( "refine",
        [
          quick "picks roundtrip" test_refine_picks_roundtrip;
          quick "replay rejects invalid" test_refine_replay_rejects_invalid;
          QCheck_alcotest.to_alcotest refine_never_worse;
          QCheck_alcotest.to_alcotest refine_never_beats_optimal;
          quick "improves flat tree" test_refine_improves_flat_tree;
          QCheck_alcotest.to_alcotest anneal_never_worse;
          quick "anneal escapes hand instance" test_anneal_escapes_hand_instance;
          quick "anneal deterministic" test_anneal_deterministic_per_seed;
        ] );
      ( "genetic",
        [
          QCheck_alcotest.to_alcotest test_random_schedule_valid;
          QCheck_alcotest.to_alcotest ga_never_worse_than_best_seed;
          QCheck_alcotest.to_alcotest ga_respects_optimal;
          quick "improves a flat seed" test_ga_improves_flat_seed;
          quick "rejects bad config" test_ga_rejects_bad_config;
        ] );
      ( "portfolio",
        [
          QCheck_alcotest.to_alcotest portfolio_dominates_members;
          quick "fields" test_portfolio_fields;
          quick "tie break" test_portfolio_tie_break;
        ] );
      ( "gantt",
        [
          quick "golden" test_gantt_golden;
          quick "renders" test_gantt_renders;
          quick "flat tree structure" test_gantt_flat_tree_structure;
        ] );
      ( "hit-rate",
        [
          quick "bookkeeping" test_hit_rate_bookkeeping;
          quick "identical heuristics tie" test_hit_rate_identical_heuristics_tie;
          quick "rejects" test_hit_rate_rejects;
        ] );
    ]
