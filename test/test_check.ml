(* Conformance harness tests: every invariant in Gridb_check exercised with
   at least one positive and one negative case, the scenario codec
   round-tripped, and the fuzzer demonstrated end to end on a deliberately
   planted violation (caught, shrunk to the minimal scenario, reproducer
   confirmed by replay). *)

module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Engine = Gridb_sched.Engine
module Policy = Gridb_sched.Policy
module Machines = Gridb_topology.Machines
module Event = Gridb_obs.Event
module Sink = Gridb_obs.Sink
module Rng = Gridb_util.Rng
module I = Gridb_check.Invariant
module M = Gridb_check.Metamorphic
module Scenario = Gridb_check.Scenario
module Fuzz = Gridb_check.Fuzz
module Run = Gridb_check.Run
module Report = Gridb_check.Report

let ok name = function
  | Ok () -> ()
  | Error v -> Alcotest.failf "%s: unexpected violation %a" name I.pp_violation v

let violates name invariant = function
  | Ok () -> Alcotest.failf "%s: expected a %S violation, got Ok" name invariant
  | Error v ->
      Alcotest.(check string) (name ^ ": invariant name") invariant v.I.invariant

(* --- a tiny hand-built instance and schedule we can corrupt surgically --- *)

(* 3 clusters, all links L = 10, g = 100, T = 0; valid chain schedule
   0 -> 1 at 0, then 0 -> 2 at 100 (the root's NIC frees at 100). *)
let tiny_inst =
  Instance.v ~root:0
    ~latency:[| [| 0.; 10.; 10. |]; [| 10.; 0.; 10. |]; [| 10.; 10.; 0. |] |]
    ~gap:[| [| 0.; 100.; 100. |]; [| 100.; 0.; 100. |]; [| 100.; 100.; 0. |] |]
    ~intra:[| 0.; 0.; 0. |]

let ev ~round ~src ~dst ~start =
  { Schedule.round; src; dst; start; sender_free = start +. 100.; arrival = start +. 110. }

let tiny_sched =
  {
    Schedule.root = 0;
    n = 3;
    events = [ ev ~round:0 ~src:0 ~dst:1 ~start:0.; ev ~round:1 ~src:0 ~dst:2 ~start:100. ];
    ready = [| 0.; 110.; 210. |];
    busy_until = [| 200.; 110.; 210. |];
  }

let schedule_positive () =
  ok "tiny" (I.check_schedule tiny_inst tiny_sched);
  (* Every engine-built schedule on a random instance passes everything. *)
  List.iter
    (fun (seed, inst) ->
      List.iter
        (fun p ->
          ok (Printf.sprintf "%s on seed %d" (Policy.name p) seed)
            (I.check_schedule inst (Engine.run p inst)))
        Policy.all)
    (Testutil.corpus ~n_range:(2, 9) ~seed:31 ~count:5 ())

let receive_once_negative () =
  (* Cluster 1 served twice, cluster 2 never. *)
  let s =
    { tiny_sched with
      Schedule.events =
        [ ev ~round:0 ~src:0 ~dst:1 ~start:0.; ev ~round:1 ~src:0 ~dst:1 ~start:100. ] }
  in
  violates "double receive" "receive-once" (I.receive_once tiny_inst s);
  violates "out of range" "receive-once"
    (I.receive_once tiny_inst
       { tiny_sched with Schedule.events = [ ev ~round:0 ~src:0 ~dst:7 ~start:0. ] })

let causality_negative () =
  (* Relay 1 -> 2 fires at 50, before 1's own arrival at 110. *)
  let s =
    { tiny_sched with
      Schedule.events =
        [ ev ~round:0 ~src:0 ~dst:1 ~start:0.; ev ~round:1 ~src:1 ~dst:2 ~start:50. ] }
  in
  violates "send before arrival" "causality" (I.causality tiny_inst s);
  violates "sender never receives" "causality"
    (I.causality tiny_inst
       { tiny_sched with Schedule.events = [ ev ~round:0 ~src:2 ~dst:1 ~start:0. ] })

let nic_serialization_negative () =
  (* Root starts a second send at 50 while its NIC is busy until 100. *)
  let s =
    { tiny_sched with
      Schedule.events =
        [ ev ~round:0 ~src:0 ~dst:1 ~start:0.; ev ~round:1 ~src:0 ~dst:2 ~start:50. ] }
  in
  violates "overlapping gaps" "nic-serialization" (I.nic_serialization tiny_inst s);
  (* Recorded sender_free contradicts start + gap. *)
  let e = ev ~round:0 ~src:0 ~dst:1 ~start:0. in
  let s =
    { tiny_sched with Schedule.events = [ { e with Schedule.sender_free = 42. } ] }
  in
  violates "sender_free mismatch" "nic-serialization" (I.nic_serialization tiny_inst s)

let ab_discipline_negative () =
  violates "sender still in B" "ab-discipline"
    (I.ab_discipline tiny_inst
       { tiny_sched with Schedule.events = [ ev ~round:0 ~src:1 ~dst:2 ~start:0. ] });
  violates "round numbering" "ab-discipline"
    (I.ab_discipline tiny_inst
       { tiny_sched with Schedule.events = [ ev ~round:3 ~src:0 ~dst:1 ~start:0. ] });
  violates "B not empty" "ab-discipline"
    (I.ab_discipline tiny_inst
       { tiny_sched with Schedule.events = [ ev ~round:0 ~src:0 ~dst:1 ~start:0. ] })

let makespan_recomputation_negative () =
  (* Tamper the second event's arrival: recomputation from the matrices
     disagrees with the recorded field. *)
  let s =
    { tiny_sched with
      Schedule.events =
        [ ev ~round:0 ~src:0 ~dst:1 ~start:0.;
          { (ev ~round:1 ~src:0 ~dst:2 ~start:100.) with Schedule.arrival = 999. } ] }
  in
  violates "tampered arrival" "makespan-recomputation"
    (I.makespan_recomputation tiny_inst s);
  violates "tampered ready" "makespan-recomputation"
    (I.makespan_recomputation tiny_inst
       { tiny_sched with Schedule.ready = [| 0.; 110.; 205. |] })

let replay_helpers () =
  (match I.replay tiny_inst [ (0, 1); (0, 2) ] with
  | Error e -> Alcotest.failf "replay: %s" e
  | Ok (ready, busy) ->
      Alcotest.(check (array (float 1e-9))) "ready" [| 0.; 110.; 210. |] ready;
      Alcotest.(check (array (float 1e-9))) "busy" [| 200.; 0.; 0. |] busy);
  Alcotest.(check (float 1e-9))
    "replay makespan" 210.
    (match I.replay_makespan tiny_inst [ (0, 1); (0, 2) ] with
    | Ok m -> m
    | Error e -> Alcotest.failf "replay_makespan: %s" e);
  (match I.replay tiny_inst [ (1, 2) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay accepted a sender without the message");
  match I.replay tiny_inst [ (0, 1); (0, 1) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay accepted a double receive"

let cross_check_cases () =
  ok "equal" (I.cross_check ~invariant:"x" ~expected:1.0 ~got:(1.0 +. 1e-12));
  violates "unequal" "x" (I.cross_check ~invariant:"x" ~expected:1.0 ~got:2.0)

(* --- stream invariants -------------------------------------------------- *)

let send ~src ~dst ~time ~gap_end ~arrival =
  Event.Send { src; dst; time; gap_end; arrival; msg = 1000; intra = false; try_no = 0 }

let arr ~src ~dst ~time = Event.Arrival { src; dst; time }

(* A well-formed miniature stream: root 0 self-delivers, sends to 1. *)
let good_stream =
  [
    arr ~src:0 ~dst:0 ~time:0.;
    send ~src:0 ~dst:1 ~time:0. ~gap_end:100. ~arrival:110.;
    arr ~src:0 ~dst:1 ~time:110.;
  ]

let stream_synthetic () =
  ok "exactly once" (I.stream_receive_exactly_once ~n:2 good_stream);
  ok "at most once" (I.stream_receive_at_most_once ~n:2 good_stream);
  ok "causality" (I.stream_causality ~n:2 good_stream);
  ok "nic" (I.stream_nic_serialization ~n:2 good_stream);
  ok "no spontaneous" (I.stream_no_spontaneous_delivery ~root:0 good_stream);
  ok "check_stream" (I.check_stream ~n:2 ~root:0 good_stream);
  (* partial delivery passes at-most-once but not exactly-once *)
  let partial = [ arr ~src:0 ~dst:0 ~time:0. ] in
  ok "partial at most once" (I.stream_receive_at_most_once ~n:3 partial);
  violates "partial exactly once" "stream-receive-once"
    (I.stream_receive_exactly_once ~n:3 partial);
  violates "double delivery" "stream-receive-at-most-once"
    (I.stream_receive_at_most_once ~n:3
       [ arr ~src:0 ~dst:1 ~time:1.; arr ~src:2 ~dst:1 ~time:2. ]);
  violates "send without message" "stream-causality"
    (I.stream_causality ~n:3
       [ arr ~src:0 ~dst:0 ~time:0.; send ~src:1 ~dst:2 ~time:5. ~gap_end:6. ~arrival:7. ]);
  violates "send before own arrival" "stream-causality"
    (I.stream_causality ~n:3
       [
         arr ~src:0 ~dst:0 ~time:0.;
         arr ~src:0 ~dst:1 ~time:10.;
         send ~src:1 ~dst:2 ~time:5. ~gap_end:6. ~arrival:7.;
       ]);
  violates "overlapping injections" "stream-nic-serialization"
    (I.stream_nic_serialization ~n:3
       [
         send ~src:0 ~dst:1 ~time:0. ~gap_end:100. ~arrival:110.;
         send ~src:0 ~dst:2 ~time:50. ~gap_end:150. ~arrival:160.;
       ]);
  violates "unexplained arrival" "stream-no-spontaneous-delivery"
    (I.stream_no_spontaneous_delivery ~root:0 [ arr ~src:0 ~dst:1 ~time:42. ])

(* Stream invariants against a real executed run, gap conformance included;
   the negative case tampers one Send of the genuine stream. *)
let stream_real_run () =
  let grid = Testutil.random_grid ~cluster_size:(1, 4) ~n:4 5 in
  let machines = Machines.expand grid in
  let msg = 65_536 in
  let inst = Instance.of_grid ~root:0 ~msg grid in
  let s = Engine.run Policy.ecef inst in
  let plan = Gridb_des.Plan.of_cluster_schedule machines s in
  let sink = Sink.memory () in
  let _ = Gridb_des.Exec.run ~msg ~obs:sink machines plan in
  let events = Sink.events sink in
  let n = Machines.count machines in
  ok "real stream" (I.check_stream ~n ~root:plan.Gridb_des.Plan.root events);
  ok "real gap conformance" (I.stream_gap_conformance ~machines ~msg events);
  let tampered = ref false in
  let events' =
    List.map
      (function
        | Event.Send s when not !tampered ->
            tampered := true;
            Event.Send { s with gap_end = s.gap_end +. 1. }
        | e -> e)
      events
  in
  Alcotest.(check bool) "found a Send to tamper" true !tampered;
  violates "tampered gap" "stream-gap-conformance"
    (I.stream_gap_conformance ~machines ~msg events')

(* --- metamorphic laws --------------------------------------------------- *)

let metamorphic_positive () =
  let inst = Testutil.random_instance ~n:7 12 in
  let perm = Rng.permutation (Rng.create 99) 7 in
  List.iter
    (fun p ->
      ok (Policy.name p ^ " scaling") (M.scaling p inst);
      ok (Policy.name p ^ " scaling x0.5") (M.scaling ~c:0.5 p inst);
      ok (Policy.name p ^ " relabeling") (M.relabeling ~perm p inst))
    Policy.all;
  let grid = Testutil.random_grid ~cluster_size:(1, 4) ~n:5 21 in
  let small = Instance.of_grid ~root:0 ~msg:100_000 grid in
  let large = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  ok "size monotonicity" (M.replay_size_monotonicity Policy.ecef ~small ~large);
  let machines = Machines.expand grid in
  let plan =
    Gridb_des.Plan.of_cluster_schedule machines (Engine.run Policy.ecef small)
  in
  ok "transport equivalence" (M.transport_equivalence ~msg:100_000 machines plan)

let metamorphic_negative () =
  (* Swapping small and large breaks the dominance precondition. *)
  let grid = Testutil.random_grid ~cluster_size:(1, 4) ~n:5 21 in
  let small = Instance.of_grid ~root:0 ~msg:100_000 grid in
  let large = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  violates "swapped dominance" "size-dominance"
    (M.replay_size_monotonicity Policy.ecef ~small:large ~large:small);
  (* scale_instance really scales. *)
  let inst = Testutil.random_instance ~n:4 3 in
  let scaled = M.scale_instance 2. inst in
  Alcotest.(check (float 1e-9))
    "scaled gap" (2. *. inst.Instance.gap.(0).(1)) scaled.Instance.gap.(0).(1)

(* --- scenario codec ----------------------------------------------------- *)

let scenario_round_trip =
  QCheck.Test.make ~name:"scenario JSON round-trips (parse o print = id)"
    ~count:(Testutil.count 300)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let sc = Scenario.generate (Rng.create seed) in
      Scenario.of_json (Scenario.to_json sc) = Ok sc
      (* unknown extra fields are tolerated and ignored *)
      && Scenario.of_json
           (Scenario.to_json ~extra:[ ("violation", "x\"y\\z"); ("detail", "d") ] sc)
         = Ok sc)

let scenario_codec_errors () =
  let sc = Scenario.generate (Rng.create 4) in
  let line = Scenario.to_json ~extra:[ ("violation", "causality") ] sc in
  Alcotest.(check (option string))
    "string_field" (Some "causality")
    (Scenario.string_field ~key:"violation" line);
  (match Scenario.of_json "{\"format\":\"bogus/9\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a wrong format tag");
  (match Scenario.of_json "{not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match Scenario.of_json (Scenario.to_json { sc with Scenario.root = sc.Scenario.n + 3 }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an out-of-range root"

let minimal_scenario =
  {
    Scenario.seed = 0;
    n = 2;
    msg = 10_000;
    root = 0;
    policy = "FlatTree";
    transport = "fixed";
    faults = "none";
    dynamics = "none";
  }

let scenario_shrink_candidates () =
  let sc = Scenario.generate (Rng.create 8) in
  List.iter
    (fun c ->
      Alcotest.(check bool) "candidate differs" false (Scenario.equal c sc);
      Alcotest.(check bool) "candidate keeps n >= 2" true (c.Scenario.n >= 2))
    (Scenario.shrink_candidates sc);
  Alcotest.(check int)
    "minimal scenario has no candidates" 0
    (List.length (Scenario.shrink_candidates minimal_scenario))

(* --- pipeline property and fuzzer --------------------------------------- *)

let run_check_cases () =
  ok "benign scenario" (Run.check minimal_scenario);
  ok "faulty scenario"
    (Run.check { minimal_scenario with Scenario.faults = "loss=0.2"; transport = "adaptive" });
  violates "unknown policy" "scenario"
    (Run.check { minimal_scenario with Scenario.policy = "NoSuchPolicy" });
  violates "unknown transport" "scenario"
    (Run.check { minimal_scenario with Scenario.transport = "carrier-pigeon" });
  violates "bad fault spec" "scenario"
    (Run.check { minimal_scenario with Scenario.faults = "loss=2.5" })

(* The planted bug: a "pipeline" that drops the last transmission of every
   schedule it builds, so some cluster never receives the message. *)
let planted_property (sc : Scenario.t) =
  match Scenario.policy sc with
  | Error detail -> Error { I.invariant = "scenario"; detail }
  | Ok policy ->
      let inst = Instance.of_grid ~root:sc.Scenario.root ~msg:sc.Scenario.msg (Scenario.grid sc) in
      let s = Engine.run policy inst in
      let last = List.length s.Schedule.events - 1 in
      let mutated =
        { s with Schedule.events = List.filteri (fun i _ -> i < last) s.Schedule.events }
      in
      I.check_schedule inst mutated

let fuzz_catches_planted_violation () =
  match Fuzz.run ~property:planted_property ~seed:7 ~count:50 () with
  | Ok _ -> Alcotest.fail "fuzzer missed the planted violation"
  | Error f ->
      Alcotest.(check string)
        "caught as receive-once" "receive-once" f.Fuzz.violation.I.invariant;
      Alcotest.(check bool) "found immediately" true (f.Fuzz.tested = 0);
      Alcotest.(check bool) "shrinking adopted steps" true (f.Fuzz.shrink_steps >= 1);
      (* The planted bug fires on every scenario, so greedy shrinking must
         reach the global minimum. *)
      Alcotest.(check bool)
        "shrunk to the minimal scenario" true
        (Scenario.equal f.Fuzz.scenario minimal_scenario);
      (* Reproducer round trip: confirmed under the buggy pipeline, fixed
         under the real one. *)
      let path = Filename.temp_file "gridsched-counterexample" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Fuzz.write_reproducer path f;
          (match Fuzz.replay ~property:planted_property path with
          | Ok (Fuzz.Confirmed v) ->
              Alcotest.(check string) "replay confirms" "receive-once" v.I.invariant
          | other ->
              Alcotest.failf "replay did not confirm: %s"
                (match other with
                | Ok o -> Report.render_replay path o
                | Error e -> e));
          match Fuzz.replay path with
          | Ok Fuzz.Fixed -> ()
          | Ok o -> Alcotest.failf "real pipeline should pass: %s" (Report.render_replay path o)
          | Error e -> Alcotest.failf "replay failed: %s" e)

let fuzz_shrink_is_local_minimum () =
  match Fuzz.run ~property:planted_property ~seed:3 ~count:1 () with
  | Ok _ -> Alcotest.fail "fuzzer missed the planted violation"
  | Error f ->
      List.iter
        (fun c ->
          match planted_property c with
          | Ok () -> ()
          | Error _ ->
              Alcotest.failf "shrink result is not minimal: candidate %s still fails"
                (Scenario.to_json c))
        (Scenario.shrink_candidates f.Fuzz.scenario)

let fuzz_real_pipeline_smoke () =
  match Fuzz.run ~seed:11 ~count:(Testutil.count 30) () with
  | Ok n -> Alcotest.(check bool) "ran all scenarios" true (n >= 30)
  | Error f ->
      Alcotest.failf "real pipeline failed: %s" (Report.render_failure f)

(* --jobs must be an implementation detail: the parallel battery generates
   the identical scenario sequence and reports the sequential scan's first
   failure, so both the passing and the failing outcome are equal across
   worker counts — including the reproducer the user would be handed. *)
let fuzz_jobs_invariant_pass () =
  match (Fuzz.run ~seed:11 ~count:30 (), Fuzz.run ~jobs:4 ~seed:11 ~count:30 ()) with
  | Ok a, Ok b -> Alcotest.(check int) "same count" a b
  | _ -> Alcotest.fail "battery should pass under both jobs settings"

let fuzz_jobs_invariant_fail () =
  match
    ( Fuzz.run ~property:planted_property ~seed:7 ~count:50 (),
      Fuzz.run ~property:planted_property ~jobs:4 ~seed:7 ~count:50 () )
  with
  | Error a, Error b ->
      Alcotest.(check int) "same tested" a.Fuzz.tested b.Fuzz.tested;
      Alcotest.(check string)
        "same invariant" a.Fuzz.violation.I.invariant b.Fuzz.violation.I.invariant;
      Alcotest.(check string)
        "same violation detail" a.Fuzz.violation.I.detail b.Fuzz.violation.I.detail;
      Alcotest.(check bool)
        "same shrunk scenario" true
        (Scenario.equal a.Fuzz.scenario b.Fuzz.scenario);
      Alcotest.(check int) "same shrink steps" a.Fuzz.shrink_steps b.Fuzz.shrink_steps
  | _ -> Alcotest.fail "planted violation should surface under both jobs settings"

let report_catalogue () =
  let cat = Report.catalogue () in
  let contains needle =
    let nl = String.length needle and cl = String.length cat in
    let rec at i = i + nl <= cl && (String.sub cat i nl = needle || at (i + 1)) in
    Alcotest.(check bool) ("catalogue lists " ^ needle) true (at 0)
  in
  List.iter contains
    (I.schedule_invariant_names @ I.stream_invariant_names @ M.metamorphic_names
   @ Run.run_invariant_names)

let () =
  Alcotest.run "check"
    [
      ( "schedule invariants",
        [
          Alcotest.test_case "all pass on valid schedules" `Quick schedule_positive;
          Alcotest.test_case "receive-once violations" `Quick receive_once_negative;
          Alcotest.test_case "causality violations" `Quick causality_negative;
          Alcotest.test_case "nic-serialization violations" `Quick nic_serialization_negative;
          Alcotest.test_case "ab-discipline violations" `Quick ab_discipline_negative;
          Alcotest.test_case "makespan-recomputation violations" `Quick
            makespan_recomputation_negative;
          Alcotest.test_case "replay helpers" `Quick replay_helpers;
          Alcotest.test_case "cross_check" `Quick cross_check_cases;
        ] );
      ( "stream invariants",
        [
          Alcotest.test_case "synthetic streams" `Quick stream_synthetic;
          Alcotest.test_case "real run, tampered and not" `Quick stream_real_run;
        ] );
      ( "metamorphic",
        [
          Alcotest.test_case "laws hold on the pipeline" `Quick metamorphic_positive;
          Alcotest.test_case "dominance violations detected" `Quick metamorphic_negative;
        ] );
      ( "scenario",
        [
          QCheck_alcotest.to_alcotest scenario_round_trip;
          Alcotest.test_case "codec errors and string_field" `Quick scenario_codec_errors;
          Alcotest.test_case "shrink candidates" `Quick scenario_shrink_candidates;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "Run.check over scenarios" `Quick run_check_cases;
          Alcotest.test_case "planted violation: caught, shrunk, replayed" `Quick
            fuzz_catches_planted_violation;
          Alcotest.test_case "shrink reaches a local minimum" `Quick
            fuzz_shrink_is_local_minimum;
          Alcotest.test_case "real pipeline fuzz smoke" `Quick fuzz_real_pipeline_smoke;
          Alcotest.test_case "jobs-invariant on passing battery" `Quick
            fuzz_jobs_invariant_pass;
          Alcotest.test_case "jobs-invariant on planted failure" `Quick
            fuzz_jobs_invariant_fail;
          Alcotest.test_case "report catalogue" `Quick report_catalogue;
        ] );
    ]
