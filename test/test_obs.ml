(* Tests for the gridb_obs observability bus: JSON round-trips, sink
   semantics, Null-sink bit-identity of instrumented producers, traces as a
   view of the stream, and the stream consumers. *)

module Event = Gridb_obs.Event
module Sink = Gridb_obs.Sink
module Span = Gridb_obs.Span
module Profile = Gridb_obs.Profile
module Rng = Gridb_util.Rng
module Topology = Gridb_topology
module Machines = Topology.Machines
module Instance = Gridb_sched.Instance
module Sched_engine = Gridb_sched.Engine
module Plan = Gridb_des.Plan
module Exec = Gridb_des.Exec
module Faults = Gridb_des.Faults
module Des_engine = Gridb_des.Engine

let event = Alcotest.testable Event.pp Event.equal

(* --- Event JSON ------------------------------------------------------- *)

let sample_events =
  [
    Event.Send
      { src = 1; dst = 2; time = 3.5; gap_end = 10.25; arrival = 151.0625; msg = 1_000_000;
        intra = false; try_no = 0 };
    Event.Send
      { src = 0; dst = 7; time = 0.125; gap_end = 0.5; arrival = 2.; msg = 64; intra = true;
        try_no = 3 };
    Event.Arrival { src = 1; dst = 2; time = 151.0625 };
    Event.Ack { src = 2; dst = 1; time = 160. };
    Event.Retransmit { src = 1; dst = 2; time = 400.; try_no = 1; rto = 512.5 };
    Event.Give_up { src = 1; dst = 2; time = 9999.75 };
    Event.Circuit_open { src = 1; dst = 2; time = 512.5 };
    Event.Circuit_close { src = 1; dst = 2; time = 2048.25 };
    Event.Reroute { dst = 2; old_parent = 1; new_parent = 5; time = 600.125 };
    Event.Timer_set { id = 4; time = 1.; fire_at = 100. };
    Event.Timer_fire { id = 4; time = 100. };
    Event.Timer_cancel { id = 5; time = 42. };
    Event.Msg_send { src = 0; dst = 3; tag = 7; size = 4096; time = 12. };
    Event.Msg_recv { src = 0; dst = 3; tag = 7; time = 29.5 };
    Event.Recv_timeout { rank = 3; time = 1000. };
    Event.Policy_round { round = 0; src = 0; dst = 4 };
    Event.Heap_op { op = Event.Rescore; receiver = 4; sender = 2 };
    Event.Heap_op { op = Event.Drop; receiver = 1; sender = 0 };
    Event.Cache_hit { key = "ECEF-LA/root=0/class=1048576" };
    Event.Cache_miss { key = "FlatTree/root=2/class=64" };
    Event.Strategy_selected { name = "ECEF-LAT"; predicted = 0.60098e6 };
    Event.Repair_splice { crashed = 1; replanned = 5 };
    Event.Shed { rid = 7; priority = "low"; reason = "backlog 1.25e6 us past watermark"; time = 512.5 };
    Event.Retry { rid = 3; attempt = 2; time = 4096.25 };
    Event.Deadline_miss { rid = 9; deadline = 2e5; finish = 300000.5 };
    Event.Counter { name = "pair_evaluations"; value = 37 };
    Event.Span_start { name = "schedule"; time = 17.0 };
    Event.Span_end { name = "schedule"; time = 43.0 };
  ]

let test_json_roundtrip_all_constructors () =
  List.iter
    (fun e ->
      match Event.of_json (Event.to_json e) with
      | Ok e' -> Alcotest.check event (Event.to_json e) e e'
      | Error msg -> Alcotest.failf "%s: %s" (Event.to_json e) msg)
    sample_events

let test_json_escaping () =
  let e = Event.Cache_hit { key = "a\"b\\c\nd\te\x01f" } in
  (match Event.of_json (Event.to_json e) with
  | Ok e' -> Alcotest.check event "escaped key round-trips" e e'
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool)
    "json is one line" false
    (String.contains (Event.to_json e) '\n')

let test_json_rejects_garbage () =
  let bad s =
    match Event.of_json s with
    | Ok e -> Alcotest.failf "accepted %S as %s" s (Event.to_json e)
    | Error _ -> ()
  in
  bad "";
  bad "not json";
  bad "{}";
  bad "{\"ev\":\"no_such_event\"}";
  bad "{\"ev\":\"ack\",\"src\":1}";
  (* A transmission is one "send" line; the older start/end lines are
     unknown events. *)
  List.iter
    (fun line ->
      match Event.of_json line with
      | Error msg ->
          Alcotest.(check bool) (msg ^ " names an unknown event") true
            (String.length msg >= 13 && String.sub msg 0 13 = "unknown event")
      | Ok e -> Alcotest.failf "accepted %S as %s" line (Event.to_json e))
    [
      "{\"ev\":\"send_start\",\"src\":1,\"dst\":2,\"t\":3.5,\"msg\":64,\"intra\":false,\"try\":0}";
      "{\"ev\":\"send_end\",\"src\":1,\"dst\":2,\"t\":10.25,\"arrival\":151.0625}";
    ]

let float_gen =
  QCheck.Gen.(
    oneof
      [
        float;
        map float_of_int int;
        oneofl [ 0.; -0.; 1e-300; 1.7976931348623157e308; 4.9e-324; 151.0625 ];
      ])

let test_json_float_bitexact =
  (* %.17g printing must reproduce every finite float bit for bit. *)
  QCheck.Test.make ~name:"json floats round-trip bit-exactly" ~count:(Testutil.count 1000)
    (QCheck.make float_gen) (fun t ->
      QCheck.assume (Float.is_finite t);
      match Event.of_json (Event.to_json (Event.Timer_fire { id = 0; time = t })) with
      | Ok (Event.Timer_fire { time; _ }) ->
          Int64.equal (Int64.bits_of_float time) (Int64.bits_of_float t)
      | _ -> false)

(* --- Sinks ------------------------------------------------------------ *)

let test_null_sink_disabled () =
  Alcotest.(check bool) "null disabled" false (Sink.enabled Sink.null);
  Alcotest.(check int) "null counts nothing" 0 (Sink.count Sink.null)

let test_memory_sink_order () =
  let mem = Sink.memory () in
  Alcotest.(check bool) "memory enabled" true (Sink.enabled mem);
  List.iter (Sink.emit mem) sample_events;
  Alcotest.(check (list event)) "chronological order" sample_events (Sink.events mem);
  Alcotest.(check int) "count" (List.length sample_events) (Sink.count mem)

let test_jsonl_sink_roundtrip () =
  let path = Filename.temp_file "gridb_obs" ".jsonl" in
  let n = Sink.with_jsonl path (fun js ->
      List.iter (Sink.emit js) sample_events;
      Sink.count js)
  in
  Alcotest.(check (result int string)) "count" (Ok (List.length sample_events)) n;
  (match Sink.read path with
  | Ok events -> Alcotest.(check (list event)) "file round-trip" sample_events events
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* Files that cannot be opened are errors, not exceptions. *)
let test_jsonl_unopenable () =
  let dir = Filename.get_temp_dir_name () in
  let missing = Filename.concat dir "gridb_obs_no_such_dir/t.jsonl" in
  let is_error = function Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "write into a missing directory" true
    (is_error (Sink.with_jsonl missing (fun _ -> Alcotest.fail "ran without a file")));
  Alcotest.(check bool) "read a missing file" true (is_error (Sink.read missing));
  Alcotest.(check bool) "read a directory" true (is_error (Sink.read dir))

(* --- Spans ------------------------------------------------------------ *)

let test_span_wrap_pairs () =
  let mem = Sink.memory () in
  let v = Span.wrap mem "phase" (fun () -> 42) in
  Alcotest.(check int) "wrap returns" 42 v;
  match Sink.events mem with
  | [ Event.Span_start { name = n1; time = t1 }; Event.Span_end { name = n2; time = t2 } ]
    ->
      Alcotest.(check string) "start name" "phase" n1;
      Alcotest.(check string) "end name" "phase" n2;
      Alcotest.(check bool) "monotonic" true (t2 >= t1)
  | evs -> Alcotest.failf "expected start/end pair, got %d events" (List.length evs)

(* --- Producers: bit-identity and streams ------------------------------ *)

let random_grid seed =
  let rng = Rng.create seed in
  Topology.Generators.uniform_random ~rng ~n:8 Topology.Generators.default_random_spec

let multilevel_grid seed =
  let rng = Rng.create seed in
  Topology.Generators.multilevel ~rng
    { Topology.Generators.default_multilevel_spec with sites = 3 }

(* Null-sink runs must be bit-identical to unobserved ones, and observing
   with a Memory sink must not change the simulation either — over both
   topology generators. *)
let test_exec_observation_is_transparent =
  QCheck.Test.make ~name:"observed runs are bit-identical" ~count:(Testutil.count 30)
    QCheck.(pair (int_bound 1000) bool)
    (fun (seed, use_multilevel) ->
      let grid = if use_multilevel then multilevel_grid seed else random_grid seed in
      let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
      let machines = Machines.expand grid in
      let exec obs =
        let schedule = Sched_engine.run ?obs Gridb_sched.Policy.ecef_la inst in
        let plan = Plan.of_cluster_schedule machines schedule in
        let rng = Rng.create seed in
        Exec.run ~noise:(Gridb_des.Noise.Lognormal 0.1) ~rng ?obs machines plan
      in
      let plain = exec None in
      let nulled = exec (Some Sink.null) in
      let observed = exec (Some (Sink.memory ())) in
      plain.Exec.arrival = nulled.Exec.arrival
      && plain.Exec.arrival = observed.Exec.arrival
      && plain.Exec.makespan = nulled.Exec.makespan
      && plain.Exec.makespan = observed.Exec.makespan
      && plain.Exec.transmissions = observed.Exec.transmissions)

let test_reliable_observation_is_transparent =
  QCheck.Test.make ~name:"observed reliable runs are bit-identical" ~count:(Testutil.count 20)
    QCheck.(int_bound 1000)
    (fun seed ->
      let grid = random_grid seed in
      let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
      let machines = Machines.expand grid in
      let plan =
        Plan.of_cluster_schedule machines (Sched_engine.run Gridb_sched.Policy.ecef_la inst)
      in
      let n = Machines.count machines in
      let spec = { Faults.none with Faults.loss = 0.1 } in
      let reliable obs =
        let faults = Faults.create ~seed ~n spec in
        let rng = Rng.create seed in
        Exec.run_reliable ~rng ~faults ~retries:3 ?obs machines plan
      in
      let plain = reliable None in
      let observed = reliable (Some (Sink.memory ())) in
      (* never-reached ranks hold nan: compare arrivals bit for bit *)
      let same_bits a b =
        Array.length a = Array.length b
        && Array.for_all2
             (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
             a b
      in
      same_bits plain.Exec.r_arrival observed.Exec.r_arrival
      && plain.Exec.r_makespan = observed.Exec.r_makespan
      && plain.Exec.retransmissions = observed.Exec.retransmissions
      && plain.Exec.gave_up = observed.Exec.gave_up)

(* Under loss, the reliable executor's stream carries every data
   transmission, retransmissions included. *)
let test_reliable_sink_sees_every_transmission () =
  let grid = random_grid 7 in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let machines = Machines.expand grid in
  let plan =
    Plan.of_cluster_schedule machines (Sched_engine.run Gridb_sched.Policy.ecef_la inst)
  in
  let n = Machines.count machines in
  let spec = { Faults.none with Faults.loss = 0.15 } in
  let mem = Sink.memory () in
  let r =
    Exec.run_reliable ~rng:(Rng.create 7)
      ~faults:(Faults.create ~seed:7 ~n spec)
      ~obs:mem machines plan
  in
  Alcotest.(check bool) "retransmissions happened" true (r.Exec.retransmissions > 0);
  Alcotest.(check int) "sink sees every transmission" r.Exec.r_transmissions
    (List.length (Gridb_des.Trace.of_events (Sink.events mem)))

(* JSONL round-trip of a full seeded faulty reliable run. *)
let test_jsonl_faulty_run_roundtrip () =
  let grid = Topology.Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let machines = Machines.expand grid in
  let plan =
    Plan.of_cluster_schedule machines (Sched_engine.run Gridb_sched.Policy.ecef_la inst)
  in
  let n = Machines.count machines in
  let spec = { Faults.none with Faults.loss = 0.1 } in
  let faulty_run obs =
    Exec.run_reliable ~rng:(Rng.create 11)
      ~faults:(Faults.create ~seed:11 ~n spec)
      ~obs machines plan
  in
  let mem = Sink.memory () in
  ignore (faulty_run mem);
  let path = Filename.temp_file "gridb_obs_run" ".jsonl" in
  Alcotest.(check (result unit string)) "trace written" (Ok ())
    (Sink.with_jsonl path (fun js -> ignore (faulty_run js)));
  (match Sink.read path with
  | Ok from_file ->
      Alcotest.(check (list event)) "file stream equals memory stream"
        (Sink.events mem) from_file
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* --- Sched engine events ---------------------------------------------- *)

let test_sched_counters_on_bus () =
  let grid = Topology.Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let mem = Sink.memory () in
  let s, stats = Sched_engine.run_stats ~obs:mem Gridb_sched.Policy.ecef_lat_max inst in
  let events = Sink.events mem in
  let counter name =
    List.find_map
      (function
        | Event.Counter { name = n; value } when n = name -> Some value | _ -> None)
      events
  in
  Alcotest.(check (option int)) "pair_evaluations"
    (Some stats.Sched_engine.pair_evaluations)
    (counter "pair_evaluations");
  Alcotest.(check (option int)) "lookahead_terms"
    (Some stats.Sched_engine.lookahead_terms)
    (counter "lookahead_terms");
  Alcotest.(check (option int)) "rescored"
    (Some stats.Sched_engine.rescored)
    (counter "rescored");
  let rounds =
    List.filter (function Event.Policy_round _ -> true | _ -> false) events
  in
  Alcotest.(check int) "one round per scheduled event"
    (List.length s.Gridb_sched.Schedule.events)
    (List.length rounds)

let test_sched_rounds_match_schedule_both_modes () =
  let grid = random_grid 3 in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let picks mode =
    let mem = Sink.memory () in
    ignore (Sched_engine.run ~mode ~obs:mem Gridb_sched.Policy.ecef_la inst);
    List.filter_map
      (function Event.Policy_round { src; dst; _ } -> Some (src, dst) | _ -> None)
      (Sink.events mem)
  in
  Alcotest.(check (list (pair int int)))
    "naive and incremental emit identical picks" (picks `Naive) (picks `Incremental)

(* --- DES engine timer events ------------------------------------------ *)

let test_engine_timer_events () =
  let mem = Sink.memory () in
  let engine = Des_engine.create ~obs:mem () in
  let fired = ref [] in
  let t1 = Des_engine.schedule_timer engine ~time:10. (fun _ -> fired := 1 :: !fired) in
  let t2 = Des_engine.schedule_timer engine ~time:20. (fun _ -> fired := 2 :: !fired) in
  ignore t1;
  Des_engine.cancel engine t2;
  Des_engine.run engine;
  Alcotest.(check (list int)) "only live timer fired" [ 1 ] !fired;
  let kinds =
    List.map
      (function
        | Event.Timer_set { id; _ } -> Printf.sprintf "set:%d" id
        | Event.Timer_cancel { id; _ } -> Printf.sprintf "cancel:%d" id
        | Event.Timer_fire { id; _ } -> Printf.sprintf "fire:%d" id
        | e -> Event.to_json e)
      (Sink.events mem)
  in
  Alcotest.(check (list string))
    "timer lifecycle on the bus"
    [ "set:0"; "set:1"; "cancel:1"; "fire:0" ]
    kinds

(* --- simMPI events ---------------------------------------------------- *)

let test_mpi_events () =
  let machines = Machines.expand (Topology.Grid5000.grid ()) in
  let mem = Sink.memory () in
  let program ~rank ~size:_ =
    if rank = 0 then Gridb_mpi.Runtime.Api.send ~tag:9 ~dst:1 ~msg_size:1024 ()
    else if rank = 1 then begin
      ignore (Gridb_mpi.Runtime.Api.recv ~src:0 ());
      (* nothing else arrives: this deadline must expire *)
      assert (Gridb_mpi.Runtime.Api.recv_timeout ~timeout:50. () = None)
    end
  in
  ignore (Gridb_mpi.Runtime.run_exn ~obs:mem machines program);
  let events = Sink.events mem in
  let has p = List.exists p events in
  Alcotest.(check bool) "msg_send" true
    (has (function Event.Msg_send { src = 0; dst = 1; tag = 9; size = 1024; _ } -> true | _ -> false));
  Alcotest.(check bool) "msg_recv" true
    (has (function Event.Msg_recv { src = 0; dst = 1; tag = 9; _ } -> true | _ -> false));
  Alcotest.(check bool) "recv_timeout" true
    (has (function Event.Recv_timeout { rank = 1; _ } -> true | _ -> false))

(* --- MagPIe events ---------------------------------------------------- *)

let test_magpie_cache_and_strategy_events () =
  let machines = Machines.expand (Topology.Grid5000.grid ()) in
  let mem = Sink.memory () in
  let tuning = Gridb_magpie.Tuning.create ~obs:mem machines in
  let strategy =
    Gridb_magpie.Bcast.Adaptive
      [ Gridb_sched.Policy.ecef_la; Gridb_sched.Policy.flat_tree ]
  in
  ignore (Gridb_magpie.Bcast.execute tuning strategy ~root:0 ~msg:1_000_000);
  ignore (Gridb_magpie.Bcast.execute tuning strategy ~root:0 ~msg:1_000_000);
  let events = Sink.events mem in
  let count p = List.length (List.filter p events) in
  Alcotest.(check bool) "some misses" true
    (count (function Event.Cache_miss _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "repeat broadcast hits" true
    (count (function Event.Cache_hit _ -> true | _ -> false) > 0);
  Alcotest.(check int) "one selection per adaptive execute" 2
    (count (function Event.Strategy_selected _ -> true | _ -> false));
  Alcotest.(check bool) "executor events flow to the same sink" true
    (count (function Event.Send _ -> true | _ -> false) > 0)

(* --- Robustness repair event ------------------------------------------ *)

let test_repair_splice_event () =
  let mem = Sink.memory () in
  let metrics =
    Gridb_experiments.Robustness.run ~seed:2 ~obs:mem
      ~spec:{ Faults.none with Faults.crash_rate = 5e-6 }
      (Topology.Grid5000.grid ())
  in
  let splices =
    List.filter_map
      (function Event.Repair_splice { replanned; _ } -> Some replanned | _ -> None)
      (Sink.events mem)
  in
  if metrics.Gridb_experiments.Robustness.repair_invoked then
    Alcotest.(check (list int)) "splice event mirrors metrics"
      [ metrics.Gridb_experiments.Robustness.repairs ]
      splices
  else Alcotest.(check (list int)) "no splice without repair" [] splices

(* --- Consumers -------------------------------------------------------- *)

let profiled_events () =
  let grid = Topology.Grid5000.grid () in
  let mem = Sink.memory () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let schedule =
    Span.wrap mem "schedule" (fun () ->
        Sched_engine.run ~obs:mem Gridb_sched.Policy.ecef_la inst)
  in
  let machines = Machines.expand grid in
  let r = Exec.run ~obs:mem machines (Plan.of_cluster_schedule machines schedule) in
  (Sink.events mem, r)

let test_profile_rollup () =
  let events, r = profiled_events () in
  let p = Profile.of_events events in
  Alcotest.(check int) "sends" r.Exec.transmissions p.Profile.sends;
  Alcotest.(check int) "no retransmits" 0 p.Profile.retransmits;
  Alcotest.(check (float 1e-6)) "makespan from stream" r.Exec.makespan p.Profile.makespan_us;
  Alcotest.(check bool) "schedule span measured" true (p.Profile.schedule_us >= 0.);
  Alcotest.(check bool) "transmit time accumulated" true (p.Profile.transmit_us > 0.);
  Alcotest.(check bool) "intra time accumulated" true (p.Profile.intra_us > 0.);
  Alcotest.(check bool) "counters surfaced" true
    (List.mem_assoc "pair_evaluations" p.Profile.counters);
  let rendered = Profile.render p in
  Alcotest.(check bool) "render mentions makespan" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       m = 0 || go 0
     in
     contains rendered "makespan")

let test_tagged_json_roundtrip () =
  List.iter
    (fun e ->
      let tagged = Event.tag ~sid:7 e in
      match Event.of_json (Event.to_json tagged) with
      | Ok e' -> Alcotest.check event (Event.to_json tagged) tagged e'
      | Error msg -> Alcotest.failf "%s: %s" (Event.to_json tagged) msg)
    sample_events;
  (* The wire form is the inner object plus one flat "sid" field. *)
  let inner = Event.Arrival { src = 1; dst = 2; time = 3. } in
  let json = Event.to_json (Event.tag ~sid:42 inner) in
  Alcotest.(check bool) "flat sid field" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains json "\"sid\":42");
  (* tag never nests: re-tagging replaces the sid. *)
  let retagged = Event.tag ~sid:9 (Event.tag ~sid:42 inner) in
  Alcotest.(check (option int)) "latest sid wins" (Some 9) (Event.sid retagged);
  Alcotest.check event "untag strips the wrapper" inner (Event.untag retagged)

let test_profile_sessions_rollup () =
  let send sid src dst t0 gap arrival =
    [
      Event.tag ~sid
        (Event.Send
           { src; dst; time = t0; gap_end = t0 +. gap; arrival; msg = 64; intra = false;
             try_no = 0 });
      Event.tag ~sid (Event.Arrival { src; dst; time = arrival });
    ]
  in
  let events =
    send 0 0 1 0. 100. 110. @ send 1 2 3 50. 40. 95. @ send 0 1 2 110. 100. 220.
  in
  let p = Profile.of_events events in
  (match p.Profile.sessions with
  | [ s0; s1 ] ->
      Alcotest.(check int) "first-seen order" 0 s0.Profile.sid;
      Alcotest.(check int) "session 0 sends" 2 s0.Profile.s_sends;
      Alcotest.(check (float 1e-9)) "session 0 busy" 200. s0.Profile.s_busy_us;
      Alcotest.(check (float 1e-9)) "session 0 makespan" 220. s0.Profile.s_makespan_us;
      Alcotest.(check int) "session 1 sid" 1 s1.Profile.sid;
      Alcotest.(check int) "session 1 sends" 1 s1.Profile.s_sends;
      Alcotest.(check (float 1e-9)) "session 1 makespan" 95. s1.Profile.s_makespan_us
  | other -> Alcotest.failf "expected 2 session rows, got %d" (List.length other));
  (* The global rollup still sees through the tags. *)
  Alcotest.(check int) "global sends" 3 p.Profile.sends;
  (* Untagged streams produce no session rows. *)
  let untagged = List.map Event.untag events in
  Alcotest.(check int) "untagged stream has no rows" 0
    (List.length (Profile.of_events untagged).Profile.sessions)

(* The rollup as it was first written, kept as the oracle of
   [Profile.of_events]: an option per [Event.sid], a record copy per
   session tally and boxed float accumulators. *)
module Reference_profile = struct
  open Profile

  let upd assoc k f =
    let rec go = function
      | [] -> [ (k, f None) ]
      | (k', v) :: rest when k' = k -> (k, f (Some v)) :: rest
      | kv :: rest -> kv :: go rest
    in
    go assoc

  let of_events events =
    let transmit = ref 0. and intra = ref 0. and retransmit = ref 0. in
    let makespan = ref 0. in
    let sends = ref 0 and retransmits = ref 0 and give_ups = ref 0 in
    let circuit_opens = ref 0 and reroutes = ref 0 in
    let sheds = ref 0 and requeues = ref 0 and deadline_misses = ref 0 in
    let open_spans : (string, float list) Hashtbl.t = Hashtbl.create 8 in
    let spans = ref [] and counters = ref [] in
    let total = ref 0 in
    let session_tbl : (int, session_row ref) Hashtbl.t = Hashtbl.create 8 in
    let session_order = ref [] in
    let session sid =
      match Hashtbl.find_opt session_tbl sid with
      | Some r -> r
      | None ->
          let r = ref { sid; s_sends = 0; s_busy_us = 0.; s_makespan_us = 0. } in
          Hashtbl.add session_tbl sid r;
          session_order := sid :: !session_order;
          r
    in
    List.iter
      (fun (e : Event.t) ->
        incr total;
        let sid = Event.sid e in
        let tally f = match sid with None -> () | Some s -> let r = session s in r := f !r in
        match Event.untag e with
        | Send { time; gap_end; arrival; intra = is_intra; try_no; _ } ->
            incr sends;
            if try_no > 0 then incr retransmits;
            makespan := Float.max !makespan arrival;
            let gap = gap_end -. time in
            tally (fun r -> { r with s_sends = r.s_sends + 1; s_busy_us = r.s_busy_us +. gap });
            if try_no > 0 then retransmit := !retransmit +. gap
            else if is_intra then intra := !intra +. gap
            else transmit := !transmit +. gap
        | Arrival { time; _ } ->
            makespan := Float.max !makespan time;
            tally (fun r -> { r with s_makespan_us = Float.max r.s_makespan_us time })
        | Give_up _ -> incr give_ups
        | Circuit_open _ -> incr circuit_opens
        | Reroute _ -> incr reroutes
        | Shed _ -> incr sheds
        | Retry _ -> incr requeues
        | Deadline_miss _ -> incr deadline_misses
        | Span_start { name; time } ->
            let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans name) in
            Hashtbl.replace open_spans name (time :: stack)
        | Span_end { name; time } -> (
            match Hashtbl.find_opt open_spans name with
            | Some (start :: rest) ->
                Hashtbl.replace open_spans name rest;
                spans :=
                  upd !spans name (function
                    | None -> time -. start
                    | Some acc -> acc +. (time -. start))
            | _ -> ())
        | Counter { name; value } -> counters := upd !counters name (fun _ -> value)
        | _ -> ())
      events;
    {
      schedule_us = (match List.assoc_opt "schedule" !spans with Some v -> v | None -> 0.);
      transmit_us = !transmit;
      intra_us = !intra;
      retransmit_us = !retransmit;
      makespan_us = !makespan;
      sends = !sends;
      retransmits = !retransmits;
      give_ups = !give_ups;
      circuit_opens = !circuit_opens;
      reroutes = !reroutes;
      sheds = !sheds;
      requeues = !requeues;
      deadline_misses = !deadline_misses;
      events = !total;
      spans = !spans;
      counters = !counters;
      sessions = List.rev_map (fun sid -> !(Hashtbl.find session_tbl sid)) !session_order;
    }
end

(* Random streams: rank ids that do not fit 31 bits or are negative,
   unordered send times, nested tags, spans and counters. *)
let gen_stream =
  let open QCheck.Gen in
  let rank = oneofl [ 0; 1; 2; 65_599; 1 lsl 31; (1 lsl 31) + 1; -1; -(1 lsl 40); max_int; min_int ] in
  let time = oneofl [ 0.; -0.; 1.; 2.5; 3.; 7.25; 100.; 1e9 ] in
  let name = oneofl [ "schedule"; "plan"; "replay" ] in
  let sid = oneofl [ 0; 1; 7; -3; 1 lsl 33 ] in
  let plain =
    frequency
      [
        ( 8,
          map3
            (fun (src, dst) (time, gap_end, arrival) (intra, try_no) ->
              Event.Send { src; dst; time; gap_end; arrival; msg = 64; intra; try_no })
            (pair rank rank) (triple time time time) (pair bool (int_bound 2)) );
        (2, map2 (fun (src, dst) time -> Event.Arrival { src; dst; time }) (pair rank rank) time);
        (1, map (fun time -> Event.Ack { src = 0; dst = 1; time }) time);
        (1, map (fun time -> Event.Give_up { src = 0; dst = 1; time }) time);
        (1, map (fun time -> Event.Circuit_open { src = 0; dst = 1; time }) time);
        (1, map (fun time -> Event.Reroute { dst = 1; old_parent = 0; new_parent = 2; time }) time);
        (1, map (fun time -> Event.Shed { rid = 3; priority = "low"; reason = "r"; time }) time);
        (1, map (fun time -> Event.Retry { rid = 3; attempt = 1; time }) time);
        ( 1,
          map (fun finish -> Event.Deadline_miss { rid = 3; deadline = 1.; finish }) time );
        (2, map2 (fun name time -> Event.Span_start { name; time }) name time);
        (2, map2 (fun name time -> Event.Span_end { name; time }) name time);
        (2, map2 (fun name value -> Event.Counter { name; value }) name small_signed_int);
        (1, map (fun time -> Event.Timer_fire { id = 1; time }) time);
      ]
  in
  let wrapped =
    (* Up to two tag layers, built directly so that nesting survives. *)
    map3
      (fun e layers sids ->
        List.fold_left (fun e sid -> Event.Tagged { sid; event = e }) e
          (List.filteri (fun i _ -> i < layers) sids))
      plain (int_bound 2) (list_repeat 2 sid)
  in
  list_size (int_bound 120) wrapped

let test_profile_matches_reference =
  QCheck.Test.make ~name:"profile matches the reference fold" ~count:(Testutil.count 500)
    (QCheck.make gen_stream)
    (fun events -> compare (Profile.of_events events) (Reference_profile.of_events events) = 0)

(* Once every session has been seen, folding more of the same traffic
   allocates nothing per event: a stream twice as long costs the
   same words, give or take the list walk's constant. *)
let test_profile_allocation_flat () =
  let stream reps =
    List.concat
      (List.init reps (fun i ->
           let sid = i mod 4 and src = i mod 3 and t = float_of_int i in
           [
             Event.tag ~sid
               (Event.Send
                  { src; dst = src + 1; time = t; gap_end = t +. 1.; arrival = t +. 2.; msg = 64;
                    intra = false; try_no = 0 });
             Event.tag ~sid (Event.Arrival { src; dst = src + 1; time = t +. 2. });
           ]))
  in
  let words events =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Profile.of_events events));
    Gc.minor_words () -. before
  in
  let short = stream 1_000 and long = stream 2_000 in
  ignore (words short);
  let per_event = (words long -. words short) /. float_of_int (List.length long - List.length short) in
  Alcotest.(check bool) (Printf.sprintf "%.3f words per extra event" per_event) true (per_event < 0.01)

let test_gantt_events_renders () =
  let events, _ = profiled_events () in
  let s = Gridb_sched.Gantt.render_events events in
  Alcotest.(check bool) "non-empty" true (String.length s > 100);
  Alcotest.(check bool) "has send glyph" true (String.contains s '>');
  Alcotest.(check bool) "has arrival glyph" true (String.contains s '*');
  Alcotest.(check string) "a tagged stream renders the same chart" s
    (Gridb_sched.Gantt.render_events (List.map (Event.tag ~sid:3) events));
  Alcotest.check_raises "narrow width"
    (Invalid_argument "Gantt.render_events: width < 10") (fun () ->
      ignore (Gridb_sched.Gantt.render_events ~width:3 events))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "event-json",
        [
          quick "all constructors round-trip" test_json_roundtrip_all_constructors;
          quick "string escaping" test_json_escaping;
          quick "rejects garbage" test_json_rejects_garbage;
          QCheck_alcotest.to_alcotest test_json_float_bitexact;
        ] );
      ( "sinks",
        [
          quick "null is disabled" test_null_sink_disabled;
          quick "memory preserves order" test_memory_sink_order;
          quick "jsonl file round-trip" test_jsonl_sink_roundtrip;
          quick "unopenable jsonl files are errors" test_jsonl_unopenable;
          quick "span wrap pairs" test_span_wrap_pairs;
        ] );
      ( "transparency",
        [
          QCheck_alcotest.to_alcotest test_exec_observation_is_transparent;
          QCheck_alcotest.to_alcotest test_reliable_observation_is_transparent;
        ] );
      ( "compat",
        [
          quick "reliable sink sees every transmission"
            test_reliable_sink_sees_every_transmission;
          quick "jsonl of faulty run round-trips" test_jsonl_faulty_run_roundtrip;
        ] );
      ( "producers",
        [
          quick "sched counters on bus" test_sched_counters_on_bus;
          quick "rounds match in both modes" test_sched_rounds_match_schedule_both_modes;
          quick "engine timer lifecycle" test_engine_timer_events;
          quick "simMPI message plane" test_mpi_events;
          quick "magpie cache and strategy" test_magpie_cache_and_strategy_events;
          quick "repair splice" test_repair_splice_event;
        ] );
      ( "consumers",
        [
          quick "profile rollup" test_profile_rollup;
          quick "tagged events round-trip" test_tagged_json_roundtrip;
          quick "profile per-session rollup" test_profile_sessions_rollup;
          QCheck_alcotest.to_alcotest test_profile_matches_reference;
          quick "profile allocation flat in stream length" test_profile_allocation_flat;
          quick "gantt from events" test_gantt_events_renders;
        ] );
    ]
