(* Tests for gridb_mpi: the effects-based simMPI runtime and the collectives
   written on it.  Key cross-validation: simMPI timings equal the DES plan
   executor and the closed-form pLogP models when noise is off. *)

module Runtime = Gridb_mpi.Runtime
module Collectives = Gridb_mpi.Collectives
module Machines = Gridb_topology.Machines
module Generators = Gridb_topology.Generators
module Grid5000 = Gridb_topology.Grid5000
module Params = Gridb_plogp.Params
module Cost = Gridb_collectives.Cost
module Tree = Gridb_collectives.Tree
module Plan = Gridb_des.Plan
module Exec = Gridb_des.Exec

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

let homog_params = Params.linear ~latency:50. ~g0:20. ~bandwidth_mb_s:100.

let homogeneous n =
  Machines.expand
    (Generators.homogeneous ~n:1 ~cluster_size:n ~inter:homog_params ~intra:homog_params)

(* --- Runtime basics --------------------------------------------------------- *)

let test_two_rank_send_recv () =
  let m = homogeneous 2 in
  let got = ref None in
  let r =
    Runtime.run_exn m (fun ~rank ~size:_ ->
        if rank = 0 then Runtime.Api.send ~dst:1 ~msg_size:1000 ~payload:2.5 ()
        else begin
          let msg = Runtime.Api.recv ~src:0 () in
          got := Some msg
        end)
  in
  match !got with
  | None -> Alcotest.fail "message not delivered"
  | Some msg ->
      Alcotest.(check int) "src" 0 msg.Runtime.src;
      Alcotest.(check int) "size" 1000 msg.Runtime.msg_size;
      check_feq "payload" 2.5 msg.Runtime.payload;
      check_feq "delivery = g + L" (Params.send_time homog_params 1000)
        msg.Runtime.delivered_at;
      check_feq "receiver finish = delivery" msg.Runtime.delivered_at
        r.Runtime.finish.(1);
      (* sender returns after the gap, before the latency *)
      check_feq "sender finish = gap" (Params.gap homog_params 1000) r.Runtime.finish.(0)

let test_send_serialises_on_nic () =
  let m = homogeneous 3 in
  let r =
    Runtime.run_exn m (fun ~rank ~size:_ ->
        if rank = 0 then begin
          Runtime.Api.send ~dst:1 ~msg_size:1000 ();
          Runtime.Api.send ~dst:2 ~msg_size:1000 ()
        end
        else ignore (Runtime.Api.recv ~src:0 ()))
  in
  let g = Params.gap homog_params 1000 and l = Params.latency homog_params in
  check_feq "first delivery" (g +. l) r.Runtime.finish.(1);
  check_feq "second delivery waits for the gap" ((2. *. g) +. l) r.Runtime.finish.(2)

let test_recv_filters () =
  let m = homogeneous 3 in
  let order = ref [] in
  ignore
    (Runtime.run_exn m (fun ~rank ~size:_ ->
         match rank with
         | 0 -> Runtime.Api.send ~dst:2 ~tag:7 ~msg_size:10 ()
         | 1 -> Runtime.Api.send ~dst:2 ~tag:9 ~msg_size:10_000_000 ()
         | _ ->
             (* tag 9 arrives much later; ask for it first *)
             let m9 = Runtime.Api.recv ~tag:9 () in
             let m7 = Runtime.Api.recv ~tag:7 () in
             order := [ m9.Runtime.tag; m7.Runtime.tag ]))
  |> ignore;
  Alcotest.(check (list int)) "filter respected" [ 9; 7 ] !order

let test_deadlock_detection () =
  let m = homogeneous 2 in
  let r = Runtime.run m (fun ~rank ~size:_ -> if rank = 0 then ignore (Runtime.Api.recv ())) in
  Alcotest.(check (list int)) "rank 0 deadlocked" [ 0 ] r.Runtime.deadlocked;
  Alcotest.check_raises "run_exn raises"
    (Failure "simMPI: deadlock, ranks [0] blocked in recv") (fun () ->
      ignore (Runtime.run_exn m (fun ~rank ~size:_ -> if rank = 0 then ignore (Runtime.Api.recv ()))))

let test_compute_advances_time () =
  let m = homogeneous 2 in
  let r = Runtime.run_exn m (fun ~rank ~size:_ -> if rank = 0 then Runtime.Api.compute 777.) in
  check_feq "finish after compute" 777. r.Runtime.finish.(0);
  check_feq "other rank immediate" 0. r.Runtime.finish.(1)

let test_send_to_self_rejected () =
  let m = homogeneous 2 in
  Alcotest.check_raises "self send" (Invalid_argument "simMPI: send to self") (fun () ->
      ignore
        (Runtime.run_exn m (fun ~rank ~size:_ ->
             if rank = 0 then Runtime.Api.send ~dst:0 ~msg_size:1 ())))

let test_api_outside_run_raises () =
  Alcotest.(check bool) "unhandled effect" true
    (try
       ignore (Runtime.Api.time ());
       false
     with Effect.Unhandled _ -> true)

(* --- Collectives: timing equals the closed forms ---------------------------- *)

let test_bcast_matches_cost_model () =
  List.iter
    (fun n ->
      let m = homogeneous n in
      let r =
        Runtime.run_exn m (fun ~rank ~size ->
            Collectives.bcast ~rank ~size ~root:0 ~msg:50_000 ())
      in
      check_feq
        (Printf.sprintf "binomial n=%d" n)
        (Cost.broadcast_time ~params:homog_params ~size:n ~msg:50_000 ())
        r.Runtime.makespan)
    [ 1; 2; 3; 8; 17; 64 ]

let test_bcast_shapes_match_cost () =
  let n = 12 in
  let m = homogeneous n in
  List.iter
    (fun shape ->
      let r =
        Runtime.run_exn m (fun ~rank ~size ->
            Collectives.bcast ~shape ~rank ~size ~root:0 ~msg:10_000 ())
      in
      check_feq (Tree.shape_name shape)
        (Cost.broadcast_time ~shape ~params:homog_params ~size:n ~msg:10_000 ())
        r.Runtime.makespan)
    Tree.all_shapes

let test_bcast_nonzero_root () =
  let n = 9 in
  let m = homogeneous n in
  let r =
    Runtime.run_exn m (fun ~rank ~size -> Collectives.bcast ~rank ~size ~root:4 ~msg:1_000 ())
  in
  check_feq "same completion as root 0"
    (Cost.broadcast_time ~params:homog_params ~size:n ~msg:1_000 ())
    r.Runtime.makespan;
  Alcotest.(check int) "n-1 messages" (n - 1) r.Runtime.messages

let test_bcast_plan_equals_exec () =
  let grid = Grid5000.grid () in
  let m = Machines.expand grid in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let sched = Gridb_sched.Engine.run Gridb_sched.Policy.ecef_lat_max inst in
  let plan = Plan.of_cluster_schedule m sched in
  let des = Exec.run ~msg:1_000_000 m plan in
  let r =
    Runtime.run_exn m (fun ~rank ~size:_ -> Collectives.bcast_plan ~rank plan ~msg:1_000_000)
  in
  check_feq "simMPI = DES" des.Exec.makespan r.Runtime.makespan

let test_allgather_matches_formula () =
  let n = 10 in
  let m = homogeneous n in
  let r =
    Runtime.run_exn m (fun ~rank ~size -> Collectives.allgather_ring ~rank ~size ~msg:5_000 ())
  in
  check_feq "ring formula"
    (Cost.allgather_ring_time ~params:homog_params ~size:n ~msg:5_000)
    r.Runtime.makespan;
  Alcotest.(check int) "n(n-1) messages" (n * (n - 1)) r.Runtime.messages

let test_scatter_payloads () =
  let n = 6 in
  let m = homogeneous n in
  let received = Array.make n (-1.) in
  ignore
    (Runtime.run_exn m (fun ~rank ~size ->
         received.(rank) <- Collectives.scatter ~rank ~size ~root:2 ~msg:1_000 ()));
  Array.iteri
    (fun rank payload ->
      check_feq (Printf.sprintf "rank %d got its id" rank) (float_of_int rank) payload)
    received

let test_gather_collects_in_rank_order () =
  let n = 5 in
  let m = homogeneous n in
  let collected = ref [] in
  ignore
    (Runtime.run_exn m (fun ~rank ~size ->
         let r =
           Collectives.gather ~rank ~size ~root:0 ~msg:100
             ~payload:(float_of_int (10 * rank))
         in
         if rank = 0 then collected := r));
  Alcotest.(check (list (float 0.0))) "rank order" [ 0.; 10.; 20.; 30.; 40. ] !collected

let test_reduce_and_allreduce () =
  let n = 13 in
  let m = homogeneous n in
  let at_root = ref None and everywhere = Array.make n nan in
  ignore
    (Runtime.run_exn m (fun ~rank ~size ->
         (match Collectives.reduce ~rank ~size ~root:0 ~msg:8 ~value:(float_of_int rank) ( +. ) with
         | Some total -> at_root := Some total
         | None -> ());
         everywhere.(rank) <-
           Collectives.allreduce ~rank ~size ~msg:8 ~value:1. ( +. )));
  (match !at_root with
  | Some total -> check_feq "reduce sum" (float_of_int (n * (n - 1) / 2)) total
  | None -> Alcotest.fail "root got no reduction");
  Array.iteri
    (fun rank v -> check_feq (Printf.sprintf "allreduce at %d" rank) (float_of_int n) v)
    everywhere

let test_reduce_max_operator () =
  let n = 7 in
  let m = homogeneous n in
  let result = ref None in
  ignore
    (Runtime.run_exn m (fun ~rank ~size ->
         match
           Collectives.reduce ~rank ~size ~root:0 ~msg:8
             ~value:(float_of_int ((rank * 3) mod 5))
             Float.max
         with
         | Some v -> result := Some v
         | None -> ()));
  match !result with
  | Some v -> check_feq "max" 4. v
  | None -> Alcotest.fail "no result"

let test_barrier_synchronises () =
  let n = 8 in
  let m = homogeneous n in
  (* Stagger ranks with compute, then barrier: everyone finishes together at
     >= the slowest rank's offset. *)
  let finish = ref [||] in
  let r =
    Runtime.run_exn m (fun ~rank ~size ->
        Runtime.Api.compute (float_of_int rank *. 1_000.);
        Collectives.barrier ~rank ~size ())
  in
  finish := r.Runtime.finish;
  let slowest_offset = 7_000. in
  Array.iteri
    (fun rank t ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d after barrier >= slowest" rank)
        true (t >= slowest_offset))
    !finish

let test_alltoall_completes () =
  let n = 6 in
  let m = homogeneous n in
  let r =
    Runtime.run_exn m (fun ~rank ~size -> Collectives.alltoall ~rank ~size ~msg:2_000 ())
  in
  Alcotest.(check int) "n(n-1) messages" (n * (n - 1)) r.Runtime.messages;
  Alcotest.(check (list int)) "no deadlock" [] r.Runtime.deadlocked

let test_noise_reproducible () =
  let m = homogeneous 16 in
  let program ~rank ~size = Collectives.bcast ~rank ~size ~root:0 ~msg:100_000 () in
  let a = Runtime.run_exn ~noise:(Gridb_des.Noise.Lognormal 0.1) ~seed:7 m program in
  let b = Runtime.run_exn ~noise:(Gridb_des.Noise.Lognormal 0.1) ~seed:7 m program in
  let c = Runtime.run_exn ~noise:(Gridb_des.Noise.Lognormal 0.1) ~seed:8 m program in
  check_feq "same seed" a.Runtime.makespan b.Runtime.makespan;
  Alcotest.(check bool) "different seed" true
    (not (feq a.Runtime.makespan c.Runtime.makespan))

let collective_roots_agree =
  QCheck.Test.make ~name:"bcast completion is root-invariant on homogeneous clusters"
    ~count:(Testutil.count 30)
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let root = seed mod n in
      let m = homogeneous n in
      let r =
        Runtime.run_exn m (fun ~rank ~size ->
            Collectives.bcast ~rank ~size ~root ~msg:10_000 ())
      in
      feq r.Runtime.makespan
        (Cost.broadcast_time ~params:homog_params ~size:n ~msg:10_000 ()))

(* --- Nonblocking sends ------------------------------------------------------ *)

let test_isend_returns_immediately () =
  let m = homogeneous 2 in
  let observed = ref nan in
  ignore
    (Runtime.run_exn m (fun ~rank ~size:_ ->
         if rank = 0 then begin
           let req = Runtime.Api.isend ~dst:1 ~msg_size:1_000_000 () in
           observed := Runtime.Api.time ();
           Runtime.Api.wait req
         end
         else ignore (Runtime.Api.recv ())));
  check_feq "isend returns at t=0" 0. !observed

let test_isend_wait_blocks_until_injection () =
  let m = homogeneous 2 in
  let after_wait = ref nan in
  ignore
    (Runtime.run_exn m (fun ~rank ~size:_ ->
         if rank = 0 then begin
           let req = Runtime.Api.isend ~dst:1 ~msg_size:1000 () in
           Runtime.Api.wait req;
           after_wait := Runtime.Api.time ();
           (* waiting twice is harmless *)
           Runtime.Api.wait req
         end
         else ignore (Runtime.Api.recv ())));
  check_feq "wait until gap end" (Params.gap homog_params 1000) !after_wait

let test_isend_serialises_like_send () =
  (* Two isends reserve the NIC in order; deliveries match blocking sends. *)
  let m = homogeneous 3 in
  let r =
    Runtime.run_exn m (fun ~rank ~size:_ ->
        if rank = 0 then begin
          let r1 = Runtime.Api.isend ~dst:1 ~msg_size:1000 () in
          let r2 = Runtime.Api.isend ~dst:2 ~msg_size:1000 () in
          Runtime.Api.wait r1;
          Runtime.Api.wait r2
        end
        else ignore (Runtime.Api.recv ~src:0 ()))
  in
  let g = Params.gap homog_params 1000 and l = Params.latency homog_params in
  check_feq "first" (g +. l) r.Runtime.finish.(1);
  check_feq "second" ((2. *. g) +. l) r.Runtime.finish.(2)

let test_alltoall_nonblocking_faster () =
  let grid =
    Generators.homogeneous ~n:2 ~cluster_size:4
      ~inter:(Params.linear ~latency:5_000. ~g0:100. ~bandwidth_mb_s:2.)
      ~intra:homog_params
  in
  let m = Machines.expand grid in
  let blocking =
    Runtime.run_exn m (fun ~rank ~size -> Collectives.alltoall ~rank ~size ~msg:1_000 ())
  in
  let nonblocking =
    Runtime.run_exn m (fun ~rank ~size ->
        Collectives.alltoall_nonblocking ~rank ~size ~msg:1_000 ())
  in
  Alcotest.(check int) "same message count" blocking.Runtime.messages
    nonblocking.Runtime.messages;
  Alcotest.(check bool) "nonblocking at least as fast" true
    (nonblocking.Runtime.makespan <= blocking.Runtime.makespan +. 1e-9)

(* --- Application skeletons ---------------------------------------------------- *)

module Apps = Gridb_mpi.Apps

let test_solver_runs_and_scales () =
  let m = homogeneous 16 in
  let run iterations =
    (Apps.run_solver ~iterations ~compute_us:1_000. ~msg:100_000 m).Runtime.makespan
  in
  let one = run 1 and four = run 4 in
  Alcotest.(check bool) "positive" true (one > 0.);
  (* BSP iterations cannot overlap more than fully and cannot be slower than
     sequential repetition *)
  Alcotest.(check bool) "superlinear lower" true (four >= 2. *. one);
  Alcotest.(check bool) "at most sequential" true (four <= 4. *. one +. 1e-6)

let test_solver_includes_compute () =
  let m = homogeneous 8 in
  let fast = (Apps.run_solver ~iterations:2 ~compute_us:0. ~msg:10_000 m).Runtime.makespan in
  let slow =
    (Apps.run_solver ~iterations:2 ~compute_us:50_000. ~msg:10_000 m).Runtime.makespan
  in
  Alcotest.(check bool) "compute time visible" true (slow >= fast +. 2. *. 50_000. -. 1e-6)

let test_solver_better_bcast_helps () =
  let grid = Grid5000.grid () in
  let m = Machines.expand grid in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg:500_000 grid in
  let plan =
    Plan.of_cluster_schedule m (Gridb_sched.Engine.run Gridb_sched.Policy.ecef_la inst)
  in
  let default =
    (Apps.run_solver ~iterations:3 ~compute_us:10_000. ~msg:500_000 m).Runtime.makespan
  in
  let scheduled =
    (Apps.run_solver ~bcast:(Apps.plan_bcast plan) ~iterations:3 ~compute_us:10_000.
       ~msg:500_000 m)
      .Runtime.makespan
  in
  Alcotest.(check bool) "grid-aware broadcast shortens the application" true
    (scheduled < default)

let test_master_worker_runs () =
  let m = homogeneous 8 in
  let r =
    Runtime.run_exn m (fun ~rank ~size ->
        Apps.master_worker ~rounds:3 ~task_msg:10_000 ~result_msg:1_000 ~compute_us:5_000.
          ~rank ~size ())
  in
  Alcotest.(check (list int)) "no deadlock" [] r.Runtime.deadlocked;
  (* 3 rounds x (7 tasks + 7 results) messages *)
  Alcotest.(check int) "message count" (3 * 14) r.Runtime.messages

let test_solver_noisy_iterations_do_not_cross_talk () =
  (* Under heavy noise, iteration tags must keep the collectives separate:
     the run completes without deadlock and every allreduce total is n. *)
  let m = homogeneous 12 in
  let ok = ref true in
  let r =
    Runtime.run ~noise:(Gridb_des.Noise.Lognormal 0.5) ~seed:13 m (fun ~rank ~size ->
        for it = 1 to 3 do
          Collectives.bcast ~tag:(2 * it) ~rank ~size ~root:0 ~msg:10_000 ();
          let total =
            Collectives.allreduce ~tag:((2 * it) + 1) ~rank ~size ~msg:8 ~value:1. ( +. )
          in
          if total <> float_of_int size then ok := false
        done)
  in
  Alcotest.(check (list int)) "no deadlock" [] r.Runtime.deadlocked;
  Alcotest.(check bool) "allreduce totals intact under reordering" true !ok

(* --- Benchmarks (pLogP measurement over the simulated wire) ----------------- *)

let test_ping_pong_matches_rtt () =
  let m = homogeneous 2 in
  let rtt = Gridb_mpi.Benchmarks.ping_pong m ~a:0 ~b:1 ~msg:4_096 in
  check_feq "rtt formula" (Params.rtt homog_params 4_096) rtt

let test_gap_of_train_exact () =
  let m = homogeneous 2 in
  let g = Gridb_mpi.Benchmarks.gap_of_train m ~a:0 ~b:1 ~msg:10_000 in
  check_feq "gap recovered" (Params.gap homog_params 10_000) g

let test_measure_link_recovers_ground_truth () =
  (* The strongest end-to-end check: run the measurement benchmark on the
     simulated wire and compare against the topology's pLogP parameters. *)
  let grid = Grid5000.grid () in
  let m = Machines.expand grid in
  (* link between the Orsay-A and IDPOT-A coordinators: ranks 0 and 60 *)
  let truth = Machines.link_params m 0 60 in
  let recovered = Gridb_mpi.Benchmarks.measure_link m ~a:0 ~b:60 in
  check_feq ~eps:1e-6 "latency" (Params.latency truth) (Params.latency recovered);
  List.iter
    (fun msg ->
      check_feq ~eps:1e-6
        (Printf.sprintf "gap at %d" msg)
        (Params.gap truth msg) (Params.gap recovered msg))
    [ 0; 1_024; 65_536; 1_048_576 ]

let test_measure_link_with_noise_close () =
  let m = homogeneous 2 in
  let recovered =
    Gridb_mpi.Benchmarks.measure_link ~noise:(Gridb_des.Noise.Lognormal 0.03) ~seed:5 m
      ~a:0 ~b:1
  in
  let t = Params.gap homog_params 100_000 and r = Params.gap recovered 100_000 in
  Alcotest.(check bool) "within 10%" true (Float.abs (r -. t) /. t < 0.10)

let test_benchmarks_reject () =
  let m = homogeneous 2 in
  Alcotest.check_raises "a = b" (Invalid_argument "Benchmarks: a = b") (fun () ->
      ignore (Gridb_mpi.Benchmarks.ping_pong m ~a:1 ~b:1 ~msg:1))

(* --- Failure injection ------------------------------------------------------- *)

let test_dead_rank_blocks_receivers () =
  let m = homogeneous 3 in
  let r =
    Runtime.run m
      ~failures:[ Runtime.Dead_rank 1 ]
      (fun ~rank ~size:_ ->
        if rank = 0 then Runtime.Api.send ~dst:2 ~msg_size:10 ()
        else if rank = 2 then begin
          ignore (Runtime.Api.recv ~src:0 ());
          (* rank 1 is dead: this recv can never complete *)
          ignore (Runtime.Api.recv ~src:1 ())
        end)
  in
  Alcotest.(check (list int)) "rank 2 deadlocks" [ 2 ] r.Runtime.deadlocked;
  Alcotest.(check bool) "dead rank never finished" true (Float.is_nan r.Runtime.finish.(1))

let test_dead_rank_swallows_messages () =
  let m = homogeneous 2 in
  let r =
    Runtime.run m
      ~failures:[ Runtime.Dead_rank 1 ]
      (fun ~rank ~size:_ -> if rank = 0 then Runtime.Api.send ~dst:1 ~msg_size:10 ())
  in
  Alcotest.(check int) "nothing delivered" 0 r.Runtime.messages;
  Alcotest.(check (list int)) "no deadlock" [] r.Runtime.deadlocked

let test_drop_message_loses_exactly_nth () =
  let m = homogeneous 2 in
  let received = ref [] in
  let r =
    Runtime.run m
      ~failures:[ Runtime.Drop_message { src = 0; dst = 1; nth = 1 } ]
      (fun ~rank ~size:_ ->
        if rank = 0 then
          for tag = 0 to 2 do
            Runtime.Api.send ~dst:1 ~tag ~msg_size:10 ()
          done
        else begin
          (* the middle message (tag 1) is lost; expect tags 0 and 2 *)
          let a = Runtime.Api.recv () in
          let b = Runtime.Api.recv () in
          received := [ a.Runtime.tag; b.Runtime.tag ]
        end)
  in
  Alcotest.(check (list int)) "tags 0 and 2 arrive" [ 0; 2 ] !received;
  Alcotest.(check int) "two delivered" 2 r.Runtime.messages

let test_drop_in_broadcast_partitions_subtree () =
  (* Killing the binomial root's first transmission starves that whole
     subtree: every rank below it deadlocks in recv. *)
  let n = 8 in
  let m = homogeneous n in
  let r =
    Runtime.run m
      ~failures:[ Runtime.Drop_message { src = 0; dst = 4; nth = 0 } ]
      (fun ~rank ~size ->
        Collectives.bcast ~rank ~size ~root:0 ~msg:1_000 ())
  in
  (* binomial over 8: root children 4,2,1; subtree of 4 = {4,5,6,7} *)
  Alcotest.(check (list int)) "subtree starves" [ 4; 5; 6; 7 ] r.Runtime.deadlocked

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mpi"
    [
      ( "runtime",
        [
          quick "send/recv" test_two_rank_send_recv;
          quick "NIC serialisation" test_send_serialises_on_nic;
          quick "recv filters" test_recv_filters;
          quick "deadlock detection" test_deadlock_detection;
          quick "compute" test_compute_advances_time;
          quick "self send rejected" test_send_to_self_rejected;
          quick "api outside run" test_api_outside_run_raises;
        ] );
      ( "collectives",
        [
          quick "bcast = cost model" test_bcast_matches_cost_model;
          quick "bcast shapes" test_bcast_shapes_match_cost;
          quick "bcast nonzero root" test_bcast_nonzero_root;
          quick "bcast plan = DES" test_bcast_plan_equals_exec;
          quick "allgather formula" test_allgather_matches_formula;
          quick "scatter payloads" test_scatter_payloads;
          quick "gather order" test_gather_collects_in_rank_order;
          quick "reduce/allreduce" test_reduce_and_allreduce;
          quick "reduce max" test_reduce_max_operator;
          quick "barrier synchronises" test_barrier_synchronises;
          quick "alltoall completes" test_alltoall_completes;
          quick "noise reproducible" test_noise_reproducible;
          QCheck_alcotest.to_alcotest collective_roots_agree;
        ] );
      ( "nonblocking",
        [
          quick "isend immediate" test_isend_returns_immediately;
          quick "wait blocks" test_isend_wait_blocks_until_injection;
          quick "isend serialises" test_isend_serialises_like_send;
          quick "alltoall nonblocking faster" test_alltoall_nonblocking_faster;
        ] );
      ( "apps",
        [
          quick "solver scales" test_solver_runs_and_scales;
          quick "solver includes compute" test_solver_includes_compute;
          quick "better bcast helps" test_solver_better_bcast_helps;
          quick "master/worker" test_master_worker_runs;
          quick "no cross-talk under noise" test_solver_noisy_iterations_do_not_cross_talk;
        ] );
      ( "benchmarks",
        [
          quick "ping pong rtt" test_ping_pong_matches_rtt;
          quick "gap of train" test_gap_of_train_exact;
          quick "measure link exact" test_measure_link_recovers_ground_truth;
          quick "measure link noisy" test_measure_link_with_noise_close;
          quick "rejects" test_benchmarks_reject;
        ] );
      ( "failures",
        [
          quick "dead rank blocks receivers" test_dead_rank_blocks_receivers;
          quick "dead rank swallows messages" test_dead_rank_swallows_messages;
          quick "drop exactly nth" test_drop_message_loses_exactly_nth;
          quick "drop partitions broadcast" test_drop_in_broadcast_partitions_subtree;
        ] );
    ]
