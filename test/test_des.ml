(* Tests for gridb_des: the event engine, noise models, broadcast plans,
   the plan executor and the scheduling-overhead model.  The central
   integration property: with noise off, the DES reproduces the analytic
   pLogP predictions exactly. *)

module Engine = Gridb_des.Engine
module Noise = Gridb_des.Noise
module Plan = Gridb_des.Plan
module Exec = Gridb_des.Exec
module Overhead = Gridb_sched.Overhead
module Machines = Gridb_topology.Machines
module Grid5000 = Gridb_topology.Grid5000
module Generators = Gridb_topology.Generators
module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Sched_engine = Gridb_sched.Engine
module Params = Gridb_plogp.Params
module Rng = Gridb_util.Rng
module Faults = Gridb_des.Faults
module Sink = Gridb_obs.Sink
module Grid = Gridb_topology.Grid
module Cluster = Gridb_topology.Cluster

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

(* --- Engine ------------------------------------------------------------- *)

let test_engine_orders_events () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~time:5. (fun _ -> log := 5 :: !log);
  Engine.schedule e ~time:1. (fun _ -> log := 1 :: !log);
  Engine.schedule e ~time:3. (fun _ -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log);
  check_feq "clock at last event" 5. (Engine.now e);
  Alcotest.(check int) "processed" 3 (Engine.processed e)

let test_engine_fifo_for_ties () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun tag -> Engine.schedule e ~time:2. (fun _ -> log := tag :: !log))
    [ "a"; "b"; "c" ];
  Engine.run e;
  Alcotest.(check (list string)) "insertion order preserved" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_engine_cascading () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec spawn depth _engine =
    incr count;
    if depth > 0 then Engine.schedule_after e ~delay:1. (spawn (depth - 1))
  in
  Engine.schedule e ~time:0. (spawn 9);
  Engine.run e;
  Alcotest.(check int) "10 events" 10 !count;
  check_feq "clock advanced" 9. (Engine.now e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~time:4. (fun _ -> ());
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time in the past")
    (fun () -> Engine.schedule e ~time:1. (fun _ -> ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      Engine.schedule_after e ~delay:(-1.) (fun _ -> ()))

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule e ~time:t (fun _ -> fired := t :: !fired))
    [ 1.; 2.; 3.; 10. ];
  Engine.run_until e 5.;
  Alcotest.(check (list (float 0.0))) "only early events" [ 1.; 2.; 3. ] (List.rev !fired);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  check_feq "clock at horizon" 5. (Engine.now e);
  Engine.run e;
  check_feq "late event still fires" 10. (Engine.now e)

(* NaN compares false with everything, so it slips past the past-time and
   negative-delay guards; each entry point must reject it outright. *)
let test_engine_rejects_nan_schedule () =
  let e = Engine.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule: NaN time") (fun () ->
      Engine.schedule e ~time:Float.nan (fun _ -> ()));
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e)

let test_engine_rejects_nan_schedule_after () =
  let e = Engine.create () in
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule_after: NaN delay")
    (fun () -> Engine.schedule_after e ~delay:Float.nan (fun _ -> ()));
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e)

let test_engine_rejects_nan_schedule_timer () =
  let e = Engine.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule_timer: NaN time")
    (fun () -> ignore (Engine.schedule_timer e ~time:Float.nan (fun _ -> ())));
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e)

(* A self-rescheduling chain behind [pending - 1] far-future fillers: each
   chain event sifts from a fresh leaf up to the root and, once fired, the
   last filler sinks from the root back down, log2(pending) levels each
   way.  The words allocated per event must not depend on that depth.
   With [~with_timer] every event also arms a far-future timer and cancels
   it, as a sender's ACK cancels its retransmission timer: a queue that
   kept cancelled entries until their time would grow by one entry per
   event, and its growth would cost fewer words per event the larger it
   already was.  Large arrays are allocated straight in the major heap, so
   the count includes those words (major minus promoted) besides the minor
   ones. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let chain_words_per_event ~with_timer ~pending =
  let e = Engine.create () in
  for _ = 2 to pending do
    Engine.schedule e ~time:1e18 (fun _ -> ())
  done;
  let events = 10_000 and fired = ref 0 in
  let rec tick e =
    incr fired;
    if with_timer then Engine.cancel e (Engine.schedule_timer e ~time:1e16 (fun _ -> ()));
    if !fired < events then Engine.schedule_after e ~delay:1. tick
  in
  Engine.schedule e ~time:0. tick;
  let before = allocated_words () in
  Engine.run_until e 1e17;
  let words = allocated_words () -. before in
  Alcotest.(check int) "chain fired" events !fired;
  Alcotest.(check int) "only the fillers left" (pending - 1) (Engine.pending e);
  words /. float_of_int events

let check_words_flat_in_depth ?(depth = 4096) ~with_timer () =
  let shallow = chain_words_per_event ~with_timer ~pending:2 in
  let deep = chain_words_per_event ~with_timer ~pending:depth in
  Alcotest.(check bool)
    (Printf.sprintf "words/event %.2f at 2 pending vs %.2f at %d" shallow deep depth)
    true
    (Float.abs (deep -. shallow) <= 1.)

let reachable_after_full_major captured =
  Gc.full_major ();
  let reachable = ref 0 in
  for i = 0 to Weak.length captured - 1 do
    if Weak.check captured i then incr reachable
  done;
  !reachable

(* A far-future event keeps the queue non-empty for the whole run, so a
   queue that only recycled its storage when it emptied would keep every
   fired closure, and what it captured, reachable.  Events come in waves
   of equal-time siblings, the last of which arms the next wave; draining
   the final wave leaves vacated slots behind, which must not pin it. *)
let test_engine_releases_fired_events () =
  let n = 100_000 and wave = 16 in
  let e = Engine.create () in
  Engine.schedule e ~time:1e18 (fun _ -> ());
  let captured = Weak.create n in
  let rec arm w e =
    if w * wave < n then
      for j = 0 to wave - 1 do
        let payload = Bytes.make 8 'x' in
        Weak.set captured ((w * wave) + j) (Some payload);
        Engine.schedule_after e ~delay:1. (fun e ->
            ignore (Sys.opaque_identity payload);
            if j = wave - 1 then arm (w + 1) e)
      done
  in
  arm 0 e;
  Engine.run_until e 1e17;
  Alcotest.(check int) "all fired" n (Engine.processed e);
  Alcotest.(check int) "captured values collected" 0 (reachable_after_full_major captured);
  (* Used after the collection, so the engine itself stayed reachable. *)
  Alcotest.(check int) "far-future event still queued" 1 (Engine.pending e)

(* Cancellation removes a timer's event from the queue at once: nothing it
   captured stays reachable, although no [step] ever reaches the entries'
   times, and [pending] drops to zero without draining anything. *)
let arm_and_cancel_all e n =
  let captured = Weak.create n in
  let timers =
    Array.init n (fun i ->
        let payload = Bytes.make 8 'x' in
        Weak.set captured i (Some payload);
        Engine.schedule_timer e ~time:(float_of_int (i + 1)) (fun _ ->
            ignore (Sys.opaque_identity payload)))
  in
  Array.iter (Engine.cancel e) timers;
  captured

let test_engine_releases_cancelled_timers () =
  let n = 100_000 in
  let e = Engine.create () in
  let captured = arm_and_cancel_all e n in
  Alcotest.(check int) "cancelled closures collected" 0 (reachable_after_full_major captured);
  Alcotest.(check int) "pending is 0 after mass cancellation" 0 (Engine.pending e);
  Alcotest.(check int) "nothing fired" 0 (Engine.processed e)

(* A live event due before every timer keeps the head of the queue
   occupied, so cancelled entries cannot be discarded on their way to it:
   only removal at cancel time leaves them uncounted and unreachable. *)
let test_engine_pending_after_mass_cancel () =
  let n = 100_000 in
  let e = Engine.create () in
  Engine.schedule e ~time:0. (fun _ -> ());
  let captured = arm_and_cancel_all e n in
  Alcotest.(check int) "only the live event pending" 1 (Engine.pending e);
  Alcotest.(check int) "cancelled closures collected behind a live head" 0
    (reachable_after_full_major captured);
  Engine.run e;
  Alcotest.(check int) "pending is 0 once it fired" 0 (Engine.pending e);
  Alcotest.(check int) "only the live event fired" 1 (Engine.processed e);
  check_feq "clock never reached a cancelled time" 0. (Engine.now e)

(* The serve-overload depth: 30,000 timers pending at times spread over
   many radix buckets while 30,000 events fire in front of them, then every
   timer cancelled in a scrambled order.  Nothing fired or cancelled may
   stay reachable. *)
let test_engine_release_at_30k_pending () =
  let n = 30_000 in
  let e = Engine.create () in
  let captured = Weak.create (2 * n) in
  let captures i =
    let payload = Bytes.make 8 'x' in
    Weak.set captured i (Some payload);
    fun _ -> ignore (Sys.opaque_identity payload)
  in
  let timers =
    Array.init n (fun i ->
        let spread = float_of_int (i * 7919 mod n) in
        Engine.schedule_timer e ~time:(1e6 +. (spread *. spread)) (captures i))
  in
  for i = 0 to n - 1 do
    Engine.schedule e ~time:(float_of_int (i mod 97)) (captures (n + i))
  done;
  Engine.run_until e 1e5;
  Alcotest.(check int) "the events fired" n (Engine.processed e);
  Alcotest.(check int) "the timers wait" n (Engine.pending e);
  for i = 0 to n - 1 do
    Engine.cancel e timers.(i * 7919 mod n)
  done;
  Alcotest.(check int) "pending is 0 once all are cancelled" 0 (Engine.pending e);
  Alcotest.(check int) "fired and cancelled closures collected" 0
    (reachable_after_full_major captured);
  Engine.run e;
  Alcotest.(check int) "no cancelled timer fired" n (Engine.processed e)

(* [run_until] refills the near heap only for far events due by its
   horizon.  10. and its [Float.succ] neighbour share a radix key, so a
   horizon of 10. refills both and leaves the neighbour queued; 999. and
   later stay far.  Events scheduled afterwards at the horizon, between
   it and the queued events, or among them, must fire in (time,
   insertion) order, and so must events scheduled below a far minimum
   after a horizon that stopped short of it. *)
let test_engine_schedule_below_refilled_minimum () =
  let e = Engine.create () and log = ref [] in
  let at (time, tag) = Engine.schedule e ~time (fun _ -> log := tag :: !log) in
  let next = Float.succ 10. in
  List.iter at [ (1., "a"); (10., "b"); (next, "c"); (1000., "d"); (1000., "e"); (4096., "f") ];
  Engine.run_until e 10.;
  check_feq "clock at the horizon" 10. (Engine.now e);
  Alcotest.(check (list string)) "due events fired" [ "a"; "b" ] (List.rev !log);
  List.iter at [ (next, "g"); (10., "h"); (11., "i"); (1000., "j"); (Float.pred 1000., "k") ];
  Engine.run_until e 500.;
  Alcotest.(check int) "the far events wait" 5 (Engine.pending e);
  List.iter at [ (999., "l"); (500., "m"); (5000., "n") ];
  Engine.run e;
  Alcotest.(check (list string)) "time order, insertion order among ties"
    [ "a"; "b"; "h"; "c"; "g"; "i"; "m"; "l"; "k"; "d"; "e"; "j"; "f"; "n" ]
    (List.rev !log)

(* Timers far past the clock wait in radix buckets.  Cancelling the first,
   last or a middle member of a bucket, or its only member, must leave the
   others to fire in order. *)
let test_engine_cancel_far_timers () =
  let e = Engine.create () and log = ref [] in
  let times =
    Array.init 300 (fun i -> float_of_int (1 + (i * 7919 mod 1000)) *. (10. ** float_of_int (i mod 7)))
  in
  let timers =
    Array.mapi (fun i time -> Engine.schedule_timer e ~time (fun _ -> log := i :: !log)) times
  in
  let cancelled i = i mod 3 = 0 || i = 299 || i = 1 in
  Array.iteri (fun i tm -> if cancelled i then Engine.cancel e tm) timers;
  Engine.cancel e timers.(0);
  let survivors = List.filter (fun i -> not (cancelled i)) (List.init 300 Fun.id) in
  Alcotest.(check int) "pending counts survivors" (List.length survivors) (Engine.pending e);
  Engine.run e;
  let expected =
    List.stable_sort (fun i j -> Float.compare times.(i) times.(j)) survivors
  in
  Alcotest.(check (list int)) "survivors fire in time order" expected (List.rev !log);
  Alcotest.(check bool) "cancelled timers never fired" true
    (Array.for_all (fun tm -> not (Engine.timer_live tm)) timers)

(* --- Event heap ---------------------------------------------------------- *)

(* The engine's event queue is a private binary heap keyed on (time,
   insertion seq); these cases drive it through the public API. *)

let schedule_logged e log x =
  Engine.schedule e ~time:(float_of_int x) (fun _ -> log := x :: !log)

let test_heap_sorts () =
  let rng = Rng.create 21 in
  let xs = List.init 200 (fun _ -> Rng.int rng 1000) in
  let e = Engine.create () and log = ref [] in
  List.iter (schedule_logged e log) xs;
  Engine.run e;
  Alcotest.(check (list int)) "fires sorted" (List.sort compare xs) (List.rev !log);
  Alcotest.(check int) "empty after drain" 0 (Engine.pending e)

let test_heap_of_array () =
  let e = Engine.create () and log = ref [] in
  Array.iter (schedule_logged e log) [| 5; 1; 4; 2; 3 |];
  Alcotest.(check int) "all pending" 5 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_heap_peek_pop () =
  let e = Engine.create () and log = ref [] in
  Alcotest.(check bool) "step on empty" false (Engine.step e);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  schedule_logged e log 3;
  schedule_logged e log 1;
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Alcotest.(check bool) "step fires" true (Engine.step e);
  Alcotest.(check (list int)) "min first" [ 1 ] !log;
  check_feq "clock at min" 1. (Engine.now e);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "drained" false (Engine.step e);
  Alcotest.(check int) "processed" 2 (Engine.processed e)

(* Each fired event is the minimum of what was pending at that moment. *)
let test_heap_invariant_random =
  QCheck.Test.make ~name:"heap invariant after random ops" ~count:(Testutil.count 200)
    QCheck.(list (int_bound 1000))
    (fun xs ->
      let e = Engine.create () in
      let pending = ref [] and ok = ref true in
      let rec remove_one x = function
        | [] -> []
        | y :: ys -> if y = x then ys else y :: remove_one x ys
      in
      let fire time _ =
        ok := !ok && List.for_all (fun p -> time <= p) !pending;
        pending := remove_one time !pending
      in
      List.iteri
        (fun i x ->
          if i mod 3 = 2 then ignore (Engine.step e)
          else begin
            let time = Engine.now e +. float_of_int x in
            pending := time :: !pending;
            Engine.schedule e ~time (fire time)
          end)
        xs;
      !ok && Engine.pending e = List.length !pending)

let test_heap_stability_order () =
  let e = Engine.create () and log = ref [] in
  List.iter
    (fun (time, tag) -> Engine.schedule e ~time (fun _ -> log := tag :: !log))
    [ (1., "a"); (1., "b"); (0., "c"); (1., "d") ];
  Alcotest.(check int) "4 events" 4 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list string)) "min first, then FIFO among ties" [ "c"; "a"; "b"; "d" ]
    (List.rev !log)

(* Differential test of the event queue against a stable sorted-list
   model: random schedule / schedule_timer / cancel / step / run_until
   sequences must agree on the firing order, [now], [processed], [pending]
   and every timer's liveness after every operation.  Most times are the
   clock plus 0 to 4 (so equal times abound); the rest ([differential_time])
   span many magnitudes, land on the clock's [Float.succ] neighbours (which
   may share its radix key), on -0. while the clock is +0., on huge values
   and on infinity.  Cancels pick any handle ever armed, so
   they hit fired and already-cancelled timers too, and some pick the same
   handle twice in a row; some timers cancel another timer when they
   fire, so entries also leave the queue mid-run. *)
let differential_time clock k =
  match k with
  | 5 -> Float.succ clock
  | 6 -> Float.succ (Float.succ clock)
  | 7 -> if clock = 0. then -0. else clock
  | 8 -> clock +. 1e-6
  | 9 -> (clock *. 2.) +. 1e-300
  | 10 -> clock +. 1e9
  | 11 -> clock +. 1e15
  | 12 -> clock +. 1e300
  | 13 -> Float.max clock Float.max_float
  | 14 -> infinity
  | k -> clock +. float_of_int k

type model_event = {
  m_time : float;
  m_seq : int;
  m_live : bool ref;
  m_effect : unit -> unit;
}

let test_heap_differential =
  QCheck.Test.make ~name:"binary heap vs stable reference model" ~count:(Testutil.count 300)
    QCheck.(
      list_of_size (Gen.int_bound 150)
        (pair (int_bound 7) (make Gen.(frequency [ (8, int_bound 4); (3, int_range 5 14) ]))))
    (fun ops ->
      let e = Engine.create () in
      let fired = ref [] and model_fired = ref [] in
      let queue = ref [] and clock = ref 0. and processed = ref 0 and seq = ref 0 in
      let timers = ref [] in
      let add ?(effect = ignore) time =
        let ev = { m_time = time; m_seq = !seq; m_live = ref true; m_effect = effect } in
        incr seq;
        queue := ev :: !queue;
        ev
      in
      let model_step () =
        let live = List.filter (fun ev -> !(ev.m_live)) !queue in
        match List.sort (fun a b -> compare (a.m_time, a.m_seq) (b.m_time, b.m_seq)) live with
        | [] -> None
        | ev :: _ ->
            queue := List.filter (fun o -> o != ev) !queue;
            ev.m_live := false;
            clock := ev.m_time;
            incr processed;
            model_fired := ev.m_seq :: !model_fired;
            ev.m_effect ();
            Some ev.m_time
      in
      let rec model_run_until h =
        let next =
          List.fold_left
            (fun acc ev -> if !(ev.m_live) then Float.min acc ev.m_time else acc)
            infinity !queue
        in
        (* [next] is infinite with nothing live, too. *)
        if next <= h && List.exists (fun ev -> !(ev.m_live)) !queue then begin
          ignore (model_step ());
          model_run_until h
        end
        else if !clock < h then clock := h
      in
      let logged id _ = fired := id :: !fired in
      let pick k = List.nth !timers (k mod List.length !timers) in
      let cancel (handle, live) =
        Engine.cancel e handle;
        live := false
      in
      List.for_all
        (fun (kind, k) ->
          let time = differential_time !clock k in
          let step_agrees =
            match kind with
            | 0 | 1 ->
                let ev = add time in
                Engine.schedule e ~time (logged ev.m_seq);
                true
            | 2 ->
                let ev = add time in
                timers := (Engine.schedule_timer e ~time (logged ev.m_seq), ev.m_live) :: !timers;
                true
            | 3 | 4 ->
                if !timers <> [] then begin
                  let target = pick k in
                  cancel target;
                  if kind = 4 then cancel target
                end;
                true
            | 5 ->
                if !timers = [] then true
                else begin
                  (* On firing, this timer cancels [target] in the engine
                     and in the model alike. *)
                  let handle, live = pick k in
                  let ev = add ~effect:(fun () -> live := false) time in
                  let tm =
                    Engine.schedule_timer e ~time (fun e ->
                        logged ev.m_seq e;
                        Engine.cancel e handle)
                  in
                  timers := (tm, ev.m_live) :: !timers;
                  true
                end
            | 6 ->
                let stepped = Engine.step e in
                stepped = Option.is_some (model_step ())
            | _ ->
                Engine.run_until e time;
                model_run_until time;
                true
          in
          step_agrees
          && !fired = !model_fired
          && Engine.now e = !clock
          && Engine.processed e = !processed
          && Engine.pending e
             = List.length (List.filter (fun ev -> !(ev.m_live)) !queue)
          && List.for_all (fun (handle, live) -> Engine.timer_live handle = !live) !timers)
        ops)

(* --- Noise ------------------------------------------------------------- *)

let test_noise_exact () =
  let rng = Rng.create 1 in
  for _ = 1 to 10 do
    check_feq "exact is identity" 123.4 (Noise.apply Noise.Exact rng 123.4)
  done

let test_noise_positive =
  QCheck.Test.make ~name:"noise factors are positive" ~count:(Testutil.count 500) QCheck.(int_bound 1_000)
    (fun seed ->
      let rng = Rng.create seed in
      Noise.factor (Noise.Lognormal 0.3) rng > 0.
      && Noise.factor (Noise.Uniform 0.5) rng > 0.)

let test_noise_uniform_bounds () =
  let rng = Rng.create 2 in
  for _ = 1 to 500 do
    let f = Noise.factor (Noise.Uniform 0.1) rng in
    Alcotest.(check bool) "within band" true (f >= 0.9 && f <= 1.1)
  done;
  Alcotest.check_raises "eps out of range"
    (Invalid_argument "Noise.factor: Uniform eps outside [0, 1)") (fun () ->
      ignore (Noise.factor (Noise.Uniform 1.5) rng))

let test_noise_lognormal_centered () =
  let rng = Rng.create 3 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. log (Noise.factor (Noise.Lognormal 0.1) rng)
  done;
  Alcotest.(check bool) "median ~ 1 (mean log ~ 0)" true
    (Float.abs (!sum /. float_of_int n) < 0.005)

(* --- Plans ------------------------------------------------------------- *)

let machines () = Machines.expand (Grid5000.grid ())

let test_plan_validation () =
  Alcotest.check_raises "root has parent" (Invalid_argument "Plan.v: root has a parent")
    (fun () -> ignore (Plan.v ~root:0 ~children:[| [ 1 ]; [ 0 ] |]));
  Alcotest.check_raises "not spanning" (Invalid_argument "Plan.v: not a spanning tree")
    (fun () -> ignore (Plan.v ~root:0 ~children:[| []; [] |]));
  Alcotest.check_raises "duplicate child" (Invalid_argument "Plan.v: not a spanning tree")
    (fun () -> ignore (Plan.v ~root:0 ~children:[| [ 1; 1 ]; [] |]));
  let ok = Plan.v ~root:0 ~children:[| [ 1; 2 ]; []; [] |] in
  Alcotest.(check int) "size" 3 (Plan.size ok);
  Alcotest.(check int) "depth" 1 (Plan.depth ok)

let test_plan_binomial_ranks () =
  let m = machines () in
  let p = Plan.binomial_ranks m ~root:5 in
  Alcotest.(check int) "spans all ranks" 88 (Plan.size p);
  Alcotest.(check int) "rooted correctly" 5 p.Plan.root;
  Alcotest.(check int) "binomial depth for 88 ranks" 6 (Plan.depth p);
  let parents = Plan.parent_array p in
  Alcotest.(check int) "root parent is root" 5 parents.(5)

let test_plan_flat_ranks () =
  let m = machines () in
  let p = Plan.flat_ranks m ~root:0 in
  Alcotest.(check int) "depth 1" 1 (Plan.depth p);
  Alcotest.(check int) "87 children" 87 (List.length p.Plan.children.(0))

let test_plan_of_schedule_structure () =
  let m = machines () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 (Grid5000.grid ()) in
  let sched = Sched_engine.run Policy.ecef_la inst in
  let p = Plan.of_cluster_schedule m sched in
  Alcotest.(check int) "spans ranks" 88 (Plan.size p);
  Alcotest.(check int) "rooted at coordinator 0" 0 p.Plan.root;
  (* Every coordinator's inter-cluster children precede its intra children:
     the first |inter| children of a relaying coordinator are coordinators. *)
  let coordinators = List.init 6 (Machines.coordinator m) in
  List.iter
    (fun e ->
      let src_coord = Machines.coordinator m e.Schedule.src in
      let dst_coord = Machines.coordinator m e.Schedule.dst in
      Alcotest.(check bool)
        (Printf.sprintf "coordinator %d forwards to coordinator %d" src_coord dst_coord)
        true
        (List.mem dst_coord p.Plan.children.(src_coord));
      Alcotest.(check bool) "dst is a coordinator" true (List.mem dst_coord coordinators))
    sched.Schedule.events

let test_plan_of_flat_schedule () =
  let m = machines () in
  let inst = Gridb_sched.Instance.of_machines ~root:0 ~msg:1_000_000 m in
  let schedule = Sched_engine.run Policy.ecef inst in
  let plan = Plan.of_flat_schedule m schedule in
  Alcotest.(check int) "spans all machines" 88 (Plan.size plan);
  (* the DES agrees with the flat schedule's analytic makespan (T = 0) *)
  let r = Exec.run ~msg:1_000_000 m plan in
  check_feq "DES = analytic" (Schedule.makespan inst schedule) r.Exec.makespan

let plan_of_schedule_spans_random =
  QCheck.Test.make ~name:"hierarchical plans span random grids" ~count:(Testutil.count 40)
    QCheck.(pair (int_range 1 8) (int_bound 1_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let grid = Generators.uniform_random ~rng ~n Generators.default_random_spec in
      let m = Machines.expand grid in
      let inst = Instance.of_grid ~root:0 ~msg:500_000 grid in
      List.for_all
        (fun h ->
          let p = Plan.of_cluster_schedule m (Sched_engine.run h inst) in
          Plan.size p = Machines.count m)
        Policy.all)

(* --- Exec: exactness against the analytic models ------------------------ *)

let test_exec_matches_schedule_makespan () =
  let grid = Grid5000.grid () in
  let m = Machines.expand grid in
  List.iter
    (fun msg ->
      let inst = Instance.of_grid ~root:0 ~msg grid in
      List.iter
        (fun h ->
          let sched = Sched_engine.run h inst in
          let predicted = Schedule.makespan inst sched in
          let plan = Plan.of_cluster_schedule m sched in
          let r = Exec.run ~msg m plan in
          check_feq ~eps:1e-9
            (Printf.sprintf "%s at %d B" (Policy.name h) msg)
            predicted r.Exec.makespan)
        Policy.all)
    [ 1_000; 1_000_000; 4_000_000 ]

let test_exec_matches_tree_cost () =
  (* A single homogeneous cluster: the DES over the binomial plan equals the
     closed-form Cost.broadcast_time. *)
  let params = Params.linear ~latency:50. ~g0:20. ~bandwidth_mb_s:100. in
  let grid = Generators.homogeneous ~n:1 ~cluster_size:24 ~inter:params ~intra:params in
  let m = Machines.expand grid in
  let plan = Plan.binomial_ranks m ~root:0 in
  let msg = 100_000 in
  let r = Exec.run ~msg m plan in
  check_feq "matches Cost model"
    (Gridb_collectives.Cost.broadcast_time ~params ~size:24 ~msg ())
    r.Exec.makespan

let test_exec_transmissions_count () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let r = Exec.run m plan in
  Alcotest.(check int) "n-1 transmissions" 87 r.Exec.transmissions;
  Alcotest.(check bool) "all ranks reached" true
    (Array.for_all (fun t -> not (Float.is_nan t)) r.Exec.arrival)

let test_exec_start_delay_shifts () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let base = (Exec.run m plan).Exec.makespan in
  let shifted = (Exec.run ~start_delay:1234. m plan).Exec.makespan in
  check_feq "uniform shift" (base +. 1234.) shifted

let test_exec_noise_perturbs_but_is_seeded () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let noisy seed =
    (Exec.run ~noise:(Noise.Lognormal 0.1) ~rng:(Rng.create seed) m plan).Exec.makespan
  in
  let a = noisy 5 and b = noisy 5 and c = noisy 6 in
  check_feq "same seed same result" a b;
  Alcotest.(check bool) "different seed differs" true (not (feq a c));
  let exact = (Exec.run m plan).Exec.makespan in
  Alcotest.(check bool) "noise changes the result" true (not (feq a exact))

let test_exec_mean_makespan_reasonable () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let exact = (Exec.run m plan).Exec.makespan in
  let mean = Exec.mean_makespan ~noise:(Noise.Lognormal 0.05) ~repetitions:30 ~seed:1 m plan in
  Alcotest.(check bool) "mean within 10% of exact" true
    (Float.abs (mean -. exact) /. exact < 0.1)

let exec_arrival_monotone_along_tree =
  QCheck.Test.make ~name:"children always arrive after parents" ~count:(Testutil.count 30)
    QCheck.(pair (int_range 1 6) (int_bound 1_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let grid = Generators.uniform_random ~rng ~n Generators.default_random_spec in
      let m = Machines.expand grid in
      let plan = Plan.binomial_ranks m ~root:0 in
      let r = Exec.run ~noise:(Noise.Lognormal 0.2) ~rng m plan in
      let parents = Plan.parent_array plan in
      let ok = ref true in
      Array.iteri
        (fun rank parent ->
          if rank <> plan.Plan.root then
            ok := !ok && r.Exec.arrival.(rank) > r.Exec.arrival.(parent))
        parents;
      !ok)

(* --- Trace ------------------------------------------------------------ *)

(* A run observed by a Memory sink, and the trace read back off it. *)
let traced ?msg m plan =
  let obs = Gridb_obs.Sink.memory () in
  let r = Exec.run ?msg ~obs m plan in
  (r, Gridb_des.Trace.of_events (Gridb_obs.Sink.events obs))

let test_trace_recorded_on_request () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let r, trace = traced m plan in
  Alcotest.(check int) "one record per transmission" r.Exec.transmissions
    (List.length trace);
  Alcotest.(check int) "87 transmissions" 87 (List.length trace)

let test_trace_flat_root_busiest () =
  let m = machines () in
  let plan = Plan.flat_ranks m ~root:0 in
  let r, trace = traced m plan in
  (match Gridb_des.Trace.busiest_sender trace with
  | Some (rank, busy) ->
      Alcotest.(check int) "root carries all traffic" 0 rank;
      Alcotest.(check bool) "busy the whole run" true (busy > 0.9 *. r.Exec.makespan)
  | None -> Alcotest.fail "no senders");
  Alcotest.(check int) "only one sender" 1
    (List.length (Gridb_des.Trace.sender_busy_time trace))

let test_trace_critical_path () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let r, trace = traced m plan in
  let path = Gridb_des.Trace.critical_path trace in
  Alcotest.(check bool) "non-empty" true (path <> []);
  (* path starts at the root and ends at the latest arrival *)
  let first = List.hd path and last = List.nth path (List.length path - 1) in
  Alcotest.(check int) "starts at root" 0 first.Gridb_des.Trace.src;
  check_feq "ends at makespan" r.Exec.makespan last.Gridb_des.Trace.arrival;
  (* hops chain: receiver of hop i = sender of hop i+1 *)
  let rec chained = function
    | a :: (b :: _ as rest) ->
        a.Gridb_des.Trace.dst = b.Gridb_des.Trace.src && chained rest
    | _ -> true
  in
  Alcotest.(check bool) "chained" true (chained path)

let test_trace_total_bytes () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let _, trace = traced ~msg:1_000 m plan in
  Alcotest.(check int) "87 KB moved" 87_000 (Gridb_des.Trace.total_bytes trace)

(* --- Send programs ---------------------------------------------------- *)

(* GRID5000 with every link's gap and latency scaled by [f]: the same rank
   space, so one plan runs on both views. *)
let scaled_machines f =
  let g = Grid5000.grid () in
  let k = Grid.size g in
  let clusters =
    Array.to_list
      (Array.map
         (fun (c : Cluster.t) ->
           Cluster.v ~id:c.Cluster.id ~name:c.Cluster.name ~size:c.Cluster.size
             ~intra:(Params.scale_noise ~factor:f c.Cluster.intra))
         (Grid.clusters g))
  in
  let inter =
    Array.init k (fun i ->
        Array.init k (fun j ->
            let p = if i = j then (Grid.cluster g i).Cluster.intra else Grid.link g i j in
            Params.scale_noise ~factor:f p))
  in
  Machines.expand (Grid.v ~clusters ~inter)

let ecef_plan m =
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 (Machines.grid m) in
  Plan.of_cluster_schedule m (Sched_engine.run Policy.ecef_la inst)

let bits a = Array.map Int64.bits_of_float a

(* Everything a reliable run reports except the estimator, plus the events
   its Memory sink saw. *)
let reliable_view (r : Exec.reliable) events =
  ( ( bits r.Exec.r_arrival,
      Int64.bits_of_float r.Exec.r_makespan,
      r.Exec.r_transmissions,
      r.Exec.retransmissions,
      r.Exec.acks,
      r.Exec.delivered ),
    (r.Exec.gave_up, r.Exec.crashed, Int64.bits_of_float r.Exec.horizon, r.Exec.reroutes,
     r.Exec.circuit_opens),
    events )

let run_both ?faults ?(transport = Exec.Fixed) ~noise ~seed ~msg m plan =
  let obs = Sink.memory () in
  let r = Exec.run ~noise ~rng:(Rng.create seed) ~msg ~obs m plan in
  let best = (bits r.Exec.arrival, r.Exec.transmissions, Sink.events obs) in
  let obs = Sink.memory () in
  let rr =
    Exec.run_reliable ~noise ~rng:(Rng.create seed) ~msg ~obs ?faults ~transport m plan
  in
  (best, reliable_view rr (Sink.events obs))

let test_program_memo_matches_fresh_plans () =
  let m1 = machines () and m2 = scaled_machines 1.5 in
  let shared = ecef_plan m1 in
  let faults m = Faults.create ~seed:3 ~n:(Machines.count m) (Faults.v ~loss:0.1 ()) in
  List.iteri
    (fun i (m, msg) ->
      List.iter
        (fun noise ->
          let case = Printf.sprintf "step %d, %s" i (Noise.to_string noise) in
          let once plan = run_both ~faults:(faults m) ~noise ~seed:i ~msg m plan in
          Alcotest.(check bool) (case ^ ": shared plan = fresh plan") true
            (compare (once shared) (once (ecef_plan m1)) = 0))
        [ Noise.Exact; Noise.Lognormal 0.1 ])
    [ (m1, 1_000_000); (m1, 65_536); (m2, 1_000_000); (m1, 1_000_000); (m2, 65_536);
      (m2, 1_000_000) ];
  (* The slot hits on the same (physical) view and size, and recompiles on
     any other. *)
  let p = Plan.program shared m1 ~msg:1_000 in
  Alcotest.(check bool) "same key hits" true (Plan.program shared m1 ~msg:1_000 == p);
  Alcotest.(check bool) "other size recompiles" false
    (Plan.program shared m1 ~msg:2_000 == p);
  Alcotest.(check bool) "other view recompiles" false
    (Plan.program shared (machines ()) ~msg:2_000 == p)

let test_program_entries () =
  let m = machines () and msg = 65_536 in
  let plan = ecef_plan m in
  let p = Plan.program plan m ~msg in
  let parents = Plan.parent_array plan in
  Array.iteri
    (fun k kids ->
      let csr =
        List.init
          (p.Plan.first_child.(k + 1) - p.Plan.first_child.(k))
          (fun i -> p.Plan.child.(p.Plan.first_child.(k) + i))
      in
      Alcotest.(check (list int)) "children in forwarding order" kids csr;
      if k = plan.Plan.root then
        Alcotest.(check int) "root has no parent" (-1) p.Plan.parent.(k)
      else begin
        let r = parents.(k) in
        Alcotest.(check int) "parent" r p.Plan.parent.(k);
        let l = Machines.link_params m r k and lb = Machines.link_params m k r in
        let same name a b =
          Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)
        in
        same "gap" (Params.gap l msg) p.Plan.gap.(k);
        same "latency" (Params.latency l) p.Plan.latency.(k);
        same "reverse latency" (Params.latency lb) p.Plan.latency_back.(k);
        same "round trip"
          (Params.gap l msg +. Params.latency l +. Params.latency lb)
          p.Plan.round_trip.(k)
      end)
    plan.Plan.children;
  let link = Params.linear ~latency:1. ~g0:1. ~bandwidth_mb_s:1. in
  let small =
    Machines.expand (Generators.homogeneous ~n:1 ~cluster_size:3 ~inter:link ~intra:link)
  in
  Alcotest.check_raises "view size mismatch"
    (Invalid_argument "Plan.program: plan size mismatch") (fun () ->
      ignore (Plan.program plan small ~msg))

let test_program_shared_across_domains () =
  let m = machines () in
  let plan = ecef_plan m in
  let summary jobs =
    Exec.mean_reliable ~noise:(Noise.Lognormal 0.08) ~repetitions:8 ~jobs ~seed:11
      ~spec:(Faults.v ~loss:0.05 ()) m plan
  in
  let parallel = summary 4 in
  Alcotest.(check bool) "jobs 4 = jobs 1" true (compare parallel (summary 1) = 0)

let test_no_fault_model_equals_empty_model () =
  let m = machines () in
  let plan = ecef_plan m in
  let none = Faults.create ~n:(Machines.count m) Faults.none in
  List.iter
    (fun transport ->
      List.iter
        (fun msg ->
          let run faults =
            let obs = Sink.memory () in
            let r =
              Exec.run_reliable ~noise:(Noise.Lognormal 0.1) ~rng:(Rng.create 7) ~msg ~obs
                ?faults ~transport m plan
            in
            reliable_view r (Sink.events obs)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s at %d B" (Exec.transport_to_string transport) msg)
            true
            (compare (run None) (run (Some none)) = 0))
        [ 65_536; 1_000_000 ])
    [ Exec.Fixed; Exec.adaptive (); Exec.adaptive ~reroute:true () ]

(* --- Overhead ------------------------------------------------------------ *)

let test_overhead_shapes () =
  Alcotest.(check bool) "flat linear" true
    (Overhead.evaluations ~n:50 Policy.flat_tree = 50.);
  let ecef = Overhead.evaluations ~n:20 Policy.ecef in
  let la = Overhead.evaluations ~n:20 Policy.ecef_la in
  Alcotest.(check bool) "lookahead costs more" true (la > ecef);
  Alcotest.(check bool) "LAT like LA" true
    (Overhead.evaluations ~n:20 Policy.ecef_lat_max = la);
  (* pair scans: sum r(n-r) for n=4 -> 3+4+3 = 10 *)
  Alcotest.(check bool) "pair scan n=4" true (Overhead.evaluations ~n:4 Policy.ecef = 10.);
  (* lookahead: sum b(b-1) for n=4 -> 3*2 + 2*1 + 1*0 = 8 on top of the scan *)
  Alcotest.(check bool) "lookahead n=4" true
    (Overhead.evaluations ~n:4 Policy.ecef_la = 18.);
  (* a parameterised lookahead is charged by its descriptor's shape *)
  let min_edge_t = Option.get (Policy.by_name "ECEF-LA<min-edge+T>") in
  Alcotest.(check bool) "ECEF-LA<...> charged for lookahead" true
    (Overhead.evaluations ~n:20 min_edge_t = la);
  let mixed = Gridb_sched.Mixed.strategy () in
  Alcotest.(check bool) "mixed small branch" true
    (Overhead.evaluations ~n:8 mixed = Overhead.evaluations ~n:8 Policy.ecef_la);
  Alcotest.(check bool) "mixed large branch" true
    (Overhead.evaluations ~n:20 mixed = Overhead.evaluations ~n:20 Policy.ecef_lat_max);
  check_feq "cost scales"
    (2. *. Overhead.cost_us ~per_evaluation_us:1. ~n:10 Policy.ecef)
    (Overhead.cost_us ~per_evaluation_us:2. ~n:10 Policy.ecef)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "des"
    [
      ( "engine",
        [
          quick "orders events" test_engine_orders_events;
          quick "fifo ties" test_engine_fifo_for_ties;
          quick "cascading" test_engine_cascading;
          quick "rejects past" test_engine_rejects_past;
          quick "run_until" test_engine_run_until;
          quick "schedule rejects NaN" test_engine_rejects_nan_schedule;
          quick "schedule_after rejects NaN" test_engine_rejects_nan_schedule_after;
          quick "schedule_timer rejects NaN" test_engine_rejects_nan_schedule_timer;
          quick "words per event flat in depth"
            (check_words_flat_in_depth ~with_timer:false);
          quick "fired events are released" test_engine_releases_fired_events;
          quick "cancelled timers are released" test_engine_releases_cancelled_timers;
          quick "pending after mass cancellation" test_engine_pending_after_mass_cancel;
          quick "timer chain words per event flat in depth"
            (check_words_flat_in_depth ~with_timer:true);
          quick "words per event flat at 30k pending"
            (check_words_flat_in_depth ~depth:30_000 ~with_timer:false);
          quick "timer chain words per event flat at 30k pending"
            (check_words_flat_in_depth ~depth:30_000 ~with_timer:true);
          quick "release at 30k pending" test_engine_release_at_30k_pending;
          quick "schedule below the refilled minimum" test_engine_schedule_below_refilled_minimum;
          quick "cancel far timers" test_engine_cancel_far_timers;
        ] );
      ( "heap",
        [
          quick "sorts" test_heap_sorts;
          quick "of_array" test_heap_of_array;
          quick "peek/pop" test_heap_peek_pop;
          QCheck_alcotest.to_alcotest test_heap_invariant_random;
          quick "ties" test_heap_stability_order;
          QCheck_alcotest.to_alcotest test_heap_differential;
        ] );
      ( "noise",
        [
          quick "exact identity" test_noise_exact;
          QCheck_alcotest.to_alcotest test_noise_positive;
          quick "uniform bounds" test_noise_uniform_bounds;
          quick "lognormal centered" test_noise_lognormal_centered;
        ] );
      ( "plan",
        [
          quick "validation" test_plan_validation;
          quick "binomial ranks" test_plan_binomial_ranks;
          quick "flat ranks" test_plan_flat_ranks;
          quick "of schedule structure" test_plan_of_schedule_structure;
          quick "of flat schedule" test_plan_of_flat_schedule;
          QCheck_alcotest.to_alcotest plan_of_schedule_spans_random;
        ] );
      ( "exec",
        [
          quick "matches schedule makespan" test_exec_matches_schedule_makespan;
          quick "matches tree cost" test_exec_matches_tree_cost;
          quick "transmission count" test_exec_transmissions_count;
          quick "start delay" test_exec_start_delay_shifts;
          quick "seeded noise" test_exec_noise_perturbs_but_is_seeded;
          quick "mean makespan" test_exec_mean_makespan_reasonable;
          QCheck_alcotest.to_alcotest exec_arrival_monotone_along_tree;
        ] );
      ( "trace",
        [
          quick "recorded on request" test_trace_recorded_on_request;
          quick "flat root busiest" test_trace_flat_root_busiest;
          quick "critical path" test_trace_critical_path;
          quick "total bytes" test_trace_total_bytes;
        ] );
      ( "program",
        [
          quick "memo matches fresh plans" test_program_memo_matches_fresh_plans;
          quick "entries" test_program_entries;
          quick "shared across domains" test_program_shared_across_domains;
          quick "no fault model = empty model" test_no_fault_model_equals_empty_model;
        ] );
      ("overhead", [ quick "shapes" test_overhead_shapes ]);
    ]
