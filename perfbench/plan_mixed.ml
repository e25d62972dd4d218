(* plan-mixed: a closed loop from one caller on one domain that plans a
   seeded corpus of Table 2 instances with every paper policy, no cache.
   The scheduler does all the work; nothing is simulated. *)

module Instance = Gridb_sched.Instance
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Schedule = Gridb_sched.Schedule
module Bounds = Gridb_sched.Bounds
module Rng = Gridb_util.Rng
module Sink = Gridb_obs.Sink

type scale = {
  paper : int;  (** instances at the paper's sizes, n cycling over 6..32 *)
  tail : int list;  (** sizes of the large-n tail *)
}

(* The size mix is fixed; the seed draws only the matrices, so every seed
   plans the same amount of work at the same sizes. *)
let full = { paper = 135; tail = [ 64; 72; 80; 88; 96; 104; 112; 120; 128; 64; 96; 128 ] }
let smoke = { paper = 27; tail = [ 64 ] }

let sizes scale = List.init scale.paper (fun i -> 6 + (i mod 27)) @ scale.tail

let corpus scale ~seed =
  let base = Rng.create seed in
  Array.of_list
    (List.mapi
       (fun k n -> Instance.random ~rng:(Rng.split base k) ~n Instance.table2_ranges)
       (sizes scale))

let policies = Array.of_list Policy.all

(* Every (instance, policy) pair once, in corpus order: one pass. *)
let iter_pass corpus f =
  let np = Array.length policies in
  Array.iteri (fun k inst -> Array.iteri (fun j p -> f ((k * np) + j) inst p) policies) corpus

let ops corpus = Array.length corpus * Array.length policies

(* The output check on one plan: it validates and its makespan is not
   below the combined lower bound.  Returns the makespan / bound gap and
   the problems found. *)
let check inst p s =
  let mk = Schedule.makespan inst s and lb = Bounds.combined inst in
  let why fmt =
    Printf.ksprintf (fun e -> Printf.sprintf "%s on n=%d: %s" (Policy.name p) inst.Instance.n e) fmt
  in
  ( mk /. lb,
    (match Schedule.validate inst s with Ok () -> [] | Error e -> [ why "%s" e ])
    @ if mk < lb -. 1e-9 then [ why "makespan %.17g below bound %.17g" mk lb ] else [] )

(* The gate pass: every plan checked.  Returns the makespans, gaps, the
   share of clusters the schedules reach and the problems found. *)
let gate corpus =
  let n = ops corpus in
  let makespan = Array.make n nan and gap = Array.make n nan in
  let reached = ref 0 and clusters = ref 0 and violations = ref [] in
  iter_pass corpus (fun i inst p ->
      let s = Engine.run p inst in
      let g, problems = check inst p s in
      makespan.(i) <- Schedule.makespan inst s;
      gap.(i) <- g;
      reached := !reached + Array.fold_left (fun c t -> if Float.is_finite t then c + 1 else c) 0 s.Schedule.ready;
      clusters := !clusters + inst.Instance.n;
      violations := !violations @ problems);
  (makespan, gap, Measure.ratio !reached !clusters, !violations)

(* One timed pass: sorted per-call latencies (us), engine time (s),
   allocated words, and how many plans failed to reproduce the gated
   makespan bit for bit. *)
let timed_pass corpus ~makespan =
  let lat = Array.make (ops corpus) 0. and busy = ref 0 and alloc = ref 0. and mismatches = ref 0 in
  iter_pass corpus (fun i inst p ->
      let a0 = Measure.allocated_words () in
      let t0 = Measure.now_ns () in
      let s = Engine.run p inst in
      let t1 = Measure.now_ns () in
      alloc := !alloc +. (Measure.allocated_words () -. a0);
      busy := !busy + (t1 - t0);
      lat.(i) <- float_of_int (t1 - t0) *. 1e-3;
      if Int64.bits_of_float (Schedule.makespan inst s) <> Int64.bits_of_float makespan.(i) then
        incr mismatches);
  (Measure.sorted_copy lat, float_of_int !busy *. 1e-9, !alloc, !mismatches)

let run scale ~seed ~seconds ~trace =
  let corpus, setup_s =
    Measure.timed_median ~repeats:(if trace then 1 else 21) (fun () -> corpus scale ~seed)
  in
  let makespan, gap, reached, violations = gate corpus in
  let n = ops corpus in
  let failed = List.length violations in
  if not trace then begin
    (* The gate pass doubled as the warm-up: lazy set-up is done. *)
    let passes = Measure.repeat ~seconds ~min:2 (fun () -> timed_pass corpus ~makespan) in
    let plans = n * List.length passes in
    let alloc = List.fold_left (fun acc (_, _, a, _) -> acc +. a) 0. passes in
    let mismatches = List.fold_left (fun acc (_, _, _, k) -> acc + k) 0 passes in
    let mks = Measure.sorted_copy makespan in
    let violations =
      if mismatches = 0 then violations
      else Printf.sprintf "plan-mixed: %d repeated plans changed makespan" mismatches :: violations
    in
    let open Measure in
    ( { attempted = plans;
        failed = failed + mismatches;
        violations;
        metrics =
          [ m "setup_s" "s" setup_s;
            (* The best pass (see [Measure.best]); a pass is 1029 calls. *)
            m "ops_per_s" "1/s" (best Float.max (fun (_, busy, _, _) -> float_of_int n /. busy) passes);
            m "plan_latency_p50_us" "us" (best Float.min (fun (l, _, _, _) -> percentile l 50.) passes);
            m "plan_latency_p99_us" "us" (best Float.min (fun (l, _, _, _) -> percentile l 99.) passes);
            m ~tol:0. "plan_gap_mean" "ratio" (mean gap);
            m ~tol:0. "sim_makespan_p50_s" "s" (percentile mks 50. *. 1e-6);
            m ~tol:0. "sim_makespan_p99_s" "s" (percentile mks 99. *. 1e-6);
            (* A plan is served when it passes the gate. *)
            m ~tol:0. "served_ratio" "ratio" (ratio (n - failed) n);
            m ~tol:0. "delivery_ratio" "ratio" reached;
            (* No request carries a deadline: attainment is 1 by the
               service's own convention for classes with nothing due. *)
            m ~tol:0. "deadline_attainment_high" "ratio" 1.;
            m ~tol:0. "deadline_attainment_low" "ratio" 1.;
            m ~tol:0. "alloc_words_per_op" "words" (alloc /. float_of_int plans);
            m "peak_heap_mb" "MB" (peak_heap_mb ()) ] },
      None )
  end
  else begin
    (* Untraced passes give the overhead baseline and the GC figures. *)
    let untraced =
      Measure.repeat ~seconds:(seconds /. 2.) ~min:1 (fun () ->
          let g0 = Measure.gc_snapshot () in
          let t0 = Measure.now_ns () in
          iter_pass corpus (fun _ inst p -> ignore (Engine.run p inst));
          let wall = Measure.seconds_since t0 in
          (wall, Measure.gc_diff g0 (Measure.gc_snapshot ())))
    in
    let traced =
      Measure.repeat ~seconds:(seconds /. 2.) ~min:1 (fun () ->
          let led = Ledger.create () in
          Ledger.span led Ledger.Root ~rid:(-1) (fun () ->
              iter_pass corpus (fun i inst p ->
                  ignore
                    (Ledger.span ~tag:inst.Instance.n led Ledger.Engine ~rid:i (fun () ->
                         Engine.run p inst))));
          (led, Layers.timing_of led))
    in
    (* Counters come from a separate pass on a Memory sink, so the event
       bus does not inflate the timed spans. *)
    let t = Layers.create () in
    iter_pass corpus (fun _ inst p ->
        let sink = Sink.memory () in
        ignore (Engine.run ~obs:sink p inst);
        Layers.add_engine_counters t (Sink.events sink));
    t.Layers.engine_plans <- n;
    t.Layers.gc <- snd (List.hd untraced);
    t.Layers.untraced_wall_s <- Measure.median (List.map fst untraced);
    ( { Measure.attempted = n * (List.length untraced + List.length traced);
        failed;
        violations;
        metrics = Layers.metrics t (Layers.median_timing (List.map snd traced)) },
      Some (fst (List.hd traced)) )
  end
