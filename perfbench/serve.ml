(* serve-overload and serve-chaos: [Server.run] over seeded open-loop
   request batches on GRID5000, each call timed as a whole in a process of
   its own, plus a traced re-drive that calls the layers' public functions
   in [Server.run]'s order with a span around each call. *)

module Grid5000 = Gridb_topology.Grid5000
module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid
module Fingerprint = Gridb_topology.Fingerprint
module Instance = Gridb_sched.Instance
module Policy = Gridb_sched.Policy
module Sched_engine = Gridb_sched.Engine
module Schedule = Gridb_sched.Schedule
module Bounds = Gridb_sched.Bounds
module Session = Gridb_des.Session
module Wire = Gridb_des.Wire
module Des_engine = Gridb_des.Engine
module Plan = Gridb_des.Plan
module Faults = Gridb_des.Faults
module Adaptive = Gridb_des.Adaptive
module Exec = Gridb_des.Exec
module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event
module Profile = Gridb_obs.Profile
module Rng = Gridb_util.Rng
module Workload = Gridb_service.Workload
module Plan_cache = Gridb_service.Plan_cache
module Admission = Gridb_service.Admission
module Server = Gridb_service.Server

type config = {
  rate : float;  (** requests per simulated second *)
  duration : float;  (** arrival window, simulated us *)
  max_concurrent : int;
  mix : string;  (** {!Workload.mix_of_string} grammar *)
  faults : string option;  (** {!Faults.of_string} grammar *)
  transport : string;  (** {!Exec.transport_of_string} grammar *)
  retry_budget : int;
  shed : (float * float) option;  (** watermark us, open-circuit fraction *)
  profile : bool;  (** Memory sink rolled up by [Profile], as [serve --profile] *)
  batches : int;  (** independent request batches served per repetition *)
}

let overload =
  { rate = 2000.; duration = 1e7; max_concurrent = 64; mix = "default"; faults = None;
    transport = "fixed"; retry_budget = 0; shed = None; profile = false; batches = 1 }

let chaos =
  { rate = 5.; duration = 6.25e6; max_concurrent = 64; mix = "deadlines=4000000,high=0.3";
    faults = Some "loss=0.1,crash=2e-9"; transport = "adaptive"; retry_budget = 2;
    shed = Some (5e5, 0.5); profile = true; batches = 64 }

(* Reduced scale for the smoke test. *)
let smoke cfg =
  if cfg.batches > 1 then { cfg with batches = 4 } else { cfg with duration = cfg.duration /. 10. }

let ok = function Ok v -> v | Error e -> failwith e

(* The server's seed is the workload seed + 1, as in [gridsched serve]. *)
let server_seed seed = seed + 1

(* One [Server.run] input: the server's seed and the request stream. *)
type batch = { server_seed : int; requests : Workload.request list }

type setup = {
  grid : Grid.t;
  machines : Machines.t;
  batches : batch array;
  faults : Faults.spec option;
  transport : Session.transport;
  retry : Server.retry;
}

let setup cfg ~seed =
  let grid = Grid5000.grid () in
  let machines = Machines.expand grid in
  let mix = ok (Workload.mix_of_string machines cfg.mix) in
  let base = Rng.create seed in
  let batch k =
    (* Batch 0 is [gridsched serve --seed SEED]'s stream; the others draw
       their seeds from it. *)
    let seed = if k = 0 then seed else Rng.int (Rng.split base k) 0x3FFFFFFF in
    { server_seed = server_seed seed;
      requests =
        Workload.generate ~mix ~seed ~rate:(cfg.rate /. 1e6) ~duration:cfg.duration machines }
  in
  { grid;
    machines;
    batches = Array.init cfg.batches batch;
    faults = Option.map (fun s -> ok (Faults.of_string s)) cfg.faults;
    transport = ok (Exec.transport_of_string cfg.transport);
    retry =
      (if cfg.retry_budget = 0 then Server.no_retry
       else Server.retry ~budget:cfg.retry_budget ()) }

let admission cfg =
  let shed =
    match cfg.shed with
    | None -> Admission.no_shed
    | Some (watermark_us, max_open_frac) -> Admission.shed ~watermark_us ~max_open_frac ()
  in
  Admission.create ~max_concurrent:cfg.max_concurrent ~shed ()

let sink cfg = if cfg.profile then Sink.memory () else Sink.null

(* --- the untraced call ------------------------------------------------ *)

type served = { report : Server.report; obs_events : int }

let serve_once cfg st (b : batch) =
  let obs = sink cfg in
  let report =
    Server.run ~jobs:1 ~transport:st.transport ~admission:(admission cfg) ~obs
      ~seed:b.server_seed ?faults:st.faults ~retry:st.retry st.machines b.requests
  in
  if cfg.profile then ignore (Profile.render (Profile.of_events (Sink.events obs)));
  { report; obs_events = Sink.count obs }

(* Output gate on one report: the failed requests and what went wrong. *)
let gate (r : Server.report) =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  if r.Server.admitted + r.Server.rejected <> r.Server.requests then
    fail "admitted %d + rejected %d <> requests %d" r.Server.admitted r.Server.rejected
      r.Server.requests;
  let s = r.Server.cache_stats in
  if s.Plan_cache.hits + s.Plan_cache.misses
     <> r.Server.requests - r.Server.invalid + r.Server.retry_lookups
  then
    fail "cache hits %d + misses %d <> requests %d - invalid %d + retry lookups %d"
      s.Plan_cache.hits s.Plan_cache.misses r.Server.requests r.Server.invalid
      r.Server.retry_lookups;
  let aggregate_failed = !violations <> [] in
  let failed = ref 0 and ranks = ref 0 in
  Array.iter
    (fun (o : Server.outcome) ->
      match o.Server.result with
      | None -> ()
      | Some res ->
          let at = o.Server.request.Workload.at and rid = o.Server.request.Workload.rid in
          let population = Array.length res.Session.r_arrival in
          ranks := !ranks + population;
          let bad = ref false in
          if o.Server.delivered_union < 0 || o.Server.delivered_union > population then begin
            bad := true;
            fail "request %d delivered %d of %d ranks" rid o.Server.delivered_union population
          end;
          if res.Session.r_makespan < at
             || ((not (Float.is_nan o.Server.completion_us)) && o.Server.completion_us < at)
          then begin
            bad := true;
            fail "request %d completes before its arrival %.17g" rid at
          end;
          if !bad then incr failed)
    r.Server.outcomes;
  if r.Server.delivered > !ranks then
    fail "delivered %d ranks out of %d" r.Server.delivered !ranks;
  let failed = if aggregate_failed || r.Server.delivered > !ranks then r.Server.requests else !failed in
  (failed, List.rev !violations)

(* What an outcome pins: compared bit for bit between repetitions and
   against the traced re-drive. *)
type summary = {
  admitted : int;
  rejected : int;
  sheds : int;
  stats : Plan_cache.stats;
  delivered : int;
  horizon_us : float;
  requeues : int;
  retry_lookups : int;
  obs_events : int;
}

let summary_of { report = r; obs_events } =
  { admitted = r.Server.admitted;
    rejected = r.Server.rejected;
    sheds = r.Server.sheds;
    stats = r.Server.cache_stats;
    delivered = r.Server.delivered;
    horizon_us = r.Server.horizon_us;
    requeues = r.Server.requeues;
    retry_lookups = r.Server.retry_lookups;
    obs_events }

let differences a b =
  let diffs = ref [] in
  let check what x y = if x <> y then diffs := Printf.sprintf "%s %d vs %d" what x y :: !diffs in
  check "admitted" a.admitted b.admitted;
  check "rejected" a.rejected b.rejected;
  check "sheds" a.sheds b.sheds;
  check "hits" a.stats.Plan_cache.hits b.stats.Plan_cache.hits;
  check "misses" a.stats.Plan_cache.misses b.stats.Plan_cache.misses;
  check "invalidations" a.stats.Plan_cache.invalidations b.stats.Plan_cache.invalidations;
  check "entries" a.stats.Plan_cache.entries b.stats.Plan_cache.entries;
  check "delivered" a.delivered b.delivered;
  check "requeues" a.requeues b.requeues;
  check "retry lookups" a.retry_lookups b.retry_lookups;
  check "obs events" a.obs_events b.obs_events;
  if Int64.bits_of_float a.horizon_us <> Int64.bits_of_float b.horizon_us then
    diffs := Printf.sprintf "horizon %.17g vs %.17g" a.horizon_us b.horizon_us :: !diffs;
  List.rev !diffs

(* What the end-to-end metrics need from one report; batches pool. *)
type quality = {
  makespans : float array;  (** arrival-relative, admitted requests, us *)
  served : int;  (** admitted and delivered to every rank *)
  requests : int;
  delivered : int;
  ranks : int;
  met : int * int;  (** deadlines met, high and low class *)
  due : int * int;  (** deadlines due, high and low class *)
}

let quality_of (r : Server.report) =
  let admitted =
    List.filter_map
      (fun (o : Server.outcome) -> Option.map (fun res -> (o, res)) o.Server.result)
      (Array.to_list r.Server.outcomes)
  in
  let h = r.Server.slo_high and l = r.Server.slo_low in
  { makespans =
      Array.of_list
        (List.map
           (fun ((o : Server.outcome), res) ->
             res.Session.r_makespan -. o.Server.request.Workload.at)
           admitted);
    served =
      List.length
        (List.filter
           (fun ((o : Server.outcome), res) ->
             o.Server.delivered_union >= Array.length res.Session.r_arrival)
           admitted);
    requests = r.Server.requests;
    delivered = h.Server.c_delivered + l.Server.c_delivered;
    ranks = h.Server.c_ranks + l.Server.c_ranks;
    met = (h.Server.c_deadline_met, l.Server.c_deadline_met);
    due = (h.Server.c_deadlines, l.Server.c_deadlines) }

let quality_metrics qs =
  let sum f = List.fold_left (fun acc q -> acc + f q) 0 qs in
  let makespans = Measure.sorted_copy (Array.concat (List.map (fun q -> q.makespans) qs)) in
  (* [Server.deadline_attainment]'s convention: 1 when nothing was due. *)
  let attainment met due = if due = 0 then 1. else Measure.ratio met due in
  let open Measure in
  [ m ~tol:0. "sim_makespan_p50_s" "s" (percentile makespans 50. *. 1e-6);
    m ~tol:0. "sim_makespan_p99_s" "s" (percentile makespans 99. *. 1e-6);
    m ~tol:0. "served_ratio" "ratio" (ratio (sum (fun q -> q.served)) (sum (fun q -> q.requests)));
    m ~tol:0. "delivery_ratio" "ratio" (ratio (sum (fun q -> q.delivered)) (sum (fun q -> q.ranks)));
    m ~tol:0. "deadline_attainment_high" "ratio"
      (attainment (sum (fun q -> fst q.met)) (sum (fun q -> fst q.due)));
    m ~tol:0. "deadline_attainment_low" "ratio"
      (attainment (sum (fun q -> snd q.met)) (sum (fun q -> snd q.due))) ]

(* --- planning on the workload's own keys -------------------------------- *)

let all_requests st = List.concat_map (fun (b : batch) -> b.requests) (Array.to_list st.batches)

(* The distinct (root, size class, policy) keys of the workload, first-seen
   order, each with its policy. *)
let distinct_keys st =
  let seen = Hashtbl.create 64 and keys = ref [] in
  List.iter
    (fun (r : Workload.request) ->
      match Policy.by_name r.Workload.policy with
      | None -> ()
      | Some p ->
          let k = (r.Workload.root, Plan_cache.bucket_of_size r.Workload.msg, r.Workload.policy) in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            keys := (k, p) :: !keys
          end)
    (all_requests st);
  Array.of_list (List.rev !keys)

(* The plan-mixed gate on every key the workload plans, and the mean
   plan gap weighted by the requests using each key. *)
let gate_keys st =
  let gap = Hashtbl.create 64 and violations = ref [] in
  Array.iter
    (fun (((root, bucket, _) as k), p) ->
      let inst = Instance.of_grid ~root ~msg:bucket st.grid in
      let g, problems = Plan_mixed.check inst p (Sched_engine.run p inst) in
      Hashtbl.replace gap k g;
      violations := !violations @ problems)
    (distinct_keys st);
  let gaps =
    List.filter_map
      (fun (r : Workload.request) ->
        Hashtbl.find_opt gap
          (r.Workload.root, Plan_cache.bucket_of_size r.Workload.msg, r.Workload.policy))
      (all_requests st)
  in
  (Measure.mean (Array.of_list gaps), !violations)

(* [samples] timed calls of the server's miss path ([Instance.of_grid] +
   [Engine.run]), round-robin over the workload's keys, in us, after one
   untimed round that brings the keys' data back into cache. *)
let plan_block st keys ~samples =
  let nk = Array.length keys in
  Array.iter
    (fun ((root, bucket, _), p) ->
      ignore (Sched_engine.run p (Instance.of_grid ~root ~msg:bucket st.grid)))
    keys;
  Array.init samples (fun i ->
      let (root, bucket, _), p = keys.(i mod nk) in
      let t0 = Measure.now_ns () in
      ignore (Sched_engine.run p (Instance.of_grid ~root ~msg:bucket st.grid));
      float_of_int (Measure.now_ns () - t0) *. 1e-3)

(* --- the traced re-drive ----------------------------------------------- *)

let count_delivered arr lo hi =
  let c = ref 0 in
  for k = lo to hi - 1 do
    if not (Float.is_nan arr.(k)) then incr c
  done;
  !c

(* The retry's live view, as [Server.run] builds it: nominal inter-cluster
   matrices scaled by the estimator's coordinator-link quality. *)
let estimated_instance est machines (inst : Instance.t) =
  let nc = inst.Instance.n in
  let q c d =
    if c = d then 1.
    else
      Adaptive.quality est ~src:(Machines.coordinator machines c)
        ~dst:(Machines.coordinator machines d)
  in
  let scale mat = Array.init nc (fun i -> Array.init nc (fun j -> mat.(i).(j) *. q i j)) in
  Instance.v ~root:inst.Instance.root ~latency:(scale inst.Instance.latency)
    ~gap:(scale inst.Instance.gap) ~intra:inst.Instance.intra

(* Re-drive [Server.run] on batch [b] through the layers' public
   functions, recording a span per call on [led] and adding the boundary
   counts to [t].  Returns the outcome to compare with the untraced call
   and the planned (policy, instance) pairs, whose engine counters are
   read afterwards. *)
let redrive cfg st (b : batch) led (t : Layers.t) =
  let span ?tag l ~rid f = Ledger.span ?tag led l ~rid f in
  let root_span = Ledger.enter led Ledger.Root ~rid:(-1) in
  let obs = sink cfg in
  let admission = admission cfg in
  let cache = Plan_cache.create ~obs () in
  let machines = st.machines and grid = st.grid in
  let requests = Array.of_list b.requests in
  let nreq = Array.length requests in
  let n = Machines.count machines in
  let fingerprint = span Ledger.Fingerprint ~rid:(-1) (fun () -> Fingerprint.of_machines machines) in
  let key_of (r : Workload.request) =
    Plan_cache.key ~fingerprint ~root:r.Workload.root ~msg:r.Workload.msg
      ~policy:r.Workload.policy
  in
  let planned = ref [] in
  let plan_engine ~rid p inst =
    planned := (p, inst) :: !planned;
    t.Layers.engine_plans <- t.Layers.engine_plans + 1;
    span ~tag:inst.Instance.n Ledger.Engine ~rid (fun () -> Sched_engine.run p inst)
  in
  (* Nominal predicted makespan per key, set by the wave-0 miss. *)
  let predicted_of = Hashtbl.create 64 in
  let wire = Wire.create ~n in
  let engine = Des_engine.create ~obs () in
  let seed = b.server_seed in
  let base = Rng.create seed in
  let fault_base = Rng.create (seed lxor 0x666c7473) in
  let retry_base = Rng.create (seed lxor 0x72747279) in
  let derive b rid attempt = Rng.int (Rng.split (Rng.split b rid) attempt) 0x3FFFFFFF in
  let emit ev = if Sink.enabled obs then Sink.emit obs ev in
  let decide ~rid ?open_frac (r : Workload.request) ~now ~predicted =
    let d =
      span Ledger.Admission ~rid (fun () ->
          Admission.decide ~priority:r.Workload.priority ?open_frac admission ~now
            ~predicted_makespan:predicted)
    in
    t.Layers.decisions <- t.Layers.decisions + 1;
    (match d with
    | Admission.Admit -> t.Layers.admits <- t.Layers.admits + 1
    | Admission.Reject (Admission.Concurrency _) ->
        t.Layers.rejects_concurrency <- t.Layers.rejects_concurrency + 1
    | Admission.Reject (Admission.Backlog _) ->
        t.Layers.rejects_backlog <- t.Layers.rejects_backlog + 1
    | Admission.Reject _ -> ());
    d
  in
  let sheds = ref 0 in
  let shed_by = Array.make nreq 0 in
  let on_reject (r : Workload.request) reason ~time =
    if Admission.is_shed reason then begin
      incr sheds;
      shed_by.(r.Workload.rid) <- shed_by.(r.Workload.rid) + 1;
      emit
        (Event.Shed
           { rid = r.Workload.rid;
             priority = Workload.priority_to_string r.Workload.priority;
             reason = Admission.reason_string reason;
             time })
    end
  in
  let launch (r : Workload.request) ~attempt ~start_delay schedule =
    let rid = r.Workload.rid in
    let plan = span Ledger.Plan ~rid (fun () -> Plan.of_cluster_schedule machines schedule) in
    t.Layers.compiles <- t.Layers.compiles + 1;
    t.Layers.launches <- t.Layers.launches + 1;
    span Ledger.Session ~rid (fun () ->
        let rng =
          if attempt = 0 then Rng.split base rid else Rng.split (Rng.split retry_base rid) attempt
        in
        let faults =
          Option.map
            (fun spec -> Faults.create ~seed:(derive fault_base rid attempt) ~t0:start_delay ~n spec)
            st.faults
        in
        let config =
          Session.Config.v ~rng ~start_delay ~msg:r.Workload.msg ~obs ?faults
            ~transport:st.transport ()
        in
        Session.launch_reliable ~sid:((attempt * nreq) + rid) ~who:"Server.run" ~wire ~engine
          config machines plan)
  in
  let lookup ~rid ?estimator k ~compute =
    t.Layers.cache_lookups <- t.Layers.cache_lookups + 1;
    span Ledger.Plan_cache ~rid (fun () -> Plan_cache.lookup cache ?estimator k ~compute)
  in
  (* Wave 0, in arrival order. *)
  let wave0 =
    Array.map
      (fun (r : Workload.request) ->
        let rid = r.Workload.rid in
        match Policy.by_name r.Workload.policy with
        | None -> None
        | Some p ->
            let k = key_of r in
            let schedule, _ =
              lookup ~rid k ~compute:(fun () ->
                  let inst =
                    Instance.of_grid ~root:r.Workload.root ~msg:k.Plan_cache.bucket grid
                  in
                  let s = plan_engine ~rid p inst in
                  Hashtbl.replace predicted_of k (Schedule.makespan inst s);
                  s)
            in
            let predicted = Hashtbl.find predicted_of k in
            (match decide ~rid r ~now:r.Workload.at ~predicted with
            | Admission.Reject reason ->
                on_reject r reason ~time:r.Workload.at;
                None
            | Admission.Admit ->
                Some (predicted, launch r ~attempt:0 ~start_delay:r.Workload.at schedule)))
      requests
  in
  span Ledger.Des_engine ~rid:(-1) (fun () -> Des_engine.run engine);
  let attempts = Array.make nreq 0 in
  let final : Session.reliable option array = Array.make nreq None in
  let union = Array.make nreq [||] in
  let finished = ref 0 and opened = ref 0 in
  let absorb rid s =
    let res = Session.reliable_result s in
    attempts.(rid) <- attempts.(rid) + 1;
    final.(rid) <- Some res;
    incr finished;
    if res.Session.circuit_opens > 0 then incr opened;
    t.Layers.transmissions <- t.Layers.transmissions + res.Session.r_transmissions;
    t.Layers.retransmissions <- t.Layers.retransmissions + res.Session.retransmissions;
    t.Layers.acks <- t.Layers.acks + res.Session.acks;
    t.Layers.reroutes <- t.Layers.reroutes + List.length res.Session.reroutes;
    t.Layers.circuit_opens <- t.Layers.circuit_opens + res.Session.circuit_opens;
    if Array.length union.(rid) = 0 then union.(rid) <- Array.make n nan;
    let u = union.(rid) in
    for k = 0 to n - 1 do
      let a = res.Session.r_arrival.(k) in
      if (not (Float.is_nan a)) && (Float.is_nan u.(k) || a < u.(k)) then u.(k) <- a
    done
  in
  let needs_retry rid = Array.length union.(rid) > 0 && count_delivered union.(rid) 0 n < n in
  span Ledger.Fold ~rid:(-1) (fun () ->
      Array.iteri
        (fun rid w -> match w with Some (_, s) -> absorb rid s | None -> ())
        wave0);
  (* Retry waves, each run to quiescence. *)
  let requeues = ref 0 and retry_lookups = ref 0 in
  let queue =
    ref
      (if st.retry.Server.budget = 0 then []
       else List.filter (fun (r : Workload.request) -> needs_retry r.Workload.rid) b.requests)
  in
  while !queue <> [] do
    let wave = !queue in
    queue := [];
    let open_frac = if !finished = 0 then 0. else float_of_int !opened /. float_of_int !finished in
    let launched =
      List.filter_map
        (fun (r : Workload.request) ->
          let rid = r.Workload.rid in
          let attempt = attempts.(rid) in
          if attempt > st.retry.Server.budget then None
          else begin
            let prev = Option.get final.(rid) in
            let backoff =
              st.retry.Server.backoff_us *. Float.pow 2. (float_of_int (attempt - 1))
            in
            let retry_at = Float.max (Des_engine.now engine) (prev.Session.r_makespan +. backoff) in
            let k = key_of r in
            let predicted = Hashtbl.find predicted_of k in
            match decide ~rid ~open_frac r ~now:retry_at ~predicted with
            | Admission.Reject reason ->
                on_reject r reason ~time:retry_at;
                None
            | Admission.Admit ->
                let estimator = prev.Session.estimator in
                let compute () =
                  let p = Option.get (Policy.by_name r.Workload.policy) in
                  let inst = Instance.of_grid ~root:r.Workload.root ~msg:k.Plan_cache.bucket grid in
                  let inst =
                    match estimator with
                    | Some est -> estimated_instance est machines inst
                    | None -> inst
                  in
                  plan_engine ~rid p inst
                in
                let schedule, _ = lookup ~rid ?estimator k ~compute in
                incr retry_lookups;
                incr requeues;
                emit (Event.Retry { rid; attempt; time = retry_at });
                Some (r, launch r ~attempt ~start_delay:retry_at schedule)
          end)
        wave
    in
    span Ledger.Des_engine ~rid:(-1) (fun () -> Des_engine.run engine);
    span Ledger.Fold ~rid:(-1) (fun () ->
        List.iter
          (fun ((r : Workload.request), s) ->
            let rid = r.Workload.rid in
            absorb rid s;
            if needs_retry rid && attempts.(rid) <= st.retry.Server.budget then queue := r :: !queue)
          launched);
    queue := List.rev !queue
  done;
  (* Outcome fold: union delivery, deadline verdicts, realised makespans. *)
  let admitted, delivered, realised =
    span Ledger.Fold ~rid:(-1) (fun () ->
        let admitted = ref 0 and delivered = ref 0 and realised = ref [] in
        Array.iteri
          (fun rid (r : Workload.request) ->
            match final.(rid) with
            | None -> ()
            | Some res ->
                incr admitted;
                let u = union.(rid) in
                let base = count_delivered u 0 n in
                let joins = count_delivered res.Session.r_arrival n (Array.length res.Session.r_arrival) in
                delivered := !delivered + base + joins;
                let completion =
                  if base < n then nan else Array.fold_left Float.max neg_infinity u
                in
                if r.Workload.deadline < infinity
                   && not
                        ((not (Float.is_nan completion))
                        && completion -. r.Workload.at <= r.Workload.deadline)
                then
                  emit
                    (Event.Deadline_miss
                       { rid; deadline = r.Workload.deadline; finish = completion });
                (match wave0.(rid) with
                | Some (predicted, _) ->
                    realised := ((res.Session.r_makespan -. r.Workload.at) /. predicted) :: !realised
                | None -> ()))
          requests;
        (!admitted, !delivered, Array.of_list !realised))
  in
  if cfg.profile then
    span Ledger.Profile ~rid:(-1) (fun () ->
        ignore (Profile.render (Profile.of_events (Sink.events obs))));
  Ledger.leave led root_span;
  let stats = Plan_cache.stats cache in
  Layers.(
    t.cache_hits <- t.cache_hits + stats.Plan_cache.hits;
    t.cache_misses <- t.cache_misses + stats.Plan_cache.misses;
    t.cache_invalidations <- t.cache_invalidations + stats.Plan_cache.invalidations;
    t.sheds <- t.sheds + !sheds;
    t.des_events <- t.des_events + Des_engine.processed engine;
    t.realised_over_predicted <-
      Measure.sorted_copy (Array.append t.realised_over_predicted realised);
    t.requeues <- t.requeues + !requeues;
    t.retry_lookups <- t.retry_lookups + !retry_lookups;
    t.obs_events <- t.obs_events + Sink.count obs);
  ( { admitted;
      rejected = nreq - admitted;
      sheds = !sheds;
      stats;
      delivered;
      horizon_us = Des_engine.now engine;
      requeues = !requeues;
      retry_lookups = !retry_lookups;
      obs_events = Sink.count obs },
    List.rev !planned )

(* --- the run ----------------------------------------------------------- *)

(* One timed [Server.run] on one batch (with the profile rollup when
   configured), in a child process.  Only what the run reports comes
   back. *)
type call = {
  wall_s : float;
  alloc : float;
  gc : Measure.gc_delta;
  peak_heap_mb : float;
  summary : summary;
  failed : int;
  violations : string list;
  quality : quality;
}

let timed_call cfg st b =
  Measure.in_child (fun () ->
      let g0 = Measure.gc_snapshot () in
      let a0 = Measure.allocated_words () in
      let t0 = Measure.now_ns () in
      let served = serve_once cfg st b in
      let wall_s = Measure.seconds_since t0 in
      let alloc = Measure.allocated_words () -. a0 in
      let gc = Measure.gc_diff g0 (Measure.gc_snapshot ()) in
      let failed, violations = gate served.report in
      { wall_s; alloc; gc; peak_heap_mb = Measure.peak_heap_mb (); summary = summary_of served;
        failed; violations; quality = quality_of served.report })

(* One repetition: every batch, in order, with [samples] miss-path
   latencies taken after each call. *)
let timed_rep cfg st keys ~samples =
  List.map (fun b -> (timed_call cfg st b, plan_block st keys ~samples)) (Array.to_list st.batches)

let sum f calls = List.fold_left (fun acc c -> acc +. f c) 0. calls

(* Every call passes the gate and every repetition reproduces the first. *)
let gated ~nreq reps =
  let first = List.hd (List.rev reps) in
  List.fold_left
    (fun (failed, violations) rep ->
      List.fold_left2
        (fun (failed, violations) c0 c ->
          let violations = violations @ c.violations in
          match differences c0.summary c.summary with
          | [] -> (max failed c.failed, violations)
          | d ->
              (nreq, violations @ List.map (fun s -> "repeated Server.run changed its outcome: " ^ s) d))
        (failed, violations) first rep)
    (0, []) reps

(* Miss-path samples per repetition, taken in one block after each
   [Server.run] call so that they spread over the whole run: the host's
   speed changes within seconds, and one burst of samples would read
   whichever speed it met. *)
let plan_samples_per_rep = 4000

let run cfg ~seed ~seconds ~trace =
  let st, setup_s =
    Measure.timed_median ~repeats:(if trace then 1 else 21) (fun () -> setup cfg ~seed)
  in
  (* Every child starts from this collected heap. *)
  Gc.compact ();
  let nreq = List.length (all_requests st) in
  if not trace then begin
    let samples = max 50 (plan_samples_per_rep / Array.length st.batches) in
    let keys = distinct_keys st in
    let sampled = Measure.repeat ~seconds ~min:3 (fun () -> timed_rep cfg st keys ~samples) in
    let reps = List.map (List.map fst) sampled in
    let failed, violations = gated ~nreq reps in
    let lat = Measure.sorted_copy (Array.concat (List.concat_map (List.map snd) sampled)) in
    let gap_mean, plan_violations = gate_keys st in
    let newest = List.hd reps in
    let open Measure in
    ( { attempted = nreq * List.length reps;
        failed = failed + List.length plan_violations;
        violations = violations @ plan_violations;
        metrics =
          [ m "setup_s" "s" setup_s;
            (* A repetition lasts 1-3.5 s and a run holds 6-20 of them,
               too few for the best one to catch the host's faster speed
               reliably (see [Measure.best]): the run's mean throughput
               and pooled percentiles spread less. *)
            m "ops_per_s" "1/s"
              (float_of_int (nreq * List.length reps)
              /. List.fold_left (fun acc rep -> acc +. sum (fun c -> c.wall_s) rep) 0. reps);
            m "plan_latency_p50_us" "us" (percentile lat 50.);
            m "plan_latency_p99_us" "us" (percentile lat 99.);
            m ~tol:0. "plan_gap_mean" "ratio" gap_mean ]
          @ quality_metrics (List.map (fun c -> c.quality) newest)
          @ [ (* Not bit-exact: [Server.run] sorts its host-clock plan
                 latencies, and the boxed comparisons of that sort follow
                 the measured values (a few hundred words in 10^7). *)
              m ~tol:1e-4 "alloc_words_per_op" "words"
                (sum (fun c -> c.alloc) newest /. float_of_int nreq);
              (* Each batch ran in a process of its own. *)
              m "peak_heap_mb" "MB"
                (List.fold_left (fun acc c -> Float.max acc c.peak_heap_mb) 0. newest) ] },
      None )
  end
  else begin
    let reps =
      Measure.repeat ~seconds:(seconds /. 2.) ~min:1 (fun () ->
          List.map (timed_call cfg st) (Array.to_list st.batches))
    in
    let failed, violations = gated ~nreq reps in
    let untraced = List.hd reps in
    let mismatches = ref [] in
    let traced =
      Measure.repeat ~seconds:(seconds /. 2.) ~min:1 (fun () ->
          (* Each batch re-drives in a child that inherits the ledger and
             the counts so far and hands them back extended. *)
          List.fold_left2
            (fun (led, t) b c ->
              let led, t, outcome =
                Measure.in_child (fun () ->
                    let outcome, planned = redrive cfg st b led t in
                    (* Engine counters from a replay of the same plans on a
                       Memory sink, outside the ledger, so the event bus
                       does not inflate the engine spans. *)
                    List.iter
                      (fun (p, inst) ->
                        let sink = Sink.memory () in
                        ignore (Sched_engine.run ~obs:sink p inst);
                        Layers.add_engine_counters t (Sink.events sink))
                      planned;
                    (led, t, outcome))
              in
              mismatches := !mismatches @ differences c.summary outcome;
              (led, t))
            (Ledger.create (), Layers.create ())
            (Array.to_list st.batches) untraced)
    in
    (* Counts repeat exactly, so the newest repetition's stand. *)
    let led, t = List.hd traced in
    t.Layers.gc <-
      List.fold_left (fun acc c -> Measure.gc_add acc c.gc) Measure.gc_zero untraced;
    t.Layers.untraced_wall_s <- Measure.median (List.map (fun rep -> sum (fun c -> c.wall_s) rep) reps);
    let violations =
      violations @ List.map (fun s -> "traced re-drive differs from Server.run: " ^ s) !mismatches
    in
    ( { Measure.attempted = nreq * (List.length reps + List.length traced);
        failed = (if !mismatches = [] then failed else nreq);
        violations;
        metrics =
          Layers.metrics t (Layers.median_timing (List.map (fun (led, _) -> Layers.timing_of led) traced)) },
      Some led )
  end
