(* gridsched — command-line front end for the grid broadcast scheduling
   library.  Subcommands cover the whole pipeline: topology generation and
   inspection, schedule computation, simulation experiments and hit-rate
   analysis. *)

open Cmdliner

module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Topology = Gridb_topology

let ( let* ) = Result.bind

(* Numeric flags restricted to the values the commands can run on, so that
   a bad value is a usage error naming the flag, never an exception or a
   hang.  Infinity is accepted only where it means "no limit".  Ranges that
   depend on the topology are checked after load ({!in_range}). *)
let float_where what ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let int_where what ok =
  let parse s =
    match int_of_string_opt s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_finite = float_where "a positive finite number" (fun x -> x > 0. && x < infinity)
let positive = float_where "a positive number" (fun x -> x > 0.)
let non_negative_finite =
  float_where "a non-negative finite number" (fun x -> x >= 0. && x < infinity)
let non_negative = float_where "a non-negative number" (fun x -> x >= 0.)
let positive_int = int_where "a positive integer" (fun n -> n > 0)
let non_negative_int = int_where "a non-negative integer" (fun n -> n >= 0)

let policy_conv =
  let parse s =
    match Policy.by_name s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown heuristic %S (known: %s)" s
               (String.concat ", " Policy.names)))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Policy.name p))

let heuristic_arg =
  Arg.(value & opt policy_conv Policy.ecef_la & info [ "H"; "heuristic" ] ~docv:"NAME")

let engine_arg =
  let mode = Arg.enum [ ("incremental", `Incremental); ("naive", `Naive) ] in
  Arg.(
    value
    & opt mode `Incremental
    & info [ "engine" ] ~docv:"MODE"
        ~doc:
          "Selection engine: $(b,incremental) (per-receiver caches, the default) or \
           $(b,naive) (the paper's full A x B scan).  Both produce the identical \
           schedule; naive is kept as the reference oracle.")

let msg_arg =
  Arg.(
    value
    & opt non_negative_int 1_000_000
    & info [ "m"; "message" ] ~docv:"BYTES" ~doc:"Message size in bytes.")

let root_arg =
  Arg.(value & opt non_negative_int 0 & info [ "root" ] ~docv:"CLUSTER")

let seed_arg =
  Arg.(value & opt int 2006 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value
    & opt int (Gridb_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for batch work (default: the runtime's recommended \
           domain count).  Results are bit-identical for every $(docv); \
           $(b,--jobs 1) runs fully sequentially.")

let topology_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "t"; "topology" ] ~docv:"FILE"
        ~doc:"Topology file (see lib/topology/serialize.mli); defaults to the GRID5000 Table 3 grid.")

let load_grid = function
  | None -> Ok (Topology.Grid5000.grid ())
  | Some path -> (
      match Topology.Serialize.load path with
      | Ok g -> Ok g
      | Error e -> Error (Printf.sprintf "cannot load %s: %s" path e))

(* Upper bound of a rank or cluster flag, known once the topology is
   loaded; the flag's converter already rejected negative values. *)
let in_range flag ~size v =
  if v < size then Ok ()
  else
    Error
      (Printf.sprintf "--%s %d is out of range: the topology has %d (0..%d)" flag v
         size (size - 1))

(* Every number in a topology file can be finite while their sums are
   not (every inter-cluster gap at 1e308): refuse such a topology once,
   here, for every subcommand that plans or simulates on it, rather than
   print inf and nan.  The upper bound on every schedule's makespan must
   be finite at each message size in play. *)
let finite_at topology grid msgs =
  let overflow msg =
    let bound = Gridb_sched.Bounds.upper (Instance.of_grid ~root:0 ~msg grid) in
    if Float.is_finite bound then None else Some (msg, bound)
  in
  match List.find_map overflow msgs with
  | None -> Ok ()
  | Some (msg, bound) ->
      Error
        (Printf.sprintf "%s: a %s broadcast has a non-finite makespan bound (%g us)"
           (Option.value topology ~default:"GRID5000")
           (Gridb_util.Units.bytes_to_string msg) bound)

(* [load_grid], the check that [--root] (when given) names one of its
   clusters, and [finite_at] for a [msg]-byte broadcast. *)
let load_finite ?root topology ~msg =
  let* grid = load_grid topology in
  let* () =
    match root with
    | None -> Ok ()
    | Some root -> in_range "root" ~size:(Topology.Grid.size grid) root
  in
  let* () = finite_at topology grid [ msg ] in
  Ok grid

(* Run [f] with [Some (path, sink)] streaming JSON Lines to [--trace]'s
   file, or [None].  The file is opened before [f] runs, so an unwritable
   path is an error rather than an exception after the work is done. *)
let with_trace trace f =
  match trace with
  | None -> Ok (f None)
  | Some path ->
      Result.map_error
        (fun e -> "cannot write trace " ^ e)
        (Gridb_obs.Sink.with_jsonl path (fun js -> f (Some (path, js))))

(* The exit status of a subcommand whose setup may fail. *)
let exit_code = function
  | Ok code -> code
  | Error e ->
      prerr_endline e;
      1

(* --- schedule: run one heuristic on a topology and print the schedule --- *)

let schedule_cmd =
  let run heuristic topology msg root gantt improve mode =
    match load_finite ~root topology ~msg with
    | Error e ->
        prerr_endline e;
        1
    | Ok grid ->
        let inst = Instance.of_grid ~root ~msg grid in
        let schedule = Engine.run ~mode heuristic inst in
        let schedule =
          if improve then begin
            let refined = Gridb_sched.Refine.improve inst schedule in
            Format.printf "local search: %a -> %a@." Gridb_util.Units.pp_time
              (Schedule.makespan inst schedule)
              Gridb_util.Units.pp_time
              (Schedule.makespan inst refined);
            refined
          end
          else schedule
        in
        Format.printf "%a@." Schedule.pp schedule;
        Format.printf "makespan: %a@." Gridb_util.Units.pp_time
          (Schedule.makespan inst schedule);
        Format.printf "lower bound: %a (gap ratio %.3f)@." Gridb_util.Units.pp_time
          (Gridb_sched.Bounds.combined inst)
          (Gridb_sched.Bounds.gap_ratio inst (Schedule.makespan inst schedule));
        Format.printf "relay depth: %d, senders: %s@." (Schedule.depth schedule)
          (String.concat "," (List.map string_of_int (Schedule.senders schedule)));
        if gantt then print_string (Gridb_sched.Gantt.render inst schedule);
        0
  in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Render a text Gantt chart.") in
  let improve =
    Arg.(value & flag & info [ "improve" ] ~doc:"Refine the schedule with local search.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Compute and print one heuristic's broadcast schedule")
    Term.(
      const run $ heuristic_arg $ topology_arg $ msg_arg $ root_arg $ gantt $ improve
      $ engine_arg)

(* --- compare: all heuristics on one topology --- *)

let compare_cmd =
  let run topology msg root mode =
    match load_finite ~root topology ~msg with
    | Error e ->
        prerr_endline e;
        1
    | Ok grid ->
        let inst = Instance.of_grid ~root ~msg grid in
        let table =
          Gridb_util.Text_table.create
            [ "heuristic"; "makespan (s)"; "depth"; "pair evals" ]
        in
        List.iter
          (fun p ->
            let s, stats = Engine.run_stats ~mode p inst in
            Gridb_util.Text_table.add_row table
              [
                Policy.name p;
                Printf.sprintf "%.4f" (Schedule.makespan inst s /. 1e6);
                string_of_int (Schedule.depth s);
                string_of_int stats.Engine.pair_evaluations;
              ])
          Policy.all;
        Gridb_util.Text_table.print table;
        0
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all heuristics' makespans on one topology")
    Term.(const run $ topology_arg $ msg_arg $ root_arg $ engine_arg)

(* --- topology: generate and save a random topology --- *)

let topology_cmd =
  let run kind n seed output dot =
    let rng = Gridb_util.Rng.create seed in
    let grid =
      match kind with
      | "random" ->
          Topology.Generators.uniform_random ~rng ~n Topology.Generators.default_random_spec
      | "multilevel" ->
          Topology.Generators.multilevel ~rng
            { Topology.Generators.default_multilevel_spec with sites = max 1 (n / 3) }
      | "grid5000" -> Topology.Grid5000.grid ()
      | other ->
          prerr_endline ("unknown kind " ^ other ^ " (random|multilevel|grid5000)");
          exit 1
    in
    (match output with
    | Some path ->
        Topology.Serialize.save path grid;
        Printf.printf "wrote %s\n" path
    | None -> print_string (Topology.Serialize.to_string grid));
    (match dot with
    | Some path ->
        Topology.Dot.save path grid;
        Printf.printf "wrote %s (render with: dot -Tsvg %s)\n" path path
    | None -> ());
    0
  in
  let kind = Arg.(value & pos 0 string "random" & info [] ~docv:"KIND") in
  let n = Arg.(value & opt positive_int 10 & info [ "n"; "clusters" ] ~docv:"CLUSTERS") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Also write Graphviz DOT.")
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Generate a topology (random|multilevel|grid5000)")
    Term.(const run $ kind $ n $ seed_arg $ output $ dot)

(* --- hitrate: Figure 4 style analysis --- *)

let hitrate_cmd =
  let run n iterations seed overlapped =
    let rng = Gridb_util.Rng.create seed in
    let model = if overlapped then Schedule.Overlapped else Schedule.After_sends in
    let outcomes =
      Gridb_sched.Hit_rate.run ~model ~rng ~iterations ~n Instance.table2_ranges
        Policy.ecef_family
    in
    let table =
      Gridb_util.Text_table.create
        [ "heuristic"; "hits"; "rate"; "mean makespan (s)"; "+/- stderr" ]
    in
    List.iter
      (fun o ->
        Gridb_util.Text_table.add_row table
          [
            o.Gridb_sched.Hit_rate.name;
            string_of_int o.Gridb_sched.Hit_rate.hits;
            Printf.sprintf "%.1f%%" (100. *. Gridb_sched.Hit_rate.hit_fraction o);
            Printf.sprintf "%.4f" (o.Gridb_sched.Hit_rate.mean_makespan /. 1e6);
            Printf.sprintf "%.4f" (Gridb_sched.Hit_rate.stderr_makespan o /. 1e6);
          ])
      outcomes;
    Gridb_util.Text_table.print table;
    0
  in
  let n = Arg.(value & opt positive_int 20 & info [ "n"; "clusters" ] ~docv:"CLUSTERS") in
  let iterations = Arg.(value & opt positive_int 10_000 & info [ "i"; "iterations" ]) in
  let overlapped =
    Arg.(value & flag & info [ "overlapped" ] ~doc:"Use the overlapped completion model.")
  in
  Cmd.v
    (Cmd.info "hitrate" ~doc:"Hit-rate analysis of the ECEF family (paper Figure 4)")
    Term.(const run $ n $ iterations $ seed_arg $ overlapped)

(* --- figure: regenerate one paper figure --- *)

let figure_cmd =
  let run which iterations csv_dir =
    let config = Gridb_experiments.Config.(with_iterations iterations default) in
    let figures =
      match which with
      | "1" -> [ Gridb_experiments.Figures.fig1_small_grids config ]
      | "2" -> [ Gridb_experiments.Figures.fig2_large_grids config ]
      | "3" -> [ Gridb_experiments.Figures.fig3_ecef_zoom config ]
      | "4" ->
          let a, b = Gridb_experiments.Figures.fig4_hit_rate config in
          [ a; b ]
      | "5" -> [ Gridb_experiments.Figures.fig5_predicted config ]
      | "6" -> [ Gridb_experiments.Figures.fig6_measured config ]
      | other ->
          prerr_endline ("unknown figure " ^ other);
          exit 1
    in
    List.iter
      (fun figure ->
        Gridb_experiments.Report.print figure;
        match csv_dir with
        | Some dir ->
            let path = Gridb_experiments.Report.to_csv ~dir figure in
            Printf.printf "csv: %s\n" path
        | None -> ())
      figures;
    0
  in
  let which = Arg.(value & pos 0 string "1" & info [] ~docv:"FIGURE") in
  let iterations = Arg.(value & opt positive_int 10_000 & info [ "i"; "iterations" ]) in
  let csv_dir = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate a paper figure (1-6)")
    Term.(const run $ which $ iterations $ csv_dir)

(* --- cluster: run Lowekamp detection on a topology's machine matrix --- *)

let cluster_cmd =
  let run topology matrix_file rho jitter seed save_grid =
    let matrix_result =
      match matrix_file with
      | Some path -> (
          match Gridb_clustering.Matrix_io.load path with
          | Error e -> Error (Printf.sprintf "cannot load %s: %s" path e)
          | Ok matrix -> (
              match Gridb_clustering.Matrix_io.validate matrix with
              | Error e -> Error (Printf.sprintf "%s: %s" path e)
              | Ok () -> Ok matrix))
      | None -> (
          match load_grid topology with
          | Error e -> Error e
          | Ok grid ->
              let machines = Topology.Machines.expand grid in
              let rng = Gridb_util.Rng.create seed in
              Ok (Topology.Machines.latency_matrix ~rng ~jitter_sigma:jitter machines))
    in
    match matrix_result with
    | Error e ->
        prerr_endline e;
        1
    | Ok matrix ->
        let partition = Gridb_clustering.Lowekamp.detect ~rho matrix in
        Format.printf "%a@." Gridb_clustering.Partition.pp partition;
        Format.printf "homogeneity (max/min): %.3f@."
          (Gridb_clustering.Lowekamp.partition_quality matrix partition);
        (match save_grid with
        | Some path ->
            let grid = Gridb_clustering.Abstraction.grid_of_matrix matrix partition in
            Topology.Serialize.save path grid;
            Printf.printf "wrote detected topology to %s\n" path
        | None -> ());
        0
  in
  let matrix_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "matrix" ] ~docv:"CSV"
          ~doc:"NxN machine latency matrix in microseconds (CSV); overrides --topology.")
  in
  let rho = Arg.(value & opt non_negative 0.30 & info [ "rho" ] ~docv:"TOLERANCE") in
  let jitter = Arg.(value & opt non_negative_finite 0.03 & info [ "jitter" ] ~docv:"SIGMA") in
  let save_grid =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-topology" ] ~docv:"FILE"
          ~doc:"Write the detected cluster-level topology to a file.")
  in
  Cmd.v
    (Cmd.info "cluster" ~doc:"Detect logical clusters from a machine latency matrix")
    Term.(const run $ topology_arg $ matrix_file $ rho $ jitter $ seed_arg $ save_grid)

(* --- optimal: certified optimum for small topologies --- *)

let optimal_cmd =
  let run topology msg root =
    match load_finite ~root topology ~msg with
    | Error e ->
        prerr_endline e;
        1
    | Ok grid ->
        let inst = Instance.of_grid ~root ~msg grid in
        if inst.Instance.n > Gridb_opt.Exact.default_max_clusters then begin
          Printf.eprintf "exact search is capped at %d clusters (topology has %d)\n"
            Gridb_opt.Exact.default_max_clusters inst.Instance.n;
          1
        end
        else
          match Gridb_opt.Exact.solve inst with
          | exception Invalid_argument e ->
              prerr_endline e;
              1
          | cert ->
              Format.printf "%a@." Schedule.pp cert.Gridb_opt.Exact.schedule;
              let st = cert.Gridb_opt.Exact.stats in
              Format.printf
                "certified optimal makespan: %a  (incumbent %s; %d expanded, %d \
                 bound-pruned, %d dominance-pruned)@."
                Gridb_util.Units.pp_time cert.Gridb_opt.Exact.makespan
                cert.Gridb_opt.Exact.incumbent st.Gridb_opt.Exact.expanded
                st.Gridb_opt.Exact.pruned_bound st.Gridb_opt.Exact.pruned_dominated;
              (match Gridb_opt.Traff.homogeneous inst with
              | None -> ()
              | Some params ->
                  Format.printf
                    "homogeneous instance: Traff closed form agrees at %a@."
                    Gridb_util.Units.pp_time
                    (Gridb_opt.Traff.makespan params));
              let table =
                Gridb_util.Text_table.create [ "heuristic"; "makespan (s)"; "vs optimal" ]
              in
              let opt = cert.Gridb_opt.Exact.makespan in
              List.iter
                (fun p ->
                  let m = Engine.makespan p inst in
                  Gridb_util.Text_table.add_row table
                    [
                      Policy.name p;
                      Printf.sprintf "%.4f" (m /. 1e6);
                      Printf.sprintf "%+.2f%%" (100. *. ((m /. opt) -. 1.));
                    ])
                Policy.all;
              Gridb_util.Text_table.print table;
              0
  in
  Cmd.v
    (Cmd.info "optimal"
       ~doc:"Certified optimal schedule (branch-and-bound) and per-heuristic gaps")
    Term.(const run $ topology_arg $ msg_arg $ root_arg)

(* --- measure: pLogP link measurement over the simulated wire --- *)

let measure_cmd =
  let run topology a b jitter seed =
    let machines =
      Result.bind (load_grid topology) (fun grid ->
          let machines = Topology.Machines.expand grid in
          let size = Topology.Machines.count machines in
          Result.bind (in_range "src" ~size a) (fun () ->
              Result.bind (in_range "dst" ~size b) (fun () ->
                  if a = b then Error (Printf.sprintf "--src and --dst are both rank %d" a)
                  else Ok machines)))
    in
    match machines with
    | Error e ->
        prerr_endline e;
        1
    | Ok machines ->
        let noise =
          if jitter > 0. then Gridb_des.Noise.Lognormal jitter else Gridb_des.Noise.Exact
        in
        let truth = Topology.Machines.link_params machines a b in
        let recovered = Gridb_mpi.Benchmarks.measure_link ~noise ~seed machines ~a ~b in
        Format.printf "link ranks %d <-> %d@." a b;
        Format.printf "  ground truth: %a@." Gridb_plogp.Params.pp truth;
        Format.printf "  measured:     %a@." Gridb_plogp.Params.pp recovered;
        let table =
          Gridb_util.Text_table.create [ "size"; "true g (us)"; "measured g (us)"; "error" ]
        in
        List.iter
          (fun m ->
            let t = Gridb_plogp.Params.gap truth m in
            let r = Gridb_plogp.Params.gap recovered m in
            Gridb_util.Text_table.add_row table
              [
                Gridb_util.Units.bytes_to_string m;
                Printf.sprintf "%.2f" t;
                Printf.sprintf "%.2f" r;
                Printf.sprintf "%+.2f%%" (100. *. ((r /. t) -. 1.));
              ])
          [ 1_024; 65_536; 1_048_576; 4_194_304 ];
        Gridb_util.Text_table.print table;
        0
  in
  let a = Arg.(value & opt non_negative_int 0 & info [ "src" ] ~docv:"RANK") in
  let b = Arg.(value & opt non_negative_int 1 & info [ "dst" ] ~docv:"RANK") in
  let jitter = Arg.(value & opt non_negative_finite 0. & info [ "jitter" ] ~docv:"SIGMA") in
  Cmd.v
    (Cmd.info "measure" ~doc:"Measure a link's pLogP parameters on the simulated wire")
    Term.(const run $ topology_arg $ a $ b $ jitter $ seed_arg)

(* --- simulate: reliable broadcast under injected faults --- *)

let faults_conv =
  let parse s =
    match Gridb_des.Faults.of_string s with Ok spec -> Ok spec | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf spec -> Format.pp_print_string ppf (Gridb_des.Faults.to_string spec))

let transport_conv =
  let parse s =
    match Gridb_des.Exec.transport_of_string s with
    | Ok t -> Ok t
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun ppf t -> Format.pp_print_string ppf (Gridb_des.Exec.transport_to_string t))

let dynamics_conv =
  let parse s =
    match Gridb_des.Dynamics.of_string s with Ok spec -> Ok spec | Error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun ppf spec -> Format.pp_print_string ppf (Gridb_des.Dynamics.to_string spec))

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Stream the run's observability events to $(docv) as JSON Lines (one event per \
           line; read back with $(b,Gridb_obs.Sink.read)).")

let simulate_cmd =
  let run policy topology msg seed faults dynamics retries transport reps jitter jobs trace =
    exit_code
    @@
    let* grid = load_finite topology ~msg in
    with_trace trace (fun traced ->
        let noise =
          if jitter > 0. then Gridb_des.Noise.Lognormal jitter else Gridb_des.Noise.Exact
        in
        let repetitions = if reps > 0 then Some reps else None in
        let metrics =
          Gridb_experiments.Robustness.run ~policy ~msg ~retries ~seed ~noise
            ?obs:(Option.map snd traced) ~transport ~dyn:dynamics ?repetitions ~jobs
            ~spec:faults grid
        in
        print_string (Gridb_experiments.Robustness.render metrics);
        Option.iter
          (fun (path, js) ->
            Printf.printf "trace: %d events -> %s\n" (Gridb_obs.Sink.count js) path)
          traced;
        (match metrics.Gridb_experiments.Robustness.partition_drift with
        | Some d when d > 0. ->
            Printf.eprintf
              "warning: live estimates re-cluster differently from planning time \
               (partition drift %.3f); the schedule's cluster map is stale — consider \
               replanning.\n"
              d
        | _ -> ());
        0)
  in
  let faults =
    Arg.(
      value
      & opt faults_conv Gridb_des.Faults.none
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Fault specification, comma-separated $(b,key=value) pairs: $(b,loss) \
             (per-transmission loss probability), $(b,cut) (permanent link-cut rate, 1/us), \
             $(b,crash) (crash-stop rate per rank, 1/us), $(b,degrade) (degradation episode \
             rate, 1/us), $(b,degrade-mean) (mean episode length, us), $(b,degrade-factor) \
             (slowdown multiplier).  Example: $(b,loss=0.05,crash=2e-8).  $(b,none) disables \
             fault injection.")
  in
  let dynamics =
    Arg.(
      value
      & opt dynamics_conv Gridb_des.Dynamics.none
      & info [ "dynamics" ] ~docv:"SPEC"
          ~doc:
            "Grid dynamics specification, comma-separated $(b,key=value) pairs: $(b,drift) \
             (background-load walk-step rate per link, 1/us), $(b,drift-sigma) (lognormal \
             step sigma), $(b,drift-max) (factor clamp), $(b,load-on)/$(b,load-off) (mean \
             loaded/unloaded phase durations, us; $(b,load-off=0) keeps links loaded), \
             $(b,leave) (permanent departure rate per rank, 1/us), $(b,join) (join arrival \
             rate, 1/us), $(b,join-max) (cap on joins), $(b,churn=r) (shorthand for \
             $(b,leave=r,join=r)), $(b,recluster) (online re-clustering period, us).  \
             Example: $(b,drift=2e-5,churn=5e-8,recluster=2e5).  $(b,none) disables \
             dynamics.")
  in
  let retries =
    Arg.(
      value
      & opt non_negative_int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retransmission budget per plan edge before giving up.")
  in
  let transport =
    Arg.(
      value
      & opt transport_conv Gridb_des.Exec.Fixed
      & info [ "transport" ] ~docv:"KIND"
          ~doc:
            "Retransmission transport: $(b,fixed) (model-derived RTO), $(b,adaptive) \
             (live Jacobson/Karn RTO estimation with per-link circuit breakers) or \
             $(b,adaptive,reroute) (additionally re-parents orphaned children onto \
             already-delivered ranks, scored on live-estimated link quality).")
  in
  let reps =
    Arg.(
      value
      & opt non_negative_int 0
      & info [ "reps" ] ~docv:"N"
          ~doc:
            "Also aggregate the reliable run over $(docv) independent fault draws \
             (mean/stddev makespan, delivered fraction); 0 disables the summary.")
  in
  let jitter =
    Arg.(
      value
      & opt non_negative_finite 0.
      & info [ "jitter" ] ~docv:"SIGMA" ~doc:"Lognormal noise sigma for the reliable run.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Reliable broadcast under fault injection and grid dynamics (delivery ratio, \
          inflation, repair)")
    Term.(
      const run $ heuristic_arg $ topology_arg $ msg_arg $ seed_arg $ faults $ dynamics
      $ retries $ transport $ reps $ jitter $ jobs_arg $ trace_arg)

(* --- profile: per-phase rollup of one schedule-and-execute pipeline --- *)

let profile_cmd =
  let run policy topology msg root gantt trace =
    exit_code
    @@
    let* grid = load_finite ~root topology ~msg in
    with_trace trace (fun traced ->
        (* One Memory sink observes the whole pipeline: a host-time span
           around scheduling, then the rank-level DES execution. *)
        let mem = Gridb_obs.Sink.memory () in
        let inst = Instance.of_grid ~root ~msg grid in
        let schedule =
          Gridb_obs.Span.wrap mem "schedule" (fun () ->
              Engine.run ~obs:mem policy inst)
        in
        let machines = Topology.Machines.expand grid in
        let plan = Gridb_des.Plan.of_cluster_schedule machines schedule in
        ignore (Gridb_des.Exec.run ~msg ~obs:mem machines plan);
        let events = Gridb_obs.Sink.events mem in
        Printf.printf "profile: %s, %s, %s\n" (Policy.name policy)
          (match topology with None -> "GRID5000" | Some path -> path)
          (Gridb_util.Units.bytes_to_string msg);
        print_string (Gridb_obs.Profile.render (Gridb_obs.Profile.of_events events));
        if gantt then print_string (Gridb_sched.Gantt.render_events events);
        Option.iter
          (fun (path, js) ->
            List.iter (Gridb_obs.Sink.emit js) events;
            Printf.printf "trace: %d events -> %s\n" (List.length events) path)
          traced;
        0)
  in
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Also render the executed-run event Gantt chart.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-phase profile (schedule vs transmit vs intra-cluster) of one broadcast")
    Term.(const run $ heuristic_arg $ topology_arg $ msg_arg $ root_arg $ gantt $ trace_arg)

(* --- check: conformance fuzzing of the whole pipeline --- *)

let check_cmd =
  let run seed count out replay list jobs family =
    let property =
      match family with
      | `Pipeline -> Gridb_check.Run.check
      | `Service -> Gridb_check.Run.check_service
      | `Chaos -> Gridb_check.Run.check_chaos
      | `Opt -> Gridb_check.Run.check_opt
      | `All ->
          fun sc ->
            Result.bind (Gridb_check.Run.check sc) (fun () ->
                Result.bind (Gridb_check.Run.check_service sc) (fun () ->
                    Result.bind (Gridb_check.Run.check_chaos sc) (fun () ->
                        Gridb_check.Run.check_opt sc)))
    in
    if list then begin
      print_string (Gridb_check.Report.catalogue ());
      0
    end
    else
      match replay with
      | Some path -> (
          match Gridb_check.Fuzz.replay ~property path with
          | Error e ->
              prerr_endline e;
              1
          | Ok outcome ->
              print_endline (Gridb_check.Report.render_replay path outcome);
              (match outcome with Gridb_check.Fuzz.Confirmed _ -> 0 | _ -> 1))
      | None -> (
          let on_progress i =
            if i mod 100 = 0 then Printf.eprintf "check: %d/%d scenarios...\n%!" i count
          in
          match Gridb_check.Fuzz.run ~property ~on_progress ~jobs ~seed ~count () with
          | Ok count ->
              print_endline (Gridb_check.Report.render_success ~seed ~count);
              0
          | Error failure ->
              Gridb_check.Fuzz.write_reproducer out failure;
              print_endline (Gridb_check.Report.render_failure ~out failure);
              1)
  in
  let count =
    Arg.(
      value
      & opt non_negative_int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of generated scenarios to check.")
  in
  let out =
    Arg.(
      value
      & opt string "counterexample.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the shrunk counterexample reproducer on failure.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-execute a reproducer file instead of fuzzing; exits 0 iff the \
             recorded violation is confirmed.")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"Print the invariant catalogue and exit.")
  in
  let family =
    Arg.(
      value
      & opt
          (enum
             [
               ("pipeline", `Pipeline);
               ("service", `Service);
               ("chaos", `Chaos);
               ("opt", `Opt);
               ("all", `All);
             ])
          `Pipeline
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Which property family each scenario runs through: the single-broadcast \
             $(b,pipeline) (default), the multi-session $(b,service) checks, the \
             resilience $(b,chaos) checks (faulty retrying service with deadlines, \
             priorities and shedding), the $(b,opt) optimality oracles (exact \
             branch-and-bound vs every heuristic, Traff's construction on \
             homogeneous instances), or $(b,all) (pipeline, service, chaos, then \
             opt).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Fuzz the scheduling/DES pipeline against its invariant and metamorphic catalogue")
    Term.(const run $ seed_arg $ count $ out $ replay $ list $ jobs_arg $ family)

(* --- serve: broadcast-as-a-service over a seeded open-loop workload --- *)

let serve_cmd =
  let run topology rate duration seed jobs transport max_concurrent max_backlog smoke
      profile trace mix faults dynamics retry_budget retry_backoff shed_watermark
      shed_open_frac =
    exit_code
    @@
    let* grid = load_grid topology in
    let machines = Topology.Machines.expand grid in
    let* mix =
      match mix with
      | None -> Ok None
      | Some s -> Result.map Option.some (Gridb_service.Workload.mix_of_string machines s)
    in
    (* The flags are checked, but a tiny rate can still underflow once
       converted to requests per us. *)
    let* requests =
      match
        Gridb_service.Workload.generate ?mix ~seed ~rate:(rate /. 1e6) ~duration machines
      with
      | requests -> Ok requests
      | exception Invalid_argument e -> Error e
    in
    let* () =
      finite_at topology grid
        (List.sort_uniq compare (List.map (fun r -> r.Gridb_service.Workload.msg) requests))
    in
    with_trace trace (fun traced ->
        let shed =
          match (shed_watermark, shed_open_frac) with
          | None, None -> Gridb_service.Admission.no_shed
          | w, f ->
              Gridb_service.Admission.shed ?watermark_us:w ?max_open_frac:f ()
        in
        let admission =
          Gridb_service.Admission.create ~max_concurrent
            ?max_backlog_us:max_backlog ~shed ()
        in
        let retry =
          { Gridb_service.Server.budget = retry_budget; backoff_us = retry_backoff }
        in
        let mem =
          if profile || traced <> None then Gridb_obs.Sink.memory ()
          else Gridb_obs.Sink.null
        in
        let report =
          Gridb_service.Server.run ~jobs ~transport ~admission ~obs:mem
            ~seed:(seed + 1) ?faults ?dynamics ~retry machines requests
        in
        List.iter print_endline (Gridb_service.Server.smoke_lines report);
        if not smoke then
          Printf.printf
            "throughput %.0f plans/s, plan latency p50 %.1f us p99 %.1f us (wall %.3f s)\n"
            report.Gridb_service.Server.plans_per_sec
            report.Gridb_service.Server.plan_p50_us
            report.Gridb_service.Server.plan_p99_us
            report.Gridb_service.Server.plan_wall_s;
        let events = Gridb_obs.Sink.events mem in
        if profile then
          (* The per-request rows come from the sid tags the sessions put
             on every event they publish. *)
          print_string (Gridb_obs.Profile.render (Gridb_obs.Profile.of_events events));
        Option.iter
          (fun (path, js) ->
            List.iter (Gridb_obs.Sink.emit js) events;
            Printf.printf "trace: %d events -> %s\n" (List.length events) path)
          traced;
        0)
  in
  let rate =
    Arg.(
      value
      & opt positive_finite 50.
      & info [ "rate" ] ~docv:"REQ_S"
          ~doc:"Open-loop request arrival rate, requests per simulated second.")
  in
  let duration =
    Arg.(
      value
      & opt positive_finite 2e6
      & info [ "duration" ] ~docv:"US"
          ~doc:"Length of the arrival window, simulated microseconds.")
  in
  let max_concurrent =
    Arg.(
      value
      & opt positive_int 8
      & info [ "max-concurrent" ] ~docv:"N"
          ~doc:"Admission cap on predicted-concurrent sessions.")
  in
  let max_backlog =
    Arg.(
      value
      & opt (some positive) None
      & info [ "max-backlog" ] ~docv:"US"
          ~doc:"Admission cap on predicted backlog (default: unbounded).")
  in
  let transport =
    Arg.(
      value
      & opt transport_conv Gridb_des.Exec.Fixed
      & info [ "transport" ] ~docv:"KIND"
          ~doc:"Session transport: $(b,fixed), $(b,adaptive) or $(b,adaptive,reroute).")
  in
  let smoke =
    Arg.(
      value
      & flag
      & info [ "smoke" ]
          ~doc:
            "Deterministic output only (no host-clock throughput/latency lines); \
             byte-identical for every $(b,--jobs), which CI compares.")
  in
  let profile =
    Arg.(
      value
      & flag
      & info [ "profile" ]
          ~doc:
            "Collect the multi-session event stream and print the per-phase rollup, \
             including the per-request session rows (sid attribution).")
  in
  let mix =
    Arg.(
      value
      & opt (some string) None
      & info [ "mix" ] ~docv:"SPEC"
          ~doc:
            "Request mix as comma-separated key=value pairs with '|'-separated list \
             elements, e.g. \
             $(b,roots=0|1,msgs=65536,policies=ECEF,deadlines=500000|inf,high=0.3); \
             omitted keys keep the default mix.")
  in
  let faults =
    Arg.(
      value
      & opt (some faults_conv) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Per-session fault spec (see $(b,simulate)); each session draws its own \
             seeded fault model, retries included.")
  in
  let dynamics =
    Arg.(
      value
      & opt (some dynamics_conv) None
      & info [ "dynamics" ] ~docv:"SPEC"
          ~doc:"Per-session dynamics spec (drift / churn / recluster).")
  in
  let retry_budget =
    Arg.(
      value
      & opt non_negative_int 0
      & info [ "retry-budget" ] ~docv:"N"
          ~doc:
            "Requeue a partially-delivered request up to $(docv) times (0 disables \
             retries).")
  in
  let retry_backoff =
    Arg.(
      value
      & opt non_negative_finite 1e4
      & info [ "retry-backoff" ] ~docv:"US"
          ~doc:"Base requeue backoff; the k-th retry waits $(docv)*2^(k-1) us.")
  in
  let shed_watermark =
    Arg.(
      value
      & opt (some positive) None
      & info [ "shed-watermark" ] ~docv:"US"
          ~doc:
            "Shed low-priority requests when the predicted backlog exceeds $(docv) \
             (default: never).")
  in
  let shed_open_frac =
    Arg.(
      value
      & opt (some non_negative) None
      & info [ "shed-open-frac" ] ~docv:"FRAC"
          ~doc:
            "Shed low-priority requests when the open-circuit fraction of finished \
             sessions exceeds $(docv) (default: never).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a seeded open-loop broadcast workload: memoized planning, admission \
          control, concurrent sessions on one shared wire, optional chaos (faults, \
          dynamics, retries, deadlines, load shedding)")
    Term.(
      const run $ topology_arg $ rate $ duration $ seed_arg $ jobs_arg $ transport
      $ max_concurrent $ max_backlog $ smoke $ profile $ trace_arg $ mix $ faults
      $ dynamics $ retry_budget $ retry_backoff $ shed_watermark $ shed_open_frac)

let main_cmd =
  let doc = "broadcast scheduling heuristics for grid environments (PMEO-PDS'06 reproduction)" in
  Cmd.group
    (Cmd.info "gridsched" ~version:"1.0.0" ~doc)
    [
      schedule_cmd;
      compare_cmd;
      topology_cmd;
      hitrate_cmd;
      figure_cmd;
      cluster_cmd;
      optimal_cmd;
      measure_cmd;
      simulate_cmd;
      profile_cmd;
      check_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
