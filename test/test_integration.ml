(* Integration tests: cross-library pipelines and loose shape checks of the
   reproduced figures (the strict comparisons live in EXPERIMENTS.md; here
   we assert the orderings the paper's conclusions rest on, at reduced
   iteration counts). *)

module Config = Gridb_experiments.Config
module Figures = Gridb_experiments.Figures
module Tables = Gridb_experiments.Tables
module Ablations = Gridb_experiments.Ablations
module Report = Gridb_experiments.Report
module Sweep = Gridb_experiments.Sweep
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Hit_rate = Gridb_sched.Hit_rate
module Machines = Gridb_topology.Machines
module Generators = Gridb_topology.Generators
module Rng = Gridb_util.Rng

let quick_config = Config.quick

let series_value figure label x =
  match List.assoc_opt label figure.Report.series with
  | None -> Alcotest.failf "series %s missing" label
  | Some points -> (
      match List.assoc_opt x points with
      | None -> Alcotest.failf "series %s has no x=%g" label x
      | Some y -> y)

(* --- Figure shape checks ----------------------------------------------- *)

let test_fig1_shape () =
  let fig = Figures.fig1_small_grids quick_config in
  Alcotest.(check int) "7 series" 7 (List.length fig.Report.series);
  let flat10 = series_value fig "FlatTree" 10. in
  let fef10 = series_value fig "FEF" 10. in
  let ecef10 = series_value fig "ECEF" 10. in
  let bottom10 = series_value fig "BottomUp" 10. in
  Alcotest.(check bool) "FlatTree worst" true (flat10 > fef10 && flat10 > bottom10);
  Alcotest.(check bool) "FEF above ECEF" true (fef10 > ecef10);
  Alcotest.(check bool) "BottomUp between ECEF and FEF" true
    (bottom10 > ecef10 && bottom10 < fef10);
  (* all heuristics coincide at n=2: one mandatory transmission *)
  let at2 = List.map (fun (_, pts) -> List.assoc 2. pts) fig.Report.series in
  List.iter
    (fun y ->
      Alcotest.(check bool) "n=2 degenerate" true (Float.abs (y -. List.hd at2) < 1e-9))
    at2

let test_fig2_shape () =
  let fig = Figures.fig2_large_grids quick_config in
  let flat x = series_value fig "FlatTree" x in
  let ecef x = series_value fig "ECEF" x in
  (* Flat tree grows roughly linearly: the 50-cluster value is several times
     the 10-cluster one; ECEF stays nearly flat. *)
  Alcotest.(check bool) "flat grows ~linearly" true (flat 50. > 3. *. flat 10.);
  Alcotest.(check bool) "ecef nearly flat" true (ecef 50. < 1.25 *. ecef 10.);
  Alcotest.(check bool) "flat ~5-6x ecef at 50" true (flat 50. > 4. *. ecef 50.)

let test_fig3_family_close () =
  let fig = Figures.fig3_ecef_zoom quick_config in
  Alcotest.(check int) "4 series" 4 (List.length fig.Report.series);
  (* the four ECEF-like heuristics stay within ~10% of each other *)
  List.iter
    (fun x ->
      let ys = List.map (fun (_, pts) -> List.assoc x pts) fig.Report.series in
      let lo = List.fold_left Float.min infinity ys in
      let hi = List.fold_left Float.max neg_infinity ys in
      Alcotest.(check bool)
        (Printf.sprintf "family within 10%% at n=%g" x)
        true
        (hi /. lo < 1.10))
    [ 5.; 25.; 50. ]

let test_fig4_bookkeeping () =
  let small = Config.with_iterations 200 quick_config in
  let a, b = Figures.fig4_hit_rate small in
  List.iter
    (fun fig ->
      Alcotest.(check int) "4 series" 4 (List.length fig.Report.series);
      (* per x, at least one heuristic hits (global minimum is attained) and
         no heuristic exceeds the iteration count *)
      List.iter
        (fun x ->
          let ys = List.map (fun (_, pts) -> List.assoc x pts) fig.Report.series in
          let total = List.fold_left ( +. ) 0. ys in
          Alcotest.(check bool) "winner exists" true (total >= 200.);
          List.iter
            (fun y -> Alcotest.(check bool) "hits bounded" true (y >= 0. && y <= 200.))
            ys)
        [ 5.; 30.; 50. ])
    [ a; b ]

let test_fig5_shape () =
  let fig = Figures.fig5_predicted quick_config in
  Alcotest.(check int) "7 series" 7 (List.length fig.Report.series);
  Alcotest.(check int) "10 sizes" 10 (List.length Figures.message_sizes);
  let flat = series_value fig "FlatTree" 4_000_000. in
  let ecef = series_value fig "ECEF" 4_000_000. in
  Alcotest.(check bool) "ECEF under 3s at 4MB" true (ecef < 3.);
  Alcotest.(check bool) "flat several times slower" true (flat > 3. *. ecef);
  (* curves are monotone in message size *)
  List.iter
    (fun (label, points) ->
      let rec monotone = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) (label ^ " monotone") true (monotone points))
    fig.Report.series

let test_fig6_measured_close_to_predicted () =
  let predicted = Figures.fig5_predicted quick_config in
  let measured = Figures.fig6_measured quick_config in
  Alcotest.(check int) "8 series (incl. Default LAM)" 8
    (List.length measured.Report.series);
  (* the paper: "performance predictions fit with a good precision the
     practical results" *)
  List.iter
    (fun h ->
      let p = series_value predicted (Policy.name h) 4_000_000. in
      let m = series_value measured (Policy.name h) 4_000_000. in
      Alcotest.(check bool)
        (Printf.sprintf "%s measured within 20%% of predicted" (Policy.name h))
        true
        (Float.abs (m -. p) /. p < 0.20))
    Policy.all;
  (* Default LAM sits between the grid-aware schedules and the flat tree *)
  let lam = series_value measured "Default LAM" 4_000_000. in
  let flat = series_value measured "FlatTree" 4_000_000. in
  let ecef = series_value measured "ECEF" 4_000_000. in
  Alcotest.(check bool) "LAM between ECEF and flat" true (lam > ecef && lam < flat)

(* --- Sweep / report plumbing ----------------------------------------------- *)

let test_sweep_deterministic () =
  let cfg = Config.with_iterations 100 quick_config in
  let a = Sweep.run cfg ~ns:[ 4; 8 ] Policy.ecef_family in
  let b = Sweep.run cfg ~ns:[ 4; 8 ] Policy.ecef_family in
  List.iter2
    (fun pa pb ->
      List.iter2
        (fun (oa : Hit_rate.outcome) ob ->
          Alcotest.(check int) "same hits" oa.Hit_rate.hits ob.Hit_rate.hits;
          Alcotest.(check (float 1e-12)) "same mean" oa.Hit_rate.mean_makespan
            ob.Hit_rate.mean_makespan)
        pa.Sweep.outcomes pb.Sweep.outcomes)
    a b

let test_sweep_heuristic_independent_draws () =
  (* Scoring a subset must see the same instances: ECEF's mean is identical
     whether swept alone or with the full family. *)
  let cfg = Config.with_iterations 150 quick_config in
  let alone = Sweep.run cfg ~ns:[ 6 ] [ Policy.ecef ] in
  let family = Sweep.run cfg ~ns:[ 6 ] Policy.ecef_family in
  let mean_of points = (List.hd (List.hd points).Sweep.outcomes).Hit_rate.mean_makespan in
  Alcotest.(check (float 1e-9)) "same draws" (mean_of alone) (mean_of family)

let test_report_renders_and_csv () =
  let fig =
    {
      Report.id = "itest";
      title = "integration";
      x_label = "x";
      y_label = "y";
      series = [ ("s1", [ (1., 2.); (2., 3.) ]); ("s2", [ (1., 5.) ]) ];
      notes = [ "a note" ];
    }
  in
  let text = Report.render fig in
  Alcotest.(check bool) "mentions title" true (String.length text > 0);
  let dir = Filename.temp_file "gridb" "" in
  Sys.remove dir;
  let path = Report.to_csv ~dir fig in
  let ic = open_in path in
  let header = input_line ic in
  let row1 = input_line ic in
  close_in ic;
  Alcotest.(check string) "csv header" "x,s1,s2" header;
  Alcotest.(check string) "csv first row" "1,2,5" row1

let test_scorecard_logic () =
  (* Fabricated figures exercising the pass and fail paths. *)
  let mk label pts = (label, pts) in
  let xs ys = List.map (fun (x, y) -> (float_of_int x, y)) ys in
  let fig1 =
    {
      Report.id = "f1";
      title = "";
      x_label = "";
      y_label = "";
      notes = [];
      series =
        [
          mk "FlatTree" (xs [ (10, 5.0) ]);
          mk "FEF" (xs [ (10, 4.0) ]);
          mk "ECEF" (xs [ (10, 3.0) ]);
          mk "BottomUp" (xs [ (10, 3.5) ]);
        ];
    }
  in
  let fig2 =
    {
      fig1 with
      Report.series =
        [
          mk "FlatTree" (xs [ (10, 5.); (50, 20.) ]);
          mk "FEF" (xs [ (50, 9.) ]);
          mk "ECEF" (xs [ (5, 3.0); (50, 3.6) ]);
        ];
    }
  in
  let fig3 =
    { fig1 with Report.series = [ mk "a" (xs [ (50, 3.6) ]); mk "b" (xs [ (50, 3.65) ]) ] }
  in
  let fig4a =
    { fig1 with Report.series = [ mk "ECEF-LAT" (xs [ (5, 4000.); (50, 400.) ]) ] }
  in
  let fig4b =
    { fig1 with Report.series = [ mk "ECEF-LAT" (xs [ (20, 5000.) ]); mk "ECEF" (xs [ (20, 2000.) ]) ] }
  in
  let fig5 =
    {
      fig1 with
      Report.series =
        [ mk "ECEF" [ (4e6, 2.3) ]; mk "FlatTree" [ (4e6, 10.5) ] ];
    }
  in
  let fig6 =
    {
      fig1 with
      Report.series =
        [ mk "ECEF" [ (4e6, 2.4) ]; mk "FlatTree" [ (4e6, 10.4) ]; mk "Default LAM" [ (4e6, 6.4) ] ];
    }
  in
  let verdicts =
    Gridb_experiments.Scorecard.of_figures ~fig1 ~fig2 ~fig3 ~fig4_literal:fig4a
      ~fig4_overlapped:fig4b ~fig5 ~fig6 ()
  in
  Alcotest.(check bool) "all fabricated claims pass" true
    (Gridb_experiments.Scorecard.all_pass verdicts);
  Alcotest.(check bool) "rendering mentions PASS" true
    (String.length (Gridb_experiments.Scorecard.render verdicts) > 100);
  (* flip one figure to make a claim fail *)
  let bad_fig1 =
    { fig1 with Report.series = [ mk "FlatTree" (xs [ (10, 1.0) ]); mk "FEF" (xs [ (10, 4.0) ]); mk "ECEF" (xs [ (10, 3.0) ]); mk "BottomUp" (xs [ (10, 3.5) ]) ] }
  in
  let bad =
    Gridb_experiments.Scorecard.of_figures ~fig1:bad_fig1 ~fig2 ~fig3 ~fig4_literal:fig4a
      ~fig4_overlapped:fig4b ~fig5 ~fig6 ()
  in
  Alcotest.(check bool) "failure detected" false
    (Gridb_experiments.Scorecard.all_pass bad)

let test_scorecard_table3 () =
  let v = Gridb_experiments.Scorecard.table3_verdict () in
  Alcotest.(check bool) "table 3 recovered" true v.Gridb_experiments.Scorecard.pass

let test_tables_render () =
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (String.length s > 40))
    [ Tables.table1 (); Tables.table2 quick_config; Tables.table3 (); Tables.table3_rederived () ]

(* --- Full pipeline ----------------------------------------------------------- *)

let test_matrix_to_makespan_pipeline () =
  (* latency matrix -> Lowekamp -> abstraction -> instance -> schedule ->
     plan -> DES, end to end on a random ground-truth topology. *)
  let rng = Rng.create 2024 in
  let truth = Generators.uniform_random ~rng ~n:5 Generators.default_random_spec in
  let machines = Machines.expand truth in
  let matrix = Machines.latency_matrix ~rng ~jitter_sigma:0.02 machines in
  let partition = Gridb_clustering.Lowekamp.detect ~rho:0.30 matrix in
  let detected = Gridb_clustering.Abstraction.grid_of_matrix matrix partition in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 detected in
  let schedule = Engine.run Policy.ecef_la inst in
  Alcotest.(check bool) "valid schedule" true
    (Result.is_ok (Schedule.validate inst schedule));
  let detected_machines = Machines.expand detected in
  let plan = Gridb_des.Plan.of_cluster_schedule detected_machines schedule in
  let r = Gridb_des.Exec.run ~msg:1_000_000 detected_machines plan in
  Alcotest.(check (float 1e-6)) "DES = prediction" (Schedule.makespan inst schedule)
    r.Gridb_des.Exec.makespan

let test_serialize_cli_pipeline () =
  (* topology file -> parse -> instance -> identical makespans. *)
  let grid = Gridb_topology.Grid5000.grid () in
  let path = Filename.temp_file "gridb" ".topo" in
  Gridb_topology.Serialize.save path grid;
  (match Gridb_topology.Serialize.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
      let a = Instance.of_grid ~root:0 ~msg:2_000_000 grid in
      let b = Instance.of_grid ~root:0 ~msg:2_000_000 loaded in
      List.iter
        (fun h ->
          Alcotest.(check (float 1e-6))
            (Policy.name h)
            (Engine.makespan h a) (Engine.makespan h b))
        Policy.all);
  Sys.remove path

let test_ablation_figures_materialise () =
  (* Smoke: every ablation produces at least two non-empty series.  Use a
     tiny iteration count to keep the suite fast. *)
  let cfg = Config.with_iterations 30 quick_config in
  List.iter
    (fun fig ->
      Alcotest.(check bool)
        (fig.Report.id ^ " has series")
        true
        (List.length fig.Report.series >= 2);
      List.iter
        (fun (label, points) ->
          Alcotest.(check bool) (fig.Report.id ^ "/" ^ label ^ " non-empty") true
            (points <> []))
        fig.Report.series)
    (Ablations.all cfg)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "integration"
    [
      ( "figures",
        [
          slow "fig1 shape" test_fig1_shape;
          slow "fig2 shape" test_fig2_shape;
          slow "fig3 family close" test_fig3_family_close;
          slow "fig4 bookkeeping" test_fig4_bookkeeping;
          quick "fig5 shape" test_fig5_shape;
          slow "fig6 measured vs predicted" test_fig6_measured_close_to_predicted;
        ] );
      ( "plumbing",
        [
          quick "sweep deterministic" test_sweep_deterministic;
          quick "sweep draw independence" test_sweep_heuristic_independent_draws;
          quick "report render + csv" test_report_renders_and_csv;
          quick "scorecard logic" test_scorecard_logic;
          quick "scorecard table3" test_scorecard_table3;
          quick "tables render" test_tables_render;
        ] );
      ( "pipeline",
        [
          quick "matrix to makespan" test_matrix_to_makespan_pipeline;
          quick "serialize roundtrip pipeline" test_serialize_cli_pipeline;
          slow "ablations materialise" test_ablation_figures_materialise;
        ] );
    ]
