(* The mixed strategy of Section 6: "use performance-oriented heuristics
   like ECEF or ECEF-LA when the number of clusters is reduced, and the
   ECEF-LAT technique for grid systems with more clusters."

   This example reproduces the reasoning with a quick hit-rate scan and
   shows the mixed dispatcher keeping the best of both regimes.

   Run with: dune exec examples/mixed_strategy.exe *)

module Sched = Gridb_sched

let () =
  let mixed = Sched.Mixed.strategy () in
  let contenders = [ Sched.Policy.ecef_la; Sched.Policy.ecef_lat_max; mixed ] in
  let iterations = 1_500 in
  Printf.printf "hit rate against the global minimum (%d draws/point, %s model):\n\n"
    iterations "overlapped";
  Printf.printf "%8s" "clusters";
  List.iter (fun h -> Printf.printf "  %22s" (Sched.Policy.name h)) contenders;
  print_newline ();
  List.iter
    (fun n ->
      let rng = Gridb_util.Rng.create (100 + n) in
      let outcomes =
        Sched.Hit_rate.run ~model:Sched.Schedule.Overlapped ~rng ~iterations ~n
          Sched.Instance.table2_ranges contenders
      in
      Printf.printf "%8d" n;
      List.iter
        (fun o ->
          Printf.printf "  %21.1f%%" (100. *. Sched.Hit_rate.hit_fraction o))
        outcomes;
      print_newline ())
    [ 4; 8; 12; 20; 32; 48 ];
  print_newline ();
  Printf.printf
    "The dispatcher switches heuristics at %d clusters (the paper's suggestion);\n"
    Sched.Mixed.default_threshold;
  print_endline "by construction its row matches ECEF-LA up to the threshold and ECEF-LAT";
  print_endline "beyond it — pick the threshold for your regime from a scan like this one."
