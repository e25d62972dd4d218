(* Scaling benchmark for the selection engine: every paper heuristic at
   n = 16 .. 1024 clusters, naive reference scan vs incremental engine,
   emitting machine-readable results to BENCH_scaling.json.

   Usage: dune exec bench/scaling.exe -- [--max-n N] [--max-naive-n N]
                                         [-o FILE] [--seed S] [--jobs J]

   The two modes are verified to produce identical schedules on every
   (heuristic, n) cell they both run, so the speedup column compares like
   with like.  CI runs this capped at --max-n 128 as a smoke test; the
   committed BENCH_scaling.json comes from a full local run. *)

module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Rng = Gridb_util.Rng

type cell = {
  heuristic : string;
  n : int;
  incremental_ms : float;
  incremental_evals : int;
  naive_ms : float option; (* None when capped out by --max-naive-n *)
  naive_evals : int option;
  identical : bool option;
}

let sizes = [ 16; 32; 64; 128; 256; 512; 1024 ]

(* Wall-clock one run; repeat (short runs until ~50 ms of total work, long
   runs at least 3 times) and report the MINIMUM.  On a shared box a single
   300 ms run can read anywhere up to 3x its true cost; the minimum over a
   few repetitions is the standard robust floor estimator and makes the
   committed JSON comparable across runs. *)
let time_run f =
  let once () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let r, first = once () in
  let reps =
    if first >= 50. then 3
    else min 1_000 (1 + int_of_float (50. /. Float.max first 0.001))
  in
  let best = ref first in
  for _ = 2 to reps do
    let _, t = once () in
    if t < !best then best := t
  done;
  (r, !best)

let bench_cell ~max_naive_n ~seed policy n =
  let rng = Rng.create (seed + n) in
  let inst = Instance.random ~rng ~n Instance.table2_ranges in
  let run mode () = Engine.run_stats ~mode policy inst in
  let (incr_sched, incr_stats), incremental_ms = time_run (run `Incremental) in
  let incremental_evals =
    incr_stats.Engine.pair_evaluations + incr_stats.Engine.lookahead_terms
  in
  if n > max_naive_n then
    {
      heuristic = Policy.name policy;
      n;
      incremental_ms;
      incremental_evals;
      naive_ms = None;
      naive_evals = None;
      identical = None;
    }
  else begin
    let (naive_sched, naive_stats), naive_ms = time_run (run `Naive) in
    {
      heuristic = Policy.name policy;
      n;
      incremental_ms;
      incremental_evals;
      naive_ms = Some naive_ms;
      naive_evals =
        Some (naive_stats.Engine.pair_evaluations + naive_stats.Engine.lookahead_terms);
      identical = Some (naive_sched.Schedule.events = incr_sched.Schedule.events);
    }
  end

(* Handwritten JSON writer — the toolchain has no JSON library and the
   schema is flat enough not to want one. *)
let json_of_cells buf cells =
  let add fmt = Printf.bprintf buf fmt in
  let opt_float = function None -> "null" | Some v -> Printf.sprintf "%.4f" v in
  let opt_int = function None -> "null" | Some v -> string_of_int v in
  let opt_bool = function None -> "null" | Some b -> string_of_bool b in
  add "[\n";
  List.iteri
    (fun i c ->
      add
        "  {\"heuristic\": %S, \"n\": %d, \"incremental_ms\": %.4f, \
         \"incremental_evals\": %d, \"naive_ms\": %s, \"naive_evals\": %s, \
         \"speedup\": %s, \"identical\": %s}%s\n"
        c.heuristic c.n c.incremental_ms c.incremental_evals (opt_float c.naive_ms)
        (opt_int c.naive_evals)
        (match c.naive_ms with
        | Some nv when c.incremental_ms > 0. ->
            Printf.sprintf "%.2f" (nv /. c.incremental_ms)
        | _ -> "null")
        (opt_bool c.identical)
        (if i = List.length cells - 1 then "" else ","))
    cells;
  add "]"

let print_cell c =
  Printf.printf "%-10s n=%-5d incremental %8.2f ms%s%s\n%!" c.heuristic c.n
    c.incremental_ms
    (match c.naive_ms with
    | Some v ->
        Printf.sprintf "   naive %8.2f ms   speedup %6.2fx" v
          (v /. Float.max c.incremental_ms 1e-9)
    | None -> "   naive skipped")
    (match c.identical with Some false -> "   SCHEDULES DIFFER" | _ -> "")

let () =
  let max_n = ref 1024
  and max_naive_n = ref 1024
  and out = ref "BENCH_scaling.json"
  and seed = ref 2006
  and jobs = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--max-n" :: v :: rest ->
        max_n := int_of_string v;
        parse rest
    | "--max-naive-n" :: v :: rest ->
        max_naive_n := int_of_string v;
        parse rest
    | ("-o" | "--output") :: v :: rest ->
        out := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | ("-j" | "--jobs") :: v :: rest ->
        jobs := int_of_string v;
        parse rest
    | other :: _ ->
        prerr_endline
          ("unknown option " ^ other
         ^ " (known: --max-n N, --max-naive-n N, -o FILE, --seed S, --jobs J)");
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sizes = List.filter (fun n -> n <= !max_n) sizes in
  let policies = Policy.all in
  (* --jobs fans cells out over a Pool — useful for a quick CI sweep where
     throughput matters more than timing fidelity.  The default stays 1:
     concurrent cells contend for cores and caches, so committed timing
     runs should be sequential.  Cells print as they complete under
     jobs=1, all together (in deterministic grid order) otherwise. *)
  let work =
    Array.of_list
      (List.concat_map (fun n -> List.map (fun p -> (p, n)) policies) sizes)
  in
  let cells_arr =
    Gridb_util.Pool.map ~jobs:!jobs
      (fun (p, n) ->
        let c = bench_cell ~max_naive_n:!max_naive_n ~seed:!seed p n in
        if !jobs <= 1 then print_cell c;
        c)
      work
  in
  if !jobs > 1 then Array.iter print_cell cells_arr;
  let cells = Array.to_list cells_arr in
  (match List.filter (fun c -> c.identical = Some false) cells with
  | [] -> ()
  | bad ->
      List.iter
        (fun c -> Printf.eprintf "MISMATCH: %s at n=%d\n" c.heuristic c.n)
        bad;
      exit 1);
  let buf = Buffer.create 4_096 in
  Printf.bprintf buf
    "{\n\
    \  \"benchmark\": \"engine-scaling\",\n\
    \  \"seed\": %d,\n\
    \  %s,\n\
    \  \"instance\": \"Instance.random table2_ranges, one per n\",\n\
    \  \"timing\": \"min over repetitions\",\n\
    \  \"units\": {\"time\": \"ms\", \"evals\": \"pair scores + lookahead terms\"},\n\
    \  \"results\": " !seed
    (Gridb_util.Provenance.json_fields ~jobs:!jobs);
  json_of_cells buf cells;
  Buffer.add_string buf "\n}\n";
  let oc = open_out !out in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s (%d cells)\n" !out (List.length cells)
