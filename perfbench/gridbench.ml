(* The repository benchmark.

     dune exec ./perfbench/gridbench.exe -- --workload NAME [--seed N]
       [--seconds S] [--trace 0|1]
     dune exec ./perfbench/gridbench.exe -- --smoke

   Workloads: plan-mixed, serve-overload, serve-chaos (see
   perfbench/METRICS.md).  With --trace 0 the run prints the end-to-end
   metrics, measured with tracing off; with --trace 1 it prints the
   per-layer ledger of a separate traced run and writes its spans to
   .perfbench/spans-NAME-SEED.jsonl.  The last stdout line is one JSON
   object {correct, attempted, failed, metrics}; the exit code is non-zero
   when any output check fails.

   --smoke runs every workload at reduced scale, twice per seed at seeds
   2006 and 2007, and checks that every count, allocation, simulated and
   ratio metric repeats (exactly, but for the one tolerance documented in
   serve.ml). *)

let workloads = [ "plan-mixed"; "serve-overload"; "serve-chaos" ]

let run_workload ?(smoke = false) name ~seed ~seconds ~trace =
  let serve cfg = Serve.run (if smoke then Serve.smoke cfg else cfg) ~seed ~seconds ~trace in
  match name with
  | "plan-mixed" ->
      Plan_mixed.run (if smoke then Plan_mixed.smoke else Plan_mixed.full) ~seed ~seconds ~trace
  | "serve-overload" -> serve Serve.overload
  | "serve-chaos" -> serve Serve.chaos
  | other -> invalid_arg (Printf.sprintf "unknown workload %S" other)

(* Non-finite values are output failures too: they cannot be compared. *)
let check_finite (o : Measure.outcome) =
  match List.filter (fun mt -> not (Float.is_finite mt.Measure.value)) o.Measure.metrics with
  | [] -> o
  | bad ->
      { o with
        Measure.violations =
          o.Measure.violations
          @ List.map (fun mt -> Printf.sprintf "metric %s is not finite" mt.Measure.name) bad }

(* --- provenance ---------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* HEAD of a git checkout in the current directory only (no search of
   parent directories); "none" elsewhere. *)
let commit () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head ->
      let prefix = "ref: " in
      if String.length head > 5 && String.sub head 0 5 = prefix then
        let name = String.sub head 5 (String.length head - 5) in
        match trim (read_file (Filename.concat ".git" name)) with
        | h -> h
        | exception Sys_error _ -> (
            match read_file ".git/packed-refs" with
            | exception Sys_error _ -> "unknown"
            | packed -> (
                match
                  List.find_opt
                    (fun l -> String.length l > 41 && String.sub l 41 (String.length l - 41) = name)
                    (String.split_on_char '\n' packed)
                with
                | Some l -> String.sub l 0 40
                | None -> "unknown"))
      else head

(* MD5 over the library sources, sorted by path: identifies the program
   measured when the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort compare entries;
        List.concat_map
          (fun e ->
            let p = Filename.concat dir e in
            if Sys.is_directory p then files p
            else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
            else [])
          (Array.to_list entries)
  in
  match files "lib" with
  | [] -> "none"
  | fs -> Digest.to_hex (Digest.string (String.concat "" (List.map (fun f -> f ^ read_file f) fs)))

let stamp ~workload ~seed ~seconds ~trace =
  Printf.printf
    "# gridbench workload=%s seed=%d seconds=%g trace=%d commit=%s source_md5=%s nproc=%d \
     jobs=1 ocaml=%s\n\
     %!"
    workload seed seconds (if trace then 1 else 0) (commit ()) (source_digest ())
    (Domain.recommended_domain_count ()) Sys.ocaml_version

(* --- smoke ------------------------------------------------------------- *)

let smoke () =
  let failures = ref 0 and checked = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; prerr_endline ("smoke: " ^ s)) fmt in
  List.iter
    (fun workload ->
      List.iter
        (fun seed ->
          List.iter
            (fun trace ->
              let once () =
                let o, _ = run_workload ~smoke:true workload ~seed ~seconds:0. ~trace in
                let o = check_finite o in
                List.iter (fun v -> fail "%s seed %d: %s" workload seed v) o.Measure.violations;
                if o.Measure.failed <> 0 then
                  fail "%s seed %d: %d failed operations" workload seed o.Measure.failed;
                List.filter (fun mt -> mt.Measure.tol <> None) o.Measure.metrics
              in
              let a = once () and b = once () in
              List.iter2
                (fun (x : Measure.metric) (y : Measure.metric) ->
                  let tol = Option.get x.Measure.tol in
                  let same =
                    if tol = 0. then
                      Int64.bits_of_float x.Measure.value = Int64.bits_of_float y.Measure.value
                    else Float.abs (x.Measure.value -. y.Measure.value) <= tol *. Float.abs x.Measure.value
                  in
                  if not same then
                    fail "%s seed %d trace %b: %s reads %.17g then %.17g" workload seed trace
                      x.Measure.name x.Measure.value y.Measure.value)
                a b;
              checked := !checked + List.length a)
            [ false; true ])
        [ 2006; 2007 ])
    workloads;
  Printf.printf "smoke: %d metric pairs compared at seeds 2006 and 2007, %d failures\n"
    !checked !failures;
  if !failures = 0 then 0 else 1

(* --- command line -------------------------------------------------------- *)

let usage =
  "gridbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] | gridbench --smoke"

let () =
  let workload = ref "" and seed = ref 2006 and seconds = ref 10. and trace = ref 0 in
  let smoke_mode = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (default 2006)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer run (1)");
      ("--smoke", Arg.Set smoke_mode, " reduced-scale repeatability self-check") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke_mode then exit (smoke ());
  if (not (List.mem !workload workloads)) || (!trace <> 0 && !trace <> 1) || !seconds < 0. then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  stamp ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace;
  let o, ledger = run_workload !workload ~seed:!seed ~seconds:!seconds ~trace in
  let o = check_finite o in
  Option.iter
    (fun led ->
      let dir = ".perfbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed) in
      Ledger.write led path;
      Printf.printf "# %d spans -> %s\n" (Ledger.spans led) path)
    ledger;
  List.iter (fun v -> prerr_endline ("check failed: " ^ v)) o.Measure.violations;
  print_endline (Measure.result_json o);
  exit (if o.Measure.failed = 0 && o.Measure.violations = [] then 0 else 1)
