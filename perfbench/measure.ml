(* Clocks, allocation counters, order statistics and the metric records
   every workload reports. *)

(* Monotonic wall clock, nanoseconds.  [Gridb_obs.Span.now_us] is
   [Sys.time] (CPU time summed over domains), which is not a wall clock. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Words allocated so far: minor words plus the words allocated directly
   in the major heap (major - promoted).  The minor figure comes from
   [Gc.minor_words], which is exact; the one in [Gc.counters] is not on
   OCaml 5.1 and drifts from run to run. *)
let allocated_words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Nearest-rank percentile of an already sorted array. *)
let percentile sorted p =
  let m = Array.length sorted in
  if m = 0 then nan
  else
    let idx = int_of_float (ceil (p /. 100. *. float_of_int m)) - 1 in
    sorted.(min (m - 1) (max 0 idx))

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_copy (Array.of_list xs)) 50.

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* The best repetition's value of [f], [pick] being [Float.max] or
   [Float.min].  The host this was tuned on runs at two speeds about 1.5x
   apart and switches within seconds, so a run's median or mean follows
   the share of the run spent at each speed, while the best of many short
   repetitions reads the faster speed in nearly every run. *)
let best pick f = function
  | [] -> invalid_arg "Measure.best: no repetition"
  | x :: rest -> List.fold_left (fun acc y -> pick acc (f y)) (f x) rest

(* [f ()] until [seconds] have gone by, at least [min] times; the results,
   newest first. *)
let repeat ~seconds ~min f =
  let acc = ref [] and k = ref 0 in
  let t_start = now_ns () in
  while !k < min || seconds_since t_start < seconds do
    acc := f () :: !acc;
    incr k
  done;
  !acc

(* [f ()] [repeats] times, each from a collected heap holding none of
   the earlier results: the last result and the median time, s. *)
let timed_median ~repeats f =
  let last = ref None and times = ref [] in
  for _ = 1 to repeats do
    last := None;
    Gc.compact ();
    let t0 = now_ns () in
    last := Some (f ());
    times := seconds_since t0 :: !times
  done;
  (Option.get !last, median !times)

(* [f ()] in a forked child process, its result marshalled back.  The
   child starts from this process's heap and gives all its memory back
   when it exits: repetitions neither inherit each other's garbage nor
   the heap growth a run without compaction (OCaml 5.1) leaves behind,
   and the child's peak heap is that of one repetition.  Needs a single
   domain, which is all the benchmark uses. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      (* Take the copy-on-write faults of the inherited heap (the marking
         writes every live header) and of the minor heap (filled once with
         small blocks) before [f] runs. *)
      Gc.full_major ();
      for _ = 1 to (Gc.get ()).Gc.minor_heap_size do
        ignore (Sys.opaque_identity (ref 0))
      done;
      let oc = Unix.out_channel_of_descr wr in
      let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r = try Ok (Marshal.from_channel ic) with End_of_file as e -> Error (Printexc.to_string e) in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match (r, status) with
      | Ok (Ok v), Unix.WEXITED 0 -> v
      | Ok (Error e), _ | Error e, _ -> failwith ("benchmark child failed: " ^ e)
      | Ok (Ok _), _ -> failwith "benchmark child did not exit cleanly")

(* Peak major heap of this process, MB (10^6 bytes). *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

type gc_delta = { minor_collections : int; major_collections : int; promoted_words : float }

let gc_snapshot () =
  let s = Gc.quick_stat () in
  { minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    promoted_words = s.Gc.promoted_words }

let gc_zero = { minor_collections = 0; major_collections = 0; promoted_words = 0. }

let gc_add a b =
  { minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
    promoted_words = a.promoted_words +. b.promoted_words }

let gc_diff a b =
  { minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
    promoted_words = b.promoted_words -. a.promoted_words }

(* One reported metric.  [tol] is the relative difference the value may
   show between two runs at one seed: [Some 0.] for values that repeat bit
   for bit (counts, allocation words, simulated times, ratios), [None] for
   host-time measurements.  The smoke test holds the values to it. *)
type metric = { name : string; value : float; unit : string; tol : float option }

let m ?tol name unit value = { name; value; unit; tol }
let count name v = m ~tol:0. name "count" (float_of_int v)

(* The end of a run: what was attempted, what failed an output check, and
   the metrics.  [violations] explains each failure on stderr. *)
type outcome = {
  attempted : int;
  failed : int;
  violations : string list;
  metrics : metric list;
}

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json o =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (o.failed = 0 && o.violations = []) o.attempted o.failed;
  List.iteri
    (fun i mt ->
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        mt.name (json_float mt.value) mt.unit)
    o.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
