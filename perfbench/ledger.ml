(* In-memory span recorder for the traced run.

   Every call the benchmark makes into a layer's public function gets a
   span: layer, start, end, parent span and request id.  Spans live in
   flat growable arrays (no per-span record) and are written out once,
   when the run ends.  A span's self time is its duration minus the
   durations of its direct children; with integer nanoseconds the self
   times of all spans add up exactly to the root span's duration, so the
   root's self time is the wall time no layer span covers. *)

type layer =
  | Root
  | Fingerprint
  | Plan_cache
  | Engine
  | Admission
  | Plan
  | Session
  | Des_engine
  | Fold
  | Profile

let layers =
  [ Root; Fingerprint; Plan_cache; Engine; Admission; Plan; Session; Des_engine; Fold;
    Profile ]

let index = function
  | Root -> 0
  | Fingerprint -> 1
  | Plan_cache -> 2
  | Engine -> 3
  | Admission -> 4
  | Plan -> 5
  | Session -> 6
  | Des_engine -> 7
  | Fold -> 8
  | Profile -> 9

let name = function
  | Root -> "root"
  | Fingerprint -> "fingerprint"
  | Plan_cache -> "plan_cache"
  | Engine -> "engine"
  | Admission -> "admission"
  | Plan -> "plan"
  | Session -> "session"
  | Des_engine -> "des_engine"
  | Fold -> "fold"
  | Profile -> "profile"

let nlayers = List.length layers

type t = {
  mutable len : int;
  mutable layer : int array;
  mutable rid : int array;
  mutable tag : int array;  (** free per-span integer; engine spans hold n *)
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable alloc0 : float array;
  mutable alloc1 : float array;
  mutable cur : int;
}

let create () =
  let cap = 1024 in
  { len = 0;
    layer = Array.make cap 0;
    rid = Array.make cap 0;
    tag = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    alloc0 = Array.make cap 0.;
    alloc1 = Array.make cap 0.;
    cur = -1 }

let grow t =
  let cap = 2 * Array.length t.layer in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a = Array.append a (Array.make (cap - Array.length a) 0.) in
  t.layer <- ints t.layer;
  t.rid <- ints t.rid;
  t.tag <- ints t.tag;
  t.parent <- ints t.parent;
  t.start <- ints t.start;
  t.stop <- ints t.stop;
  t.alloc0 <- floats t.alloc0;
  t.alloc1 <- floats t.alloc1

(* The allocation counters are read outside the clock readings, so their
   cost lands in the parent's self time (the root's, at top level). *)
let enter ?(tag = 0) t l ~rid =
  if t.len = Array.length t.layer then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.layer.(i) <- index l;
  t.rid.(i) <- rid;
  t.tag.(i) <- tag;
  t.parent.(i) <- t.cur;
  t.cur <- i;
  t.alloc0.(i) <- Measure.allocated_words ();
  t.start.(i) <- Measure.now_ns ();
  i

let leave t i =
  t.stop.(i) <- Measure.now_ns ();
  t.alloc1.(i) <- Measure.allocated_words ();
  t.cur <- t.parent.(i)

let span ?tag t l ~rid f =
  let i = enter ?tag t l ~rid in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let spans t = t.len

(* Wall time of the root spans (those without a parent), ns. *)
let wall_ns t =
  let w = ref 0 in
  for i = 0 to t.len - 1 do
    if t.parent.(i) < 0 then w := !w + (t.stop.(i) - t.start.(i))
  done;
  !w

type totals = {
  self_ns : int array;  (** per layer index *)
  self_alloc : float array;
  count : int array;
}

(* Self time and self allocation of every span, folded with [f] as
   [f layer_index tag self_ns self_alloc]. *)
let iter_self t f =
  let child_ns = Array.make t.len 0 and child_alloc = Array.make t.len 0. in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (t.stop.(i) - t.start.(i));
      child_alloc.(p) <- child_alloc.(p) +. (t.alloc1.(i) -. t.alloc0.(i))
    end
  done;
  for i = 0 to t.len - 1 do
    f t.layer.(i) t.tag.(i)
      (t.stop.(i) - t.start.(i) - child_ns.(i))
      (t.alloc1.(i) -. t.alloc0.(i) -. child_alloc.(i))
  done

let totals t =
  let self_ns = Array.make nlayers 0
  and self_alloc = Array.make nlayers 0.
  and count = Array.make nlayers 0 in
  iter_self t (fun l _ ns alloc ->
      self_ns.(l) <- self_ns.(l) + ns;
      self_alloc.(l) <- self_alloc.(l) +. alloc;
      count.(l) <- count.(l) + 1);
  { self_ns; self_alloc; count }

let layer_names = Array.of_list (List.map name layers)

(* One JSON object per span, times in ns from the root's start. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 = if t.len = 0 then 0 else t.start.(0) in
      for i = 0 to t.len - 1 do
        Printf.fprintf oc
          "{\"span\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"rid\":%d}\n"
          i layer_names.(t.layer.(i)) (t.start.(i) - t0) (t.stop.(i) - t0) t.parent.(i)
          t.rid.(i)
      done)
