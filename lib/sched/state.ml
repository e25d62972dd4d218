(* Struct-of-arrays layout: every per-cluster quantity the selection loops
   touch lives in its own flat array ([in_a]/[ready]/[avail] plus the
   instance's row-major [gap_flat]/[lat_flat] mirrors cached here), so the
   hot paths are plain float/int array reads with no record or row-pointer
   chasing. *)
type t = {
  inst : Instance.t;
  n : int;  (* = inst.n, hoisted for flat indexing *)
  gap_flat : float array;  (* = inst.gap_flat *)
  lat_flat : float array;  (* = inst.lat_flat *)
  in_a : bool array;
  ready : float array;
  avail : float array;
  mutable events : Schedule.event list;  (* reversed *)
  mutable round : int;
  mutable remaining_b : int;
  mutable first_b_hint : int;  (* lower bound on the smallest member of B *)
}

let create inst =
  let n = inst.Instance.n in
  let in_a = Array.make n false in
  let ready = Array.make n infinity in
  let avail = Array.make n infinity in
  in_a.(inst.Instance.root) <- true;
  ready.(inst.Instance.root) <- 0.;
  avail.(inst.Instance.root) <- 0.;
  {
    inst;
    n;
    gap_flat = inst.Instance.gap_flat;
    lat_flat = inst.Instance.lat_flat;
    in_a;
    ready;
    avail;
    events = [];
    round = 0;
    remaining_b = n - 1;
    first_b_hint = 0;
  }

let create_seeded inst ~sources =
  if sources = [] then invalid_arg "State.create_seeded: no sources";
  let n = inst.Instance.n in
  let in_a = Array.make n false in
  let ready = Array.make n infinity in
  let avail = Array.make n infinity in
  List.iter
    (fun (i, r, a) ->
      if i < 0 || i >= n then invalid_arg "State.create_seeded: cluster out of range";
      if in_a.(i) then invalid_arg "State.create_seeded: duplicate source";
      if not (0. <= r && r <= a) then
        invalid_arg "State.create_seeded: need 0 <= ready <= avail";
      in_a.(i) <- true;
      ready.(i) <- r;
      avail.(i) <- a)
    sources;
  if not in_a.(inst.Instance.root) then
    invalid_arg "State.create_seeded: the instance root must be a source";
  {
    inst;
    n;
    gap_flat = inst.Instance.gap_flat;
    lat_flat = inst.Instance.lat_flat;
    in_a;
    ready;
    avail;
    events = [];
    round = 0;
    remaining_b = n - List.length sources;
    first_b_hint = 0;
  }

let instance t = t.inst

let in_a t i =
  if i < 0 || i >= t.n then invalid_arg "State.in_a: out of range";
  t.in_a.(i)

let members_a t =
  List.filter (fun i -> t.in_a.(i)) (Instance.cluster_ids t.inst)

let members_b t =
  List.filter (fun i -> not t.in_a.(i)) (Instance.cluster_ids t.inst)

let iter_a t f =
  for i = 0 to t.n - 1 do
    if t.in_a.(i) then f i
  done

let iter_b t f =
  for i = 0 to t.n - 1 do
    if not t.in_a.(i) then f i
  done

let count_b t = t.remaining_b

let finished t = t.remaining_b = 0

(* B only ever shrinks, so the smallest member of B is non-decreasing over
   the run: resume the scan where the previous call stopped instead of
   walking the whole prefix (or allocating members_b) every round. *)
let first_b t =
  let n = t.n in
  let rec scan i =
    if i >= n then None
    else if not t.in_a.(i) then begin
      t.first_b_hint <- i;
      Some i
    end
    else scan (i + 1)
  in
  scan t.first_b_hint


let ready t i =
  if not (in_a t i) then invalid_arg "State.ready: cluster still in B";
  t.ready.(i)

let avail t i =
  if not (in_a t i) then invalid_arg "State.avail: cluster still in B";
  t.avail.(i)

(* Same formula as [Policy.arrival_score] (a State -> Lookahead -> Policy
   dependency cycle forbids calling it here).  The addition order must stay
   [(avail + g) + L] — the same left-association [send] uses — or seeded
   schedules shift by rounding. *)
let score_arrival t src dst =
  let k = (src * t.n) + dst in
  t.avail.(src) +. t.gap_flat.(k) +. t.lat_flat.(k)

let best_arrival_sender t ~dst =
  if in_a t dst then invalid_arg "State.best_arrival_sender: dst in A";
  let best = ref (-1) and best_a = ref infinity in
  iter_a t (fun i ->
      let a = score_arrival t i dst in
      if a < !best_a then begin
        best_a := a;
        best := i
      end);
  if !best < 0 then None else Some !best

let earliest_arrival t ~src ~dst =
  if not (in_a t src) then invalid_arg "State.earliest_arrival: src in B";
  if in_a t dst then invalid_arg "State.earliest_arrival: dst in A";
  score_arrival t src dst

let send t ~src ~dst =
  if src = dst then invalid_arg "State.send: src = dst";
  if not (in_a t src) then invalid_arg "State.send: src in B";
  if in_a t dst then invalid_arg "State.send: dst already in A";
  let k = (src * t.n) + dst in
  let g = t.gap_flat.(k) in
  let l = t.lat_flat.(k) in
  let start = t.avail.(src) in
  let sender_free = start +. g in
  let arrival = sender_free +. l in
  t.events <-
    { Schedule.round = t.round; src; dst; start; sender_free; arrival } :: t.events;
  t.round <- t.round + 1;
  t.avail.(src) <- sender_free;
  t.in_a.(dst) <- true;
  t.ready.(dst) <- arrival;
  t.avail.(dst) <- arrival;
  t.remaining_b <- t.remaining_b - 1

let to_schedule t =
  (* avail.(i) is exactly the end of i's last gap (or its arrival time if it
     never sent): the moment its intra-cluster broadcast may start. *)
  {
    Schedule.root = t.inst.Instance.root;
    n = t.inst.Instance.n;
    events = List.rev t.events;
    ready = Array.copy t.ready;
    busy_until = Array.copy t.avail;
  }

let replay inst picks =
  let t = create inst in
  let step (src, dst) =
    let ok = in_a t src && not (in_a t dst) in
    if ok then send t ~src ~dst;
    ok
  in
  if List.for_all step picks && finished t then Some (to_schedule t) else None

let run select inst =
  let t = create inst in
  while not (finished t) do
    let src, dst = select t in
    send t ~src ~dst
  done;
  to_schedule t
