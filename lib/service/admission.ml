type reason =
  | Concurrency of int  (** sessions in flight at decision time *)
  | Backlog of float  (** predicted backlog, us *)
  | Shed_backlog of float  (** low-priority shed: backlog past the watermark *)
  | Shed_circuit of float  (** low-priority shed: open-circuit fraction past threshold *)
  | Bad_policy of string  (** unknown heuristic name (server-side reject) *)

type decision = Admit | Reject of reason

(* The first two render exactly the strings the pre-shedding controller
   produced — the zero-chaos smoke output is pinned byte for byte. *)
let reason_string = function
  | Concurrency n -> Printf.sprintf "concurrency limit (%d in flight)" n
  | Backlog b -> Printf.sprintf "backlog %.0f us over budget" b
  | Shed_backlog b -> Printf.sprintf "shed: backlog %.0f us past watermark" b
  | Shed_circuit f -> Printf.sprintf "shed: open-circuit fraction %.2f past threshold" f
  | Bad_policy p -> Printf.sprintf "unknown policy %S" p

let is_shed = function Shed_backlog _ | Shed_circuit _ -> true | _ -> false

type shed = { watermark_us : float; max_open_frac : float }

let no_shed = { watermark_us = infinity; max_open_frac = infinity }

let shed ?(watermark_us = infinity) ?(max_open_frac = infinity) () =
  if Float.is_nan watermark_us || watermark_us <= 0. then
    invalid_arg "Admission.shed: watermark_us <= 0";
  if Float.is_nan max_open_frac || max_open_frac < 0. then
    invalid_arg "Admission.shed: max_open_frac < 0";
  { watermark_us; max_open_frac }

type t = {
  max_concurrent : int;
  max_backlog_us : float;
  shed : shed;
  (* Predicted finish times of admitted sessions, ascending (equal ones in
     admission order), in [finishes.(lo) .. finishes.(hi - 1)].  Finishes
     at or before a decision's [now] form a prefix, so expiry advances
     [lo]; the latest finish is the last one.  An insertion shifts the
     later finishes right, at most [max_concurrent] of them. *)
  mutable finishes : float array;
  mutable lo : int;
  mutable hi : int;
}

let create ?(max_concurrent = 8) ?(max_backlog_us = infinity) ?(shed = no_shed) () =
  if max_concurrent < 1 then invalid_arg "Admission.create: max_concurrent < 1";
  if max_backlog_us <= 0. then invalid_arg "Admission.create: max_backlog_us <= 0";
  { max_concurrent; max_backlog_us; shed; finishes = Array.make 8 0.; lo = 0; hi = 0 }

(* Index of the first finish after [now]; [not (f > now)] also covers a
   NaN finish, which is never booked (see [book]). *)
let first_after t ~now =
  let i = ref t.lo in
  while !i < t.hi && not (t.finishes.(!i) > now) do
    incr i
  done;
  !i

(* Books [finish] after every finish <= it.  A NaN finish is not booked:
   it could never be in flight, since every count ignores finishes that
   are not past its [now]. *)
let book t finish =
  if not (Float.is_nan finish) then begin
    if t.hi = Array.length t.finishes then begin
      let live = t.hi - t.lo in
      let dst = if 2 * live <= t.hi then t.finishes else Array.make (2 * t.hi) 0. in
      Array.blit t.finishes t.lo dst 0 live;
      t.finishes <- dst;
      t.lo <- 0;
      t.hi <- live
    end;
    let i = ref t.hi in
    while !i > t.lo && t.finishes.(!i - 1) > finish do
      t.finishes.(!i) <- t.finishes.(!i - 1);
      decr i
    done;
    t.finishes.(!i) <- finish;
    t.hi <- t.hi + 1
  end

(* Admission is judged on the {e predicted} makespan of the (cached) plan,
   not on simulated completions: the decision is available at request
   arrival, before any execution, and is identical however the batch is
   parallelised.  Prediction errs optimistic under contention (plans are
   costed uncontended), which makes the controller an upper bound on
   admitted load — the honest direction for overload protection.

   Degraded mode: [Low]-priority requests are additionally shed when the
   predicted backlog crosses the shedding watermark (softer than the hard
   budget, so high-priority traffic still lands in the gap between the
   two) or when the caller-supplied open-circuit fraction — the
   server's live health signal — exceeds its threshold. *)
let decide ?(priority = Workload.High) ?(open_frac = 0.) t ~now ~predicted_makespan =
  t.lo <- first_after t ~now;
  let inflight = t.hi - t.lo in
  if inflight >= t.max_concurrent then Reject (Concurrency inflight)
  else
    let backlog = if inflight = 0 then 0. else Float.max 0. t.finishes.(t.hi - 1) -. now in
    if backlog > t.max_backlog_us then Reject (Backlog backlog)
    else if priority = Workload.Low && backlog > t.shed.watermark_us then
      Reject (Shed_backlog backlog)
    else if priority = Workload.Low && open_frac > t.shed.max_open_frac then
      Reject (Shed_circuit open_frac)
    else begin
      book t (now +. predicted_makespan);
      Admit
    end

let inflight t ~now = t.hi - first_after t ~now
let shedding t = t.shed <> no_shed
