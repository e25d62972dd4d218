module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

type timer = { mutable live : bool; id : int }

(* The event queue is a binary min-heap on (time, insertion seq) held in
   four parallel arrays; slots [0, size) are live.  Times and seqs are
   unboxed, so a sift step compares two floats and two ints without
   allocating.  (time, seq) is a strict total order: equal times fire in
   insertion order, and the firing sequence does not depend on how the heap
   arranges its slots.  A slot vacated by a pop is overwritten with
   [idle]/[no_timer] at once, so a fired event's closure becomes garbage
   immediately and the arrays hold O(pending events), never O(events ever
   scheduled). *)
type t = {
  obs : Sink.t;
  mutable clock : float;
  mutable next_timer : int;
  mutable processed : int;
  mutable cancelled_pending : int;
  mutable size : int;
  mutable next_seq : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable actions : (t -> unit) array;
  mutable timers : timer array;
}

(* Fillers for empty slots.  Plain (non-timer) events all carry [no_timer],
   which is never returned to a caller, so it is never cancelled and stays
   live; [step] skips it by physical equality. *)
let idle : t -> unit = fun _ -> ()
let no_timer = { live = true; id = -1 }
let initial_capacity = 16

let create ?(obs = Sink.null) () =
  {
    obs;
    clock = 0.;
    next_timer = 0;
    processed = 0;
    cancelled_pending = 0;
    size = 0;
    next_seq = 0;
    times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    actions = Array.make initial_capacity idle;
    timers = Array.make initial_capacity no_timer;
  }

let now t = t.clock

let[@inline] earlier (ta : float) (sa : int) (tb : float) (sb : int) =
  ta < tb || (ta = tb && sa < sb)

let grow t =
  let cap = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.actions <- extend t.actions idle;
  t.timers <- extend t.timers no_timer

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.actions.(dst) <- t.actions.(src);
  t.timers.(dst) <- t.timers.(src)

(* Sift the new entry up from the fresh leaf: parents that sort after it
   move down one level into the hole, then the entry fills the hole. *)
let push t time action timer =
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    if earlier time seq t.times.(parent) t.seqs.(parent) then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else rising := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.actions.(!i) <- action;
  t.timers.(!i) <- timer

(* Remove the root: the last entry is lifted out, its slot cleared, and it
   sinks from the root through the hole the root left. *)
let drop_top t =
  let last = t.size - 1 in
  t.size <- last;
  let time = t.times.(last) and seq = t.seqs.(last) in
  let action = t.actions.(last) and timer = t.timers.(last) in
  t.actions.(last) <- idle;
  t.timers.(last) <- no_timer;
  if last > 0 then begin
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= last then sinking := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && earlier t.times.(r) t.seqs.(r) t.times.(l) t.seqs.(l) then r else l
        in
        if earlier t.times.(c) t.seqs.(c) time seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else sinking := false
      end
    done;
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.actions.(!i) <- action;
    t.timers.(!i) <- timer
  end

let enqueue t ~time action timer =
  if Float.is_nan time then invalid_arg "Engine.schedule: NaN time";
  if time < t.clock then invalid_arg "Engine.schedule: time in the past";
  push t time action timer

let schedule t ~time action = enqueue t ~time action no_timer

let schedule_after t ~delay action =
  if Float.is_nan delay then invalid_arg "Engine.schedule_after: NaN delay";
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~time:(t.clock +. delay) action

let schedule_timer t ~time action =
  if Float.is_nan time then invalid_arg "Engine.schedule_timer: NaN time";
  let timer = { live = true; id = t.next_timer } in
  t.next_timer <- t.next_timer + 1;
  enqueue t ~time action timer;
  if Sink.enabled t.obs then
    Sink.emit t.obs (Event.Timer_set { id = timer.id; time = t.clock; fire_at = time });
  timer

let cancel t timer =
  if timer.live then begin
    timer.live <- false;
    t.cancelled_pending <- t.cancelled_pending + 1;
    if Sink.enabled t.obs then
      Sink.emit t.obs (Event.Timer_cancel { id = timer.id; time = t.clock })
  end

let timer_live timer = timer.live

(* Drop cancelled events sitting at the head of the queue: they must be
   invisible to [step]/[run_until] (neither executed, nor allowed to drag
   the clock or the horizon check). *)
let drop_cancelled t =
  while t.size > 0 && not t.timers.(0).live do
    drop_top t;
    t.cancelled_pending <- t.cancelled_pending - 1
  done

let step t =
  drop_cancelled t;
  if t.size = 0 then false
  else begin
    let time = t.times.(0) and action = t.actions.(0) and tm = t.timers.(0) in
    drop_top t;
    t.clock <- time;
    t.processed <- t.processed + 1;
    if tm != no_timer then begin
      tm.live <- false;
      if Sink.enabled t.obs then
        Sink.emit t.obs (Event.Timer_fire { id = tm.id; time = t.clock })
    end;
    action t;
    true
  end

let run t = while step t do () done

let run_until t horizon =
  let continue = ref true in
  while !continue do
    drop_cancelled t;
    if t.size > 0 && t.times.(0) <= horizon then ignore (step t) else continue := false
  done;
  if t.clock < horizon then t.clock <- horizon

let pending t =
  drop_cancelled t;
  t.size - t.cancelled_pending

let processed t = t.processed
