module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

(* [slot] is the timer's payload slot while its event is queued, -1 once
   it has fired or been cancelled. *)
type timer = { id : int; mutable slot : int }

(* The event queue is a binary min-heap on (time, insertion seq).  Heap
   positions [0, size) hold only unboxed [times] and [seqs] and an int
   [slots] entry naming the event's payload slot; the payload (its action
   and, for a timer, its handle) lives in slot-indexed arrays, and [pos]
   maps each queued slot back to its heap position so a timer can be
   removed wherever it sits.  A sift step therefore moves floats and ints
   only, with no write barrier.  Unused slots form a stack threaded
   through [pos] (a free slot's entry names the next free slot, -1 ends
   it) with their payload cleared, so a fired or cancelled event's closure
   becomes garbage at once and the arrays hold O(pending events), never
   O(events ever scheduled).
   (time, seq) is a strict total order: equal times fire in insertion
   order, and the firing sequence does not depend on how the heap arranges
   its entries or which slots they use. *)
type t = {
  obs : Sink.t;
  mutable clock : float;
  mutable next_timer : int;
  mutable processed : int;
  mutable size : int;
  mutable next_seq : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pos : int array;
  mutable actions : (t -> unit) array;
  mutable timers : timer array;
  mutable free : int;
}

(* Payload of a free slot.  Plain (non-timer) events keep [no_timer] in
   their slot; it is never returned to a caller, so it is never cancelled,
   and [step] recognises it by physical equality. *)
let idle : t -> unit = fun _ -> ()
let no_timer = { id = -1; slot = -1 }
let initial_capacity = 16

(* Chains the free slots [from, cap) in ascending order. *)
let link_free pos ~from =
  let cap = Array.length pos in
  for slot = from to cap - 1 do
    pos.(slot) <- (if slot = cap - 1 then -1 else slot + 1)
  done

let create ?(obs = Sink.null) () =
  let cap = initial_capacity in
  let pos = Array.make cap 0 in
  link_free pos ~from:0;
  {
    obs;
    clock = 0.;
    next_timer = 0;
    processed = 0;
    size = 0;
    next_seq = 0;
    times = Array.make cap 0.;
    seqs = Array.make cap 0;
    slots = Array.make cap 0;
    pos;
    actions = Array.make cap idle;
    timers = Array.make cap no_timer;
    free = 0;
  }

let now t = t.clock

let[@inline] earlier (ta : float) (sa : int) (tb : float) (sb : int) =
  ta < tb || (ta = tb && sa < sb)

(* Called only when every slot is queued ([free = -1]): doubles every
   array and chains the new slots as free. *)
let grow t =
  let cap = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.pos <- extend t.pos 0;
  t.actions <- extend t.actions idle;
  t.timers <- extend t.timers no_timer;
  link_free t.pos ~from:cap;
  t.free <- cap

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  let slot = t.slots.(src) in
  t.slots.(dst) <- slot;
  t.pos.(slot) <- dst

(* Clear a slot's payload and return it to the free stack. *)
let release t slot =
  t.actions.(slot) <- idle;
  if t.timers.(slot) != no_timer then t.timers.(slot) <- no_timer;
  t.pos.(slot) <- t.free;
  t.free <- slot

(* Sift the new entry up from the fresh leaf: parents that sort after it
   move down one level into the hole, then the entry fills the hole.  This
   loop and those of [remove_at] stay inline: handing the moving entry's
   time to a helper function would box it. *)
let push t time action timer =
  if t.free < 0 then grow t;
  let slot = t.free in
  t.free <- t.pos.(slot);
  t.actions.(slot) <- action;
  if timer != no_timer then begin
    t.timers.(slot) <- timer;
    timer.slot <- slot
  end;
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
  t.slots.(!i) <- slot;
  t.pos.(slot) <- !i

(* Remove the entry at heap position [k] (its slot is the caller's to
   release): the last entry is lifted out and settles into the hole,
   rising while it sorts before the hole's parent (only possible below the
   root) and otherwise sinking below children that sort before it. *)
let remove_at t k =
  let last = t.size - 1 in
  t.size <- last;
  if k < last then begin
    let time = t.times.(last) and seq = t.seqs.(last) and slot = t.slots.(last) in
    let i = ref k and rising = ref true in
    while !rising && !i > 0 do
      let parent = (!i - 1) / 2 in
      if earlier time seq t.times.(parent) t.seqs.(parent) then begin
        move t ~src:parent ~dst:!i;
        i := parent
      end
      else rising := false
    done;
    let sinking = ref (!i = k) in
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
    t.slots.(!i) <- slot;
    t.pos.(slot) <- !i
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
  let timer = { id = t.next_timer; slot = -1 } in
  t.next_timer <- t.next_timer + 1;
  enqueue t ~time action timer;
  if Sink.enabled t.obs then
    Sink.emit t.obs (Event.Timer_set { id = timer.id; time = t.clock; fire_at = time });
  timer

let cancel t timer =
  let slot = timer.slot in
  if slot >= 0 then begin
    timer.slot <- -1;
    remove_at t t.pos.(slot);
    release t slot;
    if Sink.enabled t.obs then
      Sink.emit t.obs (Event.Timer_cancel { id = timer.id; time = t.clock })
  end

let timer_live timer = timer.slot >= 0

let step t =
  if t.size = 0 then false
  else begin
    let time = t.times.(0) and slot = t.slots.(0) in
    let action = t.actions.(slot) and tm = t.timers.(slot) in
    remove_at t 0;
    release t slot;
    (* [time >= clock] always holds, and most events fire at the instant
       of the one before; leaving the clock alone then saves boxing it. *)
    if time > t.clock then t.clock <- time;
    t.processed <- t.processed + 1;
    if tm != no_timer then begin
      tm.slot <- -1;
      if Sink.enabled t.obs then
        Sink.emit t.obs (Event.Timer_fire { id = tm.id; time = t.clock })
    end;
    action t;
    true
  end

let run t = while step t do () done

let run_until t horizon =
  while t.size > 0 && t.times.(0) <= horizon do
    ignore (step t)
  done;
  if t.clock < horizon then t.clock <- horizon

let pending t = t.size
let processed t = t.processed
