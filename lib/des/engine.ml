module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

(* [slot] is the timer's payload slot while its event is queued, -1 once
   it has fired or been cancelled. *)
type timer = { id : int; mutable slot : int }

(* The event queue is a two-tier monotone queue in the style of the radix
   heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990).  Every queued event
   owns a payload slot: its time, action and, for a timer, its handle live
   in slot-indexed arrays.  Each event also has a radix key ([key]),
   monotone in its time.
   - The near tier is a binary min-heap on (time, seq) over the events
     whose key is <= [last].  Heap positions [0, size) hold a slot and the
     seq it was given on entering the heap; [pos] maps each slot back to
     its position.  Sifts move ints only.
   - Every later event waits in far bucket [msb (key lxor last)], a FIFO
     intrusive doubly linked list threaded through [pos] (successor) and
     [prev] (predecessor); [-1 - bucket] ends it at either side.  A push
     or a cancel there is O(1) and moves nothing.
   When the heap empties, [refill] takes the lowest non-empty bucket: its
   minimum key becomes [last], its events at that key enter the heap in
   list order and the rest move, in order, to lower buckets.  A far
   event's bucket index only ever falls, so each event moves O(key bits)
   times at most, and usually far fewer.
   Why the firing order is (time, insertion order), as with one heap:
   - Every near key is <= [last] < every far key, and keys are monotone in
     time, so the heap's root is the earliest event.
   - Each bucket lists its events in insertion order.  A refill moves
     events only into buckets below the lowest non-empty one, which are
     empty, and every event pushed later was inserted later.  So events
     enter the heap in insertion order, and a seq counted at heap entry
     orders equal times as an insertion seq would.
   Unused slots form a stack threaded through [pos] with their payload
   cleared, so a fired or cancelled event's closure becomes garbage at once
   and the arrays hold O(pending events), never O(events ever scheduled). *)
type t = {
  obs : Sink.t;
  mutable clock : float;
  mutable next_timer : int;
  mutable processed : int;
  mutable times : float array;
  mutable actions : (t -> unit) array;
  mutable timers : timer array;
  mutable pos : int array;
  mutable prev : int array;
  mutable free : int;
  mutable heap : int array;
  mutable seqs : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable last : int;
  mutable far : int;
  (* Bit [b] is set iff far bucket [b] is non-empty. *)
  mutable occupied : int;
  heads : int array;
  tails : int array;
}

(* Payload of a free slot.  Plain (non-timer) events keep [no_timer] in
   their slot; it is never returned to a caller, so it is never cancelled,
   and [step] recognises it by physical equality. *)
let idle : t -> unit = fun _ -> ()
let no_timer = { id = -1; slot = -1 }
let initial_capacity = 16

(* [prev] of a slot in the near heap. *)
let near = min_int

(* Keys are at most 62 bits wide (see [key]), so [key lxor last] has its
   highest set bit at 61 or below. *)
let buckets = 62

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
    times = Array.make cap 0.;
    actions = Array.make cap idle;
    timers = Array.make cap no_timer;
    pos;
    prev = Array.make cap 0;
    free = 0;
    heap = Array.make cap 0;
    seqs = Array.make cap 0;
    size = 0;
    next_seq = 0;
    last = 0;
    far = 0;
    occupied = 0;
    heads = Array.make buckets (-1);
    tails = Array.make buckets (-1);
  }

let now t = t.clock

(* The radix key of a slot's time: its IEEE-754 bits shifted right by one,
   a non-negative int monotone in the time (neighbouring floats may share
   a key; the heap orders them).  Queued times are never below the clock,
   which starts at 0., so the only non-positive one is ±0., keyed 0.  The
   slot, not the float, is the argument, so the time is never boxed. *)
let key t slot =
  let time = t.times.(slot) in
  if time > 0. then Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float time) 1)
  else 0

(* Index of the highest set bit of [x > 0]. *)
let msb x =
  let x = ref x and r = ref 0 in
  if !x lsr 32 <> 0 then begin x := !x lsr 32; r := 32 end;
  if !x lsr 16 <> 0 then begin x := !x lsr 16; r := !r + 16 end;
  if !x lsr 8 <> 0 then begin x := !x lsr 8; r := !r + 8 end;
  if !x lsr 4 <> 0 then begin x := !x lsr 4; r := !r + 4 end;
  if !x lsr 2 <> 0 then begin x := !x lsr 2; r := !r + 2 end;
  if !x lsr 1 <> 0 then !r + 1 else !r

let[@inline] earlier (ta : float) (sa : int) (tb : float) (sb : int) =
  ta < tb || (ta = tb && sa < sb)

(* Called only when every slot is queued ([free = -1]): doubles every
   slot-indexed array and chains the new slots as free. *)
let grow t =
  let cap = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.;
  t.actions <- extend t.actions idle;
  t.timers <- extend t.timers no_timer;
  t.pos <- extend t.pos 0;
  t.prev <- extend t.prev 0;
  link_free t.pos ~from:cap;
  t.free <- cap

(* Clear a slot's payload and return it to the free stack. *)
let release t slot =
  t.actions.(slot) <- idle;
  if t.timers.(slot) != no_timer then t.timers.(slot) <- no_timer;
  t.pos.(slot) <- t.free;
  t.free <- slot

(* --- near tier ----------------------------------------------------------- *)

let[@inline] place t slot seq i =
  t.heap.(i) <- slot;
  t.seqs.(i) <- seq;
  t.pos.(slot) <- i

(* The position an entry (its slot and seq) settles at when it fills the
   hole at [i] and rises: parents that sort after it move down one level
   into the hole. *)
let rise t slot seq i =
  let time = t.times.(slot) in
  let i = ref i and rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = t.heap.(parent) in
    if earlier time seq t.times.(p) t.seqs.(parent) then begin
      place t p t.seqs.(parent) !i;
      i := parent
    end
    else rising := false
  done;
  !i

(* Likewise sinking below children that sort before it. *)
let sink t slot seq i =
  let time = t.times.(slot) in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= t.size then sinking := false
    else begin
      let r = l + 1 in
      let c =
        if r < t.size
           && earlier t.times.(t.heap.(r)) t.seqs.(r) t.times.(t.heap.(l)) t.seqs.(l)
        then r
        else l
      in
      let sc = t.heap.(c) in
      if earlier t.times.(sc) t.seqs.(c) time seq then begin
        place t sc t.seqs.(c) !i;
        i := c
      end
      else sinking := false
    end
  done;
  !i

let heap_add t slot =
  if t.size = Array.length t.heap then begin
    let extend a =
      let b = Array.make (2 * t.size) 0 in
      Array.blit a 0 b 0 t.size;
      b
    in
    t.heap <- extend t.heap;
    t.seqs <- extend t.seqs
  end;
  let i = t.size and seq = t.next_seq in
  t.size <- i + 1;
  t.next_seq <- seq + 1;
  t.prev.(slot) <- near;
  place t slot seq (rise t slot seq i)

(* Remove the entry at heap position [k] (its slot is the caller's to
   release): the last entry is lifted out and settles into the hole,
   rising while it sorts before the hole's parent (only possible below the
   root) and otherwise sinking. *)
let remove_at t k =
  let last = t.size - 1 in
  t.size <- last;
  if k < last then begin
    let slot = t.heap.(last) and seq = t.seqs.(last) in
    let i = rise t slot seq k in
    place t slot seq (if i = k then sink t slot seq k else i)
  end

(* --- far tier ------------------------------------------------------------ *)

(* Append [slot] (key [k]) to its bucket. *)
let link t slot k =
  let b = msb (k lxor t.last) in
  t.pos.(slot) <- -1 - b;
  if t.occupied land (1 lsl b) = 0 then begin
    t.heads.(b) <- slot;
    t.prev.(slot) <- -1 - b;
    t.occupied <- t.occupied lor (1 lsl b)
  end
  else begin
    let tail = t.tails.(b) in
    t.pos.(tail) <- slot;
    t.prev.(slot) <- tail
  end;
  t.tails.(b) <- slot

let unlink t slot =
  let next = t.pos.(slot) and before = t.prev.(slot) in
  if next >= 0 then t.prev.(next) <- before else t.tails.(-1 - next) <- before;
  if before >= 0 then t.pos.(before) <- next
  else begin
    t.heads.(-1 - before) <- next;
    if next < 0 then t.occupied <- t.occupied land lnot (1 lsl (-1 - before))
  end;
  t.far <- t.far - 1

(* The earliest far event, when [far > 0].  Keys are monotone in time and
   the lowest non-empty bucket holds the least keys, so it is that
   bucket's earliest event. *)
let earliest_far t =
  let head = t.heads.(msb (t.occupied land -t.occupied)) in
  let s = ref t.pos.(head) and earliest = ref head in
  while !s >= 0 do
    if t.times.(!s) < t.times.(!earliest) then earliest := !s;
    s := t.pos.(!s)
  done;
  !earliest

(* Called when the heap is empty, with [earliest = earliest_far t]: its key
   becomes [last], the events of its bucket at that key enter the heap and
   the bucket's other events land in lower buckets, all in list order.
   Events in higher buckets keep their bucket: they agree with the old
   [last] on every bit above this bucket's, and so with the new one. *)
let refill t earliest =
  let least = key t earliest in
  let b = msb (least lxor t.last) in
  let head = t.heads.(b) in
  t.occupied <- t.occupied land lnot (1 lsl b);
  t.last <- least;
  let s = ref head in
  while !s >= 0 do
    let slot = !s in
    s := t.pos.(slot);
    let k = key t slot in
    if k = least then begin
      t.far <- t.far - 1;
      heap_add t slot
    end
    else link t slot k
  done

(* Whether the earliest event is due by [horizon].  The heap is refilled
   only for a far event that is due, so events past the horizon stay in
   their buckets. *)
let due t horizon =
  if t.size > 0 then t.times.(t.heap.(0)) <= horizon
  else
    t.far > 0
    &&
    let earliest = earliest_far t in
    t.times.(earliest) <= horizon
    && begin
      refill t earliest;
      true
    end

(* --- public interface ---------------------------------------------------- *)

let push t time action timer =
  if t.free < 0 then grow t;
  let slot = t.free in
  t.free <- t.pos.(slot);
  t.times.(slot) <- time;
  t.actions.(slot) <- action;
  if timer != no_timer then begin
    t.timers.(slot) <- timer;
    timer.slot <- slot
  end;
  (* The clock's key is never below [last] (a far minimum is refilled
     only once it is due), so a key <= [last] is [last] itself. *)
  let k = key t slot in
  if k <= t.last then heap_add t slot
  else begin
    t.far <- t.far + 1;
    link t slot k
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
    if t.prev.(slot) = near then remove_at t t.pos.(slot) else unlink t slot;
    release t slot;
    if Sink.enabled t.obs then
      Sink.emit t.obs (Event.Timer_cancel { id = timer.id; time = t.clock })
  end

let timer_live timer = timer.slot >= 0

let step t =
  if t.size = 0 && t.far > 0 then refill t (earliest_far t);
  if t.size = 0 then false
  else begin
    let slot = t.heap.(0) in
    let time = t.times.(slot) in
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
  while due t horizon do
    ignore (step t)
  done;
  if t.clock < horizon then t.clock <- horizon

let pending t = t.size + t.far
let processed t = t.processed
