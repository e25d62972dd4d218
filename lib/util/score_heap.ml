type order = Min | Max

type t = {
  order : order;
  mutable scores : float array;  (* slots [0, size) are live *)
  mutable ids : int array;
  mutable size : int;
}

let create ?(capacity = 16) ~order () =
  if capacity < 1 then invalid_arg "Score_heap.create: capacity < 1";
  {
    order;
    scores = Array.make capacity 0.;
    ids = Array.make capacity 0;
    size = 0;
  }

let length t = t.size
let is_empty t = t.size = 0
let clear t = t.size <- 0

(* Strict "a sorts before b" under the heap order; equal scores break
   towards the smaller id in both orders so drain sequences are fully
   deterministic.  The [float]/[int] annotations are load-bearing: left
   polymorphic, every sift comparison would box both scores and call the
   generic [caml_lessthan]; typed and inlined, it compiles to two unboxed
   float compares and allocates nothing.  The standalone heap and [Bank]
   share this one definition. *)
let[@inline] before order (sa : float) (ia : int) (sb : float) (ib : int) =
  match order with
  | Min -> sa < sb || (sa = sb && ia < ib)
  | Max -> sa > sb || (sa = sb && ia < ib)

let grow t =
  let cap = Array.length t.scores in
  if t.size = cap then begin
    let ncap = 2 * cap in
    let nscores = Array.make ncap 0. and nids = Array.make ncap 0 in
    Array.blit t.scores 0 nscores 0 t.size;
    Array.blit t.ids 0 nids 0 t.size;
    t.scores <- nscores;
    t.ids <- nids
  end

let swap t i j =
  let s = t.scores.(i) and d = t.ids.(i) in
  t.scores.(i) <- t.scores.(j);
  t.ids.(i) <- t.ids.(j);
  t.scores.(j) <- s;
  t.ids.(j) <- d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.order t.scores.(i) t.ids.(i) t.scores.(parent) t.ids.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let first = ref i in
  if l < t.size && before t.order t.scores.(l) t.ids.(l) t.scores.(!first) t.ids.(!first)
  then first := l;
  if r < t.size && before t.order t.scores.(r) t.ids.(r) t.scores.(!first) t.ids.(!first)
  then first := r;
  if !first <> i then begin
    swap t i !first;
    sift_down t !first
  end

let push t score id =
  grow t;
  t.scores.(t.size) <- score;
  t.ids.(t.size) <- id;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top_score t =
  if t.size = 0 then invalid_arg "Score_heap.top_score: empty heap";
  t.scores.(0)

let top_id t =
  if t.size = 0 then invalid_arg "Score_heap.top_id: empty heap";
  t.ids.(0)

let second_score t =
  if t.size <= 1 then
    match t.order with Min -> infinity | Max -> neg_infinity
  else if t.size = 2 then t.scores.(1)
  else
    match t.order with
    | Min -> Float.min t.scores.(1) t.scores.(2)
    | Max -> Float.max t.scores.(1) t.scores.(2)

let drop_top t =
  if t.size = 0 then invalid_arg "Score_heap.drop_top: empty heap";
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.scores.(0) <- t.scores.(t.size);
    t.ids.(0) <- t.ids.(t.size);
    sift_down t 0
  end

let pop t =
  if t.size = 0 then None
  else begin
    let s = t.scores.(0) and id = t.ids.(0) in
    drop_top t;
    Some (s, id)
  end

let check_invariant t =
  let ok = ref true in
  for i = 1 to t.size - 1 do
    let p = (i - 1) / 2 in
    if before t.order t.scores.(i) t.ids.(i) t.scores.(p) t.ids.(p) then ok := false
  done;
  !ok

module Bank = struct
  (* [rows] independent fixed-capacity heaps in two shared flat arrays:
     row [r] owns slots [r*cap, r*cap + sizes.(r)).  Same sift algorithms
     and the same (score, id) tie-breaking as the growable heap above, so
     a bank row and a standalone heap fed the same operation sequence hold
     bit-identical slot layouts (the engine's differential tests compare
     [second_score], which reads slots 1 and 2 directly). *)
  type t = {
    order : order;
    rows : int;
    cap : int;
    scores : float array;
    ids : int array;
    sizes : int array;
  }

  let create ~rows ~cap ~order =
    if rows < 0 then invalid_arg "Score_heap.Bank.create: rows < 0";
    if cap < 1 then invalid_arg "Score_heap.Bank.create: cap < 1";
    {
      order;
      rows;
      cap;
      scores = Array.make (rows * cap) 0.;
      ids = Array.make (rows * cap) 0;
      sizes = Array.make rows 0;
    }

  let rows t = t.rows

  let check_row t r name =
    if r < 0 || r >= t.rows then invalid_arg ("Score_heap.Bank." ^ name ^ ": bad row")

  let size t r =
    check_row t r "size";
    t.sizes.(r)

  let is_empty t r =
    check_row t r "is_empty";
    t.sizes.(r) = 0

  let reset t r =
    check_row t r "reset";
    t.sizes.(r) <- 0

  let swap t i j =
    let s = t.scores.(i) and d = t.ids.(i) in
    t.scores.(i) <- t.scores.(j);
    t.ids.(i) <- t.ids.(j);
    t.scores.(j) <- s;
    t.ids.(j) <- d

  (* Sifts work on slot indices relative to the row base. *)
  let rec sift_up t base i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if
        before t.order
          t.scores.(base + i)
          t.ids.(base + i)
          t.scores.(base + parent)
          t.ids.(base + parent)
      then begin
        swap t (base + i) (base + parent);
        sift_up t base parent
      end
    end

  let rec sift_down t base size i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let first = ref i in
    if
      l < size
      && before t.order
           t.scores.(base + l)
           t.ids.(base + l)
           t.scores.(base + !first)
           t.ids.(base + !first)
    then first := l;
    if
      r < size
      && before t.order
           t.scores.(base + r)
           t.ids.(base + r)
           t.scores.(base + !first)
           t.ids.(base + !first)
    then first := r;
    if !first <> i then begin
      swap t (base + i) (base + !first);
      sift_down t base size !first
    end

  let push t r score id =
    check_row t r "push";
    let size = t.sizes.(r) in
    if size = t.cap then invalid_arg "Score_heap.Bank.push: row full";
    let base = r * t.cap in
    t.scores.(base + size) <- score;
    t.ids.(base + size) <- id;
    t.sizes.(r) <- size + 1;
    sift_up t base size

  let top_score t r =
    check_row t r "top_score";
    if t.sizes.(r) = 0 then invalid_arg "Score_heap.Bank.top_score: empty row";
    t.scores.(r * t.cap)

  let top_id t r =
    check_row t r "top_id";
    if t.sizes.(r) = 0 then invalid_arg "Score_heap.Bank.top_id: empty row";
    t.ids.(r * t.cap)

  let second_score t r =
    check_row t r "second_score";
    let size = t.sizes.(r) in
    let base = r * t.cap in
    if size <= 1 then match t.order with Min -> infinity | Max -> neg_infinity
    else if size = 2 then t.scores.(base + 1)
    else
      match t.order with
      | Min -> Float.min t.scores.(base + 1) t.scores.(base + 2)
      | Max -> Float.max t.scores.(base + 1) t.scores.(base + 2)

  let drop_top t r =
    check_row t r "drop_top";
    let size = t.sizes.(r) in
    if size = 0 then invalid_arg "Score_heap.Bank.drop_top: empty row";
    let size = size - 1 in
    t.sizes.(r) <- size;
    if size > 0 then begin
      let base = r * t.cap in
      t.scores.(base) <- t.scores.(base + size);
      t.ids.(base) <- t.ids.(base + size);
      sift_down t base size 0
    end

  let check_invariant t r =
    check_row t r "check_invariant";
    let base = r * t.cap in
    let ok = ref true in
    for i = 1 to t.sizes.(r) - 1 do
      let p = (i - 1) / 2 in
      if
        before t.order
          t.scores.(base + i)
          t.ids.(base + i)
          t.scores.(base + p)
          t.ids.(base + p)
      then ok := false
    done;
    !ok
end
