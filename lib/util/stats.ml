type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p05 : float;
  p95 : float;
}

let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty input")

let mean xs =
  check_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Stats.variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let w = rank -. float_of_int lo in
      (sorted.(lo) *. (1. -. w)) +. (sorted.(hi) *. w)
    end
  end

let percentile xs p =
  check_nonempty "Stats.percentile" xs;
  if p < 0. || p > 1. then invalid_arg "Stats.percentile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted p

let median xs = percentile xs 0.5

let summarize xs =
  check_nonempty "Stats.summarize" xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = sorted.(0);
    max = sorted.(Array.length sorted - 1);
    median = percentile_sorted sorted 0.5;
    p05 = percentile_sorted sorted 0.05;
    p95 = percentile_sorted sorted 0.95;
  }

module Online = struct
  type t = {
    mutable n : int;
    mutable mu : float;
    mutable m2 : float;
    mutable lo : float;
    mutable hi : float;
  }

  let create () = { n = 0; mu = 0.; m2 = 0.; lo = infinity; hi = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mu in
    t.mu <- t.mu +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mu));
    if x < t.lo then t.lo <- x;
    if x > t.hi then t.hi <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mu
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  let min t =
    if t.n = 0 then invalid_arg "Stats.Online.min: empty accumulator";
    t.lo

  let max t =
    if t.n = 0 then invalid_arg "Stats.Online.max: empty accumulator";
    t.hi

  (* Chan et al. pairwise combination. *)
  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let fa = float_of_int a.n and fb = float_of_int b.n in
      let delta = b.mu -. a.mu in
      let mu = a.mu +. (delta *. fb /. float_of_int n) in
      let m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int n) in
      { n; mu; m2; lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
    end
end
