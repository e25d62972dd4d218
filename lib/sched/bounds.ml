let reach inst k =
  if k = inst.Instance.root then 0.
  else begin
    let best = ref infinity in
    for i = 0 to inst.Instance.n - 1 do
      if i <> k then
        best :=
          Float.min !best (inst.Instance.gap.(i).(k) +. inst.Instance.latency.(i).(k))
    done;
    !best
  end

let completion_bound inst =
  let worst = ref 0. in
  for k = 0 to inst.Instance.n - 1 do
    worst := Float.max !worst (reach inst k +. inst.Instance.intra.(k))
  done;
  !worst

let fold_off_diagonal inst f init =
  let acc = ref init in
  for i = 0 to inst.Instance.n - 1 do
    for j = 0 to inst.Instance.n - 1 do
      if i <> j then acc := f !acc i j
    done
  done;
  !acc

let fanout_bound inst =
  let n = inst.Instance.n in
  if n <= 1 then inst.Instance.intra.(inst.Instance.root)
  else begin
    let gmin =
      fold_off_diagonal inst (fun acc i j -> Float.min acc inst.Instance.gap.(i).(j)) infinity
    in
    let lmin =
      fold_off_diagonal inst
        (fun acc i j -> Float.min acc inst.Instance.latency.(i).(j))
        infinity
    in
    let tmin = ref infinity in
    for k = 0 to n - 1 do
      if k <> inst.Instance.root then tmin := Float.min !tmin inst.Instance.intra.(k)
    done;
    let rounds = Float.ceil (Float.log2 (float_of_int n)) in
    (rounds *. gmin) +. lmin +. !tmin
  end

let root_gap_bound inst =
  let n = inst.Instance.n in
  if n <= 1 then 0.
  else begin
    let root = inst.Instance.root in
    let best = ref infinity in
    for j = 0 to n - 1 do
      if j <> root then
        best :=
          Float.min !best
            (inst.Instance.gap.(root).(j)
            +. inst.Instance.latency.(root).(j)
            +. inst.Instance.intra.(j))
    done;
    !best
  end

let combined inst =
  Float.max (completion_bound inst) (Float.max (fanout_bound inst) (root_gap_bound inst))

let upper inst =
  let n = inst.Instance.n in
  let chain = ref 0. and tmax = ref 0. in
  for j = 0 to n - 1 do
    let worst = ref 0. in
    for i = 0 to n - 1 do
      if i <> j then worst := Float.max !worst (Instance.send_time inst i j)
    done;
    chain := !chain +. !worst;
    tmax := Float.max !tmax inst.Instance.intra.(j)
  done;
  !chain +. !tmax

let gap_ratio inst makespan =
  if makespan < 0. then invalid_arg "Bounds.gap_ratio: negative makespan";
  let lb = combined inst in
  if lb <= 0. then 1. else makespan /. lb
