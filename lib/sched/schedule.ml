type event = {
  round : int;
  src : int;
  dst : int;
  start : float;
  sender_free : float;
  arrival : float;
}

type t = {
  root : int;
  n : int;
  events : event list;
  ready : float array;
  busy_until : float array;
}

type completion_model = After_sends | Overlapped

let completion_times ?(model = After_sends) inst t =
  Array.init t.n (fun k ->
      let intra = inst.Instance.intra.(k) in
      match model with
      | After_sends -> t.busy_until.(k) +. intra
      | Overlapped -> Float.max (t.ready.(k) +. intra) t.busy_until.(k))

let makespan ?model inst t =
  Array.fold_left Float.max 0. (completion_times ?model inst t)

let rounds t = List.length t.events

let picks t = List.map (fun e -> (e.src, e.dst)) t.events

let depth t =
  let level = Array.make t.n 0 in
  List.iter (fun e -> level.(e.dst) <- level.(e.src) + 1) t.events;
  Array.fold_left max 0 level

let senders t =
  List.map (fun e -> e.src) t.events |> List.sort_uniq compare

let close_enough a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) /. scale < 1e-9

let validate inst t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if inst.Instance.n <> t.n then
    fail "instance has %d clusters, schedule %d" inst.Instance.n t.n
  else if t.root <> inst.Instance.root then fail "root mismatch"
  else begin
    let received = Array.make t.n 0 in
    let ready = Array.make t.n infinity in
    let busy = Array.make t.n 0. in
    ready.(t.root) <- 0.;
    let rec check round = function
      | [] ->
          let problem = ref None in
          for k = 0 to t.n - 1 do
            if !problem = None then begin
              if k <> t.root && received.(k) <> 1 then
                problem := Some (Printf.sprintf "cluster %d received %d times" k received.(k))
              else if not (close_enough ready.(k) t.ready.(k)) then
                problem :=
                  Some
                    (Printf.sprintf "ready.(%d) = %g but events imply %g" k t.ready.(k) ready.(k))
              else begin
                let expected_busy = Float.max ready.(k) busy.(k) in
                if not (close_enough expected_busy t.busy_until.(k)) then
                  problem :=
                    Some
                      (Printf.sprintf "busy_until.(%d) = %g but events imply %g" k
                         t.busy_until.(k) expected_busy)
              end
            end
          done;
          (match !problem with None -> Ok () | Some p -> Error p)
      | e :: rest ->
          if e.round <> round then fail "event %d out of order" e.round
          else if e.src < 0 || e.src >= t.n || e.dst < 0 || e.dst >= t.n then
            fail "round %d: cluster out of range" round
          else if e.src = e.dst then fail "round %d: self send" round
          else if e.dst = t.root then fail "round %d: root receives" round
          else if received.(e.dst) > 0 then fail "round %d: cluster %d receives twice" round e.dst
          else if ready.(e.src) = infinity then
            fail "round %d: sender %d does not hold the message" round e.src
          else if e.start +. 1e-9 < ready.(e.src) then
            fail "round %d: send starts at %g before sender ready %g" round e.start ready.(e.src)
          else if e.start +. 1e-9 < busy.(e.src) then
            fail "round %d: send starts at %g during sender occupancy until %g" round e.start
              busy.(e.src)
          else begin
            let g = inst.Instance.gap.(e.src).(e.dst)
            and l = inst.Instance.latency.(e.src).(e.dst) in
            if not (close_enough e.sender_free (e.start +. g)) then
              fail "round %d: sender_free mismatch" round
            else if not (close_enough e.arrival (e.start +. g +. l)) then
              fail "round %d: arrival mismatch" round
            else begin
              received.(e.dst) <- received.(e.dst) + 1;
              ready.(e.dst) <- e.arrival;
              busy.(e.src) <- e.sender_free;
              check (round + 1) rest
            end
          end
    in
    check 0 t.events
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule (root %d, %d clusters):@," t.root t.n;
  List.iter
    (fun e ->
      Format.fprintf ppf "  r%d: %d -> %d  start %.4g  free %.4g  arrive %.4g@," e.round
        e.src e.dst e.start e.sender_free e.arrival)
    t.events;
  Format.fprintf ppf "@]"
