module Rng = Gridb_util.Rng

type spec = {
  drift_rate : float;
  drift_sigma : float;
  drift_max : float;
  load_on_mean : float;
  load_off_mean : float;
  leave_rate : float;
  join_rate : float;
  join_max : int;
  recluster_every : float;
}

let none =
  {
    drift_rate = 0.;
    drift_sigma = 0.25;
    drift_max = 4.;
    load_on_mean = 2e5;
    load_off_mean = 2e5;
    leave_rate = 0.;
    join_rate = 0.;
    join_max = 4;
    recluster_every = 0.;
  }

let v ?(drift_rate = 0.) ?(drift_sigma = none.drift_sigma) ?(drift_max = none.drift_max)
    ?(load_on_mean = none.load_on_mean) ?(load_off_mean = none.load_off_mean)
    ?(leave_rate = 0.) ?(join_rate = 0.) ?(join_max = none.join_max)
    ?(recluster_every = 0.) () =
  if drift_rate < 0. then invalid_arg "Dynamics.v: negative drift_rate";
  if drift_sigma <= 0. then invalid_arg "Dynamics.v: drift_sigma must be positive";
  if drift_max < 1. then invalid_arg "Dynamics.v: drift_max < 1";
  if load_on_mean <= 0. then invalid_arg "Dynamics.v: load_on_mean must be positive";
  if load_off_mean < 0. then invalid_arg "Dynamics.v: negative load_off_mean";
  if leave_rate < 0. then invalid_arg "Dynamics.v: negative leave_rate";
  if join_rate < 0. then invalid_arg "Dynamics.v: negative join_rate";
  if join_max < 0 then invalid_arg "Dynamics.v: negative join_max";
  if recluster_every < 0. then invalid_arg "Dynamics.v: negative recluster_every";
  {
    drift_rate;
    drift_sigma;
    drift_max;
    load_on_mean;
    load_off_mean;
    leave_rate;
    join_rate;
    join_max;
    recluster_every;
  }

let is_none s =
  s.drift_rate = 0. && s.leave_rate = 0. && s.join_rate = 0. && s.recluster_every = 0.

let of_string str =
  let str = String.trim str in
  if str = "" || String.lowercase_ascii str = "none" then Ok none
  else
    let parse_pair acc pair =
      match acc with
      | Error _ as e -> e
      | Ok s -> (
          match String.index_opt pair '=' with
          | None -> Error (Printf.sprintf "malformed %S (want key=value)" pair)
          | Some i -> (
              let key = String.trim (String.sub pair 0 i) in
              let value = String.trim (String.sub pair (i + 1) (String.length pair - i - 1)) in
              match float_of_string_opt value with
              | None -> Error (Printf.sprintf "%s: not a number (%S)" key value)
              | Some f -> (
                  (* Range checks live here, per key, so the error names the
                     CLI key the user typed — the Faults.of_string
                     contract. *)
                  let checked ok msg update =
                    if ok then Ok (update s)
                    else Error (Printf.sprintf "%s: %s (got %g)" key msg f)
                  in
                  match key with
                  | "drift" ->
                      checked (f >= 0.) "negative rate" (fun s -> { s with drift_rate = f })
                  | "drift-sigma" ->
                      checked (f > 0.) "must be positive"
                        (fun s -> { s with drift_sigma = f })
                  | "drift-max" ->
                      checked (f >= 1.) "must be >= 1" (fun s -> { s with drift_max = f })
                  | "load-on" ->
                      checked (f > 0.) "must be positive"
                        (fun s -> { s with load_on_mean = f })
                  | "load-off" ->
                      checked (f >= 0.) "negative duration"
                        (fun s -> { s with load_off_mean = f })
                  | "leave" ->
                      checked (f >= 0.) "negative rate" (fun s -> { s with leave_rate = f })
                  | "join" ->
                      checked (f >= 0.) "negative rate" (fun s -> { s with join_rate = f })
                  | "churn" ->
                      (* Shorthand: symmetric churn sets both rates; never
                         printed back, so round-trips stay fixpoints. *)
                      checked (f >= 0.) "negative rate"
                        (fun s -> { s with leave_rate = f; join_rate = f })
                  | "join-max" ->
                      checked
                        (f >= 0. && Float.is_integer f)
                        "must be a non-negative integer"
                        (fun s -> { s with join_max = int_of_float f })
                  | "recluster" ->
                      checked (f >= 0.) "negative period"
                        (fun s -> { s with recluster_every = f })
                  | other ->
                      Error
                        (Printf.sprintf
                           "unknown key %S (known: drift, drift-sigma, drift-max, \
                            load-on, load-off, leave, join, join-max, churn, recluster)"
                           other))))
    in
    match List.fold_left parse_pair (Ok none) (String.split_on_char ',' str) with
    | Error _ as e -> e
    | Ok s -> (
        match
          v ~drift_rate:s.drift_rate ~drift_sigma:s.drift_sigma ~drift_max:s.drift_max
            ~load_on_mean:s.load_on_mean ~load_off_mean:s.load_off_mean
            ~leave_rate:s.leave_rate ~join_rate:s.join_rate ~join_max:s.join_max
            ~recluster_every:s.recluster_every ()
        with
        | s -> Ok s
        | exception Invalid_argument m -> Error m)

let to_string s =
  if is_none s then "none"
  else
    let fields = ref [] in
    let add key value default =
      if value <> default then fields := Printf.sprintf "%s=%g" key value :: !fields
    in
    add "recluster" s.recluster_every 0.;
    if s.join_max <> none.join_max then
      fields := Printf.sprintf "join-max=%d" s.join_max :: !fields;
    add "join" s.join_rate 0.;
    add "leave" s.leave_rate 0.;
    add "load-off" s.load_off_mean none.load_off_mean;
    add "load-on" s.load_on_mean none.load_on_mean;
    add "drift-max" s.drift_max none.drift_max;
    add "drift-sigma" s.drift_sigma none.drift_sigma;
    add "drift" s.drift_rate 0.;
    String.concat "," !fields

(* One directed link's drift process.  Two merged Poisson-ish event streams
   — phase toggles and walk steps — are materialised lazily in time order
   up to the latest query, so draws happen in a fixed order no matter when
   (or whether) the executor asks.  The full segment history is kept
   because query times are not monotone across call sites (a send's start
   can sit past [now] while a later ACK queries an earlier time). *)
type drift_stream = {
  drng : Rng.t;
  mutable next_toggle : float;  (* next ON<->OFF boundary; infinity = always ON *)
  mutable next_step : float;  (* next walk-step arrival *)
  mutable on : bool;  (* load phase after the last materialised event *)
  mutable w : float;  (* clamped walk value (survives OFF phases) *)
  mutable segs : (float * float) list;  (* (since, factor), descending *)
}

type join = { rank : int; cluster : int; at : float }

type t = {
  spec : spec;
  n : int;
  t0 : float;  (* time origin; drawn times are offsets from it *)
  leave : float array;  (* per planning-time rank; infinity = never *)
  join_events : join array;
  origin : Rng.t;  (* master stream after the leave and join draws; never advanced *)
  drift_streams : (int, drift_stream) Hashtbl.t;  (* touched links only *)
}

let create ?(seed = 0) ?(t0 = 0.) ~n ~clusters spec =
  if n < 1 then invalid_arg "Dynamics.create: n < 1";
  if clusters < 1 then invalid_arg "Dynamics.create: clusters < 1";
  if not (Float.is_finite t0) then invalid_arg "Dynamics.create: t0 must be finite";
  (* Re-run the smart constructor so hand-built records cannot smuggle
     invalid parameters in (the Faults.create discipline). *)
  let spec =
    v ~drift_rate:spec.drift_rate ~drift_sigma:spec.drift_sigma ~drift_max:spec.drift_max
      ~load_on_mean:spec.load_on_mean ~load_off_mean:spec.load_off_mean
      ~leave_rate:spec.leave_rate ~join_rate:spec.join_rate ~join_max:spec.join_max
      ~recluster_every:spec.recluster_every ()
  in
  let master = Rng.create seed in
  let leave =
    if spec.leave_rate > 0. then
      Array.init n (fun _ -> Rng.exponential master spec.leave_rate)
    else Array.make n infinity
  in
  let join_events =
    if spec.join_rate > 0. && spec.join_max > 0 then begin
      let jrng = Rng.create (Int64.to_int (Rng.bits64 master)) in
      let events = ref [] in
      let t = ref 0. in
      (* Joins are drawn to a generous horizon; consumers see only those
         with [at] inside their own run. *)
      for k = 0 to spec.join_max - 1 do
        t := !t +. Rng.exponential jrng spec.join_rate;
        let cluster = Rng.int jrng clusters in
        events := { rank = n + k; cluster; at = t0 +. !t } :: !events
      done;
      Array.of_list (List.rev !events)
    end
    else [||]
  in
  {
    spec;
    n;
    t0;
    leave;
    join_events;
    origin = master;
    drift_streams = Hashtbl.create 16;
  }

let spec t = t.spec
let size t = t.n
let total t = t.n + Array.length t.join_events
let joins t = t.join_events

let check_rank t i name =
  if i < 0 || i >= total t then invalid_arg ("Dynamics." ^ name ^ ": rank out of range")

let leave_time t i =
  check_rank t i "leave_time";
  if i >= t.n then infinity else t.t0 +. t.leave.(i)

let left t i ~at = leave_time t i <= at

let clamp spec w = Float.min spec.drift_max (Float.max (1. /. spec.drift_max) w)

let materialize t s ~at =
  let spec = t.spec in
  while Float.min s.next_toggle s.next_step <= at do
    (* Toggles win ties so a step landing exactly on a boundary applies to
       the phase it opens — an arbitrary but fixed convention. *)
    if s.next_toggle <= s.next_step then begin
      let time = s.next_toggle in
      s.on <- not s.on;
      s.next_toggle <-
        time
        +. Rng.exponential s.drng
             (1. /. (if s.on then spec.load_on_mean else spec.load_off_mean));
      s.segs <- (time, if s.on then s.w else 1.) :: s.segs
    end
    else begin
      let time = s.next_step in
      s.w <- clamp spec (s.w *. Rng.lognormal ~sigma:spec.drift_sigma s.drng);
      s.next_step <- time +. Rng.exponential s.drng spec.drift_rate;
      if s.on then s.segs <- (time, s.w) :: s.segs
    end
  done

(* Link [idx]'s stream is seeded on first use from [origin]'s [(idx + 1)]-th
   output — the seed it would have drawn had every directed link been
   seeded eagerly in index order — reached by skip-ahead. *)
let drift_stream t idx =
  match Hashtbl.find_opt t.drift_streams idx with
  | Some s -> s
  | None ->
      let spec = t.spec in
      let drng = Rng.create (Int64.to_int (Rng.peek t.origin idx)) in
      let always_on = spec.load_off_mean = 0. in
      let s =
        {
          drng;
          next_toggle =
            (if always_on then infinity
             else Rng.exponential drng (1. /. spec.load_off_mean));
          next_step = Rng.exponential drng spec.drift_rate;
          on = always_on;
          w = 1.;
          segs = [ (0., 1.) ];
        }
      in
      Hashtbl.add t.drift_streams idx s;
      s

let factor t ~src ~dst ~at =
  check_rank t src "factor";
  check_rank t dst "factor";
  if
    t.spec.drift_rate = 0.
    || src = dst
    || src >= t.n (* join links are fresh and undrifted *)
    || dst >= t.n
  then 1.
  else begin
    let s = drift_stream t ((src * t.n) + dst) in
    let at = at -. t.t0 in
    materialize t s ~at;
    match List.find_opt (fun (since, _) -> since <= at) s.segs with
    | Some (_, f) -> f
    | None -> 1.
  end
