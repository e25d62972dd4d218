module Rng = Gridb_util.Rng

type spec = {
  loss : float;
  cut_rate : float;
  degrade_rate : float;
  degrade_mean : float;
  degrade_factor : float;
  crash_rate : float;
}

let none =
  {
    loss = 0.;
    cut_rate = 0.;
    degrade_rate = 0.;
    degrade_mean = 1e6;
    degrade_factor = 3.;
    crash_rate = 0.;
  }

let v ?(loss = 0.) ?(cut_rate = 0.) ?(degrade_rate = 0.) ?(degrade_mean = 1e6)
    ?(degrade_factor = 3.) ?(crash_rate = 0.) () =
  if not (loss >= 0. && loss < 1.) then invalid_arg "Faults.v: loss outside [0, 1)";
  if cut_rate < 0. then invalid_arg "Faults.v: negative cut_rate";
  if degrade_rate < 0. then invalid_arg "Faults.v: negative degrade_rate";
  if degrade_mean <= 0. then invalid_arg "Faults.v: degrade_mean must be positive";
  if degrade_factor < 1. then invalid_arg "Faults.v: degrade_factor < 1";
  if crash_rate < 0. then invalid_arg "Faults.v: negative crash_rate";
  { loss; cut_rate; degrade_rate; degrade_mean; degrade_factor; crash_rate }

let is_none s =
  s.loss = 0. && s.cut_rate = 0. && s.degrade_rate = 0. && s.crash_rate = 0.

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
                     CLI key the user typed — not the spec record field that
                     [v] would complain about. *)
                  let checked ok msg update =
                    if ok then Ok (update s)
                    else Error (Printf.sprintf "%s: %s (got %g)" key msg f)
                  in
                  match key with
                  | "loss" ->
                      checked (f >= 0. && f < 1.) "outside [0, 1)"
                        (fun s -> { s with loss = f })
                  | "cut" ->
                      checked (f >= 0.) "negative rate" (fun s -> { s with cut_rate = f })
                  | "crash" ->
                      checked (f >= 0.) "negative rate"
                        (fun s -> { s with crash_rate = f })
                  | "degrade" ->
                      checked (f >= 0.) "negative rate"
                        (fun s -> { s with degrade_rate = f })
                  | "degrade-mean" ->
                      checked (f > 0.) "must be positive"
                        (fun s -> { s with degrade_mean = f })
                  | "degrade-factor" ->
                      checked (f >= 1.) "must be >= 1"
                        (fun s -> { s with degrade_factor = f })
                  | other ->
                      Error
                        (Printf.sprintf
                           "unknown key %S (known: loss, cut, crash, degrade, \
                            degrade-mean, degrade-factor)"
                           other))))
    in
    match List.fold_left parse_pair (Ok none) (String.split_on_char ',' str) with
    | Error _ as e -> e
    | Ok s -> (
        match
          v ~loss:s.loss ~cut_rate:s.cut_rate ~degrade_rate:s.degrade_rate
            ~degrade_mean:s.degrade_mean ~degrade_factor:s.degrade_factor
            ~crash_rate:s.crash_rate ()
        with
        | s -> Ok s
        | exception Invalid_argument m -> Error m)

let to_string s =
  if is_none s then "none"
  else
    let fields = ref [] in
    let add key value default = if value <> default then fields := Printf.sprintf "%s=%g" key value :: !fields in
    add "crash" s.crash_rate 0.;
    add "degrade-factor" s.degrade_factor none.degrade_factor;
    add "degrade-mean" s.degrade_mean none.degrade_mean;
    add "degrade" s.degrade_rate 0.;
    add "cut" s.cut_rate 0.;
    add "loss" s.loss 0.;
    String.concat "," !fields

(* Degradation episodes are generated lazily per link, in start order, from
   the link's private stream: [next_start] is the first episode not yet
   materialised, so a query at time [at] only forces episodes with
   [start <= at] and later queries (at any time) see the same draws. *)
type degrade_stream = {
  drng : Rng.t;
  mutable next_start : float;
  mutable episodes : (float * float) list;  (* (start, stop), ascending *)
}

type t = {
  spec : spec;
  n : int;
  t0 : float;  (* time origin; drawn times are offsets from it *)
  crash : float array;  (* per rank; infinity = never *)
  cut : float array;  (* directed link src * n + dst; infinity = never *)
  origin : Rng.t;  (* master stream after the crash and cut draws; never advanced *)
  loss_streams : (int, Rng.t) Hashtbl.t;  (* touched links only *)
  degrade_streams : (int, degrade_stream) Hashtbl.t;  (* touched links only *)
}

let create ?(seed = 0) ?(t0 = 0.) ~n spec =
  if n < 1 then invalid_arg "Faults.create: n < 1";
  if not (Float.is_finite t0) then invalid_arg "Faults.create: t0 must be finite";
  (* Field validity: re-run the smart constructor so hand-built records
     cannot smuggle invalid parameters in. *)
  let spec =
    v ~loss:spec.loss ~cut_rate:spec.cut_rate ~degrade_rate:spec.degrade_rate
      ~degrade_mean:spec.degrade_mean ~degrade_factor:spec.degrade_factor
      ~crash_rate:spec.crash_rate ()
  in
  let master = Rng.create seed in
  let crash =
    if spec.crash_rate > 0. then
      Array.init n (fun _ -> Rng.exponential master spec.crash_rate)
    else Array.make n infinity
  in
  let cut =
    if spec.cut_rate > 0. then
      Array.init (n * n) (fun idx ->
          if idx / n = idx mod n then infinity
          else Rng.exponential master spec.cut_rate)
    else Array.make 0 0.
  in
  {
    spec;
    n;
    t0;
    crash;
    cut;
    origin = master;
    loss_streams = Hashtbl.create 16;
    degrade_streams = Hashtbl.create 16;
  }

let spec t = t.spec
let size t = t.n

let check_rank t i name =
  if i < 0 || i >= t.n then invalid_arg ("Faults." ^ name ^ ": rank out of range")

let crash_time t i =
  check_rank t i "crash_time";
  t.t0 +. t.crash.(i)

let crashed t i ~at = crash_time t i <= at

let link_index t ~src ~dst name =
  check_rank t src name;
  check_rank t dst name;
  (src * t.n) + dst

let cut_time t ~src ~dst =
  let idx = link_index t ~src ~dst "cut_time" in
  if Array.length t.cut = 0 then infinity else t.t0 +. t.cut.(idx)

let link_up t ~src ~dst ~at = cut_time t ~src ~dst > at

(* Per-link streams are seeded on first use.  The master stream after the
   crash and cut draws seeds one stream per directed link in index order —
   all n*n loss streams first (when loss is on), then the degradation
   streams — so link [idx]'s stream of a kind is seeded by [origin]'s
   [(offset + idx + 1)]-th output, [offset] counting the streams of the
   kinds before it; {!Rng.peek} reaches that output without drawing the
   others. *)
let sub_rng t ~offset idx =
  Rng.create (Int64.to_int (Rng.peek t.origin (offset + idx)))

let loss_stream t idx =
  match Hashtbl.find_opt t.loss_streams idx with
  | Some rng -> rng
  | None ->
      let rng = sub_rng t ~offset:0 idx in
      Hashtbl.add t.loss_streams idx rng;
      rng

let lose t ~src ~dst =
  let idx = link_index t ~src ~dst "lose" in
  t.spec.loss > 0. && Rng.bernoulli (loss_stream t idx) t.spec.loss

let degrade_stream t idx =
  match Hashtbl.find_opt t.degrade_streams idx with
  | Some s -> s
  | None ->
      let offset = if t.spec.loss > 0. then t.n * t.n else 0 in
      let drng = sub_rng t ~offset idx in
      let s =
        { drng; next_start = Rng.exponential drng t.spec.degrade_rate; episodes = [] }
      in
      Hashtbl.add t.degrade_streams idx s;
      s

let slowdown t ~src ~dst ~at =
  let idx = link_index t ~src ~dst "slowdown" in
  if t.spec.degrade_rate = 0. then 1.
  else begin
    let s = degrade_stream t idx in
    let at = at -. t.t0 in
    while s.next_start <= at do
      let start = s.next_start in
      let stop = start +. Rng.exponential s.drng (1. /. t.spec.degrade_mean) in
      s.episodes <- s.episodes @ [ (start, stop) ];
      s.next_start <- start +. Rng.exponential s.drng t.spec.degrade_rate
    done;
    if List.exists (fun (start, stop) -> start <= at && at < stop) s.episodes then
      t.spec.degrade_factor
    else 1.
  end
