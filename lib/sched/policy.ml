type pair_score =
  | Latency
  | Transmission
  | Arrival

let score_depends_on_avail = function
  | Latency | Transmission -> false
  | Arrival -> true

let arrival_score ~avail ~gap ~latency = avail +. gap +. latency

type t = { name : string; shape : shape }

and shape =
  | Root_first
  | Select_min of { score : pair_score; lookahead : Lookahead.t }
  | Max_reach
  | Sized of { threshold : int; small : t; large : t }

let name t = t.name
let shape t = t.shape

let v ~name shape = { name; shape }

let flat_tree = { name = "FlatTree"; shape = Root_first }

let fef =
  { name = "FEF"; shape = Select_min { score = Latency; lookahead = Lookahead.none } }

let ecef =
  { name = "ECEF"; shape = Select_min { score = Arrival; lookahead = Lookahead.none } }

let select_min ?name ~score lookahead =
  let name =
    match name with
    | Some n -> n
    | None -> "ECEF-LA<" ^ lookahead.Lookahead.name ^ ">"
  in
  { name; shape = Select_min { score; lookahead } }

let ecef_with ?name lookahead = select_min ?name ~score:Arrival lookahead

let ecef_la = ecef_with ~name:"ECEF-LA" Lookahead.min_edge
let ecef_lat_min = ecef_with ~name:"ECEF-LAt" Lookahead.min_edge_plus_t
let ecef_lat_max = ecef_with ~name:"ECEF-LAT" Lookahead.max_edge_plus_t

let bottom_up = { name = "BottomUp"; shape = Max_reach }

let all = [ flat_tree; fef; ecef; ecef_la; ecef_lat_min; ecef_lat_max; bottom_up ]
let ecef_family = [ ecef; ecef_la; ecef_lat_min; ecef_lat_max ]
let names = List.map name all

let sized ~threshold ~small ~large =
  if threshold < 1 then invalid_arg "Policy.sized: threshold < 1";
  {
    name = Printf.sprintf "Mixed<%s|%s@%d>" small.name large.name threshold;
    shape = Sized { threshold; small; large };
  }

let rec resolve ~n t =
  match t.shape with
  | Sized { threshold; small; large } ->
      resolve ~n (if n <= threshold then small else large)
  | Root_first | Select_min _ | Max_reach -> t

(* --- name lookup ------------------------------------------------------- *)

(* "ECEF-LA<lookahead>" (case-insensitive wrapper, exact lookahead name). *)
let parse_ecef_la name =
  let prefix = "ecef-la<" in
  let len = String.length name in
  if
    len > String.length prefix + 1
    && String.lowercase_ascii (String.sub name 0 (String.length prefix)) = prefix
    && name.[len - 1] = '>'
  then
    let inner = String.sub name 8 (len - 9) in
    Option.map (fun la -> ecef_with la) (Lookahead.by_name inner)
  else None

(* "Mixed<small|large@threshold>": the component names may themselves be
   parameterised (and so contain '|', '@', '<', '>'), so try every '|' as
   the separator and every '@' after it as the threshold marker, keeping
   the first split where both components resolve. *)
let parse_mixed ~by_name name =
  let prefix = "mixed<" in
  let len = String.length name in
  if
    len > String.length prefix + 1
    && String.lowercase_ascii (String.sub name 0 (String.length prefix)) = prefix
    && name.[len - 1] = '>'
  then begin
    let body = String.sub name 6 (len - 7) in
    let blen = String.length body in
    let result = ref None in
    for bar = 0 to blen - 1 do
      if !result = None && body.[bar] = '|' then
        for at = bar + 1 to blen - 1 do
          if !result = None && body.[at] = '@' then
            match int_of_string_opt (String.sub body (at + 1) (blen - at - 1)) with
            | Some threshold when threshold >= 1 -> (
                let small_name = String.sub body 0 bar in
                let large_name = String.sub body (bar + 1) (at - bar - 1) in
                match (by_name small_name, by_name large_name) with
                | Some small, Some large ->
                    result := Some (sized ~threshold ~small ~large)
                | _ -> ())
            | _ -> ()
        done
    done;
    !result
  end
  else None

let rec by_name name =
  match List.find_opt (fun t -> t.name = name) all with
  | Some t -> Some t
  | None -> (
      match parse_ecef_la name with
      | Some t -> Some t
      | None -> (
          match parse_mixed ~by_name name with
          | Some t -> Some t
          | None ->
              (* Case-insensitive fallback, but only when unambiguous:
                 "ecef-lat" matches both ECEF-LAt and ECEF-LAT (they differ
                 only by case) and must resolve to neither. *)
              let canon = String.lowercase_ascii name in
              (match
                 List.filter (fun t -> String.lowercase_ascii t.name = canon) all
               with
              | [ t ] -> Some t
              | _ -> None)))
