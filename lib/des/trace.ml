type transmission = {
  src : int;
  dst : int;
  start : float;
  gap_end : float;
  arrival : float;
  msg : int;
}

let of_events events =
  List.filter_map
    (fun (e : Gridb_obs.Event.t) ->
      match Gridb_obs.Event.untag e with
      | Send { src; dst; time; gap_end; arrival; msg; _ } ->
          Some { src; dst; start = time; gap_end; arrival; msg }
      | _ -> None)
    events

let sender_busy_time trace =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl t.src) in
      Hashtbl.replace tbl t.src (prev +. (t.gap_end -. t.start)))
    trace;
  Hashtbl.fold (fun rank busy acc -> (rank, busy) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let busiest_sender trace =
  match sender_busy_time trace with [] -> None | top :: _ -> Some top

let critical_path trace =
  match trace with
  | [] -> []
  | _ ->
      let last =
        List.fold_left (fun acc t -> if t.arrival > acc.arrival then t else acc)
          (List.hd trace) trace
      in
      (* Walk back: the hop that delivered to the current hop's sender. *)
      let rec back hop acc =
        match List.find_opt (fun t -> t.dst = hop.src) trace with
        | Some prev -> back prev (hop :: acc)
        | None -> hop :: acc
      in
      back last []

let total_bytes trace = List.fold_left (fun acc t -> acc + t.msg) 0 trace

let pp ppf trace =
  let sorted = List.sort (fun a b -> Float.compare a.arrival b.arrival) trace in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun t ->
      Format.fprintf ppf "%8.1f us  %4d -> %-4d  (start %.1f, %d B)@," t.arrival t.src
        t.dst t.start t.msg)
    sorted;
  Format.fprintf ppf "@]"
