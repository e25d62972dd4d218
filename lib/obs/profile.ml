type session_row = {
  sid : int;
  s_sends : int;  (** data transmissions tagged with this sid *)
  s_busy_us : float;  (** NIC occupancy of those transmissions *)
  s_makespan_us : float;  (** latest tagged arrival *)
}

type report = {
  schedule_us : float;
  transmit_us : float;
  intra_us : float;
  retransmit_us : float;
  makespan_us : float;
  sends : int;
  retransmits : int;
  give_ups : int;
  circuit_opens : int;
  reroutes : int;
  sheds : int;
  requeues : int;
  deadline_misses : int;
  events : int;
  spans : (string * float) list;
  counters : (string * int) list;
  sessions : session_row list;
}

(* Small ordered accumulator: first-seen key order is preserved so reports
   read in the order the producers spoke. *)
let upd assoc k f =
  let rec go = function
    | [] -> [ (k, f None) ]
    | (k', v) :: rest when k' = k -> (k, f (Some v)) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

(* Floats updated per event live in all-float records ([totals],
   [times]), whose fields are stored unboxed: an update allocates
   nothing. *)
type totals = {
  mutable transmit : float;
  mutable intra : float;
  mutable retransmit : float;
  mutable makespan : float;
}

type times = { mutable busy : float; mutable last_arrival : float }

(* A session row while the stream is folded. *)
type row = { rsid : int; mutable rsends : int; rtimes : times }

module Itbl = Hashtbl.Make (Int)

let of_events events =
  let tot = { transmit = 0.; intra = 0.; retransmit = 0.; makespan = 0. } in
  let sends = ref 0 and retransmits = ref 0 and give_ups = ref 0 in
  let circuit_opens = ref 0 and reroutes = ref 0 in
  let sheds = ref 0 and requeues = ref 0 and deadline_misses = ref 0 in
  let open_spans : (string, float list) Hashtbl.t = Hashtbl.create 8 in
  let spans = ref [] and counters = ref [] in
  let total = ref 0 in
  (* Per-correlation-id attribution; [rows] is in reverse first-seen
     order. *)
  let rows_by_sid : row Itbl.t = Itbl.create 8 in
  let rows = ref [] in
  let row sid =
    match Itbl.find rows_by_sid sid with
    | r -> r
    | exception Not_found ->
        let r = { rsid = sid; rsends = 0; rtimes = { busy = 0.; last_arrival = 0. } } in
        Itbl.add rows_by_sid sid r;
        rows := r :: !rows;
        r
  in
  (* The outermost tag's sid attributes an event; untagged events update
     a row that is never reported. *)
  let untagged = { rsid = 0; rsends = 0; rtimes = { busy = 0.; last_arrival = 0. } } in
  let row_of : Event.t -> row = function Tagged { sid; _ } -> row sid | _ -> untagged in
  let rec fold = function
    | [] -> ()
    | e :: rest ->
        incr total;
        (match Event.untag e with
        | Send { time; gap_end; arrival; intra; try_no; _ } ->
            incr sends;
            tot.makespan <- Float.max tot.makespan arrival;
            let gap = gap_end -. time in
            let r = row_of e in
            r.rsends <- r.rsends + 1;
            r.rtimes.busy <- r.rtimes.busy +. gap;
            if try_no > 0 then begin
              incr retransmits;
              tot.retransmit <- tot.retransmit +. gap
            end
            else if intra then tot.intra <- tot.intra +. gap
            else tot.transmit <- tot.transmit +. gap
        | Arrival { time; _ } ->
            tot.makespan <- Float.max tot.makespan time;
            let r = (row_of e).rtimes in
            r.last_arrival <- Float.max r.last_arrival time
        | Give_up _ -> incr give_ups
        | Circuit_open _ -> incr circuit_opens
        | Reroute _ -> incr reroutes
        | Shed _ -> incr sheds
        | Retry _ -> incr requeues
        | Deadline_miss _ -> incr deadline_misses
        | Span_start { name; time } ->
            let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans name) in
            Hashtbl.replace open_spans name (time :: stack)
        | Span_end { name; time } -> (
            match Hashtbl.find_opt open_spans name with
            | Some (start :: rest) ->
                Hashtbl.replace open_spans name rest;
                spans :=
                  upd !spans name (function
                    | None -> time -. start
                    | Some acc -> acc +. (time -. start))
            | _ -> ())
        | Counter { name; value } -> counters := upd !counters name (fun _ -> value)
        | _ -> ());
        fold rest
  in
  fold events;
  {
    schedule_us = (match List.assoc_opt "schedule" !spans with Some v -> v | None -> 0.);
    transmit_us = tot.transmit;
    intra_us = tot.intra;
    retransmit_us = tot.retransmit;
    makespan_us = tot.makespan;
    sends = !sends;
    retransmits = !retransmits;
    give_ups = !give_ups;
    circuit_opens = !circuit_opens;
    reroutes = !reroutes;
    sheds = !sheds;
    requeues = !requeues;
    deadline_misses = !deadline_misses;
    events = !total;
    spans = !spans;
    counters = !counters;
    sessions =
      List.rev_map
        (fun r ->
          { sid = r.rsid; s_sends = r.rsends; s_busy_us = r.rtimes.busy;
            s_makespan_us = r.rtimes.last_arrival })
        !rows;
  }

let render r =
  let table =
    Gridb_util.Text_table.create
      ~align:Gridb_util.Text_table.[ Left; Right ]
      [ "phase"; "value" ]
  in
  let add label value = Gridb_util.Text_table.add_row table [ label; value ] in
  let us label v = add label (Printf.sprintf "%.1f us" v) in
  us "schedule (host)" r.schedule_us;
  us "transmit (inter-cluster)" r.transmit_us;
  us "intra-cluster" r.intra_us;
  us "retransmit" r.retransmit_us;
  us "makespan (simulated)" r.makespan_us;
  Gridb_util.Text_table.add_separator table;
  add "data sends" (string_of_int r.sends);
  add "retransmissions" (string_of_int r.retransmits);
  add "edges given up" (string_of_int r.give_ups);
  add "circuits opened" (string_of_int r.circuit_opens);
  add "reroutes" (string_of_int r.reroutes);
  if r.sheds > 0 then add "requests shed" (string_of_int r.sheds);
  if r.requeues > 0 then add "retry requeues" (string_of_int r.requeues);
  if r.deadline_misses > 0 then add "deadline misses" (string_of_int r.deadline_misses);
  add "events on bus" (string_of_int r.events);
  List.iter
    (fun (name, v) -> if name <> "schedule" then us (Printf.sprintf "span %s" name) v)
    r.spans;
  if r.counters <> [] then Gridb_util.Text_table.add_separator table;
  List.iter (fun (name, v) -> add name (string_of_int v)) r.counters;
  if r.sessions <> [] then begin
    Gridb_util.Text_table.add_separator table;
    List.iter
      (fun s ->
        add
          (Printf.sprintf "session %d" s.sid)
          (Printf.sprintf "%d sends, %.1f us busy, makespan %.1f us" s.s_sends
             s.s_busy_us s.s_makespan_us))
      r.sessions
  end;
  Gridb_util.Text_table.render table
