type t =
  | Null
  | Memory of { mutable events : Event.t list; mutable count : int }
  | Jsonl of { oc : out_channel; mutable count : int }

let null = Null
let memory () = Memory { events = []; count = 0 }
let jsonl oc = Jsonl { oc; count = 0 }

let with_jsonl path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (jsonl oc))

let enabled = function Null -> false | Memory _ | Jsonl _ -> true

let emit t e =
  match t with
  | Null -> ()
  | Memory m ->
      m.events <- e :: m.events;
      m.count <- m.count + 1
  | Jsonl j ->
      output_string j.oc (Event.to_json e);
      output_char j.oc '\n';
      j.count <- j.count + 1

let events = function Null | Jsonl _ -> [] | Memory m -> List.rev m.events

let count = function
  | Null -> 0
  | Memory { count; _ } | Jsonl { count; _ } -> count

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line when String.trim line = "" -> go (lineno + 1) acc
        | line -> (
            match Event.of_json line with
            | Ok e -> go (lineno + 1) (e :: acc)
            | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go 1 [])
