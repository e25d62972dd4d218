module Params = Gridb_plogp.Params
module Piecewise = Gridb_plogp.Piecewise

let gap_to_string params =
  Piecewise.points (Params.gap_table params)
  |> List.map (fun (s, v) -> Printf.sprintf "%d:%.17g" s v)
  |> String.concat ","

let params_to_string p =
  Printf.sprintf "L %.17g G %s" (Params.latency p) (gap_to_string p)

let to_string grid =
  let buf = Buffer.create 4096 in
  let n = Grid.size grid in
  Buffer.add_string buf (Printf.sprintf "grid %d\n" n);
  for c = 0 to n - 1 do
    let cl = Grid.cluster grid c in
    Buffer.add_string buf
      (Printf.sprintf "cluster %d %s %d %s\n" c
         (String.map (fun ch -> if ch = ' ' then '_' else ch) cl.Cluster.name)
         cl.Cluster.size
         (params_to_string cl.Cluster.intra))
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        Buffer.add_string buf
          (Printf.sprintf "link %d %d %s\n" i j (params_to_string (Grid.link grid i j)))
    done
  done;
  Buffer.contents buf

exception Parse_error of string

(* Latencies and gap values are times: finite and non-negative, so that no
   NaN or infinity reaches a schedule. *)
let time_of_string s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x && x >= 0. -> Some x
  | _ -> None

let parse_gap_points s =
  String.split_on_char ',' s
  |> List.map (fun pair ->
         match String.split_on_char ':' pair with
         | [ size; value ] -> (
             match (int_of_string_opt size, time_of_string value) with
             | Some s, Some v -> (s, v)
             | _ -> raise (Parse_error ("bad gap point " ^ pair)))
         | _ -> raise (Parse_error ("bad gap point " ^ pair)))

let parse_params = function
  | "L" :: lat :: "G" :: gap :: [] -> (
      match time_of_string lat with
      | None -> raise (Parse_error ("bad latency " ^ lat))
      | Some latency ->
          Params.v ~latency ~gap:(Piecewise.of_points (parse_gap_points gap)) ())
  | toks -> raise (Parse_error ("bad parameter list: " ^ String.concat " " toks))

let of_string text =
  let lines = String.split_on_char '\n' text in
  let relevant =
    List.mapi (fun i l -> (i + 1, String.trim l)) lines
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  try
    match relevant with
    | [] -> Error "empty topology"
    | (ln, first) :: rest ->
        let n =
          match String.split_on_char ' ' first with
          | [ "grid"; n ] -> (
              match int_of_string_opt n with
              | Some n when n > 0 -> n
              | _ -> raise (Parse_error (Printf.sprintf "line %d: bad grid size" ln)))
          | _ -> raise (Parse_error (Printf.sprintf "line %d: expected 'grid <n>'" ln))
        in
        let clusters = Array.make n None in
        let links = Array.make_matrix n n None in
        let directive toks =
          match toks with
          | "cluster" :: id :: name :: size :: params -> (
              match (int_of_string_opt id, int_of_string_opt size) with
              | Some id, Some size when id >= 0 && id < n ->
                  let intra = parse_params params in
                  clusters.(id) <- Some (Cluster.v ~id ~name ~size ~intra)
              | _ -> raise (Parse_error "bad cluster header"))
          | "link" :: i :: j :: params -> (
              match (int_of_string_opt i, int_of_string_opt j) with
              | Some i, Some j when i >= 0 && i < n && j >= 0 && j < n && i <> j ->
                  links.(i).(j) <- Some (parse_params params)
              | _ -> raise (Parse_error "bad link header"))
          | _ -> raise (Parse_error "unknown directive")
        in
        List.iter
          (fun (ln, line) ->
            (* The constructors' own checks (a size-0 cluster, a negative
               gap-table size) are parse errors of this line too. *)
            try directive (String.split_on_char ' ' line |> List.filter (fun t -> t <> ""))
            with Parse_error reason | Invalid_argument reason ->
              raise (Parse_error (Printf.sprintf "line %d: %s" ln reason)))
          rest;
        let cluster_list =
          Array.to_list clusters
          |> List.mapi (fun i c ->
                 match c with
                 | Some c -> c
                 | None -> raise (Parse_error (Printf.sprintf "cluster %d missing" i)))
        in
        let self = Params.linear ~latency:1. ~g0:1. ~bandwidth_mb_s:1000. in
        let inter =
          Array.init n (fun i ->
              Array.init n (fun j ->
                  if i = j then self
                  else
                    match links.(i).(j) with
                    | Some p -> p
                    | None ->
                        raise (Parse_error (Printf.sprintf "link %d -> %d missing" i j))))
        in
        Ok (Grid.v ~clusters:cluster_list ~inter)
  with Parse_error reason | Invalid_argument reason -> Error reason

let save path grid =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string grid))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e
