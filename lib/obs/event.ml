type heap_op = Rescore | Drop

type t =
  | Send of {
      src : int;
      dst : int;
      time : float;
      gap_end : float;
      arrival : float;
      msg : int;
      intra : bool;
      try_no : int;
    }
  | Arrival of { src : int; dst : int; time : float }
  | Ack of { src : int; dst : int; time : float }
  | Retransmit of { src : int; dst : int; time : float; try_no : int; rto : float }
  | Give_up of { src : int; dst : int; time : float }
  | Circuit_open of { src : int; dst : int; time : float }
  | Circuit_close of { src : int; dst : int; time : float }
  | Reroute of { dst : int; old_parent : int; new_parent : int; time : float }
  | Timer_set of { id : int; time : float; fire_at : float }
  | Timer_fire of { id : int; time : float }
  | Timer_cancel of { id : int; time : float }
  | Msg_send of { src : int; dst : int; tag : int; size : int; time : float }
  | Msg_recv of { src : int; dst : int; tag : int; time : float }
  | Recv_timeout of { rank : int; time : float }
  | Policy_round of { round : int; src : int; dst : int }
  | Heap_op of { op : heap_op; receiver : int; sender : int }
  | Cache_hit of { key : string }
  | Cache_miss of { key : string }
  | Strategy_selected of { name : string; predicted : float }
  | Repair_splice of { crashed : int; replanned : int }
  | Shed of { rid : int; priority : string; reason : string; time : float }
  | Retry of { rid : int; attempt : int; time : float }
  | Deadline_miss of { rid : int; deadline : float; finish : float }
  | Counter of { name : string; value : int }
  | Span_start of { name : string; time : float }
  | Span_end of { name : string; time : float }
  | Tagged of { sid : int; event : t }

let rec untag = function Tagged { event; _ } -> untag event | e -> e
let sid = function Tagged { sid; _ } -> Some sid | _ -> None
let tag ~sid event = Tagged { sid; event = untag event }

(* --- writer ------------------------------------------------------------ *)

(* %.17g round-trips every finite float64 exactly through float_of_string.
   Infinities print as "inf"/"-inf" (not strict JSON, but no simulated
   quantity we serialise is infinite and the bundled reader accepts them). *)
let add_float buf f = Printf.bprintf buf "%.17g" f

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

type field = I of string * int | F of string * float | S of string * string | B of string * bool

let obj ev fields =
  let buf = Buffer.create 96 in
  Printf.bprintf buf "{\"ev\":%S" ev;
  List.iter
    (fun f ->
      Buffer.add_char buf ',';
      match f with
      | I (k, v) -> Printf.bprintf buf "%S:%d" k v
      | F (k, v) ->
          Printf.bprintf buf "%S:" k;
          add_float buf v
      | S (k, v) ->
          Printf.bprintf buf "%S:" k;
          add_string buf v
      | B (k, v) -> Printf.bprintf buf "%S:%b" k v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let heap_op_name = function Rescore -> "rescore" | Drop -> "drop"

let rec to_json = function
  | Tagged { sid; event } ->
      (* The correlation id rides as one extra flat field on the inner
         event's object — the reader (and any field-tolerant consumer)
         sees the same shape, plus "sid". *)
      let inner = to_json (untag event) in
      String.sub inner 0 (String.length inner - 1) ^ Printf.sprintf ",\"sid\":%d}" sid
  | e -> to_json_untagged e

and to_json_untagged = function
  | Send { src; dst; time; gap_end; arrival; msg; intra; try_no } ->
      obj "send"
        [ I ("src", src); I ("dst", dst); F ("t", time); F ("gap_end", gap_end);
          F ("arrival", arrival); I ("msg", msg); B ("intra", intra); I ("try", try_no) ]
  | Arrival { src; dst; time } ->
      obj "arrival" [ I ("src", src); I ("dst", dst); F ("t", time) ]
  | Ack { src; dst; time } -> obj "ack" [ I ("src", src); I ("dst", dst); F ("t", time) ]
  | Retransmit { src; dst; time; try_no; rto } ->
      obj "retransmit"
        [ I ("src", src); I ("dst", dst); F ("t", time); I ("try", try_no);
          F ("rto", rto) ]
  | Give_up { src; dst; time } ->
      obj "give_up" [ I ("src", src); I ("dst", dst); F ("t", time) ]
  | Circuit_open { src; dst; time } ->
      obj "circuit_open" [ I ("src", src); I ("dst", dst); F ("t", time) ]
  | Circuit_close { src; dst; time } ->
      obj "circuit_close" [ I ("src", src); I ("dst", dst); F ("t", time) ]
  | Reroute { dst; old_parent; new_parent; time } ->
      obj "reroute"
        [ I ("dst", dst); I ("old", old_parent); I ("new", new_parent); F ("t", time) ]
  | Timer_set { id; time; fire_at } ->
      obj "timer_set" [ I ("id", id); F ("t", time); F ("fire_at", fire_at) ]
  | Timer_fire { id; time } -> obj "timer_fire" [ I ("id", id); F ("t", time) ]
  | Timer_cancel { id; time } -> obj "timer_cancel" [ I ("id", id); F ("t", time) ]
  | Msg_send { src; dst; tag; size; time } ->
      obj "msg_send"
        [ I ("src", src); I ("dst", dst); I ("tag", tag); I ("size", size); F ("t", time) ]
  | Msg_recv { src; dst; tag; time } ->
      obj "msg_recv" [ I ("src", src); I ("dst", dst); I ("tag", tag); F ("t", time) ]
  | Recv_timeout { rank; time } -> obj "recv_timeout" [ I ("rank", rank); F ("t", time) ]
  | Policy_round { round; src; dst } ->
      obj "policy_round" [ I ("round", round); I ("src", src); I ("dst", dst) ]
  | Heap_op { op; receiver; sender } ->
      obj "heap_op"
        [ S ("op", heap_op_name op); I ("receiver", receiver); I ("sender", sender) ]
  | Cache_hit { key } -> obj "cache_hit" [ S ("key", key) ]
  | Cache_miss { key } -> obj "cache_miss" [ S ("key", key) ]
  | Strategy_selected { name; predicted } ->
      obj "strategy_selected" [ S ("name", name); F ("predicted", predicted) ]
  | Repair_splice { crashed; replanned } ->
      obj "repair_splice" [ I ("crashed", crashed); I ("replanned", replanned) ]
  | Shed { rid; priority; reason; time } ->
      obj "shed"
        [ I ("rid", rid); S ("priority", priority); S ("reason", reason); F ("t", time) ]
  | Retry { rid; attempt; time } ->
      obj "retry" [ I ("rid", rid); I ("attempt", attempt); F ("t", time) ]
  | Deadline_miss { rid; deadline; finish } ->
      obj "deadline_miss" [ I ("rid", rid); F ("deadline", deadline); F ("finish", finish) ]
  | Counter { name; value } -> obj "counter" [ S ("name", name); I ("value", value) ]
  | Span_start { name; time } -> obj "span_start" [ S ("name", name); F ("t", time) ]
  | Span_end { name; time } -> obj "span_end" [ S ("name", name); F ("t", time) ]
  | Tagged _ as e -> to_json e

(* --- reader ------------------------------------------------------------ *)

(* A minimal parser for the flat one-object-per-line JSON the writer emits:
   string, integer, float and boolean values only, no nesting. *)

type scalar = Int of int | Float of float | Str of string | Bool of bool

exception Bad of string

let parse_fields line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = line.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "truncated escape");
        let e = line.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | '/' -> Buffer.add_char buf '/'
        | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub line !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex) with Failure _ -> fail "bad \\u escape"
            in
            if code > 0xff then fail "\\u escape beyond latin-1"
            else Buffer.add_char buf (Char.chr code)
        | _ -> fail "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_scalar () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some ('t' | 'f') ->
        if n - !pos >= 4 && String.sub line !pos 4 = "true" then begin
          pos := !pos + 4;
          Bool true
        end
        else if n - !pos >= 5 && String.sub line !pos 5 = "false" then begin
          pos := !pos + 5;
          Bool false
        end
        else fail "bad literal"
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          && match line.[!pos] with ',' | '}' | ' ' | '\t' -> false | _ -> true
        do
          incr pos
        done;
        let tok = String.sub line start (!pos - start) in
        if tok = "" then fail "empty value";
        (match int_of_string_opt tok with
        (* "-0" must stay a float: int_of_string would drop the sign bit *)
        | Some i when tok <> "-0" -> Int i
        | _ -> (
            match float_of_string_opt tok with
            | Some f -> Float f
            | None -> fail (Printf.sprintf "bad number %S" tok)))
    | None -> fail "missing value"
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if peek () = Some '}' then incr pos
  else begin
    let continue = ref true in
    while !continue do
      let key = (skip_ws (); parse_string ()) in
      expect ':';
      let v = parse_scalar () in
      fields := (key, v) :: !fields;
      skip_ws ();
      match peek () with
      | Some ',' -> incr pos
      | Some '}' ->
          incr pos;
          continue := false
      | _ -> fail "expected , or }"
    done
  end;
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  List.rev !fields

let find fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" k))

let geti fields k =
  match find fields k with
  | Int i -> i
  | _ -> raise (Bad (Printf.sprintf "field %S: expected int" k))

let getf fields k =
  match find fields k with
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> raise (Bad (Printf.sprintf "field %S: expected number" k))

let gets fields k =
  match find fields k with
  | Str s -> s
  | _ -> raise (Bad (Printf.sprintf "field %S: expected string" k))

let getb fields k =
  match find fields k with
  | Bool b -> b
  | _ -> raise (Bad (Printf.sprintf "field %S: expected bool" k))

let of_json line =
  match
    let fields = parse_fields (String.trim line) in
    let ev = gets fields "ev" in
    let wrap event =
      match List.assoc_opt "sid" fields with
      | None -> event
      | Some (Int sid) -> Tagged { sid; event }
      | Some _ -> raise (Bad "field \"sid\": expected int")
    in
    wrap
      (match ev with
    | "send" ->
        Send
          {
            src = geti fields "src";
            dst = geti fields "dst";
            time = getf fields "t";
            gap_end = getf fields "gap_end";
            arrival = getf fields "arrival";
            msg = geti fields "msg";
            intra = getb fields "intra";
            try_no = geti fields "try";
          }
    | "arrival" ->
        Arrival { src = geti fields "src"; dst = geti fields "dst"; time = getf fields "t" }
    | "ack" ->
        Ack { src = geti fields "src"; dst = geti fields "dst"; time = getf fields "t" }
    | "retransmit" ->
        Retransmit
          {
            src = geti fields "src";
            dst = geti fields "dst";
            time = getf fields "t";
            try_no = geti fields "try";
            rto = getf fields "rto";
          }
    | "give_up" ->
        Give_up { src = geti fields "src"; dst = geti fields "dst"; time = getf fields "t" }
    | "circuit_open" ->
        Circuit_open
          { src = geti fields "src"; dst = geti fields "dst"; time = getf fields "t" }
    | "circuit_close" ->
        Circuit_close
          { src = geti fields "src"; dst = geti fields "dst"; time = getf fields "t" }
    | "reroute" ->
        Reroute
          {
            dst = geti fields "dst";
            old_parent = geti fields "old";
            new_parent = geti fields "new";
            time = getf fields "t";
          }
    | "timer_set" ->
        Timer_set
          { id = geti fields "id"; time = getf fields "t"; fire_at = getf fields "fire_at" }
    | "timer_fire" -> Timer_fire { id = geti fields "id"; time = getf fields "t" }
    | "timer_cancel" -> Timer_cancel { id = geti fields "id"; time = getf fields "t" }
    | "msg_send" ->
        Msg_send
          {
            src = geti fields "src";
            dst = geti fields "dst";
            tag = geti fields "tag";
            size = geti fields "size";
            time = getf fields "t";
          }
    | "msg_recv" ->
        Msg_recv
          {
            src = geti fields "src";
            dst = geti fields "dst";
            tag = geti fields "tag";
            time = getf fields "t";
          }
    | "recv_timeout" -> Recv_timeout { rank = geti fields "rank"; time = getf fields "t" }
    | "policy_round" ->
        Policy_round
          { round = geti fields "round"; src = geti fields "src"; dst = geti fields "dst" }
    | "heap_op" ->
        let op =
          match gets fields "op" with
          | "rescore" -> Rescore
          | "drop" -> Drop
          | other -> raise (Bad (Printf.sprintf "unknown heap op %S" other))
        in
        Heap_op { op; receiver = geti fields "receiver"; sender = geti fields "sender" }
    | "cache_hit" -> Cache_hit { key = gets fields "key" }
    | "cache_miss" -> Cache_miss { key = gets fields "key" }
    | "strategy_selected" ->
        Strategy_selected { name = gets fields "name"; predicted = getf fields "predicted" }
    | "repair_splice" ->
        Repair_splice
          { crashed = geti fields "crashed"; replanned = geti fields "replanned" }
    | "shed" ->
        Shed
          {
            rid = geti fields "rid";
            priority = gets fields "priority";
            reason = gets fields "reason";
            time = getf fields "t";
          }
    | "retry" ->
        Retry
          { rid = geti fields "rid"; attempt = geti fields "attempt"; time = getf fields "t" }
    | "deadline_miss" ->
        Deadline_miss
          {
            rid = geti fields "rid";
            deadline = getf fields "deadline";
            finish = getf fields "finish";
          }
    | "counter" -> Counter { name = gets fields "name"; value = geti fields "value" }
    | "span_start" -> Span_start { name = gets fields "name"; time = getf fields "t" }
    | "span_end" -> Span_end { name = gets fields "name"; time = getf fields "t" }
    | other -> raise (Bad (Printf.sprintf "unknown event %S" other)))
  with
  | event -> Ok event
  | exception Bad msg -> Error msg

let pp ppf e = Format.pp_print_string ppf (to_json e)
let equal (a : t) (b : t) = a = b
