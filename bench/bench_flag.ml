(* Checked numeric flag values for the bench executables: a value that is
   not a number, is NaN or infinite, or falls outside the flag's range is
   a usage error naming the flag (exit 2, as for an unknown option), never
   an uncaught exception or a silently accepted value. *)

let reject flag v expected =
  Printf.eprintf "option %s: expected %s (got %S)\n%!" flag expected v;
  exit 2

let int ?(min = min_int) flag v =
  let expected =
    if min = min_int then "an integer" else Printf.sprintf "an integer >= %d" min
  in
  match int_of_string_opt (String.trim v) with
  | Some n when n >= min -> n
  | _ -> reject flag v expected

let positive_float flag v =
  match float_of_string_opt (String.trim v) with
  | Some x when Float.is_finite x && x > 0. -> x
  | _ -> reject flag v "a finite number > 0"
