(** Checked numeric flag values for the [bench/] executables.  A bad value
    prints ["option FLAG: expected ... (got \"V\")"] to stderr and exits 2. *)

val int : ?min:int -> string -> string -> int
(** [int ?min flag v] parses [v] as an integer [>= min] (default: any). *)

val positive_float : string -> string -> float
(** [positive_float flag v] parses [v] as a finite float [> 0.]. *)
