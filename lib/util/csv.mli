(** Minimal CSV writing (RFC 4180 quoting) for exporting experiment series.

    The bench harness optionally dumps every figure's data to [results/*.csv]
    so the curves can be re-plotted with external tools. *)

val escape : string -> string
(** Quote a field if it contains a comma, quote or newline. *)

val row_to_string : string list -> string

val parse : string -> string list list
(** RFC 4180 parser, the inverse of the writer: quoted fields may contain
    commas, quotes (doubled) and newlines; records end at LF, CRLF or end
    of input (a trailing newline closes the last record instead of opening
    an empty one); [parse "" = []].  Total on arbitrary input (lenient on
    technically malformed quoting), and for every field list [row],
    [parse (row_to_string row) = [row]] — the property test pins this
    round trip down. *)

val ensure_directory : string -> unit
(** Create a directory (and its parents) if missing; no-op otherwise. *)

val write : string -> string list list -> unit
(** [write path rows] writes all rows (first row typically the header),
    creating the parent directory if needed. *)
