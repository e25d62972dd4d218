(** Textual (de)serialisation of grids.

    A small line-oriented format so topologies can be stored next to
    experiment results and fed back to the CLI:

    {v
    grid <n>
    cluster <id> <name> <size> L <latency_us> G <size>:<us>,<size>:<us>,...
    link <i> <j> L <latency_us> G <size>:<us>,...
    v}

    Links are directed; a symmetric topology simply lists both directions
    (or relies on {!to_string} which always writes both).  Lines starting
    with ['#'] and blank lines are ignored.  Cluster names are written with
    spaces mapped to ['_'] (the format is space-separated); parsing does
    not map them back. *)

val to_string : Grid.t -> string
val of_string : string -> (Grid.t, string) result
(** Parse failure yields [Error reason] with a line number. *)

val save : string -> Grid.t -> unit
(** Write to a file.  @raise Sys_error on IO failure. *)

val load : string -> (Grid.t, string) result
(** Read and parse a file.  A missing or unreadable file is an [Error]
    too, never an exception. *)
