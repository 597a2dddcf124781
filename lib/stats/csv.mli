(** RFC-4180 CSV output for experiment tables. *)

val mkdir_p : string -> unit
(** Create a directory and its missing ancestors ([mkdir -p]); existing
    directories (including races with concurrent creators) are fine. *)

val write_file : path:string -> header:string list -> rows:string list list -> unit
(** Write the document to a file, header first, one line per row. A field
    that contains commas, quotes or newlines is quoted, its quotes
    doubled.
    @raise Invalid_argument if any row's width differs from the header's. *)

val float_field : float -> string
(** Compact float rendering ([%.6g]). *)

val int_field : int -> string
(** Integer rendering. *)
