(** Console reporting helpers shared by all benchmark modules: fixed-width
    tables, section banners, and paper-vs-measured annotations.

    When a JSON-lines artifact is open ([open_json]), every printed table
    row is also appended to it as one object tagged with the current
    section, so the machine-readable record mirrors the console report. *)

val open_json :
  path:string -> ?meta:(string * Kona_telemetry.Json.t) list -> unit -> unit
(** Start the artifact; writes a header line [{"schema":"kona.bench.v1",
    ...meta}].  Without an open artifact [json_line] is a no-op.

    Every header is stamped with provenance: a ["commit"] field holding
    the git commit hash the bench was built from (resolved by following
    [.git/HEAD]; ["unknown"] outside a checkout) and a ["seed"] field
    holding the seed set via {!set_seed} — unless the caller's [meta]
    already supplies those keys. *)

val set_seed : int -> unit
(** Record the workload seed stamped into subsequent artifact headers
    (default 42, the bench suite's convention). *)

val close_json : unit -> unit

val with_artifact :
  path:string ->
  ?meta:(string * Kona_telemetry.Json.t) list ->
  (unit -> 'a) ->
  'a
(** Run [f] with its own artifact at [path] (header line included),
    then restore whichever artifact — if any — was open before.  Lets a
    bench write a dedicated machine-readable file without disturbing the
    process-wide one. *)

val json_line : (string * Kona_telemetry.Json.t) list -> unit
(** Append one object (plus a ["section"] field when inside a section). *)

val section : string -> unit
(** Banner with the experiment id and title; also tags subsequent
    [json_line]s. *)

val note : ('a, Format.formatter, unit) format -> 'a
(** One explanatory line. *)

val table : header:string list -> string list list -> unit
(** Column widths derived from contents; first row underlined.  Each data
    row is mirrored to the JSON artifact keyed by the header cells. *)

val f1 : float -> string
val f2 : float -> string
val ns : int -> string
val vs_paper : measured:float -> paper:float -> string
(** "measured (paper X, Y.Yx off)" annotation. *)
