(** The clause grammar of fault plans ({!Kona_faults.Fault_spec}), rack
    ops ({!Kona_rack.Rack_ops}) and scenario specs ({!Kona_scenario.Spec}):
    [';']-separated clauses (trimmed; blank ones skipped), each

    {v kind[@time][:key=value[,key=value...]] v}

    A time or duration is a non-negative integer with an optional
    [ns]/[us]/[ms]/[s] suffix (bare = ns).  Lists use ['|'], so [',']
    stays the parameter separator.  A key appears at most once per clause.

    This module owns the text form both ways; each language keeps only
    its kind table, converting between a lexed clause and its typed value
    with the checks and getters below.  Every grammar error is {!Bad}, and
    reads the same whichever language it came through. *)

exception Bad of string

val bad : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Bad} with a formatted message. *)

type t = {
  kind : string;
  at : int option;  (** the [@time] trigger, in ns *)
  params : (string * string) list;  (** in text order *)
}

val lex : string -> t
(** Rejects a bad time, a parameter without ['='] and a repeated key. *)

val to_string : t -> string
(** The inverse of {!lex}. *)

val parse_list : (t list -> 'a) -> string -> ('a, string) result
(** Split on [';'], lex each clause and convert the list; {!Bad} becomes
    [Error msg]. *)

val dispatch : what:string -> (string * (t -> 'a)) list -> t -> 'a
(** Convert with the kind table's entry; an unknown kind is an error
    naming [what] and listing the kinds. *)

val duration : string -> int
(** ["200us"] -> [200_000]. *)

val ns_to_string : int -> string
(** The canonical duration: the largest exact unit ([0] -> ["0ns"]). *)

val known : t -> string list -> unit
(** Rejects any key not listed. *)

val require_at : t -> int
val no_at : t -> unit

type 'a conv = string -> string -> 'a
(** Reads one raw value; takes the key for its messages. *)

val get : t -> string -> 'a conv -> 'a
(** A required parameter. *)

val opt : t -> string -> 'a conv -> 'a option
val int : int conv
val pos : int conv
val nonneg : int conv
val prob : float conv
val dur : int conv
val pos_dur : int conv
(** [pos] is [>= 1], [nonneg] [>= 0], [prob] a float between 0 and 1,
    [dur] a {!duration} and [pos_dur] one of at least 1 ns. *)

val list : 'a conv -> 'a list conv
(** A non-empty ['|']-separated list. *)

val one : string -> 'a conv -> ('a -> 'b) -> t -> 'b
(** A kind-table entry for a clause with one required parameter. *)

val bare : 'a -> t -> 'a
(** A kind-table entry for a clause without parameters. *)

val ints_to_string : int list -> string
(** ['|']-joined, as [list] reads it back. *)
