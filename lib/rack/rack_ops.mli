(** Scheduled rack-controller operations (the placement-era sibling of
    {!Kona_faults.Fault_spec}), in the {!Kona_util.Clause} grammar:

    {v add@3ms:cap=67108864;drain@5ms:id=1;rebalance@7ms v}

    - [add@T[:cap=BYTES]] — register a fresh memory node (capacity
      defaults to the rack's [node_capacity]);
    - [drain@T:id=N] — stop placing on node [N] and re-home every page
      it holds (composing with failover: a crashed-and-failed-over node
      drains from its promoted mirror);
    - [rebalance@T] — one forced capacity-balancing migration pass.

    Every clause needs its trigger time.  Scenario specs embed the same
    ops without one. *)

type op =
  | Add_node of { capacity : int option }
  | Drain of { id : int }
  | Rebalance

type clause = { at_ns : int; op : op }
type t = clause list

val kinds : (string * (Kona_util.Clause.t -> op)) list
(** The kind table: each op's converter from a lexed clause, whose
    trigger time it ignores. *)

val op_to_clause : op -> Kona_util.Clause.t
(** The inverse of the kind table, without a trigger time. *)

val parse : string -> (t, string) result
val parse_exn : string -> t
(** Raises [Invalid_argument] with the parse error. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
