module Clause = Kona_util.Clause

type op =
  | Add_node of { capacity : int option }
  | Drain of { id : int }
  | Rebalance

type clause = { at_ns : int; op : op }
type t = clause list

let kinds =
  [
    ( "add",
      fun c ->
        Clause.known c [ "cap" ];
        Add_node { capacity = Clause.opt c "cap" Clause.pos } );
    ("drain", Clause.one "id" Clause.nonneg (fun id -> Drain { id }));
    ("rebalance", Clause.bare Rebalance);
  ]

let op_to_clause op =
  let kind, params =
    match op with
    | Add_node { capacity = None } -> ("add", [])
    | Add_node { capacity = Some cap } -> ("add", [ ("cap", string_of_int cap) ])
    | Drain { id } -> ("drain", [ ("id", string_of_int id) ])
    | Rebalance -> ("rebalance", [])
  in
  { Clause.kind; at = None; params }

let parse =
  Clause.parse_list
    (List.map (fun c ->
         { at_ns = Clause.require_at c; op = Clause.dispatch ~what:"rack op" kinds c }))

let parse_exn s =
  match parse s with Ok p -> p | Error msg -> invalid_arg ("Rack_ops: " ^ msg)

let to_string t =
  String.concat ";"
    (List.map
       (fun { at_ns; op } -> Clause.to_string { (op_to_clause op) with at = Some at_ns })
       t)

let pp fmt t = Format.pp_print_string fmt (to_string t)
