module Clause = Kona_util.Clause

type clause =
  | Node_crash of { at_ns : int; id : int }
  | Link_flap of { at_ns : int; dur_ns : int }
  | Partition of { at_ns : int; dur_ns : int; ids : int list }
  | Rpc_timeout of { p : float }
  | Wqe_drop of { p : float }
  | Wqe_delay of { p : float; delay_ns : int }
  | Bit_flip of { p : float }
  | Torn_write of { p : float }
  | Stale_read of { p : float }
  | Dup_deliver of { p : float }

type t = clause list

(* ------------------------------------------------------------------ *)
(* The kind table *)

let scheduled keys f c =
  let at_ns = Clause.require_at c in
  Clause.known c keys;
  f c at_ns

let probabilistic keys f c =
  Clause.no_at c;
  Clause.known c keys;
  f c (Clause.get c "p" Clause.prob)

let scheduled_table =
  [
    ( "node-crash",
      scheduled [ "id" ] (fun c at_ns ->
          Node_crash { at_ns; id = Clause.get c "id" Clause.int }) );
    ( "link-flap",
      scheduled [ "dur" ] (fun c at_ns ->
          Link_flap { at_ns; dur_ns = Clause.get c "dur" Clause.dur }) );
    (* Asymmetric partition: the named nodes stay alive but their links
       drop control + data traffic for the window — distinct from the
       fail-stop [node-crash]. *)
    ( "partition",
      scheduled [ "dur"; "nodes" ] (fun c at_ns ->
          Partition
            {
              at_ns;
              dur_ns = Clause.get c "dur" Clause.pos_dur;
              ids = Clause.get c "nodes" (Clause.list Clause.nonneg);
            }) );
  ]

let scheduled_kinds = List.map fst scheduled_table

let kinds =
  scheduled_table
  @ [
      ("rpc-timeout", probabilistic [ "p" ] (fun _ p -> Rpc_timeout { p }));
      ("wqe-drop", probabilistic [ "p" ] (fun _ p -> Wqe_drop { p }));
      ( "wqe-delay",
        probabilistic [ "p"; "ns" ] (fun c p ->
            Wqe_delay { p; delay_ns = Clause.get c "ns" Clause.dur }) );
      ("bit-flip", probabilistic [ "p" ] (fun _ p -> Bit_flip { p }));
      ("torn-write", probabilistic [ "p" ] (fun _ p -> Torn_write { p }));
      ("stale-read", probabilistic [ "p" ] (fun _ p -> Stale_read { p }));
      ("dup-deliver", probabilistic [ "p" ] (fun _ p -> Dup_deliver { p }));
    ]

let to_clause c =
  let v ?at kind params = { Clause.kind; at; params } in
  let p_ kind p = v kind [ ("p", Printf.sprintf "%g" p) ] in
  match c with
  | Node_crash { at_ns; id } -> v ~at:at_ns "node-crash" [ ("id", string_of_int id) ]
  | Link_flap { at_ns; dur_ns } ->
      v ~at:at_ns "link-flap" [ ("dur", Clause.ns_to_string dur_ns) ]
  | Partition { at_ns; dur_ns; ids } ->
      v ~at:at_ns "partition"
        [ ("dur", Clause.ns_to_string dur_ns); ("nodes", Clause.ints_to_string ids) ]
  | Rpc_timeout { p } -> p_ "rpc-timeout" p
  | Wqe_drop { p } -> p_ "wqe-drop" p
  | Wqe_delay { p; delay_ns } ->
      v "wqe-delay" [ ("p", Printf.sprintf "%g" p); ("ns", Clause.ns_to_string delay_ns) ]
  | Bit_flip { p } -> p_ "bit-flip" p
  | Torn_write { p } -> p_ "torn-write" p
  | Stale_read { p } -> p_ "stale-read" p
  | Dup_deliver { p } -> p_ "dup-deliver" p

(* Probabilistic kinds may appear at most once per plan; a silent
   last-wins would make e.g. "wqe-drop:p=0.1;wqe-drop:p=0" a no-op
   plan that looks loaded.  Scheduled kinds legitimately repeat. *)
let rec once = function
  | [] -> ()
  | kind :: rest ->
      if List.mem kind rest then
        Clause.bad
          "duplicate clause kind %S in one plan (each probabilistic kind may appear at \
           most once)"
          kind;
      once rest

let parse =
  Clause.parse_list (fun clauses ->
      let plan = List.map (Clause.dispatch ~what:"fault kind" kinds) clauses in
      once
        (List.map (fun c -> c.Clause.kind) clauses
        |> List.filter (fun k -> not (List.mem k scheduled_kinds)));
      plan)

let parse_exn s =
  match parse s with Ok p -> p | Error msg -> invalid_arg ("Fault_spec: " ^ msg)

let to_string t = String.concat ";" (List.map (fun c -> Clause.to_string (to_clause c)) t)
let pp fmt t = Format.pp_print_string fmt (to_string t)
