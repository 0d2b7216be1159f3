module Units = Kona_util.Units
module Clause = Kona_util.Clause
module Fault_spec = Kona_faults.Fault_spec
module Rack_ops = Kona_rack.Rack_ops

type op =
  | Run of { n : int }
  | Crash of { id : int }
  | Flap of { dur_ns : int }
  | Partition of { dur_ns : int; ids : int list }
  | Corrupt of Fault_spec.clause
  | Quota of { tenant : int; bytes : int }
  | Publish of { pages : int }
  | Shared of { rounds : int }
  | Mwrite of { rounds : int }
  | Shm_rpc of { calls : int }
  | Scrub
  | Rack of Rack_ops.op
  | Migrate_epoch

type setup = {
  tenants : int;
  nodes : int;
  node_cap : int;
  gbps : float;
  replicas : int;
  fmem : int;
  quantum : int;
  seed : int;
  fault_seed : int;
  scrub_ns : int;
  verify : bool;
  workloads : string list;
  shares : int list;
  quotas : int list;
  policy : string;
  fast_nodes : int;
  slow_extra_ns : int;
  heartbeat_ns : int;
  lease_ns : int;
  writers : int;
}

type t = { setup : setup; ops : op list }

let default_setup =
  {
    tenants = 1;
    nodes = 2;
    node_cap = Units.mib 128;
    gbps = 1.0;
    replicas = 1;
    fmem = 256;
    quantum = 256;
    seed = 42;
    fault_seed = 42;
    scrub_ns = 200_000;
    verify = true;
    workloads = [ "kv-seq" ];
    shares = [ 1 ];
    quotas = [ 0 ];
    policy = "first-fit";
    fast_nodes = 1;
    slow_extra_ns = 0;
    heartbeat_ns = 0;
    lease_ns = 200_000;
    writers = 1;
  }

(* ------------------------------------------------------------------ *)
(* The kind tables.  No clause takes a trigger time: an op acts at its
   position in the sequence. *)

let gbps _ v =
  match float_of_string_opt v with
  | Some g when g > 0. -> g
  | Some _ | None -> Clause.bad "bad gbps %S (expected a positive float)" v

let flag _ = function
  | "0" -> false
  | "1" -> true
  | v -> Clause.bad "bad verify %S (expected 0 or 1)" v

(* The setup clause's fields, each named once: its key, how to read it
   into a setup and how to render it back. *)
let field key (conv, show) get set =
  (key, ((fun s v -> set s (conv key v)), fun s -> show (get s)))

let setup_fields =
  let pos = (Clause.pos, string_of_int) and nonneg = (Clause.nonneg, string_of_int) in
  let dur = (Clause.dur, Clause.ns_to_string) in
  let ints conv = (Clause.list conv, Clause.ints_to_string) in
  let raw _ v = v in
  [
    field "tenants" pos (fun s -> s.tenants) (fun s v -> { s with tenants = v });
    field "nodes" pos (fun s -> s.nodes) (fun s v -> { s with nodes = v });
    field "cap" pos (fun s -> s.node_cap) (fun s v -> { s with node_cap = v });
    field "gbps" (gbps, Printf.sprintf "%g") (fun s -> s.gbps) (fun s v ->
        { s with gbps = v });
    field "replicas" nonneg (fun s -> s.replicas) (fun s v -> { s with replicas = v });
    field "fmem" pos (fun s -> s.fmem) (fun s v -> { s with fmem = v });
    field "quantum" pos (fun s -> s.quantum) (fun s v -> { s with quantum = v });
    field "seed" nonneg (fun s -> s.seed) (fun s v -> { s with seed = v });
    field "fseed" nonneg (fun s -> s.fault_seed) (fun s v -> { s with fault_seed = v });
    field "scrub" dur (fun s -> s.scrub_ns) (fun s v -> { s with scrub_ns = v });
    field "verify"
      (flag, fun b -> if b then "1" else "0")
      (fun s -> s.verify)
      (fun s v -> { s with verify = v });
    field "workloads"
      (Clause.list raw, String.concat "|")
      (fun s -> s.workloads)
      (fun s v -> { s with workloads = v });
    field "shares" (ints Clause.pos) (fun s -> s.shares) (fun s v ->
        { s with shares = v });
    field "quotas" (ints Clause.nonneg) (fun s -> s.quotas) (fun s v ->
        { s with quotas = v });
    field "policy" (raw, Fun.id) (fun s -> s.policy) (fun s v -> { s with policy = v });
    field "fast" nonneg (fun s -> s.fast_nodes) (fun s v -> { s with fast_nodes = v });
    field "slowns" dur (fun s -> s.slow_extra_ns) (fun s v ->
        { s with slow_extra_ns = v });
    field "hb" dur (fun s -> s.heartbeat_ns) (fun s v -> { s with heartbeat_ns = v });
    field "lease" dur (fun s -> s.lease_ns) (fun s v -> { s with lease_ns = v });
    field "writers" pos (fun s -> s.writers) (fun s v -> { s with writers = v });
  ]

let parse_setup (c : Clause.t) =
  if c.kind <> "setup" then
    Clause.bad "spec must start with a setup: clause, got %S" c.kind;
  Clause.known c (List.map fst setup_fields);
  let s =
    List.fold_left
      (fun s (k, v) -> fst (List.assoc k setup_fields) s v)
      default_setup c.params
  in
  if s.heartbeat_ns > 0 && s.lease_ns < s.heartbeat_ns then
    Clause.bad "lease (%d ns) must be >= hb (%d ns)" s.lease_ns s.heartbeat_ns;
  s

let scenario_kinds =
  [
    ("run", Clause.one "n" Clause.pos (fun n -> Run { n }));
    ("crash", Clause.one "id" Clause.nonneg (fun id -> Crash { id }));
    ("flap", Clause.one "dur" Clause.pos_dur (fun dur_ns -> Flap { dur_ns }));
    ( "partition",
      fun c ->
        Clause.known c [ "dur"; "nodes" ];
        Partition
          {
            dur_ns = Clause.get c "dur" Clause.pos_dur;
            ids = Clause.get c "nodes" (Clause.list Clause.nonneg);
          } );
    ( "quota",
      fun c ->
        Clause.known c [ "t"; "bytes" ];
        Quota
          {
            tenant = Clause.get c "t" Clause.nonneg;
            bytes = Clause.get c "bytes" Clause.nonneg;
          } );
    ("publish", Clause.one "pages" Clause.pos (fun pages -> Publish { pages }));
    ("shared", Clause.one "rounds" Clause.pos (fun rounds -> Shared { rounds }));
    ("mwrite", Clause.one "rounds" Clause.pos (fun rounds -> Mwrite { rounds }));
    ("shmrpc", Clause.one "calls" Clause.pos (fun calls -> Shm_rpc { calls }));
    ("scrub", Clause.bare Scrub);
    ("migrate-epoch", Clause.bare Migrate_epoch);
  ]

(* Scheduled fault kinds are not ops: crash:, flap: and partition: act at
   their position in the sequence rather than at an absolute virtual
   time.  The probabilistic ones are armed mid-sequence as they are. *)
let op_kinds =
  scenario_kinds
  @ List.map (fun (k, f) -> (k, fun c -> Rack (f c))) Rack_ops.kinds
  @ List.filter_map
      (fun (k, f) ->
        if List.mem k Fault_spec.scheduled_kinds then None
        else Some (k, fun c -> Corrupt (f c)))
      Fault_spec.kinds

let parse =
  Clause.parse_list (fun clauses ->
      List.iter Clause.no_at clauses;
      match clauses with
      | [] -> Clause.bad "empty spec (expected setup:...[;op...])"
      | setup :: ops ->
          let setup = parse_setup setup in
          { setup; ops = List.map (Clause.dispatch ~what:"op" op_kinds) ops })

let parse_exn s =
  match parse s with Ok t -> t | Error msg -> invalid_arg ("Scenario spec: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Rendering: canonical and total — every setup field is always emitted,
   so [parse (to_string t) = Ok t] holds structurally. *)

let setup_to_clause s =
  {
    Clause.kind = "setup";
    at = None;
    params = List.map (fun (k, (_, show)) -> (k, show s)) setup_fields;
  }

let op_to_clause op =
  let v kind params = { Clause.kind; at = None; params } in
  let i = string_of_int in
  match op with
  | Run { n } -> v "run" [ ("n", i n) ]
  | Crash { id } -> v "crash" [ ("id", i id) ]
  | Flap { dur_ns } -> v "flap" [ ("dur", Clause.ns_to_string dur_ns) ]
  | Partition { dur_ns; ids } ->
      v "partition"
        [ ("dur", Clause.ns_to_string dur_ns); ("nodes", Clause.ints_to_string ids) ]
  | Corrupt c -> Fault_spec.to_clause c
  | Quota { tenant; bytes } -> v "quota" [ ("t", i tenant); ("bytes", i bytes) ]
  | Publish { pages } -> v "publish" [ ("pages", i pages) ]
  | Shared { rounds } -> v "shared" [ ("rounds", i rounds) ]
  | Mwrite { rounds } -> v "mwrite" [ ("rounds", i rounds) ]
  | Shm_rpc { calls } -> v "shmrpc" [ ("calls", i calls) ]
  | Scrub -> v "scrub" []
  | Rack op -> Rack_ops.op_to_clause op
  | Migrate_epoch -> v "migrate-epoch" []

let to_string t =
  String.concat ";"
    (List.map Clause.to_string (setup_to_clause t.setup :: List.map op_to_clause t.ops))

let pp fmt t = Format.pp_print_string fmt (to_string t)
