(* Placement-policy comparison (lib/placement wired through lib/rack).

   A skewed two-tenant rack — Redis-Zipf (a concentrated hot set) next
   to Redis-Rand (no locality) — over 3 memory nodes of which only node
   0 is low-latency, with FMem squeezed to 64 frames so demand fetches
   actually hit the fabric.  Each placement policy replays the identical
   traces; what differs is where pages live:

   - first-fit: the controller's round-robin, no migration (baseline);
   - heat: same allocation, but a background migrator promotes pages
     whose decaying access heat crosses the threshold onto the fast
     tier — remote-hit ratio should drop well below the baseline;
   - centralized: MIND-style directory that balances capacity, not
     heat — at this scale it tracks the baseline.

   A final row drains node 1 mid-run under the heat policy: every page
   re-homed, zero divergence, and the drain traffic visible as WFQ
   queueing.

   Artifact: BENCH_placement.json (one row per policy, commit and seed
   stamped by Report). *)

module Rack = Kona_rack.Rack
module Rack_ops = Kona_rack.Rack_ops
module Workloads = Kona_workloads.Workloads
module Json = Kona_telemetry.Json

let artifact = "BENCH_placement.json"
let seed = 42

let tenants =
  [
    {
      Rack.name = "t0-kv-zipf";
      workload = "kv-zipf";
      bw_share = 1;
      mem_quota = None;
      seed;
    };
    {
      Rack.name = "t1-kv-uniform";
      workload = "kv-uniform";
      bw_share = 1;
      mem_quota = None;
      seed = seed + 1;
    };
  ]

let config ~scale ~policy ~ops =
  {
    Rack.default_config with
    Rack.scale;
    nodes = 3;
    fast_nodes = 1;
    slow_extra_ns = 2000;
    policy;
    ops;
    runtime = { Rack.default_config.Rack.runtime with Kona.Runtime.fmem_pages = 64 };
  }

let pml v = Printf.sprintf "%d.%d%%" (v / 10) (v mod 10)

let row ~label ~scale ~policy ~ops =
  let r = Rack.run (config ~scale ~policy ~ops) tenants in
  let mismatches =
    Array.fold_left
      (fun acc (t : Rack.tenant_result) -> acc + t.Rack.t_mismatches)
      0 r.Rack.r_tenants
  in
  Report.json_line
    [
      ("kind", Json.String "placement-policy");
      ("label", Json.String label);
      ("policy", Json.String r.Rack.r_policy);
      ("ops", Json.String (Rack_ops.to_string ops));
      ("migrations", Json.Int r.Rack.r_migrations);
      ("bytes_moved", Json.Int r.Rack.r_bytes_moved);
      ("failed_moves", Json.Int r.Rack.r_failed_moves);
      ("migrator_delay_ns", Json.Int r.Rack.r_migrator_delay_ns);
      ("fetches", Json.Int r.Rack.r_fetches);
      ("fetches_fast", Json.Int r.Rack.r_fetches_fast);
      ("remote_hit_pml", Json.Int r.Rack.r_remote_hit_pml);
      ("hot_hit_pml", Json.Int r.Rack.r_hot_hit_pml);
      ("drained_pages", Json.Int r.Rack.r_drained_pages);
      ("drain_failures", Json.Int r.Rack.r_drain_failures);
      ("elapsed_ns", Json.Int r.Rack.r_elapsed_ns);
      ("mismatches", Json.Int mismatches);
    ];
  [
    label;
    string_of_int r.Rack.r_migrations;
    pml r.Rack.r_remote_hit_pml;
    pml r.Rack.r_hot_hit_pml;
    Report.ns r.Rack.r_migrator_delay_ns;
    string_of_int r.Rack.r_drained_pages;
    Report.ns r.Rack.r_elapsed_ns;
    string_of_int mismatches;
  ]

let run ~scale () =
  Report.set_seed seed;
  Report.with_artifact ~path:artifact
    ~meta:
      [
        ("experiment", Json.String "placement");
        ( "scale",
          Json.String
            (match scale with Workloads.Smoke -> "smoke" | Workloads.Full -> "full")
        );
      ]
    (fun () ->
      Report.section "placement: policy comparison on a tiered rack";
      Report.note
        "Redis-Zipf + Redis-Rand, 3 nodes (node 0 fast, +2us to the rest), \
         64 FMem frames; identical traces per policy";
      let header =
        [
          "policy"; "migrations"; "remote-hit"; "hot-hit"; "mig-queued";
          "drained"; "elapsed"; "diverged";
        ]
      in
      let policy_rows =
        List.map
          (fun policy -> row ~label:policy ~scale ~policy ~ops:[])
          Kona_placement.Placement_policy.names
      in
      let drain_row =
        row ~label:"heat+drain" ~scale ~policy:"heat"
          ~ops:(Rack_ops.parse_exn "drain@5ms:id=1")
      in
      let rows = policy_rows @ [ drain_row ] in
      Report.table ~header rows;
      Report.note
        "heat must land under first-fit on remote-hit; diverged must be 0";
      Report.note "artifact: %s" artifact)
