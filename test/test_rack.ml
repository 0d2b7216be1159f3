(* Tests for kona_rack: the per-node WFQ ingress scheduler and the
   multi-tenant rack simulation (contention, shared segments, quotas,
   determinism, fault composition). *)

open Kona_rack
module Rack_controller = Kona.Rack_controller
module Units = Kona_util.Units
module Fault_spec = Kona_faults.Fault_spec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Wfq *)

let test_wfq_idle_no_delay () =
  let w = Wfq.create ~gbps:1.0 ~weights:[| 1; 1 |] in
  check_int "idle link admits with zero delay" 0
    (Wfq.admit w ~tenant:0 ~bytes:4096 ~now:0);
  (* A message arriving after the link drained is also free. *)
  let later = Wfq.busy_until w + 10 in
  check_int "drained link admits with zero delay" 0
    (Wfq.admit w ~tenant:1 ~bytes:4096 ~now:later);
  check_int "no saturated admits" 0 (Wfq.saturated_admits w);
  check_int "two admits" 2 (Wfq.total_admits w)

let test_wfq_wire_time () =
  let w = Wfq.create ~gbps:1.0 ~weights:[| 1 |] in
  (* 1 Gbit/s = 8 ns per byte. *)
  check_int "8 ns/byte at 1 Gbit/s" (8 * 4096) (Wfq.wire_ns w ~bytes:4096);
  let fast = Wfq.create ~gbps:1000.0 ~weights:[| 1 |] in
  check_int "non-empty floors at 1 ns" 1 (Wfq.wire_ns fast ~bytes:1);
  check_int "empty message is free" 0 (Wfq.wire_ns w ~bytes:0)

let test_wfq_weighted_shares () =
  let w = Wfq.create ~gbps:1.0 ~weights:[| 2; 1 |] in
  (* Both tenants keep the link saturated from t=0: all admits after the
     first are contended, and the achieved rates must split 2:1. *)
  for _ = 1 to 200 do
    ignore (Wfq.admit w ~tenant:0 ~bytes:4096 ~now:0);
    ignore (Wfq.admit w ~tenant:1 ~bytes:4096 ~now:0)
  done;
  let a0 = Wfq.achieved_gbps w ~tenant:0
  and a1 = Wfq.achieved_gbps w ~tenant:1 in
  check_bool "both tenants contended" true (a0 > 0.0 && a1 > 0.0);
  let ratio = a0 /. a1 in
  check_bool
    (Printf.sprintf "achieved ratio %.3f tracks the 2:1 weights" ratio)
    true
    (ratio > 1.99 && ratio < 2.01);
  let s1 = Wfq.tenant_stats w ~tenant:1 in
  check_bool "lighter tenant queues longer" true
    (s1.Wfq.delay_ns > (Wfq.tenant_stats w ~tenant:0).Wfq.delay_ns);
  check_bool "backlog accumulated" true (Wfq.peak_backlog_ns w > 0);
  check_bool "backlog drains with time" true
    (Wfq.backlog_ns w ~now:(Wfq.busy_until w) = 0)

(* Property: for any rack of >= 3 tenants with arbitrary weights, a
   saturated link divides its bandwidth in proportion to the weights.
   Every tenant offers identical demand from t=0, so each pairwise
   achieved ratio must land within 10% of the weight ratio. *)
let wfq_fairness_prop =
  let gen =
    QCheck2.Gen.(list_size (int_range 3 6) (int_range 1 8))
  in
  QCheck2.Test.make ~count:50 ~name:"wfq shares track arbitrary weights" gen
    (fun weights ->
      let w = Wfq.create ~gbps:1.0 ~weights:(Array.of_list weights) in
      let n = List.length weights in
      for _ = 1 to 300 do
        for t = 0 to n - 1 do
          ignore (Wfq.admit w ~tenant:t ~bytes:4096 ~now:0)
        done
      done;
      let achieved = Array.init n (fun t -> Wfq.achieved_gbps w ~tenant:t) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let want =
            float_of_int (List.nth weights i) /. float_of_int (List.nth weights j)
          in
          let got = achieved.(i) /. achieved.(j) in
          if abs_float ((got /. want) -. 1.0) > 0.10 then ok := false
        done
      done;
      !ok)

let test_wfq_rejects_bad_config () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "empty weights" true
    (raises (fun () -> Wfq.create ~gbps:1.0 ~weights:[||]));
  check_bool "zero weight" true
    (raises (fun () -> Wfq.create ~gbps:1.0 ~weights:[| 1; 0 |]));
  check_bool "non-positive rate" true
    (raises (fun () -> Wfq.create ~gbps:0.0 ~weights:[| 1 |]))

(* ------------------------------------------------------------------ *)
(* Rack *)

let tenants ?(quota0 = None) ?(shares = (2, 1)) () =
  let s0, s1 = shares in
  [
    { Rack.name = "t0"; workload = "kv-uniform"; bw_share = s0;
      mem_quota = quota0; seed = 42 };
    { Rack.name = "t1"; workload = "page-rank"; bw_share = s1;
      mem_quota = None; seed = 43 };
  ]

let cfg ?(replicas = 0) ?(faults = []) () =
  { Rack.default_config with Rack.replicas; faults }

let test_rack_two_tenants () =
  let r = Rack.run (cfg ()) (tenants ()) in
  let t0 = r.Rack.r_tenants.(0) and t1 = r.Rack.r_tenants.(1) in
  check_bool "tenant 0 ran" true (t0.Rack.t_accesses > 0);
  check_bool "tenant 1 ran" true (t1.Rack.t_accesses > 0);
  check_int "tenant 0 converged" 0 t0.Rack.t_mismatches;
  check_int "tenant 1 converged" 0 t1.Rack.t_mismatches;
  (* The 1 Gbit/s links saturate under two smoke tenants... *)
  check_bool "links saturated" true (r.Rack.r_saturated_admits > 0);
  (* ...and the achieved bandwidth split tracks the 2:1 shares. *)
  let ratio = t0.Rack.t_achieved_gbps /. t1.Rack.t_achieved_gbps in
  check_bool
    (Printf.sprintf "achieved ratio %.2f within 20%% of 2:1" ratio)
    true
    (ratio > 1.6 && ratio < 2.4);
  (* Shared segment: the writer's evictions recalled the reader. *)
  check_bool "publisher wrote the segment" true (r.Rack.r_shared_writes > 0);
  check_bool "reader read the segment" true (r.Rack.r_shared_reads > 0);
  check_bool "writer evictions snooped the rack directory" true
    (r.Rack.r_snoops > 0);
  check_bool "reader received invalidations" true
    (t1.Rack.t_invalidations > 0);
  check_int "no crashes without faults" 0 r.Rack.r_node_crashes

let test_rack_determinism () =
  let fingerprints () =
    let r = Rack.run (cfg ()) (tenants ()) in
    Array.map (fun t -> t.Rack.t_fingerprint) r.Rack.r_tenants
  in
  let a = fingerprints () and b = fingerprints () in
  Alcotest.(check (array string))
    "same seeds give bit-identical per-tenant counters" a b

let test_rack_quota_rejection () =
  (* One slab's worth of quota cannot back a smoke heap. *)
  let quota0 = Some (Units.mib 1) in
  match Rack.run (cfg ()) (tenants ~quota0 ()) with
  | _ -> Alcotest.fail "tenant 0 must overrun its one-slab quota"
  | exception Rack_controller.Quota_exceeded { tenant; quota; used; requested } ->
      Alcotest.(check string) "names the tenant" "t0" tenant;
      check_bool "cap reported" true (quota > 0);
      check_bool "rejected once full" true (used + requested > quota)

let test_rack_fault_failover () =
  let faults = Fault_spec.parse_exn "node-crash@2ms:id=1" in
  let r = Rack.run (cfg ~replicas:1 ~faults ()) (tenants ()) in
  check_int "the crash happened" 1 r.Rack.r_node_crashes;
  Array.iter
    (fun t ->
      check_int
        (Printf.sprintf "%s survived the failover intact" t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_mismatches;
      check_int
        (Printf.sprintf "%s lost no pages" t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_lost_pages;
      check_bool "not degraded" true (t.Rack.t_degraded = None))
    r.Rack.r_tenants

(* Multi-writer shared segment: both tenants RFO-write the same lines,
   so the MSI home must recall dirty copies and hand ownership back and
   forth; the per-line last-writer-wins oracle still has to converge. *)
let mw_cfg ?(replicas = 0) ?(faults = []) () =
  { Rack.default_config with Rack.shared_writers = 2; replicas; faults }

let test_rack_multi_writer () =
  let r = Rack.run (mw_cfg ()) (tenants ()) in
  check_bool "the home granted new exclusives" true (r.Rack.r_owner_changes > 0);
  check_bool "recalls snooped holders" true (r.Rack.r_snoops > 0);
  Array.iter
    (fun t ->
      check_int
        (Printf.sprintf "%s converged to last-writer-wins"
           t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_mismatches)
    r.Rack.r_tenants

(* Writer handoff proper — a write-miss recalling the previous writer's
   *dirty* copy — needs back-to-back writes with no intervening read
   (the woven replay always downgrades lines to Shared first), so drive
   a doorbell-style ping-pong directly and crash a node mid-stream. *)
let test_rack_writer_handoff_under_fault () =
  let cfg =
    { Rack.default_config with Rack.replicas = 1; shared_pages = 0 }
  in
  let e = Rack.start cfg (tenants ()) in
  Rack.publish e ~pages:1;
  Rack.enable_multi_writer e;
  let ping_pong k0 =
    for k = k0 to k0 + 15 do
      Rack.shared_line_write e ~tenant:(k mod 2) ~line:0
        ~payload:(Char.chr (0x20 + (k land 0x3f)))
    done
  in
  ping_pong 0;
  let h1 = Rack.shared_handoffs e in
  check_bool "each write recalled the peer's dirty line" true (h1 >= 8);
  Rack.crash_node e ~id:1;
  while not (Rack.recovery_idle e) do
    Rack.step_recovery e
  done;
  ping_pong 16;
  check_bool "handoffs continued after the failover" true
    (Rack.shared_handoffs e > h1);
  Alcotest.(check (option int))
    "last writer owns the line" (Some 1)
    (Rack.shared_owner e ~line:0);
  Alcotest.(check (list string)) "home table stayed coherent" []
    (Rack.coherence_audit e);
  while Rack.step e > 0 do () done;
  let r = Rack.finish e in
  check_int "remote image converged to last-writer-wins" 0
    (Rack.shared_divergence e);
  Array.iter
    (fun t ->
      check_int
        (Printf.sprintf "%s survived intact" t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_mismatches)
    r.Rack.r_tenants

let test_rack_multi_writer_failover () =
  let faults = Fault_spec.parse_exn "node-crash@2ms:id=1" in
  let r = Rack.run (mw_cfg ~replicas:1 ~faults ()) (tenants ()) in
  check_int "the crash happened" 1 r.Rack.r_node_crashes;
  Array.iter
    (fun t ->
      check_int
        (Printf.sprintf "%s survived the failover intact"
           t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_mismatches;
      check_int
        (Printf.sprintf "%s lost no pages" t.Rack.t_cfg.Rack.name)
        0 t.Rack.t_lost_pages)
    r.Rack.r_tenants

let test_rack_multi_writer_determinism () =
  let fingerprints () =
    let r = Rack.run (mw_cfg ()) (tenants ()) in
    Array.map (fun t -> t.Rack.t_fingerprint) r.Rack.r_tenants
  in
  let a = fingerprints () and b = fingerprints () in
  Alcotest.(check (array string))
    "same seeds give bit-identical multi-writer runs" a b

(* ------------------------------------------------------------------ *)
(* Placement: migration, drain, and their composition with faults.     *)

(* A tiered rack where placement matters: 3 nodes, only node 0 fast,
   FMem squeezed so the zipf tenant's hot set thrashes through fetches. *)
let placement_cfg ?(policy = "heat") ?(replicas = 0) ?(faults = []) ?(ops = [])
    () =
  {
    Rack.default_config with
    Rack.nodes = 3;
    fast_nodes = 1;
    slow_extra_ns = 2000;
    policy;
    replicas;
    faults;
    ops;
    runtime =
      { Rack.default_config.Rack.runtime with Kona.Runtime.fmem_pages = 64 };
  }

let placement_tenants =
  [
    { Rack.name = "t0"; workload = "kv-zipf"; bw_share = 1; mem_quota = None;
      seed = 42 };
    { Rack.name = "t1"; workload = "kv-uniform"; bw_share = 1; mem_quota = None;
      seed = 43 };
  ]

let total_mismatches (r : Rack.result) =
  Array.fold_left (fun acc t -> acc + t.Rack.t_mismatches) 0 r.Rack.r_tenants

let test_placement_heat_beats_first_fit () =
  let base = Rack.run (placement_cfg ~policy:"first-fit" ()) placement_tenants in
  let heat = Rack.run (placement_cfg ~policy:"heat" ()) placement_tenants in
  check_int "first-fit never migrates" 0 base.Rack.r_migrations;
  check_bool "heat migrated pages" true (heat.Rack.r_migrations > 0);
  check_bool
    (Printf.sprintf "heat lowers the remote-hit ratio (%d < %d permille)"
       heat.Rack.r_remote_hit_pml base.Rack.r_remote_hit_pml)
    true
    (heat.Rack.r_remote_hit_pml < base.Rack.r_remote_hit_pml);
  check_bool "hot fetches mostly land on the fast tier" true
    (heat.Rack.r_hot_hit_pml >= 800);
  (* Migration traffic is charged through the per-node WFQ: the copies
     queue, and the queueing they absorb (and impose) is visible. *)
  check_bool "migration traffic contended at the nodes" true
    (heat.Rack.r_migrator_delay_ns > 0);
  check_bool "tenants queued longer under migration" true
    (heat.Rack.r_tenants.(0).Rack.t_delay_ns
     + heat.Rack.r_tenants.(1).Rack.t_delay_ns
     > base.Rack.r_tenants.(0).Rack.t_delay_ns
       + base.Rack.r_tenants.(1).Rack.t_delay_ns);
  check_int "no divergence under first-fit" 0 (total_mismatches base);
  check_int "no divergence under migration" 0 (total_mismatches heat)

let test_placement_determinism_per_policy () =
  List.iter
    (fun policy ->
      let fp () =
        let r = Rack.run (placement_cfg ~policy ()) placement_tenants in
        Array.map (fun t -> t.Rack.t_fingerprint) r.Rack.r_tenants
      in
      Alcotest.(check (array string))
        (policy ^ " is bit-reproducible") (fp ()) (fp ()))
    [ "first-fit"; "heat"; "centralized" ]

let test_placement_drain_rehomes () =
  let ops = Rack_ops.parse_exn "drain@5ms:id=1" in
  let r = Rack.run (placement_cfg ~ops ()) placement_tenants in
  check_int "drain applied" 1 r.Rack.r_ops_applied;
  check_bool "pages re-homed" true (r.Rack.r_drained_pages > 0);
  check_int "every page found a new home" 0 r.Rack.r_drain_failures;
  check_int "no divergence across the drain" 0 (total_mismatches r)

let test_placement_add_then_drain () =
  (* Register a fresh node, then drain one of the originals: re-homed
     pages can land on the newcomer, and the rack stays convergent. *)
  let ops = Rack_ops.parse_exn "add@2ms:cap=16777216;drain@4ms:id=2" in
  let r = Rack.run (placement_cfg ~ops ()) placement_tenants in
  check_int "both ops applied" 2 r.Rack.r_ops_applied;
  check_bool "pages re-homed" true (r.Rack.r_drained_pages > 0);
  check_int "no drain failures" 0 r.Rack.r_drain_failures;
  check_int "no divergence" 0 (total_mismatches r)

let test_placement_drain_composes_with_failover () =
  (* Node 1 crashes at 2ms (replica failover promotes its mirror), then
     a drain of the same node at 4ms re-homes every page off the
     promoted copy — the crash-mid-drain contract. *)
  let faults = Fault_spec.parse_exn "node-crash@2ms:id=1" in
  let ops = Rack_ops.parse_exn "drain@4ms:id=1" in
  let r =
    Rack.run (placement_cfg ~replicas:1 ~faults ~ops ()) placement_tenants
  in
  check_int "the crash happened" 1 r.Rack.r_node_crashes;
  check_bool "drain still re-homed pages" true (r.Rack.r_drained_pages > 0);
  check_int "no page was stranded" 0 r.Rack.r_drain_failures;
  Array.iter
    (fun (t : Rack.tenant_result) ->
      check_int (t.Rack.t_cfg.Rack.name ^ " converged") 0 t.Rack.t_mismatches;
      check_int (t.Rack.t_cfg.Rack.name ^ " lost nothing") 0
        t.Rack.t_lost_pages)
    r.Rack.r_tenants

let test_placement_quota_conserved_by_migration () =
  (* Migration moves pages the tenant already paid for; a quota sized to
     the tenant's allocation must not trip as pages migrate. *)
  let quota = Some (Units.mib 8) in
  let tenants =
    [
      { Rack.name = "t0"; workload = "kv-zipf"; bw_share = 1;
        mem_quota = quota; seed = 42 };
      { Rack.name = "t1"; workload = "kv-uniform"; bw_share = 1;
        mem_quota = None; seed = 43 };
    ]
  in
  let r = Rack.run (placement_cfg ~policy:"heat" ()) tenants in
  check_bool "pages migrated under the quota" true (r.Rack.r_migrations > 0);
  check_int "no divergence" 0 (total_mismatches r)

(* The README heat rack's replay (kv-zipf,kv-uniform, 3 nodes, 64 FMem
   pages, heat policy) allocates little per access.  A migration epoch
   folds the heat tables instead of building and sorting a record for
   every backed page; that census alone cost ~100 minor words per
   access. *)
let test_heat_rack_replay_allocation () =
  let e = Rack.start (placement_cfg ~policy:"heat" ()) placement_tenants in
  let accesses = ref 0 in
  let w0 = Gc.minor_words () in
  let rec replay () =
    match Rack.step e with
    | 0 -> ()
    | n ->
        accesses := !accesses + n;
        replay ()
  in
  replay ();
  let words = (Gc.minor_words () -. w0) /. float_of_int !accesses in
  let r = Rack.finish e in
  check_bool "pages migrated" true (r.Rack.r_migrations > 0);
  check_bool
    (Printf.sprintf "%.1f minor words per access (at most 25)" words)
    true (words <= 25.0)

(* The migrator's feed against the census it replaced: every owned,
   backed page below the shared segment, with its heat read page by
   page, sorted hottest first with ties by (tenant, vpage).  The hot
   prefix must be the census's nonzero pages and the forced tail its
   zero-heat pages, both in census order — on racks whose pages move
   under add, drain and rebalance ops, a node crash, and every policy. *)
let census e ~now =
  let seg_first = (1 lsl 30) / Units.page_size in
  let pages = ref [] in
  for i = 0 to Rack.tenant_count e - 1 do
    let heat = Rack.private_heat e ~tenant:i in
    Kona.Resource_manager.iter_backed_pages
      (Kona.Runtime.resource_manager (Rack.runtime e ~tenant:i))
      (fun ~vpage ~node ~remote_addr:_ ->
        if vpage < seg_first then
          pages :=
            (Kona_placement.Heat.heat heat ~vpage ~now, i, vpage, node) :: !pages)
  done;
  List.sort
    (fun (h1, t1, v1, _) (h2, t2, v2, _) ->
      if h1 <> h2 then compare h2 h1 else compare (t1, v1) (t2, v2))
    !pages

let feed_matches_census e =
  let now = Rack.now_ns e in
  let feed = Rack.migration_feed e ~now in
  let tuple (p : Kona_placement.Placement_policy.page_info) =
    Kona_placement.Placement_policy.(p.pi_heat, p.pi_tenant, p.pi_vpage, p.pi_node)
  in
  let hot, cold = List.partition (fun (h, _, _, _) -> h > 0) (census e ~now) in
  List.map tuple feed.Kona_placement.Placement_policy.hot = hot
  && List.map tuple (Lazy.force feed.Kona_placement.Placement_policy.cold) = cold

let prop_feed_matches_census =
  let open QCheck2.Gen in
  let op =
    oneof
      [
        map (fun ms -> Printf.sprintf "add@%dms" ms) (int_range 1 8);
        map2 (fun ms id -> Printf.sprintf "drain@%dms:id=%d" ms id)
          (int_range 1 8) (int_bound 2);
        map (fun ms -> Printf.sprintf "rebalance@%dms" ms) (int_range 1 8);
      ]
  in
  let gen =
    tup4 (int_bound 1000)
      (oneofl [ "first-fit"; "heat"; "centralized" ])
      (list_size (int_range 1 4) op)
      (pair (int_range 1 8) (int_bound 2))
  in
  let spec (seed, policy, ops, (crash_ms, crash_id)) =
    ( placement_cfg ~policy ~replicas:1
        ~faults:
          (Fault_spec.parse_exn
             (Printf.sprintf "node-crash@%dms:id=%d" crash_ms crash_id))
        ~ops:(Rack_ops.parse_exn (String.concat ";" ops))
        (),
      List.map
        (fun (t : Rack.tenant_cfg) -> { t with Rack.seed = t.Rack.seed + seed })
        placement_tenants )
  in
  let print (seed, policy, ops, (crash_ms, crash_id)) =
    Printf.sprintf "seed +%d, %s, ops %s, node-crash@%dms:id=%d" seed policy
      (String.concat ";" ops) crash_ms crash_id
  in
  QCheck2.Test.make ~count:4 ~print
    ~name:"migration feed equals the backed-page census" gen (fun c ->
      let cfg, tenants = spec c in
      let e = Rack.start cfg tenants in
      let ok = ref true and steps = ref 0 in
      while !ok && Rack.step e > 0 do
        incr steps;
        if !steps mod 40 = 0 then ok := feed_matches_census e
      done;
      !ok && feed_matches_census e)

(* Cross-commit behaviour pins: the MD5 of the concatenated per-tenant
   fingerprints of three fixed smoke racks.  Same-build determinism tests
   cannot catch a refactor that changes behaviour consistently; these
   digests were recorded from an earlier build, so they can.  A change
   that alters rack behaviour on purpose must re-pin them. *)
let fingerprint_digest (r : Rack.result) =
  Array.to_list r.Rack.r_tenants
  |> List.map (fun t -> t.Rack.t_fingerprint)
  |> String.concat "" |> Digest.string |> Digest.to_hex

let test_pinned_fingerprints () =
  let heat_ops =
    Rack.run
      (placement_cfg
         ~ops:
           (Rack_ops.parse_exn
              "add@3ms:cap=67108864;drain@5ms:id=1;rebalance@7ms")
         ())
      placement_tenants
  in
  let shm_rpc =
    let e =
      Rack.start
        { Rack.default_config with Rack.shared_writers = 2 }
        (List.init 3 (fun i ->
             { Rack.name = Printf.sprintf "t%d" i;
               workload = (if i = 1 then "kv-uniform" else "kv-seq");
               bw_share = 1; mem_quota = None; seed = 42 + i }))
    in
    while Rack.step e > 0 do () done;
    ignore (Kona_shmem.Shm_rpc.run e ~client:1 ~server:0 ~calls:16 ());
    Rack.finish e
  in
  let lease =
    let runtime =
      { Rack.default_config.Rack.runtime with
        Kona.Runtime.heartbeat_ns = Some 100_000; lease_ns = 1_000_000 }
    in
    Rack.run
      { (cfg ~replicas:1
           ~faults:
             (Fault_spec.parse_exn
                "partition@200us:dur=5ms,nodes=0;node-crash@2ms:id=1")
           ())
        with Rack.runtime }
      (tenants ())
  in
  check_bool "ops ran and pages moved" true
    (heat_ops.Rack.r_ops_applied = 3 && heat_ops.Rack.r_migrations > 0);
  check_bool "the ring handed lines off" true (shm_rpc.Rack.r_handoffs > 0);
  check_int "the crash happened" 1 lease.Rack.r_node_crashes;
  Alcotest.(check (list string))
    "fingerprint digests match the pinned values"
    [
      "27052d6d164c556d7858a0d384627e86";
      "5dd997eb91a8e570d2ec1a9319a9d902";
      "2816e122aa6ffabab4b7b48aff032c27";
    ]
    (List.map fingerprint_digest [ heat_ops; shm_rpc; lease ])

(* Immediate ops the rack cannot honour are refused outright: neither
   applied nor counted in [r_ops_applied].  The scheduled-op calendar,
   by contrast, counts every op that falls due, even a refused add. *)
let test_refused_immediate_ops () =
  let finish e =
    while Rack.step e > 0 do () done;
    Rack.finish e
  in
  let e = Rack.start (cfg ()) (tenants ()) in
  let nodes = Rack.node_count e in
  (* no extra WFQ slots: the first immediate add has nowhere to go *)
  Rack.apply_op e (Rack_ops.Add_node { capacity = None });
  Rack.apply_op e (Rack_ops.Drain { id = nodes });
  Rack.apply_op e (Rack_ops.Drain { id = -1 });
  check_int "no node was added" nodes (Rack.node_count e);
  Rack.apply_op e Rack_ops.Rebalance;
  let r = finish e in
  check_int "only the rebalance counts" 1 r.Rack.r_ops_applied;
  check_int "nothing drained" 0 r.Rack.r_drained_pages;
  check_int "node count unchanged" nodes (Rack.node_count e);
  (* an immediate add takes the slot planned for the scheduled one *)
  let e =
    Rack.start
      { (cfg ()) with Rack.ops = Rack_ops.parse_exn "add@1ms" }
      (tenants ())
  in
  Rack.apply_op e (Rack_ops.Add_node { capacity = None });
  let r = finish e in
  check_int "one node added" (nodes + 1) (Rack.node_count e);
  check_int "the refused scheduled add still counts" 2 r.Rack.r_ops_applied

let test_rack_validates_tenants () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "empty tenant list" true (raises (fun () -> Rack.run (cfg ()) []));
  check_bool "duplicate names" true
    (raises (fun () ->
         Rack.run (cfg ())
           [
             { Rack.name = "t"; workload = "kv-uniform"; bw_share = 1;
               mem_quota = None; seed = 1 };
             { Rack.name = "t"; workload = "page-rank"; bw_share = 1;
               mem_quota = None; seed = 2 };
           ]));
  check_bool "unknown workload" true
    (raises (fun () ->
         Rack.run (cfg ())
           [
             { Rack.name = "t"; workload = "no-such-workload"; bw_share = 1;
               mem_quota = None; seed = 1 };
           ]));
  check_bool "non-positive share" true
    (raises (fun () ->
         Rack.run (cfg ())
           [
             { Rack.name = "t"; workload = "kv-uniform"; bw_share = 0;
               mem_quota = None; seed = 1 };
           ]))

(* A segment the initial nodes cannot hold is refused by validation,
   before the image or any trace is allocated: slab rounding counts (257
   pages need two 1 MiB slabs), and a size whose image could never be
   allocated fails the same way, not with Out_of_memory. *)
let test_rack_rejects_unfittable_segment () =
  let refused cfg =
    match Rack.start cfg (tenants ()) with
    | _ -> false
    | exception Invalid_argument msg ->
        String.starts_with ~prefix:"Rack.run: a shared segment" msg
  in
  check_bool "257 pages on one 1 MiB node" true
    (refused
       { (cfg ()) with Rack.nodes = 1; node_capacity = Units.mib 1;
         shared_pages = 257 });
  check_bool "2^40 pages on the default rack" true
    (refused { (cfg ()) with Rack.shared_pages = 1 lsl 40 })

let () =
  Alcotest.run "kona_rack"
    [
      ( "wfq",
        [
          Alcotest.test_case "idle admits free" `Quick test_wfq_idle_no_delay;
          Alcotest.test_case "wire time" `Quick test_wfq_wire_time;
          Alcotest.test_case "weighted shares" `Quick test_wfq_weighted_shares;
          Alcotest.test_case "rejects bad config" `Quick
            test_wfq_rejects_bad_config;
          QCheck_alcotest.to_alcotest wfq_fairness_prop;
        ] );
      ( "rack",
        [
          Alcotest.test_case "two tenants" `Quick test_rack_two_tenants;
          Alcotest.test_case "determinism" `Quick test_rack_determinism;
          Alcotest.test_case "quota rejection" `Quick test_rack_quota_rejection;
          Alcotest.test_case "fault failover" `Quick test_rack_fault_failover;
          Alcotest.test_case "multi-writer" `Quick test_rack_multi_writer;
          Alcotest.test_case "writer handoff under fault" `Quick
            test_rack_writer_handoff_under_fault;
          Alcotest.test_case "multi-writer failover" `Quick
            test_rack_multi_writer_failover;
          Alcotest.test_case "multi-writer determinism" `Quick
            test_rack_multi_writer_determinism;
          Alcotest.test_case "validates tenants" `Quick
            test_rack_validates_tenants;
          Alcotest.test_case "rejects an unfittable segment" `Quick
            test_rack_rejects_unfittable_segment;
          Alcotest.test_case "pinned fingerprints" `Quick
            test_pinned_fingerprints;
          Alcotest.test_case "refused immediate ops" `Quick
            test_refused_immediate_ops;
        ] );
      ( "placement",
        [
          Alcotest.test_case "heat beats first-fit" `Quick
            test_placement_heat_beats_first_fit;
          Alcotest.test_case "per-policy determinism" `Quick
            test_placement_determinism_per_policy;
          Alcotest.test_case "drain re-homes" `Quick test_placement_drain_rehomes;
          Alcotest.test_case "add then drain" `Quick test_placement_add_then_drain;
          Alcotest.test_case "drain composes with failover" `Quick
            test_placement_drain_composes_with_failover;
          Alcotest.test_case "migration conserves quota" `Quick
            test_placement_quota_conserved_by_migration;
          Alcotest.test_case "heat rack replay allocation" `Quick
            test_heat_rack_replay_allocation;
          QCheck_alcotest.to_alcotest ~long:false prop_feed_matches_census;
        ] );
    ]
