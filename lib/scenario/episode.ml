module Rack = Kona_rack.Rack
module Rack_ops = Kona_rack.Rack_ops
module Rack_controller = Kona.Rack_controller
module Runtime = Kona.Runtime
module Workloads = Kona_workloads.Workloads
module Injector = Kona_faults.Injector

type outcome = {
  oc_spec : Spec.t;
  oc_fingerprint : string;
  oc_violations : Invariants.violation list;
  oc_aborted : string option;
  oc_integrity : (string * int) list;
  oc_injected : (string * int) list;
  oc_divergent : int;
  oc_unrepairable : int;
  oc_degraded : string option;
  oc_result : Rack.result option;
}

let nth_cyclic l i default =
  match l with [] -> default | _ -> List.nth l (i mod List.length l)

let config_of_setup (s : Spec.setup) ~extra_node_slots =
  {
    Rack.default_config with
    scale = Workloads.Smoke;
    nodes = s.Spec.nodes;
    node_capacity = s.Spec.node_cap;
    node_gbps = s.Spec.gbps;
    replicas = s.Spec.replicas;
    faults = [];
    fault_seed = s.Spec.fault_seed;
    shared_pages = 0 (* published through ops, never at start *);
    shared_ops = 0;
    shared_writers = s.Spec.writers;
    quantum = s.Spec.quantum;
    policy = s.Spec.policy;
    fast_nodes = min s.Spec.fast_nodes s.Spec.nodes;
    slow_extra_ns = s.Spec.slow_extra_ns;
    ops = [];
    extra_node_slots;
    runtime =
      {
        Runtime.default_config with
        fmem_pages = s.Spec.fmem;
        scrub_interval_ns =
          (if s.Spec.scrub_ns > 0 then Some s.Spec.scrub_ns else None);
        verify_checksums = s.Spec.verify;
        arm_injector = true (* fault clauses arrive as ops, mid-replay *);
        heartbeat_ns =
          (if s.Spec.heartbeat_ns > 0 then Some s.Spec.heartbeat_ns else None);
        lease_ns = s.Spec.lease_ns;
      };
  }

let tenants_of_setup (s : Spec.setup) =
  List.init s.Spec.tenants (fun i ->
      {
        Rack.name = Printf.sprintf "t%d" i;
        workload = nth_cyclic s.Spec.workloads i "kv-seq";
        bw_share = max 1 (nth_cyclic s.Spec.shares i 1);
        mem_quota =
          (match nth_cyclic s.Spec.quotas i 0 with 0 -> None | q -> Some q);
        seed = s.Spec.seed + i;
      })

let apply_op e op =
  match op with
  | Spec.Run { n } ->
      let consumed = ref 0 in
      let continue_ = ref true in
      while !continue_ && !consumed < n do
        let c = Rack.step e in
        if c = 0 then continue_ := false else consumed := !consumed + c
      done
  | Spec.Crash { id } -> Rack.crash_node e ~id
  | Spec.Flap { dur_ns } -> Rack.flap_links e ~dur_ns
  | Spec.Partition { dur_ns; ids } -> Rack.partition_nodes e ~dur_ns ~ids
  | Spec.Corrupt clause -> Rack.arm_fault e clause
  | Spec.Quota { tenant; bytes } ->
      if tenant < Rack.tenant_count e then
        (* Never set a cap below what is already charged: admission of
           bytes the tenant holds must stay well-defined. *)
        Rack.set_tenant_quota e ~tenant
          ~bytes:(max bytes (Rack.tenant_used e ~tenant))
  | Spec.Publish { pages } -> Rack.publish e ~pages
  | Spec.Shared { rounds } ->
      for _ = 1 to rounds do
        Rack.shared_round e
      done
  | Spec.Mwrite { rounds } ->
      for _ = 1 to rounds do
        Rack.multi_writer_round e
      done
  | Spec.Shm_rpc { calls } ->
      (* fixed roles: tenant 1 calls into tenant 0; a one-tenant rack has
         no peer to ring, so the op degenerates to a no-op *)
      if Rack.tenant_count e >= 2 then
        ignore (Kona_shmem.Shm_rpc.run e ~client:1 ~server:0 ~calls ())
  | Spec.Scrub ->
      Rack.flush_logs e;
      Rack.force_scrub e
  | Spec.Rack op -> Rack.apply_op e op
  | Spec.Migrate_epoch -> Rack.force_migration e

let fingerprint (r : Rack.result) =
  Array.to_list r.Rack.r_tenants
  |> List.map (fun (tr : Rack.tenant_result) -> tr.Rack.t_fingerprint)
  |> String.concat "|"
  |> Digest.string
  |> Digest.to_hex

let execute ?plant ?(check_end = true) (spec : Spec.t) =
  let extra_node_slots =
    List.length
      (List.filter
         (function Spec.Rack (Rack_ops.Add_node _) -> true | _ -> false)
         spec.Spec.ops)
  in
  let config = config_of_setup spec.Spec.setup ~extra_node_slots in
  let tenants = tenants_of_setup spec.Spec.setup in
  let violations = ref [] in
  let aborted = ref None in
  let result = ref None in
  let engine = ref None in
  (try
     let e = Rack.start config tenants in
     engine := Some e;
     let ctx result = { Invariants.engine = e; spec; result } in
     let boundary () =
       match Invariants.check Invariants.Boundary (ctx None) with
       | [] -> true
       | vs ->
           violations := vs;
           false
     in
     let rec apply ops i =
       match ops with
       | [] -> true
       | op :: rest ->
           apply_op e op;
           (match plant with Some f -> f i op e | None -> ());
           boundary () && apply rest (i + 1)
     in
     if apply spec.Spec.ops 0 && check_end then begin
       (* The shadow-heap oracle compares final bytes: the replay must
          run to exhaustion before the divergence check means anything. *)
       while Rack.step e > 0 do
         ()
       done;
       let r = Rack.finish e in
       result := Some r;
       violations :=
         Invariants.check Invariants.Boundary (ctx (Some r))
         @ Invariants.check Invariants.End (ctx (Some r))
     end
   with
  | Rack_controller.Quota_exceeded { tenant; quota; used; requested } ->
      aborted :=
        Some
          (Printf.sprintf "quota-exceeded: tenant %s at %d/%d, requested %d"
             tenant used quota requested)
  | Out_of_memory -> aborted := Some "out-of-memory: a node's capacity ran out");
  let rt0 = Option.map (fun e -> Rack.runtime e ~tenant:0) !engine in
  {
    oc_spec = spec;
    oc_fingerprint =
      (match !result with Some r -> fingerprint r | None -> "");
    oc_violations = !violations;
    oc_aborted = !aborted;
    oc_integrity =
      (match rt0 with Some rt -> Runtime.integrity_counters rt | None -> []);
    oc_injected =
      (match rt0 with
      | Some rt -> (
          match Runtime.injector rt with
          | Some inj -> Injector.counters inj
          | None -> [])
      | None -> []);
    oc_divergent =
      (match !result with
      | Some r ->
          Array.fold_left
            (fun acc (tr : Rack.tenant_result) -> acc + tr.Rack.t_mismatches)
            0 r.Rack.r_tenants
      | None -> 0);
    oc_unrepairable =
      (match rt0 with
      | Some rt -> List.length (Runtime.unrepairable_pages rt)
      | None -> 0);
    oc_degraded = Option.join (Option.map Runtime.degraded rt0);
    oc_result = !result;
  }

let passed o = o.oc_violations = []
