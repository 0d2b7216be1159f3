(* Per-layer probes of the traced run that neither workload's own passes
   cover: a shared-memory RPC ring, the integrity scrubber, and generated
   scenario episodes (scenario engine, invariants, membership). *)

open Kona
open Common
module Rack = Kona_rack.Rack
module Rng = Kona_util.Rng
module Shm_rpc = Kona_shmem.Shm_rpc
module Episode = Kona_scenario.Episode
module Gen = Kona_scenario.Gen
module Scn = Kona_scenario.Spec
module Histogram = Kona_util.Histogram

(* konactl rack --tenants 2 -w kv-seq,kv-uniform --shm-rpc: a ring
   between tenant 1 (client) and tenant 0 (server) after replay.  konactl
   makes 64 calls; here the seed picks 60 to 67, because after replay
   every call costs the same virtual time whatever the tenants' seeds, so
   a fixed count would report the same per-call figures on every run. *)
let shmem ~seed =
  let cfg = { Rack.default_config with Rack.slow_extra_ns = 2000 } in
  let rng = Rng.create ~seed:(seed lxor 0x5a11) in
  let base = Rng.int rng 1_000_000 in
  let calls = 60 + Rng.int rng 8 in
  let tenants =
    List.mapi
      (fun i w ->
        { Rack.name = Printf.sprintf "t%d-%s" i w; workload = w; bw_share = 1;
          mem_quota = None; seed = base + i })
      [ "kv-seq"; "kv-uniform" ]
  in
  let e = Rack.start cfg tenants in
  while Rack.step e > 0 do () done;
  let s, host_s =
    timed (fun () ->
        Spans.within ~req:"shmem/0" "shmem.run" (fun () ->
            Shm_rpc.run e ~client:1 ~server:0 ~calls ()))
  in
  let r = Rack.finish e in
  let mismatches =
    Array.fold_left (fun a (t : Rack.tenant_result) -> a + t.Rack.t_mismatches) 0 r.Rack.r_tenants
  in
  check ~bad:mismatches "shmem: remote memory equals every tenant's heap";
  check ~bad:(Rack.shared_divergence e) "shmem: readers observe the last write";
  check ~bad:(List.length (Rack.coherence_audit e)) "shmem: one owner per line";
  let recall = hist_of r.Rack.r_snapshot "coherence.recall_ns" in
  fingerprint
    (Printf.sprintf "shmem/seed=%d" seed)
    (List.map (fun (t : Rack.tenant_result) -> t.Rack.t_fingerprint) (Array.to_list r.Rack.r_tenants)
    @ List.map string_of_int
        [ s.Shm_rpc.s_total_ns; s.Shm_rpc.s_max_ns; s.Shm_rpc.s_handoffs; s.Shm_rpc.s_invalidations ]
    @ hist_parts recall);
  let per_call x = x /. float_of_int s.Shm_rpc.s_calls in
  [
    ("shmem.host_us_per_call", per_call (1e6 *. host_s), "us");
    ("shmem.virt_ns_per_call", per_call (float_of_int s.Shm_rpc.s_total_ns), "ns");
    ("shmem.handoffs_per_call", per_call (float_of_int s.Shm_rpc.s_handoffs), "count");
    ("shmem.recall_ns_per_call", per_call (Histogram.sum recall), "ns");
    (* On every seed the log2 histogram holds exactly half the ring's
       recalls in each of two buckets, so interpolated percentiles would be
       constants; the mean is exact. *)
    ("coherence.recall_mean_ns", Histogram.mean recall, "ns");
  ]

(* One runtime (the rack's tenant configuration) over a recorded Smoke
   Redis-Rand trace (rack-heat's first kv-uniform tenant), with the
   scrubber off and then at 200 us: host time of the difference per page
   the scrubber verified. *)
let scrub ~seed =
  let heap, trace =
    record_workload ~slug:"kv-uniform" ~seed:(Rack_heat.rack_seed ~seed 0 + 1)
  in
  let replay scrub_interval_ns =
    Gc.full_major ();
    let controller = controller ~nodes:2 in
    let config = { Rack_heat.config.Rack.runtime with Runtime.scrub_interval_ns } in
    let rt =
      Runtime.create ~config ~controller
        ~read_local:(fun ~addr ~len -> Heap.peek_bytes heap addr len)
        ()
    in
    let name = if scrub_interval_ns = None then "scrub-off" else "scrub-on" in
    let (), s =
      timed (fun () ->
          Spans.within ~req:("integrity/" ^ name) "integrity.replay" (fun () ->
              Array.iter (Runtime.sink rt) trace;
              Runtime.drain rt))
    in
    let counters = Runtime.integrity_counters rt in
    fingerprint (Printf.sprintf "integrity/seed=%d/%s" seed name) (kv_parts counters);
    (s, List.assoc "scrub.pages" counters)
  in
  let off_s, _ = replay None in
  let on_s, pages = replay (Some 200_000) in
  Printf.printf "integrity: scrubber verified %d pages; replay %.3f s with it, %.3f s without\n%!"
    pages on_s off_s;
  [ ("integrity.scrub_host_ns_per_page", 1e9 *. (on_s -. off_s) /. float_of_int (max 1 pages), "ns") ]

let episodes = 2

(* The first [episodes] episodes konactl fuzz --seed S --ops 12 would run. *)
let fuzz ~seed =
  let rng = Rng.create ~seed in
  let results =
    List.init episodes (fun i ->
        let ep_seed = Rng.int rng 1_000_000 in
        let spec = Gen.generate ~seed:ep_seed ~ops:12 in
        let o, s =
          timed (fun () ->
              Spans.within ~req:(Printf.sprintf "fuzz-episodes/%d" i) "scenario.episode"
                (fun () -> Episode.execute spec))
        in
        check ~n:(List.length spec.Scn.ops + 1)
          ~bad:(if o.Episode.oc_violations = [] then 0 else 1)
          (Printf.sprintf "fuzz episode %d (seed %d): invariants hold" i ep_seed);
        fingerprint
          (Printf.sprintf "fuzz/seed=%d/episode=%d" seed i)
          (o.Episode.oc_fingerprint :: kv_parts o.Episode.oc_integrity);
        Printf.printf "fuzz episode %d: seed %d, %.3f s%s\n%!" i ep_seed s
          (match o.Episode.oc_aborted with Some a -> ", aborted: " ^ a | None -> "");
        (spec, o, s))
  in
  let completed =
    List.filter_map
      (fun (spec, o, s) ->
        Option.map (fun r -> (spec.Scn.setup.Scn.tenants, r, s)) o.Episode.oc_result)
      results
  in
  let times = Array.of_list (List.map (fun (_, _, s) -> s) results) in
  let per_episode name =
    let total =
      List.fold_left
        (fun a (tenants, r, _) -> a + tenant_sum r.Rack.r_snapshot ~tenants name)
        0 completed
    in
    float_of_int total /. float_of_int (max 1 (List.length completed))
  in
  let accesses =
    List.fold_left
      (fun a (_, r, _) ->
        Array.fold_left (fun a (t : Rack.tenant_result) -> a + t.Rack.t_accesses) a r.Rack.r_tenants)
      0 completed
  in
  let host = List.fold_left (fun a (_, _, s) -> a +. s) 0. completed in
  let violations =
    List.fold_left (fun a (_, o, _) -> a + List.length o.Episode.oc_violations) 0 results
  in
  [
    ("scenario.episode_s_p50", Quant.median times, "s");
    ("scenario.episode_s_max", Array.fold_left max 0. times, "s");
    ("scenario.host_ns_per_access", 1e9 *. host /. float_of_int (max 1 accesses), "ns");
    ("scenario.violations", float_of_int violations, "count");
    ("membership.false_positives", per_episode "membership.false_positives", "count");
    ("membership.fencing_rejects", per_episode "fencing.rejects", "count");
    ("integrity.scrub_pages", per_episode "scrub.pages", "count");
    ("integrity.scrub_sweeps", per_episode "scrub.sweeps", "count");
  ]
