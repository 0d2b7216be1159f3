(* rack-heat: the canonical two-tenant heat demo,

     konactl rack --tenants 2 -w kv-zipf,kv-uniform --policy heat \
       --nodes 3 --fmem-pages 64 --seed S

   (every other flag at its default: 128 MiB nodes, 1 Gbit/s ingress, a
   64-page shared segment with 256 woven ops, 2 us slow-tier penalty) at
   Smoke scale, repeated over consecutive seeds S, S+2, S+4, ... derived
   from the workload seed.  Random 50%-write key-value traffic under FMem
   pressure: fetch, dirty tracking and CL-log eviction, plus rack replay,
   WFQ, placement and the rack directory. *)

open Kona
open Common
module Rack = Kona_rack.Rack
module Rng = Kona_util.Rng
module Hub = Kona_telemetry.Hub
module Amp = Kona_trace.Amplification
module Window = Kona_trace.Window
module Workloads = Kona_workloads.Workloads

let config =
  let base = Rack.default_config in
  {
    base with
    Rack.nodes = 3;
    policy = "heat";
    slow_extra_ns = 2000;
    runtime = { base.Rack.runtime with Runtime.fmem_pages = 64 };
  }

let workloads = [ "kv-zipf"; "kv-uniform" ]

(* konactl's --seed for rack [k] of a run; tenant [i] gets seed + i. *)
let rack_seed ~seed k = Rng.int (Rng.create ~seed) 1_000_000 + (2 * k)

let tenants ~seed k =
  List.mapi
    (fun i w ->
      {
        Rack.name = Printf.sprintf "t%d-%s" i w;
        workload = w;
        bw_share = 1;
        mem_quota = None;
        seed = rack_seed ~seed k + i;
      })
    workloads

type rack = {
  started : float;  (** clock before [Rack.start] *)
  wall_s : float;  (** start to the last check *)
  start_s : float;
  finish_s : float;
  accesses : int;
  words : float;
  slices : Quant.slices;  (** each [Rack.step] *)
  work : float array;  (** accesses of each [Rack.step] *)
  result : Rack.result;
}

let tenant_count = List.length workloads

(* One rack: start (build the fabric and record both workloads), step to
   exhaustion timing every slice, finish (drain and divergence oracles),
   then count the oracle's pages and fingerprint the virtual results. *)
let run_rack ~seed k =
  Gc.full_major ();
  let req = Printf.sprintf "rack-heat/%d" k in
  let t_rack = now () in
  let started, start_s =
    timed (fun () ->
        self_check "rack-heat: workload self-checks while recording" (fun () ->
            let e = Spans.within ~req "rack.start" (fun () -> Rack.start config (tenants ~seed k)) in
            settle ();
            e))
  in
  match started with
  | None -> None
  | Some e ->
      let n = ref 0 and steps = ref 0 in
      let slices = Quant.slices () and work = Quant.samples () in
      let w0 = Gc.minor_words () in
      Spans.within ~req "rack.replay" (fun () ->
          let rec go () =
            let s0 = now () in
            let a = Rack.step e in
            let s1 = now () in
            if a > 0 then begin
              Quant.push_slice slices ~t0:s0 ~t1:s1;
              Quant.push work (float_of_int a);
              if !Spans.enabled then
                Spans.record ~req:(Printf.sprintf "%s/%d" req !steps) "rack.step" ~t0:s0 ~t1:s1;
              n := !n + a;
              incr steps;
              if !steps land 63 = 0 then Hostspeed.sample ();
              go ()
            end
          in
          go ());
      let words = Gc.minor_words () -. w0 in
      let result, finish_s =
        timed (fun () -> Spans.within ~req "rack.finish" (fun () -> Rack.finish e))
      in
      Array.iteri
        (fun i (t : Rack.tenant_result) ->
          let pages = ref 0 in
          Resource_manager.iter_backed_pages
            (Runtime.resource_manager (Rack.runtime e ~tenant:i))
            (fun ~vpage:_ ~node:_ ~remote_addr:_ -> incr pages);
          check ~n:!pages
            ~bad:(t.Rack.t_mismatches + t.Rack.t_lost_pages)
            "rack-heat: remote memory equals every tenant's heap";
          check ~bad:(if t.Rack.t_degraded = None then 0 else 1) "rack-heat: not degraded")
        result.Rack.r_tenants;
      let r = result in
      fingerprint
        (Printf.sprintf "rack-heat/seed=%d/rack=%d" seed k)
        (List.map (fun (t : Rack.tenant_result) -> t.Rack.t_fingerprint)
           (Array.to_list r.Rack.r_tenants)
        @ List.map string_of_int
            [
              r.Rack.r_elapsed_ns; r.Rack.r_total_admits; r.Rack.r_saturated_admits;
              r.Rack.r_snoops; r.Rack.r_invalidations_sent; r.Rack.r_migrations;
              r.Rack.r_migrator_delay_ns; r.Rack.r_fetches; r.Rack.r_fetches_fast;
              r.Rack.r_hot_hit_pml; !n;
            ]);
      Some
        { started = t_rack; wall_s = now () -. t_rack; start_s; finish_s; accesses = !n; words;
          slices; work = Quant.to_array work; result }

let racks_for seconds = max 2 (int_of_float (Float.round (seconds *. 1.6)))
let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l
let sumi f l = List.fold_left (fun a x -> a + f x) 0 l
let tenants_of r = Array.to_list r.result.Rack.r_tenants

let fetch_hist racks =
  List.fold_left
    (fun h r ->
      Kona_util.Histogram.merge h
        (tenant_hist r.result.Rack.r_snapshot ~tenants:tenant_count "fetch.latency_ns"))
    (Kona_util.Histogram.create ()) racks

let run_racks ~seed ~count = List.filter_map (run_rack ~seed) (List.init count Fun.id)

(* Steps per throughput sample (see {!Stream.chunk}). *)
let chunk = 16

(* The measured (untraced) workload: end-to-end metrics.  Every rack is
   one whole workload; wall_s and setup_s are medians over racks.  Host
   times are scaled to nominal host speed ({!Hostspeed}). *)
let measure ~seed ~seconds =
  let racks = run_racks ~seed ~count:(racks_for seconds) in
  let median f = Quant.median (Array.of_list (List.map f racks)) in
  let setup r = r.start_s /. Hostspeed.factor_at (r.started +. r.start_s) in
  let wall r = r.wall_s /. Hostspeed.factor_between r.started (r.started +. r.wall_s) in
  let sl = Array.concat (List.map (fun r -> Hostspeed.scaled r.slices) racks) in
  let rates =
    Quant.chunk_rates ~size:chunk sl (Array.concat (List.map (fun r -> r.work) racks))
  in
  let accesses = sumi (fun r -> r.accesses) racks in
  let fetch = fetch_hist racks in
  let app_ns =
    sumi (fun r -> sumi (fun (t : Rack.tenant_result) -> t.Rack.t_app_ns) (tenants_of r)) racks
  in
  Printf.printf
    "rack-heat: %d racks, %d replayed accesses, %d demand fetches, %d slices (Rack.step)\n%!"
    (List.length racks) accesses (Kona_util.Histogram.count fetch) (Array.length sl);
  [
    ("setup_s", median setup, "s");
    ("wall_s", median wall, "s");
    ("sim_accesses_per_s", Quant.median rates, "1/s");
    ("slice_p50_us", 1e6 *. Quant.quantile sl 0.50, "us");
    ("slice_p99_us", 1e6 *. Quant.tail sl 0.99, "us");
    ("virt_ns_per_access", float_of_int app_ns /. float_of_int (max 1 accesses), "ns");
  ]

(* ---- per-layer probes (traced run) ---- *)

(* Host seconds (at nominal speed) of a bare runtime (the rack's
   per-tenant runtime configuration, its own three nodes, no WFQ or
   placement) replaying a recorded tenant trace: the base of
   rack.overhead_ratio. *)
let bare_replay ~slug ~seed =
  let heap, trace = record_workload ~slug ~seed in
  let controller = controller ~nodes:config.Rack.nodes in
  let rt =
    Runtime.create ~config:config.Rack.runtime ~hub:(Hub.create ()) ~controller
      ~read_local:(fun ~addr ~len -> Heap.peek_bytes heap addr len)
      ()
  in
  let t0 = now () in
  let (), s =
    timed (fun () ->
        Spans.within ~req:("bare/" ^ slug) "core.bare_replay" (fun () ->
            Array.iteri
              (fun i a ->
                Runtime.sink rt a;
                if i land 16383 = 16383 then Hostspeed.sample ())
              trace))
  in
  (Array.length trace, Hostspeed.scale ~t0 s)

(* Redis-Rand's Table 2 dirty amplification on a tenant stream. *)
let redis_rand_amplification ~seed =
  let spec = Workloads.redis_rand in
  let _, trace = record_workload ~slug:"kv-uniform" ~seed in
  let amp = Amp.create () in
  let w =
    Window.create ~quantum:(spec.Workloads.quantum Workloads.Smoke) ~inner:(Amp.sink amp)
      ~on_boundary:(fun ~window -> Amp.close_window amp ~window)
  in
  Array.iter (Window.sink w) trace;
  Window.flush w;
  let a = Amp.aggregate ~drop_last:true amp in
  Printf.printf
    "accuracy: Redis-Rand dirty amplification 4K %.3f (paper %.2f), CL %.3f (paper %.2f)\n%!"
    a.Amp.agg_amp_page spec.Workloads.paper_amp_4k a.Amp.agg_amp_line
    spec.Workloads.paper_amp_cl;
  a

let layers racks ~seed =
  let n = List.length racks in
  let per_rack f = float_of_int (sumi f racks) /. float_of_int (max 1 n) in
  let snap r = r.result.Rack.r_snapshot in
  let tsum r name = tenant_sum (snap r) ~tenants:tenant_count name in
  let accesses = sumi (fun r -> r.accesses) racks in
  let step_ns = 1e9 *. Spans.total "rack.step" /. float_of_int (max 1 accesses) in
  let bare_n, bare_s =
    List.fold_left
      (fun (n, s) k ->
        List.fold_left
          (fun (n, s) (t : Rack.tenant_cfg) ->
            let n', s' = bare_replay ~slug:t.Rack.workload ~seed:t.Rack.seed in
            (n + n', s +. s'))
          (n, s) (tenants ~seed k))
      (0, 0.)
      (List.init n Fun.id)
  in
  let bare_ns = 1e9 *. bare_s /. float_of_int (max 1 bare_n) in
  (* Both sides of the ratio at nominal speed, each scaled by the host
     speed around it: they run seconds apart. *)
  let scaled_step_ns =
    1e9
    *. sumf (fun r -> Array.fold_left ( +. ) 0. (Hostspeed.scaled r.slices)) racks
    /. float_of_int (max 1 accesses)
  in
  let total f = sumi f racks in
  let res r = r.result in
  let admits = total (fun r -> (res r).Rack.r_total_admits) in
  let delay = total (fun r -> sumi (fun (t : Rack.tenant_result) -> t.Rack.t_delay_ns) (tenants_of r)) in
  let fetches = total (fun r -> (res r).Rack.r_fetches) in
  let amp = redis_rand_amplification ~seed:(rack_seed ~seed 0 + 1) in
  let fetch = fetch_hist racks in
  let median f = Quant.median (Array.of_list (List.map f racks)) in
  [
    ("core.virt_fetch_p50_ns", Quant.hist_percentile fetch 50., "ns");
    ("core.virt_fetch_p99_ns", Quant.hist_percentile fetch 99., "ns");
    ("rack.start_s", median (fun r -> r.start_s), "s");
    ("rack.step_host_ns_per_access", step_ns, "ns");
    ( "rack.step_minor_words_per_access",
      sumf (fun r -> r.words) racks /. float_of_int (max 1 accesses),
      "words" );
    ("rack.finish_ms", 1e3 *. median (fun r -> r.finish_s), "ms");
    ("rack.overhead_ratio", scaled_step_ns /. bare_ns, "ratio");
    ("rack.wfq_delay_ns", frac delay admits, "ns");
    ( "rack.saturated_admit_ratio",
      frac (total (fun r -> (res r).Rack.r_saturated_admits)) admits,
      "ratio" );
    ("placement.migrations", per_rack (fun r -> (res r).Rack.r_migrations), "count");
    ( "placement.remote_hit_ratio",
      1. -. frac (total (fun r -> (res r).Rack.r_fetches_fast)) fetches,
      "ratio" );
    ("placement.hot_hit_ratio", per_rack (fun r -> (res r).Rack.r_hot_hit_pml) /. 1000., "ratio");
    ("placement.migrator_delay_ns", per_rack (fun r -> (res r).Rack.r_migrator_delay_ns), "ns");
    ("coherence.dir_snoops", per_rack (fun r -> (res r).Rack.r_snoops), "count");
    ("coherence.invalidations", per_rack (fun r -> (res r).Rack.r_invalidations_sent), "count");
    ( "rdma.fetch_arb_delay_ns",
      frac (total (fun r -> tsum r "qp.arb_delay_ns{qp=fetch}")) (total (fun r -> tsum r "fetch.pages")),
      "ns" );
    ( "rdma.evict_arb_delay_ns",
      frac
        (total (fun r -> tsum r "qp.arb_delay_ns{qp=evict}"))
        (total (fun r -> tsum r "qp.posts{qp=evict}")),
      "ns" );
    ("rdma.nic_busy_ns", per_rack (fun r -> tsum r "nic.busy_ns"), "ns");
    ("accuracy.redis_rand_amp_4k", amp.Amp.agg_amp_page, "ratio");
    ("accuracy.redis_rand_amp_cl", amp.Amp.agg_amp_line, "ratio");
  ]
