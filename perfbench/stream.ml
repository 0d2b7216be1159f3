(* runtime-stream: one Kona runtime (default configuration, no faults, no
   scrubber, no rack) fed inline by Linear Regression at Full scale, about
   24M read-mostly streaming accesses per pass.  Every pass of a run
   replays the same seed, so passes must agree bit for bit. *)

open Kona
open Common
module Access = Kona_trace.Access
module Amp = Kona_trace.Amplification
module Window = Kona_trace.Window
module Hierarchy = Kona_cachesim.Hierarchy
module Cache = Kona_cachesim.Cache
module Hub = Kona_telemetry.Hub
module Rng = Kona_util.Rng
module Mapreduce = Kona_workloads.Mapreduce
module Workloads = Kona_workloads.Workloads

let heap_capacity = Units.mib 48

(* Accesses per slice: one slice is this many consecutive [Runtime.sink]
   calls, generator work in between included. *)
let block = 16384

(* Full scale is 2,000,000 points; the seed adds up to 65,535 more, so
   different seeds give different address streams (and virtual times),
   not only different noise. *)
let points_of_seed seed = 2_000_000 + Rng.int (Rng.create ~seed:(seed lxor 0x5eed)) 65_536

(* The application: map-reduce least squares over the seeded points,
   with the workload's own self-check on the fit. *)
let linear_regression heap ~seed =
  let r =
    Mapreduce.linear_regression heap ~rng:(Rng.create ~seed)
      ~points:(points_of_seed seed) ~chunk:512
  in
  if abs_float (r.Mapreduce.slope -. 2.0) >= 0.05 then failwith "linreg: slope";
  if abs_float (r.Mapreduce.intercept -. 1.0) >= 0.05 then
    failwith "linreg: intercept"

type loop = {
  accesses : int;
  loop_s : float;
  words : float;  (** minor words allocated during the loop *)
}

(* Run the generator with every access passed to [inner], timing each
   block of [block] accesses into [slices] (and as a span named [slice]
   when tracing). *)
let drive heap ~seed ~req ~span ~slice ~slices inner =
  let n = ref 0 and blk = ref 0 and t_blk = ref 0. in
  Heap.set_sink heap (fun a ->
      inner a;
      incr n;
      if !n land (block - 1) = 0 then begin
        let t = now () in
        Quant.push_slice slices ~t0:!t_blk ~t1:t;
        if !Spans.enabled then
          Spans.record ~req:(Printf.sprintf "%s/%d" req !blk) slice ~t0:!t_blk ~t1:t;
        incr blk;
        if !blk land 15 = 0 then Hostspeed.sample ();
        t_blk := now ()
      end);
  let w0 = Gc.minor_words () in
  let t0 = now () in
  t_blk := t0;
  Spans.within ~req span (fun () ->
      ignore (self_check "runtime-stream: linear regression self-check" (fun () ->
                  linear_regression heap ~seed)));
  let loop_s = now () -. t0 in
  { accesses = !n; loop_s; words = Gc.minor_words () -. w0 }

type pass = {
  started : float;  (** clock at the start of set-up *)
  wall_s : float;  (** set-up to the last check *)
  setup_s : float;
  loop : loop;
  drain_s : float;
  app_ns : int;
  snapshot : Snapshot.t;
}

(* One pass: set up nodes, controller, runtime and heap; stream; drain;
   run the remote-equals-heap oracle; fingerprint the virtual results. *)
let run_pass ~seed ~idx ~slices ~plant =
  Gc.full_major ();
  let t0 = now () in
  let (controller, hub, rt, heap), setup_s =
    timed (fun () ->
        let controller = controller ~nodes:2 in
        let hub = Hub.create () in
        let heap_ref = ref None in
        let read_local ~addr ~len = Heap.peek_bytes (Option.get !heap_ref) addr len in
        let rt = Runtime.create ~hub ~controller ~read_local () in
        let heap = Heap.create ~capacity:heap_capacity ~sink:Access.Tap.ignore () in
        heap_ref := Some heap;
        settle ();
        (controller, hub, rt, heap))
  in
  let req = Printf.sprintf "runtime-stream/%d" idx in
  let loop =
    drive heap ~seed ~req ~span:"core.pass" ~slice:"core.sink_block" ~slices
      (Runtime.sink rt)
  in
  let (), drain_s = timed (fun () -> Spans.within ~req "core.drain" (fun () -> Runtime.drain rt)) in
  let poked vpage = Heap.page_poked heap ~page:vpage in
  if plant then plant_fault rt controller ~poked;
  let pages, bad =
    heap_oracle rt controller ~poked ~capacity:heap_capacity
      ~peek:(fun base -> Heap.peek_bytes heap base page)
  in
  check ~n:pages ~bad "runtime-stream: remote memory equals the heap";
  check ~bad:(if Runtime.degraded rt = None then 0 else 1) "runtime-stream: not degraded";
  let snapshot = Hub.snapshot hub in
  let app_ns = Runtime.app_ns rt in
  fingerprint
    (Printf.sprintf "runtime-stream/seed=%d/pass" seed)
    (string_of_int app_ns :: string_of_int (Runtime.bg_ns rt)
     :: string_of_int loop.accesses
     :: (kv_parts (Runtime.stats rt) @ hist_parts (hist_of snapshot "fetch.latency_ns")));
  { started = t0; wall_s = now () -. t0; setup_s; loop; drain_s; app_ns; snapshot }

let passes_for seconds = max 2 (int_of_float (Float.round (seconds /. 2.5)))

(* Slices per throughput sample: sim_accesses_per_s is the median rate of
   runs of this many consecutive slices. *)
let chunk = 4

(* The measured (untraced) workload: end-to-end metrics.  Every pass is
   one whole workload; wall_s and setup_s are medians over passes.  Host
   times are scaled to nominal host speed ({!Hostspeed}). *)
let measure ~seed ~seconds ~plant =
  let slices = Quant.slices () in
  let passes =
    List.init (passes_for seconds) (fun idx ->
        run_pass ~seed ~idx ~slices ~plant:(plant && idx = 0))
  in
  let median f = Quant.median (Array.of_list (List.map f passes)) in
  let setup p = p.setup_s /. Hostspeed.factor_at (p.started +. p.setup_s) in
  let wall p = p.wall_s /. Hostspeed.factor_between p.started (p.started +. p.wall_s) in
  let p0 = List.hd passes in
  let sl = Hostspeed.scaled slices in
  let rates = Quant.chunk_rates ~size:chunk sl (Array.make (Array.length sl) (float_of_int block)) in
  (* Every pass replays the same accesses, so slice [i] of each pass is
     the same work: the slice quantiles are taken over positions, each at
     its median over passes. *)
  let per_position = Quant.position_medians ~rows:(List.length passes) sl in
  Printf.printf "runtime-stream: %d passes x %d accesses, %d slices of %d accesses (%d positions)\n%!"
    (List.length passes) p0.loop.accesses (Array.length sl) block (Array.length per_position);
  [
    ("setup_s", median setup, "s");
    ("wall_s", median wall, "s");
    ("sim_accesses_per_s", Quant.median rates, "1/s");
    ("slice_p50_us", 1e6 *. Quant.quantile per_position 0.50, "us");
    ("slice_p99_us", 1e6 *. Quant.quantile per_position 0.99, "us");
    ("virt_ns_per_access", float_of_int p0.app_ns /. float_of_int p0.loop.accesses, "ns");
  ]

(* ---- per-layer probes over the same stream (traced run) ---- *)

(* Linear Regression's Table 2 dirty amplification on this stream. *)
let amplification ~seed =
  let spec = Workloads.linear_regression in
  let amp = Amp.create () in
  let w =
    Window.create ~quantum:(spec.Workloads.quantum Workloads.Full) ~inner:(Amp.sink amp)
      ~on_boundary:(fun ~window -> Amp.close_window amp ~window)
  in
  let heap = Heap.create ~capacity:heap_capacity ~sink:(Window.sink w) () in
  Spans.within ~req:"accuracy/linear-regression" "trace.amplification" (fun () ->
      linear_regression heap ~seed);
  Window.flush w;
  Amp.aggregate ~drop_last:true amp

(* Layer metrics: the generator alone, the generator through a standalone
   cache hierarchy, and the full runtime.  Also returns the runtime pass's
   accesses and GC counters (set-up to checks). *)
let layers ~seed =
  let scratch = Quant.slices () in
  let bare name inner_of =
    Gc.full_major ();
    let heap = Heap.create ~capacity:heap_capacity ~sink:Access.Tap.ignore () in
    let inner, finish = inner_of () in
    let l =
      drive heap ~seed ~req:("runtime-stream/" ^ name) ~span:name
        ~slice:(name ^ "_block") ~slices:scratch inner
    in
    (l, finish ())
  in
  let gen, () = bare "workloads.generate" (fun () -> ((fun _ -> ()), fun () -> ())) in
  let hier, (l1, llc) =
    bare "cachesim.pass" (fun () ->
        let h = Hierarchy.create ~config:Runtime.default_config.Runtime.cache_config () in
        ( Hierarchy.access h,
          fun () ->
            ( Cache.miss_rate (Cache.stats (Hierarchy.l1 h)),
              Cache.miss_rate (Cache.stats (Hierarchy.llc h)) ) ))
  in
  let p, gc = gc_delta (fun () -> run_pass ~seed ~idx:0 ~slices:scratch ~plant:false) in
  let amp = amplification ~seed in
  let n = float_of_int p.loop.accesses in
  let per_access x = x /. n in
  let ns l = 1e9 *. l.loop_s /. n in
  let c = counter p.snapshot in
  let paper = Workloads.linear_regression in
  Printf.printf "accuracy: Linear Regression dirty amplification 4K %.3f (paper %.2f), CL %.3f (paper %.2f)\n%!"
    amp.Amp.agg_amp_page paper.Workloads.paper_amp_4k amp.Amp.agg_amp_line
    paper.Workloads.paper_amp_cl;
  ( (p.loop.accesses, gc),
    [
      ("workloads.host_ns_per_access", ns gen, "ns");
      ("workloads.minor_words_per_access", per_access gen.words, "words");
      ("cachesim.host_ns_per_access", ns hier -. ns gen, "ns");
      ("cachesim.minor_words_per_access", per_access (hier.words -. gen.words), "words");
      ("cachesim.l1_miss_ratio", l1, "ratio");
      ("cachesim.llc_miss_ratio", llc, "ratio");
      ("core.host_ns_per_access", ns p.loop -. ns gen, "ns");
      ("core.self_ns_per_access", ns p.loop -. ns hier, "ns");
      ("core.minor_words_per_access", per_access (p.loop.words -. gen.words), "words");
      ("core.drain_ms", 1e3 *. p.drain_s, "ms");
      ("core.fmem_hit_ratio", frac (c "fmem.hits") (c "fmem.hits" + c "fmem.misses"), "ratio");
      ("core.fetch_pages", float_of_int (c "fetch.pages"), "count");
      ("core.evict_pages", float_of_int (c "evict.pages"), "count");
      ("core.cllog_flushes", float_of_int (c "cllog.flushes"), "count");
      ("core.bg_ns_per_access", float_of_int (c "clock.bg_ns") /. n, "ns");
      ("accuracy.linear_regression_amp_4k", amp.Amp.agg_amp_page, "ratio");
      ("accuracy.linear_regression_amp_cl", amp.Amp.agg_amp_line, "ratio");
    ] )
