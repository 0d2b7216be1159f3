(* Bechamel microbenchmarks of the hot data-path primitives: wall-clock
   cost of the simulator's building blocks (not virtual time).  The cache
   rows back the host-cost section of EXPERIMENTS.md: the cache simulator
   is about half of the runtime's per-access host cost. *)

open Bechamel
open Toolkit
module Units = Kona_util.Units
module Bitmap = Kona_util.Bitmap
module Rng = Kona_util.Rng
module Cache = Kona_cachesim.Cache
module Hierarchy = Kona_cachesim.Hierarchy
module Heap = Kona_workloads.Heap

let test_bitmap_segments =
  let bitmap = Bitmap.create 64 in
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 12 do
    Bitmap.set bitmap (Rng.int rng 64)
  done;
  Test.make ~name:"bitmap.segments (64b, 12 set)"
    (Staged.stage (fun () -> ignore (Bitmap.segments bitmap : (int * int) list)))

(* Address streams are drawn up front and replayed cyclically, so a row
   times the cache and not the generator. *)
let stream ~seed ~bound =
  let rng = Rng.create ~seed in
  Array.init 65_536 (fun _ -> Rng.int rng bound)

let test_cache_access =
  let cache = Cache.create ~name:"bench" ~size:(Units.kib 32) ~assoc:8 ~block:64 in
  let addrs = stream ~seed:2 ~bound:1_000_000 in
  let i = ref 0 in
  Test.make ~name:"cache.access (32KB/8-way)"
    (Staged.stage (fun () ->
         i := (!i + 1) land 65_535;
         ignore (Cache.access cache ~addr:addrs.(!i) ~write:false : int)))

(* Random lines over 2 MB, every fourth access a write: hits at each
   level, misses, and dirty victims. *)
let test_hierarchy_access_line =
  let h = Hierarchy.create () in
  let addrs = stream ~seed:5 ~bound:(Units.mib 2) in
  let i = ref 0 in
  Test.make ~name:"hierarchy.access_line (default, 2MB)"
    (Staged.stage (fun () ->
         i := (!i + 1) land 65_535;
         ignore (Hierarchy.access_line h ~addr:addrs.(!i) ~write:(!i land 3 = 0) : int)))

let test_heap_write =
  let heap = Heap.create ~capacity:(Units.mib 1) ~sink:Kona_trace.Access.Tap.ignore () in
  let addr = Heap.alloc heap 4096 in
  Test.make ~name:"heap.write_u64 (instrumented)"
    (Staged.stage (fun () -> Heap.write_u64 heap addr 42))

let test_kv_set =
  let heap = Heap.create ~capacity:(Units.mib 8) ~sink:Kona_trace.Access.Tap.ignore () in
  let kv = Kona_workloads.Kv_store.create heap ~nbuckets:1024 in
  let rng = Rng.create ~seed:3 in
  Test.make ~name:"kv_store.set (104B value)"
    (Staged.stage (fun () ->
         Kona_workloads.Kv_store.set kv
           (Kona_workloads.Kv_store.key_of_int (Rng.int rng 500))
           (String.make 104 'v')))

let test_fmem_lookup =
  let fmem = Kona_coherence.Fmem.create ~pages:1024 () in
  for p = 0 to 1023 do
    ignore (Kona_coherence.Fmem.insert fmem ~vpage:p)
  done;
  let rng = Rng.create ~seed:4 in
  Test.make ~name:"fmem.lookup (1024 frames)"
    (Staged.stage (fun () ->
         ignore (Kona_coherence.Fmem.lookup fmem ~vpage:(Rng.int rng 2048) : bool)))

let tests =
  [ test_bitmap_segments; test_cache_access; test_hierarchy_access_line;
    test_heap_write; test_kv_set; test_fmem_lookup ]

let run () =
  Report.section "Microbenchmarks (host wall-clock, bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
      in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Format.printf "  %-36s %8.1f ns/op@." name est
          | _ -> Format.printf "  %-36s (no estimate)@." name)
        analyzed)
    tests
