open Kona_util
module Hierarchy = Kona_cachesim.Hierarchy
module Cache = Kona_cachesim.Cache
module Workloads = Kona_workloads.Workloads
module Heap = Kona_workloads.Heap
module Access = Kona_trace.Access

type counts = {
  line_accesses : int;
  l1_hits : int;
  l2_hits : int;
  llc_hits : int;
  dram_hits : int;
  remote_fetches : int;
  rss_bytes : int;
  dram_cache_bytes : int;
}

let measure_rss ~spec ~scale ~seed =
  let heap =
    Heap.create ~capacity:(spec.Workloads.heap_capacity scale) ~sink:Access.Tap.ignore ()
  in
  spec.Workloads.run scale ~heap ~seed;
  Heap.used heap

let simulate ?cache_config ?(block = Units.page_size) ?(assoc = 4) ?rss ~spec ~scale
    ~seed ~cache_frac () =
  assert (cache_frac >= 0.);
  if not (Units.is_power_of_two block && block >= Units.cache_line) then
    invalid_arg "Kcachesim.simulate: block must be a power of two >= 64";
  let rss = match rss with Some r -> r | None -> measure_rss ~spec ~scale ~seed in
  (* Size the DRAM-cache stage; keep at least one full set. *)
  let want = int_of_float (cache_frac *. float_of_int rss) in
  let size = max (assoc * block) (Units.align_up want ~alignment:(assoc * block)) in
  let dram = Cache.create ~name:"dram-cache" ~size ~assoc ~block in
  let dram_hits = ref 0 in
  let remote = ref 0 in
  let hierarchy =
    Hierarchy.create ?config:cache_config
      ~on_fill:(fun ~addr ~write ->
        if Cache.access dram ~addr ~write = Cache.hit then incr dram_hits
        else incr remote)
      ()
  in
  let heap =
    Heap.create ~capacity:(spec.Workloads.heap_capacity scale)
      ~sink:(Hierarchy.access hierarchy) ()
  in
  spec.Workloads.run scale ~heap ~seed;
  let hits cache =
    let s = Cache.stats cache in
    s.Cache.reads + s.Cache.writes - s.Cache.read_misses - s.Cache.write_misses
  in
  let l1 = Hierarchy.l1 hierarchy and l2 = Hierarchy.l2 hierarchy in
  let llc = Hierarchy.llc hierarchy in
  let s1 = Cache.stats l1 in
  {
    line_accesses = s1.Cache.reads + s1.Cache.writes;
    l1_hits = hits l1;
    l2_hits = hits l2;
    llc_hits = hits llc;
    dram_hits = !dram_hits;
    remote_fetches = !remote;
    rss_bytes = rss;
    dram_cache_bytes = size;
  }

let amat_ns ~cost ~profile counts =
  let c = cost in
  let lat_l1 = c.Cost_model.l1_ns in
  let lat_l2 = lat_l1 +. c.Cost_model.l2_ns in
  let lat_llc = lat_l2 +. c.Cost_model.llc_ns in
  let lat_dram = lat_llc +. profile.Cost_model.dram_cache_ns in
  let lat_remote = lat_dram +. profile.Cost_model.remote_ns in
  let f = float_of_int in
  let total =
    (f counts.l1_hits *. lat_l1)
    +. (f counts.l2_hits *. lat_l2)
    +. (f counts.llc_hits *. lat_llc)
    +. (f counts.dram_hits *. lat_dram)
    +. (f counts.remote_fetches *. lat_remote)
  in
  total /. f counts.line_accesses
