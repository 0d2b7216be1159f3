module Units = Kona_util.Units
module Histogram = Kona_util.Histogram
module Workloads = Kona_workloads.Workloads
module Heap = Kona_workloads.Heap
module Access = Kona_trace.Access
module Hub = Kona_telemetry.Hub
module Registry = Kona_telemetry.Registry
module Snapshot = Kona_telemetry.Snapshot
module Json = Kona_telemetry.Json
module Directory = Kona_coherence.Directory
module Heat = Kona_placement.Heat
module Placement_policy = Kona_placement.Placement_policy
module Migrator = Kona_placement.Migrator
module Recovery = Kona_membership.Recovery
open Kona

type tenant_cfg = {
  name : string;
  workload : string;
  bw_share : int;
  mem_quota : int option;
  seed : int;
}

type config = {
  scale : Workloads.scale;
  nodes : int;
  node_capacity : int;
  node_gbps : float;
  replicas : int;
  faults : Kona_faults.Fault_spec.t;
  fault_seed : int;
  shared_pages : int;
  shared_ops : int;
  shared_writers : int;
  quantum : int;
  policy : string;
  fast_nodes : int;
  slow_extra_ns : int;
  hot_threshold : int;
  migrate_epoch_ns : int;
  migrate_budget : int;
  migrate_share : int;
  ops : Rack_ops.t;
  extra_node_slots : int;
  runtime : Runtime.config;
}

let default_config =
  {
    scale = Workloads.Smoke;
    nodes = 2;
    node_capacity = Units.mib 128;
    node_gbps = 1.0;
    replicas = 0;
    faults = [];
    fault_seed = 42;
    shared_pages = 64;
    shared_ops = 256;
    shared_writers = 1;
    quantum = 256;
    policy = "first-fit";
    fast_nodes = 1;
    slow_extra_ns = 0;
    hot_threshold = 2;
    migrate_epoch_ns = 1_000_000;
    migrate_budget = 32;
    migrate_share = 1;
    ops = [];
    extra_node_slots = 0;
    runtime = Runtime.default_config;
  }

type tenant_result = {
  t_cfg : tenant_cfg;
  t_accesses : int;
  t_app_ns : int;
  t_bg_ns : int;
  t_elapsed_ns : int;
  t_admitted_bytes : int;
  t_contended_bytes : int;
  t_delay_ns : int;
  t_achieved_gbps : float;
  t_invalidations : int;
  t_mismatches : int;
  t_lost_pages : int;
  t_degraded : string option;
  t_fingerprint : string;
  t_snapshot : Snapshot.t;
}

type result = {
  r_tenants : tenant_result array;
  r_elapsed_ns : int;
  r_total_admits : int;
  r_saturated_admits : int;
  r_snoops : int;
  r_invalidations_sent : int;
  r_shared_writes : int;
  r_shared_reads : int;
  r_handoffs : int;
  r_owner_changes : int;
  r_coh_invalidations : int;
  r_node_crashes : int;
  r_policy : string;
  r_migrations : int;
  r_bytes_moved : int;
  r_failed_moves : int;
  r_migrator_delay_ns : int;
  r_fetches : int;
  r_fetches_fast : int;
  r_remote_hit_pml : int;
  r_hot_hit_pml : int;
  r_drained_pages : int;
  r_drain_failures : int;
  r_ops_applied : int;
  r_snapshot : Snapshot.t;
}

let page = Units.page_size

(* The published segment lives at 1 GiB: far above any scaled-down heap
   (tens of MiB) and aligned for every slab size in use. *)
let shared_base = 1 lsl 30
let seg_first = shared_base / page

(* One replay step: a recorded application access, or a synthetic
   shared-segment operation (the publisher writes, readers read). *)
type step = App of Access.t | Shared_write of int | Shared_read of int

(* The segment tenant 0 publishes and every other tenant maps foreign.
   [pages] stays 0 until publication, which happens at start
   ([cfg.shared_pages > 0], the historical path) or mid-run through
   [publish] (scenario ops). *)
type segment = {
  mutable pages : int;
  mutable image : Bytes.t;
      (* the last-writer-wins bytes in coherence order: woven writes fill
         it and every tenant's capture of a segment line reads it *)
}

(* The physical rack and the tenants' translations onto it — everything
   the migrator's callbacks read and rewrite, so it exists before the
   migrator and the engine that owns both. *)
type fabric = {
  cfg : config;
  controller : Rack_controller.t;
  replication : Replication.t option;
  runtimes : Runtime.t array;
  wfq : Wfq.t array;
      (* one scheduler per node id the rack can ever hold: the initial
         nodes, the adds in [cfg.ops] and [cfg.extra_node_slots] *)
  heats : Heat.t array;
      (* per tenant, its private pages: every page a fetch or eviction
         touched below the segment, hence owned and backed — exactly the
         migrator's candidates that have ever had heat *)
  seg_heats : Heat.t array;  (* per tenant, its published-segment pages *)
  seg : segment;
  mutable node_count : int;
}

(* A paused rack simulation: [start] builds the fabric and recorded
   traces, [step] advances one scheduling slice, [finish] drains and runs
   the oracles.  Plain state; every operation is a function over it. *)
type engine = {
  fab : fabric;
  tenants : tenant_cfg array;
  heaps : Heap.t array;
  weights : int array;
  hub : Hub.t;
  migrator : Migrator.t;
  (* Rack-level recovery queue: drain re-homing runs here as a resumable
     task (a bounded batch of pages per engine step), so a crash or
     partition landing mid-drain interleaves with it instead of waiting
     behind a synchronous copy loop.  [finish] pumps it to idle. *)
  recovery : Recovery.t;
  mutable partitions_over : bool;
  (* The read-mostly segment's page-grained sharer directory, and the
     line-grained MSI home that mediates concurrent writers.  [mw_dir]
     tracks granted permissions (not residency), so only explicit
     shared-line accesses drive it, never demand fetches. *)
  rack_dir : Directory.t;
  mw_dir : Directory.t;
  mw_w : int;  (* woven writers: op k's writer is tenant [k mod mw_w] *)
  recall_hist : Histogram.t;
  mutable shared_k : int;  (* next synthetic op id past the weave *)
  mutable invalidations_sent : int;
  mutable shared_writes : int;
  mutable shared_reads : int;
  mutable sharer_fills : int;
  mutable fetch_total : int;
  mutable fetch_fast : int;
  mutable hot_total : int;
  mutable hot_fast : int;
  mutable pending_ops : Rack_ops.t;  (* scheduled, by due time *)
  mutable op_moves : int;
  mutable op_failed : int;
  mutable drained_pages : int;
  mutable drain_failures : int;
  mutable ops_applied : int;
  steps : step array array;  (* per-tenant replay, shared ops woven in *)
  pos : int array;
  mutable finished : result option;
}

let slab_size = Units.mib 1

let validate cfg tenants ~planned_nodes =
  if tenants = [] then invalid_arg "Rack.run: no tenants";
  if cfg.nodes < 1 then invalid_arg "Rack.run: need at least one node";
  if cfg.shared_pages < 0 || cfg.shared_ops < 0 then
    invalid_arg "Rack.run: negative shared-segment parameters";
  (* The segment is published at start, in whole slabs, onto the initial
     nodes; one that cannot fit there would fail only after the image
     and the tenants' traces were allocated.  (Compared per node, so no
     product can overflow.) *)
  let ceil_div a b = (a / b) + if a mod b > 0 then 1 else 0 in
  if
    ceil_div (ceil_div cfg.shared_pages (slab_size / page)) cfg.nodes
    > max 0 cfg.node_capacity / slab_size
  then
    invalid_arg
      (Printf.sprintf
         "Rack.run: a shared segment of %d pages does not fit %d node(s) of \
          %d bytes"
         cfg.shared_pages cfg.nodes cfg.node_capacity);
  if cfg.quantum < 1 then invalid_arg "Rack.run: quantum must be positive";
  if cfg.shared_writers < 1 then
    invalid_arg "Rack.run: shared_writers must be >= 1";
  (match Placement_policy.find cfg.policy with
  | (_ : Placement_policy.t) -> ()
  | exception Invalid_argument msg -> invalid_arg ("Rack.run: " ^ msg));
  if cfg.fast_nodes < 0 || cfg.fast_nodes > planned_nodes then
    invalid_arg "Rack.run: fast_nodes out of range";
  if cfg.slow_extra_ns < 0 then invalid_arg "Rack.run: negative slow_extra_ns";
  if cfg.hot_threshold < 1 then invalid_arg "Rack.run: hot_threshold must be >= 1";
  if cfg.migrate_epoch_ns < 1 || cfg.migrate_budget < 1 || cfg.migrate_share < 1
  then invalid_arg "Rack.run: migration parameters must be positive";
  List.iter
    (fun c ->
      match c.Rack_ops.op with
      | Rack_ops.Drain { id } when id < 0 || id >= planned_nodes ->
          invalid_arg (Printf.sprintf "Rack.run: drain of unknown node %d" id)
      | _ -> ())
    cfg.ops;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun tc ->
      if tc.bw_share < 1 then
        invalid_arg
          (Printf.sprintf "Rack.run: tenant %s: bw_share must be >= 1" tc.name);
      if Hashtbl.mem seen tc.name then
        invalid_arg (Printf.sprintf "Rack.run: duplicate tenant name %s" tc.name);
      Hashtbl.add seen tc.name ();
      match Workloads.find tc.workload with
      | _ -> ()
      | exception Not_found ->
          invalid_arg
            (Printf.sprintf "Rack.run: tenant %s: unknown workload %s" tc.name
               tc.workload))
    tenants

(* -------- fabric: segment views, topology, page moves -------- *)

let in_seg seg vpage =
  seg.pages > 0 && vpage >= seg_first && vpage < seg_first + seg.pages

(* Anything at or above the shared base belongs to the published
   segment's slabs (including slab-rounding slack that readers map
   foreign); the migrator leaves that whole range alone — only drain
   re-homes it, remapping owner and readers together. *)
let in_seg_range seg vpage = seg.pages > 0 && vpage >= seg_first

(* A tenant's application memory: the segment image above the shared
   base, its private heap below. *)
let read_local seg heap ~addr ~len =
  if seg.pages > 0 && addr >= shared_base then
    Bytes.sub_string seg.image (addr - shared_base) len
  else Heap.peek_bytes heap addr len

(* Every message to node [id] queues at its WFQ scheduler.  Two latency
   tiers: nodes past [fast_nodes] pay a fixed fabric penalty on top of
   the queueing — what the heat policy optimizes against. *)
let arbitrate cfg wfq ~tenant ~node ~op:_ ~len ~now =
  match node with
  | Some id when id >= 0 && id < Array.length wfq ->
      Wfq.admit wfq.(id) ~tenant ~bytes:len ~now
      + if id >= cfg.fast_nodes then cfg.slow_extra_ns else 0
  | _ -> 0

(* Live nodes, ascending id. *)
let node_infos f =
  List.init f.node_count Fun.id
  |> List.filter_map (fun id ->
         let store = Rack_controller.node f.controller ~id in
         if not (Memory_node.alive store) then None
         else
           Some
             {
               Placement_policy.ni_node = id;
               ni_fast = id < f.cfg.fast_nodes;
               ni_free = Memory_node.free_bytes store;
               ni_capacity = Memory_node.capacity store;
               ni_draining = Rack_controller.draining f.controller ~id;
             })

let flush_all f = Array.iter Runtime.flush_log f.runtimes

(* Migration traffic rides the migrator's WFQ slot, past the tenants'. *)
let charge f ~node ~bytes ~now =
  Wfq.admit f.wfq.(node) ~tenant:(Array.length f.runtimes) ~bytes ~now

(* Read one page, preferring the (possibly failed-over) primary and
   falling back to any live replica; a copy whose lines fail their
   at-rest CRCs is not a migration source — the scrubber owns it. *)
let read_page_bytes f ~node ~addr =
  let try_store s =
    if not (Memory_node.alive s) then None
    else if Memory_node.verify_range s ~addr ~len:page <> [] then None
    else
      match Memory_node.peek s ~addr ~len:page with
      | data -> Some data
      | exception Memory_node.Crashed _ -> None
  in
  match try_store (Rack_controller.node f.controller ~id:node) with
  | Some data -> Some data
  | None ->
      Option.bind f.replication (fun r ->
          List.find_map try_store
            (Replication.live_copies r ~controller:f.controller ~node))

(* Land the page at its new home: primary plus the home's mirrors (at
   the same offset), so post-move CL-log replication stays coherent.
   Reserves bypass the controller's quota path on purpose — migration
   relocates a tenant's bytes, it doesn't grant more. *)
let place_page f ~dst ~data =
  let store = Rack_controller.node f.controller ~id:dst in
  if (not (Memory_node.alive store)) || Memory_node.free_bytes store < page then
    None
  else begin
    let addr = Memory_node.reserve store ~size:page in
    Memory_node.write store ~addr ~data;
    (match f.replication with
    | Some r ->
        List.iter
          (fun m -> if Memory_node.alive m then Memory_node.write m ~addr ~data)
          (Replication.targets r ~node:dst)
    | None -> ());
    Some addr
  end

(* The migrator's feed.  The hot prefix folds the private heat tables,
   which hold every candidate with nonzero heat, so an epoch costs
   O(hot pages).  The zero-heat tail walks every backed page, and only
   when a plan forces it. *)
let page_infos f ~now =
  let info i ~vpage ~node ~heat =
    { Placement_policy.pi_vpage = vpage; pi_tenant = i; pi_node = node;
      pi_heat = heat }
  in
  let hot = ref [] in
  Array.iteri
    (fun i h ->
      let rm = Runtime.resource_manager f.runtimes.(i) in
      hot :=
        Heat.fold h ~now
          (fun ~vpage ~heat acc ->
            match Resource_manager.translate rm ~vaddr:(vpage * page) with
            | Some (node, _) -> info i ~vpage ~node ~heat :: acc
            | None -> acc)
          !hot)
    f.heats;
  let cold =
    lazy
      (List.concat_map
         (fun i ->
           let acc = ref [] in
           Resource_manager.iter_backed_pages
             (Runtime.resource_manager f.runtimes.(i))
             (fun ~vpage ~node ~remote_addr:_ ->
               if
                 (not (in_seg_range f.seg vpage))
                 && Heat.heat f.heats.(i) ~vpage ~now = 0
               then acc := info i ~vpage ~node ~heat:0 :: !acc);
           List.sort Placement_policy.hottest_first !acc)
         (List.init (Array.length f.runtimes) Fun.id))
  in
  {
    Placement_policy.hot = List.sort Placement_policy.hottest_first !hot;
    cold;
  }

let move_page f mv =
  let { Placement_policy.mv_tenant = ti; mv_vpage = vpage; mv_dst = dst } =
    mv
  in
  if in_seg_range f.seg vpage then None
  else
    let rt = f.runtimes.(ti) in
    let rm = Runtime.resource_manager rt in
    match Resource_manager.translate rm ~vaddr:(vpage * page) with
    | Some (src, src_addr) when src <> dst ->
        Option.bind (read_page_bytes f ~node:src ~addr:src_addr) (fun data ->
            Option.map
              (fun dst_addr ->
                Runtime.remap_page rt ~vpage ~node:dst ~remote_addr:dst_addr;
                src)
              (place_page f ~dst ~data))
    | _ -> None

(* -------- shared segment: publication and coherent access -------- *)

(* Publish the segment: tenant 0 backs it, everyone else maps it
   foreign.  A second publication is a no-op. *)
let publish e ~pages =
  let f = e.fab in
  if pages > 0 && f.seg.pages = 0 then begin
    f.seg.pages <- pages;
    (* Rounded up to slab granularity so the publisher's backing slabs
       are fully representable in the image.  Zero-filled, matching the
       memory nodes' stores: the divergence oracle compares whole pages,
       including bytes no woven op ever writes. *)
    let slab = Rack_controller.slab_size f.controller in
    let seg_len = ((pages * page) + slab - 1) / slab * slab in
    f.seg.image <- Bytes.make seg_len '\000';
    let rm0 = Runtime.resource_manager f.runtimes.(0) in
    Resource_manager.ensure_backed rm0 ~addr:shared_base ~len:(pages * page);
    let seg_slabs =
      Resource_manager.slabs rm0
      |> List.filter (fun s ->
             s.Slab.vaddr >= shared_base
             && s.Slab.vaddr < shared_base + seg_len)
      |> List.sort (fun a b -> compare a.Slab.vaddr b.Slab.vaddr)
    in
    for i = 1 to Array.length f.runtimes - 1 do
      Resource_manager.map_foreign
        (Runtime.resource_manager f.runtimes.(i))
        ~at:shared_base seg_slabs
    done
  end

(* Offset into the segment image of the remote byte [addr] on [node], if
   it backs a segment page. *)
let seg_home_off f ~node ~addr =
  let rm0 = Runtime.resource_manager f.runtimes.(0) in
  let rec scan p =
    if p >= f.seg.pages then None
    else
      match Resource_manager.translate rm0 ~vaddr:((seg_first + p) * page) with
      | Some (n', raddr) when n' = node && addr >= raddr && addr < raddr + page
        ->
          Some ((p * page) + (addr - raddr))
      | _ -> scan (p + 1)
  in
  scan 0

(* Writeback-race resolution: with several writers, two tenants' CL logs
   can carry entries for the same segment line, and cross-log delivery
   order is not capture order — a capacity-evicted copy lingering in one
   log could land {e after} the line's next owner already wrote back a
   newer value.  The home drops exactly those stale lines: the image is
   the coherence-ordered value sequence (every capture reads it), so a
   delivered line is stale iff its bytes no longer match.  Installed only
   in multi-writer mode — the single-publisher path never races.
   Reinstalling is harmless: the filter is a pure function of the state. *)
let enable_multi_writer e =
  let f = e.fab in
  Array.iter
    (fun rt ->
      Runtime.set_writeback_filter rt (fun ~node ~addr ~data ->
          match seg_home_off f ~node ~addr with
          | Some off ->
              Bytes.sub_string f.seg.image off (String.length data) <> data
          | None -> false))
    f.runtimes

(* Invalidate [target]'s copy of segment page [vpage] with a background
   control message from tenant [via] to the page's home node: it
   contends at that node's WFQ link like any other traffic.  [timed]
   records the recall's latency in [coherence.recall_ns]. *)
let recall e ~via ~target ~vpage ~timed =
  let f = e.fab in
  e.invalidations_sent <- e.invalidations_sent + 1;
  match
    Resource_manager.translate
      (Runtime.resource_manager f.runtimes.(0))
      ~vaddr:(vpage * page)
  with
  | Some (node, _) ->
      let rt = f.runtimes.(via) in
      let t0 = Runtime.elapsed_ns rt in
      Runtime.post_bg_message rt ~node ~len:Units.cache_line
        ~deliver:(fun () ->
          if timed then
            Histogram.add e.recall_hist (max 0 (Runtime.elapsed_ns rt - t0));
          Runtime.invalidate_page f.runtimes.(target) ~vpage)
  | None -> ()

let payload_char k = Char.chr (((k * 37) + 1) land 0xff)

(* The one path for every shared-segment access by [tenant] to segment
   line [line]; out-of-range or pre-publication accesses are ignored.
   With [msi] the line's home directory grants it, and every copy the
   grant had to kill is recalled as a background control message through
   the requester's QP — it contends at the line's home node's WFQ link,
   so ownership ping-pong shows up in completion latencies (the recalled
   holder's dirty data rides its own eviction/CL-log path, priced
   there).  Without it (the single-publisher path) a write just marks
   its writer, always tenant 0 there, as the page's sharer in the
   read-mostly directory. *)
let shared_access e ~msi ~tenant ~line ~write ~payload =
  let f = e.fab in
  if
    f.seg.pages > 0 && tenant >= 0
    && tenant < Array.length f.runtimes
    && line >= 0
    && line < f.seg.pages * Units.lines_per_page
  then begin
    if write then e.shared_writes <- e.shared_writes + 1
    else e.shared_reads <- e.shared_reads + 1;
    let off = line * Units.cache_line in
    let rt = f.runtimes.(tenant) in
    if msi then begin
      let vpage = seg_first + (line / Units.lines_per_page) in
      let g = Directory.acquire e.mw_dir ~line ~tenant ~write in
      let revoke target = recall e ~via:tenant ~target ~vpage ~timed:true in
      (match g.Directory.g_peer with
      | Some o when o <> tenant -> revoke o
      | Some _ | None -> ());
      List.iter
        (fun s -> if s <> tenant then revoke s)
        g.Directory.g_invalidated
    end;
    Option.iter (Bytes.fill f.seg.image off Units.cache_line) payload;
    let addr = shared_base + off and len = Units.cache_line in
    Runtime.sink rt
      (if write then Access.write ~addr ~len else Access.read ~addr ~len);
    if write && not msi then
      Directory.on_fill ~sharer:tenant e.rack_dir
        ~line:(line / Units.lines_per_page) ~write:true
  end

(* Shared op [k] by [tenant]: its line is the first of page
   [k mod pages], and a write stores op [k]'s payload byte. *)
let shared_op e ~msi ~tenant ~write k =
  shared_access e ~msi ~tenant
    ~line:(k mod e.fab.seg.pages * Units.lines_per_page)
    ~write
    ~payload:(if write then Some (payload_char k) else None)

(* One synthetic round past the woven ones: op ids continue where the
   weave stopped so payload bytes never repeat; [writer k] writes the
   op's line and every other tenant reads it back. *)
let round e ~msi ~writer =
  if e.fab.seg.pages > 0 then begin
    let k = e.shared_k in
    e.shared_k <- k + 1;
    let w = writer k in
    shared_op e ~msi ~tenant:w ~write:true k;
    for i = 0 to Array.length e.tenants - 1 do
      if i <> w then shared_op e ~msi ~tenant:i ~write:false k
    done
  end

let shared_round e = round e ~msi:(e.mw_w > 1) ~writer:(fun _ -> 0)

(* The writer rotates over the first [mw_w] tenants and everyone else
   reads the same line — by construction an ownership ping-pong. *)
let multi_writer_round e = round e ~msi:true ~writer:(fun k -> k mod e.mw_w)

let shared_line_write e ~tenant ~line ~payload =
  shared_access e ~msi:true ~tenant ~line ~write:true ~payload:(Some payload)

let shared_line_read e ~tenant ~line =
  shared_access e ~msi:true ~tenant ~line ~write:false ~payload:None

(* -------- placement feed: heat and fetch attribution -------- *)

let heat_table f i ~vpage =
  if in_seg_range f.seg vpage then f.seg_heats.(i) else f.heats.(i)

(* Demand fetches heat the page, count toward the tier hit ratios, and
   register the fetching tenant as a sharer of a segment page. *)
let on_fetch e i ~vpage =
  let f = e.fab in
  let rt = f.runtimes.(i) in
  let now = Runtime.elapsed_ns rt in
  let heat = heat_table f i ~vpage in
  Heat.touch heat ~vpage ~weight:2 ~now;
  e.fetch_total <- e.fetch_total + 1;
  let hot = Heat.heat heat ~vpage ~now >= f.cfg.hot_threshold in
  if hot then e.hot_total <- e.hot_total + 1;
  (match
     Resource_manager.translate (Runtime.resource_manager rt)
       ~vaddr:(vpage * page)
   with
  | Some (node, _) when node < f.cfg.fast_nodes ->
      e.fetch_fast <- e.fetch_fast + 1;
      if hot then e.hot_fast <- e.hot_fast + 1
  | _ -> ());
  if in_seg f.seg vpage then begin
    e.sharer_fills <- e.sharer_fills + 1;
    Directory.on_fill ~sharer:i e.rack_dir ~line:(vpage - seg_first)
      ~write:false
  end

(* The publisher's dirty evictions recall every remote reader; the
   recall is priced as a background control message that contends at the
   page's home node. *)
let on_evict e i ~vpage ~dirty =
  let f = e.fab in
  Heat.touch (heat_table f i ~vpage) ~vpage ~weight:1
    ~now:(Runtime.elapsed_ns f.runtimes.(i));
  if i = 0 && dirty && in_seg f.seg vpage then
    List.iter
      (fun s ->
        if s <> 0 then recall e ~via:0 ~target:s ~vpage ~timed:false)
      (Directory.snoop_sharers e.rack_dir ~line:(vpage - seg_first))

(* -------- rack ops: add / drain / rebalance -------- *)

let exec_add e ~capacity =
  let f = e.fab in
  (* an add past the last pre-created WFQ slot is refused *)
  if f.node_count < Array.length f.wfq then begin
    let id = f.node_count in
    Rack_controller.register_node f.controller
      (Memory_node.create ~id ~capacity);
    f.node_count <- id + 1;
    (* [id] is disjoint from failover's fresh-mirror ids (minted via
       [Rack_controller.mint_backing_id]); the membership authority
       starts leasing the new node immediately *)
    Runtime.track_node f.runtimes.(0) ~id
  end

(* Most-free live non-draining node (node_infos ascending: ties break
   toward the lower id). *)
let choose_rehome f =
  List.fold_left
    (fun best ni ->
      let open Placement_policy in
      if ni.ni_draining || ni.ni_free < page then best
      else
        match best with
        | Some b when ni.ni_free <= b.ni_free -> best
        | _ -> Some ni)
    None (node_infos f)

(* Re-home one drain victim now, unless it was already moved out from
   under us (migration or an earlier overlapping drain) — then it is
   neither a drained page nor a failure. *)
let drain_one e ~now id (_, vpage, addr) =
  let f = e.fab in
  let homed_here rt =
    match
      Resource_manager.translate (Runtime.resource_manager rt)
        ~vaddr:(vpage * page)
    with
    | Some (node', addr') -> node' = id && addr' = addr
    | None -> false
  in
  if Array.exists homed_here f.runtimes then
    let moved =
      Option.bind (read_page_bytes f ~node:id ~addr) (fun data ->
          Option.bind (choose_rehome f) (fun ni ->
              let dst = ni.Placement_policy.ni_node in
              Option.map (fun a -> (dst, a)) (place_page f ~dst ~data)))
    in
    match moved with
    | None -> e.drain_failures <- e.drain_failures + 1
    | Some (dst, dst_addr) ->
        (* retarget the owner and every foreign mapping that still points
           at the drained copy *)
        Array.iter
          (fun rt ->
            if homed_here rt then
              Resource_manager.remap_page (Runtime.resource_manager rt) ~vpage
                ~node:dst ~remote_addr:dst_addr)
          f.runtimes;
        e.drained_pages <- e.drained_pages + 1;
        ignore (charge f ~node:id ~bytes:page ~now);
        ignore (charge f ~node:dst ~bytes:page ~now)

let drain_pages_per_step = 16

let exec_drain e id =
  let f = e.fab in
  let name = Printf.sprintf "drain:%d" id in
  (* an overlapping drain of the same node would double-move the pages
     the pending task hasn't reached yet *)
  if not (List.mem name (Recovery.pending e.recovery)) then begin
    Rack_controller.set_draining f.controller ~id true;
    flush_all f;
    (* Every owned page still homed on the node; a crashed-and-failed-
       over node drains from its promoted mirror (the controller's
       backing for [id]), or any live replica.  Victims are frozen now;
       each step revalidates its batch against the live translations. *)
    let victims = ref [] in
    Array.iteri
      (fun i rt ->
        Resource_manager.iter_backed_pages (Runtime.resource_manager rt)
          (fun ~vpage ~node ~remote_addr ->
            if node = id then victims := (i, vpage, remote_addr) :: !victims))
      f.runtimes;
    let todo = ref (List.sort compare !victims) in
    let rec batch ~now k =
      match !todo with
      | v :: rest when k > 0 ->
          todo := rest;
          drain_one e ~now id v;
          batch ~now (k - 1)
      | _ -> ()
    in
    ignore
      (Recovery.enqueue e.recovery ~name (fun ~now ->
           if !todo = [] then `Done
           else if
             (* the drained node is inside a partition window: its pages
                are unreadable until the links heal, so the task parks
                (resumable, not failed) — [finish] lifts the block along
                with the runtimes' own deferred-delivery flush *)
             (not e.partitions_over)
             && Runtime.partition_active f.runtimes.(0) ~id
           then `Again
           else begin
             (* fence before copying: lines staged since the previous step
                (slices interleave with drain) still target the old home —
                ship them so the batch reads fresh bytes, while evictions
                of already-re-homed pages translate to the new home on
                their own *)
             flush_all f;
             batch ~now drain_pages_per_step;
             if !todo = [] then `Done else `Again
           end))
  end

let exec_rebalance e ~now =
  let f = e.fab in
  flush_all f;
  let balance = Placement_policy.centralized () in
  List.iter
    (fun mv ->
      match move_page f mv with
      | None -> e.op_failed <- e.op_failed + 1
      | Some src ->
          e.op_moves <- e.op_moves + 1;
          ignore (charge f ~node:src ~bytes:page ~now);
          ignore (charge f ~node:mv.Placement_policy.mv_dst ~bytes:page ~now))
    (balance.Placement_policy.plan ~nodes:(node_infos f)
       ~pages:(page_infos f ~now) ~budget:f.cfg.migrate_budget)

let exec_op e ~now = function
  | Rack_ops.Add_node { capacity } ->
      exec_add e
        ~capacity:(Option.value capacity ~default:e.fab.cfg.node_capacity)
  | Rack_ops.Drain { id } -> exec_drain e id
  | Rack_ops.Rebalance -> exec_rebalance e ~now

(* The calendar counts every due op as applied, even an add that
   [exec_add] refuses. *)
let fire_ops e ~now =
  if e.pending_ops <> [] then begin
    let due, rest =
      List.partition (fun c -> c.Rack_ops.at_ns <= now) e.pending_ops
    in
    e.pending_ops <- rest;
    List.iter
      (fun c ->
        e.ops_applied <- e.ops_applied + 1;
        exec_op e ~now c.Rack_ops.op)
      due
  end

(* The rack's virtual time: max over the tenants' clocks. *)
let now_ns e =
  Array.fold_left (fun a rt -> max a (Runtime.elapsed_ns rt)) 0 e.fab.runtimes

(* Immediate application for the scenario engine, at the rack's current
   virtual time.  Invalid targets (unknown drain id, add past the last
   WFQ slot) are refused and not counted, so randomly generated
   sequences stay total. *)
let apply_op e op =
  let f = e.fab in
  let valid =
    match op with
    | Rack_ops.Add_node _ -> f.node_count < Array.length f.wfq
    | Rack_ops.Drain { id } -> id >= 0 && id < f.node_count
    | Rack_ops.Rebalance -> true
  in
  if valid then begin
    e.ops_applied <- e.ops_applied + 1;
    exec_op e ~now:(now_ns e) op
  end

(* -------- deterministic interleaved replay -------- *)

let exec_step e i = function
  | App ev -> Runtime.sink e.fab.runtimes.(i) ev
  | Shared_write k -> shared_op e ~msi:(e.mw_w > 1) ~tenant:i ~write:true k
  | Shared_read k -> shared_op e ~msi:(e.mw_w > 1) ~tenant:i ~write:false k

(* One bounded step of the rack's drain queue and of every tenant's
   failover/re-replication queue. *)
let recover e ~now =
  ignore (Recovery.step e.recovery ~now);
  Array.iter (fun rt -> ignore (Runtime.step_recovery rt)) e.fab.runtimes

(* One scheduling slice: step the tenant whose virtual clock is furthest
   behind for up to one quantum, then fire due rack ops and tick the
   migrator on that tenant's clock — fully deterministic.  Returns the
   number of accesses consumed; 0 = replay exhausted. *)
let step e =
  let runtimes = e.fab.runtimes in
  let best = ref (-1) in
  Array.iteri
    (fun i rt ->
      if
        e.pos.(i) < Array.length e.steps.(i)
        && (!best < 0
           || Runtime.elapsed_ns rt < Runtime.elapsed_ns runtimes.(!best))
      then best := i)
    runtimes;
  if !best < 0 then 0
  else begin
    let i = !best in
    let trace = e.steps.(i) in
    let consumed = ref 0 in
    while !consumed < e.fab.cfg.quantum && e.pos.(i) < Array.length trace do
      exec_step e i trace.(e.pos.(i));
      e.pos.(i) <- e.pos.(i) + 1;
      incr consumed
    done;
    let now = Runtime.elapsed_ns runtimes.(i) in
    fire_ops e ~now;
    Migrator.tick e.migrator ~now;
    (* recovery progresses even for tenants whose replay is already
       exhausted (their own fault polls have stopped) *)
    recover e ~now;
    !consumed
  end

(* -------- results -------- *)

let wfq_sum e ~tenant stat =
  Array.fold_left (fun a w -> a + stat (Wfq.tenant_stats w ~tenant)) 0 e.fab.wfq

let permille num den = if den = 0 then 0 else num * 1000 / den
let migrations e = Migrator.migrations e.migrator + e.op_moves

let bytes_moved e =
  Migrator.bytes_moved e.migrator + ((e.op_moves + e.drained_pages) * page)

let failed_moves e = Migrator.failed e.migrator + e.op_failed

(* permille of demand fetches served by the slow tier — the number the
   heat policy exists to push down *)
let remote_hit_pml e = permille (e.fetch_total - e.fetch_fast) e.fetch_total
let hot_hit_pml e = permille e.hot_fast e.hot_total

(* Per-tenant divergence oracle: after the drains, remote memory must
   equal the tenant's view on every backed private page and segment
   page. *)
let tenant_result e i =
  let f = e.fab in
  let tc = e.tenants.(i) in
  let rt = f.runtimes.(i) in
  let heap = e.heaps.(i) in
  let unrepairable = Runtime.unrepairable_pages rt in
  let mismatches = ref 0 and lost = ref 0 in
  Resource_manager.iter_backed_pages (Runtime.resource_manager rt)
    (fun ~vpage ~node ~remote_addr ->
      let base = vpage * page in
      let private_page =
        base + page <= Heap.capacity heap
        && not (Heap.page_poked heap ~page:vpage)
      in
      if
        (private_page || in_seg f.seg vpage)
        && not (List.mem vpage unrepairable)
      then
        match
          Memory_node.peek
            (Rack_controller.node f.controller ~id:node)
            ~addr:remote_addr ~len:page
        with
        | remote ->
            if remote <> read_local f.seg heap ~addr:base ~len:page then
              incr mismatches
        | exception Memory_node.Crashed _ -> incr lost);
  let contended_bytes = wfq_sum e ~tenant:i (fun s -> s.Wfq.contended_bytes) in
  let contended_ns = wfq_sum e ~tenant:i (fun s -> s.Wfq.contended_ns) in
  let snap =
    Registry.snapshot
      (Registry.scoped (Hub.registry e.hub)
         ~prefix:(Printf.sprintf "tenant.%d." i))
  in
  {
    t_cfg = tc;
    t_accesses = Array.length e.steps.(i);
    t_app_ns = Runtime.app_ns rt;
    t_bg_ns = Runtime.bg_ns rt;
    t_elapsed_ns = Runtime.elapsed_ns rt;
    t_admitted_bytes = wfq_sum e ~tenant:i (fun s -> s.Wfq.bytes);
    t_contended_bytes = contended_bytes;
    t_delay_ns = wfq_sum e ~tenant:i (fun s -> s.Wfq.delay_ns);
    t_achieved_gbps =
      (if contended_ns = 0 then 0.0
       else 8.0 *. float_of_int contended_bytes /. float_of_int contended_ns);
    t_invalidations = Runtime.invalidations_received rt;
    t_mismatches = !mismatches;
    t_lost_pages = !lost;
    t_degraded = Runtime.degraded rt;
    t_fingerprint = Json.to_string (Snapshot.to_json snap);
    t_snapshot = snap;
  }

let finish e =
  match e.finished with
  | Some r -> r
  | None ->
      let f = e.fab in
      (* every partition window is over by msync time: the runtimes'
         drains flush their deferred deliveries, and the rack drain tasks
         stop parking on partitioned sources *)
      e.partitions_over <- true;
      Array.iter Runtime.drain f.runtimes;
      (* ops scheduled past the last replayed access still run (a drain
         must re-home its pages no matter how short the workload was) *)
      fire_ops e ~now:max_int;
      (* pump the rack recovery queue dry: a drain interrupted by a crash
         or partition mid-run completes here, after the fault *)
      let now = now_ns e in
      while Recovery.step e.recovery ~now <> `Idle do
        ()
      done;
      let r_tenants = Array.init (Array.length e.tenants) (tenant_result e) in
      let r =
        {
          r_tenants;
          r_elapsed_ns =
            Array.fold_left (fun a r -> max a r.t_elapsed_ns) 0 r_tenants;
          r_total_admits =
            Array.fold_left (fun a w -> a + Wfq.total_admits w) 0 f.wfq;
          r_saturated_admits =
            Array.fold_left (fun a w -> a + Wfq.saturated_admits w) 0 f.wfq;
          r_snoops = Directory.snoops e.rack_dir;
          r_invalidations_sent = e.invalidations_sent;
          r_shared_writes = e.shared_writes;
          r_shared_reads = e.shared_reads;
          r_handoffs = Directory.handoffs e.mw_dir;
          r_owner_changes = Directory.owner_changes e.mw_dir;
          r_coh_invalidations = Directory.invalidations e.mw_dir;
          r_node_crashes =
            Array.fold_left
              (fun a rt -> a + Runtime.node_crashes rt)
              0 f.runtimes;
          r_policy = (Migrator.policy e.migrator).Placement_policy.name;
          r_migrations = migrations e;
          r_bytes_moved = bytes_moved e;
          r_failed_moves = failed_moves e;
          r_migrator_delay_ns = Migrator.charged_ns e.migrator;
          r_fetches = e.fetch_total;
          r_fetches_fast = e.fetch_fast;
          r_remote_hit_pml = remote_hit_pml e;
          r_hot_hit_pml = hot_hit_pml e;
          r_drained_pages = e.drained_pages;
          r_drain_failures = e.drain_failures;
          r_ops_applied = e.ops_applied;
          r_snapshot = Hub.snapshot e.hub;
        }
      in
      e.finished <- Some r;
      r

(* -------- engine construction -------- *)

(* Weave the synthetic shared ops into each tenant's recorded trace: op
   [k] lands every [len / shared_ops] accesses, written by tenant
   [k mod mw_w] and read by the others — with one writer exactly the
   historical publisher/reader weave. *)
let weave cfg ~mw_w traces =
  let n = Array.length traces in
  Array.mapi
    (fun i trace ->
      let len = Array.length trace in
      if cfg.shared_pages = 0 || cfg.shared_ops = 0 || len = 0 || n < 2 then
        Array.map (fun e -> App e) trace
      else begin
        let stride = max 1 (len / cfg.shared_ops) in
        let out = ref [] and k = ref 0 in
        Array.iteri
          (fun j e ->
            out := App e :: !out;
            if (j + 1) mod stride = 0 && !k < cfg.shared_ops then begin
              out :=
                (if !k mod mw_w = i then Shared_write !k else Shared_read !k)
                :: !out;
              incr k
            end)
          trace;
        Array.of_list (List.rev !out)
      end)
    traces

let register_telemetry e =
  let reg = Hub.registry e.hub in
  Array.iteri
    (fun j w ->
      let labels = [ ("node", string_of_int j) ] in
      Registry.counter_fn reg ~labels "rack.node.admits" (fun () ->
          Wfq.total_admits w);
      Registry.counter_fn reg ~labels "rack.node.saturated_admits" (fun () ->
          Wfq.saturated_admits w);
      Registry.gauge_fn reg ~labels "rack.node.peak_backlog_ns" (fun () ->
          Wfq.peak_backlog_ns w))
    e.fab.wfq;
  Array.iteri
    (fun i tc ->
      let labels = [ ("tenant", tc.name) ] in
      let sum stat () = wfq_sum e ~tenant:i stat in
      Registry.gauge_fn reg ~labels "rack.tenant.bw_share" (fun () ->
          tc.bw_share);
      Registry.counter_fn reg ~labels "rack.tenant.bytes"
        (sum (fun s -> s.Wfq.bytes));
      Registry.counter_fn reg ~labels "rack.tenant.contended_bytes"
        (sum (fun s -> s.Wfq.contended_bytes));
      Registry.counter_fn reg ~labels "rack.tenant.delay_ns"
        (sum (fun s -> s.Wfq.delay_ns)))
    e.tenants;
  Registry.counter_fn reg "rack.dir.fills" (fun () ->
      Directory.fills e.rack_dir);
  Registry.counter_fn reg "rack.dir.snoops" (fun () ->
      Directory.snoops e.rack_dir);
  Registry.counter_fn reg "rack.sharer_fills" (fun () -> e.sharer_fills);
  Registry.counter_fn reg "rack.invalidations_sent" (fun () ->
      e.invalidations_sent);
  Registry.counter_fn reg "rack.shared.writes" (fun () -> e.shared_writes);
  Registry.counter_fn reg "rack.shared.reads" (fun () -> e.shared_reads);
  Registry.counter_fn reg "coherence.handoffs" (fun () ->
      Directory.handoffs e.mw_dir);
  Registry.counter_fn reg "coherence.invalidations" (fun () ->
      Directory.invalidations e.mw_dir);
  Registry.counter_fn reg "coherence.owner_changes" (fun () ->
      Directory.owner_changes e.mw_dir);
  Registry.histogram_ref reg "coherence.recall_ns" e.recall_hist;
  Registry.counter_fn reg "placement.migrations" (fun () -> migrations e);
  Registry.counter_fn reg "placement.bytes_moved" (fun () -> bytes_moved e);
  Registry.counter_fn reg "placement.failed_moves" (fun () -> failed_moves e);
  Registry.counter_fn reg "placement.remaps" (fun () ->
      Array.fold_left
        (fun a rt -> a + Resource_manager.remaps (Runtime.resource_manager rt))
        0 e.fab.runtimes);
  Registry.counter_fn reg "placement.fetches" (fun () -> e.fetch_total);
  Registry.counter_fn reg "placement.fetches_fast" (fun () -> e.fetch_fast);
  Registry.gauge_fn reg "placement.remote_hit_ratio" (fun () ->
      remote_hit_pml e);
  Registry.gauge_fn reg "placement.hot_hit_ratio" (fun () -> hot_hit_pml e);
  Registry.counter_fn reg "placement.drained_pages" (fun () -> e.drained_pages);
  Registry.counter_fn reg "placement.drain_failures" (fun () ->
      e.drain_failures);
  Registry.counter_fn reg "placement.ops_applied" (fun () -> e.ops_applied)

let start cfg tenants =
  let planned_nodes =
    cfg.nodes
    + List.length
        (List.filter
           (fun c ->
             match c.Rack_ops.op with Rack_ops.Add_node _ -> true | _ -> false)
           cfg.ops)
  in
  validate cfg tenants ~planned_nodes;
  let tenants = Array.of_list tenants in
  let n = Array.length tenants in
  let controller = Rack_controller.create ~slab_size () in
  for id = 0 to cfg.nodes - 1 do
    Rack_controller.register_node controller
      (Memory_node.create ~id ~capacity:cfg.node_capacity)
  done;
  Array.iter
    (fun tc ->
      match tc.mem_quota with
      | Some bytes ->
          Rack_controller.set_quota controller ~tenant:tc.name ~bytes
      | None -> ())
    tenants;
  (* The migrator is an extra WFQ weight slot (index [n]) at every node:
     its copies queue behind tenant traffic and tenant traffic queues
     behind its copies.  Idle slots never back-log, so a policy that
     never migrates leaves the schedule bit-identical. *)
  let weights =
    Array.append
      (Array.map (fun tc -> tc.bw_share) tenants)
      [| cfg.migrate_share |]
  in
  (* Nodes added by ops get ids [cfg.nodes ..]; their schedulers exist
     from the start (idle until registration). *)
  let wfq =
    Array.init
      (planned_nodes + max 0 cfg.extra_node_slots)
      (fun _ -> Wfq.create ~gbps:cfg.node_gbps ~weights)
  in
  let hub = Hub.create () in
  (* record every tenant's workload against its own heap *)
  let recorded =
    Array.map
      (fun tc ->
        let spec = Workloads.find tc.workload in
        let acc = ref [] in
        let heap =
          Heap.create
            ~capacity:(spec.Workloads.heap_capacity cfg.scale)
            ~sink:(fun ev -> acc := ev :: !acc)
            ()
        in
        spec.Workloads.run cfg.scale ~heap ~seed:tc.seed;
        (heap, Array.of_list (List.rev !acc)))
      tenants
  in
  let heaps = Array.map fst recorded in
  let seg = { pages = 0; image = Bytes.empty } in
  let replication =
    if cfg.replicas > 0 then
      Some (Replication.create ~degree:cfg.replicas ~controller)
    else None
  in
  let runtimes =
    Array.init n (fun i ->
        let config =
          {
            cfg.runtime with
            Runtime.tenant = Some tenants.(i).name;
            stream_base = i * 1024;
            replicas = cfg.replicas;
            faults = (if i = 0 then cfg.faults else []);
            fault_seed = cfg.fault_seed;
            (* Exactly one membership authority per rack: tenant 0 leases
               the nodes and triggers failover; the others learn of it
               through the fencing-epoch broadcast below.  Two detectors
               would race to promote different mirrors for one slot. *)
            heartbeat_ns =
              (if i = 0 then cfg.runtime.Runtime.heartbeat_ns else None);
          }
        in
        Runtime.create ~config
          ~hub:(Hub.scoped hub ~prefix:(Printf.sprintf "tenant.%d." i))
          ~arbitrate:(arbitrate cfg wfq ~tenant:i)
          ?replication ~controller
          ~read_local:(read_local seg heaps.(i))
          ())
  in
  let fab =
    {
      cfg;
      controller;
      replication;
      runtimes;
      wfq;
      heats =
        Array.init n (fun _ -> Heat.create ~epoch_ns:cfg.migrate_epoch_ns);
      seg_heats =
        Array.init n (fun _ -> Heat.create ~epoch_ns:cfg.migrate_epoch_ns);
      seg;
      node_count = cfg.nodes;
    }
  in
  let placement =
    match cfg.policy with
    | "heat" -> Placement_policy.heat_aware ~hot_threshold:cfg.hot_threshold ()
    | name -> Placement_policy.find name
  in
  let mw_w = max 1 (min n cfg.shared_writers) in
  let steps = weave cfg ~mw_w (Array.map snd recorded) in
  let e =
    {
      fab;
      tenants;
      heaps;
      weights;
      hub;
      migrator =
        Migrator.create ~policy:placement ~epoch_ns:cfg.migrate_epoch_ns
          ~budget:cfg.migrate_budget ~page_bytes:page
          {
            Migrator.nodes = (fun () -> node_infos fab);
            pages = page_infos fab;
            flush_logs = (fun () -> flush_all fab);
            move_page = move_page fab;
            charge = charge fab;
          };
      recovery = Recovery.create ();
      partitions_over = false;
      rack_dir = Directory.create ();
      mw_dir = Directory.create ();
      mw_w;
      recall_hist = Histogram.create ();
      shared_k = cfg.shared_ops;
      invalidations_sent = 0;
      shared_writes = 0;
      shared_reads = 0;
      sharer_fills = 0;
      fetch_total = 0;
      fetch_fast = 0;
      hot_total = 0;
      hot_fast = 0;
      pending_ops =
        List.stable_sort
          (fun a b -> compare a.Rack_ops.at_ns b.Rack_ops.at_ns)
          cfg.ops;
      op_moves = 0;
      op_failed = 0;
      drained_pages = 0;
      drain_failures = 0;
      ops_applied = 0;
      steps;
      pos = Array.make n 0;
      finished = None;
    }
  in
  Rack_controller.set_placement controller (fun ~vaddr:_ ~tenant ->
      let ti =
        Option.bind tenant (fun name ->
            Array.find_index (fun tc -> tc.name = name) tenants)
      in
      placement.Placement_policy.choose_node ~nodes:(node_infos fab)
        ~tenant:(Option.value ti ~default:0));
  (* A fencing epoch minted by any tenant's failover is rack-global: every
     tenant's CL-log sender must restamp at the new epoch, or its next
     flush to the displaced store would be applied rather than rejected.
     Adoption is a monotone no-op on the minter itself. *)
  Array.iter
    (fun rt ->
      Runtime.set_on_fence rt (fun ~epoch ->
          Array.iter
            (fun rt' -> Runtime.adopt_fencing_epoch rt' ~epoch)
            runtimes))
    runtimes;
  if cfg.shared_pages > 0 then publish e ~pages:cfg.shared_pages;
  if mw_w > 1 then enable_multi_writer e;
  Array.iteri
    (fun i rt ->
      Runtime.set_on_fetch rt (on_fetch e i);
      Runtime.set_on_evict rt (on_evict e i))
    runtimes;
  register_telemetry e;
  e

(* -------- scenario adapters and invariant accessors -------- *)

let force_migration e = Migrator.force e.migrator ~now:(now_ns e)
let migration_feed e ~now = page_infos e.fab ~now
let private_heat e ~tenant = e.fab.heats.(tenant)
let flush_logs e = flush_all e.fab

(* The single-owner-per-line invariant: the MSI home table must be
   internally coherent and never grant ownership to a non-tenant. *)
let coherence_audit e =
  let n = Array.length e.tenants in
  let bad = ref (Directory.audit e.mw_dir) in
  for line = 0 to (e.fab.seg.pages * Units.lines_per_page) - 1 do
    match Directory.owner e.mw_dir ~line with
    | Some o when o < 0 || o >= n ->
        bad := Printf.sprintf "line %d: owner %d is not a tenant" line o :: !bad
    | _ -> ()
  done;
  List.sort compare !bad

(* readers-observe-last-write: after draining, every readable shared
   page's remote bytes must equal the last-writer-wins image (maintained
   under the deterministic replay's total order).  Pages made
   unrepairable by an armed bit-flip, or homed on a crashed node with no
   live copy, are the integrity/fault oracles' business, not this one's. *)
let shared_divergence e =
  let f = e.fab in
  if f.seg.pages = 0 then 0
  else begin
    let unrepairable =
      Array.fold_left
        (fun acc rt -> Runtime.unrepairable_pages rt @ acc)
        [] f.runtimes
    in
    let rm0 = Runtime.resource_manager f.runtimes.(0) in
    let bad = ref 0 in
    for p = 0 to f.seg.pages - 1 do
      let vpage = seg_first + p in
      if not (List.mem vpage unrepairable) then
        match Resource_manager.translate rm0 ~vaddr:(vpage * page) with
        | None -> ()
        | Some (node, addr) -> (
            match
              Memory_node.peek
                (Rack_controller.node f.controller ~id:node)
                ~addr ~len:page
            with
            | remote ->
                if remote <> Bytes.sub_string f.seg.image (p * page) page then
                  incr bad
            | exception Memory_node.Crashed _ -> ())
    done;
    !bad
  end

let shared_owner e ~line = Directory.owner e.mw_dir ~line
let shared_handoffs e = Directory.handoffs e.mw_dir
let shared_invalidations e = Directory.invalidations e.mw_dir
let tenant_count e = Array.length e.tenants
let tenant_cfgs e = e.tenants
let runtime e ~tenant = e.fab.runtimes.(tenant)
let controller e = e.fab.controller
let node_count e = e.fab.node_count
let fast_node_count e = e.fab.cfg.fast_nodes
let drain_failures e = e.drain_failures

let crash_node e ~id =
  (* The crash rides tenant 0's runtime (same as fault plans): fail-stop
     is rack-global through the shared controller, and tenant 0 runs the
     failover control exchange.  The other tenants' translations retarget
     lazily through the controller's promoted backing. *)
  if id >= 0 && id < e.fab.node_count then
    Runtime.crash_node e.fab.runtimes.(0) ~id

let arm_fault e clause = Runtime.arm_fault e.fab.runtimes.(0) clause

(* Arm [clause at_ns] on every tenant, at each tenant's own clock. *)
let arm_everywhere e clause =
  Array.iter
    (fun rt -> Runtime.arm_fault rt (clause (Runtime.elapsed_ns rt)))
    e.fab.runtimes

(* Every tenant owns a NIC port; a rack-level flap outages them all. *)
let flap_links e ~dur_ns =
  arm_everywhere e (fun at_ns ->
      Kona_faults.Fault_spec.Link_flap { at_ns; dur_ns })

let partition_nodes e ~dur_ns ~ids =
  (* An asymmetric partition cuts the listed nodes' links to the whole
     rack: every tenant opens its own deferral window (CL-log deliveries
     to those nodes park with their stamps intact), and tenant 0's
     membership detector stops hearing their heartbeats — the nodes stay
     healthy throughout, unlike a crash. *)
  if dur_ns > 0 && ids <> [] then
    arm_everywhere e (fun at_ns ->
        Kona_faults.Fault_spec.Partition { at_ns; dur_ns; ids })

let recovery_pending e =
  Recovery.pending e.recovery
  @ List.concat_map Runtime.recovery_pending (Array.to_list e.fab.runtimes)

let recovery_idle e = recovery_pending e = []
let step_recovery e = recover e ~now:(now_ns e)
let force_scrub e = Array.iter Runtime.force_scrub e.fab.runtimes

let set_tenant_quota e ~tenant ~bytes =
  if tenant >= 0 && tenant < Array.length e.tenants then
    Rack_controller.set_quota e.fab.controller
      ~tenant:e.tenants.(tenant).name ~bytes

let tenant_used e ~tenant =
  if tenant >= 0 && tenant < Array.length e.tenants then
    Rack_controller.tenant_used e.fab.controller ~tenant:e.tenants.(tenant).name
  else 0

let run cfg tenants =
  let e = start cfg tenants in
  while step e > 0 do
    ()
  done;
  finish e
