open Kona_util
module Fmem = Kona_coherence.Fmem
module Qp = Kona_rdma.Qp
module Tracer = Kona_telemetry.Tracer

type t = {
  cost : Cost_model.t;
  mce_threshold_ns : int option;
  fmem : Fmem.t;
  rm : Resource_manager.t;
  fetch_qp : Qp.t;
  prefetch_qp : Qp.t option;
  tracer : Tracer.t option;
  mutable prefetcher : Prefetcher.t option;
  prefetched : (int, unit) Hashtbl.t; (* prefetched, not yet demanded *)
  on_victim : vpage:int -> dirty:Bitmap.t -> unit;
  mutable on_fetch_verify : (vpage:int -> unit) option;
  mutable on_fetch : (vpage:int -> unit) option;
  mutable fmem_hits : int;
  mutable fmem_misses : int;
  mutable pages_fetched : int;
  mutable bytes_fetched : int;
  mutable mce_raised : int;
  mutable prefetch_useful : int;
  fetch_latency : Histogram.t;
}

(* A page leaving FMem must also leave the prefetch bookkeeping, or the
   prefetcher would never re-request it and [prefetched] would grow without
   bound. *)
let note_victim t (victim : Fmem.victim) =
  (match t.prefetcher with
  | Some p -> Prefetcher.forget p ~vpage:victim.Fmem.vpage
  | None -> ());
  Hashtbl.remove t.prefetched victim.Fmem.vpage;
  t.on_victim ~vpage:victim.Fmem.vpage ~dirty:victim.Fmem.dirty_lines

let create ~cost ?mce_threshold_ns ?prefetch_qp ?tracer ~fmem ~rm ~fetch_qp ~on_victim () =
  let t =
    {
      cost;
      mce_threshold_ns;
      fmem;
      rm;
      fetch_qp;
      prefetch_qp;
      tracer;
      prefetcher = None;
      prefetched = Hashtbl.create 64;
      on_victim;
      on_fetch_verify = None;
      on_fetch = None;
      fmem_hits = 0;
      fmem_misses = 0;
      pages_fetched = 0;
      bytes_fetched = 0;
      mce_raised = 0;
      prefetch_useful = 0;
      fetch_latency = Histogram.create ();
    }
  in
  (match prefetch_qp with
  | Some qp ->
      let on_prefetch ~vpage =
        if not (Fmem.lookup t.fmem ~vpage) then begin
          Resource_manager.ensure_backed t.rm ~addr:(vpage * Units.page_size)
            ~len:Units.page_size;
          let node =
            Option.map fst
              (Resource_manager.translate t.rm ~vaddr:(vpage * Units.page_size))
          in
          (* Asynchronous: posted on the background queue pair; the demand
             stream never waits for it. *)
          Qp.post qp [ Qp.wqe ?node Qp.Read ~len:Units.page_size ];
          t.bytes_fetched <- t.bytes_fetched + Units.page_size;
          Hashtbl.replace t.prefetched vpage ();
          match Fmem.insert t.fmem ~vpage with
          | None -> ()
          | Some victim -> note_victim t victim
        end
      in
      t.prefetcher <- Some (Prefetcher.create ~on_prefetch ())
  | None -> ());
  t

let app_clock t = Qp.clock t.fetch_qp

let fetch_page t ~vpage =
  (* The remote read is demand-synchronous: post and wait on the app clock.
     Data is already locally visible in our emulation (the application heap
     is the single store), so only timing and accounting flow here. *)
  Resource_manager.ensure_backed t.rm ~addr:(vpage * Units.page_size) ~len:Units.page_size;
  let node =
    Option.map fst
      (Resource_manager.translate t.rm ~vaddr:(vpage * Units.page_size))
  in
  let before = Clock.now (app_clock t) in
  let wqe = Qp.wqe ~signaled:true ?node Qp.Read ~len:Units.page_size in
  Qp.post t.fetch_qp [ wqe ];
  Qp.wait_idle t.fetch_qp;
  let wait_ns = Clock.now (app_clock t) - before in
  Histogram.add t.fetch_latency wait_ns;
  (match t.tracer with
  | Some tr -> Tracer.span tr "fetch.page" ~dur_ns:wait_ns ~args:[ ("vpage", vpage) ]
  | None -> ());
  (match t.mce_threshold_ns with
  | Some threshold when wait_ns > threshold ->
      (* The coherence protocol timed out waiting for the response: the CPU
         raises a machine check; recovery re-arms the line request. *)
      t.mce_raised <- t.mce_raised + 1;
      (match t.tracer with
      | Some tr ->
          Tracer.instant tr "fetch.mce"
            ~args:[ ("vpage", vpage); ("wait_ns", wait_ns) ]
      | None -> ());
      Clock.advance (app_clock t) t.cost.Cost_model.mce_recovery_ns
  | Some _ | None -> ());
  t.pages_fetched <- t.pages_fetched + 1;
  t.bytes_fetched <- t.bytes_fetched + Units.page_size;
  (* Integrity hook: stale-read detection and on-fetch checksum
     verification run against the remote image the fetch just read. *)
  (match t.on_fetch_verify with Some f -> f ~vpage | None -> ());
  (match t.on_fetch with Some f -> f ~vpage | None -> ());
  match Fmem.insert t.fmem ~vpage with
  | None -> ()
  | Some victim -> note_victim t victim

let set_on_fetch_verify t f = t.on_fetch_verify <- Some f
let set_on_fetch t f = t.on_fetch <- Some f

let on_fill t ~addr =
  let vpage = Units.page_of_addr addr in
  if Fmem.lookup t.fmem ~vpage then begin
    t.fmem_hits <- t.fmem_hits + 1;
    if Hashtbl.mem t.prefetched vpage then begin
      t.prefetch_useful <- t.prefetch_useful + 1;
      Hashtbl.remove t.prefetched vpage
    end;
    Clock.advance (app_clock t) (int_of_float t.cost.Cost_model.fmem_ns)
  end
  else begin
    t.fmem_misses <- t.fmem_misses + 1;
    (match t.prefetcher with
    | Some p -> Prefetcher.observe_miss p ~vpage
    | None -> ());
    (* Always a miss (the prefetcher never targets [vpage] itself); the
       lookup stays because FMem's exported per-set miss counts include it. *)
    if not (Fmem.lookup t.fmem ~vpage) then fetch_page t ~vpage;
    Clock.advance (app_clock t) (int_of_float t.cost.Cost_model.fmem_ns)
  end

let mce_raised t = t.mce_raised
let prefetches_issued t =
  match t.prefetcher with Some p -> Prefetcher.issued p | None -> 0

let prefetches_useful t = t.prefetch_useful
let fetch_latency t = t.fetch_latency
let fmem_hits t = t.fmem_hits
let fmem_misses t = t.fmem_misses
let pages_fetched t = t.pages_fetched
let bytes_fetched t = t.bytes_fetched
