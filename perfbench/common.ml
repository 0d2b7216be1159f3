(* Shared plumbing: the clock, the correctness ledger, determinism
   fingerprints, and the node/oracle helpers every workload uses. *)

open Kona
module Heap = Kona_workloads.Heap
module Histogram = Kona_util.Histogram
module Snapshot = Kona_telemetry.Snapshot
module Units = Kona_util.Units

let now = Hostspeed.now
let page = Units.page_size

(* Time [f ()] in host seconds. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* The last step of every set-up: a full major collection, so the GC work
   that set-up's large allocations (node stores, heaps) owe is paid inside
   set-up and not at random in the first slices of the timed loop. *)
let settle () = Gc.full_major ()

(* ---- correctness ledger ---- *)

let attempted = ref 0
let failed = ref 0

(* Record [n] checks of which [bad] failed; failures are reported on
   stdout with [what]. *)
let check ?(n = 1) ~bad what =
  attempted := !attempted + n;
  if bad > 0 then begin
    failed := !failed + bad;
    Printf.printf "CHECK FAILED: %s (%d of %d)\n%!" what bad n
  end

(* Run a workload self-check: an exception is one failed check. *)
let self_check what f =
  match f () with
  | x ->
      check ~bad:0 what;
      Some x
  | exception e ->
      check ~bad:1 (what ^ ": " ^ Printexc.to_string e);
      None

(* ---- determinism fingerprints ----

   Every simulated (virtual) number and telemetry count a run produces is
   folded into a digest keyed by what produced it (workload, seed, pass,
   rack or episode).  Within a run, equal keys must carry equal digests;
   run.py compares them across runs of the same seed too. *)

let fingerprints : (string, string) Hashtbl.t = Hashtbl.create 16

let fingerprint key parts =
  let d = Digest.to_hex (Digest.string (String.concat ";" parts)) in
  match Hashtbl.find_opt fingerprints key with
  | Some d' -> check ~bad:(if d = d' then 0 else 1) ("determinism: " ^ key)
  | None -> Hashtbl.replace fingerprints key d

let kv_parts l = List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) l

let hist_parts h =
  List.map (fun (lo, c) -> Printf.sprintf "%d:%d" lo c) (Histogram.buckets h)

(* ---- the simulated rack a single runtime runs against ---- *)

let controller ~nodes =
  let c = Rack_controller.create ~slab_size:(Units.mib 1) () in
  for id = 0 to nodes - 1 do
    Rack_controller.register_node c
      (Memory_node.create ~id ~capacity:(Units.mib 128))
  done;
  c

(* Remote-equals-heap oracle after [drain]: every backed page that is not
   mmap'd (poked) input must hold the heap's bytes.  Returns
   (pages checked, divergent or lost pages). *)
let heap_oracle rt controller ~peek ~capacity ~poked =
  let pages = ref 0 and bad = ref 0 in
  Resource_manager.iter_backed_pages (Runtime.resource_manager rt)
    (fun ~vpage ~node ~remote_addr ->
      let base = vpage * page in
      if base + page <= capacity && not (poked vpage) then begin
        incr pages;
        match
          Memory_node.peek
            (Rack_controller.node controller ~id:node)
            ~addr:remote_addr ~len:page
        with
        | remote -> if remote <> peek base then incr bad
        | exception Memory_node.Crashed _ -> incr bad
      end);
  (!pages, !bad)

(* Flip one bit of the first backed, non-poked page's remote copy: the
   planted fault the oracle above must catch. *)
let plant_fault rt controller ~poked =
  let planted = ref false in
  Resource_manager.iter_backed_pages (Runtime.resource_manager rt)
    (fun ~vpage ~node ~remote_addr ->
      if (not !planted) && not (poked vpage) then begin
        planted := true;
        ignore
          (Memory_node.corrupt_bit
             (Rack_controller.node controller ~id:node)
             ~addr:remote_addr ~bit:0)
      end);
  Printf.printf "planted fault: flipped one bit of a backed remote page\n%!"

let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let hist_of snapshot name =
  match Snapshot.find snapshot name with
  | Some (Snapshot.Hist h) -> h
  | _ -> Histogram.create ()

let counter snapshot name =
  Option.value ~default:0 (Snapshot.counter_value snapshot name)

(* Sum of a per-tenant counter [tenant.<i>.<name>] over [tenants]. *)
let tenant_sum snapshot ~tenants name =
  let s = ref 0 in
  for i = 0 to tenants - 1 do
    s := !s + counter snapshot (Printf.sprintf "tenant.%d.%s" i name)
  done;
  !s

let tenant_hist snapshot ~tenants name =
  let h = ref (Histogram.create ()) in
  for i = 0 to tenants - 1 do
    h := Histogram.merge !h (hist_of snapshot (Printf.sprintf "tenant.%d.%s" i name))
  done;
  !h

(* Record an application's accesses: the trace plus the heap it leaves
   (the replay's [read_local]), as the rack does before replay. *)
let record_workload ~slug ~seed =
  let spec = Kona_workloads.Workloads.find slug in
  let acc = ref [] in
  let heap =
    Heap.create
      ~capacity:(spec.Kona_workloads.Workloads.heap_capacity Kona_workloads.Workloads.Smoke)
      ~sink:(fun ev -> acc := ev :: !acc)
      ()
  in
  spec.Kona_workloads.Workloads.run Kona_workloads.Workloads.Smoke ~heap ~seed;
  (heap, Array.of_list (List.rev !acc))

type gc = { started : float; seconds : float; words : float; majors : int }

(* Start, host seconds, minor words and completed major collections of
   [f ()]. *)
let gc_delta f =
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let started = now () in
  let x, seconds = timed f in
  ( x,
    {
      started;
      seconds;
      words = Gc.minor_words () -. w0;
      majors = (Gc.quick_stat ()).Gc.major_collections - m0;
    } )
