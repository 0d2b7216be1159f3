(* Tests for the end-to-end data-integrity subsystem: CRC32C, per-line
   at-rest checksums, delivery sequencing, wire-CRC rejection of torn
   entries, duplicate/reordered-delivery handling, and the runtime's
   scrub-and-repair path restoring a seeded bit-flip bit-for-bit. *)

open Kona
module Units = Kona_util.Units
module Rng = Kona_util.Rng
module Heap = Kona_workloads.Heap
module Crc32c = Kona_util.Crc32c
module Checksums = Kona_integrity.Checksums
module Sequencer = Kona_integrity.Sequencer
module Scrubber = Kona_integrity.Scrubber
module Fault_spec = Kona_faults.Fault_spec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* CRC32C *)

(* Reference vectors: RFC 3720 (iSCSI) appendix B.4 test patterns. *)
let test_crc32c_vectors () =
  check_int "empty" 0 (Crc32c.digest "");
  check_int "'123456789'" 0xE3069283 (Crc32c.digest "123456789");
  check_int "32 zero bytes" 0x8A9136AA (Crc32c.digest (String.make 32 '\000'));
  check_int "32 0xFF bytes" 0x62A8AB43 (Crc32c.digest (String.make 32 '\xff'));
  let inc = String.init 32 Char.chr in
  check_int "32 incrementing bytes" 0x46DD794E (Crc32c.digest inc);
  (* digest_sub agrees with digest of the slice. *)
  let s = "abcdefghijklmnop" in
  check_int "digest_sub" (Crc32c.digest "defgh") (Crc32c.digest_sub s ~pos:3 ~len:5)

let test_crc32c_bit_sensitivity () =
  (* Any single-bit flip must change the digest — the guarantee the
     bit-flip fault relies on for detectability. *)
  let base = String.init 64 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let d0 = Crc32c.digest base in
  for bit = 0 to (64 * 8) - 1 do
    let b = Bytes.of_string base in
    Bytes.set b (bit / 8)
      (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
    if Crc32c.digest (Bytes.to_string b) = d0 then
      Alcotest.failf "bit %d flip left the CRC unchanged" bit
  done

(* ------------------------------------------------------------------ *)
(* Checksums *)

let test_checksums_record_verify () =
  let store = Bytes.make 512 '\000' in
  let crc line = Crc32c.digest_bytes store ~pos:(line * 64) ~len:64 in
  let chk = Checksums.create ~capacity:512 in
  check_int "nothing recorded" 0 (Checksums.recorded_count chk);
  (* Unrecorded lines never report corruption. *)
  check_bool "unrecorded is ok" true (Checksums.line_ok chk ~crc ~line:0);
  check_int "no corrupt lines" 0
    (List.length (Checksums.corrupt_lines chk ~crc ~addr:0 ~len:512));
  Bytes.blit_string (String.make 128 'x') 0 store 64 128;
  Checksums.record chk ~crc ~addr:64 ~len:128;
  check_int "two lines recorded" 2 (Checksums.recorded_count chk);
  check_bool "recorded" true (Checksums.recorded chk ~line:1);
  check_bool "clean" true (Checksums.line_ok chk ~crc ~line:1);
  (* Corrupt one byte of line 2: only that line reports. *)
  Bytes.set store 130 'y';
  check_int "line 2 corrupt" 1
    (List.length (Checksums.corrupt_lines chk ~crc ~addr:0 ~len:512));
  (match Checksums.corrupt_lines chk ~crc ~addr:0 ~len:512 with
  | [ addr ] -> check_int "corrupt addr is line-aligned" 128 addr
  | _ -> Alcotest.fail "expected one corrupt line");
  (* Re-recording over the corruption accepts the new bytes as truth. *)
  Checksums.record chk ~crc ~addr:128 ~len:64;
  check_int "re-record clears" 0
    (List.length (Checksums.corrupt_lines chk ~crc ~addr:0 ~len:512))

(* ------------------------------------------------------------------ *)
(* Sequencer *)

let test_sequencer_verdicts () =
  let tx = Sequencer.Tx.create () in
  let rx = Sequencer.Rx.create () in
  let obs seq = Sequencer.Rx.observe rx ~stream:7 ~epoch:(Sequencer.Tx.epoch tx) ~seq in
  let s1 = Sequencer.Tx.next tx ~stream:7 in
  check_bool "first stamp adopted" true (obs s1 = Sequencer.Rx.Ok);
  let s2 = Sequencer.Tx.next tx ~stream:7 in
  check_bool "in order" true (obs s2 = Sequencer.Rx.Ok);
  check_bool "replay is duplicate" true (obs s2 = Sequencer.Rx.Duplicate);
  check_bool "older is duplicate" true (obs s1 = Sequencer.Rx.Duplicate);
  let _s3 = Sequencer.Tx.next tx ~stream:7 in
  let s4 = Sequencer.Tx.next tx ~stream:7 in
  check_bool "gap of one" true (obs s4 = Sequencer.Rx.Gap 1);
  (* Streams are independent: another stream adopts its own first stamp. *)
  let t1 = Sequencer.Tx.next tx ~stream:9 in
  check_bool "independent stream" true
    (Sequencer.Rx.observe rx ~stream:9 ~epoch:(Sequencer.Tx.epoch tx) ~seq:t1
    = Sequencer.Rx.Ok);
  (* Epoch bump (failover) resets the counters; stragglers from the old
     epoch are stale. *)
  Sequencer.Tx.bump_epoch tx;
  let old_epoch = Sequencer.Tx.epoch tx - 1 in
  let n1 = Sequencer.Tx.next tx ~stream:7 in
  check_bool "new epoch accepted" true (obs n1 = Sequencer.Rx.Ok);
  check_bool "old epoch stale" true
    (Sequencer.Rx.observe rx ~stream:7 ~epoch:old_epoch ~seq:99
    = Sequencer.Rx.Stale_epoch)

(* ------------------------------------------------------------------ *)
(* Memory node: wire CRCs, duplicates, reordering *)

let line c = String.make Units.cache_line c

let test_receive_log_rejects_torn_lines () =
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 4) in
  Memory_node.write node ~addr:0 ~data:(line 'a');
  let e = Memory_node.entry ~addr:0 ~data:(line 'b' ^ line 'c') in
  (* Tear the second line after staging: CRCs no longer match the data. *)
  let torn_data = line 'b' ^ line 'z' in
  let torn = { e with Memory_node.data = torn_data } in
  let r = Memory_node.receive_log node [ torn ] in
  check_int "one line applied" 1 r.Memory_node.applied_lines;
  (match r.Memory_node.rejected with
  | [ addr ] -> check_int "second line rejected" Units.cache_line addr
  | _ -> Alcotest.fail "expected one rejected line");
  (* The store kept its old, consistent bytes for the rejected line. *)
  check_string "rejected line untouched" (String.make 1 '\000')
    (String.sub (Memory_node.read node ~addr:Units.cache_line ~len:1) 0 1);
  check_string "clean line applied" "b"
    (String.sub (Memory_node.read node ~addr:0 ~len:1) 0 1)

let test_receive_log_duplicate_and_reorder () =
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 4) in
  let d seq = { Memory_node.stream = 0; epoch = 0; seq } in
  let e1 = Memory_node.entry ~addr:0 ~data:(line '1') in
  let e2 = Memory_node.entry ~addr:0 ~data:(line '2') in
  let r1 = Memory_node.receive_log ~delivery:(d 1) node [ e1 ] in
  check_bool "first ok" true (r1.Memory_node.verdict = Sequencer.Rx.Ok);
  let r2 = Memory_node.receive_log ~delivery:(d 2) node [ e2 ] in
  check_bool "second ok" true (r2.Memory_node.verdict = Sequencer.Rx.Ok);
  (* Replay of the first shipment: dropped whole — applying it would roll
     the line back to '1'. *)
  let r3 = Memory_node.receive_log ~delivery:(d 1) node [ e1 ] in
  check_bool "replay detected" true (r3.Memory_node.verdict = Sequencer.Rx.Duplicate);
  check_int "replay applied nothing" 0 r3.Memory_node.applied_lines;
  check_string "store kept newest" "2"
    (String.sub (Memory_node.read node ~addr:0 ~len:1) 0 1);
  (* A gap (lost shipment 3) is reported but the newer data applies. *)
  let e4 = Memory_node.entry ~addr:0 ~data:(line '4') in
  let r4 = Memory_node.receive_log ~delivery:(d 4) node [ e4 ] in
  check_bool "gap reported" true (r4.Memory_node.verdict = Sequencer.Rx.Gap 1);
  check_string "gap still applies" "4"
    (String.sub (Memory_node.read node ~addr:0 ~len:1) 0 1)

let test_corrupt_bit_fresh_and_cancel () =
  let node = Memory_node.create ~id:0 ~capacity:(Units.kib 4) in
  Memory_node.write node ~addr:0 ~data:(line 'a');
  check_bool "first flip is fresh" true (Memory_node.corrupt_bit node ~addr:0 ~bit:3 = `Fresh);
  check_int "flip detected at rest" 1
    (List.length (Memory_node.verify_range node ~addr:0 ~len:Units.cache_line));
  check_bool "second flip lands on corrupt line" true
    (Memory_node.corrupt_bit node ~addr:0 ~bit:3 = `Already_corrupt);
  check_int "same-bit double flip cancels" 0
    (List.length (Memory_node.verify_range node ~addr:0 ~len:Units.cache_line))

(* ------------------------------------------------------------------ *)
(* Runtime: end-to-end corruption, scrub-and-repair *)

let make_runtime ?(fmem_pages = 16) ?(replicas = 1) ?(faults = [])
    ?(fault_seed = 42) ?scrub_interval_ns ?(verify_checksums = false) () =
  let controller = Rack_controller.create ~slab_size:(Units.kib 64) () in
  Rack_controller.register_node controller
    (Memory_node.create ~id:0 ~capacity:(Units.mib 8));
  Rack_controller.register_node controller
    (Memory_node.create ~id:1 ~capacity:(Units.mib 8));
  let heap_ref = ref None in
  let read_local ~addr ~len = Heap.peek_bytes (Option.get !heap_ref) addr len in
  let config =
    {
      Runtime.default_config with
      fmem_pages;
      replicas;
      faults;
      fault_seed;
      scrub_interval_ns;
      verify_checksums;
    }
  in
  let runtime = Runtime.create ~config ~controller ~read_local () in
  let heap = Heap.create ~capacity:(Units.mib 4) ~sink:(Runtime.sink runtime) () in
  heap_ref := Some heap;
  (runtime, heap, controller)

let scribble ?(writes = 8_000) ?(region = Units.kib 512) ?(seed = 5) heap =
  let rng = Rng.create ~seed in
  let base = Heap.alloc heap region in
  for _ = 1 to writes do
    Heap.write_u64 heap
      (base + (Rng.int rng ((region - 8) / 8) * 8))
      (Rng.int rng 1_000_000)
  done

let counter runtime name =
  match List.assoc_opt name (Runtime.integrity_counters runtime) with
  | Some v -> v
  | None -> Alcotest.failf "missing integrity counter %s" name

(* Remote memory equals the heap on every backed page (none may be
   excluded: these tests expect full repair). *)
let assert_no_divergence runtime heap controller =
  check_bool "nothing unrepairable" true (Runtime.unrepairable_pages runtime = []);
  let diverged = ref 0 in
  Resource_manager.iter_backed_pages (Runtime.resource_manager runtime)
    (fun ~vpage ~node ~remote_addr ->
      let base = vpage * Units.page_size in
      if base + Units.page_size <= Heap.capacity heap then begin
        let local = Heap.peek_bytes heap base Units.page_size in
        let remote =
          Memory_node.peek (Rack_controller.node controller ~id:node)
            ~addr:remote_addr ~len:Units.page_size
        in
        if local <> remote then incr diverged
      end);
  check_int "no page diverged from the heap" 0 !diverged

let test_scrub_repairs_bit_flips () =
  let faults = Fault_spec.parse_exn "bit-flip:p=1" in
  let runtime, heap, controller =
    make_runtime ~faults ~scrub_interval_ns:50_000 ()
  in
  scribble heap;
  Runtime.drain runtime;
  let armed = counter runtime "integrity.flips_armed" in
  check_bool "flips were injected" true (armed > 0);
  check_int "every armed flip found or healed" armed
    (counter runtime "integrity.flips_found"
    + counter runtime "integrity.healed_overwrite");
  check_bool "scrub repaired corrupt lines" true
    (counter runtime "integrity.repaired" > 0);
  check_int "nothing unrepairable" 0 (counter runtime "integrity.unrepairable");
  check_int "quarantine drained" 0 (counter runtime "integrity.quarantined");
  (* The repair is bit-for-bit: remote bytes equal the heap everywhere. *)
  assert_no_divergence runtime heap controller

let test_torn_writes_rejected_and_repaired () =
  let faults = Fault_spec.parse_exn "torn-write:p=1" in
  let runtime, heap, controller =
    make_runtime ~faults ~scrub_interval_ns:50_000 ()
  in
  scribble heap;
  Runtime.drain runtime;
  check_bool "torn events detected" true
    (counter runtime "integrity.torn_events" > 0);
  check_bool "torn lines rejected by wire CRC" true
    (counter runtime "integrity.crc_rejects" > 0);
  check_int "quarantine drained" 0 (counter runtime "integrity.quarantined");
  assert_no_divergence runtime heap controller

let test_dup_deliveries_dropped () =
  let faults = Fault_spec.parse_exn "dup-deliver:p=1" in
  let runtime, heap, controller = make_runtime ~faults () in
  scribble heap;
  Runtime.drain runtime;
  check_bool "duplicates detected" true (counter runtime "seq.duplicates" > 0);
  assert_no_divergence runtime heap controller

let test_stale_reads_detected () =
  let faults = Fault_spec.parse_exn "stale-read:p=0.5" in
  let runtime, heap, controller =
    make_runtime ~faults ~verify_checksums:true ()
  in
  scribble heap;
  Runtime.drain runtime;
  check_bool "stale reads detected" true
    (counter runtime "integrity.stale_reads" > 0);
  (match Runtime.injector runtime with
  | Some i ->
      check_int "every injected stale read detected"
        (List.assoc "stale_reads" (Kona_faults.Injector.counters i))
        (counter runtime "integrity.stale_reads")
  | None -> Alcotest.fail "injector expected");
  assert_no_divergence runtime heap controller

let test_integrity_counters_reproducible () =
  let run () =
    let faults =
      Fault_spec.parse_exn "bit-flip:p=0.3;torn-write:p=0.2;dup-deliver:p=0.2"
    in
    let runtime, heap, _ =
      make_runtime ~faults ~fault_seed:7 ~scrub_interval_ns:50_000
        ~verify_checksums:true ()
    in
    scribble heap;
    Runtime.drain runtime;
    Runtime.integrity_counters runtime
  in
  let a = run () and b = run () in
  check_bool "same (plan, seed) gives bit-identical integrity counters" true
    (a = b);
  check_bool "the runs actually injected corruption" true
    (List.assoc "integrity.torn_events" a > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kona_integrity"
    [
      ( "crc32c",
        [
          Alcotest.test_case "reference vectors" `Quick test_crc32c_vectors;
          Alcotest.test_case "single-bit sensitivity" `Quick
            test_crc32c_bit_sensitivity;
        ] );
      ( "checksums",
        [
          Alcotest.test_case "record and verify" `Quick
            test_checksums_record_verify;
        ] );
      ( "sequencer",
        [ Alcotest.test_case "verdicts" `Quick test_sequencer_verdicts ] );
      ( "memory-node",
        [
          Alcotest.test_case "wire CRC rejects torn lines" `Quick
            test_receive_log_rejects_torn_lines;
          Alcotest.test_case "duplicate and reordered deliveries" `Quick
            test_receive_log_duplicate_and_reorder;
          Alcotest.test_case "corrupt_bit arming" `Quick
            test_corrupt_bit_fresh_and_cancel;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "repairs seeded bit-flips bit-for-bit" `Quick
            test_scrub_repairs_bit_flips;
          Alcotest.test_case "torn writes rejected and repaired" `Quick
            test_torn_writes_rejected_and_repaired;
          Alcotest.test_case "duplicate deliveries dropped" `Quick
            test_dup_deliveries_dropped;
          Alcotest.test_case "stale reads detected" `Quick
            test_stale_reads_detected;
          Alcotest.test_case "counters reproducible" `Quick
            test_integrity_counters_reproducible;
        ] );
    ]
