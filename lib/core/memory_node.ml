open Kona_util
open Kona_integrity

exception Crashed of int
exception Fenced of int

(* The store is sparse: an array of fixed 64 KiB chunks.  A chunk no
   mutation has touched is the shared [unwritten] sentinel and reads as
   zeros; the first mutation that lands in it zero-fills a real one.  A
   run pays for the bytes it writes, not for the node's capacity. *)
let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let unwritten = Bytes.empty
let page = Units.page_size

type t = {
  node_id : int;
  capacity : int;
  chunks : Bytes.t array;
  chk : Checksums.t;
  verified : Bytes.t;
      (* one bit per page: verified clean by [verify_range], and not
         mutated since — the scrubber skips re-CRCing such pages *)
  seq_rx : Sequencer.Rx.t;
  mutable brk : int;
  mutable is_alive : bool;
  (* Fencing (split-brain prevention): once a store is displaced by a
     membership-triggered failover it carries the fencing epoch that
     displaced it.  Shipments stamped with an older epoch are stale
     writes from the pre-failover configuration and are rejected whole;
     the trusted write path refuses outright. *)
  mutable fence : int option;
  mutable fenced_rejects : int;
  mutable post_fence_writes : int;
  mutable lines_received : int;
  mutable logs_received : int;
}

let create ~id ~capacity =
  assert (capacity > 0);
  let pages = (capacity + page - 1) / page in
  {
    node_id = id;
    capacity;
    chunks = Array.make ((capacity + chunk_size - 1) / chunk_size) unwritten;
    chk = Checksums.create ~capacity;
    verified = Bytes.make ((pages + 7) / 8) '\000';
    seq_rx = Sequencer.Rx.create ();
    brk = 0;
    is_alive = true;
    fence = None;
    fenced_rejects = 0;
    post_fence_writes = 0;
    lines_received = 0;
    logs_received = 0;
  }

let id t = t.node_id
let capacity t = t.capacity
let used t = t.brk
let free_bytes t = capacity t - t.brk
let alive t = t.is_alive
let crash t = t.is_alive <- false

let set_fence t ~epoch =
  match t.fence with
  | Some e when e >= epoch -> ()
  | _ -> t.fence <- Some epoch

let fenced t = t.fence <> None
let fence_epoch t = t.fence
let fenced_rejects t = t.fenced_rejects
let post_fence_writes t = t.post_fence_writes

let check_alive t = if not t.is_alive then raise (Crashed t.node_id)
let check_fence t = match t.fence with Some _ -> raise (Fenced t.node_id) | None -> ()

let reserve t ~size =
  check_alive t;
  let size = Units.align_up size ~alignment:Units.page_size in
  if t.brk + size > capacity t then raise Out_of_memory;
  let addr = t.brk in
  t.brk <- t.brk + size;
  addr

let adopt_reservations t ~brk =
  if brk < 0 || brk > capacity t then
    invalid_arg
      (Printf.sprintf "Memory_node %d: adopt_reservations brk %d outside [0,%d]"
         t.node_id brk (capacity t));
  t.brk <- max t.brk brk

let check t addr len =
  check_alive t;
  if addr < 0 || addr + len > t.capacity then
    invalid_arg
      (Printf.sprintf "Memory_node %d: access [%#x,+%d) out of range" t.node_id addr len)

(* ------------------------------------------------------------------ *)
(* Sparse store and verified-clean memo *)

let verified t p =
  Char.code (Bytes.unsafe_get t.verified (p lsr 3)) land (1 lsl (p land 7)) <> 0

let set_verified t p ~clean =
  let byte = p lsr 3 and bit = 1 lsl (p land 7) in
  let old = Char.code (Bytes.unsafe_get t.verified byte) in
  Bytes.unsafe_set t.verified byte
    (Char.unsafe_chr (if clean then old lor bit else old land lnot bit))

(* [f chunk off pos n] for each chunk-bounded piece of [addr, addr+len):
   [n] bytes at offset [off] of chunk [chunk], [pos] bytes into the range. *)
let iter_pieces ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land (chunk_size - 1) in
    let n = min (len - !pos) (chunk_size - off) in
    f (a lsr chunk_bits) off !pos n;
    pos := !pos + n
  done

(* The one mutation path: trusted writes, applied log lines and injected
   flips all change store bytes here and nowhere else.  It materialises
   untouched chunks and clears the verified-clean bit of every page it
   touches, so the memo can never vouch for bytes it has not seen. *)
let blit t ~src ~src_pos ~addr ~len =
  if len > 0 then begin
    iter_pieces ~addr ~len (fun c off pos n ->
        let chunk =
          match t.chunks.(c) with
          | chunk when chunk != unwritten -> chunk
          | _ ->
              let fresh = Bytes.make chunk_size '\000' in
              t.chunks.(c) <- fresh;
              fresh
        in
        Bytes.blit_string src (src_pos + pos) chunk off n);
    for p = addr / page to (addr + len - 1) / page do
      set_verified t p ~clean:false
    done
  end

let zero_line_crc = Crc32c.digest (String.make Units.cache_line '\000')

(* CRC32C of the current contents of line index [line]. *)
let line_crc t line =
  let addr = line * Units.cache_line in
  let chunk = t.chunks.(addr lsr chunk_bits) in
  if chunk == unwritten then zero_line_crc
  else
    Crc32c.digest_bytes chunk ~pos:(addr land (chunk_size - 1))
      ~len:Units.cache_line

(* A recorded line whose page carries the memo is clean without a CRC. *)
let line_ok t line =
  verified t (line * Units.cache_line / page)
  || Checksums.line_ok t.chk ~crc:(line_crc t) ~line

let write t ~addr ~data =
  let len = String.length data in
  check t addr len;
  check_fence t;
  blit t ~src:data ~src_pos:0 ~addr ~len;
  Checksums.record t.chk ~crc:(line_crc t) ~addr ~len

let read t ~addr ~len =
  check t addr len;
  let off = addr land (chunk_size - 1) in
  if off + len <= chunk_size then
    (* Fast path: one chunk, as every page and line access is. *)
    match t.chunks.(addr lsr chunk_bits) with
    | chunk when chunk == unwritten -> String.make len '\000'
    | chunk -> Bytes.sub_string chunk off len
  else begin
    let out = Bytes.make len '\000' in
    iter_pieces ~addr ~len (fun c off pos n ->
        let chunk = t.chunks.(c) in
        if chunk != unwritten then Bytes.blit chunk off out pos n);
    Bytes.unsafe_to_string out
  end

type log_entry = { addr : int; data : string; crcs : int array }

let entry ~addr ~data =
  let len = String.length data in
  assert (len > 0 && len mod Units.cache_line = 0);
  assert (addr mod Units.cache_line = 0);
  let crcs =
    Array.init (len / Units.cache_line) (fun i ->
        Crc32c.digest_sub data ~pos:(i * Units.cache_line) ~len:Units.cache_line)
  in
  { addr; data; crcs }

type delivery = { stream : int; epoch : int; seq : int }

type report = {
  verdict : Sequencer.Rx.verdict;
  applied_lines : int;
  rejected : int list;
  healed : int list;
}

let receive_log ?delivery t entries =
  check_alive t;
  t.logs_received <- t.logs_received + 1;
  (* The fence check comes before sequence observation: a rejected stale
     shipment must not perturb the receiver's per-stream cursors.  An
     unstamped shipment carries no epoch proof, so a fenced store rejects
    it too. *)
  let fence_rejected =
    match (t.fence, delivery) with
    | Some fence_epoch, Some { epoch; _ } -> epoch < fence_epoch
    | Some _, None -> true
    | None, _ -> false
  in
  if fence_rejected then begin
    t.fenced_rejects <- t.fenced_rejects + 1;
    { verdict = Sequencer.Rx.Stale_epoch; applied_lines = 0; rejected = []; healed = [] }
  end
  else begin
  (* A shipment at or above the fencing epoch reaching a fenced store is
     structurally a post-fence write — it is applied below (dropping
     bytes silently would be worse) but counted, so the
     no-post-fence-write invariant trips. *)
  let verdict =
    match delivery with
    | None -> Sequencer.Rx.Ok
    | Some { stream; epoch; seq } -> Sequencer.Rx.observe t.seq_rx ~stream ~epoch ~seq
  in
  match verdict with
  | Sequencer.Rx.Duplicate | Sequencer.Rx.Stale_epoch ->
      (* Replays and stragglers from a previous configuration are
         dropped whole: applying them would roll lines backwards. *)
      { verdict; applied_lines = 0; rejected = []; healed = [] }
  | Sequencer.Rx.Ok | Sequencer.Rx.Gap _ ->
      let applied = ref 0 and rejected = ref [] and healed = ref [] in
      List.iter
        (fun e ->
          let len = String.length e.data in
          assert (len > 0 && len mod Units.cache_line = 0);
          assert (e.addr mod Units.cache_line = 0);
          let nlines = len / Units.cache_line in
          assert (Array.length e.crcs = nlines);
          for i = 0 to nlines - 1 do
            let addr = e.addr + (i * Units.cache_line) in
            let wire =
              Crc32c.digest_sub e.data ~pos:(i * Units.cache_line)
                ~len:Units.cache_line
            in
            if wire <> e.crcs.(i) then rejected := addr :: !rejected
            else begin
              check t addr Units.cache_line;
              let line = addr / Units.cache_line in
              if Checksums.recorded t.chk ~line && not (line_ok t line) then
                healed := addr :: !healed;
              blit t ~src:e.data ~src_pos:(i * Units.cache_line) ~addr
                ~len:Units.cache_line;
              Checksums.set_line t.chk ~line ~crc:wire;
              incr applied
            end
          done;
          t.lines_received <- t.lines_received + nlines)
        entries;
      if t.fence <> None then
        t.post_fence_writes <- t.post_fence_writes + !applied;
      {
        verdict;
        applied_lines = !applied;
        rejected = List.rev !rejected;
        healed = List.rev !healed;
      }
  end

let lines_received t = t.lines_received
let logs_received t = t.logs_received
let peek = read

(* Pages carrying the memo are skipped without a CRC; a page this call
   covers whole and finds clean gains it.  Only [blit] clears it. *)
let verify_range t ~addr ~len =
  if len <= 0 then []
  else begin
    if addr < 0 || addr + len > t.capacity then
      invalid_arg "Memory_node.verify_range";
    let crc = line_crc t in
    let acc = ref [] in
    for p = (addr + len - 1) / page downto addr / page do
      if not (verified t p) then begin
        let lo = max addr (p * page) and hi = min (addr + len) ((p + 1) * page) in
        match Checksums.corrupt_lines t.chk ~crc ~addr:lo ~len:(hi - lo) with
        | [] -> if hi - lo = page then set_verified t p ~clean:true
        | bad -> acc := bad @ !acc
      end
    done;
    !acc
  end

let corrupt_bit t ~addr ~bit =
  if addr mod Units.cache_line <> 0 then invalid_arg "Memory_node.corrupt_bit: addr";
  if bit < 0 || bit >= Units.cache_line * 8 then
    invalid_arg "Memory_node.corrupt_bit: bit";
  let line = addr / Units.cache_line in
  let was_clean = Checksums.recorded t.chk ~line && line_ok t line in
  let byte = addr + (bit / 8) in
  let old =
    match t.chunks.(byte lsr chunk_bits) with
    | chunk when chunk == unwritten -> 0
    | chunk -> Char.code (Bytes.get chunk (byte land (chunk_size - 1)))
  in
  let flipped = String.make 1 (Char.chr (old lxor (1 lsl (bit land 7)))) in
  blit t ~src:flipped ~src_pos:0 ~addr:byte ~len:1;
  if was_clean then `Fresh else `Already_corrupt
