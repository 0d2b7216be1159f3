open Kona_util

type t = {
  cache_name : string;
  block : int;
  block_bits : int;
  nsets : int;
  set_mask : int; (* nsets - 1 when nsets is a power of two, else -1 *)
  assoc : int;
  (* way-major state, indexed [set * assoc + way] *)
  tags : int array; (* block address; -1 = invalid *)
  dirty : bool array;
  stamp : int array; (* LRU timestamp *)
  mutable tick : int;
  mutable reads : int;
  mutable writes : int;
  mutable read_misses : int;
  mutable write_misses : int;
  mutable evictions : int;
  mutable dirty_evictions : int;
}

let create ~name ~size ~assoc ~block =
  if size <= 0 || assoc <= 0 || block <= 0 then
    invalid_arg "Cache.create: sizes must be positive";
  if block < 2 || not (Units.is_power_of_two block) then
    invalid_arg "Cache.create: block must be a power of two of at least 2 bytes";
  if size mod (assoc * block) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of assoc * block";
  let nsets = size / (assoc * block) in
  let n = nsets * assoc in
  {
    cache_name = name;
    block;
    block_bits = Units.log2 block;
    nsets;
    set_mask = (if Units.is_power_of_two nsets then nsets - 1 else -1);
    assoc;
    tags = Array.make n (-1);
    dirty = Array.make n false;
    stamp = Array.make n 0;
    tick = 0;
    reads = 0;
    writes = 0;
    read_misses = 0;
    write_misses = 0;
    evictions = 0;
    dirty_evictions = 0;
  }

let name t = t.cache_name
let block_size t = t.block
let sets t = t.nsets
(* lsl/lsr are right-associative in OCaml: parenthesize the align-down. *)
let block_addr_of t addr = (addr lsr t.block_bits) lsl t.block_bits
(* A mask instead of a division when it gives the same set. *)
let set_of t block_addr =
  let index = block_addr lsr t.block_bits in
  if t.set_mask >= 0 then index land t.set_mask else index mod t.nsets

(* Access and flush codes: see cache.mli.  Block addresses are aligned to
   a block of at least 2 bytes, so bit 0 of a victim code carries the
   dirty bit. *)
let hit = -1
let no_victim = -2
let is_victim code = code >= 0
let victim_addr code = code land lnot 1
let victim_dirty code = code >= 0 && code land 1 = 1

(* The annotations keep [=] the integer compare, not [compare_val]. *)
let rec find_from (tags : int array) (block_addr : int) i stop =
  if i = stop then -1
  else if tags.(i) = block_addr then i
  else find_from tags block_addr (i + 1) stop

let find_way t set block_addr =
  let base = set * t.assoc in
  find_from t.tags block_addr base (base + t.assoc)

let victim_way t set =
  (* Prefer an invalid way; otherwise least-recent stamp. *)
  let base = set * t.assoc in
  let best = ref base in
  let found_invalid = ref (t.tags.(base) = -1) in
  for way = 1 to t.assoc - 1 do
    let i = base + way in
    if not !found_invalid then
      if t.tags.(i) = -1 then begin
        best := i;
        found_invalid := true
      end
      else if t.stamp.(i) < t.stamp.(!best) then best := i
  done;
  !best

let touch t i =
  t.tick <- t.tick + 1;
  t.stamp.(i) <- t.tick

let code_of t i = if t.dirty.(i) then t.tags.(i) lor 1 else t.tags.(i)

let access t ~addr ~write =
  let block_addr = block_addr_of t addr in
  if write then t.writes <- t.writes + 1 else t.reads <- t.reads + 1;
  let set = set_of t block_addr in
  let i = find_way t set block_addr in
  if i >= 0 then begin
    touch t i;
    if write then t.dirty.(i) <- true;
    hit
  end
  else begin
    if write then t.write_misses <- t.write_misses + 1
    else t.read_misses <- t.read_misses + 1;
    let i = victim_way t set in
    let code =
      if t.tags.(i) = -1 then no_victim
      else begin
        t.evictions <- t.evictions + 1;
        if t.dirty.(i) then t.dirty_evictions <- t.dirty_evictions + 1;
        code_of t i
      end
    in
    t.tags.(i) <- block_addr;
    t.dirty.(i) <- write;
    touch t i;
    code
  end

let probe t ~addr =
  let block_addr = block_addr_of t addr in
  find_way t (set_of t block_addr) block_addr >= 0

let is_dirty t ~addr =
  let block_addr = block_addr_of t addr in
  let i = find_way t (set_of t block_addr) block_addr in
  i >= 0 && t.dirty.(i)

let flush_block t ~addr =
  let block_addr = block_addr_of t addr in
  let i = find_way t (set_of t block_addr) block_addr in
  if i < 0 then no_victim
  else begin
    let code = code_of t i in
    t.tags.(i) <- -1;
    t.dirty.(i) <- false;
    t.stamp.(i) <- 0;
    code
  end

let set_dirty t ~addr =
  let block_addr = block_addr_of t addr in
  let i = find_way t (set_of t block_addr) block_addr in
  if i >= 0 then t.dirty.(i) <- true;
  i >= 0

let iter_resident t f =
  for i = 0 to Array.length t.tags - 1 do
    if t.tags.(i) <> -1 then f ~block_addr:t.tags.(i) ~dirty:t.dirty.(i)
  done

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.read_misses <- 0;
  t.write_misses <- 0;
  t.evictions <- 0;
  t.dirty_evictions <- 0

type stats = {
  reads : int;
  writes : int;
  read_misses : int;
  write_misses : int;
  evictions : int;
  dirty_evictions : int;
}

let stats (t : t) =
  {
    reads = t.reads;
    writes = t.writes;
    read_misses = t.read_misses;
    write_misses = t.write_misses;
    evictions = t.evictions;
    dirty_evictions = t.dirty_evictions;
  }

let miss_rate s =
  let total = s.reads + s.writes in
  if total = 0 then 0.
  else float_of_int (s.read_misses + s.write_misses) /. float_of_int total
