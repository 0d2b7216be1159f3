open Kona_util
module Access = Kona_trace.Access

type level_config = { size : int; assoc : int }
type config = { l1 : level_config; l2 : level_config; llc : level_config }

let default_config =
  {
    l1 = { size = Units.kib 32; assoc = 8 };
    l2 = { size = Units.kib 128; assoc = 8 };
    llc = { size = Units.mib 1; assoc = 16 };
  }

type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  llc : Cache.t;
  on_fill : addr:int -> write:bool -> unit;
  on_writeback : addr:int -> unit;
  mutable memory_accesses : int;
  mutable writebacks : int;
}

let create ?(config = default_config) ?(on_fill = fun ~addr:_ ~write:_ -> ())
    ?(on_writeback = fun ~addr:_ -> ()) () =
  let line = Units.cache_line in
  let mk name (c : level_config) = Cache.create ~name ~size:c.size ~assoc:c.assoc ~block:line in
  {
    l1 = mk "L1d" config.l1;
    l2 = mk "L2" config.l2;
    llc = mk "LLC" config.llc;
    on_fill;
    on_writeback;
    memory_accesses = 0;
    writebacks = 0;
  }

(* Invalidate [addr]'s block in an upper level; whether it was dirty. *)
let flush_dirty cache ~addr = Cache.victim_dirty (Cache.flush_block cache ~addr)

(* Evicting a victim from L2 or the LLC: upper levels may hold the line
   (inclusion violation about to happen) — flush every one of them before
   their dirty bits are folded into the victim's. *)
let handle_l2_victim t code =
  if Cache.is_victim code then begin
    let addr = Cache.victim_addr code in
    let d1 = flush_dirty t.l1 ~addr in
    if d1 || Cache.victim_dirty code then ignore (Cache.set_dirty t.llc ~addr : bool)
  end

let handle_llc_victim t code =
  if Cache.is_victim code then begin
    let addr = Cache.victim_addr code in
    let d2 = flush_dirty t.l2 ~addr in
    let d1 = flush_dirty t.l1 ~addr in
    if d2 || d1 || Cache.victim_dirty code then begin
      t.writebacks <- t.writebacks + 1;
      t.on_writeback ~addr
    end
  end

let access_line t ~addr ~write =
  let v1 = Cache.access t.l1 ~addr ~write in
  if v1 = Cache.hit then 1
  else begin
    (* An L1 victim is present in L2 by inclusion; sink its dirt there. *)
    if Cache.victim_dirty v1 then
      ignore (Cache.set_dirty t.l2 ~addr:(Cache.victim_addr v1) : bool);
    let v2 = Cache.access t.l2 ~addr ~write:false in
    if v2 = Cache.hit then 2
    else begin
      handle_l2_victim t v2;
      let v3 = Cache.access t.llc ~addr ~write:false in
      if v3 = Cache.hit then 3
      else begin
        handle_llc_victim t v3;
        t.memory_accesses <- t.memory_accesses + 1;
        t.on_fill ~addr:(Units.align_down addr ~alignment:Units.cache_line) ~write;
        4
      end
    end
  end

let access t event =
  let write = Access.is_write event in
  for line = Units.line_of_addr event.Access.addr
      to Units.line_of_addr (Access.end_addr event - 1) do
    ignore (access_line t ~addr:(line * Units.cache_line) ~write : int)
  done

let flush_page t ~page =
  let dirty = ref [] in
  for i = 0 to Units.lines_per_page - 1 do
    let addr = (page * Units.page_size) + (i * Units.cache_line) in
    let d1 = flush_dirty t.l1 ~addr in
    let d2 = flush_dirty t.l2 ~addr in
    let d3 = flush_dirty t.llc ~addr in
    if d1 || d2 || d3 then dirty := addr :: !dirty
  done;
  List.rev !dirty

let resident_dirty_lines t ~page =
  let dirty = ref [] in
  for i = 0 to Units.lines_per_page - 1 do
    let addr = (page * Units.page_size) + (i * Units.cache_line) in
    if Cache.is_dirty t.l1 ~addr || Cache.is_dirty t.l2 ~addr || Cache.is_dirty t.llc ~addr
    then dirty := addr :: !dirty
  done;
  List.rev !dirty

let l1 t = t.l1
let l2 t = t.l2
let llc t = t.llc
let memory_accesses t = t.memory_accesses
let writebacks t = t.writebacks
