open Kona_util

let chunk_lines = 1024 (* 64 KiB of store per CRC slot array *)

type t = {
  crcs : int array array;
      (* per-chunk CRC32C slots, [no_slots] until the chunk's first
         record; a slot is meaningful only when its line is recorded *)
  recorded : Bytes.t; (* bitmap, one bit per line *)
  lines : int;
  mutable nrecorded : int;
}

let no_slots : int array = [||]

let create ~capacity =
  if capacity <= 0 || capacity mod Units.cache_line <> 0 then
    invalid_arg "Checksums.create: capacity must be a positive multiple of 64";
  let lines = capacity / Units.cache_line in
  {
    crcs = Array.make ((lines + chunk_lines - 1) / chunk_lines) no_slots;
    recorded = Bytes.make ((lines + 7) / 8) '\000';
    lines;
    nrecorded = 0;
  }

let is_recorded t line =
  Char.code (Bytes.get t.recorded (line lsr 3)) land (1 lsl (line land 7)) <> 0

(* Only ever called on recorded lines, whose chunk has its slots. *)
let stored t line = t.crcs.(line / chunk_lines).(line mod chunk_lines)

let recorded t ~line =
  if line < 0 || line >= t.lines then invalid_arg "Checksums.recorded";
  is_recorded t line

let set_line t ~line ~crc =
  if line < 0 || line >= t.lines then invalid_arg "Checksums.set_line";
  let c = line / chunk_lines in
  if t.crcs.(c) == no_slots then t.crcs.(c) <- Array.make chunk_lines 0;
  t.crcs.(c).(line mod chunk_lines) <- crc;
  if not (is_recorded t line) then begin
    let byte = line lsr 3 in
    Bytes.set t.recorded byte
      (Char.chr (Char.code (Bytes.get t.recorded byte) lor (1 lsl (line land 7))));
    t.nrecorded <- t.nrecorded + 1
  end

(* Line indices overlapping [addr, addr+len), or [None] when empty. *)
let span t ~addr ~len ~what =
  if len <= 0 then None
  else begin
    let first = addr / Units.cache_line in
    let last = (addr + len - 1) / Units.cache_line in
    if addr < 0 || last >= t.lines then invalid_arg what;
    Some (first, last)
  end

let record t ~crc ~addr ~len =
  match span t ~addr ~len ~what:"Checksums.record" with
  | None -> ()
  | Some (first, last) ->
      for line = first to last do
        set_line t ~line ~crc:(crc line)
      done

let line_ok t ~crc ~line =
  if line < 0 || line >= t.lines then invalid_arg "Checksums.line_ok";
  (not (is_recorded t line)) || stored t line = crc line

let corrupt_lines t ~crc ~addr ~len =
  match span t ~addr ~len ~what:"Checksums.corrupt_lines" with
  | None -> []
  | Some (first, last) ->
      let acc = ref [] in
      for line = last downto first do
        if is_recorded t line && stored t line <> crc line then
          acc := (line * Units.cache_line) :: !acc
      done;
      !acc

let recorded_count t = t.nrecorded
