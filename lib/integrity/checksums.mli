(** Per-cache-line CRC32C table for a byte store.

    A memory node keeps one of these alongside its backing bytes: every
    trusted write recomputes the CRCs of the lines it touched and marks
    them {e recorded}; verification only ever considers recorded lines,
    so untouched (never-written) memory is never a false positive.

    The table does not see the store itself: callers pass [crc], a
    function from a line index (addr / 64) to the CRC32C of that line's
    {e current} store contents.  CRC slots are allocated lazily, per
    1024-line (64 KiB) chunk, on the first record that lands in the
    chunk; the recorded bitmap is allocated up front (one bit per line).

    The table is the software stand-in for the per-line ECC the paper's
    FPGA memory node would provide in hardware. *)

type t

val create : capacity:int -> t
(** [capacity] is the store size in bytes; must be a multiple of the
    cache-line size (64B). All lines start unrecorded. *)

val record : t -> crc:(int -> int) -> addr:int -> len:int -> unit
(** Record [crc line] for every line overlapping [addr, addr+len).
    This is the trusted-write primitive: callers must only invoke it
    when the store bytes are known-good. *)

val set_line : t -> line:int -> crc:int -> unit
(** Record a precomputed CRC for line index [line] (addr / 64) — used
    when the payload CRC was already verified on the wire, avoiding a
    recompute. *)

val recorded : t -> line:int -> bool

val line_ok : t -> crc:(int -> int) -> line:int -> bool
(** [true] when the line is unrecorded or its stored CRC equals
    [crc line]. *)

val corrupt_lines : t -> crc:(int -> int) -> addr:int -> len:int -> int list
(** Absolute byte addresses (line-aligned, ascending) of recorded lines
    in [addr, addr+len) whose stored CRC differs from [crc line]. *)

val recorded_count : t -> int
(** Number of recorded lines (for metrics/tests). *)
