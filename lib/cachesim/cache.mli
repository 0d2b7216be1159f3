(** A single set-associative, write-back, write-allocate cache level with
    true-LRU replacement.

    Block granularity is configurable: 64B for CPU cache levels, 4KB (page)
    blocks when the same structure models Kona's FMem page cache or the
    KCacheSim DRAM-cache stage (the paper's Fig. 8d sweeps this block
    size). *)

type t

val create : name:string -> size:int -> assoc:int -> block:int -> t
(** [size] and [block] in bytes; [assoc] ways.  All three must be positive,
    [block] a power of two of at least 2, and [size] a multiple of
    [assoc * block]. *)

val name : t -> string
val block_size : t -> int
val sets : t -> int

(** {2 Access codes}

    [access] and [flush_block] return a plain [int] so the per-access path
    allocates nothing:

    - {!hit} ([-1]): the block was resident;
    - {!no_victim} ([-2]): [access] missed and filled an invalid way, or
      [flush_block] found nothing to invalidate;
    - any code [>= 0] names a victim: the byte address of its block start
      ({!victim_addr}) with bit 0 set if the block was dirty
      ({!victim_dirty}).  Blocks are at least 2 bytes, so bit 0 of a block
      address is always free. *)

val hit : int
val no_victim : int

val is_victim : int -> bool
(** The code names a victim block ([code >= 0]). *)

val victim_addr : int -> int
(** Block start address of a victim code. *)

val victim_dirty : int -> bool
(** The code names a victim whose block was dirty; false for {!hit} and
    {!no_victim}. *)

val access : t -> addr:int -> write:bool -> int
(** Look up the block containing byte [addr] (non-negative) and return its
    access code.
    On a miss, allocate the block (for both reads and writes:
    write-allocate), evicting the least-recently-used way if the set was
    full.  A write marks the block dirty. *)

val probe : t -> addr:int -> bool
(** Presence check without touching LRU state or statistics. *)

val is_dirty : t -> addr:int -> bool

val flush_block : t -> addr:int -> int
(** Invalidate the block containing [addr] if present and return it as a
    victim code (with its dirty bit) so the caller can propagate the
    writeback; {!no_victim} if it was absent. *)

val set_dirty : t -> addr:int -> bool
(** Mark the block containing [addr] dirty if resident (no LRU/stat
    effects); returns whether it was resident.  Used by the hierarchy to
    sink an upper level's writeback into this level. *)

val iter_resident : t -> (block_addr:int -> dirty:bool -> unit) -> unit
(** Enumerate resident blocks (tests, snooping sweeps). *)

(** {2 Statistics} *)

type stats = {
  reads : int;
  writes : int;
  read_misses : int;
  write_misses : int;
  evictions : int;
  dirty_evictions : int;
}

val stats : t -> stats
val miss_rate : stats -> float
(** Total misses over total accesses; 0 when idle. *)

val reset_stats : t -> unit
