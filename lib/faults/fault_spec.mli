(** Fault plans (§4.5 failure modes, made injectable).

    A plan is a list of clauses in the {!Kona_util.Clause} grammar;
    probabilities are floats in [0, 1].  Kinds:

    - [node-crash@2ms:id=1] — memory node [id] fail-stops at virtual time
      2 ms (failure mode 3; recovered by replica failover when mirrors
      exist, reported as graceful degradation otherwise);
    - [link-flap@1ms:dur=200us] — the shared NIC port carries no traffic
      for the window (failure mode 2; absorbed by the MCE path);
    - [partition@2ms:dur=500us,nodes=0|1] — an asymmetric partition: the
      named memory nodes stay alive but their links drop control and
      data traffic for the window.  Distinct from fail-stop [node-crash]:
      under lease-based membership a partitioned node misses heartbeats
      and can be {e falsely} declared dead, and its deferred writes land
      after the heal — the split-brain scenario fencing must absorb;
    - [rpc-timeout:p=0.01] — each control-plane RPC independently times
      out with probability [p] and is retried with backoff;
    - [wqe-drop:p=0.001] — each posted WQE transmission attempt is lost
      with probability [p], exercising the QP retransmission machinery;
    - [wqe-delay:p=0.01,ns=5us] — each WQE is delayed by [ns] with
      probability [p];
    - [bit-flip:p=0.01] — after a CL-log shipment lands, one bit of one
      delivered line is flipped at rest on one copy with probability [p]
      (per shipment), exercising checksum scrub-and-repair;
    - [torn-write:p=0.01] — one copy of a CL-log shipment arrives torn:
      the tail lines of one entry are corrupted in flight, exercising
      wire-CRC rejection and quarantine;
    - [stale-read:p=0.01] — each verified demand fetch independently
      returns a stale image with probability [p] and must be detected
      and retried (requires checksum verification to be on);
    - [dup-deliver:p=0.01] — each CL-log shipment is redelivered to the
      primary at the next flush with probability [p], exercising
      sequence-number duplicate rejection.

    All probabilistic draws come from a seeded splitmix stream, so a plan
    plus a seed reproduces the same faults bit-for-bit.

    Scheduled kinds need a trigger time and probabilistic kinds take
    none: [bit-flip@2ms:p=0.1] is an error, not a plan armed at t=0.
    A plan may not repeat a probabilistic kind (e.g. two [wqe-drop]
    clauses): [parse] rejects it with a named error rather than letting
    the last clause silently win.  Scheduled kinds ([node-crash],
    [link-flap], [partition]) may appear any number of times. *)

type clause =
  | Node_crash of { at_ns : int; id : int }
  | Link_flap of { at_ns : int; dur_ns : int }
  | Partition of { at_ns : int; dur_ns : int; ids : int list }
  | Rpc_timeout of { p : float }
  | Wqe_drop of { p : float }
  | Wqe_delay of { p : float; delay_ns : int }
  | Bit_flip of { p : float }
  | Torn_write of { p : float }
  | Stale_read of { p : float }
  | Dup_deliver of { p : float }

type t = clause list

val kinds : (string * (Kona_util.Clause.t -> clause)) list
(** The kind table: each kind's converter from a lexed clause.
    Scheduled kinds require a trigger time; probabilistic kinds reject
    one. *)

val scheduled_kinds : string list
(** The kinds that take a trigger time: [node-crash], [link-flap] and
    [partition]. *)

val to_clause : clause -> Kona_util.Clause.t
(** The inverse of the kind table. *)

val parse : string -> (t, string) result
(** Parse a [';']-separated plan; the empty string is the empty plan. *)

val parse_exn : string -> t
(** Raises [Invalid_argument] with the parse error. *)

val to_string : t -> string
(** Canonical round-trippable rendering ([parse (to_string p)] = [Ok p]). *)

val pp : Format.formatter -> t -> unit
