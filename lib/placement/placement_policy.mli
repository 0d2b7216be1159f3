(** Pluggable rack-scale placement policies.

    A policy answers two questions for the rack controller:

    - {e where does a fresh slab go?} ([choose_node], consulted before the
      controller's round-robin fallback), and
    - {e which pages should move this epoch?} ([plan], consulted by the
      background migrator with the current heat ranking).

    Three implementations ship with the runtime:

    - [first_fit] — today's behavior: no opinion on allocation (the
      controller round-robins) and never migrates;
    - [heat_aware] — ships hot pages toward fast (low-latency) nodes and
      evicts cold pages off them to make room;
    - [centralized] — a MIND-style central directory: every placement
      decision goes through one stateful allocator that tracks per-node
      load and plans capacity-balancing moves.

    Policies must be deterministic: [plan] may depend only on its
    arguments and state accumulated from previous deterministic calls. *)

type node_info = {
  ni_node : int;  (** node id, index into the rack's WFQ array *)
  ni_fast : bool;  (** low-latency tier *)
  ni_free : int;  (** bytes still unreserved *)
  ni_capacity : int;  (** total bytes *)
  ni_draining : bool;  (** excluded from new placement; pages leaving *)
}

type page_info = {
  pi_vpage : int;  (** tenant-local virtual page index *)
  pi_tenant : int;  (** tenant index in the rack *)
  pi_node : int;  (** node currently holding the page *)
  pi_heat : int;  (** decayed heat counter *)
}

val hottest_first : page_info -> page_info -> int
(** Higher heat first, ties broken by lower (tenant, vpage). *)

(** One epoch's migratable pages, split at the first zero-heat page:
    [hot @ Lazy.force cold] is every candidate in {!hottest_first}
    order. *)
type pages = {
  hot : page_info list;
      (** Pages with nonzero heat, hottest first.  Built from the heat
          tables: O(hot pages). *)
  cold : page_info list Lazy.t;
      (** The zero-heat rest, in (tenant, vpage) order.  Forcing it walks
          every backed page, so a plan forces it only when it has to
          look at cold pages. *)
}

type move = {
  mv_tenant : int;
  mv_vpage : int;
  mv_dst : int;  (** destination node id *)
}

type t = {
  name : string;
  choose_node : nodes:node_info list -> tenant:int -> int option;
      (** Pick a node for a fresh slab; [None] defers to the
          controller's round-robin. Never returns a draining node. *)
  plan : nodes:node_info list -> pages:pages -> budget:int -> move list;
      (** Up to [budget] moves for this epoch. Returned moves must target
          live, non-draining nodes.  A plan reads [pages.hot] freely and
          forces [pages.cold] only when it needs cold pages: [first_fit]
          never does, [heat_aware] only to demote under fast-tier
          pressure, [centralized] only when some live node is
          overfull. *)
  stats : unit -> (string * int) list;
      (** Policy-internal counters for telemetry/debugging. *)
}

val first_fit : unit -> t
val heat_aware : ?hot_threshold:int -> unit -> t
val centralized : unit -> t

val names : string list
(** Accepted [--policy] spellings, in presentation order. *)

val find : string -> t
(** Policy by name ("first-fit" | "heat" | "centralized").
    Raises [Invalid_argument] on anything else. *)
