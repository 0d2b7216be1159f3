(** Per-page heat tracking on a virtual-clock epoch.

    Every demand fetch and eviction of a page bumps its counter; counters
    decay by halving once per elapsed [epoch_ns] of virtual time.  Decay
    is lazy — a counter is brought current only when touched or read — so
    tracking cost is O(1) per event and the table never needs a sweep.

    Determinism: heat is a pure function of the stream of events and
    {!fold}s with their virtual times, so the same seeds produce the same
    heat and hence the same migration plans. *)

type t

val create : epoch_ns:int -> t
(** Raises [Invalid_argument] on a non-positive epoch. *)

val epoch_ns : t -> int

val touch : t -> vpage:int -> weight:int -> now:int -> unit
(** Fold one access event of [weight] into [vpage]'s counter at virtual
    time [now] (decaying it first). *)

val heat : t -> vpage:int -> now:int -> int
(** [vpage]'s counter decayed to [now]; 0 for untracked pages. *)

val fold : t -> now:int -> (vpage:int -> heat:int -> 'a -> 'a) -> 'a -> 'a
(** Settle every page with a nonzero counter to [now] and fold [f] over
    those still nonzero, in unspecified order.  Costs O(pages with
    nonzero heat): a page the fold finds at 0 leaves the fold's working
    set until its next {!touch}.

    That is invisible to {!heat} and {!touch}: they behave exactly as if
    each fold had settled every page ever touched — including a fold at
    a [now] ahead of a later {!touch} (another tenant's clock ran ahead),
    which keeps that touch's weight from decaying at the epoch boundary
    the fold already crossed. *)

val tracked : t -> int
(** Pages {!fold} would visit: those touched since, or nonzero at, the
    last fold. *)

val touches : t -> int
(** Total events folded in. *)
