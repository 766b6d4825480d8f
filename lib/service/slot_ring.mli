(** Bounded MPMC ring of fixed-width int slots: the ingestion lanes and
    the completion lanes of {!Service}.

    A Vyukov-style ring over one flat int array with a sequence number per
    slot.  Each slot is [[seq]] followed by [width] payload ints, so a
    request crosses from the submitting domain to a worker, and its answer
    crosses back, without a record, an option or a list cell.

    - A producer claims a run of tickets with one CAS on [tail] ({!claim}),
      writes each ticket's fields with plain stores ({!set}) and publishes
      it with a release store of the slot's [seq] ({!publish}).  That store
      is the push's linearization point; consumers take entries in ticket
      order.
    - A consumer acquire-checks the [seq]s from [head], claims the run of
      ready slots with one CAS on [head], copies them into a caller-owned
      {!batch} and releases the slots ({!take}).
    - No lock is taken and no counter is written by both sides: producers
      write [tail], consumers [head].

    The ring never holds more entries than its capacity, which may be any
    positive number, not only a power of two.  A slot whose entry a
    consumer has claimed but not yet copied out is not free yet: a
    producer that needs it waits the few nanoseconds that copy takes.

    With {!Repro_fault.Inject} armed, a claim hits
    {!Repro_fault.Site.Queue_enq_cas} immediately before each [tail] CAS
    and a take hits {!Repro_fault.Site.Queue_deq_cas} immediately before
    each [head] CAS (a claim on a full ring and a take from an empty one
    hit nothing).  An injected crash therefore leaves no ticket claimed
    and no slot held.

    A consumer with nothing to take can {!park} until a push publishes an
    entry or {!wake} is called; no wake-up is lost (the ordering argument
    is in slot_ring.ml). *)

type t

val create : width:int -> int -> t
(** [create ~width capacity]: [capacity] slots of [width] payload ints.
    @raise Invalid_argument if [width < 1] or [capacity < 1]. *)

val capacity : t -> int

val length : t -> int
(** Tickets claimed and not yet taken: two atomic loads, always in
    [\[0, capacity\]], exact at quiescence. *)

(** {2 Producers} *)

val claim : t -> len:int -> int
(** [claim ring ~len] claims the next [len] tickets with one CAS on [tail]
    and returns the slot of the first, or returns [-1], claiming nothing,
    if the ring has room for fewer than [len] more entries.  The run's
    slots are that one and the {!next_slot}s after it.  The caller then
    {!set}s the fields of every claimed slot and {!publish}es it, without
    delay: consumers stop at the oldest ticket not yet published.
    Allocates nothing.  @raise Invalid_argument unless
    [1 <= len <= capacity]. *)

val claim_until : t -> len:int -> until_ns:int -> int
(** Retry {!claim} under {!Repro_util.Backoff} until it claims or
    {!Repro_obs.Clock.now_ns} reaches [until_ns]: the block-with-deadline
    admission policy.  [-1] iff the deadline passed. *)

val next_slot : t -> int -> int
(** The slot after slot [s], wrapping at the capacity. *)

val set : t -> int -> int -> int -> unit
(** [set ring s f v] writes field [f] ([0 <= f < width], unchecked) of
    claimed slot [s] with a plain store, which {!publish} makes
    visible. *)

val publish : t -> int -> unit
(** [publish ring s] release-stores claimed slot [s]'s [seq], handing its
    fields to consumers, and wakes the ring's parked consumer, if any. *)

val park : t -> stop:bool Atomic.t -> unit
(** [park ring ~stop] blocks the calling consumer until a push publishes
    an entry or {!wake} is called.  It returns at once if a ticket is
    already claimed past [head] (its entry is published moments later)
    or [stop] is already set; a [stop] set later is seen after a
    {!wake}.  It may return early, so the caller takes and, finding
    nothing, decides again.  At most one domain parks on a ring at a
    time. *)

val wake : t -> unit
(** Release the consumer parked on the ring, if any: a shutdown sets its
    [stop] flag, then wakes every ring. *)

(** {2 Consumers} *)

type batch
(** A consumer's reusable buffer of entries taken from a ring. *)

val batch : width:int -> int -> batch
(** [batch ~width size] holds up to [size] entries of [width] ints.
    @raise Invalid_argument if [width < 1] or [size < 1]. *)

val batch_size : batch -> int

val take : t -> batch -> max:int -> int
(** [take ring b ~max] moves up to [max] of the oldest entries, in ticket
    order, into entries [0 .. k-1] of [b] with one CAS on [head], releases
    their slots, and returns [k] ([0] iff the ring was empty, or its oldest
    ticket was claimed but not yet published).
    @raise Invalid_argument unless [1 <= max <= batch_size b] and [b] has
    the ring's width. *)

val get : batch -> int -> int -> int
(** [get b i f] reads field [f] ([0 <= f < width], unchecked) of entry [i]
    of [b], as it was set.
    @raise Invalid_argument if entry [i] is outside [b]. *)
