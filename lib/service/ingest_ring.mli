(** Bounded MPMC ring of unboxed requests: the ingestion lanes of
    {!Service}.

    A Vyukov-style ring over one flat int array with a sequence number per
    slot.  Each slot is one 8-word cache line's worth of ints
    [[seq; id; session; kind; x; y; intended_ns; deadline_ns]], so a
    request crosses from the submitting domain to the worker without a
    record, an option or a list cell.

    - A producer claims a ticket with one CAS on [tail], writes the fields
      with plain stores and publishes them with a release store of the
      slot's [seq].  That store is the push's linearization point;
      consumers take requests in ticket order.
    - A consumer acquire-checks the [seq]s from [head], claims the run of
      ready slots with one CAS on [head], copies them into a caller-owned
      {!batch} and releases the slots.
    - No lock is taken and no counter is written by both sides: producers
      write [tail], consumers [head].

    The ring never holds more requests than its capacity, which may be
    any positive number, not only a power of two.  A slot whose request a
    consumer has claimed but not yet copied out still reads full to a
    producer, for as long as that copy takes.

    With {!Repro_fault.Inject} armed, a push hits
    {!Repro_fault.Site.Queue_enq_cas} immediately before each [tail] CAS
    and a take hits {!Repro_fault.Site.Queue_deq_cas} immediately before
    each [head] CAS (a push to a full ring and a take from an empty one
    hit nothing).  An injected crash therefore leaves no ticket claimed
    and no slot held.

    A consumer with nothing to take can {!park} until a push publishes a
    request or {!wake} is called; no wake-up is lost (the ordering
    argument is in ingest_ring.ml). *)

type t

val create : int -> t
(** [create capacity].  @raise Invalid_argument if [capacity < 1]. *)

val length : t -> int
(** Tickets claimed and not yet taken: two atomic loads, always in
    [\[0, capacity\]], exact at quiescence. *)

val try_push :
  t ->
  id:int ->
  session:int ->
  kind:int ->
  x:int ->
  y:int ->
  intended_ns:int ->
  deadline_ns:int ->
  bool
(** [false] iff the ring was full: the reject admission policy.  A push
    that publishes into the ring of a parked consumer wakes it.
    Allocates nothing. *)

val push_until :
  t ->
  until_ns:int ->
  id:int ->
  session:int ->
  kind:int ->
  x:int ->
  y:int ->
  intended_ns:int ->
  deadline_ns:int ->
  bool
(** Retry {!try_push} under {!Repro_util.Backoff} until it succeeds or
    {!Repro_obs.Clock.now_ns} reaches [until_ns]: the block-with-deadline
    admission policy.  [false] iff the deadline passed. *)

val park : t -> stop:bool Atomic.t -> unit
(** [park ring ~stop] blocks the calling consumer until a push publishes
    a request or {!wake} is called.  It returns at once if a ticket is
    already claimed past [head] (its request is published moments later)
    or [stop] is already set; a [stop] set later is seen after a
    {!wake}.  It may return early, so the caller takes and, finding
    nothing, decides again.  At most one domain parks on a ring at a
    time. *)

val wake : t -> unit
(** Release the consumer parked on the ring, if any: a shutdown sets its
    [stop] flag, then wakes every ring. *)

type batch
(** A consumer's reusable buffer of requests taken from the ring. *)

val batch : int -> batch
(** [batch size] holds up to [size] requests.
    @raise Invalid_argument if [size < 1]. *)

val take : t -> batch -> max:int -> int
(** [take ring b ~max] moves up to [max] of the oldest requests, in ticket
    order, into entries [0 .. k-1] of [b] with one CAS on [head], releases
    their slots, and returns [k] ([0] iff the ring was empty, or its oldest
    ticket was claimed but not yet published).  The worker's drain and the
    shed-oldest displacement ([~max:1]) are both this call.
    @raise Invalid_argument unless [1 <= max <= size of b]. *)

(** {2 Fields of a taken request}

    [f b i] reads field [f] of entry [i] of [b], as pushed.
    @raise Invalid_argument if [i] is outside [b]. *)

val id : batch -> int -> int
val session : batch -> int -> int
val kind : batch -> int -> int
val x : batch -> int -> int
val y : batch -> int -> int
val intended_ns : batch -> int -> int
val deadline_ns : batch -> int -> int
