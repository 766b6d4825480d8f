(** Bounded MPMC queue with explicit displacement: the completion lanes
    of {!Service} (its ingestion lanes are {!Ingest_ring}).

    A hybrid of the Michael-Scott two-lock queue (producers serialize on
    one mutex, consumers on another, so the two sides never contend) and
    a lock-free occupancy probe: a single atomic [size] counter,
    incremented after publish under the enqueue lock and decremented
    after take under the dequeue lock, makes the empty fast path a single
    atomic load: a consumer polling an empty queue never touches a lock.

    {!shed_enqueue} always admits but hands back the displaced oldest
    element, so nothing is ever dropped silently; {!shed_enqueue_batch}
    is the same policy for a run of elements under one lock acquisition,
    counting what it displaced.

    With {!Repro_fault.Inject} armed, every operation hits
    {!Repro_fault.Site.Queue_enq_cas} / {!Repro_fault.Site.Queue_deq_cas}
    {e before} acquiring any lock, so injected crash-stop cannot leave a
    mutex held. *)

type 'a t

val create : int -> 'a t
(** [create capacity].  @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Published occupancy: one atomic load, always in [0, capacity]. *)

val is_empty : 'a t -> bool

val shed_enqueue : 'a t -> 'a -> 'a option
(** Always admits.  Returns [Some oldest] when the queue was full and the
    oldest element was displaced to make room; the caller owes the
    displaced element whatever it was owed. *)

val shed_enqueue_batch : 'a t -> 'a array -> pos:int -> len:int -> int
(** [shed_enqueue_batch q a ~pos ~len] admits [a.(pos) .. a.(pos+len-1)]
    in order under one enqueue-lock acquisition and one occupancy
    publish, with the outcome of [len] successive {!shed_enqueue}s: the
    queue then holds the newest [capacity] of its old contents followed
    by the run.  Returns how many elements were displaced (queued ones
    oldest first, then — when [len > capacity] — the run's own first
    [len - capacity]); they are dropped, so a caller that owes them a
    response must size the queue so that this returns 0.  [len = 0] is a
    no-op.  @raise Invalid_argument if the range is outside [a]. *)

val dequeue_batch : 'a t -> max:int -> 'a list
(** Up to [max] elements, FIFO order, taken under one lock acquisition
    and published with one occupancy update — a client's poll.
    @raise Invalid_argument if [max < 1]. *)
