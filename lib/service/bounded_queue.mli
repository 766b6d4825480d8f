(** Bounded MPMC queue with explicit backpressure: the ingestion and
    completion lanes of {!Service}.

    A hybrid of the Michael-Scott two-lock queue (producers serialize on
    one mutex, consumers on another, so the two sides never contend) and
    a lock-free occupancy probe: a single atomic [size] counter,
    incremented after publish under the enqueue lock and decremented
    after take under the dequeue lock, makes the full/empty fast paths a
    single atomic load.  A producer spinning against a full queue — the
    backpressure case — never touches a lock and therefore never slows
    the consumers draining it.

    Admission is always explicit: {!try_enqueue} fails fast when full,
    {!enqueue_until} bounds the wait by a deadline, and {!shed_enqueue}
    always admits but hands back the displaced oldest element so the
    caller can answer its submitter — nothing is ever dropped silently.
    {!shed_enqueue_batch} is the same policy for a run of elements under
    one lock acquisition, counting what it displaced.

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

val try_enqueue : 'a t -> 'a -> bool
(** [false] iff the queue was full — the reject admission policy. *)

val enqueue_until : 'a t -> deadline_ns:int -> 'a -> bool
(** Retry {!try_enqueue} under {!Repro_util.Backoff} until it succeeds or
    {!Repro_obs.Clock.now_ns} passes [deadline_ns] — the block-with-
    deadline admission policy.  [false] iff the deadline expired. *)

val shed_enqueue : 'a t -> 'a -> 'a option
(** Always admits.  Returns [Some oldest] when the queue was full and the
    oldest element was displaced to make room — the shed-oldest admission
    policy; the caller owes the displaced element a response. *)

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

val dequeue_opt : 'a t -> 'a option

val dequeue_batch : 'a t -> max:int -> 'a list
(** Up to [max] elements, FIFO order, taken under one lock acquisition
    and published with one occupancy update — the worker drain path.
    @raise Invalid_argument if [max < 1]. *)
