(** The [MakeSet] extension of Section 3 (remark) and Section 7.

    Elements are created on the fly: each [make_set] allocates a fresh node
    and assigns it a priority drawn uniformly from a 62-bit universe, with
    node index as the tie-break — the paper's recipe for generating the node
    order on the fly when there is no a-priori bound on [MakeSet]s ("assign
    to each new element a random number selected uniformly from a universe
    large enough that the chance of a tie is sufficiently small, and add a
    tie-breaking rule").

    There is no capacity: storage is a directory of {!chunk_size}-element
    chunks, each one flat {!Repro_util.Flat_atomic_array} holding the
    parent and priority words of its elements, and a cell is found with a
    shift and a mask.  [make_set] claims a slot with one fetch-and-add;
    when the slot lies past the directory it builds a chunk and publishes
    the longer directory with one CAS on an [Atomic], so growth takes no
    lock.  Element indices are stable forever.

    As the paper notes, in a setting where the universe grows without bound
    a [SameSet] or [Unite] can keep making progress forever while new
    elements join its sets, and a [make_set] can lose every directory CAS
    to other growers, so the algorithms are lock-free rather than
    wait-free here.

    Nodes must not be passed to [same_set]/[unite]/[find] before [make_set]
    returns them.

    This is not a {!Dsu_driver} layout: the Driver's callers (service, WAL
    recovery, crash drill, connectivity) work over a fixed universe and
    never call [make_set], so the structure is used directly
    ([Analysis.Steensgaard], experiment E12) and has no snapshot
    or restore. *)

val chunk_size : int
(** Elements per chunk, a power of two. *)

module Memory : Memory_intf.S
(** The chunk directory as the algorithm's shared memory, carrying its
    {!Memory_order.t} mode like {!Native_memory}; the structure runs
    [Dsu_algorithm.Make (Memory) (Dsu_algorithm.By_id (Memory))]. *)

type t

val create :
  ?policy:Find_policy.t ->
  ?early:bool ->
  ?backoff:bool ->
  ?memory_order:Memory_order.t ->
  ?collect_stats:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  ?seed:int ->
  unit ->
  t
(** An empty universe.  [backoff]/[memory_order] as in
    {!Dsu_native.create}.  Priorities are release-published by [make_set]
    and acquire-loaded by the linking order, independent of
    [memory_order]. *)

val make_set : t -> int
(** Allocate and return a fresh singleton element: [0], [1], ... in
    order of the fetch-and-add.  Lock-free; never fails. *)

val cardinal : t -> int
(** Number of elements created so far: the claimed slots that a published
    chunk covers. *)

val same_set : t -> int -> int -> bool
val unite : t -> int -> int -> unit
val find : t -> int -> int
val priority : t -> int -> int
(** These raise [Invalid_argument] on a node below 0 or at or past
    {!cardinal} — including a slot claimed by a [make_set] that crashed
    before its chunk was published. *)

val stats : t -> Dsu_stats.snapshot
val count_sets : t -> int
(** Quiescent only. *)
