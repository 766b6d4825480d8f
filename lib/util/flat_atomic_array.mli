(** A flat array of atomically accessed integers.

    Unlike an [int Atomic.t array] (one separately boxed heap block per
    cell, so every access pays a double indirection), this stores all cells contiguously in a single [int array] and performs
    sequentially consistent loads, stores and compare-and-swaps through C
    stubs built on the [__atomic] builtins.  This matches the paper's machine
    model — node [i]'s parent is word [i] of one shared array, and every
    link/splitting step is a single-word [Cas] — and restores spatial
    locality to the [find] hot path.

    Safety: cells hold immediates only, so no GC write barrier is required
    and word-sized aligned accesses cannot tear; see flat_atomic_stubs.c.

    With [~padded:true] each logical cell occupies its own 64-byte cache
    line (stride 8 words), for false-sharing ablation; indices are unchanged,
    only the memory footprint grows 8x. *)

type t

val make : ?padded:bool -> int -> (int -> int) -> t
(** [make n f] creates an array of length [n] with cell [i] holding [f i].
    [padded] (default [false]) gives every cell its own cache line.
    @raise Invalid_argument if [n < 0]. *)

val length : t -> int

val padded : t -> bool
(** Whether the array was created with [~padded:true]. *)

val get : t -> int -> int
(** Atomic (seq_cst) load.  @raise Invalid_argument on out-of-bounds. *)

val set : t -> int -> int -> unit
(** Atomic (seq_cst) store.  @raise Invalid_argument on out-of-bounds. *)

val cas : t -> int -> int -> int -> bool
(** [cas t i expected desired] is a single-word compare-and-swap on cell
    [i].  @raise Invalid_argument on out-of-bounds. *)

val fetch_add : t -> int -> int -> int
(** [fetch_add t i delta] atomically adds [delta] to cell [i] and returns
    the previous value.  @raise Invalid_argument on out-of-bounds. *)

(** {2 Explicit memory orders}

    Weaker-than-seq-cst accesses for the tuned DSU hot path.  All of them
    share the seq-cst primitives' memory-safety argument (immediates only,
    word-aligned word-sized accesses: no tearing, no GC barrier); what
    changes is only the visibility contract, documented per function.  See
    flat_atomic_stubs.c and docs/PERFORMANCE.md ("Memory model &
    ordering"). *)

val get_acquire : t -> int -> int
(** Acquire load: synchronises with the store/CAS that published the read
    value, so everything that happened-before that write is visible after
    the load.  Sufficient for parent reads — the DSU only needs to see a
    value that {e was} the cell's content, plus the writes the linker
    published before installing it.
    @raise Invalid_argument on out-of-bounds. *)

val get_relaxed : t -> int -> int
(** Relaxed atomic load: no ordering at all, the C-level twin of
    {!unsafe_load}'s plain read.  May observe stale values; callers must
    tolerate staleness (a stale parent is still an ancestor and every
    write is re-validated by CAS).
    @raise Invalid_argument on out-of-bounds. *)

val set_release : t -> int -> int -> unit
(** Release store: publishes all program-order-prior writes to any thread
    that acquire-loads the stored value.
    @raise Invalid_argument on out-of-bounds. *)

val cas_weak : t -> int -> int -> int -> bool
(** [cas_weak t i expected desired]: compare-and-swap that {e may fail
    spuriously} — return [false] with the cell unchanged even though it
    held [expected].  Acq_rel on success, acquire on failure.  Use only
    where a failed try needs no distinct handling from a lost race, e.g.
    the DSU's one-try/two-try splitting (a spurious failure is exactly a
    failed try, Algorithms 4/5 allow it).
    @raise Invalid_argument on out-of-bounds. *)

val prefetch : t -> int -> unit
(** Hint the hardware to pull cell [i] into cache (read intent).  Purely
    advisory — never faults and performs no architectural memory access.
    Out-of-range indices are silently ignored (no exception): batch
    kernels prefetch ahead of validation. *)

val unsafe_load : t -> int -> int
(** Unchecked {e plain} load — a single inline memory read, no C call and
    no fence.  Memory-safe (immediates cannot tear) but racing reads may
    return stale values; callers must tolerate staleness the way the DSU
    does (a stale parent is still an ancestor; CAS re-validates writes).
    Prefer {!get}/{!unsafe_get} unless the load is on a measured hot
    path. *)

val unsafe_store : t -> int -> int -> unit
(** Unchecked {e plain} store, the twin of {!unsafe_load}: a single inline
    memory write, no C call and no fence.  Memory-safe (immediates need no
    GC barrier), but another domain may see it late, or out of order with
    the writer's other plain stores; publish it with a later
    {!set_release} / {!unsafe_set_release} that the reader acquires. *)

val unsafe_get : t -> int -> int
val unsafe_set : t -> int -> int -> unit
val unsafe_cas : t -> int -> int -> int -> bool
val unsafe_fetch_add : t -> int -> int -> int
val unsafe_get_acquire : t -> int -> int
val unsafe_get_relaxed : t -> int -> int
val unsafe_set_release : t -> int -> int -> unit
val unsafe_cas_weak : t -> int -> int -> int -> bool
val unsafe_prefetch : t -> int -> unit
(** Unchecked variants for hot paths whose indices are already validated
    (the DSU checks node arguments at operation entry, and every parent
    value is in range by construction). *)

val snapshot : t -> int array
(** Per-cell {e acquire} loads collected into a plain array: each cell
    value read synchronises with the store/CAS that published it, so a
    snapshotted link is fully published (its priority/metadata writes are
    visible too) regardless of which memory-order mode produced it.  Still
    not a consistent cut under concurrent writers; intended for quiescent
    inspection. *)
