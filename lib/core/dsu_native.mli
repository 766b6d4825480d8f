(** Concurrent disjoint set union over OCaml 5 domains.

    This is the main user-facing module: the paper's wait-free, linearizable
    randomized-linking DSU instantiated on [Atomic]-backed shared memory.
    All operations may be called concurrently from any number of domains.

    {1 Quick start}

    {[
      let rng_seed = 42 in
      let d = Dsu.Dsu_native.create ~seed:rng_seed 1_000_000 in
      Dsu_native.unite d 1 2;
      assert (Dsu_native.same_set d 1 2)
    ]} *)

type t

val create :
  ?policy:Find_policy.t ->
  ?early:bool ->
  ?memory_order:Memory_order.t ->
  ?collect_stats:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  ?seed:int ->
  int ->
  t
(** [create n] makes [n] singleton sets, nodes numbered [0 .. n-1].

    - [policy] selects the [Find] variant (default {!Find_policy.Two_try_splitting},
      the paper's best).
    - [early] enables the early-termination [SameSet]/[Unite] of Section 6
      (default [false]).
    - [memory_order] picks the parent-load ordering mode (default
      {!Memory_order.Relaxed_reads}); [Seq_cst] is the fully fenced
      baseline kept for A/B runs.  See {!Memory_order} and
      docs/PERFORMANCE.md ("Memory model & ordering").
    - [collect_stats] enables the atomic operation counters (default
      [false]; they cost a fetch-and-add per event).
    - [on_link] is called after each successful link with the union-forest
      edge; it runs concurrently with other operations, so it must be
      thread-safe.  Used by the forest-shape experiments.
    - [seed] fixes the random node order for reproducibility; omitting it
      uses a self-initializing seed (drawn from an atomic counter, so
      concurrent [create] calls never share one). *)

val n : t -> int

val same_set : t -> int -> int -> bool
(** [same_set t x y] is linearizable: true iff [x] and [y] were in the same
    set at the linearization point (Algorithm 2, or 6 with [~early:true]). *)

val unite : t -> int -> int -> unit
(** Merge the sets of [x] and [y] (Algorithm 3, or 7 with [~early:true]).
    Wait-free: completes regardless of other processes' speeds.  A failed
    link CAS is followed by a bounded exponential backoff
    ({!Repro_util.Backoff}) before the next round. *)

val find : t -> int -> int
(** Current root of [x]'s tree.  The returned node was the root of [x]'s set
    at the operation's linearization point; roots change as unions occur, so
    treat it as a same-set witness, not a stable canonical name. *)

val unite_batch : ?len:int -> t -> int array -> int array -> unit
(** [unite_batch t xs ys] unites [xs.(k), ys.(k)] for every [k] (only
    [k < len] when [len] is given) through the bulk kernel: per-call
    direct-mapped root cache plus parent-cell prefetching a fixed
    distance ahead.  Equivalent to a per-element
    [unite] loop (linearizable per element, not atomic as a whole) but
    measurably faster on large batches; see docs/PERFORMANCE.md.
    @raise Invalid_argument on length mismatch (or [len] outside either
    array) or out-of-range nodes. *)

val same_set_batch : t -> int array -> int array -> bool array
(** [same_set_batch t xs ys].(k) = [same_set t xs.(k) ys.(k)], through the
    same bulk kernel machinery as {!unite_batch}.
    @raise Invalid_argument on length mismatch or out-of-range nodes. *)

val find_batch : t -> int array -> int array
(** [find_batch t xs].(k) = [find t xs.(k)], through the same bulk kernel
    machinery as {!unite_batch}.  Per-element linearizable; a quiescent
    caller (e.g. a connectivity label pass) gets a consistent labelling.
    @raise Invalid_argument on out-of-range nodes. *)

val memory_order : t -> Memory_order.t
(** The parent-load ordering mode this structure was created with. *)

val id : t -> int -> int
(** The node's position in the random total order (the linking priority). *)

val parent_of : t -> int -> int
val is_root : t -> int -> bool

val count_sets : t -> int
(** Number of sets.  Accurate only at quiescence (no concurrent updates). *)

val stats : t -> Dsu_stats.snapshot
(** Counter snapshot; all zeros unless [collect_stats] was set. *)

val reset_stats : t -> unit

val invariant_violations : t -> (int * int) list
(** Pairs [(node, parent)] violating the id-monotonicity invariant of
    Lemma 3.1; always empty unless the implementation is broken.  For tests. *)

val parents_snapshot : t -> int array
(** Per-cell reads of the parent array; consistent only at quiescence. *)

val ids_snapshot : t -> int array
(** The random node order as an array ([ids_snapshot t].(i) = [id t i]). *)

val snapshot_fuzzy : t -> int array * int array
(** [(parents, ids)] from a {e fuzzy} (non-quiescent) scan: per-cell
    acquire loads racing the mutators.  Lemma 3.1's ancestor monotonicity
    makes any such cut a valid forest — every scanned edge existed at the
    instant its cell was read, so the cut refines the final partition and
    still satisfies the linking order.  Each cell read is preceded by a
    {!Repro_fault.Site.Snapshot_read} hit so a chaos plan can crash the
    snapshotter mid-scan.  See {!Repro_durable.Fuzzy}. *)

val sets : t -> int list list
(** The partition as sorted classes (sorted by smallest member).  Quiescent
    only. *)

type snapshot
(** A serializable image of the structure (parents + node order), taken and
    restored at quiescence — persistence for checkpoint/restart uses. *)

val snapshot : t -> snapshot

val restore :
  ?policy:Find_policy.t ->
  ?early:bool ->
  ?memory_order:Memory_order.t ->
  ?collect_stats:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  snapshot ->
  t
(** A fresh structure with the same partition, node order and tree shape;
    policy/early/memory_order may differ from the original's. *)

val of_snapshot :
  ?policy:Find_policy.t ->
  ?early:bool ->
  ?memory_order:Memory_order.t ->
  ?collect_stats:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  parents:int array ->
  ids:int array ->
  unit ->
  t
(** [restore] over raw arrays — the constructor {!Repro_recover.Restore}
    uses.  Same validation (ids a permutation, parents in range and
    order-increasing); raises [Invalid_argument] otherwise. *)

val snapshot_to_string : snapshot -> string
val snapshot_of_string : string -> snapshot
(** Raises [Invalid_argument] on malformed input. *)
