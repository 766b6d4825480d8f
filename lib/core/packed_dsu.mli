(** Concurrent linking-by-rank DSU over a bit-packed single word per node
    (the GBBS [jayanti.h] layout): parent index, rank and a root flag in
    fixed bit fields of one 63-bit OCaml int, so link and split each stay
    a single CAS and every unpack is a mask/shift rather than the
    division by the non-constant [n] that arithmetic [rank * n + parent]
    coding needs.

    {v
      bit 61        root flag (set iff the node is a tree root)
      bits 40..60   rank (21 bits)
      bits  0..39   parent index (40 bits)
    v}

    The structure is an instance of {!Dsu_algorithm.Make}: the shared find
    loops, rounds and batch kernels run over the parent-field {!View} of
    the words, and only the link step ({!By_rank}) is specific to this
    rule.  The layout bounds the universe to [n <= 2^40] (checked at
    [create]); ranks are bounded by [ceil(lg n) <= 40], far below the
    field's [2^21 - 1].  Linking is by rank (ties by node index), so the
    bounds need no independence assumption.  Early termination needs an
    order that never changes, so [~early] is not offered.  See
    docs/PERFORMANCE.md for the measured numbers. *)

(** {2 Word layout}

    Exposed for tests, the snapshot codec and documentation; all pure. *)

val parent_bits : int
val rank_bits : int
val max_nodes : int
(** [2^parent_bits], the largest supported universe. *)

val max_rank : int
(** [2^rank_bits - 1], the largest encodable rank. *)

val is_root_word : int -> bool
val parent_of_word : int -> int
val rank_of_word : int -> int
val root_word : rank:int -> node:int -> int
val child_word : rank:int -> parent:int -> int

val init_word : int -> int
(** [init_word i] is node [i]'s initial word: rank 0, root flag set. *)

module View (M : Memory_intf.S) : Memory_intf.S with type t = M.t
(** A packed memory seen as a parent array: [read] returns the parent
    field (a root's is its own index), and the CASes swing the parent
    field with the rank bits preserved, re-reading the word first. *)

module By_rank (M : Memory_intf.S) : Dsu_algorithm.LINK with type mem = M.t
(** Linking by rank over packed words: of two roots, the lower
    [(rank, index)] goes below the other by one CAS against the word its
    rank was read from; on a rank tie the new parent's rank is promoted by
    a best-effort CAS.  Fires {!Repro_fault.Site.Rank_read} after reading
    the two words, and ignores [prio]. *)

(** Native instantiation over {!Native_memory} ([Flat_atomic_array] with
    explicit-order loads); safe from any number of domains. *)
module Native : sig
  type t

  val create :
    ?policy:Find_policy.t ->
    ?backoff:bool ->
    ?memory_order:Memory_order.t ->
    ?collect_stats:bool ->
    ?padded:bool ->
    ?on_link:(child:int -> parent:int -> unit) ->
    int ->
    t
  (** [policy] (default two-try splitting) is any of the five
      {!Find_policy} compaction rules, with rank-preserving updates;
      [memory_order] as in {!Dsu_native.create} (default
      {!Memory_order.Relaxed_reads}); [padded] spreads one word per cache
      line; [on_link] fires after every successful link CAS (the WAL hook
      point, {!Repro_durable.Wal}); [backoff] as in {!Dsu_native.create}.
      @raise Invalid_argument unless [1 <= n <= max_nodes]. *)

  val n : t -> int
  val policy : t -> Find_policy.t
  val backoff : t -> bool
  val find : t -> int -> int
  val same_set : t -> int -> int -> bool
  val unite : t -> int -> int -> unit
  val unite_batch : ?len:int -> t -> int array -> int array -> unit
  val same_set_batch : t -> int array -> int array -> bool array
  val find_batch : t -> int array -> int array
  val parent_of : t -> int -> int
  val rank_of : t -> int -> int
  val is_root : t -> int -> bool

  val count_sets : t -> int
  (** Quiescent only. *)

  val stats : t -> Dsu_stats.snapshot

  val invariant_violations : t -> (int * int) list
  (** Pairs [(node, parent)] breaking the rank order (every non-root must
      point to a larger rank, ties broken upward by index) or whose root
      flag disagrees with the parent field; empty on a correct
      structure.  Quiescent only. *)

  val memory_order : t -> Memory_order.t
  val parents_snapshot : t -> int array
  val ranks_snapshot : t -> int array

  val snapshot_fuzzy : t -> int array * int array
  (** Fuzzy (non-quiescent) [(parents, ranks)] scan — one word read per
      node with {!Repro_fault.Site.Snapshot_read} hits; racing rank
      promotions can leave cross-node [(rank, index)] order violations
      for the {!Repro_durable.Fuzzy} reconciliation pass to repair.  See
      {!Dsu_native.snapshot_fuzzy}. *)

  val of_snapshot :
    ?policy:Find_policy.t ->
    ?backoff:bool ->
    ?memory_order:Memory_order.t ->
    ?collect_stats:bool ->
    ?padded:bool ->
    ?on_link:(child:int -> parent:int -> unit) ->
    parents:int array ->
    ranks:int array ->
    unit ->
    t
  (** A fresh structure with the given forest and ranks re-packed into
      words.  @raise Invalid_argument on length mismatch, out-of-range
      parents, ranks outside the bit field, or parents violating the
      [(rank, index)] order. *)
end
