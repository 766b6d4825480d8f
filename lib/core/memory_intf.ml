(** The shared-memory primitives the concurrent algorithm needs.

    Cell [i] of the memory reads as the parent of node [i].  Only single-word
    atomic reads and compare-and-swaps are required — this is the point of
    randomized linking: unlike linking by rank or size, no second word ever
    has to change together with a parent pointer (Section 3).

    Instances: {!Native_memory} over {!Repro_util.Flat_atomic_array} (one
    unboxed word per node) for real OCaml 5 domains;
    {!Growable.Memory}, a directory of flat chunks that grows by one CAS;
    and {!Dsu_sim.Memory} over the APRAM simulator's effect-based
    shared memory for exact step counting.  {!Packed_dsu.View} turns any of them
    holding packed [(root flag, rank, parent)] words into a parent array:
    its [read] returns the parent field, so the same algorithm loops run
    over both linking rules. *)

module type S = sig
  type t

  val read : t -> int -> int
  (** Atomic load of node [i]'s parent. *)

  val cas : t -> int -> int -> int -> bool
  (** [cas t i expected desired] atomically replaces node [i]'s parent.
      Strong: fails only if the cell did not hold [expected]. *)

  val cas_weak : t -> int -> int -> int -> bool
  (** Like {!cas} but {e may fail spuriously} (return [false] with the cell
      unchanged even though it held [expected]).  Use only where a failed
      attempt needs no distinct handling from a lost race — the splitting
      updates of Algorithms 4/5, where a spurious failure is exactly a
      failed try.  Implementations without a cheaper weak CAS may equate it
      with {!cas}. *)

  val prefetch : t -> int -> unit
  (** Hint that node [i]'s cell is about to be read.  Purely advisory —
      never faults, never counts as a memory step; simulator instances
      make it a no-op. *)
end
