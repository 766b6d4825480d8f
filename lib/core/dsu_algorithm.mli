(** The concurrent disjoint-set-union algorithm of Jayanti and Tarjan,
    as a functor over the shared-memory primitives and the linking rule —
    one implementation of Algorithms 1–7 that runs natively (see
    {!Dsu_native}), inside the APRAM simulator (see {!Dsu_sim}), and under
    both linking rules: the paper's randomized linking by id ({!By_id})
    and Section 7's linking by rank ({!Packed_dsu}).

    See the implementation for the transcription notes (the two documented
    deviations from the printed pseudocode are the merged redundant read in
    the early-termination variants and the skipped no-op splitting [Cas]). *)

val fault_link_pre : unit -> unit
(** Fires {!Repro_fault.Site.Link_cas_pre} when fault injection is armed;
    a linking rule calls it just before its link CAS. *)

val stale : int
(** The result of {!LINK.link} when it tried no CAS (see there). *)

(** A linking rule: which of two roots goes below the other, and the one
    CAS that puts it there. *)
module type LINK = sig
  type mem

  val link : mem -> prio:(int -> int) -> int -> int -> int
  (** [link mem ~prio u v]: [u <> v] were both just observed as roots by
      [find].  Links one below the other with a single CAS on the child's
      word, calling {!fault_link_pre} just before it.  Returns the child
      when the CAS succeeded, [lnot child] when it failed, or {!stale} when
      a re-read showed that one of them is no longer a root and no CAS
      was tried.  Consulted only when linking, never on a hop. *)
end

module By_id (M : Memory_intf.S) : LINK with type mem = M.t
(** Randomized linking (Section 3): the root earlier in the [prio] order
    (ties broken by node index) goes below the other, by one CAS of its
    cell from itself to the other root. *)

module Make (M : Memory_intf.S) (L : LINK with type mem = M.t) : sig
  type t
  (** A handle: the memory holding the parent array plus the linking
      order, the chosen [Find] variant, and instrumentation. *)

  val create :
    ?policy:Find_policy.t ->
    ?early:bool ->
    ?backoff:bool ->
    ?stats:Dsu_stats.t ->
    ?on_link:(child:int -> parent:int -> unit) ->
    mem:M.t ->
    n:int ->
    prio:(int -> int) ->
    unit ->
    t
  (** [create ~mem ~n ~prio ()] wraps a memory whose cell [i] reads as
      node [i]'s parent (initially [i]).  [prio i] is node [i]'s position
      in the linking order (passed to [L.link]); ties are broken by node
      index, so priorities need not be distinct (the growable extension
      draws them from a large universe on the fly).  [policy] defaults to
      two-try splitting; [early] selects Algorithms 6/7, which need a
      [prio] that never changes; [backoff] (default [true]) spins a
      bounded, exponentially growing number of [cpu_relax] iterations
      after a failed link CAS in [unite] (see {!Repro_util.Backoff});
      [on_link] observes every successful link (the union forest). *)

  val n : t -> int
  val mem : t -> M.t
  val policy : t -> Find_policy.t
  val early : t -> bool
  val backoff : t -> bool
  val stats : t -> Dsu_stats.t option

  val id : t -> int -> int
  (** The node's priority ([prio]). *)

  val less : t -> int -> int -> bool
  (** The linking order: priority, then node index. *)

  val find : t -> int -> int
  (** Current root of the node's tree (Algorithm 1, 4 or 5, or the
      two-pass concurrent compression). *)

  val same_set : t -> int -> int -> bool
  (** Algorithm 2, or 6 when [early]. *)

  val unite : t -> int -> int -> unit
  (** Algorithm 3, or 7 when [early]. *)

  val unite_batch : ?len:int -> t -> int array -> int array -> unit
  (** [unite_batch t xs ys] unites [xs.(k), ys.(k)] for every [k], in
      order (only [k < len] when [len] is given, so a caller can reuse
      longer buffers), through a bulk kernel with a per-call direct-mapped root
      cache (a previously observed ancestor stays an ancestor, so finds
      restart from it) and parent-cell prefetching a fixed distance
      ahead.  Equivalent to [Array.iter2 (unite t)] — linearizable per
      element, not atomic as a whole — but measurably faster on large
      batches.  Uses the plain (non-early) rounds regardless of [early].
      @raise Invalid_argument on length mismatch (or [len] outside
      either array) or out-of-range nodes. *)

  val same_set_batch : t -> int array -> int array -> bool array
  (** [same_set_batch t xs ys] answers [same_set t xs.(k) ys.(k)] for
      every [k], with the same root cache and prefetching as
      {!unite_batch}.
      @raise Invalid_argument on length mismatch or out-of-range nodes. *)

  val find_batch : t -> int array -> int array
  (** [find_batch t xs] answers [find t xs.(k)] for every [k], with the
      same per-call root cache and prefetching as {!unite_batch}.  The
      snapshot is per-element linearizable, not atomic as a whole: the
      roots returned for distinct elements may belong to different
      moments.  Quiescent callers (the phase-2 label pass of a
      connectivity driver) get a consistent forest labelling.
      @raise Invalid_argument on out-of-range nodes. *)

  val parent_of : t -> int -> int
  val is_root : t -> int -> bool
  val count_sets : t -> int
  (** Quiescent only; under the simulator these consume steps. *)

  val invariant_violations : t -> (int * int) list
  (** Pairs [(node, parent)] breaking the Lemma 3.1 order-monotonicity
      invariant; always empty for a correct implementation. *)
end
