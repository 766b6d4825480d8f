(** Internally deterministic bulk union-find over an {!Edge_stream}
    (after Fedorov–Hashemi–Nadiradze–Alistarh): rounds of a propose
    phase and a fused link + reset phase, each ended by a barrier, whose
    only cross-domain combination operators are writeMin and OR — both
    commutative — so the output forest is a function of the input
    stream alone, independent of the domain count, the OS schedule, and
    any injected delays.

    Links always point root → strictly smaller id, so the final label of
    every vertex is its component's minimum id: the labels are canonical
    without a normalization pass, and two runs agree byte-for-byte.

    No sampling and no early settling: every unmerged edge of a block
    is chased to its roots in every round until the block settles,
    which is the price of replayability.  Even so, on the benchmark's
    R-MAT stream at 2 domains it outruns the racy {!Connectit} pipeline
    with k-out sampling; see docs/PERFORMANCE.md ("Deterministic
    mode"). *)

type report = {
  n : int;
  edges : int;
  blocks : int;  (** Stream blocks processed ([block_chunks] chunks each). *)
  rounds : int;  (** Total propose/link rounds — deterministic. *)
  components : int;
}

val run :
  ?domains:int ->
  ?block_chunks:int ->
  ?on_round:(domain:int -> round:int -> unit) ->
  Edge_stream.t ->
  int array * report
(** [run stream] returns [(labels, report)]: [labels.(v)] is the minimum
    vertex id of [v]'s component.  [domains] (default 4) only changes
    who does the work, never the result.  [block_chunks] (default 8)
    bounds resident edges at [block_chunks * chunk_size] pairs; the
    forest is fully compressed after every block (a barrier-separated,
    deterministic pass).  [on_round] fires on every domain after each
    round's first barrier — the determinism check injects sleeps here
    to perturb schedules.
    @raise Invalid_argument on non-positive parameters. *)
