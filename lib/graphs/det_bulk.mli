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

    Settled edges stay out of the rounds.  The first block is the
    stream's sample window ({!Edge_stream.sample_window}, at most
    [block_chunks] chunks); every later block drops at load each edge
    whose endpoints already share a root in the flattened forest the
    earlier blocks left, so the rounds see only edges that still join
    two roots.  Which edges are dropped is a function of the stream,
    like everything else in the report.  See docs/PERFORMANCE.md
    ("Deterministic mode") for its cost against the racy {!Connectit}
    pipeline. *)

type report = {
  n : int;
  edges : int;
  blocks : int;
      (** Stream blocks processed: the sample window, then
          [block_chunks] chunks each. *)
  rounds : int;  (** Total propose/link rounds — deterministic. *)
  skipped : int;
      (** Edges dropped at load because both endpoints already shared a
          root — deterministic. *)
  components : int;
  gen_ns : int;
      (** Time spent generating chunks ({!Edge_stream.fill}), summed over
          the domains: one clock lap per chunk.  Divided by [domains]
          times the pass's wall time, it is generation's share of the
          pass. *)
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
    bounds the edges resident across all domains at [block_chunks *
    chunk_size] pairs; the first block is the stream's sample window
    when that is shorter.  The forest is fully compressed after every
    block (a barrier-separated, deterministic pass).  [on_round] fires
    on every domain after each round's first barrier — the determinism
    check injects sleeps here to perturb schedules.
    @raise Invalid_argument on non-positive parameters. *)
