(** ConnectIt-style parallel connectivity: the follow-on pattern built on
    this paper's algorithm (Dhulipala, Hong & Shun's ConnectIt framework
    composes exactly such sampling and finish strategies around a
    Jayanti–Tarjan-style concurrent union-find).

    The key idea: a cheap {e sampling phase} (unite each vertex with up to
    [k] of its neighbours — "k-out" sampling) already collapses most of a
    graph with a giant component into one class; a snapshot labeling then
    identifies that class, and the {e finish phase} skips every edge with
    both endpoints already inside it using two array reads instead of two
    traversals — most edges never touch the DSU at all.

    {!components} is the materialized-graph entry point;
    {!run_stream} runs the same pipeline out-of-core over an
    {!Edge_stream} (the edge list is never materialized): an optional
    k-out sample pass over a prefix window, then one finish that hands
    each chunk's surviving edges to the bulk [unite_batch] kernel, under
    any {!Dsu.Plan}; or an internally deterministic mode
    ({!Det_bulk}). *)

type strategy =
  | Direct  (** unite every edge; no sampling *)
  | Sampled of int  (** k-out sampling, then skip intra-giant edges *)

type stats = {
  edges_total : int;
  edges_skipped : int;  (** finish-phase edges skipped by the snapshot test *)
  sample_unites : int;  (** unites performed by the sampling phase *)
  dsu_work : int;  (** total find iterations + CAS attempts (Dsu.Stats) *)
}

val components :
  ?domains:int ->
  ?seed:int ->
  ?strategy:strategy ->
  ?plan:Dsu.Plan.t ->
  ?collect_stats:bool ->
  Graph.t ->
  int array * stats
(** Component labels (normalized to smallest member, comparable with
    {!Components.sequential}) plus work statistics.  [domains] defaults
    to 4, [strategy] to [Sampled 2].  [plan] (default {!Dsu.Plan.default})
    picks the DSU backend via {!Dsu.Driver}; [collect_stats] (default
    [true], matching the original API) feeds [dsu_work] — pass [false]
    for timing runs, leaving [dsu_work = 0]. *)

(** {1 Streamed pipeline} *)

type sampling =
  | No_sampling
  | K_out of int
      (** Unite each vertex's first [k] stream-incident out-edges over a
          prefix window of the stream. *)

type mode =
  | Racy
      (** The paper's wait-free engine: fastest; the output forest
          depends on the schedule (labels are still correct and
          normalized). *)
  | Deterministic
      (** {!Det_bulk}: byte-identical labels for a given stream across
          any domain count and schedule.  It samples on its own terms
          (its first block is the stream's sample window, and later
          blocks drop the edges already settled); [sampling] and plan
          are not used (they would reintroduce schedule dependence). *)

val sampling_to_string : sampling -> string

val sampling_of_string : string -> sampling option
(** ["none"] or ["k-out:<k>"] (bare ["k-out"] = 2).  [None] for
    anything else, including [k] outside [\[1, 255\]] (the budget is
    one byte per vertex). *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type stream_report = {
  labels : int array;
      (** Normalized component labels: [labels.(v)] is the minimum
          vertex id of [v]'s component, in every mode. *)
  components : int;
  edges_total : int;
  edges_skipped : int;
      (** [Racy]: finish-phase edges skipped intra-giant.
          [Deterministic]: edges dropped at load because both endpoints
          already shared a root ({!Det_bulk.report} [skipped]). *)
  sample_unites : int;
  det_rounds : int;  (** deterministic rounds (0 in [Racy] mode) *)
  sample_ns : int;
      (** sampling + giant-snapshot wall time, up to the giant being
          known *)
  finish_ns : int;  (** up to the barrier after the last finish unite *)
  label_ns : int;  (** final parallel label pass *)
  total_ns : int;
  gen_ns : int;
      (** Time the members spent generating chunks
          ({!Edge_stream.fill}), summed over members: one clock lap per
          chunk, so it overlaps the phases above.  Divided by [domains]
          times [total_ns], it is generation's share of the pass. *)
}

val run_stream :
  ?domains:int ->
  ?seed:int ->
  ?plan:Dsu.Plan.t ->
  ?sampling:sampling ->
  ?mode:mode ->
  ?block_chunks:int ->
  Edge_stream.t ->
  stream_report
(** One pass of the streaming pipeline.  Memory is
    [O(n + domains * chunk_size)]: the DSU state and one shared label
    array, plus one chunk buffer per domain, reused by every phase of
    the pass — the stream's edge list is never materialized.  In [Racy]
    mode one team of domains runs all phases; the finish drops each
    chunk's edges inside the sampled giant and passes the survivors to
    one [unite_batch] call (the whole chunk when there is no sampling).
    The sampled chunks still in the domains' buffers are finished from
    memory, so a [K_out] pass generates [chunks + window - min domains
    window] chunks ([window], the sampled prefix, covers about two edges
    per vertex), or more when a domain got no sampled chunk.  Defaults:
    4 domains, [K_out 2] sampling, [Racy] mode, plan
    {!Dsu.Plan.default}; [block_chunks] (default 8) is the deterministic
    engine's block size, except that its first block is the stream's
    sample window ({!Edge_stream.sample_window}) when that is shorter.
    @raise Invalid_argument if [sampling] is [K_out k] with [k] outside
    [\[1, 255\]] (the message names the value). *)
