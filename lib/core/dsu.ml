(** Concurrent disjoint set union with randomized linking — an OCaml
    implementation of Jayanti & Tarjan, "A Randomized Concurrent Algorithm
    for Disjoint Set Union" (PODC 2016).

    Entry points:

    - {!Native} — the user-facing DSU over OCaml 5 domains.
    - {!Growable} — the [MakeSet] extension (elements created on the fly,
      no capacity bound), called directly: it is not a {!Driver} layout.
    - {!Packed} — Section 7's linking by rank over one packed word.
    - {!Driver} — {!Native} or {!Packed} as one value, chosen by a {!Plan}.
    - {!Sim} — the same algorithm instrumented to run inside the APRAM
      simulator ({!Apram.Sim}) for exact work measurements.
    - {!Find_policy} — selects among the paper's three [Find] variants.
    - {!Stats} — operation counters shared by all instantiations.
    - {!Obs} — telemetry instruments ({!Repro_obs} glue): latency/step
      histograms, CAS counters and trace events, armed globally via
      [Repro_obs.Metrics.set_enabled] / [Repro_obs.Trace.set_enabled].
    - {!Algorithm} — the functor over {!Memory_intf.S} and a linking rule
      ({!Algorithm.LINK}), for embedding the algorithm over a custom
      shared memory. *)

module Find_policy = Find_policy
module Memory_order = Memory_order
module Memory_intf = Memory_intf
module Stats = Dsu_stats
module Obs = Dsu_obs

module Contention = Dsu_contention
(** Per-site/per-node CAS contention attribution (armed independently of
    metrics and tracing); exports the [dsu-contention/v1] hot-node
    report. *)

module Algorithm = Dsu_algorithm
module Native_memory = Native_memory
module Native = Dsu_native

module Sim = Dsu_sim
module Growable = Growable

module Packed = Packed_dsu
(** The concurrent linking-by-rank variant of Section 7, which needs no
    independence assumption (see experiment E15), over a bit-packed
    [(root flag, rank, parent)] word: an instance of {!Algorithm.Make}
    with its own link step, so it supports every {!Find_policy}
    compaction rule. *)

module Plan = Dsu_plan
(** First-class configuration points of the plan space (compaction x
    memory order x layout, where the layout fixes the linking rule), with
    the [--plan] CLI spec syntax. *)

module Driver = Dsu_driver
(** The one backend type: a variant over the flat and packed layouts,
    built from the {!Plan} that names it or restored from a snapshot. *)
