(** Domain-parallel throughput engine: the repo's scalability benchmark.

    Runs one shared DSU under [D] concurrent domains through
    {!Closed_loop.run} (each executing a pre-generated stream of random
    [Unite]/[SameSet] operations) and reports operations per second,
    sweeping

    - the domain count (default [1; 2; 4; 8]),
    - the find policy,
    - the memory layout ({!Dsu.Plan.layout}): [Flat] (the contiguous
      {!Repro_util.Flat_atomic_array} parent array, random-id linking) and
      [Packed] (linking by rank over one packed word),
    - the parent-load {!Dsu.Memory_order} mode (the memory-order ablation
      axis), and
    - the key distribution: [Uniform], or [Skewed] (80% of endpoints drawn
      from a hot range of [max 16 (n/256)] nodes — the high-contention
      sweep where the link-CAS backoff and ordering matter most).

    The JSON emitted by {!to_json} (schema ["dsu-scalability/v2"]; v1
    lacked the [memory_order]/[dist] point fields) is the
    machine-readable product consumed by the perf-trajectory tooling;
    [dsu_workload scalability] is the CLI entry point.  See
    docs/PERFORMANCE.md for the schema and how to read the numbers on
    machines with few cores. *)

type dist = Closed_loop.dist = Uniform | Skewed

val all_dists : dist list
val dist_to_string : dist -> string
val dist_of_string : string -> dist option

type point = {
  layout : Dsu.Plan.layout;
  policy : Dsu.Find_policy.t;
  memory_order : Dsu.Memory_order.t;
  dist : dist;
  domains : int;
  n : int;
  total_ops : int;  (** ops actually executed, summed over domains *)
  seconds : float;
  mops_per_sec : float;
  failures : (int * string) list;
      (** worker exceptions captured per domain as [(domain_index, message)];
          empty on a clean run.  Workers never abort the measurement: every
          domain is always joined, and failures surface here, in the JSON
          ([failures] array per point) and below {!pp_table}'s output. *)
}

type config = {
  n : int;  (** number of nodes *)
  total_ops : int;  (** split evenly across domains *)
  unite_percent : int;  (** percentage of [Unite] ops, rest [SameSet] *)
  seed : int;
  domain_counts : int list;
  policies : Dsu.Find_policy.t list;
  layouts : Dsu.Plan.layout list;
  memory_orders : Dsu.Memory_order.t list;
  dists : dist list;
}

val default_config : config
(** n = 2^16, 400k ops, 30% unites, domains 1/2/4/8, two-try and one-try
    policies, the flat layout, the default (relaxed-reads) order, uniform
    keys. *)

val run_point :
  ?config:config -> ?dist:dist -> plan:Dsu.Plan.t -> domains:int -> unit -> point
(** One timed {!Closed_loop.run} of the {!Dsu.Driver} the plan names:
    compaction, memory order and layout come from the plan.
    Operation streams are generated outside the timed section; timing
    covers domain spawn to join.  [dist] defaults to [Uniform].
    @raise Invalid_argument on [domains < 1]. *)

val sweep : ?config:config -> ?progress:(point -> unit) -> unit -> point list
(** The full cross product (layouts × policies × memory_orders × dists ×
    domain_counts); [progress] is called after each point. *)

val point_to_json : point -> Repro_obs.Json.t

val to_json : ?config:config -> point list -> Repro_obs.Json.t
(** The ["dsu-scalability/v2"] document: config echo, the host's
    recommended domain count, one object per point (now carrying
    [memory_order] and [dist]), and the {!Perfdiff} [metrics]:
    [mops_per_sec] per point, keyed by every swept axis. *)

val pp_table : Format.formatter -> point list -> unit
(** Human-readable table with per-(layout, policy, order, dist)
    speedup vs 1 domain. *)
