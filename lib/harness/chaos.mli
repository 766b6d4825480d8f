(** The crash drill: one scenario engine and one audit for every depth of
    the stack.

    Every drill asks one question of the structure a crash leaves behind
    (Lemma 3.1: a recovered forest may only refine the closure of what was
    submitted):

    {v closure(acked) ⊆ recovered ⊆ closure(submitted) v}

    A {b scenario} is one (layout, policy, depth) triple.  The depth says
    how much of the stack the crash takes down and how the structure is
    recovered:

    - {b [Dsu]} — [domains] domains run random [Unite]/[SameSet] streams
      against one structure; the first [crash_domains] slots crash-stop
      after staggered site-hit countdowns, every slot carries stall/yield
      noise.  The survivors' structure is the recovered one (Theorem 3.4:
      survivors finish unassisted).
    - {b [Snapshot]} — the same crash, then snapshot to disk, read back,
      repair (must be a no-op), restore, and resume each stopped slot from
      the op it died inside.
    - {b [Wal]} — the mutators log every link to a write-ahead log whose
      group commits they lead themselves, while a snapshotter takes fuzzy
      epoch snapshots; the snapshotter crashes halfway into its second
      scan ([Snapshot_read]) and a mutator inside a group commit it leads
      ([Wal_commit_mid], leaving a torn tail).  Every mutator carries the
      commit crash, counted per slot and sized from the streams' link
      count so that some mutator must reach it after committing a chunk;
      the crash is caught into the log's latch, so no mutator stops.
      Recovery is the newest snapshot plus the log tail; every stream
      then re-runs on the recovered structure.
    - {b [Service]} — a {!Repro_service.Service} with [domains] workers,
      a WAL and fuzzy checkpoints; workers below [crash_domains] (at most
      [domains - 1]) crash between drains ([Queue_deq_cas]), then a
      surviving worker inside a group commit it leads.  Every worker
      carries the commit crash past the most chunks the victims' traffic
      can commit; until every victim is dead only victims get traffic,
      with a few unites, so the victims always crash first.  Recovery is
      the newest checkpoint on disk when the log died plus the log tail;
      then a second service resumes on the recovered backend, and RTO is
      its first ack minus the commit crash.

    One {!audit} serves every depth: forest validity (range, id/rank order
    read live, acyclicity) with [find] agreeing with the parent chains; the
    lower side ([acked] unites connected); the upper side (every parent
    edge inside the closure of [submitted]); the stamped [same_set]
    answers, where the depth stamps them; and the hop bound, where it
    counts hops.  Depths above [Dsu] audit the recovered structure before
    resuming (checks prefixed ["recovered:"]) and the resumed structure
    after.  What is acked depends on the depth: completed unites in memory,
    the valid log records at [Wal], [Done] responses at [Service].

    Depth-specific facts are extra named checks: [crash-fired] (the planned
    crashes fired and nothing else stopped a worker); [codec],
    [repair-clean] and [recovery] ([Snapshot]); [repair-clean],
    [torn-tail], [epoch-cut] and [recovery] ([Wal], and all but the first
    at [Service]); [complete] (every stream finished; at [Dsu] every
    survivor's) and [rto] ([Service]: an ack came after recovery).  The
    report is ["dsu-drill/v1"]; CLI: [dsu_workload chaos --depth ...]; see
    docs/ROBUSTNESS.md. *)

type depth = Dsu | Snapshot | Wal | Service

val depth_to_string : depth -> string
val depth_of_string : string -> depth option

type config = {
  n : int;  (** number of nodes *)
  ops_per_domain : int;
  domains : int;  (** mutator domains, or service workers *)
  crash_domains : int;
      (** slots [0 .. crash_domains-1] get a crash rule (none at [Wal]) *)
  crash_after : int;  (** base site-hit countdown before a mutator crashes *)
  stall_prob : float;  (** per-site-hit stall probability, every slot *)
  stall_len : int;  (** stall length in [cpu_relax] iterations *)
  unite_percent : int;  (** percentage of [Unite] ops, rest [SameSet] *)
  seed : int;  (** workload + structure seed *)
  fault_seed : int;  (** injection-plan seed ({!Repro_fault.Inject.plan}) *)
  policies : Dsu.Find_policy.t list;
  layouts : Dsu.Plan.layout list;
  depths : depth list;
  memory_order : Dsu.Memory_order.t;
      (** parent-load ordering mode for every scenario's structure *)
}

val default_config : config
(** n = 16384, 2000 ops per domain, 8 domains with 2 crashing after 2000
    and 4000 site hits, 1% stalls of 64 relax-iterations, 40% unites,
    two-try splitting on the flat layout at depth [Dsu] under the default
    memory order.  About 6400 unites over 16384 nodes keep the closure of
    the submitted unites in many small classes, so the upper side can see
    a phantom merge. *)

type check = {
  name : string;
  ok : bool;
  detail : string;  (** empty when passed; first counterexample when not *)
}

(** {2 The audit} *)

type forest = {
  parents : int array;  (** quiescent parent array *)
  prio : int -> int;  (** linking order, read live *)
  find : int -> int;
}

type answers = {
  unites : (int * int * int) list;  (** [(stop stamp, x, y)] of completed unites *)
  queries : (int * int * int * bool) list;
      (** [(start stamp, x, y, answer)] of completed [same_set]s *)
}

type evidence = {
  acked : (int * int) list;  (** unites the structure must contain *)
  submitted : (int * int) list;  (** every unite that may have taken effect *)
  answers : answers option;  (** where the depth stamps its queries *)
  hops : (int * int) list;  (** [(own hops, ops)] of each worker run that finished *)
}

val audit : ?stage:string -> evidence -> forest -> check list
(** [forest], [lower] (fails on an empty [acked]), [upper], [answers]
    when given, and [hops] (a mean of at most [2 * log2 n] own hops per
    op, E1's bound) when [hops <> []], each name prefixed by
    [stage ^ ":"] when [stage] is given.  An invalid forest yields only
    the failed [forest] check: the rest would chase its parent chains.
    Pure apart from calling [find]; terminates on any parent array. *)

(** {2 The engine} *)

type stage = {
  stage : string;  (** ["crash"] or ["resume"] *)
  slots : (int * int * int) list;  (** [(slot, own hops, ops completed)] in this stage only *)
}

type scenario = {
  layout : Dsu.Plan.layout;
  policy : Dsu.Find_policy.t;
  depth : depth;
  crashed : (int * Repro_fault.Site.t) list;
      (** mutator or worker slots whose crash rule fired, with the site *)
  stages : stage list;  (** the mutator runs; [[]] at [Service] *)
  recovery : Repro_durable.Recovery.stats option;  (** [Wal], [Service] *)
  rto_ns : int option;  (** [Service] *)
  faults : Repro_fault.Inject.totals;  (** of the crash stage *)
  checks : check list;
  seconds : float;
}

val scenario_ok : scenario -> bool
(** Every check passed. *)

val run :
  ?config:config ->
  ?keep:string ->
  layout:Dsu.Plan.layout ->
  policy:Dsu.Find_policy.t ->
  depth:depth ->
  unit ->
  scenario
(** One scenario.  Depths above [Dsu] work in a scratch directory that is
    removed on every exit path, unless [keep] is given: then the files
    (crash snapshot, WAL, fuzzy snapshots) stay in
    [keep ^ "-<layout>-<policy>-<depth>"].  Arms the global injection
    switch for the duration — do not run concurrently with other DSU work.
    @raise Invalid_argument on a nonsensical config ([n < 2],
    [domains < 1], [crash_domains] outside [0..domains]). *)

val run_all :
  ?config:config -> ?keep:string -> ?progress:(scenario -> unit) -> unit -> scenario list
(** The [layouts × depths × policies] cross product; [progress] after each. *)

val to_json : ?config:config -> scenario list -> Repro_obs.Json.t
(** The ["dsu-drill/v1"] document: config echo, one object per scenario
    with its own ["ok"], an overall ["ok"], and the {!Perfdiff} [metrics]:
    the [rto_ns] of each scenario that measured one (RPO is a correctness
    gate, not a diffed metric). *)

val pp_scenario : Format.formatter -> scenario -> unit
