(** The chaos harness: drive the native concurrent DSU under injected
    faults — crash-stopped domains, stall storms, adversarial yields — and
    then prove the structure and the surviving domains' answers are still
    correct.

    Each {b scenario} runs one (layout, policy) pair: [domains] OCaml
    domains execute pre-generated random [Unite]/[SameSet] streams against
    one shared structure while a {!Repro_fault.Inject} plan is armed.  The
    first [crash_domains] slots carry a crash-stop rule (they abandon an
    operation mid-flight, wherever the countdown lands them — possibly
    between the two reads of splitting or on either side of a CAS); every
    slot carries probabilistic stall and yield rules.  Survivors must
    finish their full streams unassisted — that is Theorem 3.4's
    wait-freedom claim under the strongest adversary it tolerates.

    At quiescence the harness disarms injection and audits the run:

    - {b forest}: {!Repro_fault.Forest_check} on the parent snapshot
      (range, priority order, acyclicity);
    - {b find-idempotence}: [find] agrees with the snapshot's root chains
      and is stable when repeated;
    - {b completed-unites} / {b sameset-true}: every completed [Unite] and
      every [SameSet] that answered [true] is connected in the final
      partition;
    - {b sameset-false}: a timestamp sweep against a sequential oracle —
      no [SameSet] answered [false] after unites that fully completed
      before it started had already connected its arguments;
    - {b partition-sandwich}: the final partition is refined below by the
      completed unites and above by completed plus crashed-in-flight
      unites (compaction never changes the partition, so an interrupted
      [find] cannot widen it);
    - {b survivors}: every non-crashed domain completed every operation,
      within a mean own-hops-per-op budget of [16 * (log2 n + 2)]
      (own traversal work, counted at the [Find_hop] site).

    Results are reported per scenario as named pass/fail {!check}s, a
    human summary ({!pp}) and the machine-readable ["dsu-chaos/v1"] JSON
    ({!to_json}); fault counters also land in the {!Repro_obs.Metrics}
    default registry.  CLI entry point: [dsu_workload --chaos]; see
    docs/ROBUSTNESS.md. *)

type config = {
  n : int;  (** number of nodes *)
  ops_per_domain : int;
  domains : int;
  crash_domains : int;  (** slots [0 .. crash_domains-1] get a crash rule *)
  crash_after : int;  (** base site-hit countdown before a crash fires *)
  stall_prob : float;  (** per-site-hit stall probability, every slot *)
  stall_len : int;  (** stall length in [cpu_relax] iterations *)
  unite_percent : int;  (** percentage of [Unite] ops, rest [SameSet] *)
  seed : int;  (** workload + structure seed *)
  fault_seed : int;  (** injection-plan seed ({!Repro_fault.Inject.plan}) *)
  policies : Dsu.Find_policy.t list;
  layouts : Scalability.layout list;
  memory_order : Dsu.Memory_order.t;
      (** parent-load ordering mode for every scenario's structure, so
          the chaos audit can be pointed at the tuned or the fenced path *)
  validate : bool;  (** run the post-quiescence audit (default) *)
}

val default_config : config
(** n = 4096, 20k ops per domain, 8 domains with 2 crashing, 1% stalls of
    64 relax-iterations, 40% unites, two-try splitting on the flat
    layout under the default (relaxed-reads) memory order, validation
    on. *)

type check = {
  check_name : string;
  passed : bool;
  detail : string;  (** empty when passed; first counterexample when not *)
}

type scenario = {
  layout : Scalability.layout;
  policy : Dsu.Find_policy.t;
  crashed : (int * Repro_fault.Site.t) list;
      (** slots whose crash rule fired, with the site it fired at *)
  completed : int array;  (** operations completed, per slot *)
  failures : (int * string) list;
      (** unexpected worker exceptions (never {!Repro_fault.Inject.Crashed}) *)
  hops : int array;  (** own [Find_hop] count, per slot *)
  fault_totals : Repro_fault.Inject.totals;
  forest : Repro_fault.Forest_check.report option;  (** when validating *)
  checks : check list;  (** empty when [validate = false] *)
  seconds : float;
}

val scenario_ok : scenario -> bool
(** No unexpected worker exceptions and every check passed. *)

val run_scenario :
  ?config:config ->
  layout:Scalability.layout ->
  policy:Dsu.Find_policy.t ->
  unit ->
  scenario
(** One armed run plus its audit.  Arms the global injection switch for
    the duration — do not run concurrently with other DSU work.
    @raise Invalid_argument on nonsensical config ([domains < 1],
    [crash_domains] outside [0..domains], [n < 2]). *)

val run_all : ?config:config -> ?progress:(scenario -> unit) -> unit -> scenario list
(** The [layouts × policies] cross product; [progress] after each. *)

(** {2 Crash → snapshot → repair → resume}

    {!run_recovery_scenario} is the full recovery drill: run phase 1 exactly
    like {!run_scenario} (crashes armed), then at quiescence

    + snapshot the crashed structure ({!Repro_recover.Snapshot}) and prove
      both codecs round-trip it ([codec-roundtrip]);
    + run {!Repro_recover.Repair} over it — Theorem 3.4 means a crash never
      corrupts the forest, so the repair must apply {e zero} fixes
      ([repair-clean]) and the repaired partition must refine the
      crash-time one ([repair-refines]);
    + restore into a fresh structure and resume each crashed slot's stream
      from the operation it died inside (re-running it is safe — [unite] is
      idempotent, queries read-only), stall/yield noise still armed;
    + re-run the full audit on the resumed structure and require every slot
      to have completed every operation ([resumed-complete]).

    Metrics are snapshotted between the phases: [phase1_counters] is the
    crash-time registry state and [resume_counters] only the delta the
    resumed run added, so a report over the resumed phase never
    double-counts pre-crash operations. *)

type recovery = {
  crash_snapshot : Repro_recover.Snapshot.t;
      (** the crash-time snapshot itself, for archiving *)
  snapshot_crc : int;  (** CRC-32 of the crash-time snapshot *)
  fixes : Repro_recover.Repair.fix list;  (** must be empty *)
  resumed_slots : int list;
  resumed_ops : int;  (** operations re-run or newly run in phase 2 *)
  resumed_forest : Repro_fault.Forest_check.report option;
  recovery_checks : check list;
  resume_seconds : float;
  phase1_counters : (string * int) list;  (** metrics registry at crash time *)
  resume_counters : (string * int) list;  (** what the resume alone added *)
}

val recovery_ok : recovery -> bool

val run_recovery_scenario :
  ?config:config ->
  layout:Scalability.layout ->
  policy:Dsu.Find_policy.t ->
  unit ->
  scenario * recovery
(** The phase-1 scenario (with its ordinary audit) plus the recovery
    record.  Arms the global injection switch for the duration, like
    {!run_scenario}. *)

val run_recovery_all :
  ?config:config ->
  ?progress:(scenario * recovery -> unit) ->
  unit ->
  (scenario * recovery) list

val hop_budget : int -> float
(** [16 * (log2 n + 2)] — the mean own-hops-per-op ceiling asserted for
    survivors. *)

val scenario_to_json : scenario -> Repro_obs.Json.t
val to_json : ?config:config -> scenario list -> Repro_obs.Json.t
(** The ["dsu-chaos/v1"] document: config echo plus one object per
    scenario. *)

val recovery_to_json : recovery -> Repro_obs.Json.t

val recovery_report_to_json :
  ?config:config -> (scenario * recovery) list -> Repro_obs.Json.t
(** The ["dsu-chaos/v1"] document with a ["recovery"] object inside each
    scenario. *)

val pp_scenario : Format.formatter -> scenario -> unit
val pp : Format.formatter -> scenario list -> unit
val pp_recovery : Format.formatter -> recovery -> unit
val pp_recovery_report : Format.formatter -> (scenario * recovery) list -> unit

(** {2 Durable drill: crash mid-fuzzy-snapshot and mid-group-commit}

    {!run_durable_scenario} is the hardest drill: mutators drive the
    structure (noise armed, no mutator crashes) while a write-ahead log
    ({!Repro_durable.Wal}) records every link and a snapshotter domain
    takes fuzzy epoch snapshots ({!Repro_durable.Fuzzy}) concurrently.
    Two extra fault slots crash the durability machinery itself:

    - the {b snapshotter} (slot [domains]) crashes halfway through its
      second fuzzy scan ([Snapshot_read] hit-count rule — the first scan
      completes and is written, the second dies mid-scan);
    - the {b committer} (slot [domains + 1]) crashes on its fourth group
      commit, between the two halves of a record write
      ([Wal_commit_mid]), leaving a physically torn WAL tail.

    At quiescence the drill audits phase 1 like {!run_scenario}, then
    checks the durability story end to end: the crashes fired where
    planned; at least one fuzzy snapshot survived; reconciliation was a
    no-op for the single-pointer layouts (packed scans may race a
    promotion, so there only refinement is asserted); each reconciled cut
    refines both its raw scan and the final partition; the WAL tail is
    torn and truncates cleanly; every valid record below a capture's
    epoch is already connected in that cut (the epoch-cut guarantee);
    recovery (newest snapshot + tail replay, {!Repro_durable.Recovery})
    succeeds, contains every acknowledged record, and refines the final
    partition; and the restored structure absorbs a full re-run of the
    workload, re-audited against the sequential oracle. *)

type durable = {
  d_layout : Scalability.layout;
  d_policy : Dsu.Find_policy.t;
  d_snapshots : (string * Repro_durable.Fuzzy.capture) list;
      (** snapshots written before the crash, oldest first *)
  d_snap_crash : Repro_fault.Site.t option;
  d_commit_crash : (Repro_fault.Site.t * int) option;
  d_wal_stats : Repro_durable.Wal.writer_stats;
  d_tail_records : int;  (** valid records decoded from the WAL file *)
  d_truncated_at : int option;  (** torn-tail byte offset, if torn *)
  d_recovery : Repro_durable.Recovery.stats option;
  d_fault_totals : Repro_fault.Inject.totals;
  d_checks : check list;
  d_seconds : float;
  d_resume_seconds : float;
}

val durable_ok : durable -> bool

val run_durable_scenario :
  ?config:config ->
  ?dir:string ->
  layout:Scalability.layout ->
  policy:Dsu.Find_policy.t ->
  unit ->
  durable
(** One durable drill over the given layout.  [dir] (default: a fresh
    temp directory) receives the WAL and the snapshot files and is left
    in place for inspection.  Arms the global injection switch for the
    duration, like {!run_scenario}.  [config]'s [crash_domains] and
    [layouts] are ignored — the drill crashes the durability machinery,
    not the mutators. *)

val run_durable_all :
  ?config:config -> ?progress:(durable -> unit) -> unit -> durable list
(** The [layouts × policies] cross product; [progress] after each. *)

val durable_to_json : durable -> Repro_obs.Json.t

val durable_report_to_json :
  ?config:config -> durable list -> Repro_obs.Json.t
(** The ["dsu-chaos-durable/v1"] document: config echo plus one object
    per drill. *)

val pp_durable : Format.formatter -> durable -> unit
val pp_durable_report : Format.formatter -> durable list -> unit
