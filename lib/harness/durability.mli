(** Durability cost measurement: WAL overhead and snapshot pause.

    Three phases over the same seeded workload on the flat layout, best
    wall time of [repeats] runs each:

    - {b wal=off}: bare-structure throughput baseline, plus the
      stop-the-world cost of a quiescent snapshot (the whole scan — a
      quiescent capture needs every mutator parked while it runs);
    - {b fuzzy}: the same run with [snapshots] concurrent fuzzy captures
      ({!Repro_durable.Fuzzy}); the reported pause is the run's wall-time
      inflation divided across the captures — the mutator-observed cost,
      which the fuzzy design claims is ~0;
    - {b wal=on}: the same run with every link appended to a
      group-committed WAL ({!Repro_durable.Wal}) — the overhead the CI
      guard bounds at 15%.

    Emits the ["dsu-durability/v1"] document ({!to_json}), whose
    {!Perfdiff} [metrics] are the two unite throughputs and the two
    snapshot pauses.  CLI: [dsu_workload
    durability]. *)

type config = {
  n : int;
  ops_per_domain : int;
  domains : int;
  unite_percent : int;  (** rest are [same_set] queries *)
  seed : int;
  repeats : int;  (** best-of repeats per phase *)
  snapshots : int;  (** fuzzy captures during the fuzzy phase *)
  policy : Dsu.Find_policy.t;
}

val default_config : config
(** 64k nodes, 4 domains x 200k ops at 60% unite, best of 3, 8 fuzzy
    captures. *)

val flush_records : int
val flush_interval : float
(** The group commit of the wal=on phase and of [dsu_workload native
    --wal]: a batch closes at 256 records or after 2 ms. *)

type result = {
  config : config;
  wal_off_mops : float;
  wal_on_mops : float;
  overhead_pct : float;  (** throughput lost to the WAL, percent *)
  quiescent_pause_ns : float;
  fuzzy_pause_ns : float;  (** per-capture mutator-observed inflation *)
  fuzzy_scan_ns : float;  (** mean fuzzy scan duration (scanner's own cost) *)
  wal_appended : int;
  wal_committed : int;
  wal_commits : int;
}

val run : ?config:config -> unit -> result
(** @raise Invalid_argument on a nonsensical config. *)

val to_json : result -> Repro_obs.Json.t
val pp : Format.formatter -> result -> unit
