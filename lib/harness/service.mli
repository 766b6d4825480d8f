(** Serving harness: open-loop load sweeps over the
    {!Repro_service.Service} layer, and the crash-recovery drill that
    measures the serving layer's RPO and RTO.

    Load generators walk the exact arrival schedules of the latency
    harness ({!Latency.arrivals}) — fixed, Poisson, or bursty — and
    charge every operation from its {e intended} arrival time (the
    service echoes the submitted timestamp back in the response), so the
    reported latencies are open-loop and include ingestion queueing.

    The drill injects two deterministic crash-stop faults — a worker at
    {!Repro_fault.Site.Queue_deq_cas} mid-drain and the WAL committer at
    {!Repro_fault.Site.Wal_commit_mid} mid-commit — then recovers from
    the newest fuzzy checkpoint plus the WAL tail, resumes serving on
    the recovered backend, and measures:

    - {b RPO}: acknowledged unites absent from the recovered partition.
      The flush-before-ack contract makes the only passing value 0.
    - {b RTO}: first post-recovery [Done] ack minus the moment a crash
      was first detected — the full outage window (shutdown, snapshot
      selection, WAL replay, restart).

    Results serialize as the versioned [dsu-service/v1] JSON. *)

type config = {
  n : int;  (** universe size *)
  unite_percent : int;
  find_percent : int;  (** remaining operations are [same_set] *)
  seed : int;
  generators : int;  (** load-generator domains (= client sessions) *)
  ops : int;  (** operations per generator *)
  shape : Latency.shape;
  workers : int;
  queue_capacity : int;
  batch : int;
  admission : Repro_service.Service.admission;
  plan : Dsu.Plan.t;  (** names the backend, layout included *)
  op_deadline_ms : float;  (** 0 = no per-op deadline *)
  durable : bool;  (** attach a WAL (group commit on the drain path) *)
}

val default_config : config

val temp_dir : unit -> string
(** Fresh scratch directory for WALs and snapshots (caller removes). *)

type point = {
  rate : float;  (** offered arrivals/sec per generator *)
  offered_rate : float;  (** [rate *. generators] *)
  target_ops : int;
  submitted : int;
  accepted : int;
  rejected : int;  (** admission backpressure (full / deadline) *)
  acked : int;
  shed : int;
  timed_out : int;
  failed : int;
  lost : int;  (** admitted, never answered within the end drain *)
  duration_s : float;
  achieved_rate : float;  (** acked operations per second *)
  latency : Repro_obs.Hdr.snapshot;  (** completion − intended arrival *)
  max_depth : int;  (** deepest ingestion queue observed at submit *)
  depth_bound_ok : bool;  (** [max_depth <= queue_capacity] *)
  idle_sleeps : int;
      (** worker idle sleeps ({!Repro_service.Service.stats}
          [s_idle_sleeps]): how often the drain workers ran out of work *)
  accounted_ok : bool;
      (** [accepted = acked + shed + timed_out + failed + lost], no
          phantom/duplicate responses, no completion-lane displacement —
          the "nothing silently dropped after ack" guarantee *)
  saturated : bool;  (** achieved < 95% of offered *)
}

val run_point : config:config -> rate:float -> unit -> point
(** One offered rate: build a service, drive it open-loop from
    [generators] domains, stop it, and account for every operation.
    @raise Invalid_argument on nonsensical knobs. *)

val sweep : config:config -> rates:float list -> unit -> point list

val knee : point list -> float option
(** Highest offered rate that did not saturate; [None] if all did. *)

type check = { c_name : string; c_passed : bool; c_detail : string }

type drill = {
  d_kind : Repro_recover.Snapshot.kind;
  d_submitted : int;
  d_acked : int;
  d_acked_unites : int;
  d_rpo_lost : int;  (** acked unites missing after recovery; must be 0 *)
  d_rto_ns : int;  (** first post-recovery ack − crash detection *)
  d_recovery : Repro_durable.Recovery.stats option;
  d_checks : check list;
  d_passed : bool;
}

val drill : config:config -> layout:Dsu.Plan.layout -> unit -> drill
(** The crash-recovery drill on one layout (uses [config]'s plan moved
    onto [layout] by {!Dsu.Plan.on_layout}, at least 2 workers, block
    admission, and its own scratch directory — removed before
    returning). *)

val drill_all : config:config -> unit -> drill list
(** {!drill} over one layout of each kind: flat, growable, packed. *)

val to_json : config -> points:point list -> drills:drill list -> Repro_obs.Json.t
(** The [dsu-service/v1] document (either list may be empty). *)

val pp_point : Format.formatter -> point -> unit
val pp_table : Format.formatter -> point list -> unit
val pp_drill : Format.formatter -> drill -> unit
