(** Connectivity-as-a-service: a long-running multi-domain DSU server
    with bounded ingestion, explicit backpressure, and a durable ack
    contract.

    {2 Request path}

    A client session {!submit}s an op; admission is governed by the
    configured {!admission} policy over that session's per-worker
    lock-free {!Slot_ring} of [queue_capacity] slots.  A submit that
    finds room writes the request's fields into one slot and allocates
    only its [Enqueued] answer; the request linearizes when the slot is
    published, and each worker applies its ring's requests in that order.

    - [Reject] — fail fast with [Rejected Queue_full] when the ring is
      at capacity (the caller sees backpressure immediately);
    - [Shed_oldest] — always admit, displacing the oldest queued op when
      full; the victim receives a [Shed] response (displacement is never
      silent);
    - [Block t] — retry under bounded {!Repro_util.Backoff} until
      admitted or the admission deadline [t] expires
      ([Rejected Admission_deadline]).

    A worker that finds its ring empty spins for a bounded budget, then
    parks until a submit publishes into its ring, or {!stop} wakes it.

    Worker domains drain FIFO batches into a reusable buffer and apply
    each op in FIFO order through the backend's per-op calls
    ({!Dsu.Driver.unite}, [same_set], [find]) on every layout.  An op
    carrying a [deadline_ns] that expired while queued is answered
    [Timed_out] without touching the structure.  A batch's answers are
    stamped with one clock read taken after the durability barrier and
    pushed to their completion lanes, one [tail] CAS per run of answers
    bound for the same lane.

    {2 Response path}

    Each completion lane is a {!Slot_ring} of three ints per answer:
    the id, a code for the outcome (with a find's root) and the
    completion time, so the worker allocates nothing per request.
    {!poll} takes the lane's ready answers with one [head] CAS into a
    buffer owned by the polling domain and builds the {!response}
    records there.

    {2 Ack/durability contract}

    With a WAL attached, a worker forces the group commit {e before}
    acknowledging any op of a drained batch, and only acks if the
    committer is still alive to have performed it.  Therefore:

    - an acked ([Done]) unite is on disk — recovery must reproduce it
      (RPO = 0, measured by the serving chaos drill);
    - an op lost to a crash is lost {e unacknowledged} — admitted ops die
      with a crashed worker and their submitters never see a response;
    - every admitted op on a surviving path gets exactly one response:
      [Done], [Shed], [Timed_out], or [Failed] (the last when durable
      acking became impossible — dead committer — or at shutdown sweep).

    {2 Snapshots}

    With [snapshot_dir] set, an initial fuzzy snapshot is written
    {e synchronously} before serving begins (recovery always has a
    candidate) and a snapshotter domain checkpoints every
    [snapshot_interval] seconds, epoch-stamped against the WAL
    ({!Repro_durable.Fuzzy.of_driver}).

    Do not {!submit} concurrently with {!stop}: the shutdown sweep can
    miss a submission racing the final drain. *)

type op = Unite of int * int | Same_set of int * int | Find of int

val op_to_string : op -> string

type admission = Reject | Shed_oldest | Block of float  (** seconds *)

val admission_to_string : admission -> string
val admission_of_string : string -> admission option
(** ["reject"], ["shed-oldest"], ["block"] (= 5ms) or ["block:MS"]. *)

type reject_reason = Queue_full | Admission_deadline | Stopped

val reject_reason_to_string : reject_reason -> string

type value = V_unit | V_bool of bool | V_int of int
(** [V_unit] for unite, [V_bool] for same_set, [V_int] for find. *)

type outcome =
  | Done of value  (** applied and (with a WAL) durable *)
  | Shed  (** displaced by shed-oldest admission before being applied *)
  | Timed_out  (** missed its per-op deadline while queued *)
  | Failed of string  (** not applied durably; safe to resubmit *)

type response = {
  r_id : int;  (** the id {!submit} answered [Enqueued] with *)
  r_outcome : outcome;
  r_completed_ns : int;  (** {!Repro_obs.Clock.now_ns} once the op was answered *)
}
(** The caller keeps what it submitted (the op, its session, its intended
    start) next to the id; a response carries only what the service
    adds. *)

type admit = Enqueued of int | Rejected of reject_reason
(** [Enqueued id]: admitted; a response for [id] will arrive on the
    session's completion lane (unless a crash takes it, unacked). *)

type config = {
  n : int;  (** universe size *)
  workers : int;  (** drain domains (= ingestion rings) *)
  clients : int;  (** completion lanes; sessions hash onto them *)
  queue_capacity : int;  (** per-worker ingestion bound *)
  batch : int;  (** max ops drained per [head] CAS *)
  admission : admission;
  plan : Dsu.Plan.t;  (** the backend: layout, compaction, order, backoff *)
  seed : int;
  snapshot_dir : string option;
  snapshot_interval : float;  (** seconds between fuzzy checkpoints *)
}

val default_config : config

type t

val create :
  ?backend:Dsu.Driver.t ->
  ?wal:Repro_durable.Wal.writer ->
  ?on_worker_start:(int -> unit) ->
  config ->
  t
(** Build the backend ({!Dsu.Driver.create} under the config's plan,
    whose layout picks the kind; WAL [on_link] attached when [wal] is
    given), write the initial snapshot if configured, and
    spawn the worker and snapshotter domains.  [backend] overrides
    construction — pass a recovered backend (with its own [on_link]
    re-attached via {!Repro_durable.Recovery.recover_files}) to resume
    serving after a crash.  The WAL writer remains owned by the caller and is {e not}
    closed by {!stop}.  [on_worker_start k] runs first on worker domain
    [k] — the chaos drill uses it to enroll workers for fault injection.
    @raise Invalid_argument on nonsensical knobs or an invalid plan. *)

val submit :
  t -> ?intended_ns:int -> ?deadline_ns:int -> session:int -> op -> admit
(** [deadline_ns] (default: none) expires the op if still queued past
    that clock value.  [intended_ns] is ignored: a response does not carry
    it, so an open-loop caller keeps its intended start next to the id.
    Routing: session mod workers.
    @raise Invalid_argument if [session < 0] or an element is outside
    [\[0, n)]; nothing is counted or admitted then. *)

val poll : ?max:int -> t -> session:int -> response list
(** Drain (up to [max]) responses from the session's completion lane,
    oldest first, with one [head] CAS: 7 minor words per answer (the
    record and its list cell), 4 more for a find's [Done (V_int _)].
    Lanes are shared by sessions congruent mod [clients]; give each
    polling domain its own lane.
    @raise Invalid_argument if [session < 0] or [max < 1], whether or not
    the lane holds anything. *)

val stop : t -> unit
(** Graceful shutdown: workers drain their queues and exit, the
    snapshotter stops, then any ops stranded in crashed workers' queues
    are answered [Failed "shutdown"], and a final WAL flush is forced.
    The WAL writer is not closed. *)

type health = {
  h_dead_workers : (int * (Repro_fault.Site.t * int)) list;
      (** worker index ↦ latched injected crash *)
  h_committer_dead : bool;
}

val health : t -> health
val healthy : t -> bool

val backend : t -> Dsu.Driver.t
val kind : t -> Dsu.Driver.kind

val snapshot_files : t -> string list
(** Checkpoints written so far (sorted), for recovery. *)

type stats = {
  s_submitted : int;
      (** submits that passed validation: [s_accepted] plus the three
          rejection counts *)
  s_accepted : int;
  s_rejected_full : int;
  s_rejected_deadline : int;
  s_rejected_stopped : int;
  s_shed : int;
  s_timed_out : int;
  s_acked : int;
  s_failed : int;
  s_displaced : int;
      (** answers displaced from a full completion lane, oldest first:
          always 0 while every client polls (lanes are sized for the
          worst-case in-flight population); nonzero means a client
          stopped polling or a sizing bug *)
  s_parks : int;
      (** times a worker found its ring empty past its spin budget (about
          50 us) and parked until a submit woke it — nonzero means the
          workers outran the clients *)
  s_batches : int;
  s_max_batch : int;
  s_max_depth : int;  (** max ingestion depth seen at submit *)
  s_snapshots : int;
}

val stats : t -> stats
(** Counters read one by one while the service runs, so they are exact
    only at quiescence (no submit in flight, e.g. after {!stop}); then
    [s_submitted = s_accepted + s_rejected_full + s_rejected_deadline +
    s_rejected_stopped].  [s_submitted] and [s_accepted] are derived from
    the ids handed out and the rejection counts, not counted per
    submit. *)
