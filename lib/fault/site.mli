(** Labeled fault-injection sites inside the concurrent DSU hot paths.

    Each constructor names one program point of {!Dsu_algorithm} where the
    adversary of the paper's asynchronous model (Section 2) may preempt,
    delay, or crash a process.  The interesting points are exactly the
    shared-memory access boundaries: between them a process owns only its
    local state, so scheduling there cannot create new behaviors.

    - [Find_hop] — top of each find-loop iteration (one parent-pointer
      traversal step, the unit of the paper's work measure).
    - [Split_read_gap] — between the two reads [v = parent(u)] and
      [w = parent(v)] of splitting (Algorithms 4/5); a process stalled here
      holds a stale [v], so its later [Cas] exercises the Lemma 3.1
      argument that stale parents are still ancestors.
    - [Split_cas_pre] / [Split_cas_post] — immediately before/after a
      splitting or compression [Cas] on a parent pointer.
    - [Link_cas_pre] / [Link_cas_post] — immediately before/after the
      linking [Cas] of [Unite] (Algorithms 3/7); crashing between these two
      is the "half-installed link" scenario: the link is in shared memory
      but the process that installed it never returns.

    Sites outside {!Dsu_algorithm}, arming the [MakeSet] extensions and the
    linking-by-rank variant:

    - [Make_set_publish] — inside {!Dsu.Growable.make_set}, after the
      slot is claimed and its chunk is published but before the random
      priority is; a crash here leaves a live element with the default
      priority [0], which the tie-breaking order tolerates.
    - [Chunk_publish_pre] / [Chunk_publish_post] — either side of the
      directory CAS that publishes a new chunk in {!Dsu.Growable}.  A
      crash before it loses only the unpublished chunk: the claimed slot
      lies past the published directory, so the entry check rejects it
      until a later [make_set] publishes the chunk.  A crash after it
      leaves the chunk live.
    - [Rank_read] — after a packed [(rank, parent)] word read that feeds a
      linking decision in {!Dsu.Packed}; a process stalled here holds a
      stale rank, exercising the re-validation [Cas].

    Durability sites, arming the fuzzy-snapshot scan and the write-ahead
    log's group commit ({!Repro_durable}):

    - [Snapshot_read] — before each per-cell acquire load of a fuzzy
      (non-quiescent) snapshot scan; crashing here abandons a snapshot
      mid-scan, recovery must fall back to the previous checkpoint.
    - [Wal_commit_pre] — at the top of a WAL group commit, before any byte
      of the batch reaches the file; crashing here loses the whole staged
      batch but leaves the log tail clean.
    - [Wal_commit_mid] — between the two partial writes of a group commit;
      crashing here leaves a torn record at the tail, which recovery must
      truncate at the first bad CRC.
    - [Wal_commit_post] — after the batch is written and fsynced; crashing
      here loses nothing (the batch is durable).

    Serving sites, arming the service's ingestion rings and completion
    lanes (both {!Repro_service.Slot_ring}):

    - [Queue_enq_cas] — immediately before a claim's CAS on a ring's
      [tail]: once per admitted request, and once per run of answers a
      worker pushes to one completion lane (a claim on a full ring hits
      nothing).  A crash here abandons the push with no ticket claimed.
    - [Queue_deq_cas] — immediately before a take's CAS on a ring's
      [head]: a worker's drain, a shed-oldest displacement, a client's
      poll (an empty ring hits nothing).  A worker crashed here dies
      between drains holding no slot: the "crash a worker domain
      mid-drain" scenario of the serving chaos drill.

    Attribution-only labels, used by the contention profiler to key
    CAS-outcome counts ([Dsu.Contention]) and never offered to the
    injection engine — no injection rule ever fires at them:

    - [Link_cas] — the linking [Cas] itself (outcome, not a crash point).
    - [Split_cas] — a splitting/compression [Cas] itself. *)

type t =
  | Find_hop
  | Split_read_gap
  | Split_cas_pre
  | Split_cas_post
  | Link_cas_pre
  | Link_cas_post
  | Make_set_publish
  | Chunk_publish_pre
  | Chunk_publish_post
  | Rank_read
  | Snapshot_read
  | Wal_commit_pre
  | Wal_commit_mid
  | Wal_commit_post
  | Queue_enq_cas
  | Queue_deq_cas
  | Link_cas
  | Split_cas

val all : t list

val to_string : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit

val cas_sites : t list
(** The four sites adjacent to a [Cas] — where crash-stop leaves the most
    interesting partial state. *)
