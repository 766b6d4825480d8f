(** Append-only operation log of effective link events, with group commit.

    Every successful link CAS (the moment a unite actually merges two
    trees) appends one fixed-size record via the layouts' [on_link] hook.
    Records are {e not} the unite calls — redundant unites settle without
    a link and log nothing — but replaying the links as unites rebuilds
    the same partition, which is all connectivity recovery needs.

    {2 Write path}

    The mutator hot path is one enqueue: stamp (seq, epoch), push onto a
    per-domain-sharded staging buffer (one mutex each, domains hash to
    shards so contention is spread).  There is no committer domain: the
    caller that finds work to commit leads a {e round} itself (leader-based
    group commit, as in Aether).  A round drains every shard and commits
    the records in chunks of [flush_records], one [write] + one [fsync]
    per chunk; one leader at a time, under a commit mutex.  An {!append}
    that brings the staged count to [flush_records] leads a round if the
    mutex is free; a {!flush} waits on the mutex for a round that covers
    its records.  Burst cost per record is therefore amortized to a buffer
    push; the window of loss on a crash (RPO) is the commit window, not
    per-op.  "The committer" in this repository's messages means whichever
    domain leads the commit.

    {2 On-disk format}

    Magic ["DSUWAL01"], then 37-byte records: kind byte [0x01], epoch,
    seq, x, y as 8-byte little-endian words, CRC-32 (of the preceding 33
    bytes) little-endian.  Records appear in commit order, which
    interleaves domains — readers must not assume seq-sorted order.

    {2 Torn tails}

    A crash mid-commit leaves a prefix of the batch on disk; the reader
    stops at the first record whose CRC fails (or that is cut short) and
    reports the byte offset — everything before it is trustworthy,
    everything after it is discarded ({!tail.truncated_at}).

    {2 Fault sites}

    With {!Repro_fault.Inject} armed, each commit hits
    {!Repro_fault.Site.Wal_commit_pre}, then {e flushes a partial batch}
    and hits {!Repro_fault.Site.Wal_commit_mid} (a crash here
    deterministically tears the final record), then fsyncs and hits
    {!Repro_fault.Site.Wal_commit_post}, all on the leader's domain.  A
    {!Repro_fault.Inject.Crashed} raised in a round is caught and latched
    ({!crashed}), like any other exception ({!failed}); either latch kills
    the log.  The leader returns normally and mutators keep appending
    unharmed — the dead-log state is exactly what the chaos drill recovers
    from. *)

type record = { seq : int; epoch : int; x : int; y : int }

val record_bytes : int
val magic : string

(** {1 Writer} *)

type writer

val create_writer :
  ?shards:int -> ?flush_records:int -> ?epoch:Epoch.t -> string -> writer
(** Create (truncating) the log at the given path.  [shards] (default 8)
    staging buffers; an {!append} leads a round once [flush_records]
    (default 64) records are staged, and each round commits in chunks of
    at most that many.  [epoch] shares an existing counter (else a fresh
    one).  @raise Invalid_argument on nonsensical knobs; [Sys_error] if
    the file cannot be created. *)

val append : writer -> child:int -> parent:int -> unit
(** Stage one link record, epoch-stamped now (call it {e after} the link
    applied — it is shaped to be passed as the layouts' [on_link] hook
    directly).  Blocks on I/O only when the staged count reaches
    [flush_records] and the commit mutex is free: then this call leads a
    round.  Never raises. *)

val flush : writer -> unit
(** Return once everything appended before the call is
    fsynced, or the log is dead.  The caller takes the commit mutex; if no
    round started since the call, it leads one, else that round already
    drained its records.  Never raises: callers that need the durability
    guarantee must check {!crashed}/{!failed} after [flush] returns. *)

val close : writer -> unit
(** Commit what is staged and close the file.  Idempotent and safe
    whatever killed the log: closers serialize on the commit mutex and the
    non-first are no-ops; nothing raises.  Records appended after [close]
    are dropped. *)

val epoch : writer -> Epoch.t
val path : writer -> string

val crashed : writer -> (Repro_fault.Site.t * int) option
(** The latched [(site, slot)] if an injected crash killed a round. *)

val failed : writer -> exn option
(** The latched exception if anything {e other} than an injected crash
    killed a round (disk full, closed descriptor, …).  Either latch
    means no further record will ever commit. *)

type writer_stats = {
  ws_appended : int;  (** records staged *)
  ws_committed : int;  (** records fsynced *)
  ws_commits : int;  (** group commits (= fsyncs) *)
  ws_crashed : (Repro_fault.Site.t * int) option;
}

val writer_stats : writer -> writer_stats

(** {1 Reader} *)

type tail = {
  records : record array;  (** the valid prefix, in commit order *)
  truncated_at : int option;
      (** byte offset of the first torn/corrupt record, if any *)
  total_bytes : int;
}

val empty_tail : tail

val of_string : string -> (tail, string) result
(** [Error] only for a missing/foreign magic; torn or corrupt records are
    reported via [truncated_at], never as an error. *)

val read_file : string -> (tail, string) result

val truncate_file : string -> (tail, string) result
(** {!read_file}, then physically truncate the file at the torn point (a
    no-op when the log is clean).  Returns the tail after truncation. *)

(** {1 Codec} (exposed for tests and the [wal] inspection subcommand) *)

val encode_record : record -> bytes
val decode_record : string -> int -> (record, [ `Short | `Crc | `Kind ]) result
