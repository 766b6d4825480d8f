(** Log-linear ("HDR-style") histogram with bounded relative error.

    Values in [\[0, 255\]] are recorded exactly; each power-of-two octave
    above is split into 128 equal-width sub-buckets, so any reported
    bucket bound overstates a member value by at most {!rel_error}
    (1/128 ≈ 0.78%).  Values above {!max_trackable} (2{^40} − 1 ≈ 18
    minutes in nanoseconds) clamp to it.  This is the instrument behind
    the p999-grade latency quantiles; the factor-of-two
    {!Metrics.histogram} remains for cheap step-count distributions.

    Storage is sharded per domain exactly like {!Metrics} (16 cache-padded
    slots indexed by [Domain.self () mod 16], racy-merge caveats
    identical), and lazily materialized so an unarmed program allocates
    nothing.  [create ~sharded:false] gives a single-slot recorder for
    single-writer use (one per load-generator domain in
    [Harness.Load]), 16× cheaper in memory. *)

type t

val create : ?sharded:bool -> unit -> t
(** A new histogram with no storage yet; [sharded] defaults to [true]. *)

val materialize : t -> unit
(** Allocate the slot storage.  Until this is called, {!observe} drops
    samples.  {!Metrics.set_enabled}[ true] materializes registered
    instruments; standalone recorders call this themselves. *)

val materialized : t -> bool

val observe : t -> int -> unit
(** Record one sample (unsynchronized write to the calling domain's slot).
    Negative samples clamp to [0], oversized ones to {!max_trackable}.
    No-op until {!materialize}.  Unlike {!Metrics.observe} this is not
    gated on {!Switch.metrics}; registry-owned instances are gated by
    {!Metrics.observe_hdr}. *)

val reset : t -> unit

(** {2 Snapshots} *)

type snapshot = {
  count : int;
  sum : int;
  min : int;  (** exact minimum observed; [0] when empty *)
  max : int;  (** exact maximum observed *)
  buckets : (int * int) list;
      (** [(inclusive upper bound, count)] per non-empty bucket, in
          increasing bound order. *)
}

val empty : snapshot

val snap : t -> snapshot
(** Merge all slots (racy against concurrent writers; exact once they
    have quiesced, like {!Metrics.snapshot_of}). *)

val merge : snapshot -> snapshot -> snapshot
(** Exact, associative and commutative: merging per-domain snapshots in
    any order equals having observed every sample into one histogram. *)

val quantile : snapshot -> float -> int
(** [quantile s q] for [q] in [\[0, 1\]]: the upper bound of the first
    bucket whose cumulative count reaches [ceil (q * count)], clamped to
    the exact maximum.  Overstates the true order statistic by at most
    {!rel_error}; exact for a single sample and everywhere below 256. *)

val mean : snapshot -> float

(** {2 Parameters} *)

val max_trackable : int
val rel_error : float
val n_buckets : int

val bucket_of : int -> int
(** Bucket index of a (clamped) value — exposed for tests. *)

val bucket_upper : int -> int
(** Inclusive upper bound of a bucket index — exposed for tests. *)
