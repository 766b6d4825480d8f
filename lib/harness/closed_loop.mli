(** The closed-loop runner: [D] domains each apply one pre-generated
    bucket of operations to one shared structure, issuing the next
    operation as the previous returns, and the run is timed from the
    first spawn to the last join on the monotonic clock.

    Every closed-loop measurement goes through {!run} — the [native],
    [snapshot] and [restore] subcommands, {!Scalability}, {!Durability}
    and experiment E13 — so their numbers
    come from one loop and are comparable.  The open-loop counterpart is
    {!Load}.  The chaos drill keeps its own loop (see [Chaos]). *)

type dist = Uniform | Skewed
(** Endpoint distribution: [Uniform] over [0, n), or [Skewed] — 80% of
    endpoints drawn from a hot range of [max 16 (n/256)] nodes. *)

val gen_ops :
  ?dist:dist ->
  n:int ->
  unite_percent:int ->
  seed:int ->
  domains:int ->
  ops_per_domain:int ->
  unit ->
  Workload.Op.t array array
(** One bucket of [Unite]/[Same_set] ops per domain ([dist] defaults to
    [Uniform]); bucket [k] draws from seed [seed + 1000 k], so a bucket
    does not depend on the domain count. *)

val applier :
  unite:(int -> int -> unit) ->
  same_set:(int -> int -> bool) ->
  find:(int -> int) ->
  Workload.Op.t array ->
  unit
(** A bucket applier over any structure's three operations, for the
    baselines that have no array runner in {!Workload.Op}. *)

type 'a result = {
  seconds : float;  (** first spawn to last join, monotonic clock *)
  ops : int;  (** every op of every bucket *)
  ops_per_sec : float;
  failures : (int * string) list;
      (** [(domain, exception)] of every worker that raised; empty on a
          clean run *)
  during : 'a option;  (** [during]'s value, when one was given *)
}

val run :
  ?during:(unit -> 'a) ->
  apply:(Workload.Op.t array -> unit) ->
  Workload.Op.t array array ->
  'a result
(** [run ~apply buckets] spawns one domain per bucket, each calling
    [apply] on its bucket.  [during] runs on the calling domain while the
    workers run (a concurrent capture, say).  Every domain is always
    joined: a worker that raises is reported in its slot of [failures],
    and an exception from [during] is re-raised only after the joins.
    Generating the buckets is the caller's job, outside the timed
    section. *)

val raise_failures : 'a result -> unit
(** @raise Failure naming every failed domain, if any worker raised. *)
