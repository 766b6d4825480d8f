(** Plan-space autotuner.

    Sweeps a set of {!Dsu.Plan} points (default {!Dsu.Plan.candidates})
    over one workload {!profile} with {!Scalability.run_point}, ranks
    them by throughput, and reports the winner with its margins over the
    runner-up and over {!Dsu.Plan.default}.  Results serialize as the
    ["dsu-autotune/v1"] JSON document (its {!Perfdiff} [metrics] are the
    per-plan throughputs; a changed ["winner"] diffs as a warning) and cache
    on disk keyed by the profile's {!fingerprint}, so [--plan auto] in the
    CLIs is a file read on every run after the first. *)

type profile = {
  n : int;
  domains : int;
  unite_percent : int;
  dist : Scalability.dist;
  total_ops : int;
  seed : int;
}
(** The workload shape the tuner optimizes for.  All fields feed the
    {!fingerprint}. *)

val default_profile : profile
(** n = 2^16, min(recommended, 4) domains, 30% unites, uniform keys,
    200k ops, seed 21. *)

val fingerprint : profile -> string
(** Deterministic cache key, e.g. ["n65536-d2-u30-uniform-ops200000-s21"]. *)

type measurement = {
  plan : Dsu.Plan.t;
  mops_per_sec : float;  (** best of the repeats *)
  failures : int;  (** worker exceptions during the timed runs *)
}

type result = {
  profile : profile;
  winner : Dsu.Plan.t;
  winner_mops : float;
  runner_up : Dsu.Plan.t option;
  margin_over_runner_up_pct : float;
  margin_over_default_pct : float;
      (** winner vs {!Dsu.Plan.default} on the same profile; 0 when the
          default wins *)
  measurements : measurement list;  (** in sweep order *)
}

val run :
  ?plans:Dsu.Plan.t list ->
  ?repeats:int ->
  ?progress:(measurement -> unit) ->
  profile:profile ->
  unit ->
  result
(** One full sweep.  [plans] defaults to {!Dsu.Plan.candidates};
    {!Dsu.Plan.default} is force-included so the default margin is always
    measured.  [repeats] (default 1) takes the best of that many timed
    runs per plan.  Plans with worker failures are excluded from winning.
    @raise Invalid_argument on an empty [plans] list. *)

(** {1 Codec} — the ["dsu-autotune/v1"] schema *)

val schema : string

val to_json : result -> Repro_obs.Json.t
val of_json : Repro_obs.Json.t -> (result, string) Stdlib.result
val of_json_string : string -> (result, string) Stdlib.result

(** {1 Cache} *)

val default_cache_dir : string
(** [".dsu-autotune"], relative to the working directory. *)

val cache_path : dir:string -> profile -> string

val load_cached : dir:string -> profile -> result option
(** [None] on a missing, unreadable, corrupt or mismatching entry — a bad
    cache file is just a miss, never an error. *)

val store : dir:string -> result -> unit
(** Creates [dir] if missing.  Raises [Sys_error]/[Unix.Unix_error] on I/O
    failure. *)

val auto :
  ?plans:Dsu.Plan.t list ->
  ?repeats:int ->
  ?cache_dir:string ->
  ?progress:(measurement -> unit) ->
  profile:profile ->
  unit ->
  result * [ `Cached | `Measured ]
(** The [--plan auto] engine: {!load_cached}, falling back to {!run} +
    best-effort {!store}. *)

val pp : Format.formatter -> result -> unit
