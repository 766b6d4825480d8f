(** Perf-regression differ over the repo's benchmark JSON documents.

    Compares two documents of the same kind — bechamel [bench --out]
    results, [dsu-scalability/*] sweeps, [dsu-latency/*] sweeps,
    [dsu-service/*] serving sweeps, [dsu-drill/*] crash drills (the RTO
    of each scenario that measured one; RPO is a correctness gate, not a
    diffed metric), [dsu-durability/*] reports, [dsu-connectivity/*]
    sweeps, or [dsu-autotune/*] reports (auto-detected) — and flags
    per-configuration metric deltas beyond a noise threshold, respecting
    each metric's better-direction ([ns_per_run], latency quantiles,
    [pause_ns] and [rto_ns] lower-better, [mops_per_sec] and
    [achieved_rate] higher-better).  For autotune
    documents the per-plan throughputs diff as ordinary rows and a changed
    winning plan is reported in {!report.warnings} — a warning, not a
    structural error.  Consumed by the [dsu_workload perfdiff] CLI; the
    CI perf-history artifact is {!to_json}'s [dsu-perfdiff/v1] document. *)

type direction = Lower_better | Higher_better

type row = {
  key : string;  (** which measured configuration *)
  metric : string;
  dir : direction;
  base : float;
  current : float;
  delta_pct : float;  (** signed; positive means current is larger *)
}

type report = {
  kind : string;  (** detected document kind *)
  threshold_pct : float;
  rows : row list;  (** every key+metric present in both documents *)
  regressions : row list;
  improvements : row list;
  only_base : string list;
  only_current : string list;
  warnings : string list;
      (** non-fatal observations — currently the autotune winner changing
          between baseline and current *)
}

val diff :
  ?threshold_pct:float ->
  base:Repro_obs.Json.t ->
  current:Repro_obs.Json.t ->
  unit ->
  (report, string) result
(** [threshold_pct] defaults to 10.  [Error] on unparseable structure,
    unrecognized schema, or kind mismatch. *)

val diff_strings :
  ?threshold_pct:float ->
  base:string ->
  current:string ->
  unit ->
  (report, string) result
(** {!diff} after parsing both documents; malformed JSON is an [Error]. *)

val to_json : report -> Repro_obs.Json.t
(** The [dsu-perfdiff/v1] document. *)

val pp : Format.formatter -> report -> unit
