(** Perf-regression differ over the repo's benchmark JSON documents.

    Every perf document carries a ["metrics"] list of
    [{"key","metric","dir","value"}] entries, written by {!metrics_field}
    in the module that measured them.  {!diff} compares two documents of
    the same kind (their ["schema"]; a document without one is
    ["bechamel"]), pairs entries by key and metric, and flags deltas beyond
    a noise threshold in each metric's better-direction.  Consumed by the
    [dsu_workload perfdiff] CLI; the CI perf-history artifact is
    {!to_json}'s [dsu-perfdiff/v1] document. *)

type direction = Lower_better | Higher_better

type entry = { key : string; metric : string; dir : direction; value : float }
(** One measured number: [key] names the configuration, [metric] the
    quantity. *)

val metrics_field : entry list -> string * Repro_obs.Json.t
(** The ["metrics"] field of a perf document.  Entries with a non-finite
    [value] are left out. *)

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
}

val diff :
  ?threshold_pct:float ->
  base:Repro_obs.Json.t ->
  current:Repro_obs.Json.t ->
  unit ->
  (report, string) result
(** [threshold_pct] defaults to 10.  [Error] on a non-finite or
    negative [threshold_pct], a missing or malformed ["metrics"] list, an entry
    repeated within one document, or a kind mismatch. *)

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
