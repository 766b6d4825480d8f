(** Recovery: newest valid snapshot + WAL tail replay.

    The recovery contract (see {!Epoch} for the cut argument):

    + pick the newest snapshot that decodes and passes its checksum
      ({!newest_valid} — "newest" = highest epoch, so a fuzzy checkpoint
      beats an older quiescent one);
    + run {!Repro_recover.Repair.repair} on it — a clean snapshot is
      returned unchanged; any fix voids the epoch-cut guarantee and
      forces a full-log replay;
    + rebuild the live structure ({!Repro_recover.Restore});
    + replay the WAL's valid prefix from the snapshot's epoch on,
      dropping records below it (already in the cut) and records whose
      endpoints fall outside the restored universe (counted, never
      applied).  The torn tail past the first bad CRC was never
      acknowledged as committed, so dropping it only loses the group
      commit in flight — the documented RPO.

    Replaying a record the cut already contains is harmless: unite is
    idempotent and commutative for connectivity, so over-replay can only
    re-merge what is already merged. *)

type stats = {
  snapshot_epoch : int;
  from_epoch : int;  (** 0 when repair had to fix the snapshot *)
  fixes : int;
  replayed : int;
  skipped : int;  (** records below [from_epoch] *)
  out_of_range : int;
  truncated_at : int option;  (** byte offset of the WAL's torn tail *)
}

val replay :
  Dsu.Driver.t ->
  from_epoch:int ->
  Wal.record array ->
  int * int * int
(** [(replayed, skipped, out_of_range)]; applies each eligible record as
    a unite on the restored structure. *)

val recover :
  ?plan:Dsu.Plan.t ->
  ?collect_stats:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  snapshot:Repro_recover.Snapshot.t ->
  tail:Wal.tail ->
  unit ->
  (Dsu.Driver.t * stats, string) result
(** Repair, restore ({!Repro_recover.Restore.restore}, whose [plan]
    knobs these are), replay.  [on_link] re-attaches a fresh WAL so the
    recovered structure resumes logging. *)

val newest_valid :
  string list -> (string * Repro_recover.Snapshot.t) option
(** The readable, checksum-passing candidate with the highest epoch
    (later in the list wins ties); [None] if none decodes. *)

val recover_files :
  ?plan:Dsu.Plan.t ->
  ?collect_stats:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  snapshots:string list ->
  ?wal:string ->
  unit ->
  (Dsu.Driver.t * stats, string) result
(** {!newest_valid} over the snapshot candidates, then {!recover} with
    the WAL file's valid prefix (a missing WAL file means an empty
    tail). *)

val stats_to_json : stats -> Repro_obs.Json.t
val pp_stats : Format.formatter -> stats -> unit
