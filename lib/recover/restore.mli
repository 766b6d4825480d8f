(** Rebuild a live structure from a {!Snapshot.t}.

    Dispatches on the snapshot's kind to the layout's validated
    [of_snapshot] constructor and hands back the one backend type,
    {!Dsu.Driver.t}; re-capture is {!Snapshot.of_driver}. *)

val restore :
  ?plan:Dsu.Plan.t ->
  ?collect_stats:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  Snapshot.t ->
  Dsu.Driver.t
(** The snapshot's kind picks the layout; [plan] (default
    {!Dsu.Plan.default}) supplies the compaction rule, backoff and memory
    order, and a [Padded] plan layout pads a flat restore.  [on_link]
    hooks every successful link CAS — pass {!Repro_durable.Wal.append} to
    resume logging after recovery.
    @raise Invalid_argument when the snapshot fails the layout's invariant
    validation (run {!Repair.repair} first). *)

val restore_result :
  ?plan:Dsu.Plan.t ->
  ?collect_stats:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  Snapshot.t ->
  (Dsu.Driver.t, string) result
(** {!restore} with the validation failure as an [Error]. *)
