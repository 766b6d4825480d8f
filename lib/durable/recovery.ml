module Snapshot = Repro_recover.Snapshot
module Repair = Repro_recover.Repair
module Restore = Repro_recover.Restore
module J = Repro_obs.Json

type stats = {
  snapshot_epoch : int;
  from_epoch : int;
  fixes : int;
  replayed : int;
  skipped : int;
  out_of_range : int;
  truncated_at : int option;
}

let ( let* ) = Result.bind

let replay r ~from_epoch (records : Wal.record array) =
  let n = Dsu.Driver.n r in
  let replayed = ref 0 and skipped = ref 0 and oor = ref 0 in
  Array.iter
    (fun (rc : Wal.record) ->
      if rc.Wal.epoch < from_epoch then incr skipped
      else if rc.x < 0 || rc.x >= n || rc.y < 0 || rc.y >= n then
        (* A record naming a node outside the restored universe: the
           log is input, so a damaged or foreign record is dropped and
           counted, never applied. *)
        incr oor
      else begin
        Dsu.Driver.unite r rc.x rc.y;
        incr replayed
      end)
    records;
  (!replayed, !skipped, !oor)

let recover ?plan ?collect_stats ?on_link ~snapshot ~tail () =
  (* Repair before restore: a snapshot corrupted in storage must not make
     restore raise, and any fix voids the epoch-cut guarantee, so the
     replay falls back to the whole log. *)
  let repaired, fixes = Repair.repair snapshot in
  let from_epoch = if fixes = [] then snapshot.Snapshot.epoch else 0 in
  let* r = Restore.restore_result ?plan ?collect_stats ?on_link repaired in
  let replayed, skipped, out_of_range = replay r ~from_epoch tail.Wal.records in
  Ok
    ( r,
      {
        snapshot_epoch = snapshot.Snapshot.epoch;
        from_epoch;
        fixes = List.length fixes;
        replayed;
        skipped;
        out_of_range;
        truncated_at = tail.Wal.truncated_at;
      } )

let newest_valid paths =
  List.fold_left
    (fun best p ->
      match Snapshot.read_file p with
      | Error _ -> best
      | Ok s -> (
        match best with
        | Some (_, (b : Snapshot.t)) when b.epoch >= s.Snapshot.epoch -> best
        | _ -> Some (p, s)))
    None paths

let recover_files ?plan ?collect_stats ?on_link ~snapshots ?wal () =
  let* snapshot =
    match newest_valid snapshots with
    | Some (_, s) -> Ok s
    | None -> Error "no valid snapshot among the candidates"
  in
  let* tail =
    match wal with
    | None -> Ok Wal.empty_tail
    | Some p -> if Sys.file_exists p then Wal.read_file p else Ok Wal.empty_tail
  in
  recover ?plan ?collect_stats ?on_link ~snapshot ~tail ()

let stats_to_json s =
  J.Obj
    [
      ("snapshot_epoch", J.Int s.snapshot_epoch);
      ("from_epoch", J.Int s.from_epoch);
      ("fixes", J.Int s.fixes);
      ("replayed", J.Int s.replayed);
      ("skipped", J.Int s.skipped);
      ("out_of_range", J.Int s.out_of_range);
      ( "truncated_at",
        match s.truncated_at with None -> J.Null | Some o -> J.Int o );
    ]

let pp_stats ppf s =
  Format.fprintf ppf
    "recovery{epoch=%d, from=%d, fixes=%d, replayed=%d, skipped=%d, \
     out_of_range=%d%s}"
    s.snapshot_epoch s.from_epoch s.fixes s.replayed s.skipped s.out_of_range
    (match s.truncated_at with
    | None -> ""
    | Some o -> Printf.sprintf ", torn@%d" o)
