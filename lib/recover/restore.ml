let restore ?(plan = Dsu.Plan.default) ?(collect_stats = false) ?on_link
    (s : Snapshot.t) : Dsu.Driver.t =
  let { Dsu.Plan.compaction = policy; backoff; memory_order; layout; _ } = plan in
  match s.kind with
  | Snapshot.Flat ->
    Flat
      (Dsu.Native.of_snapshot ~policy ~backoff ~memory_order ~collect_stats
         ~padded:(layout = Dsu.Plan.Padded) ?on_link ~parents:s.parents
         ~ids:s.prios ())
  | Snapshot.Packed ->
    Packed
      (Dsu.Packed.Native.of_snapshot ~policy ~backoff ~memory_order
         ~collect_stats ?on_link ~parents:s.parents ~ranks:s.prios ())

let restore_result ?plan ?collect_stats ?on_link s =
  match restore ?plan ?collect_stats ?on_link s with
  | r -> Ok r
  | exception Invalid_argument msg -> Error msg
