(** A DSU backend as one value; see the interface.  The two layout
    dispatches are {!create} here and [Repro_recover.Restore.restore]. *)

type kind = Dsu_plan.layout = Flat | Packed

type t = Flat of Dsu_native.t | Packed of Packed_dsu.Native.t

let kind : t -> kind = function
  | Flat _ -> Flat
  | Packed _ -> Packed

let create ?(plan = Dsu_plan.default) ?(seed = 1) ?(collect_stats = false)
    ?on_link n =
  let { Dsu_plan.compaction = policy; memory_order; layout } = plan in
  match layout with
  | Flat ->
    Flat
      (Dsu_native.create ~policy ~memory_order ~collect_stats ?on_link ~seed n)
  | Packed ->
    Packed
      (Packed_dsu.Native.create ~policy ~memory_order ~collect_stats ?on_link n)

let n = function
  | Flat d -> Dsu_native.n d
  | Packed d -> Packed_dsu.Native.n d

let find t x =
  match t with
  | Flat d -> Dsu_native.find d x
  | Packed d -> Packed_dsu.Native.find d x

let same_set t x y =
  match t with
  | Flat d -> Dsu_native.same_set d x y
  | Packed d -> Packed_dsu.Native.same_set d x y

let unite t x y =
  match t with
  | Flat d -> Dsu_native.unite d x y
  | Packed d -> Packed_dsu.Native.unite d x y

let unite_batch ?len t xs ys =
  match t with
  | Flat d -> Dsu_native.unite_batch ?len d xs ys
  | Packed d -> Packed_dsu.Native.unite_batch ?len d xs ys

let same_set_batch t xs ys =
  match t with
  | Flat d -> Dsu_native.same_set_batch d xs ys
  | Packed d -> Packed_dsu.Native.same_set_batch d xs ys

let find_batch t xs =
  match t with
  | Flat d -> Dsu_native.find_batch d xs
  | Packed d -> Packed_dsu.Native.find_batch d xs

let count_sets = function
  | Flat d -> Dsu_native.count_sets d
  | Packed d -> Packed_dsu.Native.count_sets d

let parents_snapshot = function
  | Flat d -> Dsu_native.parents_snapshot d
  | Packed d -> Packed_dsu.Native.parents_snapshot d

let prio t x =
  match t with
  | Flat d -> Dsu_native.id d x
  | Packed d -> Packed_dsu.Native.rank_of d x

let prios_snapshot = function
  | Flat d -> Dsu_native.ids_snapshot d
  | Packed d -> Packed_dsu.Native.ranks_snapshot d

let snapshot_fuzzy = function
  | Flat d -> Dsu_native.snapshot_fuzzy d
  | Packed d -> Packed_dsu.Native.snapshot_fuzzy d

let stats = function
  | Flat d -> Dsu_native.stats d
  | Packed d -> Packed_dsu.Native.stats d
