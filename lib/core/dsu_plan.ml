(** First-class points of the implementation plan space.

    Alistarh, Fedorov and Koval ("In Search of the Fastest Concurrent
    Union-Find Algorithm") show that no single (linking rule x compaction
    rule) point wins across workloads; this module names the grid the
    repo can actually run — {!Find_policy} compaction x {!Memory_order} x
    memory layout — so ablation sweeps and the [--plan] CLI flags speak
    the same value.

    The layout fixes the linking rule, so every plan is valid:

    - [Flat] is the paper's randomized linking by id over one contiguous
      parent word per node ({!Dsu_native});
    - [Packed] is Section 7's linking by rank over one packed
      [(root flag, rank, parent)] word per node ({!Packed_dsu}).

    Linking by size, the remaining cell of the Alistarh et al. grid, has
    no concurrent implementation here, so the grammar has no spelling
    for it.  A failed link CAS always backs off ({!Dsu_algorithm}), so
    backoff is not an axis.

    The plan is the one value that names a backend: {!Dsu_driver.create}
    builds the layout the plan names.

    The spec syntax, parsed by the [--plan] flag of the [dsu_workload]
    subcommands, is three colon-separated fields:

    {v compaction:memory-order:layout
       e.g.  two-try:relaxed-reads:flat
             halving:acquire:packed v} *)

type layout = Flat | Packed

let layout_to_string = function Flat -> "flat" | Packed -> "packed"

let layout_of_string = function
  | "flat" -> Some Flat
  | "packed" -> Some Packed
  | _ -> None

type t = {
  compaction : Find_policy.t;
  memory_order : Memory_order.t;
  layout : layout;
}

let default =
  {
    compaction = Find_policy.Two_try_splitting;
    memory_order = Memory_order.default;
    layout = Flat;
  }

let equal a b =
  Find_policy.equal a.compaction b.compaction
  && a.memory_order = b.memory_order
  && a.layout = b.layout

let to_string p =
  String.concat ":"
    [
      Find_policy.to_string p.compaction;
      Memory_order.to_string p.memory_order;
      layout_to_string p.layout;
    ]

let pp ppf p = Format.pp_print_string ppf (to_string p)

let of_string s =
  match String.split_on_char ':' s with
  | [ c; o; y ] ->
    let field what parse v =
      match parse v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad plan %s %S in %S" what v s)
    in
    let ( let* ) = Result.bind in
    let* compaction = field "compaction rule" Find_policy.of_string c in
    let* memory_order = field "memory order" Memory_order.of_string o in
    let* layout = field "layout" layout_of_string y in
    Ok { compaction; memory_order; layout }
  | _ ->
    Error
      (Printf.sprintf
         "bad plan spec %S (want compaction:order:layout, e.g. %S)" s
         (to_string default))
