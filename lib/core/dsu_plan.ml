(** First-class points of the implementation plan space.

    Alistarh, Fedorov and Koval ("In Search of the Fastest Concurrent
    Union-Find Algorithm") show that no single (linking rule x compaction
    rule) point wins across workloads; this module names the grid the
    repo can actually run — linking rule x {!Find_policy} compaction x
    {!Memory_order} x link-CAS backoff x memory layout — so ablation
    sweeps, the autotuner ([Harness.Autotune]) and the [--plan] CLI flags
    all speak the same value.

    A plan is {e valid} when the combination is implemented and
    meaningful:

    - [Random_id] linking (the paper's randomized algorithm) runs over
      the [Flat] and [Padded] layouts;
    - [By_rank] linking runs over the [Packed] single-word layout.

    Linking by size, the remaining cell of the Alistarh et al. grid, has
    no concurrent implementation here, so the grammar has no spelling
    for it.

    The plan is the one value that names a backend: {!Dsu_driver.create}
    builds the layout the plan names.

    The spec syntax, parsed by the [--plan] flag of the [dsu_workload]
    subcommands, is five colon-separated fields:

    {v linking:compaction:memory-order:backoff:layout
       e.g.  rand:two-try:relaxed-reads:on:flat
             rank:halving:acquire:off:packed v} *)

type linking = Random_id | By_rank

let all_linkings = [ Random_id; By_rank ]

let linking_to_string = function Random_id -> "rand" | By_rank -> "rank"

let linking_of_string = function
  | "rand" | "random" -> Some Random_id
  | "rank" -> Some By_rank
  | _ -> None

type layout = Flat | Padded | Packed

let layout_to_string = function
  | Flat -> "flat"
  | Padded -> "flat-padded"
  | Packed -> "packed"

let layout_of_string = function
  | "flat" -> Some Flat
  | "flat-padded" | "padded" -> Some Padded
  | "packed" -> Some Packed
  | _ -> None

type t = {
  linking : linking;
  compaction : Find_policy.t;
  memory_order : Memory_order.t;
  backoff : bool;
  layout : layout;
}

let default =
  {
    linking = Random_id;
    compaction = Find_policy.Two_try_splitting;
    memory_order = Memory_order.default;
    backoff = true;
    layout = Flat;
  }

let equal a b =
  a.linking = b.linking
  && Find_policy.equal a.compaction b.compaction
  && a.memory_order = b.memory_order
  && a.backoff = b.backoff
  && a.layout = b.layout

let to_string p =
  String.concat ":"
    [
      linking_to_string p.linking;
      Find_policy.to_string p.compaction;
      Memory_order.to_string p.memory_order;
      (if p.backoff then "on" else "off");
      layout_to_string p.layout;
    ]

let pp ppf p = Format.pp_print_string ppf (to_string p)

let validate p =
  match (p.linking, p.layout) with
  | Random_id, Packed ->
    Error "the packed layout links by rank; use rank:...:packed"
  | By_rank, (Flat | Padded) ->
    Error "rank linking requires the packed layout (rank:...:packed)"
  | Random_id, (Flat | Padded) | By_rank, Packed -> Ok ()

let is_valid p = Result.is_ok (validate p)

(* [p] moved onto [layout], with the linking rule that layout implements. *)
let on_layout layout p =
  { p with layout; linking = (if layout = Packed then By_rank else Random_id) }

let of_string s =
  match String.split_on_char ':' s with
  | [ l; c; o; b; y ] -> (
    let field what parse v =
      match parse v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad plan %s %S in %S" what v s)
    in
    let ( let* ) = Result.bind in
    let* linking = field "linking rule" linking_of_string l in
    let* compaction = field "compaction rule" Find_policy.of_string c in
    let* memory_order = field "memory order" Memory_order.of_string o in
    let* backoff =
      field "backoff switch"
        (function "on" -> Some true | "off" -> Some false | _ -> None)
        b
    in
    let* layout = field "layout" layout_of_string y in
    let p = { linking; compaction; memory_order; backoff; layout } in
    match validate p with
    | Ok () -> Ok p
    | Error e -> Error (Printf.sprintf "invalid plan %S: %s" s e))
  | _ ->
    Error
      (Printf.sprintf
         "bad plan spec %S (want linking:compaction:order:backoff:layout, \
          e.g. %S)"
         s (to_string default))

(* The registry: every valid point of the grid, in deterministic order.
   [Padded] is omitted from the enumeration — the false-sharing ablation
   twin of [Flat], not an independent contender — but remains a valid
   spec for explicit [--plan] requests. *)
let registry =
  let orders = Memory_order.all in
  let backoffs = [ true; false ] in
  let points linking layouts =
    List.concat_map
      (fun layout ->
        List.concat_map
          (fun compaction ->
            List.concat_map
              (fun memory_order ->
                List.filter_map
                  (fun backoff ->
                    let p =
                      { linking; compaction; memory_order; backoff; layout }
                    in
                    if is_valid p then Some p else None)
                  backoffs)
              orders)
          Find_policy.all)
      layouts
  in
  points Random_id [ Flat ] @ points By_rank [ Packed ]

(* The short list the fast calibration sweep measures: the default plan,
   its one-axis neighbours that historically matter (compaction rule,
   seq-cst baseline, padding) and the packed by-rank contenders.  Kept
   small on purpose — [--plan auto] runs these on the live machine. *)
let candidates =
  [
    default;
    { default with compaction = Find_policy.One_try_splitting };
    { default with compaction = Find_policy.Halving };
    { default with compaction = Find_policy.Compression };
    { default with memory_order = Memory_order.Seq_cst };
    { default with backoff = false };
    { default with layout = Padded };
    { default with linking = By_rank; layout = Packed };
    {
      default with
      linking = By_rank;
      layout = Packed;
      compaction = Find_policy.Halving;
    };
    {
      default with
      linking = By_rank;
      layout = Packed;
      compaction = Find_policy.One_try_splitting;
    };
  ]
