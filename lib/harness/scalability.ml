module Policy = Dsu.Find_policy
module Order = Dsu.Memory_order
module Table = Repro_util.Table
module J = Repro_obs.Json

type dist = Closed_loop.dist = Uniform | Skewed

let all_dists = [ Uniform; Skewed ]
let dist_to_string = function Uniform -> "uniform" | Skewed -> "skewed"

let dist_of_string = function
  | "uniform" -> Some Uniform
  | "skewed" -> Some Skewed
  | _ -> None

type point = {
  layout : Dsu.Plan.layout;
  policy : Policy.t;
  memory_order : Order.t;
  backoff : bool;
  dist : dist;
  domains : int;
  n : int;
  total_ops : int;
  seconds : float;
  mops_per_sec : float;
  failures : (int * string) list;
}

type config = {
  n : int;
  total_ops : int;
  unite_percent : int;
  seed : int;
  domain_counts : int list;
  policies : Policy.t list;
  layouts : Dsu.Plan.layout list;
  memory_orders : Order.t list;
  backoffs : bool list;
  dists : dist list;
}

let default_config =
  {
    n = 1 lsl 16;
    total_ops = 400_000;
    unite_percent = 30;
    seed = 21;
    domain_counts = [ 1; 2; 4; 8 ];
    policies = [ Policy.Two_try_splitting; Policy.One_try_splitting ];
    layouts = [ Dsu.Plan.Flat ];
    memory_orders = [ Order.default ];
    backoffs = [ true ];
    dists = [ Uniform ];
  }

let run_point ?(config = default_config) ?(dist = Uniform) ~(plan : Dsu.Plan.t)
    ~domains () =
  if domains < 1 then invalid_arg "Scalability.run_point: domains must be >= 1";
  let { n; total_ops; unite_percent; seed; _ } = config in
  let ops_per_domain = max 1 (total_ops / domains) in
  let ops =
    Closed_loop.gen_ops ~dist ~n ~unite_percent ~seed ~domains ~ops_per_domain ()
  in
  (* [seed] feeds the flat layouts' random priorities; packed links by
     rank and ignores it. *)
  let d = Dsu.Driver.create ~plan ~seed n in
  let r = Closed_loop.run ~apply:(Workload.Op.run_driver_array d) ops in
  {
    layout = plan.layout;
    policy = plan.compaction;
    memory_order = plan.memory_order;
    backoff = plan.backoff;
    dist;
    domains;
    n;
    total_ops = r.ops;
    seconds = r.seconds;
    mops_per_sec = r.ops_per_sec /. 1e6;
    failures = r.failures;
  }

let sweep ?(config = default_config) ?progress () =
  let ( let* ) l f = List.concat_map f l in
  let* layout = config.layouts in
  let* compaction = config.policies in
  let* memory_order = config.memory_orders in
  let* backoff = config.backoffs in
  let* dist = config.dists in
  let* domains = config.domain_counts in
  let plan =
    Dsu.Plan.on_layout layout
      { Dsu.Plan.default with compaction; memory_order; backoff }
  in
  let p = run_point ~config ~dist ~plan ~domains () in
  Option.iter (fun f -> f p) progress;
  [ p ]

let point_to_json (p : point) =
  J.Obj
    [
      ("layout", J.String (Dsu.Plan.layout_to_string p.layout));
      ("policy", J.String (Policy.to_string p.policy));
      ("memory_order", J.String (Order.to_string p.memory_order));
      ("backoff", J.Bool p.backoff);
      ("dist", J.String (dist_to_string p.dist));
      ("domains", J.Int p.domains);
      ("n", J.Int p.n);
      ("total_ops", J.Int p.total_ops);
      ("seconds", J.Float p.seconds);
      ("mops_per_sec", J.Float p.mops_per_sec);
      ( "failures",
        J.List
          (List.map
             (fun (k, msg) ->
               J.Obj [ ("domain", J.Int k); ("error", J.String msg) ])
             p.failures) );
    ]

let metric (p : point) =
  {
    Perfdiff.key =
      Printf.sprintf "layout=%s policy=%s order=%s backoff=%b dist=%s domains=%d"
        (Dsu.Plan.layout_to_string p.layout)
        (Policy.to_string p.policy)
        (Order.to_string p.memory_order)
        p.backoff (dist_to_string p.dist) p.domains;
    metric = "mops_per_sec";
    dir = Higher_better;
    value = p.mops_per_sec;
  }

let to_json ?(config = default_config) points =
  J.Obj
    [
      ("schema", J.String "dsu-scalability/v2");
      ("n", J.Int config.n);
      ("unite_percent", J.Int config.unite_percent);
      ("seed", J.Int config.seed);
      ("recommended_domains", J.Int (Domain.recommended_domain_count ()));
      ("points", J.List (List.map point_to_json points));
      Perfdiff.metrics_field (List.map metric points);
    ]

let pp_table ppf points =
  let table =
    Table.create
      ~headers:
        [
          "layout"; "policy"; "order"; "backoff"; "dist"; "domains"; "Mops/s";
          "vs 1-dom"; "errs";
        ]
  in
  let key p = (p.layout, p.policy, p.memory_order, p.backoff, p.dist) in
  let base = Hashtbl.create 8 in
  List.iter
    (fun p -> if p.domains = 1 then Hashtbl.replace base (key p) p.mops_per_sec)
    points;
  List.iter
    (fun p ->
      let speedup =
        match Hashtbl.find_opt base (key p) with
        | Some b when b > 0. -> Table.cell_ratio (p.mops_per_sec /. b)
        | _ -> "-"
      in
      Table.add_row table
        [
          Dsu.Plan.layout_to_string p.layout;
          Policy.to_string p.policy;
          Order.to_string p.memory_order;
          (if p.backoff then "on" else "off");
          dist_to_string p.dist;
          Table.cell_int p.domains;
          Table.cell_float p.mops_per_sec;
          speedup;
          (if p.failures = [] then "-" else Table.cell_int (List.length p.failures));
        ])
    points;
  Table.pp ppf table;
  List.iter
    (fun p ->
      List.iter
        (fun (k, msg) ->
          Format.fprintf ppf "@.worker failure: %s/%s/%s domain %d: %s"
            (Dsu.Plan.layout_to_string p.layout) (Policy.to_string p.policy)
            (Order.to_string p.memory_order) k msg)
        p.failures)
    points
