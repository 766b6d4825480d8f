(* Streaming-connectivity benchmark family: edges/sec for the
   ConnectIt-style pipeline (sampling x plan x mode) over
   streamed generators, against the Borůvka and Anderson–Woll baselines,
   plus a Pătrașcu–Thorup adversarial incremental-connectivity point.
   Emits dsu-connectivity/v1, whose {!Perfdiff} metrics are the pipeline
   edges/sec (total and finish phase) per point, each baseline's
   edges/sec and the adversarial point's ops/sec. *)

module J = Repro_obs.Json
module Clock = Repro_obs.Clock
module Table = Repro_util.Table
module Rng = Repro_util.Rng
module Connectit = Graphs.Connectit
module Edge_stream = Graphs.Edge_stream

type gen = Rmat | Er | Power_law

let all_gens = [ Rmat; Er; Power_law ]
let gen_to_string = function Rmat -> "rmat" | Er -> "er" | Power_law -> "power-law"

let gen_of_string = function
  | "rmat" -> Some Rmat
  | "er" | "erdos-renyi" -> Some Er
  | "power-law" | "powerlaw" -> Some Power_law
  | _ -> None

type config = {
  scale : int;  (** 2^scale vertices *)
  edge_factor : int;  (** edges = edge_factor * 2^scale *)
  chunk_size : int;
  seed : int;
  simple : bool;
  domains_list : int list;
  gens : gen list;
  samplings : Connectit.sampling list;
  modes : Connectit.mode list;
  plan : Dsu.Plan.t;
  block_chunks : int;
  baselines : bool;
  adversarial_n : int;  (** 0 disables the PT point *)
}

let default_config =
  {
    scale = 16;
    edge_factor = 8;
    chunk_size = 1 lsl 14;
    seed = 42;
    simple = false;
    domains_list = [ 1; 4 ];
    gens = [ Rmat; Er ];
    samplings = [ Connectit.No_sampling; Connectit.K_out 2 ];
    modes = [ Connectit.Racy ];
    plan = Dsu.Plan.default;
    block_chunks = 8;
    baselines = true;
    adversarial_n = 1 lsl 14;
  }

let make_stream config gen =
  let n = 1 lsl config.scale in
  let m = config.edge_factor * n in
  match gen with
  | Rmat ->
    Edge_stream.rmat ~simple:config.simple ~chunk_size:config.chunk_size
      ~seed:config.seed ~scale:config.scale ~edge_factor:config.edge_factor ()
  | Er ->
    Edge_stream.erdos_renyi ~simple:config.simple
      ~chunk_size:config.chunk_size ~seed:config.seed ~n ~m ()
  | Power_law ->
    Edge_stream.power_law ~simple:config.simple ~chunk_size:config.chunk_size
      ~seed:config.seed ~n ~m ()

type point = {
  gen : string;
  n : int;
  m : int;
  domains : int;
  sampling : string;
  mode : string;
  plan : string;
  seconds : float;
  edges_per_sec : float;  (** total-edge throughput (whole pipeline) *)
  finish_edges_per_sec : float;
      (** finish-phase-only throughput over all [m] edges *)
  sample_ns : int;
  finish_ns : int;
  label_ns : int;
  gen_ns : int;
  skipped_ratio : float;
  components : int;
  det_rounds : int;
}

let run_point ~config ~gen ~domains ~sampling ~mode =
  let stream = make_stream config gen in
  let r =
    Connectit.run_stream ~domains ~seed:config.seed ~plan:config.plan
      ~sampling ~mode ~block_chunks:config.block_chunks stream
  in
  let m = r.Connectit.edges_total in
  let seconds = float_of_int r.Connectit.total_ns /. 1e9 in
  let eps ns = if ns <= 0 then 0. else float_of_int m /. (float_of_int ns /. 1e9) in
  {
    gen = Edge_stream.kind_name stream;
    n = Edge_stream.n stream;
    m;
    domains;
    sampling = Connectit.sampling_to_string sampling;
    mode = Connectit.mode_to_string mode;
    plan = Dsu.Plan.to_string config.plan;
    seconds;
    edges_per_sec = eps r.Connectit.total_ns;
    finish_edges_per_sec = eps r.Connectit.finish_ns;
    sample_ns = r.Connectit.sample_ns;
    finish_ns = r.Connectit.finish_ns;
    label_ns = r.Connectit.label_ns;
    gen_ns = r.Connectit.gen_ns;
    skipped_ratio =
      (if m = 0 then 0.
       else float_of_int r.Connectit.edges_skipped /. float_of_int m);
    components = r.Connectit.components;
    det_rounds = r.Connectit.det_rounds;
  }

let sweep ?(config = default_config) ?(progress = fun (_ : point) -> ()) () =
  let points = ref [] in
  List.iter
    (fun gen ->
      List.iter
        (fun domains ->
          List.iter
            (fun mode ->
              match mode with
              | Connectit.Deterministic ->
                (* Sampling is ignored by the deterministic engine; one
                   point per (gen, domains). *)
                let p =
                  run_point ~config ~gen ~domains
                    ~sampling:Connectit.No_sampling ~mode
                in
                progress p;
                points := p :: !points
              | Connectit.Racy ->
                List.iter
                  (fun sampling ->
                    let p = run_point ~config ~gen ~domains ~sampling ~mode in
                    progress p;
                    points := p :: !points)
                  config.samplings)
            config.modes)
        config.domains_list)
    config.gens;
  List.rev !points

(* ------------------------------------------------------------ baselines *)

type baseline_point = {
  b_name : string;
  b_gen : string;
  b_domains : int;
  b_m : int;
  b_seconds : float;
  b_edges_per_sec : float;
}

(* Anderson–Woll locked baseline: per-op unites (it has no bulk kernel)
   over the same streamed chunks, domains racing on the chunk cursor. *)
let anderson_woll_baseline ~config ~gen ~domains =
  let stream = make_stream config gen in
  let n = Edge_stream.n stream in
  let m = Edge_stream.total_edges stream in
  let d = Baselines.Anderson_woll.Native.create n in
  let chunks = Edge_stream.chunk_count stream in
  let next = Atomic.make 0 in
  let t0 = Clock.now_ns () in
  Graphs.Team.run ~domains (fun _ _ ->
      let buf = Edge_stream.make_chunk stream in
      let rec loop () =
        let idx = Atomic.fetch_and_add next 1 in
        if idx < chunks then begin
          Edge_stream.fill stream idx buf;
          for e = 0 to buf.Edge_stream.len - 1 do
            Baselines.Anderson_woll.Native.unite d
              buf.Edge_stream.src.(e) buf.Edge_stream.dst.(e)
          done;
          loop ()
        end
      in
      loop ());
  let dt = Clock.now_ns () - t0 in
  {
    b_name = "anderson-woll";
    b_gen = Edge_stream.kind_name stream;
    b_domains = domains;
    b_m = m;
    b_seconds = float_of_int dt /. 1e9;
    b_edges_per_sec = float_of_int m /. (float_of_int dt /. 1e9);
  }

(* Borůvka baseline: an MSF pass does strictly more work than
   connectivity, but it is the classic parallel-DSU consumer.  Needs a
   materialized weighted graph, so it is capped. *)
let boruvka_cap = 1 lsl 23

let boruvka_baseline ~config ~gen ~domains =
  let stream = make_stream config gen in
  let m = Edge_stream.total_edges stream in
  if m > boruvka_cap then None
  else begin
    let g = Edge_stream.materialize stream in
    let rng = Rng.create (config.seed + 17) in
    let w = Graphs.Graph.with_random_weights ~rng g in
    let t0 = Clock.now_ns () in
    let _ = Graphs.Boruvka.run_parallel ~domains ~seed:config.seed w in
    let dt = Clock.now_ns () - t0 in
    Some
      {
        b_name = "boruvka-msf";
        b_gen = Edge_stream.kind_name stream;
        b_domains = domains;
        b_m = m;
        b_seconds = float_of_int dt /. 1e9;
        b_edges_per_sec = float_of_int m /. (float_of_int dt /. 1e9);
      }
  end

let run_baselines ?(config = default_config) () =
  if not config.baselines then []
  else
    List.concat_map
      (fun gen ->
        List.concat_map
          (fun domains ->
            let aw = anderson_woll_baseline ~config ~gen ~domains in
            match boruvka_baseline ~config ~gen ~domains with
            | Some b -> [ aw; b ]
            | None -> [ aw ])
          config.domains_list)
      config.gens

(* ----------------------------------------------------- adversarial PT *)

type adversarial_point = {
  a_n : int;
  a_ops : int;
  a_unions : int;
  a_queries : int;
  a_domains : int;
  a_seconds : float;
  a_ops_per_sec : float;
}

(* The Pătrașcu–Thorup workload is inherently phased (late queries must
   see the merges of every earlier phase), so domains split each
   phase-shaped op list round-robin rather than racing on a cursor. *)
let run_adversarial ?(config = default_config) ~domains () =
  let n = config.adversarial_n in
  let rng = Rng.create (config.seed + 23) in
  let ops =
    Workload.Adversarial.pt_incremental ~rng ~n ~queries_per_phase:(n / 4)
  in
  let ops = Array.of_list ops in
  let total = Array.length ops in
  let unions = ref 0 and queries = ref 0 in
  Array.iter
    (function
      | Workload.Op.Unite _ -> incr unions
      | Workload.Op.Same_set _ | Workload.Op.Find _ -> incr queries)
    ops;
  let d = Dsu.Driver.create ~plan:config.plan ~seed:config.seed n in
  let t0 = Clock.now_ns () in
  Graphs.Team.run ~domains (fun k total_d ->
      let i = ref k in
      while !i < total do
        (match ops.(!i) with
        | Workload.Op.Unite (x, y) -> Dsu.Driver.unite d x y
        | Workload.Op.Same_set (x, y) -> ignore (Dsu.Driver.same_set d x y)
        | Workload.Op.Find x -> ignore (Dsu.Driver.find d x));
        i := !i + total_d
      done);
  let dt = Clock.now_ns () - t0 in
  {
    a_n = n;
    a_ops = total;
    a_unions = !unions;
    a_queries = !queries;
    a_domains = domains;
    a_seconds = float_of_int dt /. 1e9;
    a_ops_per_sec = float_of_int total /. (float_of_int dt /. 1e9);
  }

(* ------------------------------------------------------------- report *)

let point_to_json p =
  J.Obj
    [
      ("gen", J.String p.gen);
      ("n", J.Int p.n);
      ("m", J.Int p.m);
      ("domains", J.Int p.domains);
      ("sampling", J.String p.sampling);
      ("mode", J.String p.mode);
      ("plan", J.String p.plan);
      ("seconds", J.Float p.seconds);
      ("edges_per_sec", J.Float p.edges_per_sec);
      ("finish_edges_per_sec", J.Float p.finish_edges_per_sec);
      ("sample_ns", J.Int p.sample_ns);
      ("finish_ns", J.Int p.finish_ns);
      ("label_ns", J.Int p.label_ns);
      ("gen_ns", J.Int p.gen_ns);
      ("skipped_ratio", J.Float p.skipped_ratio);
      ("components", J.Int p.components);
      ("det_rounds", J.Int p.det_rounds);
    ]

let baseline_to_json b =
  J.Obj
    [
      ("name", J.String b.b_name);
      ("gen", J.String b.b_gen);
      ("domains", J.Int b.b_domains);
      ("m", J.Int b.b_m);
      ("seconds", J.Float b.b_seconds);
      ("edges_per_sec", J.Float b.b_edges_per_sec);
    ]

let adversarial_to_json a =
  J.Obj
    [
      ("n", J.Int a.a_n);
      ("ops", J.Int a.a_ops);
      ("unions", J.Int a.a_unions);
      ("queries", J.Int a.a_queries);
      ("domains", J.Int a.a_domains);
      ("seconds", J.Float a.a_seconds);
      ("ops_per_sec", J.Float a.a_ops_per_sec);
    ]

(* The skipped ratio is workload shape, not a perf metric, so it is not
   diffed. *)
let metrics points baselines adversarial =
  let higher key metric value = { Perfdiff.key; metric; dir = Higher_better; value } in
  List.concat_map
    (fun p ->
      let key =
        Printf.sprintf "gen=%s mode=%s sampling=%s domains=%d" p.gen p.mode
          p.sampling p.domains
      in
      [
        higher key "edges_per_sec" p.edges_per_sec;
        higher key "finish_edges_per_sec" p.finish_edges_per_sec;
      ])
    points
  @ List.map
      (fun b ->
        higher
          (Printf.sprintf "baseline=%s gen=%s domains=%d" b.b_name b.b_gen
             b.b_domains)
          "edges_per_sec" b.b_edges_per_sec)
      baselines
  @ Option.fold ~none:[]
      ~some:(fun a ->
        [
          higher
            (Printf.sprintf "adversarial=pt domains=%d" a.a_domains)
            "ops_per_sec" a.a_ops_per_sec;
        ])
      adversarial

let to_json ?(config = default_config) ?(baselines = [])
    ?adversarial points =
  J.Obj
    ([
       ("schema", J.String "dsu-connectivity/v1");
       ("scale", J.Int config.scale);
       ("edge_factor", J.Int config.edge_factor);
       ("chunk_size", J.Int config.chunk_size);
       ("seed", J.Int config.seed);
       ("simple", J.Bool config.simple);
       ("plan", J.String (Dsu.Plan.to_string config.plan));
       ("points", J.List (List.map point_to_json points));
       ("baselines", J.List (List.map baseline_to_json baselines));
       Perfdiff.metrics_field (metrics points baselines adversarial);
     ]
    @
    match adversarial with
    | None -> []
    | Some a -> [ ("adversarial", adversarial_to_json a) ])

let pp_table ppf points =
  let table =
    Table.create
      ~headers:
        [
          "gen"; "mode"; "sampling"; "domains"; "Medges/s";
          "finish Medges/s"; "skipped"; "comps";
        ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          p.gen;
          p.mode;
          p.sampling;
          Table.cell_int p.domains;
          Table.cell_float (p.edges_per_sec /. 1e6);
          Table.cell_float (p.finish_edges_per_sec /. 1e6);
          Printf.sprintf "%.1f%%" (100. *. p.skipped_ratio);
          Table.cell_int p.components;
        ])
    points;
  Table.pp ppf table

let pp_baselines ppf baselines =
  if baselines <> [] then begin
    let table =
      Table.create ~headers:[ "baseline"; "gen"; "domains"; "Medges/s" ]
    in
    List.iter
      (fun b ->
        Table.add_row table
          [
            b.b_name;
            b.b_gen;
            Table.cell_int b.b_domains;
            Table.cell_float (b.b_edges_per_sec /. 1e6);
          ])
      baselines;
    Table.pp ppf table
  end

(* ---------------------------------------------------------- agreement *)

let check_components points =
  let describe p =
    Printf.sprintf "%s/%s d=%d: %d" p.mode p.sampling p.domains p.components
  in
  let gens = List.sort_uniq compare (List.map (fun p -> p.gen) points) in
  let disagreements =
    List.filter_map
      (fun gen ->
        match List.filter (fun p -> p.gen = gen) points with
        | [] -> None
        | first :: _ as mine ->
          if List.for_all (fun p -> p.components = first.components) mine
          then None
          else
            Some
              (Printf.sprintf "%s (%s)" gen
                 (String.concat ", " (List.map describe mine))))
      gens
  in
  if disagreements = [] then Ok ()
  else
    Error
      ("components disagree within a gen: "
      ^ String.concat "; " disagreements)
