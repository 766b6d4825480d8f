(* Bechamel micro-benchmarks: one Test.make per experiment family of
   DESIGN.md §5 (wall-clock timing of the code paths each experiment
   exercises — the experiments' own tables, which are step-count based and
   deterministic, are produced by bin/experiments.exe).

   stdout gets the human-readable table only (nanoseconds per run for every
   benchmark, plus R² of the fit).  Machine-readable output goes to files:

     --out FILE           results as a JSON document
     --metrics-out FILE   enable telemetry during the runs and dump the
                          metrics registry as JSON lines
     --filter SUBSTR      run only benchmarks whose name contains SUBSTR
                          (repeatable; used by the CI bench-smoke job)
     --fast               reduced measurement quota, for smoke runs
     --baseline FILE      diff this run against a previous --out document
                          (Harness.Perfdiff; --diff-threshold sets the noise
                          floor, --diff-out writes the dsu-perfdiff/v1
                          artifact, --diff-fail turns regressions into exit 3)

   keeping stdout parse-free for the perf-trajectory tooling.

   A second mode, --parallel, skips bechamel entirely and runs the
   domain-parallel scalability sweep (Harness.Scalability): one shared DSU
   under 1..N domains, across find policies, memory layouts (flat /
   cache-line-padded / packed), parent-load memory orders, link-CAS backoff
   on/off, and key distributions (uniform / skewed).  --out then writes
   the dsu-scalability/v2 JSON document; see docs/PERFORMANCE.md.

   --plan SPEC|auto (implies --parallel) pins the sweep to one plan point
   (linking:compaction:order:backoff:layout), or — with "auto" — asks
   Harness.Autotune for the fastest plan on the swept profile (cached by
   profile fingerprint in --autotune-cache; --autotune-out writes the
   dsu-autotune/v1 report).

   --guard-tuned PCT (with --parallel) is the CI perf regression gate,
   exit 1 on failure.  With --plan it compares the tuned plan against the
   default plan through the perfdiff differ; without it times the
   single-domain smoke pair (flat / two-try, seq-cst vs the default
   relaxed-reads order) and fails if the tuned path is more than PCT%
   slower than the fenced baseline.

   A third mode, --durability, runs the durability cost measurement
   (Harness.Durability): the same workload wal=off vs wal=on plus the
   quiescent vs fuzzy snapshot pause.  --out then writes the
   dsu-durability/v1 document and --max-wal-overhead PCT is the CI
   durability guard (exit 1 when the WAL costs more throughput than the
   budget). *)

open Bechamel
open Toolkit

module Policy = Dsu.Find_policy
module Rng = Repro_util.Rng

(* Pre-built inputs shared by the benchmark closures; building them outside
   the staged function keeps setup cost out of the measurement.  The op
   streams are arrays so the run loop iterates contiguous memory instead of
   chasing list cells (Workload.Op.run_native_array). *)

let n_small = 1 lsl 10
let n_medium = 1 lsl 14

let spanning_ops n seed =
  Workload.Random_mix.spanning_unites ~rng:(Rng.create seed) ~n

let mixed_ops n m seed =
  Workload.Random_mix.mixed ~rng:(Rng.create seed) ~n ~m ~unite_fraction:0.3

let mixed_ops_arr n m seed = Array.of_list (mixed_ops n m seed)

(* E1/E13 family: native end-to-end workload per policy. *)
let bench_native_policy policy =
  let ops = mixed_ops_arr n_medium n_medium 3 in
  Test.make
    ~name:(Printf.sprintf "native/%s" (Policy.to_string policy))
    (Staged.stage (fun () ->
         let d = Dsu.Native.create ~policy ~seed:7 n_medium in
         Workload.Op.run_native_array d ops))

(* Memory-layout A/B twin: the identical workload over the
   cache-line-padded flat array. *)
let bench_native_padded =
  let ops = mixed_ops_arr n_medium n_medium 3 in
  Test.make ~name:"native/padded-two-try"
    (Staged.stage (fun () ->
         let d = Dsu.Native.create ~padded:true ~seed:7 n_medium in
         Workload.Op.run_native_array d ops))

(* Memory-order A/B twin: the same end-to-end workload with every parent
   load fully fenced (seq-cst) — the fenced baseline the tuned default
   (relaxed-reads) is measured against.  Compare against native/two-try. *)
let bench_native_seqcst =
  let ops = mixed_ops_arr n_medium n_medium 3 in
  Test.make ~name:"native/two-try-seqcst"
    (Staged.stage (fun () ->
         let d =
           Dsu.Native.create ~memory_order:Dsu.Memory_order.Seq_cst ~seed:7
             n_medium
         in
         Workload.Op.run_native_array d ops))

(* Backoff A/B twin: link-CAS backoff disabled.  Single-threaded the two
   should be indistinguishable (backoff only runs after a failed link CAS);
   the multi-domain difference is the --parallel sweep's job. *)
let bench_native_nobackoff =
  let ops = mixed_ops_arr n_medium n_medium 3 in
  Test.make ~name:"native/two-try-nobackoff"
    (Staged.stage (fun () ->
         let d = Dsu.Native.create ~backoff:false ~seed:7 n_medium in
         Workload.Op.run_native_array d ops))

(* E10 family: early termination. *)
let bench_native_early =
  let ops = mixed_ops_arr n_medium n_medium 3 in
  Test.make ~name:"native/two-try+early"
    (Staged.stage (fun () ->
         let d = Dsu.Native.create ~early:true ~seed:7 n_medium in
         Workload.Op.run_native_array d ops))

(* E8 family: baselines on the same workload. *)
let bench_aw =
  let ops = mixed_ops_arr n_medium n_medium 3 in
  Test.make ~name:"baseline/anderson-woll"
    (Staged.stage (fun () ->
         let d = Baselines.Anderson_woll.Native.create n_medium in
         Array.iter
           (fun op ->
             match op with
             | Workload.Op.Unite (x, y) -> Baselines.Anderson_woll.Native.unite d x y
             | Workload.Op.Same_set (x, y) ->
               ignore (Baselines.Anderson_woll.Native.same_set d x y)
             | Workload.Op.Find x -> ignore (Baselines.Anderson_woll.Native.find d x))
           ops))

let bench_locked =
  let ops = mixed_ops_arr n_medium n_medium 3 in
  Test.make ~name:"baseline/global-lock"
    (Staged.stage (fun () ->
         let d = Baselines.Locked_dsu.create n_medium in
         Array.iter
           (fun op ->
             match op with
             | Workload.Op.Unite (x, y) -> Baselines.Locked_dsu.unite d x y
             | Workload.Op.Same_set (x, y) ->
               ignore (Baselines.Locked_dsu.same_set d x y)
             | Workload.Op.Find x -> ignore (Baselines.Locked_dsu.find d x))
           ops))

(* E9 family: sequential variants. *)
let bench_seq linking compaction =
  let ops = mixed_ops_arr n_medium n_medium 3 in
  Test.make
    ~name:
      (Printf.sprintf "seq/%s-%s"
         (Sequential.Seq_dsu.linking_to_string linking)
         (Sequential.Seq_dsu.compaction_to_string compaction))
    (Staged.stage (fun () ->
         let d = Sequential.Seq_dsu.create ~linking ~compaction ~seed:5 n_medium in
         Workload.Op.run_seq_array d ops))

(* E4/E5 family: one simulated execution (work measurement machinery). *)
let bench_sim policy =
  let ops = Workload.Op.round_robin (spanning_ops n_small 11) ~p:4 in
  Test.make
    ~name:(Printf.sprintf "sim/p4-%s" (Policy.to_string policy))
    (Staged.stage (fun () ->
         ignore (Harness.Measure.run_sim ~policy ~n:n_small ~seed:13 ~ops ())))

(* E6/E7 family: the adversarial binomial build. *)
let bench_binomial =
  let k = 1 lsl 10 in
  let ops = Array.of_list (Workload.Binomial.schedule ~base:0 ~k) in
  Test.make ~name:"workload/binomial-build"
    (Staged.stage (fun () ->
         let d = Dsu.Native.create ~seed:17 k in
         Workload.Op.run_native_array d ops))

(* E11 family: linearizability checking cost. *)
let bench_lincheck =
  let history =
    let ops =
      Array.init 3 (fun pid ->
          List.init 4 (fun i ->
              if (pid + i) mod 2 = 0 then Workload.Op.Unite (pid, (pid + i) mod 6)
              else Workload.Op.Same_set (i, pid * i mod 6)))
    in
    let r = Harness.Measure.run_sim ~n:6 ~seed:19 ~ops () in
    r.Harness.Measure.history
  in
  Test.make ~name:"lincheck/12-op-history"
    (Staged.stage (fun () -> ignore (Lincheck.Checker.check ~n:6 history)))

(* E12 family: the applications. *)
let bench_components =
  let g =
    Graphs.Generators.erdos_renyi ~rng:(Rng.create 23) ~n:n_medium ~m:(2 * n_medium) ()
  in
  Test.make ~name:"apps/connected-components"
    (Staged.stage (fun () -> ignore (Graphs.Components.sequential g)))

let bench_kruskal =
  let rng = Rng.create 29 in
  let g = Graphs.Generators.erdos_renyi ~rng ~n:n_small ~m:(4 * n_small) () in
  let w = Graphs.Graph.with_random_weights ~rng g in
  Test.make ~name:"apps/kruskal-msf"
    (Staged.stage (fun () -> ignore (Graphs.Kruskal.run_concurrent_dsu ~seed:3 w)))

let bench_percolation =
  Test.make ~name:"apps/percolation-32x32"
    (Staged.stage
       (let counter = ref 0 in
        fun () ->
          incr counter;
          ignore (Graphs.Percolation.simulate ~rng:(Rng.create !counter) 32)))

let bench_scc =
  let g =
    Graphs.Generators.clustered_digraph ~rng:(Rng.create 31) ~clusters:32
      ~cluster_size:16 ~extra:256
  in
  Test.make ~name:"apps/scc-condensation"
    (Staged.stage (fun () -> ignore (Graphs.Scc.condense_with_dsu ~seed:5 g)))

(* New-application families (E12 extensions). *)
let bench_boruvka =
  let rng = Rng.create 63 in
  let g = Graphs.Generators.erdos_renyi ~rng ~n:n_small ~m:(4 * n_small) () in
  let w = Graphs.Graph.with_random_weights ~rng g in
  Test.make ~name:"apps/boruvka-msf"
    (Staged.stage (fun () -> ignore (Graphs.Boruvka.run w)))

let bench_lca =
  let rng = Rng.create 67 in
  let t = Graphs.Lca.random_tree ~rng ~n:n_small in
  let queries = List.init 512 (fun _ -> (Rng.int rng n_small, Rng.int rng n_small)) in
  Test.make ~name:"apps/offline-lca"
    (Staged.stage (fun () -> ignore (Graphs.Lca.solve t queries)))

let bench_dominators =
  let g = Graphs.Generators.random_digraph ~rng:(Rng.create 71) ~n:n_small ~m:(3 * n_small) in
  Test.make ~name:"apps/dominators-lt"
    (Staged.stage (fun () -> ignore (Graphs.Dominators.lengauer_tarjan g ~root:0)))

let bench_steensgaard =
  let rng = Rng.create 73 in
  let var i = Printf.sprintf "v%d" i in
  let program =
    List.init 2048 (fun _ ->
        let x = var (Rng.int rng 128) and y = var (Rng.int rng 128) in
        match Rng.int rng 4 with
        | 0 -> Analysis.Steensgaard.Address_of (x, y)
        | 1 -> Analysis.Steensgaard.Copy (x, y)
        | 2 -> Analysis.Steensgaard.Load (x, y)
        | _ -> Analysis.Steensgaard.Store (x, y))
  in
  Test.make ~name:"apps/steensgaard"
    (Staged.stage (fun () ->
         ignore (Analysis.Steensgaard.analyze ~capacity:16_384 program)))

(* MakeSet extension. *)
let bench_growable =
  Test.make ~name:"growable/make_set+unite"
    (Staged.stage (fun () ->
         let g = Dsu.Growable.create ~capacity:4096 ~seed:37 () in
         let first = Dsu.Growable.make_set g in
         for _ = 2 to 4096 do
           let e = Dsu.Growable.make_set g in
           Dsu.Growable.unite g first e
         done))

let bench_growable_unbounded =
  Test.make ~name:"growable/unbounded"
    (Staged.stage (fun () ->
         let g = Dsu.Growable_unbounded.create ~chunk_size:256 ~seed:39 () in
         let first = Dsu.Growable_unbounded.make_set g in
         for _ = 2 to 4096 do
           let e = Dsu.Growable_unbounded.make_set g in
           Dsu.Growable_unbounded.unite g first e
         done))

(* Micro: single operations on a prepared structure, with a padded-layout
   twin for the false-sharing ablation.

   The preparation ends with repeated find passes over every node: two-try
   splitting keeps shortening paths, so without the passes the structure
   compacts *during* measurement and the timings are non-stationary (bad
   OLS fits, run-order-dependent estimates).  Flattening first makes the
   measured operation a stationary parent-hop walk — exactly the part the
   layouts differ on. *)
let flatten_native d =
  for _ = 1 to 3 do
    for i = 0 to Dsu.Native.n d - 1 do
      ignore (Dsu.Native.find d i)
    done
  done

(* Each measured run is a batch of [micro_batch] operations over a
   pregenerated random index stream: a single find on a flattened
   structure is a ~25ns root check, below the noise floor of shared hosts
   (negative R^2 fits), and the batch lifts the run into the tens-of-us
   range where the OLS fit is stable and the stream spans enough of the
   structure for cache behaviour to show.  The twins share the stream
   (same seed), so the layout comparison is paired.  ns/run figures for
   micro/* are therefore per-batch; the A/B ratio is what matters. *)
let micro_batch = 2048

let micro_indices seed =
  let rng = Rng.create seed in
  Array.init micro_batch (fun _ -> Rng.int rng n_medium)

let bench_single_find =
  let d = Dsu.Native.create ~seed:41 n_medium in
  Workload.Op.run_native_array d (Array.of_list (spanning_ops n_medium 43));
  flatten_native d;
  let idx = micro_indices 47 in
  Test.make ~name:"micro/find"
    (Staged.stage (fun () ->
         for k = 0 to micro_batch - 1 do
           ignore (Dsu.Native.find d (Array.unsafe_get idx k))
         done))

let bench_single_find_padded =
  let d = Dsu.Native.create ~padded:true ~seed:41 n_medium in
  Workload.Op.run_native_array d (Array.of_list (spanning_ops n_medium 43));
  flatten_native d;
  let idx = micro_indices 47 in
  Test.make ~name:"micro/find-padded"
    (Staged.stage (fun () ->
         for k = 0 to micro_batch - 1 do
           ignore (Dsu.Native.find d (Array.unsafe_get idx k))
         done))

let bench_single_same_set =
  let d = Dsu.Native.create ~seed:53 n_medium in
  Workload.Op.run_native_array d (Array.of_list (spanning_ops n_medium 59));
  flatten_native d;
  let xs = micro_indices 61 and ys = micro_indices 67 in
  Test.make ~name:"micro/same_set"
    (Staged.stage (fun () ->
         for k = 0 to micro_batch - 1 do
           ignore
             (Dsu.Native.same_set d (Array.unsafe_get xs k) (Array.unsafe_get ys k))
         done))

(* Memory-order micro twin of micro/find: identical flattened structure and
   index stream, seq-cst parent loads. *)
let bench_single_find_seqcst =
  let d =
    Dsu.Native.create ~memory_order:Dsu.Memory_order.Seq_cst ~seed:41 n_medium
  in
  Workload.Op.run_native_array d (Array.of_list (spanning_ops n_medium 43));
  flatten_native d;
  let idx = micro_indices 47 in
  Test.make ~name:"micro/find-seqcst"
    (Staged.stage (fun () ->
         for k = 0 to micro_batch - 1 do
           ignore (Dsu.Native.find d (Array.unsafe_get idx k))
         done))

(* Bulk suite: the batched kernels (unite_batch / same_set_batch, with
   their per-call root cache and endpoint prefetching) against the
   per-operation loop over the same endpoint streams.  The A/B twins share
   streams (same seeds), so each pair is a paired comparison.

   The bulk benches run on a structure of [n_bulk] = 2^20 nodes: an 8 MB
   parent array, well past LLC on most hosts, so random endpoint accesses
   genuinely miss cache — the regime bulk kernels are for (prefetching
   only helps when there is a miss to hide; on a cache-resident structure
   the kernels' per-call setup is pure overhead and the per-op loop is the
   right tool).  The unite twins process [n_bulk / 2] pairs per run so the
   kernel, not structure creation, dominates. *)
let n_bulk = 1 lsl 20
let bulk_unites = n_bulk / 2
let bulk_queries = 1 lsl 15

let bulk_pairs count seed =
  let rng = Rng.create seed in
  let xs = Array.init count (fun _ -> Rng.int rng n_bulk) in
  let ys = Array.init count (fun _ -> Rng.int rng n_bulk) in
  (xs, ys)

let bench_bulk_unite_batch =
  let xs, ys = bulk_pairs bulk_unites 83 in
  Test.make ~name:"bulk/unite-batch"
    (Staged.stage (fun () ->
         let d = Dsu.Native.create ~seed:7 n_bulk in
         Dsu.Native.unite_batch d xs ys))

let bench_bulk_unite_per_op =
  let xs, ys = bulk_pairs bulk_unites 83 in
  Test.make ~name:"bulk/unite-per-op"
    (Staged.stage (fun () ->
         let d = Dsu.Native.create ~seed:7 n_bulk in
         for k = 0 to bulk_unites - 1 do
           Dsu.Native.unite d (Array.unsafe_get xs k) (Array.unsafe_get ys k)
         done))

(* The same_set twins query a prepared, flattened structure (like the
   micro benches), so the measured work is the query walk itself —
   two root checks at random far-apart addresses per query. *)
let bench_bulk_same_set_batch =
  let d = Dsu.Native.create ~seed:53 n_bulk in
  Workload.Op.run_native_array d (Array.of_list (spanning_ops n_bulk 59));
  flatten_native d;
  let xs, ys = bulk_pairs bulk_queries 91 in
  Test.make ~name:"bulk/same_set-batch"
    (Staged.stage (fun () -> ignore (Dsu.Native.same_set_batch d xs ys)))

let bench_bulk_same_set_per_op =
  let d = Dsu.Native.create ~seed:53 n_bulk in
  Workload.Op.run_native_array d (Array.of_list (spanning_ops n_bulk 59));
  flatten_native d;
  let xs, ys = bulk_pairs bulk_queries 91 in
  Test.make ~name:"bulk/same_set-per-op"
    (Staged.stage (fun () ->
         for k = 0 to bulk_queries - 1 do
           ignore
             (Dsu.Native.same_set d (Array.unsafe_get xs k) (Array.unsafe_get ys k))
         done))

(* End-to-end mixed stream through the batching op runner (maximal
   same-kind runs flushed through the bulk kernels) vs the plain array
   runner — what an application-level caller gains by batching. *)
let bench_bulk_mixed_batched =
  let ops = mixed_ops_arr n_medium n_medium 3 in
  Test.make ~name:"bulk/mixed-batched"
    (Staged.stage (fun () ->
         let d = Dsu.Native.create ~seed:7 n_medium in
         Workload.Op.run_native_array_batched d ops))

let bench_bulk_mixed_per_op =
  let ops = mixed_ops_arr n_medium n_medium 3 in
  Test.make ~name:"bulk/mixed-per-op"
    (Staged.stage (fun () ->
         let d = Dsu.Native.create ~seed:7 n_medium in
         Workload.Op.run_native_array d ops))

(* The bit-packed rank layout (Dsu.Packed) on n=2^20 endpoint streams —
   unite over a fresh structure, then find over a prepared flattened one;
   docs/PERFORMANCE.md quotes these numbers. *)
let bench_packed_unite_pairs =
  let xs, ys = bulk_pairs bulk_unites 83 in
  Test.make ~name:"packedrank/unite-packed"
    (Staged.stage (fun () ->
         let d = Dsu.Packed.Native.create n_bulk in
         for k = 0 to bulk_unites - 1 do
           Dsu.Packed.Native.unite d (Array.unsafe_get xs k)
             (Array.unsafe_get ys k)
         done))

let bulk_find_indices seed =
  let rng = Rng.create seed in
  Array.init bulk_queries (fun _ -> Rng.int rng n_bulk)

let bench_packed_find =
  let d = Dsu.Packed.Native.create n_bulk in
  let xs, ys = bulk_pairs bulk_unites 83 in
  for k = 0 to bulk_unites - 1 do
    Dsu.Packed.Native.unite d xs.(k) ys.(k)
  done;
  for _ = 1 to 3 do
    for i = 0 to n_bulk - 1 do
      ignore (Dsu.Packed.Native.find d i)
    done
  done;
  let idx = bulk_find_indices 97 in
  Test.make ~name:"packedrank/find-packed"
    (Staged.stage (fun () ->
         for k = 0 to bulk_queries - 1 do
           ignore (Dsu.Packed.Native.find d (Array.unsafe_get idx k))
         done))

let all_tests () =
  [
    bench_native_policy Policy.No_compaction;
    bench_native_policy Policy.One_try_splitting;
    bench_native_policy Policy.Two_try_splitting;
    bench_native_padded;
    bench_native_seqcst;
    bench_native_nobackoff;
    bench_native_early;
    bench_aw;
    bench_locked;
    bench_seq Sequential.Seq_dsu.By_rank Sequential.Seq_dsu.Splitting;
    bench_seq Sequential.Seq_dsu.By_random Sequential.Seq_dsu.Splitting;
    bench_seq Sequential.Seq_dsu.By_size Sequential.Seq_dsu.Halving;
    bench_sim Policy.Two_try_splitting;
    bench_sim Policy.One_try_splitting;
    bench_binomial;
    bench_lincheck;
    bench_components;
    bench_kruskal;
    bench_percolation;
    bench_scc;
    bench_boruvka;
    bench_lca;
    bench_dominators;
    bench_steensgaard;
    bench_growable;
    bench_growable_unbounded;
    bench_single_find;
    bench_single_find_padded;
    bench_single_find_seqcst;
    bench_single_same_set;
    bench_bulk_unite_batch;
    bench_bulk_unite_per_op;
    bench_bulk_same_set_batch;
    bench_bulk_same_set_per_op;
    bench_bulk_mixed_batched;
    bench_bulk_mixed_per_op;
    bench_packed_unite_pairs;
    bench_packed_find;
  ]

(* ------------------------------------------------------------ CLI state *)

let out_file = ref None
let metrics_file = ref None
let filters : string list ref = ref []
let fast = ref false
let parallel = ref false
let parallel_n = ref (1 lsl 16)
let parallel_ops = ref 400_000
let max_domains = ref 8
let unite_percent = ref 30
let parallel_policies = ref [ Policy.Two_try_splitting; Policy.One_try_splitting ]
let parallel_layouts = ref [ Dsu.Plan.Flat ]
let parallel_orders = ref [ Dsu.Memory_order.default ]
let parallel_backoffs = ref [ true ]
let parallel_dists = ref [ Harness.Scalability.Uniform ]
let guard_tuned = ref None
let durability = ref false
let connectivity = ref false
let conn_scale = ref 16
let conn_edge_factor = ref 8
let guard_finish = ref None
let max_wal_overhead = ref None
let plan_request : [ `Auto | `Plan of Dsu.Plan.t ] option ref = ref None
let autotune_cache = ref Harness.Autotune.default_cache_dir
let autotune_out = ref None
let baseline_file = ref None
let diff_threshold = ref 10.0
let diff_fail = ref false
let diff_out = ref None

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  nl = 0 || at 0

let matches_filters name =
  match !filters with
  | [] -> true
  | fs -> List.exists (fun f -> contains_substring ~needle:f name) fs

let set_policies s =
  let policies =
    String.split_on_char ',' s
    |> List.map (fun p ->
           match Policy.of_string (String.trim p) with
           | Some p -> p
           | None -> raise (Arg.Bad (Printf.sprintf "unknown policy %S" p)))
  in
  if policies = [] then raise (Arg.Bad "--policies: empty list");
  parallel_policies := policies

let set_layouts s =
  let layouts =
    String.split_on_char ',' s
    |> List.map (fun l ->
           match Dsu.Plan.layout_of_string (String.trim l) with
           | Some Dsu.Plan.Growable | None ->
             raise (Arg.Bad (Printf.sprintf "unknown or unswept layout %S" l))
           | Some l -> l)
  in
  if layouts = [] then raise (Arg.Bad "--layouts: empty list");
  parallel_layouts := layouts

let set_memory_orders s =
  let orders =
    String.split_on_char ',' s
    |> List.map (fun o ->
           match Dsu.Memory_order.of_string (String.trim o) with
           | Some o -> o
           | None -> raise (Arg.Bad (Printf.sprintf "unknown memory order %S" o)))
  in
  if orders = [] then raise (Arg.Bad "--memory-orders: empty list");
  parallel_orders := orders

let set_backoffs s =
  let backoffs =
    String.split_on_char ',' s
    |> List.map (fun b ->
           match String.trim b with
           | "on" | "true" | "1" -> true
           | "off" | "false" | "0" -> false
           | b -> raise (Arg.Bad (Printf.sprintf "unknown backoff switch %S" b)))
  in
  if backoffs = [] then raise (Arg.Bad "--backoffs: empty list");
  parallel_backoffs := backoffs

let set_plan s =
  if s = "auto" then plan_request := Some `Auto
  else
    match Dsu.Plan.of_string s with
    | Ok p -> plan_request := Some (`Plan p)
    | Error e -> raise (Arg.Bad e)

let set_dists s =
  let dists =
    String.split_on_char ',' s
    |> List.map (fun d ->
           match Harness.Scalability.dist_of_string (String.trim d) with
           | Some d -> d
           | None -> raise (Arg.Bad (Printf.sprintf "unknown distribution %S" d)))
  in
  if dists = [] then raise (Arg.Bad "--dists: empty list");
  parallel_dists := dists

let speclist =
  [
    ( "--out",
      Arg.String (fun f -> out_file := Some f),
      "FILE  write results as JSON to FILE (bechamel document, or \
       dsu-scalability/v1 with --parallel)" );
    ( "--metrics-out",
      Arg.String (fun f -> metrics_file := Some f),
      "FILE  enable telemetry and write the metrics registry (JSON lines) \
       to FILE" );
    ( "--filter",
      Arg.String (fun f -> filters := f :: !filters),
      "SUBSTR  run only benchmarks whose name contains SUBSTR (repeatable)" );
    ("--fast", Arg.Set fast, " reduced measurement quota (smoke runs / CI)");
    ( "--parallel",
      Arg.Set parallel,
      " run the domain-parallel scalability sweep instead of the bechamel \
       micro-benchmarks" );
    ( "--parallel-n",
      Arg.Set_int parallel_n,
      "N  nodes in the shared DSU for --parallel (default 65536)" );
    ( "--parallel-ops",
      Arg.Set_int parallel_ops,
      "N  total operations per point for --parallel (default 400000)" );
    ( "--max-domains",
      Arg.Set_int max_domains,
      "D  sweep domain counts 1,2,4,... up to D (default 8)" );
    ( "--unite-percent",
      Arg.Set_int unite_percent,
      "P  percentage of Unite ops in the --parallel streams (default 30)" );
    ( "--policies",
      Arg.String set_policies,
      "P1,P2  find policies for --parallel (default two-try,one-try)" );
    ( "--layouts",
      Arg.String set_layouts,
      "L1,L2  memory layouts for --parallel: flat, flat-padded, packed \
       (default flat)" );
    ( "--memory-orders",
      Arg.String set_memory_orders,
      "O1,O2  parent-load memory orders for --parallel: seq-cst, acquire, \
       relaxed-reads (default relaxed-reads)" );
    ( "--backoffs",
      Arg.String set_backoffs,
      "B1,B2  link-CAS backoff switches for --parallel: on, off (default on)" );
    ( "--dists",
      Arg.String set_dists,
      "D1,D2  endpoint distributions for --parallel: uniform, skewed \
       (default uniform)" );
    ( "--plan",
      Arg.String set_plan,
      "SPEC|auto  run the --parallel sweep at one plan point \
       (linking:compaction:order:backoff:layout, e.g. \
       rank:halving:relaxed-reads:on:packed), or \"auto\" = pick the \
       fastest plan for the profile via Harness.Autotune (cached by \
       profile fingerprint).  Implies --parallel." );
    ( "--autotune-cache",
      Arg.Set_string autotune_cache,
      "DIR  cache directory for --plan auto results (default .dsu-autotune)" );
    ( "--autotune-out",
      Arg.String (fun f -> autotune_out := Some f),
      "FILE  with --plan auto, write the dsu-autotune/v1 report to FILE \
       (the CI artifact)" );
    ( "--guard-tuned",
      Arg.Float (fun p -> guard_tuned := Some p),
      "PCT  after --parallel, exit 1 if the tuned path regresses more than \
       PCT percent: with --plan, the plan vs the default plan through the \
       perfdiff differ; without, the single-domain smoke pair (flat / \
       two-try, seq-cst vs relaxed-reads)" );
    ( "--connectivity",
      Arg.Set connectivity,
      " run the streaming-connectivity edges/sec family (ConnectIt-style \
       sample+finish over chunked edge streams, racy and deterministic \
       engines, Anderson-Woll and Boruvka baselines) instead of the \
       bechamel micro-benchmarks; --out writes dsu-connectivity/v1.  \
       Honors --max-domains, --plan and --fast." );
    ( "--conn-scale",
      Arg.Set_int conn_scale,
      "S  with --connectivity: 2^S vertices per stream (default 16; --fast \
       caps it at 12)" );
    ( "--conn-edge-factor",
      Arg.Set_int conn_edge_factor,
      "E  with --connectivity: E * 2^scale streamed edges (default 8)" );
    ( "--guard-finish",
      Arg.Float (fun r -> guard_finish := Some r),
      "RATIO  with --connectivity, exit 1 unless every bulk finish reaches \
       RATIO x its per-op twin's finish-phase edges/sec at the highest \
       domain count" );
    ( "--durability",
      Arg.Set durability,
      " run the durability cost measurement (WAL throughput overhead, \
       quiescent vs fuzzy snapshot pause) instead of the bechamel \
       micro-benchmarks; --out writes dsu-durability/v1" );
    ( "--max-wal-overhead",
      Arg.Float (fun p -> max_wal_overhead := Some p),
      "PCT  with --durability, exit 1 if the WAL costs more than PCT \
       percent of unite throughput (the CI durability guard)" );
    ( "--baseline",
      Arg.String (fun f -> baseline_file := Some f),
      "FILE  diff this run's JSON document against a previous one (same \
       kind: bechamel, or dsu-scalability with --parallel) and print \
       per-benchmark deltas beyond the noise threshold" );
    ( "--diff-threshold",
      Arg.Set_float diff_threshold,
      "PCT  noise threshold for --baseline deltas (default 10)" );
    ( "--diff-out",
      Arg.String (fun f -> diff_out := Some f),
      "FILE  write the --baseline comparison as a dsu-perfdiff/v1 JSON \
       document (the CI perf-history artifact)" );
    ( "--diff-fail",
      Arg.Set diff_fail,
      " exit 3 if --baseline finds any regression beyond the threshold" );
  ]

let usage =
  "bench/main.exe [--out FILE] [--metrics-out FILE] [--filter SUBSTR] \
   [--fast] [--baseline FILE] [--parallel ...]"

let write_json file doc =
  let oc = open_out file in
  output_string oc (Repro_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* The perf-regression differ: compare this run's document against
   --baseline.  Structural problems (unreadable file, malformed JSON,
   kind mismatch) exit 2 — CI must treat a broken baseline as broken
   plumbing, not a pass; actual regressions exit 3 only under
   --diff-fail, so the default is a soft gate that reports. *)
let run_baseline_diff current =
  match !baseline_file with
  | None -> ()
  | Some file ->
    let text =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error e ->
        Printf.eprintf "bench: cannot read baseline: %s\n%!" e;
        exit 2
    in
    let base =
      match Repro_obs.Json.parse text with
      | Ok j -> j
      | Error e ->
        Printf.eprintf "bench: baseline: malformed JSON: %s\n%!" e;
        exit 2
    in
    (match
       Harness.Perfdiff.diff ~threshold_pct:!diff_threshold ~base ~current ()
     with
    | Error e ->
      Printf.eprintf "bench: %s\n%!" e;
      exit 2
    | Ok report ->
      print_newline ();
      Harness.Perfdiff.pp Format.std_formatter report;
      Format.pp_print_flush Format.std_formatter ();
      (match !diff_out with
      | Some f -> write_json f (Harness.Perfdiff.to_json report)
      | None -> ());
      if !diff_fail && report.Harness.Perfdiff.regressions <> [] then exit 3)

(* The perf-smoke regression gate: time the single-domain smoke pair —
   flat layout, two-try splitting, seq-cst vs the tuned default order —
   and fail if the tuned path lost more than [pct] percent of the fenced
   baseline's throughput.  Best-of-3 per side: single-domain runs on
   shared CI hosts are noisy, and the guard exists to catch a systematic
   regression (a misplaced fence, an accidental strong CAS in the hot
   loop), not scheduling jitter. *)
let run_guard_tuned config pct =
  let best order =
    let rec go best k =
      if k = 0 then best
      else
        let p =
          Harness.Scalability.run_point ~config ~memory_order:order
            ~layout:Dsu.Plan.Flat ~policy:Policy.Two_try_splitting
            ~domains:1 ()
        in
        go (max best p.Harness.Scalability.mops_per_sec) (k - 1)
    in
    go 0. 3
  in
  let seqcst = best Dsu.Memory_order.Seq_cst in
  let tuned = best Dsu.Memory_order.default in
  let loss = (seqcst -. tuned) /. seqcst *. 100. in
  Printf.printf
    "\nguard-tuned: seq-cst %.3f Mops/s, %s %.3f Mops/s (loss %.1f%%, \
     budget %.1f%%)\n%!"
    seqcst
    (Dsu.Memory_order.to_string Dsu.Memory_order.default)
    tuned loss pct;
  if loss > pct then begin
    Printf.eprintf
      "guard-tuned: FAIL — tuned path is %.1f%% slower than seq-cst \
       (budget %.1f%%)\n%!"
      loss pct;
    exit 1
  end

(* Plan-mode guard: the tuned plan against Dsu.Plan.default, routed
   through the perfdiff differ so the 10% noise threshold, the
   better-direction logic and the plan-changed warning all come from one
   place.  Both throughputs are wrapped as single-row dsu-autotune/v1
   documents sharing a key, so the differ compares exactly the pair. *)
let guard_pair_doc ~winner ~mops =
  let module J = Repro_obs.Json in
  J.Obj
    [
      ("schema", J.String Harness.Autotune.schema);
      ("winner", J.String (Dsu.Plan.to_string winner));
      ( "measurements",
        J.List
          [
            J.Obj
              [
                ("plan", J.String "tuned-vs-default");
                ("mops_per_sec", J.Float mops);
                ("failures", J.Int 0);
              ];
          ] );
    ]

let run_guard_tuned_plan ~pct ~tuned_plan ~tuned_mops ~default_mops =
  let base = guard_pair_doc ~winner:Dsu.Plan.default ~mops:default_mops in
  let current = guard_pair_doc ~winner:tuned_plan ~mops:tuned_mops in
  match Harness.Perfdiff.diff ~threshold_pct:pct ~base ~current () with
  | Error e ->
    Printf.eprintf "bench: guard-tuned: %s\n%!" e;
    exit 2
  | Ok report ->
    Printf.printf
      "\nguard-tuned: default %.3f Mops/s, tuned %s %.3f Mops/s (budget \
       %.1f%%)\n%!"
      default_mops
      (Dsu.Plan.to_string tuned_plan)
      tuned_mops pct;
    Harness.Perfdiff.pp Format.std_formatter report;
    Format.pp_print_flush Format.std_formatter ();
    if report.Harness.Perfdiff.regressions <> [] then begin
      Printf.eprintf
        "guard-tuned: FAIL — tuned plan %s is more than %.1f%% slower than \
         the default plan\n%!"
        (Dsu.Plan.to_string tuned_plan)
        pct;
      exit 1
    end

let run_parallel_sweep () =
  let rec counts d = if d > !max_domains then [] else d :: counts (2 * d) in
  let domain_counts = match counts 1 with [] -> [ 1 ] | l -> l in
  (* The autotuner profile mirrors the sweep's knobs at the largest swept
     domain count; seed fixed so the cache fingerprint is stable across
     runs with the same shape. *)
  let profile =
    {
      Harness.Autotune.n = !parallel_n;
      domains = List.fold_left max 1 domain_counts;
      unite_percent = !unite_percent;
      dist =
        (match !parallel_dists with
        | d :: _ -> d
        | [] -> Harness.Scalability.Uniform);
      total_ops = !parallel_ops;
      seed = 21;
    }
  in
  let tuned =
    match !plan_request with
    | None -> None
    | Some (`Plan p) -> Some (p, None)
    | Some `Auto ->
      let result, source =
        Harness.Autotune.auto ~cache_dir:!autotune_cache
          ~progress:(fun m ->
            Printf.printf "autotune: %-45s %8.3f Mops/s\n%!"
              (Dsu.Plan.to_string m.Harness.Autotune.plan)
              m.Harness.Autotune.mops_per_sec)
          ~profile ()
      in
      Printf.printf "plan: %s (auto, %s)\n%!"
        (Dsu.Plan.to_string result.Harness.Autotune.winner)
        (match source with `Cached -> "cached" | `Measured -> "measured");
      (match !autotune_out with
      | None -> ()
      | Some f -> write_json f (Harness.Autotune.to_json result));
      Some (result.Harness.Autotune.winner, Some result)
  in
  let config =
    {
      Harness.Scalability.default_config with
      n = !parallel_n;
      total_ops = !parallel_ops;
      unite_percent = !unite_percent;
      domain_counts;
      policies = !parallel_policies;
      layouts = !parallel_layouts;
      memory_orders = !parallel_orders;
      backoffs = !parallel_backoffs;
      dists = !parallel_dists;
    }
  in
  (* A plan pins the sweep to its point: one layout, one compaction rule,
     one order, one backoff switch — only domains and dists still sweep. *)
  let config =
    match tuned with
    | None -> config
    | Some (p, _) ->
      {
        config with
        layouts = [ p.Dsu.Plan.layout ];
        policies = [ p.Dsu.Plan.compaction ];
        memory_orders = [ p.Dsu.Plan.memory_order ];
        backoffs = [ p.Dsu.Plan.backoff ];
      }
  in
  let points =
    Harness.Scalability.sweep ~config
      ~progress:(fun p ->
        Printf.printf "%-12s %-10s %-13s %-3s %-7s d=%d  %8.3f Mops/s\n%!"
          (Dsu.Plan.layout_to_string p.Harness.Scalability.layout)
          (Policy.to_string p.Harness.Scalability.policy)
          (Dsu.Memory_order.to_string p.Harness.Scalability.memory_order)
          (if p.Harness.Scalability.backoff then "on" else "off")
          (Harness.Scalability.dist_to_string p.Harness.Scalability.dist)
          p.Harness.Scalability.domains p.Harness.Scalability.mops_per_sec)
      ()
  in
  print_newline ();
  Harness.Scalability.pp_table Format.std_formatter points;
  Format.pp_print_flush Format.std_formatter ();
  let doc = Harness.Scalability.to_json ~config points in
  (match !out_file with
  | None -> ()
  | Some file -> write_json file doc);
  run_baseline_diff doc;
  match !guard_tuned with
  | None -> ()
  | Some pct -> (
    match tuned with
    | None -> run_guard_tuned config pct
    | Some (plan, auto_result) ->
      let tuned_mops, default_mops =
        match auto_result with
        | Some r ->
          (* --plan auto: the calibration sweep already measured both
             sides; reuse its numbers rather than re-timing. *)
          let mops_of p =
            List.find_opt
              (fun m -> Dsu.Plan.equal m.Harness.Autotune.plan p)
              r.Harness.Autotune.measurements
            |> Option.map (fun m -> m.Harness.Autotune.mops_per_sec)
          in
          ( r.Harness.Autotune.winner_mops,
            Option.value
              (mops_of Dsu.Plan.default)
              ~default:r.Harness.Autotune.winner_mops )
        | None ->
          (* explicit --plan SPEC: time both plans, best of 3 single-domain
             runs each (same rationale as the no-plan guard). *)
          let best plan =
            let rec go best k =
              if k = 0 then best
              else
                let p =
                  Harness.Scalability.run_plan_point ~config ~plan ~domains:1
                    ()
                in
                go (max best p.Harness.Scalability.mops_per_sec) (k - 1)
            in
            go 0. 3
          in
          (best plan, best Dsu.Plan.default)
      in
      run_guard_tuned_plan ~pct ~tuned_plan:plan ~tuned_mops ~default_mops)

(* Durability mode: the WAL-overhead / snapshot-pause measurement, routed
   through the same --out / --baseline plumbing as the other modes.  The
   guard compares the same workload with the WAL attached and detached, so
   it bounds the logging tax, not machine speed. *)
let run_durability_mode () =
  let defaults = Harness.Durability.default_config in
  let config =
    {
      defaults with
      Harness.Durability.n = !parallel_n;
      unite_percent = !unite_percent;
      repeats = (if !fast then 1 else defaults.Harness.Durability.repeats);
      ops_per_domain =
        (if !fast then 50_000 else defaults.Harness.Durability.ops_per_domain);
    }
  in
  let r = Harness.Durability.run ~config () in
  Harness.Durability.pp Format.std_formatter r;
  Format.pp_print_newline Format.std_formatter ();
  let doc = Harness.Durability.to_json r in
  (match !out_file with None -> () | Some file -> write_json file doc);
  run_baseline_diff doc;
  match !max_wal_overhead with
  | None -> ()
  | Some pct ->
    if r.Harness.Durability.overhead_pct > pct then begin
      Printf.eprintf
        "durability: FAIL — wal overhead %.1f%% exceeds the %.1f%% budget\n%!"
        r.Harness.Durability.overhead_pct pct;
      exit 1
    end

(* Connectivity mode: the streaming edges/sec family, routed through the
   same --out / --baseline plumbing.  --fast shrinks the streams and
   drops the baselines so the CI smoke run stays in seconds. *)
let run_connectivity_mode () =
  let module C = Harness.Connectivity in
  let rec counts d = if d > !max_domains then [] else d :: counts (2 * d) in
  let domains_list = match counts 1 with [] -> [ 1 ] | l -> l in
  let scale = if !fast then Stdlib.min !conn_scale 12 else !conn_scale in
  let plan =
    match !plan_request with
    | None -> Dsu.Plan.default
    | Some (`Plan p) -> p
    | Some `Auto ->
      let profile =
        {
          Harness.Autotune.n = 1 lsl scale;
          domains = List.fold_left max 1 domains_list;
          unite_percent = 100;
          dist = Harness.Scalability.Uniform;
          total_ops = !conn_edge_factor * (1 lsl scale);
          seed = 21;
        }
      in
      let result, source =
        Harness.Autotune.auto ~cache_dir:!autotune_cache ~profile ()
      in
      Printf.printf "plan: %s (auto, %s)\n%!"
        (Dsu.Plan.to_string result.Harness.Autotune.winner)
        (match source with `Cached -> "cached" | `Measured -> "measured");
      (match !autotune_out with
      | None -> ()
      | Some f -> write_json f (Harness.Autotune.to_json result));
      result.Harness.Autotune.winner
  in
  let config =
    {
      C.default_config with
      C.scale;
      edge_factor = !conn_edge_factor;
      chunk_size = (if !fast then 1 lsl 12 else 1 lsl 14);
      domains_list;
      modes = [ Graphs.Connectit.Racy; Graphs.Connectit.Deterministic ];
      plan;
      baselines = not !fast;
      adversarial_n = (if !fast then 4096 else 16384);
    }
  in
  let points =
    C.sweep ~config
      ~progress:(fun p ->
        Printf.printf "%-12s %-4s %-9s %-6s d=%d  %8.2f Medges/s\n%!"
          p.C.gen p.C.mode p.C.sampling p.C.finish p.C.domains
          (p.C.edges_per_sec /. 1e6))
      ()
  in
  print_newline ();
  C.pp_table Format.std_formatter points;
  Format.pp_print_newline Format.std_formatter ();
  let baselines = if config.C.baselines then C.run_baselines ~config () else [] in
  if baselines <> [] then begin
    C.pp_baselines Format.std_formatter baselines;
    Format.pp_print_newline Format.std_formatter ()
  end;
  let adversarial =
    if config.C.adversarial_n = 0 then None
    else
      Some
        (C.run_adversarial ~config ~domains:(List.fold_left max 1 domains_list) ())
  in
  (match adversarial with
  | None -> ()
  | Some a ->
    Printf.printf "adversarial: n=%d, %d ops on %d domain(s), %.2f Mops/s\n"
      a.C.a_n a.C.a_ops a.C.a_domains
      (a.C.a_ops_per_sec /. 1e6));
  let doc = C.to_json ~config ~baselines ?adversarial points in
  (match !out_file with None -> () | Some file -> write_json file doc);
  run_baseline_diff doc;
  match !guard_finish with
  | None -> ()
  | Some min_ratio -> (
    match C.guard_finish ~min_ratio points with
    | Ok (worst, pairs) ->
      Printf.printf
        "guard-finish: ok — worst bulk/per-op finish ratio %.2f over %d \
         pair(s) (floor %.2f)\n"
        worst (List.length pairs) min_ratio
    | Error e ->
      Printf.eprintf "guard-finish: FAIL — %s\n%!" e;
      exit 1)

let run_bechamel () =
  let tests =
    List.filter (fun t -> matches_filters (Test.name t)) (all_tests ())
  in
  if tests = [] then begin
    prerr_endline "no benchmark matches the given --filter";
    exit 1
  end;
  let tests = Test.make_grouped ~name:"dsu" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if !fast then Benchmark.cfg ~limit:500 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] in
  let estimates =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt results name with
        | None -> None
        | Some ols ->
          let estimate =
            match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols with Some r -> r | None -> nan
          in
          Some (name, estimate, r2))
      (List.sort compare names)
  in
  Printf.printf "%-40s %15s %10s\n" "benchmark" "ns/run" "R^2";
  Printf.printf "%s\n" (String.make 67 '-');
  List.iter
    (fun (name, estimate, r2) ->
      Printf.printf "%-40s %15.1f %10.4f\n" name estimate r2)
    estimates;
  let module J = Repro_obs.Json in
  let doc =
    J.Obj
      [
        ( "results",
          J.List
            (List.map
               (fun (name, estimate, r2) ->
                 J.Obj
                   [
                     ("name", J.String name);
                     ("ns_per_run", J.Float estimate);
                     ("r_square", J.Float r2);
                   ])
               estimates) );
      ]
  in
  (match !out_file with
  | None -> ()
  | Some file -> write_json file doc);
  run_baseline_diff doc

let () =
  Arg.parse speclist
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    usage;
  if !metrics_file <> None then Repro_obs.Metrics.set_enabled true;
  if !plan_request <> None then parallel := true;
  if !durability then run_durability_mode ()
  else if !connectivity then run_connectivity_mode ()
  else if !parallel then run_parallel_sweep ()
  else run_bechamel ();
  match !metrics_file with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc
      (Repro_obs.Export.metrics_jsonl (Repro_obs.Metrics.snapshot ()));
    close_out oc
