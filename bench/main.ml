(* Bechamel micro-benchmarks: one Test.make per experiment family of
   DESIGN.md §5 (wall-clock timing of the code paths each experiment
   exercises — the experiments' own tables, which are step-count based and
   deterministic, are produced by bin/experiments.exe).

   stdout gets the human-readable table only (nanoseconds per run for every
   benchmark, plus R² of the fit).  Machine-readable output goes to files:

     --out FILE           results as a JSON document
     --metrics-out FILE   enable telemetry during the runs and dump the
                          metrics registry as JSON lines
     --filter SUBSTR      build and run only benchmarks whose name
                          contains SUBSTR (repeatable; used by the CI
                          bench-smoke job)
     --fast               reduced measurement quota, for smoke runs

   keeping stdout parse-free for the perf-trajectory tooling.  The --out
   document carries a Perfdiff [metrics] list (each benchmark's
   ns_per_run, lower-better), so two of them are compared with
   [dsu_workload perfdiff]; the sweeps (scalability, durability,
   connectivity) are dsu_workload subcommands. *)

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

(* [bench name setup] is a benchmark whose inputs [setup ()] builds and
   whose returned closure is the measured run.  [setup] runs only for the
   benchmarks --filter selects, so a filtered run builds nothing else. *)
let bench name setup = (name, fun () -> Test.make ~name (Staged.stage (setup ())))

(* The E1/E13 mixed workload over a fresh [create ()] per run. *)
let bench_native name create =
  bench name (fun () ->
      let ops = mixed_ops_arr n_medium n_medium 3 in
      fun () -> Workload.Op.run_native_array (create ()) ops)

(* E1/E13 family: native end-to-end workload per policy. *)
let bench_native_policy policy =
  bench_native (Printf.sprintf "native/%s" (Policy.to_string policy)) (fun () ->
      Dsu.Native.create ~policy ~seed:7 n_medium)

(* Memory-layout A/B twin: the identical workload over the
   cache-line-padded flat array. *)
let bench_native_padded =
  bench_native "native/padded-two-try" (fun () ->
      Dsu.Native.create ~padded:true ~seed:7 n_medium)

(* Memory-order A/B twin: the same end-to-end workload with every parent
   load fully fenced (seq-cst) — the fenced baseline the tuned default
   (relaxed-reads) is measured against.  Compare against native/two-try. *)
let bench_native_seqcst =
  bench_native "native/two-try-seqcst" (fun () ->
      Dsu.Native.create ~memory_order:Dsu.Memory_order.Seq_cst ~seed:7 n_medium)

(* Backoff A/B twin: link-CAS backoff disabled.  Single-threaded the two
   should be indistinguishable (backoff only runs after a failed link CAS);
   the multi-domain difference is the job of the [dsu_workload
   scalability] sweep (--backoffs on,off). *)
let bench_native_nobackoff =
  bench_native "native/two-try-nobackoff" (fun () ->
      Dsu.Native.create ~backoff:false ~seed:7 n_medium)

(* E10 family: early termination. *)
let bench_native_early =
  bench_native "native/two-try+early" (fun () ->
      Dsu.Native.create ~early:true ~seed:7 n_medium)

(* E8 family: baselines on the same workload. *)
let bench_aw =
  bench "baseline/anderson-woll" (fun () ->
      let ops = mixed_ops_arr n_medium n_medium 3 in
      fun () ->
        let d = Baselines.Anderson_woll.Native.create n_medium in
        Array.iter
          (fun op ->
            match op with
            | Workload.Op.Unite (x, y) -> Baselines.Anderson_woll.Native.unite d x y
            | Workload.Op.Same_set (x, y) ->
              ignore (Baselines.Anderson_woll.Native.same_set d x y)
            | Workload.Op.Find x -> ignore (Baselines.Anderson_woll.Native.find d x))
          ops)

let bench_locked =
  bench "baseline/global-lock" (fun () ->
      let ops = mixed_ops_arr n_medium n_medium 3 in
      fun () ->
        let d = Baselines.Locked_dsu.create n_medium in
        Array.iter
          (fun op ->
            match op with
            | Workload.Op.Unite (x, y) -> Baselines.Locked_dsu.unite d x y
            | Workload.Op.Same_set (x, y) ->
              ignore (Baselines.Locked_dsu.same_set d x y)
            | Workload.Op.Find x -> ignore (Baselines.Locked_dsu.find d x))
          ops)

(* E9 family: sequential variants. *)
let bench_seq linking compaction =
  bench
    (Printf.sprintf "seq/%s-%s"
       (Sequential.Seq_dsu.linking_to_string linking)
       (Sequential.Seq_dsu.compaction_to_string compaction))
    (fun () ->
      let ops = mixed_ops_arr n_medium n_medium 3 in
      fun () ->
        let d = Sequential.Seq_dsu.create ~linking ~compaction ~seed:5 n_medium in
        Workload.Op.run_seq_array d ops)

(* E4/E5 family: one simulated execution (work measurement machinery). *)
let bench_sim policy =
  bench (Printf.sprintf "sim/p4-%s" (Policy.to_string policy)) (fun () ->
      let ops = Workload.Op.round_robin (spanning_ops n_small 11) ~p:4 in
      fun () -> ignore (Harness.Measure.run_sim ~policy ~n:n_small ~seed:13 ~ops ()))

(* E6/E7 family: the adversarial binomial build. *)
let bench_binomial =
  bench "workload/binomial-build" (fun () ->
      let k = 1 lsl 10 in
      let ops = Array.of_list (Workload.Binomial.schedule ~base:0 ~k) in
      fun () ->
        let d = Dsu.Native.create ~seed:17 k in
        Workload.Op.run_native_array d ops)

(* E11 family: linearizability checking cost. *)
let bench_lincheck =
  bench "lincheck/12-op-history" (fun () ->
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
      fun () -> ignore (Lincheck.Checker.check ~n:6 history))

(* E12 family: the applications. *)
let bench_components =
  bench "apps/connected-components" (fun () ->
      let g =
        Graphs.Generators.erdos_renyi ~rng:(Rng.create 23) ~n:n_medium
          ~m:(2 * n_medium) ()
      in
      fun () -> ignore (Graphs.Components.sequential g))

let bench_kruskal =
  bench "apps/kruskal-msf" (fun () ->
      let rng = Rng.create 29 in
      let g = Graphs.Generators.erdos_renyi ~rng ~n:n_small ~m:(4 * n_small) () in
      let w = Graphs.Graph.with_random_weights ~rng g in
      fun () -> ignore (Graphs.Kruskal.run_concurrent_dsu ~seed:3 w))

let bench_percolation =
  bench "apps/percolation-32x32" (fun () ->
      let counter = ref 0 in
      fun () ->
        incr counter;
        ignore (Graphs.Percolation.simulate ~rng:(Rng.create !counter) 32))

let bench_scc =
  bench "apps/scc-condensation" (fun () ->
      let g =
        Graphs.Generators.clustered_digraph ~rng:(Rng.create 31) ~clusters:32
          ~cluster_size:16 ~extra:256
      in
      fun () -> ignore (Graphs.Scc.condense_with_dsu ~seed:5 g))

(* New-application families (E12 extensions). *)
let bench_boruvka =
  bench "apps/boruvka-msf" (fun () ->
      let rng = Rng.create 63 in
      let g = Graphs.Generators.erdos_renyi ~rng ~n:n_small ~m:(4 * n_small) () in
      let w = Graphs.Graph.with_random_weights ~rng g in
      fun () -> ignore (Graphs.Boruvka.run w))

let bench_lca =
  bench "apps/offline-lca" (fun () ->
      let rng = Rng.create 67 in
      let t = Graphs.Lca.random_tree ~rng ~n:n_small in
      let queries =
        List.init 512 (fun _ -> (Rng.int rng n_small, Rng.int rng n_small))
      in
      fun () -> ignore (Graphs.Lca.solve t queries))

let bench_dominators =
  bench "apps/dominators-lt" (fun () ->
      let g =
        Graphs.Generators.random_digraph ~rng:(Rng.create 71) ~n:n_small
          ~m:(3 * n_small)
      in
      fun () -> ignore (Graphs.Dominators.lengauer_tarjan g ~root:0))

let bench_steensgaard =
  bench "apps/steensgaard" (fun () ->
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
      fun () -> ignore (Analysis.Steensgaard.analyze program))

(* MakeSet extension: a fresh universe grown across chunk boundaries,
   each new element united with the first. *)
let bench_growable =
  bench "growable/make_set+unite" (fun () () ->
      let g = Dsu.Growable.create ~seed:37 () in
      let first = Dsu.Growable.make_set g in
      for _ = 2 to 4 * Dsu.Growable.chunk_size do
        let e = Dsu.Growable.make_set g in
        Dsu.Growable.unite g first e
      done)

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

(* micro/find and its layout and memory-order twins: the same flattened
   structure shape and index stream. *)
let bench_micro_find name create =
  bench name (fun () ->
      let d = create () in
      Workload.Op.run_native_array d (Array.of_list (spanning_ops n_medium 43));
      flatten_native d;
      let idx = micro_indices 47 in
      fun () ->
        for k = 0 to micro_batch - 1 do
          ignore (Dsu.Native.find d (Array.unsafe_get idx k))
        done)

let bench_single_find =
  bench_micro_find "micro/find" (fun () -> Dsu.Native.create ~seed:41 n_medium)

let bench_single_find_padded =
  bench_micro_find "micro/find-padded" (fun () ->
      Dsu.Native.create ~padded:true ~seed:41 n_medium)

let bench_single_same_set =
  bench "micro/same_set" (fun () ->
      let d = Dsu.Native.create ~seed:53 n_medium in
      Workload.Op.run_native_array d (Array.of_list (spanning_ops n_medium 59));
      flatten_native d;
      let xs = micro_indices 61 and ys = micro_indices 67 in
      fun () ->
        for k = 0 to micro_batch - 1 do
          ignore
            (Dsu.Native.same_set d (Array.unsafe_get xs k) (Array.unsafe_get ys k))
        done)

(* Memory-order micro twin of micro/find: seq-cst parent loads. *)
let bench_single_find_seqcst =
  bench_micro_find "micro/find-seqcst" (fun () ->
      Dsu.Native.create ~memory_order:Dsu.Memory_order.Seq_cst ~seed:41 n_medium)

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
  bench "bulk/unite-batch" (fun () ->
      let xs, ys = bulk_pairs bulk_unites 83 in
      fun () ->
        let d = Dsu.Native.create ~seed:7 n_bulk in
        Dsu.Native.unite_batch d xs ys)

let bench_bulk_unite_per_op =
  bench "bulk/unite-per-op" (fun () ->
      let xs, ys = bulk_pairs bulk_unites 83 in
      fun () ->
        let d = Dsu.Native.create ~seed:7 n_bulk in
        for k = 0 to bulk_unites - 1 do
          Dsu.Native.unite d (Array.unsafe_get xs k) (Array.unsafe_get ys k)
        done)

(* The same_set twins query a prepared, flattened structure (like the
   micro benches), so the measured work is the query walk itself —
   two root checks at random far-apart addresses per query. *)
let flattened_bulk () =
  let d = Dsu.Native.create ~seed:53 n_bulk in
  Workload.Op.run_native_array d (Array.of_list (spanning_ops n_bulk 59));
  flatten_native d;
  d

let bench_bulk_same_set_batch =
  bench "bulk/same_set-batch" (fun () ->
      let d = flattened_bulk () in
      let xs, ys = bulk_pairs bulk_queries 91 in
      fun () -> ignore (Dsu.Native.same_set_batch d xs ys))

let bench_bulk_same_set_per_op =
  bench "bulk/same_set-per-op" (fun () ->
      let d = flattened_bulk () in
      let xs, ys = bulk_pairs bulk_queries 91 in
      fun () ->
        for k = 0 to bulk_queries - 1 do
          ignore
            (Dsu.Native.same_set d (Array.unsafe_get xs k) (Array.unsafe_get ys k))
        done)

(* End-to-end mixed stream through the batching op runner (maximal
   same-kind runs flushed through the bulk kernels) vs the plain array
   runner — what an application-level caller gains by batching. *)
let bench_bulk_mixed_batched =
  bench "bulk/mixed-batched" (fun () ->
      let ops = mixed_ops_arr n_medium n_medium 3 in
      fun () ->
        let d = Dsu.Native.create ~seed:7 n_medium in
        Workload.Op.run_native_array_batched d ops)

let bench_bulk_mixed_per_op =
  bench_native "bulk/mixed-per-op" (fun () -> Dsu.Native.create ~seed:7 n_medium)

(* The bit-packed rank layout (Dsu.Packed) on n=2^20 endpoint streams —
   unite over a fresh structure, then find over a prepared flattened one;
   docs/PERFORMANCE.md quotes these numbers. *)
let bench_packed_unite_pairs =
  bench "packedrank/unite-packed" (fun () ->
      let xs, ys = bulk_pairs bulk_unites 83 in
      fun () ->
        let d = Dsu.Packed.Native.create n_bulk in
        for k = 0 to bulk_unites - 1 do
          Dsu.Packed.Native.unite d (Array.unsafe_get xs k)
            (Array.unsafe_get ys k)
        done)

let bulk_find_indices seed =
  let rng = Rng.create seed in
  Array.init bulk_queries (fun _ -> Rng.int rng n_bulk)

let bench_packed_find =
  bench "packedrank/find-packed" (fun () ->
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
      fun () ->
        for k = 0 to bulk_queries - 1 do
          ignore (Dsu.Packed.Native.find d (Array.unsafe_get idx k))
        done)

let all_tests =
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

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  nl = 0 || at 0

let matches_filters name =
  match !filters with
  | [] -> true
  | fs -> List.exists (fun f -> contains_substring ~needle:f name) fs

let speclist =
  [
    ( "--out",
      Arg.String (fun f -> out_file := Some f),
      "FILE  write results as a JSON document to FILE" );
    ( "--metrics-out",
      Arg.String (fun f -> metrics_file := Some f),
      "FILE  enable telemetry and write the metrics registry (JSON lines) \
       to FILE" );
    ( "--filter",
      Arg.String (fun f -> filters := f :: !filters),
      "SUBSTR  run only benchmarks whose name contains SUBSTR (repeatable)" );
    ("--fast", Arg.Set fast, " reduced measurement quota (smoke runs / CI)");
  ]

let usage =
  "bench/main.exe [--out FILE] [--metrics-out FILE] [--filter SUBSTR] [--fast]"

let write_json file doc =
  let oc = open_out file in
  output_string oc (Repro_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc

let run_bechamel () =
  let tests =
    List.filter_map
      (fun (name, make) -> if matches_filters name then Some (make ()) else None)
      all_tests
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
        Harness.Perfdiff.metrics_field
          (List.map
             (fun (name, estimate, _) ->
               {
                 Harness.Perfdiff.key = name;
                 metric = "ns_per_run";
                 dir = Lower_better;
                 value = estimate;
               })
             estimates);
      ]
  in
  match !out_file with
  | None -> ()
  | Some file -> write_json file doc

let () =
  Arg.parse speclist
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    usage;
  if !metrics_file <> None then Repro_obs.Metrics.set_enabled true;
  run_bechamel ();
  match !metrics_file with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc
      (Repro_obs.Export.metrics_jsonl (Repro_obs.Metrics.snapshot ()));
    close_out oc
