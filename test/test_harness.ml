(* Tests for the harness: forest analysis, the measurement layer, and the
   experiment registry. *)

module Forest = Harness.Forest
module Measure = Harness.Measure
module Experiment = Harness.Experiment
module Registry = Harness.Registry
module Rng = Repro_util.Rng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let forest_tests =
  [
    case "of_links builds the forest" (fun () ->
        let f = Forest.of_links ~n:5 [ (0, 1); (1, 2); (3, 2) ] in
        check Alcotest.int "parent 0" 1 (Forest.parent f 0);
        check Alcotest.bool "2 is root" true (Forest.is_root f 2);
        check Alcotest.bool "4 is root" true (Forest.is_root f 4);
        check Alcotest.int "n" 5 (Forest.n f));
    case "depths and height" (fun () ->
        let f = Forest.of_links ~n:5 [ (0, 1); (1, 2); (3, 2) ] in
        check Alcotest.(array int) "depths" [| 2; 1; 0; 1; 0 |] (Forest.depths f);
        check Alcotest.int "height" 2 (Forest.height f);
        check (Alcotest.float 1e-9) "avg" 0.8 (Forest.avg_depth f));
    case "ancestors nearest first" (fun () ->
        let f = Forest.of_links ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
        check Alcotest.(list int) "ancestors 0" [ 1; 2; 3 ] (Forest.ancestors f 0);
        check Alcotest.(list int) "ancestors 3" [] (Forest.ancestors f 3));
    case "linking a node twice rejected" (fun () ->
        Alcotest.check_raises "twice"
          (Invalid_argument "Forest.of_links: node linked twice") (fun () ->
            ignore (Forest.of_links ~n:3 [ (0, 1); (0, 2) ])));
    case "cycle detection in of_parents" (fun () ->
        let f = Forest.of_parents [| 1; 0 |] in
        Alcotest.check_raises "cycle" (Invalid_argument "Forest.depths: cycle detected")
          (fun () -> ignore (Forest.depths f)));
    case "of_parents copies its input" (fun () ->
        let parents = [| 0; 0 |] in
        let f = Forest.of_parents parents in
        parents.(1) <- 1;
        check Alcotest.int "unaffected" 0 (Forest.parent f 1));
    case "depth_histogram totals n" (fun () ->
        let f = Forest.of_links ~n:6 [ (0, 1); (2, 1); (3, 1) ] in
        let h = Forest.depth_histogram f in
        check Alcotest.int "total" 6 (Repro_util.Histogram.total h);
        check Alcotest.int "depth 0 count" 3 (Repro_util.Histogram.count h 0);
        check Alcotest.int "depth 1 count" 3 (Repro_util.Histogram.count h 1));
    case "singleton forest" (fun () ->
        let f = Forest.of_links ~n:1 [] in
        check Alcotest.int "height" 0 (Forest.height f);
        check (Alcotest.float 1e-9) "avg" 0. (Forest.avg_depth f));
  ]

let measure_tests =
  [
    case "run_sim basic accounting" (fun () ->
        let ops =
          [| [ Workload.Op.Unite (0, 1); Workload.Op.Same_set (0, 1) ];
             [ Workload.Op.Unite (2, 3) ] |]
        in
        let r = Measure.run_sim ~n:8 ~seed:3 ~ops () in
        check Alcotest.int "ops completed" 3 (Array.length r.Measure.op_costs);
        check Alcotest.bool "steps positive" true (r.Measure.total_steps > 0);
        check Alcotest.int "steps sum" r.Measure.total_steps
          (Array.fold_left ( + ) 0 r.Measure.steps_per_process);
        check Alcotest.int "links" 2 (List.length r.Measure.links);
        check Alcotest.bool "work per op" true (Measure.work_per_op r > 0.));
    case "run_sim respects init_parents" (fun () ->
        (* Warm-start: all nodes already point at node 3 (give node 3 the
           top id by fixing ids).  A find from 0 is then one step shorter
           than in a cold chain. *)
        let ops = [| [ Workload.Op.Find 0 ] |] in
        let r_cold =
          Measure.run_sim ~init_parents:[| 1; 2; 3; 3 |] ~n:4 ~seed:5 ~ops ()
        in
        let r_warm =
          Measure.run_sim ~init_parents:[| 3; 3; 3; 3 |] ~n:4 ~seed:5 ~ops ()
        in
        check Alcotest.bool "warm cheaper" true
          (r_warm.Measure.total_steps < r_cold.Measure.total_steps));
    case "run_sim validates init_parents length" (fun () ->
        Alcotest.check_raises "len"
          (Invalid_argument "Measure.run_sim: init_parents length mismatch")
          (fun () ->
            ignore (Measure.run_sim ~init_parents:[| 0 |] ~n:2 ~seed:1 ~ops:[| [] |] ())));
    case "stats snapshot consistent with oracle" (fun () ->
        let n = 32 in
        let rng = Rng.create 21 in
        let ops_list = Workload.Random_mix.random_pairs ~rng ~n ~m:50 in
        let ops = Workload.Op.round_robin ops_list ~p:2 in
        let r = Measure.run_sim ~n ~seed:9 ~ops () in
        let q = Sequential.Quick_find.create n in
        Workload.Op.run_quick_find q ops_list;
        check Alcotest.int "links" (n - Sequential.Quick_find.count_sets q)
          r.Measure.stats.Dsu.Stats.links);
    case "seq_work counters" (fun () ->
        let ops = [ Workload.Op.Unite (0, 1); Workload.Op.Same_set (0, 1) ] in
        let c =
          Measure.seq_work ~linking:Sequential.Seq_dsu.By_rank
            ~compaction:Sequential.Seq_dsu.Splitting ~n:4 ~ops ()
        in
        check Alcotest.int "links" 1 c.Sequential.Seq_dsu.links;
        check Alcotest.int "unites" 1 c.Sequential.Seq_dsu.unites);
    case "mean_int" (fun () ->
        check (Alcotest.float 1e-9) "mean" 2. (Measure.mean_int [| 1; 2; 3 |]);
        check (Alcotest.float 1e-9) "empty" 0. (Measure.mean_int [||]));
  ]

let registry_tests =
  [
    case "all ids are unique" (fun () ->
        let ids = List.map (fun e -> e.Experiment.id) Registry.all in
        check Alcotest.int "unique" (List.length ids)
          (List.length (List.sort_uniq compare ids)));
    case "eighteen experiments registered" (fun () ->
        check Alcotest.int "count" 18 (List.length Registry.all));
    case "find locates by id" (fun () ->
        (match Registry.find "e4" with
        | Some e -> check Alcotest.string "id" "e4" e.Experiment.id
        | None -> Alcotest.fail "e4 missing");
        check Alcotest.bool "unknown" true (Registry.find "nope" = None));
    case "every experiment has a claim" (fun () ->
        List.iter
          (fun e ->
            check Alcotest.bool e.Experiment.id true
              (String.length e.Experiment.claim > 10))
          Registry.all);
    case "header renders" (fun () ->
        match Registry.find "e1" with
        | Some e ->
          let buf = Buffer.create 128 in
          Experiment.header (Format.formatter_of_buffer buf) e;
          check Alcotest.bool "nonempty" true (Buffer.length buf > 0)
        | None -> Alcotest.fail "e1 missing");
  ]

(* ------------------------------------------------ load, Direct target *)

module Load = Harness.Load
module Perfdiff = Harness.Perfdiff
module Json = Repro_obs.Json

(* Integral floats serialize as "100" and parse back as [Json.Int]. *)
let json_num = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* The Direct target: generators run their ops on the DSU themselves. *)
let direct ?(n = 256) ~ops shape =
  { Load.default_config with n; generators = 1; ops; shape; workers = 0 }

let latency_tests =
  [
    case "shape strings round-trip" (fun () ->
        List.iter
          (fun (s, shape) ->
            check Alcotest.bool s true (Load.shape_of_string s = Some shape);
            check Alcotest.string "to_string" s (Load.shape_to_string shape))
          [
            ("fixed", Load.Fixed);
            ("poisson", Load.Poisson);
            ("bursty:4", Load.Bursty 4);
          ];
        check Alcotest.bool "bare bursty defaults" true
          (Load.shape_of_string "bursty" = Some (Load.Bursty 16));
        check Alcotest.bool "zero burst rejected" true
          (Load.shape_of_string "bursty:0" = None);
        check Alcotest.bool "junk rejected" true
          (Load.shape_of_string "open-loop" = None));
    case "run_point validates its arguments" (fun () ->
        let config = direct ~ops:100 Load.Fixed in
        let rejects name config rate =
          check Alcotest.bool name true
            (try
               ignore (Load.run_point ~config ~rate ());
               false
             with Invalid_argument _ -> true)
        in
        rejects "rate 0 rejected" config 0.0;
        rejects "0 generators rejected" { config with generators = 0 } 1000.0;
        rejects "negative workers rejected" { config with workers = -1 } 1000.0;
        rejects "a WAL needs the service" { config with durable = true } 1000.0;
        rejects "op mix over 100% rejected"
          { config with unite_percent = 95; find_percent = 10 }
          1000.0);
    case "a modest fixed-rate point completes and keeps its books" (fun () ->
        let config = direct ~ops:600 Load.Fixed in
        let p = Load.run_point ~config ~rate:20_000.0 () in
        check Alcotest.int "every op completed" p.Load.target_ops p.Load.acked;
        check Alcotest.int "direct: accepted = submitted" p.Load.submitted
          p.Load.accepted;
        check Alcotest.int "direct: acked = submitted" p.Load.submitted
          p.Load.acked;
        check Alcotest.bool "direct points are accounted" true
          p.Load.accounted_ok;
        check Alcotest.int "latency count" 600 p.Load.latency.Repro_obs.Hdr.count;
        check Alcotest.int "service count" 600 p.Load.service.Repro_obs.Hdr.count;
        check Alcotest.bool "duration positive" true (p.Load.duration_s > 0.);
        check Alcotest.int "reservoir capped" Load.reservoir
          (Array.length p.Load.samples);
        let sorted = Array.copy p.Load.samples in
        Array.sort compare sorted;
        check Alcotest.(array int) "samples sorted" sorted p.Load.samples;
        (* Open-loop latency includes the wait for the slot, so it
           dominates pure service time everywhere. *)
        check Alcotest.bool "latency p99 >= service p99" true
          (Repro_obs.Hdr.quantile p.Load.latency 0.99
          >= Repro_obs.Hdr.quantile p.Load.service 0.99));
    case "bursty arrivals run to completion" (fun () ->
        let config = direct ~n:128 ~ops:200 (Load.Bursty 8) in
        let p = Load.run_point ~config ~rate:50_000.0 () in
        check Alcotest.int "completed" 200 p.Load.acked);
    case "direct points flag generators that outnumber the cores" (fun () ->
        (* The expectation follows the host's core count, so both sides of
           the rule are checked wherever a host lands between them. *)
        let cores = Domain.recommended_domain_count () in
        List.iter
          (fun generators ->
            let config = { (direct ~ops:50 Load.Fixed) with generators } in
            let p = Load.run_point ~config ~rate:100_000.0 () in
            let expected = generators + 1 > cores in
            let what =
              Printf.sprintf "%d generator(s), %d cores" generators cores
            in
            check Alcotest.bool what expected p.Load.oversubscribed;
            let j =
              Json.parse_exn (Json.to_string (Load.to_json config [ p ]))
            in
            match Json.member "points" j with
            | Some (Json.List [ point ]) ->
              check Alcotest.bool (what ^ ": in the JSON point") true
                (Json.member "oversubscribed" point = Some (Json.Bool expected))
            | _ -> Alcotest.fail "expected one point")
          [ 1; 2 ]);
    case "service points flag generators and workers that outnumber the cores"
      (fun () ->
        let cores = Domain.recommended_domain_count () in
        List.iter
          (fun (generators, workers) ->
            let config =
              { (direct ~ops:50 Load.Fixed) with generators; workers }
            in
            let p = Load.run_point ~config ~rate:100_000.0 () in
            let expected = generators + workers + 1 > cores in
            let what =
              Printf.sprintf "%d generator(s), %d worker(s), %d cores"
                generators workers cores
            in
            check Alcotest.bool what expected p.Load.oversubscribed;
            let j =
              Json.parse_exn (Json.to_string (Load.to_json config [ p ]))
            in
            match Json.member "points" j with
            | Some (Json.List [ point ]) ->
              check Alcotest.bool (what ^ ": in the JSON point") true
                (Json.member "oversubscribed" point = Some (Json.Bool expected))
            | _ -> Alcotest.fail "expected one point")
          [ (1, 1); (2, 1) ]);
    case "open-loop accounting exposes the stall closed-loop hides"
      (fun () ->
        (* One generator at 50k ops/s; the server freezes for 20ms mid-run.
           Intended-start accounting bills the ~1000 queued arrivals for
           their wait, so the open-loop tail explodes; service time
           (completion - actual start: what a closed-loop harness reports)
           stays flat except for the one stalled call.  This asymmetry IS
           coordinated omission. *)
        let stall_ns = 20_000_000 in
        let config = direct ~n:1024 ~ops:3_000 Load.Fixed in
        let stall ~generator:_ ~index = if index = 1_500 then stall_ns else 0 in
        let p = Load.run_point ~stall ~config ~rate:50_000.0 () in
        let lat_p999 = Repro_obs.Hdr.quantile p.Load.latency 0.999 in
        let srv_p999 = Repro_obs.Hdr.quantile p.Load.service 0.999 in
        check Alcotest.bool
          (Printf.sprintf "open-loop p999 (%d ns) sees the stall" lat_p999)
          true
          (lat_p999 >= stall_ns / 4);
        check Alcotest.bool
          (Printf.sprintf "closed-loop p999 (%d ns) hides it (open %d ns)"
             srv_p999 lat_p999)
          true
          (lat_p999 > 5 * srv_p999);
        check Alcotest.bool "the stalled call itself is the service max" true
          (p.Load.service.Repro_obs.Hdr.max >= stall_ns);
        check Alcotest.bool "scheduling lag recorded" true
          (p.Load.max_lag_ns >= stall_ns / 4));
    case "sweep locates the saturation knee" (fun () ->
        let config = direct ~ops:400 Load.Fixed in
        (* 20k/s is trivially sustainable; 50M/s is beyond any single
           domain (the op itself costs more than 20ns). *)
        let points = Load.sweep ~config ~rates:[ 20_000.0; 50_000_000.0 ] () in
        (match points with
        | [ easy; impossible ] ->
          check Alcotest.bool "low rate keeps up" false easy.Load.saturated;
          check Alcotest.bool "high rate saturates" true
            impossible.Load.saturated
        | _ -> Alcotest.fail "expected two points");
        check Alcotest.bool "knee is the sustainable rate" true
          (Load.knee points = Some 20_000.0);
        check Alcotest.bool "all saturated means no knee" true
          (Load.knee (List.filter (fun p -> p.Load.saturated) points) = None);
        (* The dsu-load/v1 document round-trips through the parser. *)
        let j = Json.parse_exn (Json.to_string (Load.to_json config points)) in
        check Alcotest.bool "schema" true
          (Json.member "schema" j = Some (Json.String "dsu-load/v1"));
        check Alcotest.bool "target recorded" true
          (Json.member "target" j = Some (Json.String "direct"));
        (match Json.member "points" j with
        | Some (Json.List [ p1; _ ]) ->
          List.iter
            (fun hist ->
              match Json.member hist p1 with
              | Some h ->
                List.iter
                  (fun key ->
                    check Alcotest.bool (hist ^ "." ^ key ^ " present") true
                      (Json.member key h <> None))
                  [ "count"; "mean_ns"; "min_ns"; "p50_ns"; "p99_ns";
                    "p999_ns"; "max_ns" ]
              | None -> Alcotest.fail (hist ^ " object missing"))
            [ "latency"; "service" ];
          check Alcotest.bool "exact samples exported" true
            (match Json.member "samples_ns" p1 with
            | Some (Json.List l) -> List.length l > 0
            | _ -> false);
          check Alcotest.bool "no admission fields on a direct point" true
            (Json.member "accounted_ok" p1 = None)
        | _ -> Alcotest.fail "expected two JSON points");
        check (Alcotest.option (Alcotest.float 1e-9)) "knee exported"
          (Some 20_000.0)
          (json_num (Json.member "knee_rate" j)));
  ]

(* ------------------------------------------------------------ perfdiff *)

module Scalability = Harness.Scalability
module Chaos = Harness.Chaos
module Durability = Harness.Durability
module Connectivity = Harness.Connectivity

(* A document whose metrics go through the writer every emitter uses; no
   [schema] is the bechamel kind. *)
let metrics_doc ?schema entries =
  let schema = Option.to_list (Option.map (fun s -> ("schema", Json.String s)) schema) in
  Json.to_string (Json.Obj (schema @ [ Perfdiff.metrics_field entries ]))

let bechamel_doc entries =
  metrics_doc
    (List.map
       (fun (key, value) ->
         { Perfdiff.key; metric = "ns_per_run"; dir = Lower_better; value })
       entries)

let scalability_point ?(memory_order = Dsu.Memory_order.default) mops =
  {
    Scalability.layout = Dsu.Plan.Flat;
    policy = Dsu.Find_policy.Two_try_splitting;
    memory_order;
    dist = Scalability.Uniform;
    domains = 4;
    n = 1024;
    total_ops = 4_000;
    seconds = 0.001;
    mops_per_sec = mops;
    failures = [];
  }

let scalability_doc points = Json.to_string (Scalability.to_json points)

(* A measured Direct point at 100k ops/s offered, re-dressed with the
   given achieved rate and a constant open-loop latency of [lat] ns. *)
let load_point =
  let measured =
    lazy (Load.run_point ~config:(direct ~ops:50 Load.Fixed) ~rate:100_000.0 ())
  in
  fun ~achieved ~lat ->
    let h = Repro_obs.Hdr.create ~sharded:false () in
    Repro_obs.Hdr.materialize h;
    for _ = 1 to 100 do
      Repro_obs.Hdr.observe h lat
    done;
    {
      (Lazy.force measured) with
      Load.achieved_rate = achieved;
      latency = Repro_obs.Hdr.snap h;
    }

(* [workers = 0] is the Direct target, [>= 1] the Service one. *)
let load_doc ~workers points =
  Json.to_string (Load.to_json { (direct ~ops:50 Load.Fixed) with workers } points)

let drill_scenario ?rto_ns ?(layout = Dsu.Plan.Flat)
    ?(policy = Dsu.Find_policy.Two_try_splitting) depth =
  {
    Chaos.layout;
    policy;
    depth;
    crashed = [];
    stages = [];
    recovery = None;
    rto_ns;
    faults = { Repro_fault.Inject.hits = 0; yields = 0; stalls = 0; crashes = 0 };
    checks = [];
    seconds = 0.01;
  }

(* An archived dsu-autotune/v1 report (the plan tuner that wrote them is
   gone), one line as it was stored, with [mops] as the default plan's
   throughput.  Perfdiff reads only its schema and metrics. *)
let autotune_doc mops =
  Printf.sprintf
    {|{"schema":"dsu-autotune/v1","fingerprint":"n65536-d2-u30-uniform-ops200000-s21","winner":"rand:two-try:relaxed-reads:on:flat","measurements":[{"plan":"rand:two-try:relaxed-reads:on:flat","mops_per_sec":%g,"failures":0}],"metrics":[{"key":"plan=rand:two-try:relaxed-reads:on:flat","metric":"mops_per_sec","dir":"higher-better","value":%g}]}|}
    mops mops

(* The same archived shape with one metrics row per (plan, mops) pair;
   only [winner] and the rows vary. *)
let archived_autotune_doc ~winner plans =
  let row (plan, mops) =
    Printf.sprintf
      {|{"key":"plan=%s","metric":"mops_per_sec","dir":"higher-better","value":%g}|}
      plan mops
  in
  Printf.sprintf {|{"schema":"dsu-autotune/v1","winner":"%s","metrics":[%s]}|}
    winner
    (String.concat "," (List.map row plans))

let connectivity_point ~gen ~sampling ~domains =
  {
    Connectivity.gen;
    n = 256;
    m = 1024;
    domains;
    sampling;
    mode = "racy";
    plan = Dsu.Plan.to_string Dsu.Plan.default;
    seconds = 0.1;
    edges_per_sec = 1e6;
    finish_edges_per_sec = 2e6;
    sample_ns = 0;
    finish_ns = 100;
    label_ns = 0;
    gen_ns = 0;
    skipped_ratio = 0.;
    components = 1;
    det_rounds = 0;
  }

(* The (key, metric) ids of a document's metrics list, in order. *)
let metric_ids doc =
  match Json.member "metrics" doc with
  | Some (Json.List ms) ->
    List.map
      (fun m ->
        match (Json.member "key" m, Json.member "metric" m) with
        | Some (Json.String k), Some (Json.String metric) -> (k, metric)
        | _ -> Alcotest.fail "malformed metrics entry")
      ms
  | _ -> Alcotest.fail "no metrics list"

let diff_ok ?threshold_pct ~base ~current () =
  match Perfdiff.diff_strings ?threshold_pct ~base ~current () with
  | Ok r -> r
  | Error e -> Alcotest.fail ("unexpected perfdiff error: " ^ e)

let perfdiff_tests =
  [
    case "self-diff is clean" (fun () ->
        let doc = bechamel_doc [ ("a", 100.0); ("b", 250.0) ] in
        let r = diff_ok ~base:doc ~current:doc () in
        check Alcotest.string "kind" "bechamel" r.Perfdiff.kind;
        check Alcotest.int "compared" 2 (List.length r.Perfdiff.rows);
        check Alcotest.int "regressions" 0 (List.length r.Perfdiff.regressions);
        check Alcotest.int "improvements" 0
          (List.length r.Perfdiff.improvements));
    case "lower-better: slower is a regression, faster an improvement"
      (fun () ->
        let base = bechamel_doc [ ("slow", 100.0); ("fast", 100.0) ] in
        let current = bechamel_doc [ ("slow", 150.0); ("fast", 50.0) ] in
        let r = diff_ok ~base ~current () in
        (match r.Perfdiff.regressions with
        | [ row ] ->
          check Alcotest.string "key" "slow" row.Perfdiff.key;
          check (Alcotest.float 1e-6) "delta" 50.0 row.Perfdiff.delta_pct
        | _ -> Alcotest.fail "expected one regression");
        match r.Perfdiff.improvements with
        | [ row ] -> check Alcotest.string "key" "fast" row.Perfdiff.key
        | _ -> Alcotest.fail "expected one improvement");
    case "deltas inside the noise threshold are ignored" (fun () ->
        let base = bechamel_doc [ ("a", 100.0) ] in
        let current = bechamel_doc [ ("a", 105.0) ] in
        let r = diff_ok ~base ~current () in
        check Alcotest.int "no regressions at 10%" 0
          (List.length r.Perfdiff.regressions);
        let tight = diff_ok ~threshold_pct:2.0 ~base ~current () in
        check Alcotest.int "regression at 2%" 1
          (List.length tight.Perfdiff.regressions));
    case "higher-better: a throughput drop is the regression" (fun () ->
        let doc mops = scalability_doc [ scalability_point mops ] in
        let r = diff_ok ~base:(doc 10.0) ~current:(doc 5.0) () in
        check Alcotest.string "kind" "dsu-scalability/v2" r.Perfdiff.kind;
        (match r.Perfdiff.regressions with
        | [ row ] ->
          check Alcotest.string "metric" "mops_per_sec" row.Perfdiff.metric;
          check Alcotest.string "keyed by configuration"
            "layout=flat policy=two-try order=relaxed-reads dist=uniform \
             domains=4"
            row.Perfdiff.key
        | _ -> Alcotest.fail "expected one regression");
        let up = diff_ok ~base:(doc 5.0) ~current:(doc 10.0) () in
        check Alcotest.int "improvement the other way" 1
          (List.length up.Perfdiff.improvements));
    case "archived backoff= and flat-padded rows stay unpaired" (fun () ->
        (* A scalability document from before the backoff switch and the
           flat-padded layout were retired: same schema, keys with a
           [backoff=] part, one of them on the flat-padded layout. *)
        let archived_key layout backoff =
          Printf.sprintf
            "layout=%s policy=two-try order=relaxed-reads backoff=%b \
             dist=uniform domains=4"
            layout backoff
        in
        let archived =
          metrics_doc ~schema:"dsu-scalability/v2"
            (List.map
               (fun key ->
                 { Perfdiff.key; metric = "mops_per_sec"; dir = Higher_better;
                   value = 10.0 })
               [
                 archived_key "flat" true;
                 archived_key "flat" false;
                 archived_key "flat-padded" true;
               ])
        in
        let current = scalability_doc [ scalability_point 10.0 ] in
        let r = diff_ok ~base:archived ~current () in
        check Alcotest.int "no paired rows" 0 (List.length r.Perfdiff.rows);
        check
          Alcotest.(list string)
          "only-baseline"
          (List.map
             (fun k -> k ^ "/mops_per_sec")
             [
               archived_key "flat" true;
               archived_key "flat" false;
               archived_key "flat-padded" true;
             ])
          r.Perfdiff.only_base;
        check
          Alcotest.(list string)
          "only-current"
          [
            "layout=flat policy=two-try order=relaxed-reads dist=uniform \
             domains=4/mops_per_sec";
          ]
          r.Perfdiff.only_current);
    case "latency documents diff quantiles and achieved rate" (fun () ->
        let base = load_doc ~workers:0 [ load_point ~achieved:990.0 ~lat:100 ] in
        let current = load_doc ~workers:0 [ load_point ~achieved:500.0 ~lat:300 ] in
        let r = diff_ok ~base ~current () in
        let metrics =
          List.map (fun row -> row.Perfdiff.metric) r.Perfdiff.regressions
          |> List.sort compare
        in
        (* '9' sorts before '_', so p999 precedes p99 lexicographically *)
        check
          (Alcotest.list Alcotest.string)
          "all three latency metrics regressed"
          [ "achieved_rate"; "latency_p999_ns"; "latency_p99_ns" ]
          metrics;
        List.iter
          (fun row ->
            check Alcotest.string "key is the offered rate" "rate=100000"
              row.Perfdiff.key)
          r.Perfdiff.regressions);
    case "service documents diff throughput and tails" (fun () ->
        let doc achieved lat = load_doc ~workers:1 [ load_point ~achieved ~lat ] in
        let r = diff_ok ~base:(doc 990.0 100) ~current:(doc 500.0 300) () in
        check Alcotest.string "kind" "dsu-load/v1" r.Perfdiff.kind;
        let keyed =
          List.map
            (fun row -> (row.Perfdiff.key, row.Perfdiff.metric))
            r.Perfdiff.regressions
          |> List.sort compare
        in
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "throughput and both tails regressed"
          [
            ("serve rate=100000", "achieved_rate");
            ("serve rate=100000", "latency_p999_ns");
            ("serve rate=100000", "latency_p99_ns");
          ]
          keyed;
        let faster = diff_ok ~base:(doc 500.0 300) ~current:(doc 990.0 100) () in
        check Alcotest.int "all improvements the other way" 3
          (List.length faster.Perfdiff.improvements);
        (* The target keys the rows, so a Direct point never diffs
           against a Service point at the same rate. *)
        let cross =
          diff_ok ~base:(doc 990.0 100)
            ~current:(load_doc ~workers:0 [ load_point ~achieved:990.0 ~lat:100 ])
            ()
        in
        check Alcotest.int "no shared rows across targets" 0
          (List.length cross.Perfdiff.rows);
        check Alcotest.int "every row unmatched" 3
          (List.length cross.Perfdiff.only_base));
    case "drill documents diff the RTO of the scenarios that measured one"
      (fun () ->
        let doc rto =
          Json.to_string
            (Chaos.to_json
               [ drill_scenario ~rto_ns:rto Chaos.Service; drill_scenario Chaos.Dsu ])
        in
        let r = diff_ok ~base:(doc 1_000_000) ~current:(doc 5_000_000) () in
        check Alcotest.string "kind" "dsu-drill/v1" r.Perfdiff.kind;
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "one RTO row, regressed"
          [ ("drill flat/two-try/service", "rto_ns") ]
          (List.map (fun row -> (row.Perfdiff.key, row.Perfdiff.metric)) r.Perfdiff.rows);
        check Alcotest.int "regressed" 1 (List.length r.Perfdiff.regressions);
        let faster = diff_ok ~base:(doc 5_000_000) ~current:(doc 1_000_000) () in
        check Alcotest.int "improved the other way" 1
          (List.length faster.Perfdiff.improvements));
    case "disjoint keys land in only_base / only_current" (fun () ->
        let base = bechamel_doc [ ("old", 1.0); ("shared", 2.0) ] in
        let current = bechamel_doc [ ("shared", 2.0); ("new", 3.0) ] in
        let r = diff_ok ~base ~current () in
        check
          (Alcotest.list Alcotest.string)
          "only base" [ "old/ns_per_run" ] r.Perfdiff.only_base;
        check
          (Alcotest.list Alcotest.string)
          "only current" [ "new/ns_per_run" ] r.Perfdiff.only_current;
        check Alcotest.int "one shared row" 1 (List.length r.Perfdiff.rows));
    case "structural problems are errors, not crashes" (fun () ->
        let ok = bechamel_doc [ ("a", 1.0) ] in
        let scal = scalability_doc [] in
        let fails base current =
          match Perfdiff.diff_strings ~base ~current () with
          | Error _ -> true
          | Ok _ -> false
        in
        check Alcotest.bool "malformed JSON" true (fails "{ oops" ok);
        check Alcotest.bool "no metrics list" true (fails {|{"results":[]}|} ok);
        check Alcotest.bool "malformed metrics entry" true
          (fails {|{"metrics":[{"key":"a","metric":"ns_per_run"}]}|} ok);
        check Alcotest.bool "kind mismatch" true (fails ok scal);
        check Alcotest.bool "matching kinds fine" false (fails scal scal));
    case "a repeated key and metric is an error, not a silent pairing"
      (fun () ->
        let ok = bechamel_doc [ ("a", 1.0) ] in
        let dup = bechamel_doc [ ("a", 1.0); ("b", 2.0); ("a", 3.0) ] in
        List.iter
          (fun (base, current) ->
            match Perfdiff.diff_strings ~base ~current () with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "accepted a duplicate a/ns_per_run")
          [ (dup, ok); (ok, dup) ]);
    case "metrics keys are unique in every emitter's document" (fun () ->
        (* Three points that differ only in memory order must stay three
           rows: a key without the order pairs each with the first. *)
        let orders = Dsu.Memory_order.[ Seq_cst; Relaxed_reads; Acquire ] in
        let doc =
          scalability_doc
            (List.mapi
               (fun i memory_order ->
                 scalability_point ~memory_order (float_of_int (1 + (4 * i))))
               orders)
        in
        let r = diff_ok ~base:doc ~current:doc () in
        check Alcotest.int "three rows" 3 (List.length r.Perfdiff.rows);
        check Alcotest.int "distinct keys" 3
          (List.length
             (List.sort_uniq compare
                (List.map (fun row -> row.Perfdiff.key) r.Perfdiff.rows)));
        check Alcotest.int "no regressions" 0 (List.length r.Perfdiff.regressions);
        check Alcotest.int "no improvements" 0
          (List.length r.Perfdiff.improvements);
        let unique name doc =
          let ids = metric_ids doc in
          check Alcotest.bool (name ^ " has metrics") true (ids <> []);
          check Alcotest.int (name ^ " ids unique") (List.length ids)
            (List.length (List.sort_uniq compare ids))
        in
        let config = direct ~ops:50 Load.Fixed in
        let points = Load.sweep ~config ~rates:[ 20_000.0; 50_000.0 ] () in
        unique "load direct" (Load.to_json config points);
        unique "load service" (Load.to_json { config with workers = 2 } points);
        unique "drill"
          (Chaos.to_json
             (List.concat_map
                (fun layout ->
                  List.concat_map
                    (fun policy ->
                      List.map
                        (fun depth -> drill_scenario ~rto_ns:1_000 ~layout ~policy depth)
                        Chaos.[ Dsu; Snapshot; Wal; Service ])
                    Dsu.Find_policy.[ Two_try_splitting; One_try_splitting ])
                Dsu.Plan.[ Flat; Packed ]));
        unique "durability"
          (Durability.to_json
             {
               Durability.config = Durability.default_config;
               wal_off_mops = 5.0;
               wal_on_mops = 4.0;
               overhead_pct = 20.0;
               quiescent_pause_ns = 1e5;
               fuzzy_pause_ns = 1e3;
               fuzzy_scan_ns = 1e5;
               wal_appended = 10;
               wal_committed = 10;
               wal_commits = 1;
             });
        unique "connectivity"
          (Connectivity.to_json
             ~baselines:
               (List.map
                  (fun (b_name, b_gen) ->
                    {
                      Connectivity.b_name;
                      b_gen;
                      b_domains = 2;
                      b_m = 1024;
                      b_seconds = 0.1;
                      b_edges_per_sec = 1e6;
                    })
                  [ ("anderson-woll", "rmat"); ("anderson-woll", "er"); ("boruvka", "rmat") ])
             ~adversarial:
               {
                 Connectivity.a_n = 256;
                 a_ops = 1000;
                 a_unions = 500;
                 a_queries = 500;
                 a_domains = 2;
                 a_seconds = 0.1;
                 a_ops_per_sec = 1e4;
               }
             (List.concat_map
                (fun gen ->
                  List.concat_map
                    (fun sampling ->
                      List.map
                        (fun domains ->
                          connectivity_point ~gen ~sampling ~domains)
                        [ 1; 2 ])
                    [ "none"; "k-out:2" ])
                [ "rmat"; "er" ])));
    case "autotune documents diff per-plan throughput both directions"
      (fun () ->
        let fast = autotune_doc 10.0 and slow = autotune_doc 5.0 in
        (* throughput drop = regression *)
        let down = diff_ok ~base:fast ~current:slow () in
        check Alcotest.string "kind" "dsu-autotune/v1" down.Perfdiff.kind;
        (match down.Perfdiff.regressions with
        | [ row ] ->
          check Alcotest.string "key" "plan=rand:two-try:relaxed-reads:on:flat"
            row.Perfdiff.key;
          check Alcotest.string "metric" "mops_per_sec" row.Perfdiff.metric
        | _ -> Alcotest.fail "expected one regression");
        (* throughput gain = improvement, never a regression *)
        let up = diff_ok ~base:slow ~current:fast () in
        check Alcotest.int "no regressions" 0
          (List.length up.Perfdiff.regressions);
        check Alcotest.int "one improvement" 1
          (List.length up.Perfdiff.improvements));
    case "archived autotune documents pair by plan, whatever their winner"
      (fun () ->
        let plans = [ ("rand:two-try:relaxed-reads:on:flat", 9.0);
                      ("rank:one-try:relaxed-reads:on:packed", 9.2) ] in
        let base =
          archived_autotune_doc ~winner:"rank:one-try:relaxed-reads:on:packed"
            plans
        and current =
          archived_autotune_doc ~winner:"rand:two-try:relaxed-reads:on:flat"
            plans
        in
        let r = diff_ok ~base ~current () in
        check Alcotest.int "both plans compared" 2 (List.length r.Perfdiff.rows);
        check Alcotest.int "no regressions" 0
          (List.length r.Perfdiff.regressions);
        check Alcotest.int "no improvements" 0
          (List.length r.Perfdiff.improvements));
    case "archived autotune plans on one side only are unpaired, not errors"
      (fun () ->
        let winner = "rand:two-try:relaxed-reads:on:flat" in
        let base =
          archived_autotune_doc ~winner
            [ (winner, 9.0); ("rand:halving:relaxed-reads:on:flat", 8.0) ]
        and current =
          archived_autotune_doc ~winner
            [ (winner, 9.0); ("rank:two-try:relaxed-reads:on:packed", 8.5) ]
        in
        let r = diff_ok ~base ~current () in
        check Alcotest.int "the shared plan compared" 1
          (List.length r.Perfdiff.rows);
        check
          (Alcotest.list Alcotest.string)
          "only base"
          [ "plan=rand:halving:relaxed-reads:on:flat/mops_per_sec" ]
          r.Perfdiff.only_base;
        check
          (Alcotest.list Alcotest.string)
          "only current"
          [ "plan=rank:two-try:relaxed-reads:on:packed/mops_per_sec" ]
          r.Perfdiff.only_current);
    case "an archived autotune document against a sweep is a kind mismatch"
      (fun () ->
        let archived = autotune_doc 10.0
        and sweep = scalability_doc [ scalability_point 10.0 ] in
        List.iter
          (fun (base, current) ->
            match Perfdiff.diff_strings ~base ~current () with
            | Error e ->
              check Alcotest.bool "names the mismatch" true
                (String.starts_with ~prefix:"kind mismatch" e)
            | Ok _ -> Alcotest.fail "paired dsu-autotune/v1 with a sweep")
          [ (archived, sweep); (sweep, archived) ]);
    case "a delta exactly at the threshold is not flagged" (fun () ->
        let base = bechamel_doc [ ("a", 100.0); ("b", 100.0) ] in
        let current = bechamel_doc [ ("a", 150.0); ("b", 50.0) ] in
        let at = diff_ok ~threshold_pct:50.0 ~base ~current () in
        check Alcotest.int "no regression at +50%" 0
          (List.length at.Perfdiff.regressions);
        check Alcotest.int "no improvement at -50%" 0
          (List.length at.Perfdiff.improvements);
        let under = diff_ok ~threshold_pct:49.0 ~base ~current () in
        check Alcotest.int "regression past 49%" 1
          (List.length under.Perfdiff.regressions);
        check Alcotest.int "improvement past 49%" 1
          (List.length under.Perfdiff.improvements));
    case "a non-finite threshold is an error, not a silent pass" (fun () ->
        let base = bechamel_doc [ ("a", 100.0) ] in
        let current = bechamel_doc [ ("a", 10_000.0) ] in
        List.iter
          (fun threshold_pct ->
            match Perfdiff.diff_strings ~threshold_pct ~base ~current () with
            | Error _ -> ()
            | Ok _ ->
              Alcotest.fail
                (Printf.sprintf "accepted threshold %g" threshold_pct))
          [ Float.nan; Float.infinity; Float.neg_infinity ]);
    case "a negative threshold is an error, not a flag on every row"
      (fun () ->
        (* Under a negative threshold an unchanged row would be both a
           regression and an improvement. *)
        let doc = bechamel_doc [ ("a", 100.0); ("b", 50.0) ] in
        List.iter
          (fun threshold_pct ->
            match Perfdiff.diff_strings ~threshold_pct ~base:doc ~current:doc () with
            | Error e ->
              check Alcotest.string "message"
                (Printf.sprintf "threshold %g is negative" threshold_pct)
                e
            | Ok _ ->
              Alcotest.fail
                (Printf.sprintf "accepted threshold %g" threshold_pct))
          [ -1.0; -0.5; -1000.0 ];
        let zero = diff_ok ~threshold_pct:0.0 ~base:doc ~current:doc () in
        check Alcotest.int "zero threshold: unchanged rows unflagged" 0
          (List.length zero.Perfdiff.regressions
          + List.length zero.Perfdiff.improvements));
    case "a null metrics value is an error, not a silent pairing" (fun () ->
        let ok = bechamel_doc [ ("a", 1.0) ] in
        let null =
          {|{"metrics":[{"key":"a","metric":"ns_per_run","dir":"lower-better","value":null}]}|}
        in
        List.iter
          (fun (base, current) ->
            match Perfdiff.diff_strings ~base ~current () with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "paired a null value")
          [ (null, ok); (ok, null) ]);
    case "dsu-perfdiff/v1 carries exactly its documented fields" (fun () ->
        let doc = bechamel_doc [ ("a", 100.0) ] in
        let r = diff_ok ~base:doc ~current:doc () in
        match Perfdiff.to_json r with
        | Json.Obj fields ->
          check
            (Alcotest.list Alcotest.string)
            "fields"
            [ "schema"; "kind"; "threshold_pct"; "compared"; "regressions";
              "improvements"; "only_baseline"; "only_current" ]
            (List.map fst fields)
        | _ -> Alcotest.fail "dsu-perfdiff/v1 is not an object");
    case "report serializes as dsu-perfdiff/v1" (fun () ->
        let base = bechamel_doc [ ("a", 100.0) ] in
        let current = bechamel_doc [ ("a", 200.0) ] in
        let r = diff_ok ~base ~current () in
        let j = Json.parse_exn (Json.to_string (Perfdiff.to_json r)) in
        check Alcotest.bool "schema" true
          (Json.member "schema" j = Some (Json.String "dsu-perfdiff/v1"));
        check Alcotest.bool "compared" true
          (Json.member "compared" j = Some (Json.Int 1));
        match Json.member "regressions" j with
        | Some (Json.List [ row ]) ->
          check (Alcotest.option (Alcotest.float 1e-9)) "delta serialized"
            (Some 100.0)
            (json_num (Json.member "delta_pct" row))
        | _ -> Alcotest.fail "expected one serialized regression");
  ]

module Closed_loop = Harness.Closed_loop

(* Poll [cond] for up to 5 s; a runner that serialized its workers and
   [during] would otherwise hang the suite instead of failing it. *)
let await cond =
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  cond ()

let closed_loop_tests =
  let bucket len = Array.make len (Workload.Op.Find 0) in
  [
    case "a raising worker fails its own slot; every domain is joined" (fun () ->
        let finished = Atomic.make 0 in
        let apply b =
          if Array.length b = 1 then failwith "boom";
          (* finish well after the failing worker, so a runner that
             stopped joining at the failure would return too early *)
          Unix.sleepf 0.05;
          ignore (Atomic.fetch_and_add finished (Array.length b))
        in
        let r = Closed_loop.run ~apply [| bucket 2; bucket 1; bucket 3 |] in
        check
          Alcotest.(list (pair int string))
          "failures" [ (1, "Failure(\"boom\")") ] r.Closed_loop.failures;
        check Alcotest.int "others finished" 5 (Atomic.get finished));
    case "~during runs while the workers run; its value is returned" (fun () ->
        let started = Atomic.make 0 and released = Atomic.make false in
        let apply _ =
          Atomic.incr started;
          if not (await (fun () -> Atomic.get released)) then
            failwith "never released"
        in
        let r =
          Closed_loop.run ~apply [| bucket 1; bucket 1 |] ~during:(fun () ->
              let both = await (fun () -> Atomic.get started = 2) in
              Atomic.set released true;
              both)
        in
        check Alcotest.(option bool) "during saw both workers" (Some true)
          r.Closed_loop.during;
        check Alcotest.(list (pair int string)) "no failures" []
          r.Closed_loop.failures);
    case "ops/s counts every op of every bucket" (fun () ->
        let gen =
          Closed_loop.gen_ops ~n:64 ~unite_percent:30 ~seed:5 ~domains:2
            ~ops_per_domain:100 ()
        in
        let applied = Atomic.make 0 in
        let apply b = ignore (Atomic.fetch_and_add applied (Array.length b)) in
        let r =
          Closed_loop.run ~apply [| gen.(0); gen.(1); [||]; Array.sub gen.(0) 0 7 |]
        in
        check Alcotest.int "applied" 207 (Atomic.get applied);
        check Alcotest.int "ops" 207 r.Closed_loop.ops;
        check (Alcotest.float 1e-9) "ops/s" (207. /. r.Closed_loop.seconds)
          r.Closed_loop.ops_per_sec);
  ]

let () =
  Alcotest.run "harness"
    [
      ("forest", forest_tests);
      ("measure", measure_tests);
      ("registry", registry_tests);
      ("latency", latency_tests);
      ("perfdiff", perfdiff_tests);
      ("closed_loop", closed_loop_tests);
    ]
