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

(* ------------------------------------------------------------- latency *)

module Latency = Harness.Latency
module Perfdiff = Harness.Perfdiff
module Json = Repro_obs.Json

(* Integral floats serialize as "100" and parse back as [Json.Int]. *)
let json_num = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let latency_tests =
  [
    case "shape strings round-trip" (fun () ->
        List.iter
          (fun (s, shape) ->
            check Alcotest.bool s true (Latency.shape_of_string s = Some shape);
            check Alcotest.string "to_string" s
              (Latency.shape_to_string shape))
          [
            ("fixed", Latency.Fixed);
            ("poisson", Latency.Poisson);
            ("bursty:4", Latency.Bursty 4);
          ];
        check Alcotest.bool "bare bursty defaults" true
          (Latency.shape_of_string "bursty" = Some (Latency.Bursty 16));
        check Alcotest.bool "zero burst rejected" true
          (Latency.shape_of_string "bursty:0" = None);
        check Alcotest.bool "junk rejected" true
          (Latency.shape_of_string "open-loop" = None));
    case "run_point validates its arguments" (fun () ->
        let config = Latency.default_config in
        check Alcotest.bool "rate 0 rejected" true
          (try
             ignore (Latency.run_point ~config ~rate:0.0 ());
             false
           with Invalid_argument _ -> true);
        check Alcotest.bool "0 domains rejected" true
          (try
             ignore
               (Latency.run_point ~config:{ config with domains = 0 }
                  ~rate:1000.0 ());
             false
           with Invalid_argument _ -> true));
    case "a modest fixed-rate point completes and keeps its books" (fun () ->
        let config =
          {
            Latency.default_config with
            n = 256;
            domains = 1;
            ops = 400;
            shape = Latency.Fixed;
            reservoir = 64;
          }
        in
        let p = Latency.run_point ~config ~rate:20_000.0 () in
        check Alcotest.int "every op completed" p.Latency.target_ops
          p.Latency.completed_ops;
        check Alcotest.int "latency count" 400 p.Latency.latency.Repro_obs.Hdr.count;
        check Alcotest.int "service count" 400 p.Latency.service.Repro_obs.Hdr.count;
        check Alcotest.bool "duration positive" true (p.Latency.duration_s > 0.);
        check Alcotest.int "reservoir capped" 64
          (Array.length p.Latency.samples);
        let sorted = Array.copy p.Latency.samples in
        Array.sort compare sorted;
        check Alcotest.(array int) "samples sorted" sorted p.Latency.samples;
        (* Open-loop latency includes the wait for the slot, so it
           dominates pure service time everywhere. *)
        check Alcotest.bool "latency p99 >= service p99" true
          (Repro_obs.Hdr.quantile p.Latency.latency 0.99
          >= Repro_obs.Hdr.quantile p.Latency.service 0.99));
    case "bursty arrivals run to completion" (fun () ->
        let config =
          {
            Latency.default_config with
            n = 128;
            domains = 1;
            ops = 200;
            shape = Latency.Bursty 8;
            reservoir = 32;
          }
        in
        let p = Latency.run_point ~config ~rate:50_000.0 () in
        check Alcotest.int "completed" 200 p.Latency.completed_ops);
    case "open-loop accounting exposes the stall closed-loop hides"
      (fun () ->
        (* One generator at 50k ops/s; the server freezes for 20ms mid-run.
           Intended-start accounting bills the ~1000 queued arrivals for
           their wait, so the open-loop tail explodes; service time
           (completion - actual start: what a closed-loop harness reports)
           stays flat except for the one stalled call.  This asymmetry IS
           coordinated omission. *)
        let stall_ns = 20_000_000 in
        let config =
          {
            Latency.default_config with
            n = 1024;
            domains = 1;
            ops = 3_000;
            shape = Latency.Fixed;
            reservoir = 128;
          }
        in
        let stall ~domain:_ ~index = if index = 1_500 then stall_ns else 0 in
        let p = Latency.run_point ~stall ~config ~rate:50_000.0 () in
        let lat_p999 = Repro_obs.Hdr.quantile p.Latency.latency 0.999 in
        let srv_p999 = Repro_obs.Hdr.quantile p.Latency.service 0.999 in
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
          (p.Latency.service.Repro_obs.Hdr.max >= stall_ns);
        check Alcotest.bool "scheduling lag recorded" true
          (p.Latency.max_lag_ns >= stall_ns / 4));
    case "sweep locates the saturation knee" (fun () ->
        let config =
          {
            Latency.default_config with
            n = 256;
            domains = 1;
            ops = 400;
            shape = Latency.Fixed;
            reservoir = 32;
          }
        in
        (* 20k/s is trivially sustainable; 50M/s is beyond any single
           domain (the op itself costs more than 20ns). *)
        let points =
          Latency.sweep ~config ~rates:[ 20_000.0; 50_000_000.0 ] ()
        in
        (match points with
        | [ easy; impossible ] ->
          check Alcotest.bool "low rate keeps up" false easy.Latency.saturated;
          check Alcotest.bool "high rate saturates" true
            impossible.Latency.saturated
        | _ -> Alcotest.fail "expected two points");
        check Alcotest.bool "knee is the sustainable rate" true
          (Latency.knee points = Some 20_000.0);
        check Alcotest.bool "all saturated means no knee" true
          (Latency.knee
             (List.filter (fun p -> p.Latency.saturated) points)
          = None);
        (* The dsu-latency/v1 document round-trips through the parser. *)
        let j =
          Json.parse_exn (Json.to_string (Latency.to_json config points))
        in
        check Alcotest.bool "schema" true
          (Json.member "schema" j = Some (Json.String "dsu-latency/v1"));
        (match Json.member "points" j with
        | Some (Json.List [ p1; _ ]) ->
          (match Json.member "latency" p1 with
          | Some lat ->
            List.iter
              (fun key ->
                check Alcotest.bool (key ^ " present") true
                  (Json.member key lat <> None))
              [ "count"; "mean_ns"; "min_ns"; "p50_ns"; "p99_ns"; "p999_ns";
                "max_ns" ]
          | None -> Alcotest.fail "latency object missing");
          check Alcotest.bool "exact samples exported" true
            (match Json.member "samples_ns" p1 with
            | Some (Json.List l) -> List.length l > 0
            | _ -> false)
        | _ -> Alcotest.fail "expected two JSON points");
        check (Alcotest.option (Alcotest.float 1e-9)) "knee exported"
          (Some 20_000.0)
          (json_num (Json.member "knee_rate" j)));
  ]

(* ------------------------------------------------------------ perfdiff *)

let bechamel_doc entries =
  Printf.sprintf {|{"results":[%s]}|}
    (String.concat ","
       (List.map
          (fun (name, ns) ->
            Printf.sprintf {|{"name":"%s","ns_per_run":%f}|} name ns)
          entries))

let latency_doc points =
  Printf.sprintf {|{"schema":"dsu-latency/v1","points":[%s]}|}
    (String.concat ","
       (List.map
          (fun (rate, achieved, p99, p999) ->
            Printf.sprintf
              {|{"offered_rate":%f,"achieved_rate":%f,"latency":{"p99_ns":%d,"p999_ns":%d}}|}
              rate achieved p99 p999)
          points))

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
        let doc mops =
          Printf.sprintf
            {|{"schema":"dsu-scalability/v1","points":[{"layout":"native","domains":4,"mops_per_sec":%f}]}|}
            mops
        in
        let r = diff_ok ~base:(doc 10.0) ~current:(doc 5.0) () in
        check Alcotest.bool "kind" true
          (String.length r.Perfdiff.kind >= 15
          && String.sub r.Perfdiff.kind 0 15 = "dsu-scalability");
        (match r.Perfdiff.regressions with
        | [ row ] ->
          check Alcotest.string "metric" "mops_per_sec" row.Perfdiff.metric;
          check Alcotest.bool "keyed by configuration" true
            (row.Perfdiff.key = "layout=native domains=4")
        | _ -> Alcotest.fail "expected one regression");
        let up = diff_ok ~base:(doc 5.0) ~current:(doc 10.0) () in
        check Alcotest.int "improvement the other way" 1
          (List.length up.Perfdiff.improvements));
    case "latency documents diff quantiles and achieved rate" (fun () ->
        let base = latency_doc [ (1000.0, 990.0, 100, 200) ] in
        let current = latency_doc [ (1000.0, 500.0, 300, 600) ] in
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
            check Alcotest.string "key is the offered rate" "rate=1000"
              row.Perfdiff.key)
          r.Perfdiff.regressions);
    case "service documents diff throughput and tails" (fun () ->
        let doc achieved p99 =
          Printf.sprintf
            {|{"schema":"dsu-service/v1","points":[{"offered_rate":1000.0,"achieved_rate":%f,"latency":{"p99_ns":%d,"p999_ns":%d}}]}|}
            achieved p99 (2 * p99)
        in
        let r = diff_ok ~base:(doc 990.0 100) ~current:(doc 500.0 300) () in
        check Alcotest.string "kind" "dsu-service/v1" r.Perfdiff.kind;
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
            ("serve rate=1000", "achieved_rate");
            ("serve rate=1000", "latency_p999_ns");
            ("serve rate=1000", "latency_p99_ns");
          ]
          keyed;
        let faster = diff_ok ~base:(doc 500.0 300) ~current:(doc 990.0 100) () in
        check Alcotest.int "all improvements the other way" 3
          (List.length faster.Perfdiff.improvements));
    case "drill documents diff the RTO of the scenarios that measured one"
      (fun () ->
        let doc rto =
          Printf.sprintf
            {|{"schema":"dsu-drill/v1","scenarios":[{"layout":"flat","policy":"two-try","depth":"service","rto_ns":%d},{"layout":"flat","policy":"two-try","depth":"dsu","rto_ns":null}]}|}
            rto
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
        let scal =
          {|{"schema":"dsu-scalability/v1","points":[]}|}
        in
        let fails base current =
          match Perfdiff.diff_strings ~base ~current () with
          | Error _ -> true
          | Ok _ -> false
        in
        check Alcotest.bool "malformed JSON" true (fails "{ oops" ok);
        check Alcotest.bool "unrecognized document" true (fails "{}" ok);
        check Alcotest.bool "kind mismatch" true (fails ok scal);
        check Alcotest.bool "matching kinds fine" false (fails scal scal));
    case "autotune documents diff per-plan throughput both directions"
      (fun () ->
        let doc winner plans =
          Printf.sprintf
            {|{"schema":"dsu-autotune/v1","winner":"%s","measurements":[%s]}|}
            winner
            (String.concat ","
               (List.map
                  (fun (plan, mops) ->
                    Printf.sprintf
                      {|{"plan":"%s","mops_per_sec":%f,"failures":0}|} plan
                      mops)
                  plans))
        in
        let fast = doc "rand:two-try:relaxed-reads:on:flat"
            [ ("rand:two-try:relaxed-reads:on:flat", 10.0) ]
        and slow = doc "rand:two-try:relaxed-reads:on:flat"
            [ ("rand:two-try:relaxed-reads:on:flat", 5.0) ]
        in
        (* throughput drop = regression *)
        let down = diff_ok ~base:fast ~current:slow () in
        check Alcotest.string "kind" "dsu-autotune/v1" down.Perfdiff.kind;
        (match down.Perfdiff.regressions with
        | [ row ] ->
          check Alcotest.string "key"
            "plan=rand:two-try:relaxed-reads:on:flat" row.Perfdiff.key;
          check Alcotest.string "metric" "mops_per_sec" row.Perfdiff.metric
        | _ -> Alcotest.fail "expected one regression");
        check Alcotest.int "no warning when the winner is unchanged" 0
          (List.length down.Perfdiff.warnings);
        (* throughput gain = improvement, never a regression *)
        let up = diff_ok ~base:slow ~current:fast () in
        check Alcotest.int "no regressions" 0
          (List.length up.Perfdiff.regressions);
        check Alcotest.int "one improvement" 1
          (List.length up.Perfdiff.improvements));
    case "autotune winner change is a warning, not a structural error"
      (fun () ->
        let doc winner =
          Printf.sprintf
            {|{"schema":"dsu-autotune/v1","winner":"%s","measurements":[{"plan":"%s","mops_per_sec":7.0,"failures":0}]}|}
            winner winner
        in
        let base = doc "rand:two-try:relaxed-reads:on:flat" in
        let current = doc "rank:halving:relaxed-reads:on:packed" in
        let r = diff_ok ~base ~current () in
        (match r.Perfdiff.warnings with
        | [ w ] ->
          check Alcotest.bool "warning names both plans" true
            (let has needle =
               let nl = String.length needle and hl = String.length w in
               let rec at i =
                 i + nl <= hl && (String.sub w i nl = needle || at (i + 1))
               in
               nl = 0 || at 0
             in
             has "rand:two-try:relaxed-reads:on:flat"
             && has "rank:halving:relaxed-reads:on:packed")
        | ws ->
          Alcotest.fail
            (Printf.sprintf "expected exactly one warning, got %d"
               (List.length ws)));
        (* the changed winner keys don't match, so no rows compare — but
           that is only_base/only_current traffic, not an Error *)
        let j = Json.parse_exn (Json.to_string (Perfdiff.to_json r)) in
        match Json.member "warnings" j with
        | Some (Json.List [ Json.String _ ]) -> ()
        | _ -> Alcotest.fail "warnings missing from dsu-perfdiff/v1 JSON");
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

(* ------------------------------------------------------------ autotune *)

module Autotune = Harness.Autotune

(* A tiny but real profile: every autotune test below actually times
   plans, so keep the sweep to two plans over a few thousand ops. *)
let tiny_profile =
  {
    Autotune.n = 256;
    domains = 1;
    unite_percent = 50;
    dist = Harness.Scalability.Uniform;
    total_ops = 2_000;
    seed = 3;
  }

let packed_plan =
  {
    Dsu.Plan.default with
    Dsu.Plan.linking = Dsu.Plan.By_rank;
    layout = Dsu.Plan.Packed;
  }

let in_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dsu-autotune-test-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let autotune_tests =
  [
    case "fingerprint is deterministic and field-sensitive" (fun () ->
        check Alcotest.string "stable" "n256-d1-u50-uniform-ops2000-s3"
          (Autotune.fingerprint tiny_profile);
        check Alcotest.bool "n changes it" true
          (Autotune.fingerprint { tiny_profile with Autotune.n = 512 }
          <> Autotune.fingerprint tiny_profile));
    case "run measures every plan and picks the fastest" (fun () ->
        let r =
          Autotune.run ~plans:[ Dsu.Plan.default; packed_plan ]
            ~profile:tiny_profile ()
        in
        check Alcotest.int "both plans measured" 2
          (List.length r.Autotune.measurements);
        check Alcotest.bool "winner was measured" true
          (List.exists
             (fun m -> Dsu.Plan.equal m.Autotune.plan r.Autotune.winner)
             r.Autotune.measurements);
        check Alcotest.bool "winner is the max" true
          (List.for_all
             (fun m -> m.Autotune.mops_per_sec <= r.Autotune.winner_mops)
             r.Autotune.measurements);
        check Alcotest.bool "margins non-negative" true
          (r.Autotune.margin_over_runner_up_pct >= 0.
          && r.Autotune.margin_over_default_pct >= 0.));
    case "the default plan is force-included" (fun () ->
        let r = Autotune.run ~plans:[ packed_plan ] ~profile:tiny_profile () in
        check Alcotest.bool "default measured" true
          (List.exists
             (fun m -> Dsu.Plan.equal m.Autotune.plan Dsu.Plan.default)
             r.Autotune.measurements));
    case "dsu-autotune/v1 JSON round-trips" (fun () ->
        let r =
          Autotune.run ~plans:[ Dsu.Plan.default; packed_plan ]
            ~profile:tiny_profile ()
        in
        let j = Json.to_string (Autotune.to_json r) in
        match Autotune.of_json_string j with
        | Error e -> Alcotest.fail e
        | Ok r' ->
          check Alcotest.bool "winner survives" true
            (Dsu.Plan.equal r.Autotune.winner r'.Autotune.winner);
          check Alcotest.string "fingerprint survives"
            (Autotune.fingerprint r.Autotune.profile)
            (Autotune.fingerprint r'.Autotune.profile);
          check Alcotest.int "measurements survive"
            (List.length r.Autotune.measurements)
            (List.length r'.Autotune.measurements));
    case "decoder rejects wrong schema and junk" (fun () ->
        (match Autotune.of_json_string {|{"schema":"dsu-latency/v1"}|} with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a wrong schema");
        match Autotune.of_json_string "{ nope" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted malformed JSON");
    case "auto caches by fingerprint; corrupt cache is a miss" (fun () ->
        in_temp_dir (fun dir ->
            let r1, src1 =
              Autotune.auto ~plans:[ Dsu.Plan.default ] ~cache_dir:dir
                ~profile:tiny_profile ()
            in
            check Alcotest.bool "first run measures" true (src1 = `Measured);
            let _, src2 =
              Autotune.auto ~plans:[ Dsu.Plan.default ] ~cache_dir:dir
                ~profile:tiny_profile ()
            in
            check Alcotest.bool "second run hits" true (src2 = `Cached);
            (match Autotune.load_cached ~dir tiny_profile with
            | Some r ->
              check Alcotest.bool "cache round-trips winner" true
                (Dsu.Plan.equal r.Autotune.winner r1.Autotune.winner)
            | None -> Alcotest.fail "cache entry unreadable");
            (* a different profile misses *)
            check Alcotest.bool "other profile misses" true
              (Autotune.load_cached ~dir
                 { tiny_profile with Autotune.seed = 99 }
              = None);
            (* truncate the entry: decode fails, treated as a miss *)
            let path = Autotune.cache_path ~dir tiny_profile in
            let oc = open_out path in
            output_string oc "{ definitely not json";
            close_out oc;
            check Alcotest.bool "corrupt entry is a miss" true
              (Autotune.load_cached ~dir tiny_profile = None)));
  ]

let () =
  Alcotest.run "harness"
    [
      ("forest", forest_tests);
      ("measure", measure_tests);
      ("registry", registry_tests);
      ("latency", latency_tests);
      ("perfdiff", perfdiff_tests);
      ("autotune", autotune_tests);
    ]
