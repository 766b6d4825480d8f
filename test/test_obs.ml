(* Unit tests for the telemetry subsystem (lib/obs): registry merging
   across real domains, histogram buckets and quantiles, trace-ring
   wraparound and drop counting, exporter output well-formedness, and the
   Dsu_stats JSON bridge. *)

module Metrics = Repro_obs.Metrics
module Trace = Repro_obs.Trace
module Export = Repro_obs.Export
module Json = Repro_obs.Json
module Hdr = Repro_obs.Hdr
module Reservoir = Repro_obs.Reservoir

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let contains_sub text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

(* Every test arms telemetry for its own duration; the flags are global,
   so restore them no matter how the test exits. *)
let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

let with_trace f =
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

(* ------------------------------------------------------------- metrics *)

let counter_value_of snap name =
  match
    List.find_opt (fun (s : Metrics.sample) -> s.name = name) snap
  with
  | Some { value = Metrics.Counter_v v; _ } -> Some v
  | _ -> None

let metrics_tests =
  [
    case "counter merge across 4 domains equals sequential total" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let c = Metrics.counter ~registry:r "test_merge_total" in
            let per_domain = 25_000 in
            let workers =
              List.init 4 (fun _ ->
                  Domain.spawn (fun () ->
                      for _ = 1 to per_domain do
                        Metrics.incr c
                      done))
            in
            List.iter Domain.join workers;
            check Alcotest.int "merged total" (4 * per_domain)
              (Metrics.counter_value c)));
    case "histogram merge across 4 domains" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let h = Metrics.histogram ~registry:r "test_merge_hist" in
            let per_domain = 10_000 in
            let workers =
              List.init 4 (fun k ->
                  Domain.spawn (fun () ->
                      for i = 1 to per_domain do
                        Metrics.observe h ((i mod 7) + k)
                      done))
            in
            List.iter Domain.join workers;
            let snap = Metrics.hist_value h in
            check Alcotest.int "count" (4 * per_domain) snap.Metrics.count;
            let bucket_total =
              List.fold_left (fun acc (_, c) -> acc + c) 0 snap.Metrics.buckets
            in
            check Alcotest.int "buckets cover every sample" (4 * per_domain)
              bucket_total));
    case "counter registration is idempotent, kind mismatch rejected"
      (fun () ->
        let r = Metrics.create () in
        let a = Metrics.counter ~registry:r "test_idem" in
        let b = Metrics.counter ~registry:r "test_idem" in
        with_metrics (fun () ->
            Metrics.incr a;
            Metrics.incr b);
        check Alcotest.int "same instrument" 2 (Metrics.counter_value a);
        check Alcotest.bool "kind mismatch raises" true
          (try
             ignore (Metrics.gauge ~registry:r "test_idem");
             false
           with Invalid_argument _ -> true));
    case "updates are no-ops while disabled" (fun () ->
        let r = Metrics.create () in
        let c = Metrics.counter ~registry:r "test_disabled" in
        Metrics.incr c;
        Metrics.add c 10;
        check Alcotest.int "still zero" 0 (Metrics.counter_value c));
    case "histogram bucket boundaries are powers of two" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let h = Metrics.histogram ~registry:r "test_buckets" in
            List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 7; 8 ];
            let snap = Metrics.hist_value h in
            check
              (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
              "buckets"
              [ (0, 1); (1, 1); (3, 2); (7, 2); (15, 1) ]
              snap.Metrics.buckets;
            check Alcotest.int "sum" 25 snap.Metrics.sum;
            check Alcotest.int "max" 8 snap.Metrics.max));
    case "quantiles: empty histogram" (fun () ->
        let r = Metrics.create () in
        let h = Metrics.histogram ~registry:r "test_q_empty" in
        let snap = Metrics.hist_value h in
        check Alcotest.int "count" 0 snap.Metrics.count;
        check Alcotest.int "p50" 0 (Metrics.quantile snap 0.5);
        check Alcotest.int "p99" 0 (Metrics.quantile snap 0.99));
    case "quantiles: single sample is exact" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let h = Metrics.histogram ~registry:r "test_q_single" in
            Metrics.observe h 37;
            let snap = Metrics.hist_value h in
            check Alcotest.int "p50" 37 (Metrics.quantile snap 0.5);
            check Alcotest.int "p99" 37 (Metrics.quantile snap 0.99);
            check Alcotest.int "max" 37 snap.Metrics.max));
    case "quantiles are monotone and bounded by max" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let h = Metrics.histogram ~registry:r "test_q_mono" in
            for i = 1 to 1000 do
              Metrics.observe h i
            done;
            let snap = Metrics.hist_value h in
            let p50 = Metrics.quantile snap 0.5 in
            let p90 = Metrics.quantile snap 0.9 in
            let p99 = Metrics.quantile snap 0.99 in
            check Alcotest.bool "p50 <= p90" true (p50 <= p90);
            check Alcotest.bool "p90 <= p99" true (p90 <= p99);
            check Alcotest.bool "p99 <= max" true (p99 <= snap.Metrics.max);
            (* The estimate overshoots by at most the bucket width. *)
            check Alcotest.bool "p50 within a bucket of truth" true
              (p50 >= 500 && p50 <= 1023)));
    case "negative samples clamp to zero" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let h = Metrics.histogram ~registry:r "test_q_neg" in
            Metrics.observe h (-5);
            let snap = Metrics.hist_value h in
            check Alcotest.int "count" 1 snap.Metrics.count;
            check Alcotest.int "sum" 0 snap.Metrics.sum));
    case "reset zeroes every instrument" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let c = Metrics.counter ~registry:r "test_reset_c" in
            let h = Metrics.histogram ~registry:r "test_reset_h" in
            Metrics.incr c;
            Metrics.observe h 9;
            Metrics.reset ~registry:r ();
            check Alcotest.int "counter" 0 (Metrics.counter_value c);
            check Alcotest.int "hist count" 0 (Metrics.hist_value h).Metrics.count));
  ]

(* ----------------------------------------------------------------- hdr *)

(* Deterministic Lehmer generator for test sample streams. *)
let lcg seed =
  let state = ref (if seed <= 0 then 1 else seed) in
  fun () ->
    state := !state * 48271 mod 0x7FFFFFFF;
    !state

(* Wide-dynamic-range values: 1 ns .. ~2^28 ns, log-uniform-ish. *)
let wide_sample next () = 1 + (next () mod (1 lsl (8 + (next () mod 20))))

let hdr_tests =
  [
    case "bucket bounds respect the advertised relative error" (fun () ->
        let vals =
          [ 0; 1; 2; 100; 255; 256; 257; 511; 512; 1000; 65_535; 65_536;
            999_999_937; Hdr.max_trackable ]
        in
        List.iter
          (fun v ->
            let upper = Hdr.bucket_upper (Hdr.bucket_of v) in
            check Alcotest.bool
              (Printf.sprintf "upper %d covers %d" upper v)
              true (upper >= v);
            if v > 0 then
              check Alcotest.bool
                (Printf.sprintf "relative error at %d" v)
                true
                (float_of_int (upper - v) /. float_of_int v <= Hdr.rel_error);
            if v < 256 then
              check Alcotest.int
                (Printf.sprintf "exact below 256 at %d" v)
                v upper)
          vals;
        (* bucket_of and bucket_upper are inverse on bucket bounds *)
        List.iter
          (fun b ->
            check Alcotest.int
              (Printf.sprintf "bucket %d round-trips" b)
              b
              (Hdr.bucket_of (Hdr.bucket_upper b)))
          [ 0; 1; 255; 256; 1000; 2000; Hdr.n_buckets - 1 ]);
    case "quantiles within 1% of exact over 10^5 samples" (fun () ->
        let n = 100_000 in
        let next = lcg 20260809 in
        let sample = wide_sample next in
        let h = Hdr.create () in
        Hdr.materialize h;
        let samples = Array.init n (fun _ -> sample ()) in
        Array.iter (Hdr.observe h) samples;
        let s = Hdr.snap h in
        let sorted = Array.copy samples in
        Array.sort compare sorted;
        check Alcotest.int "count" n s.Hdr.count;
        check Alcotest.int "sum" (Array.fold_left ( + ) 0 samples) s.Hdr.sum;
        check Alcotest.int "min" sorted.(0) s.Hdr.min;
        check Alcotest.int "max" sorted.(n - 1) s.Hdr.max;
        List.iter
          (fun q ->
            let exact = Reservoir.exact_quantile sorted q in
            let est = Hdr.quantile s q in
            check Alcotest.bool
              (Printf.sprintf "q%.3f estimate >= exact" q)
              true (est >= exact);
            check Alcotest.bool
              (Printf.sprintf "q%.3f within 1%% (est %d exact %d)" q est exact)
              true
              (float_of_int est <= float_of_int exact *. 1.01))
          [ 0.5; 0.9; 0.99; 0.999 ];
        check Alcotest.int "q1.0 is the exact max" sorted.(n - 1)
          (Hdr.quantile s 1.0));
    case "single sample is exact at every quantile" (fun () ->
        let h = Hdr.create ~sharded:false () in
        Hdr.materialize h;
        Hdr.observe h 123_456;
        let s = Hdr.snap h in
        check Alcotest.int "count" 1 s.Hdr.count;
        List.iter
          (fun q ->
            check Alcotest.int
              (Printf.sprintf "q%.3f" q)
              123_456 (Hdr.quantile s q))
          [ 0.0; 0.5; 0.999; 1.0 ];
        check (Alcotest.float 1e-9) "mean" 123_456.0 (Hdr.mean s));
    case "empty snapshot" (fun () ->
        let h = Hdr.create ~sharded:false () in
        Hdr.materialize h;
        let s = Hdr.snap h in
        check Alcotest.int "count" 0 s.Hdr.count;
        check Alcotest.int "quantile" 0 (Hdr.quantile s 0.99);
        check (Alcotest.float 1e-9) "mean" 0.0 (Hdr.mean s);
        check Alcotest.bool "empty constant" true (s = Hdr.empty));
    case "observe drops until materialized; clamps out-of-range" (fun () ->
        let h = Hdr.create ~sharded:false () in
        Hdr.observe h 5;
        check Alcotest.bool "not materialized" false (Hdr.materialized h);
        check Alcotest.int "dropped" 0 (Hdr.snap h).Hdr.count;
        Hdr.materialize h;
        Hdr.observe h (-7);
        Hdr.observe h max_int;
        let s = Hdr.snap h in
        check Alcotest.int "count" 2 s.Hdr.count;
        check Alcotest.int "negative clamps to 0" 0 s.Hdr.min;
        check Alcotest.int "oversized clamps to max_trackable"
          Hdr.max_trackable s.Hdr.max;
        Hdr.reset h;
        check Alcotest.int "reset zeroes" 0 (Hdr.snap h).Hdr.count);
    case "merge is order-independent and equals one histogram" (fun () ->
        (* Four single-writer recorders fed from domains, one reference
           recorder fed the same streams sequentially. *)
        let stream k =
          let next = lcg (7 * (k + 1)) in
          Array.init 25_000 (fun _ -> wide_sample next ())
        in
        let streams = List.init 4 stream in
        let parts =
          List.map
            (fun samples ->
              Domain.spawn (fun () ->
                  let h = Hdr.create ~sharded:false () in
                  Hdr.materialize h;
                  Array.iter (Hdr.observe h) samples;
                  Hdr.snap h))
            streams
          |> List.map Domain.join
        in
        let reference = Hdr.create ~sharded:false () in
        Hdr.materialize reference;
        List.iter (Array.iter (Hdr.observe reference)) streams;
        let fwd = List.fold_left Hdr.merge Hdr.empty parts in
        let rev = List.fold_left Hdr.merge Hdr.empty (List.rev parts) in
        check Alcotest.bool "forward merge = reverse merge" true (fwd = rev);
        check Alcotest.bool "merge = single histogram" true
          (fwd = Hdr.snap reference);
        check Alcotest.int "count" 100_000 fwd.Hdr.count);
    case "sharded recorder merges 4 concurrent domains" (fun () ->
        let h = Hdr.create () in
        Hdr.materialize h;
        let per_domain = 10_000 in
        let workers =
          List.init 4 (fun k ->
              Domain.spawn (fun () ->
                  for i = 1 to per_domain do
                    Hdr.observe h ((i mod 1000) + k)
                  done))
        in
        List.iter Domain.join workers;
        let s = Hdr.snap h in
        check Alcotest.int "count" (4 * per_domain) s.Hdr.count;
        let bucket_total =
          List.fold_left (fun acc (_, c) -> acc + c) 0 s.Hdr.buckets
        in
        check Alcotest.int "buckets cover every sample" (4 * per_domain)
          bucket_total);
    case "registry-owned instrument is gated and resettable" (fun () ->
        let r = Metrics.create () in
        let h = Metrics.hdr_histogram ~registry:r "test_hdr_gate_ns" in
        Metrics.observe_hdr h 5;
        with_metrics (fun () ->
            Metrics.observe_hdr h 7;
            let sample =
              List.find
                (fun (s : Metrics.sample) -> s.name = "test_hdr_gate_ns")
                (Metrics.snapshot_of r)
            in
            (match sample.value with
            | Metrics.Hdr_v s ->
              check Alcotest.int "only armed sample recorded" 1 s.Hdr.count;
              check Alcotest.int "value" 7 s.Hdr.max
            | _ -> Alcotest.fail "expected Hdr_v sample");
            Metrics.reset ~registry:r ();
            match
              (List.find
                 (fun (s : Metrics.sample) -> s.name = "test_hdr_gate_ns")
                 (Metrics.snapshot_of r))
                .value
            with
            | Metrics.Hdr_v s -> check Alcotest.int "reset" 0 s.Hdr.count
            | _ -> Alcotest.fail "expected Hdr_v sample"));
  ]

(* ----------------------------------------------------------- reservoir *)

let reservoir_tests =
  [
    case "keeps everything below capacity, exact quantile ranks" (fun () ->
        let r = Reservoir.create ~capacity:200 () in
        for i = 0 to 99 do
          Reservoir.add r i
        done;
        check Alcotest.int "seen" 100 (Reservoir.seen r);
        check Alcotest.int "length" 100 (Reservoir.length r);
        let sorted = Reservoir.sorted r in
        check Alcotest.(array int) "sorted retention"
          (Array.init 100 Fun.id) sorted;
        (* ceil-rank convention, matching Hdr.quantile *)
        check Alcotest.int "q0.01 = 1st smallest" 0
          (Reservoir.exact_quantile sorted 0.01);
        check Alcotest.int "q0.5 = 50th smallest" 49
          (Reservoir.exact_quantile sorted 0.5);
        check Alcotest.int "q1.0 = max" 99
          (Reservoir.exact_quantile sorted 1.0);
        check Alcotest.int "empty array" 0
          (Reservoir.exact_quantile [||] 0.5));
    case "caps at capacity with a uniform subset" (fun () ->
        let r = Reservoir.create ~capacity:64 () in
        for i = 0 to 9_999 do
          Reservoir.add r i
        done;
        check Alcotest.int "seen" 10_000 (Reservoir.seen r);
        check Alcotest.int "length" 64 (Reservoir.length r);
        Array.iter
          (fun v ->
            check Alcotest.bool "sample from the stream" true
              (v >= 0 && v < 10_000))
          (Reservoir.samples r));
    case "deterministic for a seed" (fun () ->
        let run () =
          let r = Reservoir.create ~seed:99 ~capacity:32 () in
          for i = 0 to 4_999 do
            Reservoir.add r (i * 3)
          done;
          Reservoir.sorted r
        in
        check Alcotest.(array int) "same seed, same subset" (run ()) (run ()));
    case "capacity must be positive" (fun () ->
        check Alcotest.bool "raises" true
          (try
             ignore (Reservoir.create ~capacity:0 ());
             false
           with Invalid_argument _ -> true));
  ]

(* --------------------------------------------------------------- trace *)

let trace_tests =
  [
    case "ring wraparound keeps the newest events and counts drops"
      (fun () ->
        with_trace (fun () ->
            Trace.clear ();
            Trace.set_capacity 8;
            (* A fresh domain gets a fresh ring created with the capacity
               in force now. *)
            let d =
              Domain.spawn (fun () ->
                  for i = 1 to 20 do
                    Trace.emit (Trace.Find_start { node = i })
                  done)
            in
            Domain.join d;
            let chunk =
              match
                List.find_opt
                  (fun (c : Trace.chunk) -> c.records <> [])
                  (Trace.dump ())
              with
              | Some c -> c
              | None -> Alcotest.fail "no ring recorded events"
            in
            check Alcotest.int "dropped" 12 chunk.Trace.dropped;
            check Alcotest.int "kept" 8 (List.length chunk.Trace.records);
            let nodes =
              List.map
                (fun (r : Trace.record) ->
                  match r.Trace.event with
                  | Trace.Find_start { node } -> node
                  | _ -> -1)
                chunk.Trace.records
            in
            check
              (Alcotest.list Alcotest.int)
              "oldest-first, newest retained"
              [ 13; 14; 15; 16; 17; 18; 19; 20 ]
              nodes;
            let ts = List.map (fun (r : Trace.record) -> r.Trace.ts_ns) chunk.Trace.records in
            check Alcotest.bool "timestamps non-decreasing" true
              (List.sort compare ts = ts);
            Trace.set_capacity 8192;
            Trace.clear ()));
    case "emit is a no-op while disabled" (fun () ->
        Trace.clear ();
        Trace.emit Trace.Outer_retry;
        let total =
          List.fold_left
            (fun acc (c : Trace.chunk) -> acc + List.length c.Trace.records)
            0 (Trace.dump ())
        in
        check Alcotest.int "no events" 0 total);
  ]

(* ----------------------------------------------------------- exporters *)

let exporter_tests =
  [
    case "json round-trips through the parser" (fun () ->
        let v =
          Json.Obj
            [
              ("a", Json.Int 42);
              ("b", Json.List [ Json.Float 1.5; Json.Null; Json.Bool true ]);
              ("c", Json.String "quote \" backslash \\ newline \n end");
              ("d", Json.Obj []);
            ]
        in
        check Alcotest.bool "round trip" true
          (Json.parse_exn (Json.to_string v) = v));
    case "jsonl: every line parses, names and values survive" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let c = Metrics.counter ~registry:r "test_export_total" in
            let h = Metrics.histogram ~registry:r "test_export_hist" in
            Metrics.add c 7;
            List.iter (Metrics.observe h) [ 1; 2; 3; 100 ];
            let lines =
              Export.metrics_jsonl (Metrics.snapshot_of r)
              |> String.trim |> String.split_on_char '\n'
            in
            check Alcotest.int "two metrics" 2 (List.length lines);
            let parsed = List.map Json.parse_exn lines in
            let find name =
              List.find
                (fun j -> Json.member "name" j = Some (Json.String name))
                parsed
            in
            let counter = find "test_export_total" in
            check Alcotest.bool "counter value" true
              (Json.member "value" counter = Some (Json.Int 7));
            let hist = find "test_export_hist" in
            check Alcotest.bool "hist count" true
              (Json.member "count" hist = Some (Json.Int 4));
            check Alcotest.bool "hist has p50" true
              (Json.member "p50" hist <> None);
            check Alcotest.bool "hist has p99" true
              (Json.member "p99" hist <> None)));
    case "prometheus exposition shape" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let c = Metrics.counter ~registry:r ~help:"help text" "test_prom_total" in
            let h = Metrics.histogram ~registry:r "test_prom_hist" in
            Metrics.add c 3;
            Metrics.observe h 5;
            let text = Export.metrics_prometheus (Metrics.snapshot_of r) in
            let contains needle =
              let nl = String.length needle and tl = String.length text in
              let rec go i =
                i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
              in
              go 0
            in
            check Alcotest.bool "TYPE counter" true
              (contains "# TYPE test_prom_total counter");
            check Alcotest.bool "HELP line" true
              (contains "# HELP test_prom_total help text");
            check Alcotest.bool "counter sample" true
              (contains "test_prom_total 3");
            check Alcotest.bool "+Inf bucket" true
              (contains "test_prom_hist_bucket{le=\"+Inf\"} 1");
            check Alcotest.bool "sum" true (contains "test_prom_hist_sum 5");
            check Alcotest.bool "count" true
              (contains "test_prom_hist_count 1")));
    case "chrome trace validates against the trace_event schema" (fun () ->
        with_trace (fun () ->
            Trace.clear ();
            Trace.emit (Trace.Find_start { node = 3 });
            Trace.emit (Trace.Compaction_cas { ok = false });
            Trace.emit (Trace.Find_end { node = 3; root = 7; iters = 2 });
            Trace.emit (Trace.Link_cas { ok = true });
            Trace.emit Trace.Outer_retry;
            Trace.emit (Trace.Sched_decision { pid = 1 });
            Trace.emit (Trace.Phase_start { name = "phase" });
            Trace.emit (Trace.Phase_end { name = "phase" });
            Trace.emit (Trace.Instant { name = "tick" });
            let doc =
              Json.parse_exn (Export.chrome_trace_string (Trace.dump ()))
            in
            (match doc with
            | Json.List events ->
              check Alcotest.int "all events exported" 9 (List.length events);
              List.iter
                (fun e ->
                  List.iter
                    (fun key ->
                      check Alcotest.bool (key ^ " present") true
                        (Json.member key e <> None))
                    [ "name"; "ph"; "ts"; "pid"; "tid"; "args" ])
                events
            | _ -> Alcotest.fail "chrome trace is not a JSON array");
            Trace.clear ()));
    case "empty registry exports cleanly" (fun () ->
        let snap = Metrics.snapshot_of (Metrics.create ()) in
        check Alcotest.string "jsonl" "" (Export.metrics_jsonl snap);
        check Alcotest.string "prometheus" "" (Export.metrics_prometheus snap));
    case "prometheus escapes backslash and newline in help" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let c =
              Metrics.counter ~registry:r ~help:"line1\nline2 \\ tail"
                "test_esc_total"
            in
            Metrics.incr c;
            let text = Export.metrics_prometheus (Metrics.snapshot_of r) in
            check Alcotest.bool "escaped help line" true
              (contains_sub text
                 "# HELP test_esc_total line1\\nline2 \\\\ tail");
            check Alcotest.bool "no raw newline inside help" false
              (contains_sub text "line1\nline2")));
    case "hdr metric exports as histogram with exact single-sample quantiles"
      (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let h = Metrics.hdr_histogram ~registry:r "test_hdr_export_ns" in
            Metrics.observe_hdr h 12_345;
            let line =
              String.trim (Export.metrics_jsonl (Metrics.snapshot_of r))
            in
            let j = Json.parse_exn line in
            check Alcotest.bool "type histogram" true
              (Json.member "type" j = Some (Json.String "histogram"));
            List.iter
              (fun key ->
                check Alcotest.bool (key ^ " exact") true
                  (Json.member key j = Some (Json.Int 12_345)))
              [ "p50"; "p90"; "p99"; "p999"; "min"; "max" ];
            check Alcotest.bool "count" true
              (Json.member "count" j = Some (Json.Int 1))));
    case "hdr metric exports as a prometheus summary" (fun () ->
        with_metrics (fun () ->
            let r = Metrics.create () in
            let h = Metrics.hdr_histogram ~registry:r "test_hdr_prom_ns" in
            List.iter (Metrics.observe_hdr h) [ 10; 20; 30 ];
            let text = Export.metrics_prometheus (Metrics.snapshot_of r) in
            check Alcotest.bool "TYPE summary" true
              (contains_sub text "# TYPE test_hdr_prom_ns summary");
            check Alcotest.bool "median quantile" true
              (contains_sub text "test_hdr_prom_ns{quantile=\"0.5\"} 20");
            check Alcotest.bool "p999 quantile" true
              (contains_sub text "test_hdr_prom_ns{quantile=\"0.999\"} 30");
            check Alcotest.bool "sum" true
              (contains_sub text "test_hdr_prom_ns_sum 60");
            check Alcotest.bool "count" true
              (contains_sub text "test_hdr_prom_ns_count 3")));
    case "chrome trace events parse back with scoped instants" (fun () ->
        with_trace (fun () ->
            Trace.clear ();
            Trace.emit (Trace.Link_cas { ok = false });
            Trace.emit (Trace.Instant { name = "tick" });
            let doc =
              Json.parse_exn (Export.chrome_trace_string (Trace.dump ()))
            in
            (match doc with
            | Json.List events ->
              let named name =
                List.find
                  (fun e -> Json.member "name" e = Some (Json.String name))
                  events
              in
              let link = named "link_cas" in
              (match Json.member "args" link with
              | Some args ->
                check Alcotest.bool "ok arg round-trips" true
                  (Json.member "ok" args = Some (Json.Bool false))
              | None -> Alcotest.fail "link_cas has no args");
              check Alcotest.bool "instant has a scope" true
                (Json.member "s" (named "tick") <> None)
            | _ -> Alcotest.fail "chrome trace is not a JSON array");
            Trace.clear ()));
  ]

(* ---------------------------------------------------------- contention *)

let with_contention f =
  Dsu.Contention.set_enabled true;
  Dsu.Contention.reset ();
  Fun.protect
    ~finally:(fun () ->
      Dsu.Contention.set_enabled false;
      Dsu.Contention.reset ())
    f

let site_stat report site =
  match
    List.find_opt
      (fun (s : Dsu.Contention.site_stat) -> s.site = site)
      report.Dsu.Contention.sites
  with
  | Some s -> s
  | None ->
    Alcotest.fail ("no stats for site " ^ Repro_fault.Site.to_string site)

let contention_tests =
  [
    case "recording keys by site label, ranks hot nodes" (fun () ->
        with_contention (fun () ->
            (* Drive the Dsu_obs hooks directly: deterministic outcomes. *)
            Dsu.Obs.on_link_cas ~node:1 ~ok:false;
            Dsu.Obs.on_link_cas ~node:1 ~ok:false;
            Dsu.Obs.on_link_cas ~node:1 ~ok:false;
            Dsu.Obs.on_link_cas ~node:4 ~ok:true;
            Dsu.Obs.on_compaction_cas ~node:9 ~ok:false;
            Dsu.Obs.on_compaction_cas ~node:2 ~ok:true;
            Dsu.Obs.on_outer_retry ();
            Dsu.Obs.on_outer_retry ();
            let r = Dsu.Contention.report () in
            let link = site_stat r Repro_fault.Site.Link_cas in
            let split = site_stat r Repro_fault.Site.Split_cas in
            check Alcotest.int "link ok" 1 link.ok;
            check Alcotest.int "link fail" 3 link.fail;
            check Alcotest.int "split ok" 1 split.ok;
            check Alcotest.int "split fail" 1 split.fail;
            check Alcotest.int "outer retries" 2 r.Dsu.Contention.outer_retries;
            check Alcotest.int "total failures" 4
              (Dsu.Contention.total_failures r);
            check
              (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
              "hot nodes by failure count"
              [ (1, 3); (9, 1) ]
              (Dsu.Contention.hot_nodes r);
            check Alcotest.(array int) "heatmap over [0,16) in 4 buckets"
              [| 3; 0; 1; 0 |]
              (Dsu.Contention.heatmap ~buckets:4 ~n:16 r);
            check (Alcotest.float 1e-9) "root failure share" 0.75
              (Dsu.Contention.root_failure_share
                 ~is_root:(fun node -> node = 1)
                 r)));
    case "recording is off while disarmed" (fun () ->
        Dsu.Contention.reset ();
        check Alcotest.bool "disarmed" false (Dsu.Contention.enabled ());
        Dsu.Obs.on_link_cas ~node:3 ~ok:false;
        Dsu.Obs.on_outer_retry ();
        let r = Dsu.Contention.report () in
        check Alcotest.int "nothing recorded" 0
          (Dsu.Contention.total_failures r);
        check Alcotest.int "no retries" 0 r.Dsu.Contention.outer_retries);
    case "to_json emits the dsu-contention/v1 document" (fun () ->
        with_contention (fun () ->
            Dsu.Obs.on_link_cas ~node:5 ~ok:false;
            Dsu.Obs.on_compaction_cas ~node:5 ~ok:true;
            let r = Dsu.Contention.report () in
            let j =
              Dsu.Contention.to_json
                ~is_root:(fun node -> node = 5)
                ~heatmap_buckets:4 ~n:16 r
            in
            (* Serializing and reparsing exercises the whole path. *)
            let j = Json.parse_exn (Json.to_string j) in
            check Alcotest.bool "schema" true
              (Json.member "schema" j
              = Some (Json.String "dsu-contention/v1"));
            (match Json.member "sites" j with
            | Some (Json.List sites) ->
              check Alcotest.int "both sites present" 2 (List.length sites);
              let labels =
                List.filter_map (fun s -> Json.member "site" s) sites
              in
              check Alcotest.bool "site labels" true
                (labels
                = [ Json.String "link-cas"; Json.String "split-cas" ])
            | _ -> Alcotest.fail "sites missing");
            check Alcotest.bool "total failures" true
              (Json.member "total_cas_failures" j = Some (Json.Int 1));
            (match Json.member "hot_nodes" j with
            | Some (Json.List [ hot ]) ->
              check Alcotest.bool "node" true
                (Json.member "node" hot = Some (Json.Int 5));
              check Alcotest.bool "is_root annotation" true
                (Json.member "is_root" hot = Some (Json.Bool true))
            | _ -> Alcotest.fail "expected one hot node");
            match Json.member "heatmap" j with
            | Some heat ->
              check Alcotest.bool "universe" true
                (Json.member "universe" heat = Some (Json.Int 16))
            | None -> Alcotest.fail "heatmap missing"));
    case "multi-domain race attributes a lost linking CAS to its node"
      (fun () ->
        (* A genuine cross-domain race cannot be provoked reliably on an
           arbitrary (possibly single-core) runner, so the fault engine
           holds the victim inside the window instead: a [Stall] at
           [Link_cas_pre] parks the victim between reading the root and
           CASing it, the main domain observes the stall counter and
           links first, and the victim's CAS then genuinely fails. *)
        let module Fi = Repro_fault.Inject in
        with_contention (fun () ->
            let raced = ref false in
            let stall = ref 2_000_000 and tries = ref 0 in
            while (not !raced) && !tries < 8 do
              incr tries;
              let d = Dsu.Native.create ~seed:(!tries) 2 in
              Fi.arm
                {
                  seed = !tries;
                  rules_for =
                    (fun slot ->
                      if slot = 0 then
                        [
                          Fi.rule
                            ~sites:[ Repro_fault.Site.Link_cas_pre ]
                            (Fi.Stall !stall);
                        ]
                      else []);
                };
              let victim =
                Domain.spawn (fun () ->
                    Fi.enroll ~slot:0;
                    Dsu.Native.unite d 0 1)
              in
              (* Wait (bounded) for the victim to park inside the window,
                 then steal the link. *)
              let deadline = Repro_obs.Clock.now_ns () + 2_000_000_000 in
              while
                (Fi.totals ()).Fi.stalls = 0
                && Repro_obs.Clock.now_ns () < deadline
              do
                Domain.cpu_relax ()
              done;
              Dsu.Native.unite d 0 1;
              Domain.join victim;
              Fi.disarm ();
              let r = Dsu.Contention.report () in
              if Dsu.Contention.total_failures r > 0 then raced := true
              else stall := !stall * 2
            done;
            let r = Dsu.Contention.report () in
            let link = site_stat r Repro_fault.Site.Link_cas in
            check Alcotest.bool "a linking CAS succeeded" true (link.ok > 0);
            check Alcotest.bool "the victim's CAS failed" true (link.fail > 0);
            check Alcotest.bool "failures keyed by the Link_cas site" true
              (Dsu.Contention.total_failures r > 0);
            (* Both nodes of the 2-element universe were roots when
               contended; the loser is charged to the node it CASed. *)
            List.iter
              (fun (node, c) ->
                check Alcotest.bool "node in universe" true
                  (node >= 0 && node < 2);
                check Alcotest.bool "positive count" true (c > 0))
              r.Dsu.Contention.node_failures;
            let heat = Dsu.Contention.heatmap ~buckets:2 ~n:2 r in
            check Alcotest.int "heatmap conserves failures"
              (Dsu.Contention.total_failures r)
              (Array.fold_left ( + ) 0 heat)));
  ]

(* ------------------------------------------- integration with the DSU *)

(* One layout under test, seen through the calls the twin check needs. *)
type twin = {
  unite : int -> int -> unit;
  same_set : int -> int -> bool;
  find : int -> int;
  stats : unit -> Dsu.Stats.snapshot;
  parents : unit -> int array;
}

let flat_twin ~policy ~early n =
  let d = Dsu.Native.create ~policy ~early ~collect_stats:true ~seed:11 n in
  {
    unite = Dsu.Native.unite d;
    same_set = Dsu.Native.same_set d;
    find = Dsu.Native.find d;
    stats = (fun () -> Dsu.Native.stats d);
    parents = (fun () -> Dsu.Native.parents_snapshot d);
  }

let packed_twin ~policy n =
  let module P = Dsu.Packed.Native in
  let d = P.create ~policy ~collect_stats:true n in
  {
    unite = P.unite d;
    same_set = P.same_set d;
    find = P.find d;
    stats = (fun () -> P.stats d);
    parents = (fun () -> P.parents_snapshot d);
  }

(* A seeded mix of unites, same_sets and finds, answered as ints. *)
let run_twin (d : twin) ops =
  Array.map
    (fun (kind, x, y) ->
      match kind with
      | 0 -> d.unite x y; 0
      | 1 -> Bool.to_int (d.same_set x y)
      | _ -> d.find x)
    ops

(* Every find policy, with and without early termination (flat only:
   the packed layout links by rank and offers no [~early]), on both
   layouts.  The armed run's metrics must match its Dsu_stats, and a
   disarmed twin fed the same ops must answer every op alike, count the
   same steps and end with the same parent array: the two
   specialisations of each find body are one algorithm. *)
let armed_twin_cases =
  let n = 512 and count = 4096 in
  let rng = Repro_util.Rng.create 11 in
  let ops =
    Array.init count (fun _ ->
        let x = Repro_util.Rng.int rng n and y = Repro_util.Rng.int rng n in
        (Repro_util.Rng.int rng 3, x, y))
  in
  let configs =
    List.concat_map
      (fun policy ->
        let p = Dsu.Find_policy.to_string policy in
        [
          ("flat " ^ p, fun () -> flat_twin ~policy ~early:false n);
          ("flat early " ^ p, fun () -> flat_twin ~policy ~early:true n);
          ("packed " ^ p, fun () -> packed_twin ~policy n);
        ])
      Dsu.Find_policy.all
  in
  List.map
    (fun (name, make) ->
      case ("native ops populate metrics that match Dsu_stats, " ^ name)
        (fun () ->
          let disarmed = make () in
          let plain = run_twin disarmed ops in
          with_metrics (fun () ->
              Metrics.reset ();
              let armed = make () in
              let answers = run_twin armed ops in
              let stats = armed.stats () in
              let snap = Metrics.snapshot () in
              let counter name =
                match counter_value_of snap name with
                | Some v -> v
                | None -> Alcotest.fail (name ^ " not registered")
              in
              check Alcotest.int "link cas ok = links" stats.Dsu.Stats.links
                (counter "dsu_link_cas_ok_total");
              check Alcotest.int "link cas fail"
                stats.Dsu.Stats.link_cas_failures
                (counter "dsu_link_cas_fail_total");
              check Alcotest.int "compaction cas"
                stats.Dsu.Stats.compaction_cas
                (counter "dsu_compaction_cas_ok_total"
                + counter "dsu_compaction_cas_fail_total");
              check Alcotest.int "compaction cas failures"
                stats.Dsu.Stats.compaction_cas_failures
                (counter "dsu_compaction_cas_fail_total");
              check Alcotest.int "outer retries" stats.Dsu.Stats.outer_retries
                (counter "dsu_outer_retries_total");
              check Alcotest.int "finds" stats.Dsu.Stats.find_calls
                (counter "dsu_find_total");
              check Alcotest.int "ops" count (counter "dsu_ops_total");
              check (Alcotest.array Alcotest.int) "answers" plain answers;
              check Alcotest.bool "stats" true (disarmed.stats () = stats);
              check (Alcotest.array Alcotest.int) "parents"
                (disarmed.parents ()) (armed.parents ());
              Metrics.reset ())))
    configs

let integration_tests =
  armed_twin_cases
  @ [
    case "run_sim attaches a registry snapshot" (fun () ->
        with_metrics (fun () ->
            Metrics.reset ();
            let ops =
              [|
                [ Workload.Op.Unite (0, 1); Workload.Op.Same_set (0, 1) ];
                [ Workload.Op.Unite (2, 3); Workload.Op.Find 0 ];
              |]
            in
            let r = Harness.Measure.run_sim ~n:4 ~seed:5 ~ops () in
            let steps =
              match counter_value_of r.Harness.Measure.obs "apram_steps_total" with
              | Some v -> v
              | None -> Alcotest.fail "apram_steps_total missing"
            in
            check Alcotest.int "snapshot steps = simulator steps"
              r.Harness.Measure.total_steps steps;
            Metrics.reset ()));
    case "Dsu_stats.to_json parses and matches the snapshot" (fun () ->
        let d = Dsu.Native.create ~collect_stats:true ~seed:3 64 in
        for i = 0 to 62 do
          Dsu.Native.unite d i (i + 1)
        done;
        let s = Dsu.Native.stats d in
        let j = Json.parse_exn (Dsu.Stats.to_json s) in
        check Alcotest.bool "links field" true
          (Json.member "links" j = Some (Json.Int s.Dsu.Stats.links));
        check Alcotest.bool "find_iters field" true
          (Json.member "find_iters" j = Some (Json.Int s.Dsu.Stats.find_iters));
        check Alcotest.bool "total_work field" true
          (Json.member "total_work" j
          = Some (Json.Int (Dsu.Stats.total_work s))));
  ]

let () =
  Alcotest.run "obs"
    [
      ("metrics", metrics_tests);
      ("hdr", hdr_tests);
      ("reservoir", reservoir_tests);
      ("trace", trace_tests);
      ("exporters", exporter_tests);
      ("contention", contention_tests);
      ("integration", integration_tests);
    ]
