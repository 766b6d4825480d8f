(* Tests for the streaming-connectivity pipeline: edge streams, the
   ConnectIt-style sample+finish driver, the deterministic bulk engine
   (with its lincheck-style determinism check and a racy-mode
   counterexample), the plan-dispatched Dsu.Driver, batch find kernels,
   the Patrascu-Thorup adversarial workload, and the dsu-connectivity/v1
   harness (guard + perfdiff round trip). *)

module Graph = Graphs.Graph
module Generators = Graphs.Generators
module Components = Graphs.Components
module Edge_stream = Graphs.Edge_stream
module Connectit = Graphs.Connectit
module Det_bulk = Graphs.Det_bulk
module Determinism = Lincheck.Determinism
module Connectivity = Harness.Connectivity
module Rng = Repro_util.Rng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* Small streams, one per generator kind, sized so every test stays
   quick but still crosses several chunks. *)
let small_streams ?(simple = false) ?(seed = 7) () =
  [
    Edge_stream.erdos_renyi ~simple ~chunk_size:256 ~seed ~n:600 ~m:2000 ();
    Edge_stream.rmat ~simple ~chunk_size:256 ~seed ~scale:9 ~edge_factor:4 ();
    Edge_stream.power_law ~simple ~chunk_size:256 ~seed ~n:600 ~m:2000 ();
  ]

let stream_edges stream =
  let acc = ref [] in
  Edge_stream.iter stream (fun u v -> acc := (u, v) :: !acc);
  Array.of_list (List.rev !acc)

(* ------------------------------------------------------------ streams *)

let edge_stream_tests =
  [
    case "geometry and accessors" (fun () ->
        let s =
          Edge_stream.erdos_renyi ~chunk_size:256 ~seed:1 ~n:500 ~m:1000 ()
        in
        check Alcotest.int "n" 500 (Edge_stream.n s);
        check Alcotest.int "m" 1000 (Edge_stream.total_edges s);
        check Alcotest.int "chunks" 4 (Edge_stream.chunk_count s);
        check Alcotest.string "kind" "erdos-renyi" (Edge_stream.kind_name s);
        let last = Edge_stream.make_chunk s in
        Edge_stream.fill s 3 last;
        check Alcotest.int "last chunk len" 232 last.Edge_stream.len);
    case "iter matches materialize (twin oracle)" (fun () ->
        List.iter
          (fun s ->
            let streamed = stream_edges s in
            let g = Edge_stream.materialize s in
            check Alcotest.int "edge count"
              (Edge_stream.total_edges s)
              (Array.length streamed);
            Array.iteri
              (fun i (u, v) ->
                let u', v' = (Graph.edges g).(i) in
                if u <> u' || v <> v' then
                  Alcotest.failf "%s edge %d: (%d,%d) vs (%d,%d)"
                    (Edge_stream.kind_name s) i u v u' v')
              streamed)
          (small_streams ()));
    case "fill is chunk-order independent" (fun () ->
        List.iter
          (fun s ->
            let ordered = stream_edges s in
            let buf = Edge_stream.make_chunk s in
            let pos = ref 0 in
            (* Regenerate chunks in reverse order; each must reproduce
               exactly the slice the in-order scan produced. *)
            for idx = Edge_stream.chunk_count s - 1 downto 0 do
              Edge_stream.fill s idx buf;
              let base = idx * Edge_stream.chunk_size s in
              for k = 0 to buf.Edge_stream.len - 1 do
                let u, v = ordered.(base + k) in
                if
                  buf.Edge_stream.src.(k) <> u || buf.Edge_stream.dst.(k) <> v
                then
                  Alcotest.failf "%s chunk %d offset %d differs"
                    (Edge_stream.kind_name s) idx k;
                incr pos
              done
            done;
            check Alcotest.int "total regenerated"
              (Array.length ordered) !pos)
          (small_streams ()));
    case "simple streams reject self-loops" (fun () ->
        List.iter
          (fun s ->
            Edge_stream.iter s (fun u v ->
                if u = v then
                  Alcotest.failf "%s: self-loop %d" (Edge_stream.kind_name s) u))
          (small_streams ~simple:true ()));
    case "endpoints stay in range" (fun () ->
        List.iter
          (fun s ->
            let n = Edge_stream.n s in
            Edge_stream.iter s (fun u v ->
                if u < 0 || u >= n || v < 0 || v >= n then
                  Alcotest.failf "%s: (%d,%d) outside [0,%d)"
                    (Edge_stream.kind_name s) u v n))
          (small_streams ()));
    case "parameter validation" (fun () ->
        expect_invalid "scale" (fun () ->
            Edge_stream.rmat ~seed:1 ~scale:41 ~edge_factor:4 ());
        expect_invalid "probabilities" (fun () ->
            Edge_stream.rmat ~seed:1 ~a:0.6 ~b:0.3 ~c:0.3 ~scale:4
              ~edge_factor:2 ());
        let s = Edge_stream.erdos_renyi ~seed:1 ~n:10 ~m:10 () in
        expect_invalid "chunk index" (fun () ->
            Edge_stream.fill s 7 (Edge_stream.make_chunk s)));
    case "fill rejects a short src or dst buffer" (fun () ->
        let s =
          Edge_stream.erdos_renyi ~chunk_size:256 ~seed:1 ~n:10 ~m:1000 ()
        in
        let short = Invalid_argument
            "Edge_stream.fill: chunk buffer smaller than chunk_size" in
        let full = Array.make 256 0 and tiny = Array.make 3 0 in
        Alcotest.check_raises "short dst" short (fun () ->
            Edge_stream.fill s 0 { Edge_stream.src = full; dst = tiny; len = 0 });
        Alcotest.check_raises "short src" short (fun () ->
            Edge_stream.fill s 0 { Edge_stream.src = tiny; dst = full; len = 0 });
        check Alcotest.(array int) "dst untouched" [| 0; 0; 0 |] tiny);
    case "fill allocates < 1 minor word per edge" (fun () ->
        (* One full default-size chunk per kind, measured after a warm-up
           fill so only the steady-state generation loop is counted. *)
        let m = 2 * 65536 in
        List.iter
          (fun s ->
            let chunk = Edge_stream.make_chunk s in
            Edge_stream.fill s 0 chunk;
            let before = Gc.minor_words () in
            Edge_stream.fill s 1 chunk;
            let words = Gc.minor_words () -. before in
            check Alcotest.int "full chunk" 65536 chunk.Edge_stream.len;
            let per_edge = words /. float_of_int chunk.Edge_stream.len in
            if per_edge >= 1. then
              Alcotest.failf "%s%s: %.3f minor words/edge"
                (Edge_stream.kind_name s)
                (if Edge_stream.is_simple s then " simple" else "")
                per_edge)
          [
            Edge_stream.rmat ~seed:1 ~scale:14 ~edge_factor:8 ();
            Edge_stream.rmat ~simple:true ~seed:1 ~scale:14 ~edge_factor:8 ();
            Edge_stream.erdos_renyi ~seed:1 ~n:4096 ~m ();
            Edge_stream.power_law ~seed:1 ~n:4096 ~m ();
          ]);
  ]

(* ------------------------------------------------------ golden output *)

let stream_md5 stream =
  let b = Buffer.create 4096 in
  Edge_stream.iter stream (fun u v -> Printf.bprintf b "%d %d\n" u v);
  Digest.to_hex (Digest.string (Buffer.contents b))

let graph_md5 g =
  let b = Buffer.create 4096 in
  Array.iter (fun (u, v) -> Printf.bprintf b "%d %d\n" u v) (Graph.edges g);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Absolute digests of generator output.  Every stream, oracle and
   determinism digest in the repo is a function of these bytes, so a
   generator rewrite must reproduce them exactly. *)
let golden_tests =
  let pinned name want stream =
    case name (fun () -> check Alcotest.string "md5" want (stream_md5 stream))
  in
  [
    pinned "rmat scale 16 (benchmark stream)" "423b42e577afbe673981628f932ddb59"
      (Edge_stream.rmat ~seed:1 ~scale:16 ~edge_factor:8 ());
    pinned "rmat small chunks" "1dc1d95a496310aaeaeeb0bccedce312"
      (Edge_stream.rmat ~chunk_size:256 ~seed:11 ~scale:9 ~edge_factor:4 ());
    pinned "rmat small chunks, simple" "bc8db811dca2af1b3158a063de71dd64"
      (Edge_stream.rmat ~simple:true ~chunk_size:256 ~seed:11 ~scale:9
         ~edge_factor:4 ());
    pinned "erdos-renyi" "71bea50062d86fd01011d552c44b576a"
      (Edge_stream.erdos_renyi ~seed:3 ~n:1000 ~m:5000 ());
    pinned "power-law" "6602c069a5fed8a62c8fca4a7230f85e"
      (Edge_stream.power_law ~seed:3 ~n:1000 ~m:5000 ());
    case "rmat_fill matches the float quadrant chain" (fun () ->
        (* Reference: the per-level float draw and if-chain that the
           integer-threshold kernel replaces, including probability mixes
           whose thresholds are not increasing, NaN and out-of-range ones. *)
        let reference rng ~scale ~a ~b ~c =
          let u = ref 0 and v = ref 0 in
          for _ = 1 to scale do
            let r = Rng.float rng in
            let du, dv =
              if r < a then (0, 0)
              else if r < a +. b then (0, 1)
              else if r < a +. b +. c then (1, 0)
              else (1, 1)
            in
            u := (!u lsl 1) lor du;
            v := (!v lsl 1) lor dv
          done;
          (!u, !v)
        in
        List.iter
          (fun (a, b, c) ->
            let len = 2000 and scale = 10 in
            let src = Array.make len 0 and dst = Array.make len 0 in
            Generators.rmat_fill (Rng.create 9) ~scale ~a ~b ~c ~simple:false
              ~src ~dst len;
            let rng = Rng.create 9 in
            for k = 0 to len - 1 do
              let u, v = reference rng ~scale ~a ~b ~c in
              if u <> src.(k) || v <> dst.(k) then
                Alcotest.failf "(%g, %g, %g) edge %d: (%d,%d) vs (%d,%d)" a b
                  c k src.(k) dst.(k) u v
            done)
          [
            (0.57, 0.19, 0.19); (0.25, 0.25, 0.25); (0.1, -0.05, 0.3);
            (0.6, 0.3, -0.2); (0., 0., 0.); (1.5, -1., 0.); (Float.nan, 0.1, 0.1);
          ]);
    case "materialized rmat" (fun () ->
        check Alcotest.string "plain" "d740a83d4c3beb25899cc6b4a89d224f"
          (graph_md5
             (Generators.rmat ~rng:(Rng.create 5) ~scale:9 ~edge_factor:4 ()));
        check Alcotest.string "simple" "745c66a0a087817bf0e394640e92bcb8"
          (graph_md5
             (Generators.rmat ~simple:true ~rng:(Rng.create 5) ~scale:9
                ~edge_factor:4 ())));
  ]

(* --------------------------------------------------- generator hygiene *)

let generator_hygiene_tests =
  [
    case "erdos_renyi ~simple dedups and drops loops" (fun () ->
        let g =
          Generators.erdos_renyi ~simple:true ~rng:(Rng.create 5) ~n:30 ~m:200
            ()
        in
        let seen = Hashtbl.create 256 in
        Array.iter
          (fun (u, v) ->
            if u = v then Alcotest.failf "self-loop %d" u;
            let key = (min u v, max u v) in
            if Hashtbl.mem seen key then
              Alcotest.failf "duplicate edge (%d,%d)" u v;
            Hashtbl.add seen key ())
          (Graph.edges g);
        check Alcotest.int "m" 200 (Graph.num_edges g));
    case "erdos_renyi ~simple rejects impossible m" (fun () ->
        expect_invalid "m too large" (fun () ->
            Generators.erdos_renyi ~simple:true ~rng:(Rng.create 1) ~n:5 ~m:11
              ()));
    case "rmat ~simple drops loops" (fun () ->
        let g =
          Generators.rmat ~simple:true ~rng:(Rng.create 6) ~scale:7
            ~edge_factor:8 ()
        in
        Array.iter
          (fun (u, v) -> if u = v then Alcotest.failf "self-loop %d" u)
          (Graph.edges g));
  ]

(* ------------------------------------------------- streamed pipeline *)

let oracle_labels stream = Components.sequential (Edge_stream.materialize stream)

let pipeline_tests =
  let check_stream ?(domains = 2) ?plan ?sampling ?finish ?mode name stream =
    let expected = oracle_labels stream in
    let r = Connectit.run_stream ~domains ?plan ?sampling ?finish ?mode stream in
    if r.Connectit.labels <> expected then Alcotest.failf "%s: labels differ" name;
    check Alcotest.int (name ^ " components")
      (Components.count expected)
      r.Connectit.components;
    check Alcotest.int (name ^ " edges_total")
      (Edge_stream.total_edges stream)
      r.Connectit.edges_total
  in
  [
    case "labels match sequential oracle on every generator" (fun () ->
        List.iter
          (fun s -> check_stream (Edge_stream.kind_name s) s)
          (small_streams ()));
    case "sampling x finish grid matches oracle" (fun () ->
        (* Sample windows of 4 chunks and of 1 chunk: with the second,
           every team of 2 or more has members that hold no chunk when
           the finish starts. *)
        List.iter
          (fun (window, s) ->
            List.iter
              (fun domains ->
                List.iter
                  (fun sampling ->
                    List.iter
                      (fun finish ->
                        check_stream
                          (Printf.sprintf "window %d, %s/%s, %d domain(s)"
                             window
                             (Connectit.sampling_to_string sampling)
                             (Connectit.finish_to_string finish)
                             domains)
                          ~domains ~sampling ~finish s)
                      [ Connectit.Per_op; Connectit.Bulk ])
                  [
                    Connectit.No_sampling; Connectit.K_out 2;
                    Connectit.Bfs_hubs 8;
                  ])
              [ 1; 2; 3; 4 ])
          [
            ( 4,
              Edge_stream.rmat ~chunk_size:256 ~seed:11 ~scale:9 ~edge_factor:4
                () );
            ( 1,
              Edge_stream.rmat ~chunk_size:256 ~seed:5 ~scale:7 ~edge_factor:8
                () );
          ]);
    case "racy reports pinned at one domain (golden)" (fun () ->
        (* One domain makes the racy pipeline deterministic: seeded ids,
           one schedule.  The sample windows are 1, 2 and 5 chunks (two
           edges per vertex, 256-edge chunks).  Each chunk must be
           finished exactly once, whether from the buffer that sampled
           it or generated again, so a chunk finished twice or never
           moves [edges_skipped]. *)
        List.iter
          (fun (name, s, chunks, components, pins) ->
            check Alcotest.int (name ^ ": chunks") chunks
              (Edge_stream.chunk_count s);
            List.iter
              (fun (sampling, skipped, unites) ->
                List.iter
                  (fun finish ->
                    let what =
                      Printf.sprintf "%s %s/%s" name
                        (Connectit.sampling_to_string sampling)
                        (Connectit.finish_to_string finish)
                    in
                    let r = Connectit.run_stream ~domains:1 ~sampling ~finish s in
                    check Alcotest.int (what ^ ": edges_skipped") skipped
                      r.Connectit.edges_skipped;
                    check Alcotest.int (what ^ ": sample_unites") unites
                      r.Connectit.sample_unites;
                    check Alcotest.int (what ^ ": components") components
                      r.Connectit.components)
                  [ Connectit.Per_op; Connectit.Bulk ])
              pins)
          [
            ( "rmat, window 1",
              Edge_stream.rmat ~chunk_size:256 ~seed:5 ~scale:7 ~edge_factor:8
                (),
              4, 18,
              [ (Connectit.K_out 2, 900, 108); (Connectit.Bfs_hubs 8, 795, 185) ]
            );
            ( "erdos-renyi, window 2",
              Edge_stream.erdos_renyi ~chunk_size:256 ~seed:7 ~n:256 ~m:2048 (),
              8, 1,
              [ (Connectit.K_out 2, 1932, 371); (Connectit.Bfs_hubs 8, 114, 58) ]
            );
            ( "power-law, window 5",
              Edge_stream.power_law ~chunk_size:256 ~seed:9 ~n:600 ~m:3000 (),
              12, 5,
              [
                (Connectit.K_out 2, 16, 87); (Connectit.Bfs_hubs 8, 2716, 1146);
              ] );
          ]);
    case "deterministic mode matches oracle" (fun () ->
        List.iter
          (fun s ->
            check_stream
              ("det " ^ Edge_stream.kind_name s)
              ~mode:Connectit.Deterministic s)
          (small_streams ~seed:13 ()));
    case "alternate plans match oracle" (fun () ->
        let s =
          Edge_stream.erdos_renyi ~chunk_size:256 ~seed:17 ~n:400 ~m:1200 ()
        in
        let packed =
          { Dsu.Plan.default with linking = Dsu.Plan.By_rank; layout = Dsu.Plan.Packed }
        in
        check_stream "packed plan" ~plan:packed s);
    case "sampling skips edges but keeps answers" (fun () ->
        (* A dense-ish ER graph has a giant component, so k-out sampling
           must actually skip a decent share of finish-phase edges. *)
        let s =
          Edge_stream.erdos_renyi ~chunk_size:256 ~seed:19 ~n:500 ~m:4000 ()
        in
        let r = Connectit.run_stream ~domains:2 ~sampling:(Connectit.K_out 2) s in
        check Alcotest.bool "skipped some" true (r.Connectit.edges_skipped > 0);
        if r.Connectit.labels <> oracle_labels s then
          Alcotest.fail "sampled labels differ from oracle");
    case "string round trips" (fun () ->
        List.iter
          (fun v ->
            check
              Alcotest.(option string)
              "sampling"
              (Some (Connectit.sampling_to_string v))
              (Option.map Connectit.sampling_to_string
                 (Connectit.sampling_of_string (Connectit.sampling_to_string v))))
          [
            Connectit.No_sampling; Connectit.K_out 1; Connectit.K_out 3;
            Connectit.K_out 255; Connectit.Bfs_hubs 1; Connectit.Bfs_hubs 5;
          ];
        List.iter
          (fun bad ->
            check Alcotest.bool ("rejects " ^ bad) true
              (Connectit.sampling_of_string bad = None))
          [ "k-out:0"; "k-out:-3"; "k-out:256"; "k-out:300"; "bfs-hubs:0";
            "bfs-hubs:-1"; "k-out:x"; "hubs" ];
        let s = Edge_stream.erdos_renyi ~chunk_size:256 ~seed:1 ~n:50 ~m:100 () in
        List.iter
          (fun (sampling, name) ->
            Alcotest.check_raises ("run_stream " ^ name)
              (Invalid_argument
                 ("Connectit.run_stream: invalid sampling " ^ name))
              (fun () -> ignore (Connectit.run_stream ~sampling s)))
          [
            (Connectit.K_out 0, "k-out:0"); (Connectit.K_out 256, "k-out:256");
            (Connectit.Bfs_hubs 0, "bfs-hubs:0");
          ];
        check Alcotest.bool "finish" true
          (Connectit.finish_of_string "bulk" = Some Connectit.Bulk);
        check Alcotest.bool "mode" true
          (Connectit.mode_of_string "det" = Some Connectit.Deterministic));
    case "components accepts a plan (old signature intact)" (fun () ->
        let g =
          Generators.erdos_renyi ~rng:(Rng.create 23) ~n:300 ~m:900 ()
        in
        let expected = Components.sequential g in
        let labels, stats = Connectit.components ~domains:2 g in
        check Alcotest.bool "default labels" true (labels = expected);
        check Alcotest.bool "dsu_work collected" true
          (stats.Connectit.dsu_work > 0);
        let packed =
          { Dsu.Plan.default with linking = Dsu.Plan.By_rank; layout = Dsu.Plan.Packed }
        in
        let labels', stats' =
          Connectit.components ~domains:2 ~plan:packed ~collect_stats:false g
        in
        check Alcotest.bool "packed labels" true (labels' = expected);
        check Alcotest.int "stats off" 0 stats'.Connectit.dsu_work);
  ]

(* --------------------------------------------------------- determinism *)

let determinism_tests =
  [
    case "det engine: one digest across domains x perturbations" (fun () ->
        let s =
          Edge_stream.rmat ~chunk_size:256 ~seed:29 ~scale:9 ~edge_factor:4 ()
        in
        let out =
          Determinism.check ~domain_counts:[ 1; 2; 4 ]
            ~perturb_seeds:[ 0; 1; 2 ]
            ~run:(fun ~domains ~on_round ->
              let labels, report = Det_bulk.run ~domains ~on_round s in
              (labels, report.Det_bulk.rounds))
            ()
        in
        check Alcotest.int "runs" 9 out.Determinism.runs;
        if not out.Determinism.ok then
          Alcotest.failf "determinism violated:\n%s"
            (String.concat "\n" out.Determinism.failures));
    case "det reports pinned on multi-block streams (golden)" (fun () ->
        (* Rounds, blocks, components and the labels' MD5 are functions
           of the stream alone, so they are pinned at every domain count.
           Each stream spans four blocks (8 chunks of 256 edges each).
           The dense stream is connected within its first block, whose
           last round has an odd index, so its later blocks propose
           nothing: a progress flag leaking into the next block shows up
           there as an extra round. *)
        let labels_md5 labels =
          let b = Buffer.create 4096 in
          Array.iter (fun l -> Printf.bprintf b "%d\n" l) labels;
          Digest.to_hex (Digest.string (Buffer.contents b))
        in
        List.iter
          (fun (name, s, rounds, components, md5) ->
            List.iter
              (fun domains ->
                let what = Printf.sprintf "%s, %d domain(s)" name domains in
                let labels, r = Det_bulk.run ~domains s in
                check Alcotest.int (what ^ ": blocks") 4 r.Det_bulk.blocks;
                check Alcotest.int (what ^ ": rounds") rounds r.Det_bulk.rounds;
                check Alcotest.int (what ^ ": components") components
                  r.Det_bulk.components;
                check Alcotest.string (what ^ ": labels md5") md5
                  (labels_md5 labels))
              [ 1; 2; 3; 4 ])
          [
            ( "rmat",
              Edge_stream.rmat ~chunk_size:256 ~seed:41 ~scale:10
                ~edge_factor:8 (),
              6, 224, "4154117fd27376c305d7e52ae3e2a2cd" );
            ( "erdos-renyi",
              Edge_stream.erdos_renyi ~chunk_size:256 ~seed:43 ~n:4000
                ~m:6500 (),
              11, 156, "1b89e1f3c7f6b49fa483b4539375ca88" );
            ( "power-law",
              Edge_stream.power_law ~chunk_size:256 ~seed:47 ~n:4000 ~m:6500
                (),
              7, 760, "d55c0c98bd1d25289b07f0c878b0eef8" );
            ( "dense erdos-renyi",
              Edge_stream.erdos_renyi ~chunk_size:256 ~seed:53 ~n:1024
                ~m:8192 (),
              3, 1, "4930370422bacc1c6a7d302703657c0b" );
          ]);
    case "det run_stream is byte-identical across domain counts" (fun () ->
        let s =
          Edge_stream.power_law ~chunk_size:256 ~seed:31 ~n:700 ~m:2800 ()
        in
        let run domains =
          (Connectit.run_stream ~domains ~mode:Connectit.Deterministic s)
            .Connectit.labels
        in
        let reference = run 1 in
        List.iter
          (fun domains ->
            if run domains <> reference then
              Alcotest.failf "domains=%d labels differ" domains)
          [ 2; 3; 4 ]);
    case "det report counts rounds and components" (fun () ->
        let s =
          Edge_stream.erdos_renyi ~chunk_size:256 ~seed:37 ~n:400 ~m:1600 ()
        in
        let labels, report = Det_bulk.run ~domains:2 s in
        check Alcotest.int "components"
          (Components.count (oracle_labels s))
          report.Det_bulk.components;
        check Alcotest.bool "rounds counted" true (report.Det_bulk.rounds > 0);
        check Alcotest.int "labels length" 400 (Array.length labels));
    case "racy forest is schedule-dependent (counterexample)" (fun () ->
        (* The positive control: per-op racy unites with the same seed
           but a different edge-processing order must produce a
           different raw parent forest for at least one stream seed —
           while the *normalized labels* always agree.  Variant 0
           processes chunks forward, variant 1 in reverse: two legal
           schedules of the same input. *)
        let racy_forest stream ~variant =
          let d = Dsu.Driver.create ~seed:1 (Edge_stream.n stream) in
          let buf = Edge_stream.make_chunk stream in
          let chunks = Edge_stream.chunk_count stream in
          for j = 0 to chunks - 1 do
            let idx = if variant = 0 then j else chunks - 1 - j in
            Edge_stream.fill stream idx buf;
            for k = 0 to buf.Edge_stream.len - 1 do
              Dsu.Driver.unite d buf.Edge_stream.src.(k)
                buf.Edge_stream.dst.(k)
            done
          done;
          Dsu.Driver.parents_snapshot d
        in
        let distinguished =
          List.exists
            (fun seed ->
              let s =
                Edge_stream.rmat ~chunk_size:256 ~seed ~scale:9 ~edge_factor:4
                  ()
              in
              Determinism.distinguish
                ~schedules:[ (1, 0); (1, 1) ]
                ~run:(fun ~domains:_ ~variant -> racy_forest s ~variant)
                ())
            [ 41; 42; 43; 44 ]
        in
        check Alcotest.bool "some seed distinguishes schedules" true
          distinguished);
  ]

(* ----------------------------------------------------- driver + batch *)

let reference_labels n edges =
  Components.sequential (Graph.create ~n ~edges)

let driver_tests =
  let random_edges ~seed ~n ~m =
    let rng = Rng.create seed in
    Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n))
  in
  [
    case "driver agrees with the sequential oracle on every layout" (fun () ->
        let n = 300 in
        let edges = random_edges ~seed:51 ~n ~m:600 in
        let expected = reference_labels n edges in
        List.iter
          (fun plan ->
            let d = Dsu.Driver.create ~plan ~seed:3 n in
            Array.iter (fun (u, v) -> Dsu.Driver.unite d u v) edges;
            let ok = ref true in
            for v = 0 to n - 1 do
              if
                Dsu.Driver.same_set d v expected.(v) = false
                || Dsu.Driver.find d v <> Dsu.Driver.find d expected.(v)
              then ok := false
            done;
            if not !ok then
              Alcotest.failf "plan %s: wrong partition"
                (Dsu.Plan.to_string plan);
            check Alcotest.int
              (Dsu.Plan.to_string plan ^ " count_sets")
              (Components.count expected)
              (Dsu.Driver.count_sets d))
          [
            Dsu.Plan.default;
            { Dsu.Plan.default with layout = Dsu.Plan.Padded };
            {
              Dsu.Plan.default with
              linking = Dsu.Plan.By_rank;
              layout = Dsu.Plan.Packed;
            };
          ]);
    case "driver rejects invalid plans" (fun () ->
        expect_invalid "by-rank needs packed" (fun () ->
            Dsu.Driver.create
              ~plan:{ Dsu.Plan.default with linking = Dsu.Plan.By_rank }
              8);
        expect_invalid "n < 1" (fun () -> Dsu.Driver.create 0));
    case "find_batch agrees with find on every backend" (fun () ->
        let n = 200 in
        let edges = random_edges ~seed:53 ~n ~m:400 in
        let xs = Array.init n (fun i -> i) in
        List.iter
          (fun plan ->
            let d = Dsu.Driver.create ~plan ~seed:5 n in
            Array.iter (fun (u, v) -> Dsu.Driver.unite d u v) edges;
            let batched = Dsu.Driver.find_batch d xs in
            Array.iteri
              (fun i r ->
                if Dsu.Driver.find d i <> r then
                  Alcotest.failf "plan %s: find_batch(%d) = %d <> find"
                    (Dsu.Plan.to_string plan) i r)
              batched)
          [
            Dsu.Plan.default;
            {
              Dsu.Plan.default with
              linking = Dsu.Plan.By_rank;
              layout = Dsu.Plan.Packed;
            };
          ]);
    case "unite_batch equals per-op unites" (fun () ->
        let n = 250 in
        let edges = random_edges ~seed:57 ~n ~m:500 in
        let xs = Array.map fst edges and ys = Array.map snd edges in
        let expected = reference_labels n edges in
        let d = Dsu.Driver.create ~seed:7 n in
        Dsu.Driver.unite_batch d xs ys;
        check Alcotest.int "count" (Components.count expected)
          (Dsu.Driver.count_sets d);
        let answers = Dsu.Driver.same_set_batch d xs ys in
        Array.iter
          (fun a -> if not a then Alcotest.fail "united pair not same_set")
          answers);
    case "unite_batch ~len unites only the prefix on every layout" (fun () ->
        (* Pairs past [len] are stale buffer contents: they must not be
           united, on any layout. *)
        let xs = [| 0; 2; 4; 6 |] and ys = [| 1; 3; 5; 7 |] in
        List.iter
          (fun plan ->
            let what = Dsu.Plan.to_string plan in
            let d = Dsu.Driver.create ~plan ~seed:9 8 in
            Dsu.Driver.unite_batch ~len:2 d xs ys;
            check Alcotest.int (what ^ ": sets") 6 (Dsu.Driver.count_sets d);
            check Alcotest.bool (what ^ ": prefix united") true
              (Dsu.Driver.same_set d 2 3);
            check Alcotest.bool (what ^ ": tail untouched") false
              (Dsu.Driver.same_set d 4 5);
            expect_invalid (what ^ ": len past the arrays") (fun () ->
                Dsu.Driver.unite_batch ~len:5 d xs ys);
            expect_invalid (what ^ ": negative len") (fun () ->
                Dsu.Driver.unite_batch ~len:(-1) d xs ys))
          [
            Dsu.Plan.default;
            {
              Dsu.Plan.default with
              linking = Dsu.Plan.By_rank;
              layout = Dsu.Plan.Packed;
            };
          ]);
  ]

(* ---------------------------------------------------------- adversarial *)

let adversarial_tests =
  [
    case "pt_incremental shape" (fun () ->
        let n = 64 and queries_per_phase = 16 in
        let ops =
          Workload.Adversarial.pt_incremental ~rng:(Rng.create 61) ~n
            ~queries_per_phase
        in
        let unions = ref 0 and queries = ref 0 in
        List.iter
          (fun op ->
            match op with
            | Workload.Op.Unite (u, v) ->
              incr unions;
              if u < 0 || u >= n || v < 0 || v >= n then
                Alcotest.fail "union out of range"
            | Workload.Op.Same_set (u, v) ->
              incr queries;
              if u < 0 || u >= n || v < 0 || v >= n then
                Alcotest.fail "query out of range"
            | Workload.Op.Find _ -> Alcotest.fail "unexpected Find")
          ops;
        (* 64 reps halve over 6 phases: 32+16+8+4+2+1 unions. *)
        check Alcotest.int "unions" 63 !unions;
        check Alcotest.int "queries" (6 * queries_per_phase) !queries;
        (* Replaying the whole workload must end fully connected. *)
        let d = Dsu.Driver.create n in
        List.iter
          (function
            | Workload.Op.Unite (u, v) -> Dsu.Driver.unite d u v
            | Workload.Op.Same_set (u, v) -> ignore (Dsu.Driver.same_set d u v)
            | Workload.Op.Find x -> ignore (Dsu.Driver.find d x))
          ops;
        check Alcotest.int "one component" 1 (Dsu.Driver.count_sets d));
  ]

(* -------------------------------------------------------------- harness *)

let tiny_config =
  {
    Connectivity.default_config with
    Connectivity.scale = 8;
    edge_factor = 4;
    chunk_size = 256;
    seed = 71;
    domains_list = [ 1; 2 ];
    gens = [ Connectivity.Rmat ];
    samplings = [ Connectit.No_sampling ];
    finishes = [ Connectit.Per_op; Connectit.Bulk ];
    modes = [ Connectit.Racy ];
    adversarial_n = 256;
  }

let synthetic_point ~finish ~rate =
  {
    Connectivity.gen = "rmat";
    n = 256;
    m = 1024;
    domains = 2;
    sampling = "none";
    finish;
    mode = "racy";
    plan = Dsu.Plan.to_string Dsu.Plan.default;
    seconds = 0.1;
    edges_per_sec = rate;
    finish_edges_per_sec = rate;
    sample_ns = 0;
    finish_ns = 100;
    label_ns = 0;
    skipped_ratio = 0.;
    components = 1;
    det_rounds = 0;
  }

let harness_tests =
  [
    case "sweep produces the full grid with positive rates" (fun () ->
        let points = Connectivity.sweep ~config:tiny_config () in
        check Alcotest.int "points" 4 (List.length points);
        List.iter
          (fun p ->
            check Alcotest.bool "rate > 0" true
              (p.Connectivity.edges_per_sec > 0.);
            check Alcotest.bool "finish rate > 0" true
              (p.Connectivity.finish_edges_per_sec > 0.);
            check Alcotest.int "m" 1024 p.Connectivity.m)
          points);
    case "guard_finish passes and fails as designed" (fun () ->
        let per_op = synthetic_point ~finish:"per-op" ~rate:10.0 in
        let ok_pair = [ per_op; synthetic_point ~finish:"bulk" ~rate:9.7 ] in
        (match Connectivity.guard_finish ~min_ratio:0.9 ok_pair with
        | Ok (worst, pairs) ->
          check Alcotest.int "one pair" 1 (List.length pairs);
          check Alcotest.bool "worst ~0.97" true (worst > 0.96 && worst < 0.98)
        | Error e -> Alcotest.failf "unexpected guard failure: %s" e);
        let bad_pair = [ per_op; synthetic_point ~finish:"bulk" ~rate:5.0 ] in
        match Connectivity.guard_finish ~min_ratio:0.9 bad_pair with
        | Ok _ -> Alcotest.fail "guard should have failed at ratio 0.5"
        | Error _ -> ());
    case "report round-trips through perfdiff" (fun () ->
        let points = Connectivity.sweep ~config:tiny_config () in
        let adversarial =
          Connectivity.run_adversarial ~config:tiny_config ~domains:2 ()
        in
        check Alcotest.bool "adversarial ops" true
          (adversarial.Connectivity.a_ops > 0);
        let doc = Connectivity.to_json ~config:tiny_config ~adversarial points in
        let s = Repro_obs.Json.to_string doc in
        match Harness.Perfdiff.diff_strings ~base:s ~current:s () with
        | Ok r ->
          check Alcotest.string "kind" "dsu-connectivity/v1"
            r.Harness.Perfdiff.kind;
          check Alcotest.bool "rows" true (List.length r.Harness.Perfdiff.rows > 0);
          check Alcotest.int "no regressions vs self" 0
            (List.length r.Harness.Perfdiff.regressions)
        | Error e -> Alcotest.failf "perfdiff: %s" e);
    case "check_components flags a disagreeing gen" (fun () ->
        let point ~gen ~domains ~components =
          { (synthetic_point ~finish:"bulk" ~rate:1.0) with
            Connectivity.gen; domains; components }
        in
        let agree =
          [
            point ~gen:"rmat" ~domains:1 ~components:3;
            point ~gen:"rmat" ~domains:2 ~components:3;
            point ~gen:"er" ~domains:1 ~components:1;
          ]
        in
        check Alcotest.bool "agreeing sweep" true
          (Connectivity.check_components agree = Ok ());
        match
          Connectivity.check_components
            (point ~gen:"er" ~domains:4 ~components:2 :: agree)
        with
        | Ok () -> Alcotest.fail "a 2-vs-1 disagreement passed"
        | Error e ->
          let has sub =
            let n = String.length sub and m = String.length e in
            let rec go i = i + n <= m && (String.sub e i n = sub || go (i + 1)) in
            go 0
          in
          List.iter
            (fun sub ->
              if not (has sub) then Alcotest.failf "%S lacks %S" e sub)
            [ "er ("; "d=4: 2"; "d=1: 1" ];
          if has "rmat" then Alcotest.failf "%S names the agreeing gen" e);
    case "gen string round trip" (fun () ->
        List.iter
          (fun g ->
            check Alcotest.bool "round trip" true
              (Connectivity.gen_of_string (Connectivity.gen_to_string g)
              = Some g))
          Connectivity.all_gens);
  ]

let () =
  Alcotest.run "connectivity"
    [
      ("edge_stream", edge_stream_tests);
      ("golden", golden_tests);
      ("generator_hygiene", generator_hygiene_tests);
      ("pipeline", pipeline_tests);
      ("determinism", determinism_tests);
      ("driver", driver_tests);
      ("adversarial", adversarial_tests);
      ("harness", harness_tests);
    ]
