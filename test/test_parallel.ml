(* Real-parallelism stress tests over OCaml 5 domains.  Each domain draws
   its operations from a deterministic per-domain stream, so after the
   domains join, the final partition can be checked exactly against the
   quick-find oracle fed the union of all streams. *)

module Native = Dsu.Native
module Policy = Dsu.Find_policy
module Quick_find = Sequential.Quick_find
module Rng = Repro_util.Rng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let domain_unites ~k ~n ~per_domain =
  let rng = Rng.create (1000 + k) in
  List.init per_domain (fun _ -> (Rng.int rng n, Rng.int rng n))

let stress ?memory_order ~policy ~early ~domains ~n ~per_domain () =
  let d = Native.create ?memory_order ~policy ~early ~seed:7 n in
  let worker k () = List.iter (fun (x, y) -> Native.unite d x y) (domain_unites ~k ~n ~per_domain) in
  let handles = List.init domains (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join handles;
  (* Oracle: replay all streams sequentially (order irrelevant for the final
     partition). *)
  let q = Quick_find.create n in
  for k = 0 to domains - 1 do
    List.iter (fun (x, y) -> Quick_find.unite q x y) (domain_unites ~k ~n ~per_domain)
  done;
  (d, q)

let variant_cases =
  List.concat_map
    (fun policy ->
      List.map
        (fun early ->
          case
            (Printf.sprintf "4 domains agree with oracle (%s%s)"
               (Policy.to_string policy)
               (if early then "+early" else ""))
            (fun () ->
              let n = 500 in
              let d, q = stress ~policy ~early ~domains:4 ~n ~per_domain:2000 () in
              check Alcotest.int "count_sets" (Quick_find.count_sets q)
                (Native.count_sets d);
              for x = 0 to 99 do
                for y = 0 to 99 do
                  check Alcotest.bool "pair" (Quick_find.same_set q x y)
                    (Native.same_set d x y)
                done
              done;
              check Alcotest.int "invariants" 0
                (List.length (Native.invariant_violations d))))
        [ false; true ])
    Policy.all

(* The same stress through Dsu.Driver, so any plan's layout can run it. *)
let stress_plan ~plan ~domains ~n ~per_domain =
  let d = Dsu.Driver.create ~plan ~seed:7 n in
  let worker k () =
    List.iter (fun (x, y) -> Dsu.Driver.unite d x y) (domain_unites ~k ~n ~per_domain)
  in
  let handles = List.init domains (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join handles;
  let q = Quick_find.create n in
  for k = 0 to domains - 1 do
    List.iter (fun (x, y) -> Quick_find.unite q x y) (domain_unites ~k ~n ~per_domain)
  done;
  (d, q)

(* Oracle agreement of the plan's partition, pairs over the first [probe]
   nodes, and the layout's own invariants. *)
let check_plan_stress ~probe (d, q) =
  check Alcotest.int "count_sets" (Quick_find.count_sets q)
    (Dsu.Driver.count_sets d);
  for x = 0 to probe - 1 do
    for y = 0 to probe - 1 do
      check Alcotest.bool "pair" (Quick_find.same_set q x y)
        (Dsu.Driver.same_set d x y)
    done
  done;
  let violations =
    match d with
    | Dsu.Driver.Flat d -> Native.invariant_violations d
    | Dsu.Driver.Packed d -> Dsu.Packed.Native.invariant_violations d
  in
  check Alcotest.int "invariants" 0 (List.length violations)

(* The by-rank packed layout under real parallelism, across every find
   policy (the flat layout is what the variant cases above exercise). *)
let packed_layout_cases =
  List.map
    (fun compaction ->
      case
        (Printf.sprintf "packed layout agrees with oracle (%s)"
           (Policy.to_string compaction))
        (fun () ->
          let plan =
            { Dsu.Plan.default with compaction; layout = Dsu.Plan.Packed }
          in
          check_plan_stress ~probe:60
            (stress_plan ~plan ~domains:4 ~n:300 ~per_domain:1500)))
    Policy.all

(* Raw contention hammers on Flat_atomic_array itself. *)
let flat_layout_cases =
  [
    case "cas hammer: every increment lands exactly once" (fun () ->
        let module F = Repro_util.Flat_atomic_array in
        List.iter
          (fun padded ->
            let cells = 4 and domains = 4 and per_domain = 5000 in
            let a = F.make ~padded cells (fun _ -> 0) in
            let worker k () =
              let rng = Rng.create (900 + k) in
              for _ = 1 to per_domain do
                let i = Rng.int rng cells in
                let rec bump () =
                  let v = F.get a i in
                  if not (F.cas a i v (v + 1)) then bump ()
                in
                bump ()
              done
            in
            let handles = List.init domains (fun k -> Domain.spawn (worker k)) in
            List.iter Domain.join handles;
            let total = Array.fold_left ( + ) 0 (F.snapshot a) in
            check Alcotest.int
              (if padded then "total (padded)" else "total")
              (domains * per_domain) total)
          [ false; true ]);
    case "fetch_add hammer: atomic under contention" (fun () ->
        let module F = Repro_util.Flat_atomic_array in
        let a = F.make 1 (fun _ -> 0) in
        let domains = 4 and per_domain = 10_000 in
        let worker _ () =
          for _ = 1 to per_domain do
            ignore (F.fetch_add a 0 1)
          done
        in
        let handles = List.init domains (fun k -> Domain.spawn (worker k)) in
        List.iter Domain.join handles;
        check Alcotest.int "total" (domains * per_domain) (F.get a 0));
  ]

let mixed_cases =
  [
    case "concurrent queries during unions return consistent results" (fun () ->
        (* Queries racing with unions: results must be monotone — once two
           nodes are connected, they stay connected.  Each domain unites a
           chain segment and repeatedly queries its endpoints. *)
        let n = 400 in
        let d = Native.create ~seed:9 n in
        let anomalies = Atomic.make 0 in
        let worker k () =
          let lo = k * 100 in
          for i = lo to lo + 98 do
            Native.unite d i (i + 1);
            (* After uniting i and i+1, the connection must be visible. *)
            if not (Native.same_set d i (i + 1)) then Atomic.incr anomalies
          done;
          (* Endpoint connectivity within this domain's segment. *)
          if not (Native.same_set d lo (lo + 99)) then Atomic.incr anomalies
        in
        let handles = List.init 4 (fun k -> Domain.spawn (worker k)) in
        List.iter Domain.join handles;
        check Alcotest.int "no anomalies" 0 (Atomic.get anomalies);
        check Alcotest.int "four chains" (n - 4 * 99) (Native.count_sets d));
    case "stats are exact under parallel updates" (fun () ->
        let n = 300 in
        let d = Native.create ~collect_stats:true ~seed:11 n in
        let per_domain = 1000 in
        let worker k () =
          let rng = Rng.create (50 + k) in
          for _ = 1 to per_domain do
            Native.unite d (Rng.int rng n) (Rng.int rng n)
          done
        in
        let handles = List.init 4 (fun k -> Domain.spawn (worker k)) in
        List.iter Domain.join handles;
        let s = Native.stats d in
        check Alcotest.int "unite calls" 4000 s.Dsu.Stats.unite_calls;
        check Alcotest.int "links" (n - Native.count_sets d) s.Dsu.Stats.links);
    case "contended pair: exactly one link" (fun () ->
        let d = Native.create ~collect_stats:true ~seed:13 4 in
        let worker () = Native.unite d 0 1 in
        let handles = List.init 6 (fun _ -> Domain.spawn worker) in
        List.iter Domain.join handles;
        let s = Native.stats d in
        check Alcotest.int "links" 1 s.Dsu.Stats.links;
        check Alcotest.bool "0~1" true (Native.same_set d 0 1));
    case "growable parallel unite after parallel make_set" (fun () ->
        let g = Dsu.Growable.create ~seed:17 () in
        let worker _k () =
          let mine = Array.init 200 (fun _ -> Dsu.Growable.make_set g) in
          Array.iteri (fun i e -> if i > 0 then Dsu.Growable.unite g mine.(0) e) mine;
          mine.(0)
        in
        let handles = List.init 4 (fun k -> Domain.spawn (worker k)) in
        let reps = List.map Domain.join handles in
        check Alcotest.int "four groups" 4 (Dsu.Growable.count_sets g);
        (* Merge the four groups and recount. *)
        (match reps with
        | a :: rest -> List.iter (fun b -> Dsu.Growable.unite g a b) rest
        | [] -> ());
        check Alcotest.int "one group" 1 (Dsu.Growable.count_sets g));
  ]

(* Memory-order and bulk-kernel stress: the tuned read paths and the
   batched kernels under real domains, against the same oracle replay. *)
let tuned_cases =
  let order_cases =
    List.map
      (fun memory_order ->
        case
          (Printf.sprintf "4 domains agree with oracle (%s order)"
             (Dsu.Memory_order.to_string memory_order))
          (fun () ->
            let n = 400 in
            let d, q =
              stress ~memory_order ~policy:Policy.Two_try_splitting
                ~early:false ~domains:4 ~n ~per_domain:2000 ()
            in
            check Alcotest.int "count_sets" (Quick_find.count_sets q)
              (Native.count_sets d);
            for x = 0 to 79 do
              for y = 0 to 79 do
                check Alcotest.bool "pair" (Quick_find.same_set q x y)
                  (Native.same_set d x y)
              done
            done;
            check Alcotest.int "invariants" 0
              (List.length (Native.invariant_violations d))))
      Dsu.Memory_order.all
  in
  let packed_order_cases =
    List.map
      (fun memory_order ->
        case
          (Printf.sprintf "4 domains agree with oracle (%s order, packed)"
             (Dsu.Memory_order.to_string memory_order))
          (fun () ->
            let plan =
              { Dsu.Plan.default with memory_order; layout = Dsu.Plan.Packed }
            in
            check_plan_stress ~probe:80
              (stress_plan ~plan ~domains:4 ~n:400 ~per_domain:2000)))
      Dsu.Memory_order.all
  in
  order_cases
  @ packed_order_cases
  @ [
      case "concurrent unite_batch agrees with oracle" (fun () ->
          let n = 400 and domains = 4 and per_domain = 2000 in
          let d = Native.create ~seed:7 n in
          let pairs k =
            let rng = Rng.create (4000 + k) in
            let xs = Array.init per_domain (fun _ -> Rng.int rng n) in
            let ys = Array.init per_domain (fun _ -> Rng.int rng n) in
            (xs, ys)
          in
          let worker k () =
            let xs, ys = pairs k in
            Native.unite_batch d xs ys
          in
          let handles = List.init domains (fun k -> Domain.spawn (worker k)) in
          List.iter Domain.join handles;
          let q = Quick_find.create n in
          for k = 0 to domains - 1 do
            let xs, ys = pairs k in
            Array.iteri (fun i x -> Quick_find.unite q x ys.(i)) xs
          done;
          check Alcotest.int "count_sets" (Quick_find.count_sets q)
            (Native.count_sets d);
          for x = 0 to 79 do
            for y = 0 to 79 do
              check Alcotest.bool "pair" (Quick_find.same_set q x y)
                (Native.same_set d x y)
            done
          done;
          check Alcotest.int "invariants" 0
            (List.length (Native.invariant_violations d)));
      case "same_set_batch racing unite_batch is sound" (fun () ->
          (* Two domains unite chain segments in bulk while two others run
             bulk queries; query answers must be monotone (no [false]
             after the endpoints' segments were fully linked before the
             batch started). *)
          let n = 512 in
          let d = Native.create ~seed:11 n in
          let half = n / 2 in
          let chain lo len =
            let xs = Array.init (len - 1) (fun i -> lo + i) in
            let ys = Array.init (len - 1) (fun i -> lo + i + 1) in
            (xs, ys)
          in
          let uniter lo () =
            let xs, ys = chain lo half in
            Native.unite_batch d xs ys
          in
          let anomalies = Atomic.make 0 in
          let querier lo () =
            let m = 200 in
            let xs = Array.make m lo in
            let ys = Array.init m (fun i -> lo + 1 + (i mod (half - 1))) in
            (* Answers may be false while the chain is being built, but the
               batch after the join below must be all-true; here just check
               the call survives the race and returns the right count. *)
            let got = Native.same_set_batch d xs ys in
            if Array.length got <> m then Atomic.incr anomalies
          in
          let ds =
            [
              Domain.spawn (uniter 0);
              Domain.spawn (uniter half);
              Domain.spawn (querier 0);
              Domain.spawn (querier half);
            ]
          in
          List.iter Domain.join ds;
          check Alcotest.int "query anomalies" 0 (Atomic.get anomalies);
          (* Post-quiescence: every in-chain pair must now answer true. *)
          let xs = Array.init (half - 1) (fun i -> i) in
          let ys = Array.init (half - 1) (fun i -> i + 1) in
          let got = Native.same_set_batch d xs ys in
          Array.iteri
            (fun i ans ->
              check Alcotest.bool (Printf.sprintf "pair %d" i) true ans)
            got;
          check Alcotest.int "two chains" 2 (Native.count_sets d));
    ]

(* Native histories: record real multi-domain executions and check them
   against the sequential specification. *)
let native_lincheck_cases =
  [
    case "native domain histories linearize" (fun () ->
        List.iter
          (fun policy ->
            for trial = 1 to 8 do
              let n = 5 in
              let d = Native.create ~policy ~seed:trial n in
              let recorder = Lincheck.Native_recorder.create () in
              let worker pid () =
                let rng = Rng.create ((trial * 10) + pid) in
                for _ = 1 to 3 do
                  let x = Rng.int rng n and y = Rng.int rng n in
                  if Rng.bool rng then
                    ignore
                      (Lincheck.Native_recorder.run recorder ~pid ~name:"unite"
                         ~args:[ x; y ]
                         (fun () ->
                           Native.unite d x y;
                           0))
                  else
                    ignore
                      (Lincheck.Native_recorder.run recorder ~pid ~name:"same_set"
                         ~args:[ x; y ]
                         (fun () -> if Native.same_set d x y then 1 else 0))
                done
              in
              let handles = List.init 3 (fun pid -> Domain.spawn (worker pid)) in
              List.iter Domain.join handles;
              let history = Lincheck.Native_recorder.history recorder in
              check Alcotest.int
                (Printf.sprintf "%s trial %d events" (Policy.to_string policy) trial)
                18
                (Lincheck.Native_recorder.size recorder);
              match Lincheck.Checker.check ~n history with
              | Lincheck.Checker.Linearizable -> ()
              | Lincheck.Checker.Not_linearizable msg ->
                Alcotest.failf "%s trial %d: %s" (Policy.to_string policy) trial msg
            done)
          Policy.all);
  ]

let () =
  Alcotest.run "parallel"
    [
      ("variants", variant_cases);
      ("packed-layout", packed_layout_cases);
      ("flat-layout", flat_layout_cases);
      ("mixed", mixed_cases);
      ("tuned", tuned_cases);
      ("native-lincheck", native_lincheck_cases);
    ]
