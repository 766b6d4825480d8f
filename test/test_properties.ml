(* Property-based tests (qcheck, registered through QCheck_alcotest):
   randomized invariants over the core data structures. *)

module Q = QCheck2
module Native = Dsu.Native
module Policy = Dsu.Find_policy
module Quick_find = Sequential.Quick_find
module Seq = Sequential.Seq_dsu
module Rng = Repro_util.Rng

(* Generator for a random operation list over n nodes. *)
let gen_ops n =
  Q.Gen.(
    list_size (int_range 0 120)
      (let* x = int_range 0 (n - 1) in
       let* y = int_range 0 (n - 1) in
       let* kind = int_range 0 2 in
       return
         (match kind with
         | 0 -> Workload.Op.Unite (x, y)
         | 1 -> Workload.Op.Same_set (x, y)
         | _ -> Workload.Op.Find x)))

let print_ops ops =
  String.concat "; " (List.map (Format.asprintf "%a" Workload.Op.pp) ops)

let partition_of_quick_find ops n =
  let q = Quick_find.create n in
  Workload.Op.run_quick_find q ops;
  q

let n_nodes = 24

(* Each property is a QCheck test converted to an alcotest case. *)
let prop name ?(count = 200) gen print f =
  QCheck_alcotest.to_alcotest (Q.Test.make ~name ~count ~print gen f)

let native_matches_oracle (policy, early) =
  prop
    (Printf.sprintf "native %s%s matches quick-find" (Policy.to_string policy)
       (if early then "+early" else ""))
    (gen_ops n_nodes) print_ops
    (fun ops ->
      let d = Native.create ~policy ~early ~seed:11 n_nodes in
      let q = Quick_find.create n_nodes in
      List.for_all
        (fun op ->
          match op with
          | Workload.Op.Unite (x, y) ->
            Native.unite d x y;
            Quick_find.unite q x y;
            true
          | Workload.Op.Same_set (x, y) ->
            Native.same_set d x y = Quick_find.same_set q x y
          | Workload.Op.Find x -> Quick_find.same_set q x (Native.find d x))
        ops
      && Native.count_sets d = Quick_find.count_sets q)

let seq_matches_oracle (linking, compaction) =
  prop
    (Printf.sprintf "seq %s/%s matches quick-find" (Seq.linking_to_string linking)
       (Seq.compaction_to_string compaction))
    ~count:100 (gen_ops n_nodes) print_ops
    (fun ops ->
      let d = Seq.create ~linking ~compaction ~seed:7 n_nodes in
      let q = Quick_find.create n_nodes in
      List.for_all
        (fun op ->
          match op with
          | Workload.Op.Unite (x, y) ->
            Seq.unite d x y;
            Quick_find.unite q x y;
            true
          | Workload.Op.Same_set (x, y) -> Seq.same_set d x y = Quick_find.same_set q x y
          | Workload.Op.Find x -> Quick_find.same_set q x (Seq.find d x))
        ops)

let invariant_after_ops =
  prop "id-monotone parents hold after any op sequence (Lemma 3.1)"
    (gen_ops n_nodes) print_ops
    (fun ops ->
      List.for_all
        (fun policy ->
          let d = Native.create ~policy ~seed:13 n_nodes in
          Workload.Op.run_native d ops;
          Native.invariant_violations d = [])
        Policy.all)

let union_forest_heights =
  prop "union forest height bounded by n and links = n - sets"
    (gen_ops n_nodes) print_ops
    (fun ops ->
      let links = ref [] in
      let d =
        Native.create ~seed:17
          ~on_link:(fun ~child ~parent -> links := (child, parent) :: !links)
          n_nodes
      in
      Workload.Op.run_native d ops;
      let f = Harness.Forest.of_links ~n:n_nodes !links in
      Harness.Forest.height f < n_nodes
      && List.length !links = n_nodes - Native.count_sets d)

let sim_partition_schedule_independent =
  prop "simulated partition equals oracle partition under random schedules"
    ~count:100
    Q.Gen.(pair (gen_ops 12) (int_range 0 1000))
    (fun (ops, seed) -> Printf.sprintf "seed=%d ops=[%s]" seed (print_ops ops))
    (fun (ops, seed) ->
      let n = 12 in
      let split = Workload.Op.round_robin ops ~p:3 in
      let r =
        Harness.Measure.run_sim
          ~sched:(Apram.Scheduler.random ~seed)
          ~n ~seed:(seed + 1) ~ops:split ()
      in
      let spec = r.Harness.Measure.spec in
      let q = partition_of_quick_find ops n in
      Dsu.Sim.sets_of_memory spec r.Harness.Measure.memory = Quick_find.classes q)

let sim_histories_linearize =
  prop "simulated histories linearize (Theorem 3.4)" ~count:60
    Q.Gen.(pair (gen_ops 6) (int_range 0 500))
    (fun (ops, seed) -> Printf.sprintf "seed=%d ops=[%s]" seed (print_ops ops))
    (fun (ops, seed) ->
      let n = 6 in
      (* Keep histories small enough for the exact checker. *)
      let ops = List.filteri (fun i _ -> i < 12) ops in
      let split = Workload.Op.round_robin ops ~p:3 in
      let r =
        Harness.Measure.run_sim
          ~sched:(Apram.Scheduler.cas_adversary ~seed)
          ~n ~seed:(seed + 2) ~ops:split ()
      in
      match Lincheck.Checker.check ~n r.Harness.Measure.history with
      | Lincheck.Checker.Linearizable -> true
      | Lincheck.Checker.Not_linearizable _ -> false)

let rng_int_bounds =
  prop "rng ints respect arbitrary bounds"
    Q.Gen.(pair (int_range 1 1_000_000) (int_range 0 10_000))
    (fun (bound, seed) -> Printf.sprintf "bound=%d seed=%d" bound seed)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let rng_permutation_property =
  prop "permutations are permutations"
    Q.Gen.(pair (int_range 1 300) (int_range 0 10_000))
    (fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    (fun (n, seed) ->
      let p = Rng.permutation (Rng.create seed) n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n Fun.id)

let alpha_monotone =
  prop "ackermann is monotone in both arguments (small range)"
    Q.Gen.(pair (int_range 0 3) (int_range 0 8))
    (fun (k, j) -> Printf.sprintf "k=%d j=%d" k j)
    (fun (k, j) ->
      Repro_util.Alpha.ackermann k j <= Repro_util.Alpha.ackermann k (j + 1)
      && Repro_util.Alpha.ackermann k (max 1 j)
         <= Repro_util.Alpha.ackermann (k + 1) (max 1 j))

let stats_percentile_in_range =
  prop "percentiles lie within the sample range"
    Q.Gen.(
      pair
        (list_size (int_range 1 50) (float_bound_inclusive 1000.))
        (float_bound_inclusive 100.))
    (fun (xs, q) -> Printf.sprintf "n=%d q=%.2f" (List.length xs) q)
    (fun (xs, q) ->
      let arr = Array.of_list xs in
      let v = Repro_util.Stats.percentile arr q in
      let lo = Array.fold_left min arr.(0) arr in
      let hi = Array.fold_left max arr.(0) arr in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let binomial_single_set =
  prop "binomial schedule unites everything"
    Q.Gen.(int_range 0 8)
    string_of_int
    (fun log_k ->
      let k = 1 lsl log_k in
      let ops = Workload.Binomial.schedule ~base:0 ~k in
      let q = partition_of_quick_find ops k in
      Quick_find.count_sets q = 1 && List.length ops = k - 1)

let growable_matches_fixed =
  prop "growable behaves like fixed-size DSU" ~count:100 (gen_ops 16) print_ops
    (fun ops ->
      let g = Dsu.Growable.create ~seed:5 () in
      for _ = 1 to 16 do
        ignore (Dsu.Growable.make_set g)
      done;
      let q = Quick_find.create 16 in
      List.for_all
        (fun op ->
          match op with
          | Workload.Op.Unite (x, y) ->
            Dsu.Growable.unite g x y;
            Quick_find.unite q x y;
            true
          | Workload.Op.Same_set (x, y) ->
            Dsu.Growable.same_set g x y = Quick_find.same_set q x y
          | Workload.Op.Find x -> Quick_find.same_set q x (Dsu.Growable.find g x))
        ops)

let aw_matches_oracle =
  prop "anderson-woll matches quick-find" ~count:100 (gen_ops 20) print_ops
    (fun ops ->
      let d = Baselines.Anderson_woll.Native.create 20 in
      let q = Quick_find.create 20 in
      List.for_all
        (fun op ->
          match op with
          | Workload.Op.Unite (x, y) ->
            Baselines.Anderson_woll.Native.unite d x y;
            Quick_find.unite q x y;
            true
          | Workload.Op.Same_set (x, y) ->
            Baselines.Anderson_woll.Native.same_set d x y = Quick_find.same_set q x y
          | Workload.Op.Find x ->
            Quick_find.same_set q x (Baselines.Anderson_woll.Native.find d x))
        ops)

let rank_matches_oracle =
  prop "concurrent rank variant matches quick-find" ~count:150 (gen_ops 20)
    print_ops
    (fun ops ->
      let d = Dsu.Packed.Native.create 20 in
      let q = Quick_find.create 20 in
      List.for_all
        (fun op ->
          match op with
          | Workload.Op.Unite (x, y) ->
            Dsu.Packed.Native.unite d x y;
            Quick_find.unite q x y;
            true
          | Workload.Op.Same_set (x, y) ->
            Dsu.Packed.Native.same_set d x y = Quick_find.same_set q x y
          | Workload.Op.Find x -> Quick_find.same_set q x (Dsu.Packed.Native.find d x))
        ops)

let rank_heights_logarithmic =
  prop "rank forest height <= lg n for any union order" ~count:100
    (gen_ops 32) print_ops
    (fun ops ->
      let n = 32 in
      let d = Dsu.Packed.Native.create n in
      List.iter
        (fun op ->
          match op with
          | Workload.Op.Unite (x, y) -> Dsu.Packed.Native.unite d x y
          | Workload.Op.Same_set _ | Workload.Op.Find _ -> ())
        ops;
      let ok = ref true in
      for i = 0 to n - 1 do
        let u = ref i and depth = ref 0 in
        while Dsu.Packed.Native.parent_of d !u <> !u do
          u := Dsu.Packed.Native.parent_of d !u;
          incr depth
        done;
        if !depth > 5 then ok := false
      done;
      !ok)

let level_machinery_properties =
  prop "Section 5 level function: bounds, rank-equality zero, monotone in j"
    Q.Gen.(pair (int_range 0 20) (int_range 0 20))
    (fun (k, dj) -> Printf.sprintf "k=%d dj=%d" k dj)
    (fun (k, dj) ->
      let d = 1. in
      let j = k + dj in
      (* parent rank j >= node rank k, as in the data structure *)
      let a = Repro_util.Alpha.level ~d ~n:1024 k j in
      let bound = Repro_util.Alpha.alpha k d + 1 in
      (* (i): level within [0, alpha(k, d) + 1] *)
      a >= 0 && a <= bound
      (* (iv): level 0 iff ranks equal *)
      && (a = 0) = (j = k)
      (* monotone non-increasing... levels grow as the parent's rank grows *)
      && Repro_util.Alpha.level ~d ~n:1024 k (j + 1) >= 0)

let level_count_monotone =
  prop "Section 5 count x.c is monotone under parent-rank growth"
    Q.Gen.(pair (int_range 0 12) (int_range 0 12))
    (fun (k, j0) -> Printf.sprintf "k=%d j0=%d" k j0)
    (fun (k, j0) ->
      let d = 1. in
      let count j =
        let a = Repro_util.Alpha.level ~d ~n:1024 k j in
        let b = if a > 0 then Repro_util.Alpha.index (a - 1) k else 0 in
        (a * (k + 2)) + b
      in
      (* Property (ii): as the parent rank increases (what splitting does),
         the count never decreases. *)
      let j = k + j0 in
      count (j + 1) >= count j)

let explore_all_schedules_linearize =
  prop "every schedule of random 2-process pairs linearizes (full enumeration)"
    ~count:25
    Q.Gen.(
      let op = pair (int_range 0 3) (int_range 0 3) in
      pair (pair op op) (int_range 0 1000))
    (fun (((a, b), (c, d)), seed) ->
      Printf.sprintf "p0:(%d,%d) p1:(%d,%d) seed=%d" a b c d seed)
    (fun (((a, b), (c, d)), seed) ->
      let n = 4 in
      let spec = Dsu.Sim.spec ~n ~seed () in
      let make_ops () =
        let h = Dsu.Sim.handle spec in
        [|
          [ Dsu.Sim.unite_op h a b ];
          [ Dsu.Sim.same_set_op h c d ];
        |]
      in
      match
        Apram.Explore.run_all ~max_schedules:100_000 ~mem_size:n
          ~init:(Dsu.Sim.init spec) ~make_ops
          ~check:(fun o ->
            Lincheck.Checker.check ~n o.Apram.Sim.history
            = Lincheck.Checker.Linearizable)
          ()
      with
      | Ok s -> not s.Apram.Explore.truncated
      | Error _ -> false)

let checker_accepts_sequential =
  prop "checker accepts spec-generated sequential histories" ~count:100
    (gen_ops 6) print_ops
    (fun ops ->
      let ops = List.filteri (fun i _ -> i < 20) ops in
      let state = ref (Lincheck.Spec.initial 6) in
      let events =
        List.concat_map
          (fun op ->
            let spec_op =
              match op with
              | Workload.Op.Unite (x, y) -> Lincheck.Spec.Unite (x, y)
              | Workload.Op.Same_set (x, y) -> Lincheck.Spec.Same_set (x, y)
              | Workload.Op.Find x -> Lincheck.Spec.Find x
            in
            let state', result = Lincheck.Spec.apply !state spec_op in
            state := state';
            [
              Apram.History.Invoke
                { pid = 0; call = Lincheck.Spec.call_of_op spec_op; step = 0 };
              Apram.History.Return { pid = 0; value = result; step = 0 };
            ])
          ops
      in
      Lincheck.Checker.check ~n:6 events = Lincheck.Checker.Linearizable)

let tests =
  List.map native_matches_oracle
    (List.concat_map (fun p -> [ (p, false); (p, true) ]) Policy.all)
  @ List.map seq_matches_oracle
      [
        (Seq.By_size, Seq.Halving);
        (Seq.By_rank, Seq.Splitting);
        (Seq.By_random, Seq.Compression);
        (Seq.By_rank, Seq.No_compaction);
        (Seq.By_random, Seq.Splicing);
      ]
  @ [
      invariant_after_ops;
      union_forest_heights;
      sim_partition_schedule_independent;
      sim_histories_linearize;
      rng_int_bounds;
      rng_permutation_property;
      alpha_monotone;
      stats_percentile_in_range;
      binomial_single_set;
      growable_matches_fixed;
      aw_matches_oracle;
      rank_matches_oracle;
      rank_heights_logarithmic;
      explore_all_schedules_linearize;
      level_machinery_properties;
      level_count_monotone;
      checker_accepts_sequential;
    ]

let () = Alcotest.run "properties" [ ("qcheck", tests) ]
