(* Tests for the concurrent DSU: the native instantiation driven
   sequentially against the quick-find oracle, the simulator instantiation
   under many schedulers, instrumentation, and the data-structure invariants
   of Lemma 3.1. *)

module Native = Dsu.Native
module Sim = Dsu.Sim
module Policy = Dsu.Find_policy
module Quick_find = Sequential.Quick_find
module Rng = Repro_util.Rng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let all_variants =
  List.concat_map
    (fun policy -> [ (policy, false); (policy, true) ])
    Policy.all

let variant_name (policy, early) =
  Printf.sprintf "%s%s" (Policy.to_string policy) (if early then "+early" else "")

(* Run the same random operation sequence through the native DSU and the
   quick-find oracle, checking every query answer on the way. *)
let oracle_run ?memory_order ~policy ~early ~n ~ops ~seed () =
  let d = Native.create ?memory_order ~policy ~early ~seed n in
  let q = Quick_find.create n in
  List.iter
    (fun op ->
      match op with
      | Workload.Op.Unite (x, y) ->
        Native.unite d x y;
        Quick_find.unite q x y
      | Workload.Op.Same_set (x, y) ->
        check Alcotest.bool
          (Printf.sprintf "same_set %d %d" x y)
          (Quick_find.same_set q x y) (Native.same_set d x y)
      | Workload.Op.Find x ->
        let r = Native.find d x in
        check Alcotest.bool "find returns member of own class" true
          (Quick_find.same_set q x r))
    ops;
  (d, q)

let random_ops rng ~n ~m =
  List.init m (fun _ ->
      let x = Rng.int rng n and y = Rng.int rng n in
      match Rng.int rng 3 with
      | 0 -> Workload.Op.Unite (x, y)
      | 1 -> Workload.Op.Same_set (x, y)
      | _ -> Workload.Op.Find x)

(* --------------------------------------------------------------- native *)

let basic_tests =
  [
    case "singletons at creation" (fun () ->
        let d = Native.create ~seed:1 10 in
        check Alcotest.int "count" 10 (Native.count_sets d);
        check Alcotest.bool "not same" false (Native.same_set d 0 1);
        check Alcotest.bool "self same" true (Native.same_set d 3 3);
        check Alcotest.bool "root" true (Native.is_root d 4));
    case "unite then same_set" (fun () ->
        let d = Native.create ~seed:2 10 in
        Native.unite d 0 1;
        check Alcotest.bool "0~1" true (Native.same_set d 0 1);
        check Alcotest.bool "0!~2" false (Native.same_set d 0 2);
        check Alcotest.int "count" 9 (Native.count_sets d));
    case "transitive unions" (fun () ->
        let d = Native.create ~seed:3 10 in
        Native.unite d 0 1;
        Native.unite d 2 3;
        Native.unite d 1 2;
        check Alcotest.bool "0~3" true (Native.same_set d 0 3);
        check Alcotest.int "count" 7 (Native.count_sets d));
    case "unite is idempotent" (fun () ->
        let d = Native.create ~seed:4 5 in
        Native.unite d 0 1;
        Native.unite d 0 1;
        Native.unite d 1 0;
        check Alcotest.int "count" 4 (Native.count_sets d));
    case "unite with self is a no-op" (fun () ->
        let d = Native.create ~seed:5 5 in
        Native.unite d 2 2;
        check Alcotest.int "count" 5 (Native.count_sets d));
    case "find returns a root in the same set" (fun () ->
        let d = Native.create ~seed:6 8 in
        Native.unite d 0 1;
        Native.unite d 1 2;
        let r = Native.find d 0 in
        check Alcotest.bool "root" true (Native.is_root d r);
        check Alcotest.bool "same set" true (Native.same_set d r 2));
    case "n accessor" (fun () ->
        check Alcotest.int "n" 42 (Native.n (Native.create ~seed:7 42)));
    case "create rejects n < 1" (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Dsu_native.create: n must be >= 1") (fun () ->
            ignore (Native.create 0)));
    case "out-of-range nodes rejected" (fun () ->
        let d = Native.create ~seed:8 5 in
        Alcotest.check_raises "unite" (Invalid_argument "Dsu: node out of range")
          (fun () -> Native.unite d 0 5);
        Alcotest.check_raises "same_set" (Invalid_argument "Dsu: node out of range")
          (fun () -> ignore (Native.same_set d (-1) 0));
        Alcotest.check_raises "find" (Invalid_argument "Dsu: node out of range")
          (fun () -> ignore (Native.find d 5)));
    case "ids form a permutation" (fun () ->
        let n = 64 in
        let d = Native.create ~seed:9 n in
        let seen = Array.make n false in
        for i = 0 to n - 1 do
          let id = Native.id d i in
          check Alcotest.bool "range" true (id >= 0 && id < n);
          check Alcotest.bool "fresh" false seen.(id);
          seen.(id) <- true
        done);
    case "same seed gives same ids" (fun () ->
        let a = Native.create ~seed:10 32 and b = Native.create ~seed:10 32 in
        for i = 0 to 31 do
          check Alcotest.int (string_of_int i) (Native.id a i) (Native.id b i)
        done);
    case "n = 1 works" (fun () ->
        let d = Native.create ~seed:11 1 in
        check Alcotest.bool "self" true (Native.same_set d 0 0);
        Native.unite d 0 0;
        check Alcotest.int "count" 1 (Native.count_sets d));
  ]

let oracle_tests =
  List.map
    (fun ((policy, early) as v) ->
      case (Printf.sprintf "matches quick-find oracle (%s)" (variant_name v))
        (fun () ->
          let rng = Rng.create 123 in
          let n = 64 in
          let ops = random_ops rng ~n ~m:600 in
          let d, q = oracle_run ~policy ~early ~n ~ops ~seed:55 () in
          check Alcotest.int "count_sets" (Quick_find.count_sets q)
            (Native.count_sets d);
          check Alcotest.(list int) "no invariant violations" []
            (List.map fst (Native.invariant_violations d))))
    all_variants

let invariant_tests =
  [
    case "id-monotone parents after random run (Lemma 3.1)" (fun () ->
        List.iter
          (fun (policy, early) ->
            let rng = Rng.create 77 in
            let n = 256 in
            let d = Native.create ~policy ~early ~seed:14 n in
            Workload.Op.run_native d
              (Workload.Random_mix.mixed ~rng ~n ~m:2000 ~unite_fraction:0.5);
            check Alcotest.int (variant_name (policy, early)) 0
              (List.length (Native.invariant_violations d)))
          all_variants);
    case "parents_snapshot is acyclic" (fun () ->
        let rng = Rng.create 88 in
        let n = 128 in
        let d = Native.create ~seed:15 n in
        Workload.Op.run_native d (Workload.Random_mix.spanning_unites ~rng ~n);
        let parents = Native.parents_snapshot d in
        Array.iteri
          (fun i _ ->
            let u = ref i and hops = ref 0 in
            while parents.(!u) <> !u && !hops <= n do
              u := parents.(!u);
              incr hops
            done;
            check Alcotest.bool (string_of_int i) true (!hops <= n))
          parents);
    case "on_link reports every successful link exactly once" (fun () ->
        let n = 100 in
        let links = ref [] in
        let d =
          Native.create ~seed:16
            ~on_link:(fun ~child ~parent -> links := (child, parent) :: !links)
            n
        in
        let rng = Rng.create 99 in
        Workload.Op.run_native d (Workload.Random_mix.spanning_unites ~rng ~n);
        check Alcotest.int "n-1 links" (n - 1) (List.length !links);
        check Alcotest.int "single set" 1 (Native.count_sets d);
        List.iter
          (fun (child, parent) ->
            check Alcotest.bool "child differs" true (child <> parent);
            check Alcotest.bool "id increases" true
              (Native.id d child < Native.id d parent))
          !links);
  ]

let snapshot_tests =
  [
    case "sets returns the sorted partition" (fun () ->
        let d = Native.create ~seed:30 5 in
        Native.unite d 0 4;
        Native.unite d 1 2;
        check
          Alcotest.(list (list int))
          "sets"
          [ [ 0; 4 ]; [ 1; 2 ]; [ 3 ] ]
          (Native.sets d));
    case "snapshot/restore preserves the partition" (fun () ->
        let n = 60 in
        let d = Native.create ~seed:31 n in
        let rng = Rng.create 77 in
        Workload.Op.run_native d (Workload.Random_mix.random_pairs ~rng ~n ~m:100);
        let s = Native.snapshot d in
        let d' = Native.restore s in
        check Alcotest.(list (list int)) "partition" (Native.sets d) (Native.sets d');
        (* The restored structure remains fully usable. *)
        Native.unite d' 0 (n - 1);
        check Alcotest.bool "post-restore op" true (Native.same_set d' 0 (n - 1));
        check Alcotest.int "invariants" 0 (List.length (Native.invariant_violations d')));
    case "snapshot round-trips through a string" (fun () ->
        let n = 20 in
        let d = Native.create ~seed:32 n in
        Native.unite d 3 9;
        Native.unite d 9 15;
        let text = Native.snapshot_to_string (Native.snapshot d) in
        let d' = Native.restore (Native.snapshot_of_string text) in
        check Alcotest.(list (list int)) "partition" (Native.sets d) (Native.sets d'));
    case "restore validates its input" (fun () ->
        Alcotest.check_raises "perm"
          (Invalid_argument "Dsu_native.restore: ids are not a permutation")
          (fun () ->
            ignore
              (Native.snapshot_of_string "2 0 1 0 0" |> Native.restore));
        Alcotest.check_raises "order"
          (Invalid_argument "Dsu_native.restore: parents violate the linking order")
          (fun () ->
            (* node 0 (id 1) points at node 1 (id 0): order violated. *)
            ignore (Native.snapshot_of_string "2 1 1 1 0" |> Native.restore)));
    case "snapshot_of_string rejects malformed text" (fun () ->
        Alcotest.check_raises "count"
          (Invalid_argument "Dsu_native.snapshot_of_string: wrong field count")
          (fun () -> ignore (Native.snapshot_of_string "3 0 1"));
        Alcotest.check_raises "header"
          (Invalid_argument "Dsu_native.snapshot_of_string: bad header")
          (fun () -> ignore (Native.snapshot_of_string "zork 1 2")));
  ]

let stats_tests =
  [
    case "counters disabled by default" (fun () ->
        let d = Native.create ~seed:17 10 in
        Native.unite d 0 1;
        ignore (Native.same_set d 0 1);
        check Alcotest.int "unite calls" 0 (Native.stats d).Dsu.Stats.unite_calls);
    case "counters count calls" (fun () ->
        let d = Native.create ~collect_stats:true ~seed:18 10 in
        Native.unite d 0 1;
        Native.unite d 2 3;
        ignore (Native.same_set d 0 3);
        let s = Native.stats d in
        check Alcotest.int "unites" 2 s.Dsu.Stats.unite_calls;
        check Alcotest.int "same_sets" 1 s.Dsu.Stats.same_set_calls;
        check Alcotest.int "links" 2 s.Dsu.Stats.links;
        check Alcotest.bool "finds" true (s.Dsu.Stats.find_calls >= 5));
    case "links = n - count_sets" (fun () ->
        let n = 200 in
        let d = Native.create ~collect_stats:true ~seed:19 n in
        let rng = Rng.create 44 in
        Workload.Op.run_native d (Workload.Random_mix.random_pairs ~rng ~n ~m:300);
        let s = Native.stats d in
        check Alcotest.int "links" (n - Native.count_sets d) s.Dsu.Stats.links);
    case "reset_stats zeroes" (fun () ->
        let d = Native.create ~collect_stats:true ~seed:20 10 in
        Native.unite d 0 1;
        Native.reset_stats d;
        check Alcotest.int "zero" 0 (Native.stats d).Dsu.Stats.unite_calls);
    case "snapshot arithmetic" (fun () ->
        let open Dsu.Stats in
        let d = Native.create ~collect_stats:true ~seed:21 10 in
        Native.unite d 0 1;
        let s1 = Native.stats d in
        Native.unite d 2 3;
        let s2 = Native.stats d in
        let diff = sub s2 s1 in
        check Alcotest.int "delta unites" 1 diff.unite_calls;
        check Alcotest.int "add back" s2.unite_calls (add s1 diff).unite_calls;
        check Alcotest.bool "total_work positive" true (total_work s2 > 0));
  ]

(* ------------------------------------------------------------ simulator *)

let sim_partition_matches_oracle ~policy ~early ~sched ~n ~seed ops_per_proc =
  let spec = Sim.spec ~policy ~early ~n ~seed () in
  let h = Sim.handle spec in
  let bodies = Array.map (Workload.Op.to_sim_ops h) ops_per_proc in
  let outcome =
    Apram.Sim.run_ops ~mem_size:(Sim.mem_size spec) ~init:(Sim.init spec) ~sched
      bodies
  in
  let q = Quick_find.create n in
  Array.iter
    (fun ops ->
      List.iter
        (fun op ->
          match op with
          | Workload.Op.Unite (x, y) -> Quick_find.unite q x y
          | Workload.Op.Same_set _ | Workload.Op.Find _ -> ())
        ops)
    ops_per_proc;
  let got = Sim.sets_of_memory spec outcome.Apram.Sim.memory in
  check Alcotest.(list (list int)) "final partition" (Quick_find.classes q) got

let sim_tests =
  [
    case "final partition is schedule-independent" (fun () ->
        let rng = Rng.create 31 in
        let n = 24 in
        let ops =
          Array.init 3 (fun _ ->
              List.init 12 (fun _ ->
                  Workload.Op.Unite (Rng.int rng n, Rng.int rng n)))
        in
        List.iter
          (fun sched ->
            List.iter
              (fun (policy, early) ->
                sim_partition_matches_oracle ~policy ~early ~sched ~n ~seed:61 ops)
              all_variants)
          [
            Apram.Scheduler.round_robin ();
            Apram.Scheduler.sequential ();
            Apram.Scheduler.random ~seed:7;
            Apram.Scheduler.cas_adversary ~seed:8;
            Apram.Scheduler.laggard ~seed:9 ~victim:1 ~delay:6;
            Apram.Scheduler.quantum ~seed:10 ~quantum:4;
          ]);
    case "simulation is deterministic given seeds" (fun () ->
        let mk () =
          let rng = Rng.create 5 in
          let ops =
            Array.init 4 (fun _ ->
                List.init 20 (fun _ ->
                    Workload.Op.Unite (Rng.int rng 64, Rng.int rng 64)))
          in
          let r =
            Harness.Measure.run_sim ~policy:Policy.Two_try_splitting ~n:64 ~seed:3
              ~ops ()
          in
          (r.Harness.Measure.total_steps, Apram.Memory.snapshot r.Harness.Measure.memory)
        in
        let a = mk () and b = mk () in
        check Alcotest.int "steps" (fst a) (fst b);
        check Alcotest.(array int) "memory" (snd a) (snd b));
    case "sim id-monotonicity invariant holds in final memory" (fun () ->
        let rng = Rng.create 6 in
        let n = 64 in
        let spec = Sim.spec ~n ~seed:4 () in
        let h = Sim.handle spec in
        let ops =
          Array.init 4 (fun _ ->
              Workload.Op.to_sim_ops h
                (List.init 30 (fun _ ->
                     Workload.Op.Unite (Rng.int rng n, Rng.int rng n))))
        in
        let outcome =
          Apram.Sim.run_ops ~mem_size:n ~init:(Sim.init spec)
            ~sched:(Apram.Scheduler.cas_adversary ~seed:12) ops
        in
        let ids = spec.Sim.ids in
        for i = 0 to n - 1 do
          let p = Apram.Memory.peek outcome.Apram.Sim.memory i in
          check Alcotest.bool (string_of_int i) true (p = i || ids.(p) > ids.(i))
        done);
    case "same_set_op records results in history" (fun () ->
        let spec = Sim.spec ~n:4 ~seed:1 () in
        let h = Sim.handle spec in
        let ops =
          [| [ Sim.unite_op h 0 1; Sim.same_set_op h 0 1; Sim.same_set_op h 2 3 ] |]
        in
        let outcome =
          Apram.Sim.run_ops ~mem_size:4 ~init:(Sim.init spec)
            ~sched:(Apram.Scheduler.sequential ()) ops
        in
        let results =
          List.map
            (fun op -> (op.Apram.History.call.Apram.History.name, op.Apram.History.result))
            (Apram.History.complete_ops outcome.Apram.Sim.history)
        in
        check
          Alcotest.(list (pair string int))
          "history"
          [ ("unite", 0); ("same_set", 1); ("same_set", 0) ]
          results);
    case "wait-freedom under extreme starvation" (fun () ->
        let n = 16 in
        let spec = Sim.spec ~n ~seed:5 () in
        let h = Sim.handle spec in
        let victim_ops = [ Sim.same_set_op h 0 15 ] in
        let noise pid =
          List.init 40 (fun i -> Sim.unite_op h ((pid + i) mod n) (pid * i mod n))
        in
        let ops = [| victim_ops; noise 1; noise 2; noise 3 |] in
        let outcome =
          Apram.Sim.run_ops ~mem_size:n ~init:(Sim.init spec)
            ~sched:(Apram.Scheduler.laggard ~seed:33 ~victim:0 ~delay:50) ops
        in
        let victim_completed =
          List.exists
            (fun op -> op.Apram.History.pid = 0)
            (Apram.History.complete_ops outcome.Apram.Sim.history)
        in
        check Alcotest.bool "victim completed" true victim_completed);
    case "spec validates ids length" (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Dsu_sim.spec: ids length mismatch") (fun () ->
            ignore (Sim.spec ~ids:[| 0; 1 |] ~n:3 ~seed:1 ())));
    case "roots_of_memory resolves chains" (fun () ->
        let spec = Sim.spec ~n:4 ~ids:[| 0; 1; 2; 3 |] ~seed:1 () in
        let m = Apram.Memory.create 4 (fun i -> i) in
        Apram.Memory.poke m 0 1;
        Apram.Memory.poke m 1 2;
        let roots = Sim.roots_of_memory spec m in
        check Alcotest.(array int) "roots" [| 2; 2; 2; 3 |] roots);
  ]

(* Linking by rank in the simulator: the folded functor over the packed
   view of the simulator memory, so the model checker below reaches every
   interleaving of the rank read, the link CAS and the promotion CAS. *)
module Packed_sim =
  Dsu.Algorithm.Make
    (Dsu.Packed.View (Dsu.Sim.Memory))
    (Dsu.Packed.By_rank (Dsu.Sim.Memory))

let packed_sim ~policy ~n =
  Packed_sim.create ~policy ~mem:() ~n
    ~prio:(fun i -> Dsu.Packed.rank_of_word (Dsu.Sim.Memory.read () i))
    ()

let packed_unite_op h x y () =
  Apram.Process.record_invoke ~name:"unite" ~args:[ x; y ];
  Packed_sim.unite h x y;
  Apram.Process.record_return 0

let packed_same_set_op h x y () =
  Apram.Process.record_invoke ~name:"same_set" ~args:[ x; y ];
  let r = Packed_sim.same_set h x y in
  Apram.Process.record_return (if r then 1 else 0)

(* Post-mortem over the final words: every node's root, and whether every
   word keeps the (rank, index) order and a root flag that agrees with
   its parent field. *)
let packed_words memory n = Array.init n (Apram.Memory.peek memory)

let packed_roots words =
  let rec root u =
    let w = words.(u) in
    if Dsu.Packed.is_root_word w then u else root (Dsu.Packed.parent_of_word w)
  in
  Array.init (Array.length words) root

let packed_order_ok words =
  let ok = ref true in
  Array.iteri
    (fun i w ->
      let p = Dsu.Packed.parent_of_word w and r = Dsu.Packed.rank_of_word w in
      if Dsu.Packed.is_root_word w then (if p <> i then ok := false)
      else begin
        let rp = Dsu.Packed.rank_of_word words.(p) in
        if p = i || not (r < rp || (r = rp && i < p)) then ok := false
      end)
    words;
  !ok

(* Exhaustive interleaving check: two processes, all 2^k prefixes of
   schedules of a fixed workload, every policy.  The custom scheduler
   consumes a bit string (bit = which process steps next, falling back to
   whoever is runnable). *)
let exhaustive_tests =
  [
    case "every schedule of unite || same_set linearizes (full enumeration)"
      (fun () ->
        (* The fundamental race, verified over the complete schedule tree
           (not a sample): one process unites 0 and 1 while another queries
           them, for every policy.  Apram.Explore enumerates every
           interleaving. *)
        List.iter
          (fun policy ->
            let spec = Sim.spec ~policy ~n:3 ~seed:4 () in
            let make_ops () =
              let h = Sim.handle spec in
              [| [ Sim.unite_op h 0 1 ]; [ Sim.same_set_op h 0 1 ] |]
            in
            match
              Apram.Explore.run_all ~max_schedules:500_000 ~mem_size:3
                ~init:(Sim.init spec) ~make_ops
                ~check:(fun o ->
                  Lincheck.Checker.check ~n:3 o.Apram.Sim.history
                  = Lincheck.Checker.Linearizable)
                ()
            with
            | Ok s ->
              check Alcotest.bool
                (Printf.sprintf "%s complete" (Policy.to_string policy))
                false s.Apram.Explore.truncated;
              check Alcotest.bool "several schedules" true
                (s.Apram.Explore.schedules > 10)
            | Error v ->
              Alcotest.failf "policy %s, schedule %d not linearizable"
                (Policy.to_string policy) v.Apram.Explore.schedule_index)
          Policy.all);
    case "every schedule of racing unites yields the correct partition"
      (fun () ->
        (* unite(0,1) racing unite(1,2): whatever the interleaving, the
           final partition must be {0,1,2}. *)
        List.iter
          (fun policy ->
            let spec = Sim.spec ~policy ~n:3 ~seed:9 () in
            let make_ops () =
              let h = Sim.handle spec in
              [| [ Sim.unite_op h 0 1 ]; [ Sim.unite_op h 1 2 ] |]
            in
            match
              Apram.Explore.run_all ~max_schedules:500_000 ~mem_size:3
                ~init:(Sim.init spec) ~make_ops
                ~check:(fun o ->
                  Sim.sets_of_memory spec o.Apram.Sim.memory = [ [ 0; 1; 2 ] ])
                ()
            with
            | Ok s ->
              check Alcotest.bool
                (Printf.sprintf "%s complete" (Policy.to_string policy))
                false s.Apram.Explore.truncated
            | Error v ->
              Alcotest.failf "policy %s, schedule %d wrong partition"
                (Policy.to_string policy) v.Apram.Explore.schedule_index)
          Policy.all);
    case "packed: every schedule of unite || same_set linearizes" (fun () ->
        List.iter
          (fun policy ->
            let make_ops () =
              let h = packed_sim ~policy ~n:3 in
              [| [ packed_unite_op h 0 1 ]; [ packed_same_set_op h 0 1 ] |]
            in
            match
              Apram.Explore.run_all ~max_schedules:500_000 ~mem_size:3
                ~init:Dsu.Packed.init_word ~make_ops
                ~check:(fun o ->
                  Lincheck.Checker.check ~n:3 o.Apram.Sim.history
                  = Lincheck.Checker.Linearizable)
                ()
            with
            | Ok s ->
              check Alcotest.bool
                (Printf.sprintf "%s complete" (Policy.to_string policy))
                false s.Apram.Explore.truncated;
              check Alcotest.bool "several schedules" true
                (s.Apram.Explore.schedules > 10)
            | Error v ->
              Alcotest.failf "policy %s, schedule %d not linearizable"
                (Policy.to_string policy) v.Apram.Explore.schedule_index)
          Policy.all);
    case "packed: every schedule of racing unites keeps the rank order"
      (fun () ->
        (* unite(0,1) racing unite(1,2) from all-rank-0 roots: every link
           is a rank tie, so the promotion CAS races the other link. *)
        List.iter
          (fun policy ->
            let promoted = ref false in
            let make_ops () =
              let h = packed_sim ~policy ~n:3 in
              [| [ packed_unite_op h 0 1 ]; [ packed_unite_op h 1 2 ] |]
            in
            match
              Apram.Explore.run_all ~max_schedules:500_000 ~mem_size:3
                ~init:Dsu.Packed.init_word ~make_ops
                ~check:(fun o ->
                  let words = packed_words o.Apram.Sim.memory 3 in
                  if Array.exists (fun w -> Dsu.Packed.rank_of_word w > 0) words
                  then promoted := true;
                  let roots = packed_roots words in
                  roots.(0) = roots.(1) && roots.(1) = roots.(2)
                  && packed_order_ok words)
                ()
            with
            | Ok s ->
              check Alcotest.bool
                (Printf.sprintf "%s complete" (Policy.to_string policy))
                false s.Apram.Explore.truncated;
              check Alcotest.bool "a promotion landed" true !promoted
            | Error v ->
              Alcotest.failf "policy %s, schedule %d: wrong partition or order"
                (Policy.to_string policy) v.Apram.Explore.schedule_index)
          Policy.all);
    case "all interleavings of a 2-process workload linearize" (fun () ->
        let n = 4 in
        let bits = 12 in
        for mask = 0 to (1 lsl bits) - 1 do
          List.iter
            (fun policy ->
              let spec = Sim.spec ~policy ~n ~seed:2 () in
              let h = Sim.handle spec in
              let ops =
                [|
                  [ Sim.unite_op h 0 1; Sim.same_set_op h 0 2 ];
                  [ Sim.unite_op h 1 2; Sim.same_set_op h 0 1 ];
                |]
              in
              let pos = ref 0 in
              let sched =
                Apram.Scheduler.custom ~name:"bits" (fun ~memory:_ pending ->
                    let bit = if !pos < bits then (mask lsr !pos) land 1 else 0 in
                    incr pos;
                    let want = if bit = 1 then 1 else 0 in
                    match
                      List.find_opt (fun p -> p.Apram.Scheduler.pid = want) pending
                    with
                    | Some p -> p.Apram.Scheduler.pid
                    | None -> (List.hd pending).Apram.Scheduler.pid)
              in
              let outcome =
                Apram.Sim.run_ops ~mem_size:n ~init:(Sim.init spec) ~sched ops
              in
              match Lincheck.Checker.check ~n outcome.Apram.Sim.history with
              | Lincheck.Checker.Linearizable -> ()
              | Lincheck.Checker.Not_linearizable msg ->
                Alcotest.fail
                  (Printf.sprintf "mask %d policy %s: %s" mask
                     (Policy.to_string policy) msg))
            Policy.all
        done);
  ]

(* ------------------------------------------------- memory-order modes *)

(* Every (memory_order, policy) combination must agree with the oracle and
   keep the forest invariants — the tuned read paths change no answers. *)
let memory_order_tests =
  List.concat_map
    (fun memory_order ->
      List.map
        (fun ((policy, early) as v) ->
          case
            (Printf.sprintf "oracle agreement under %s (%s)"
               (Dsu.Memory_order.to_string memory_order)
               (variant_name v))
            (fun () ->
              let rng = Rng.create 321 in
              let n = 64 in
              let ops = random_ops rng ~n ~m:600 in
              let d, q =
                oracle_run ~memory_order ~policy ~early ~n ~ops ~seed:77 ()
              in
              check Alcotest.int "count_sets" (Quick_find.count_sets q)
                (Native.count_sets d);
              check
                Alcotest.(list int)
                "no invariant violations" []
                (List.map fst (Native.invariant_violations d))))
        all_variants)
    Dsu.Memory_order.all
  @ [
      case "memory_order accessor reports the requested mode" (fun () ->
          List.iter
            (fun o ->
              let d = Native.create ~memory_order:o ~seed:1 8 in
              check Alcotest.bool
                (Dsu.Memory_order.to_string o)
                true
                (Dsu.Memory_order.equal o (Native.memory_order d)))
            Dsu.Memory_order.all;
          let d = Native.create ~seed:1 8 in
          check Alcotest.bool "default" true
            (Dsu.Memory_order.equal Dsu.Memory_order.default
               (Native.memory_order d)));
    ]

(* ------------------------------------- spurious weak-CAS failure model *)

(* A memory whose weak CAS fails spuriously (seeded, 25% of attempts) on
   top of the real flat array.  Two-try splitting's semantics must be
   unaffected: a spurious splitting failure is exactly a failed try, which
   Algorithms 4/5 already tolerate. *)
module Flaky_memory = struct
  type t = {
    inner : Dsu.Native_memory.t;
    rng : Rng.t;
    mutable spurious : int;
    mutable attempts : int;
  }

  let read t i = Dsu.Native_memory.read t.inner i
  let cas t i e d = Dsu.Native_memory.cas t.inner i e d

  let cas_weak t i e d =
    t.attempts <- t.attempts + 1;
    if Rng.int t.rng 4 = 0 then begin
      t.spurious <- t.spurious + 1;
      false
    end
    else Dsu.Native_memory.cas_weak t.inner i e d

  let prefetch t i = Dsu.Native_memory.prefetch t.inner i
end

module Flaky =
  Dsu.Algorithm.Make (Flaky_memory) (Dsu.Algorithm.By_id (Flaky_memory))

let flaky_tests =
  let make_flaky ~policy ~early ~n ~seed =
    let rng = Rng.create seed in
    let prios = Array.init n (fun _ -> Rng.int rng (n * n)) in
    let mem =
      {
        Flaky_memory.inner = Dsu.Native_memory.make n (fun i -> i);
        rng = Rng.create (seed + 1);
        spurious = 0;
        attempts = 0;
      }
    in
    (Flaky.create ~policy ~early ~mem ~n ~prio:(fun i -> prios.(i)) (), mem)
  in
  List.map
    (fun ((policy, early) as v) ->
      case
        (Printf.sprintf "spurious cas_weak failures preserve semantics (%s)"
           (variant_name v))
        (fun () ->
          let n = 64 in
          let d, mem = make_flaky ~policy ~early ~n ~seed:91 in
          let q = Quick_find.create n in
          let rng = Rng.create 92 in
          List.iter
            (fun op ->
              match op with
              | Workload.Op.Unite (x, y) ->
                Flaky.unite d x y;
                Quick_find.unite q x y
              | Workload.Op.Same_set (x, y) ->
                check Alcotest.bool
                  (Printf.sprintf "same_set %d %d" x y)
                  (Quick_find.same_set q x y) (Flaky.same_set d x y)
              | Workload.Op.Find x ->
                let r = Flaky.find d x in
                check Alcotest.bool "find lands in own class" true
                  (Quick_find.same_set q x r))
            (random_ops rng ~n ~m:800);
          check Alcotest.int "count_sets" (Quick_find.count_sets q)
            (Flaky.count_sets d);
          check
            Alcotest.(list int)
            "no invariant violations" []
            (List.map fst (Flaky.invariant_violations d));
          (* The test only means something if splitting actually went
             through the weak CAS and failures actually fired. *)
          if policy <> Policy.No_compaction then begin
            check Alcotest.bool "weak CAS attempted" true
              (mem.Flaky_memory.attempts > 0);
            check Alcotest.bool "spurious failures injected" true
              (mem.Flaky_memory.spurious > 0)
          end))
    all_variants

(* ---------------------------------------------------------- bulk kernels *)

let batch_tests =
  [
    case "unite_batch equals the per-op loop" (fun () ->
        let n = 256 and m = 500 in
        let rng = Rng.create 131 in
        let xs = Array.init m (fun _ -> Rng.int rng n) in
        let ys = Array.init m (fun _ -> Rng.int rng n) in
        let db = Native.create ~seed:17 n in
        let dp = Native.create ~seed:17 n in
        Native.unite_batch db xs ys;
        for k = 0 to m - 1 do
          Native.unite dp xs.(k) ys.(k)
        done;
        check Alcotest.int "count_sets" (Native.count_sets dp)
          (Native.count_sets db);
        for x = 0 to n - 1 do
          check Alcotest.bool (string_of_int x) true
            (Native.same_set dp x 0 = Native.same_set db x 0)
        done;
        check
          Alcotest.(list int)
          "no invariant violations" []
          (List.map fst (Native.invariant_violations db)));
    case "same_set_batch answers match the oracle" (fun () ->
        let n = 256 in
        let rng = Rng.create 137 in
        let d = Native.create ~seed:19 n in
        let q = Quick_find.create n in
        for _ = 1 to 300 do
          let x = Rng.int rng n and y = Rng.int rng n in
          Native.unite d x y;
          Quick_find.unite q x y
        done;
        let m = 400 in
        let xs = Array.init m (fun _ -> Rng.int rng n) in
        let ys = Array.init m (fun _ -> Rng.int rng n) in
        let got = Native.same_set_batch d xs ys in
        check Alcotest.int "answer count" m (Array.length got);
        Array.iteri
          (fun k ans ->
            check Alcotest.bool
              (Printf.sprintf "pair %d" k)
              (Quick_find.same_set q xs.(k) ys.(k))
              ans)
          got);
    case "batch kernels respect early-termination structures" (fun () ->
        (* Kernels use the plain rounds regardless of ~early; answers must
           still agree with the oracle on an early-termination handle. *)
        let n = 128 in
        let rng = Rng.create 139 in
        let d = Native.create ~early:true ~seed:23 n in
        let q = Quick_find.create n in
        let m = 200 in
        let xs = Array.init m (fun _ -> Rng.int rng n) in
        let ys = Array.init m (fun _ -> Rng.int rng n) in
        Native.unite_batch d xs ys;
        Array.iteri (fun k x -> Quick_find.unite q x ys.(k)) xs;
        let got = Native.same_set_batch d xs ys in
        Array.iteri
          (fun k ans ->
            check Alcotest.bool
              (Printf.sprintf "pair %d" k)
              (Quick_find.same_set q xs.(k) ys.(k))
              ans)
          got);
    case "empty batches are no-ops" (fun () ->
        let d = Native.create ~seed:29 8 in
        Native.unite_batch d [||] [||];
        check Alcotest.int "answers" 0
          (Array.length (Native.same_set_batch d [||] [||]));
        check Alcotest.int "count" 8 (Native.count_sets d));
    case "length mismatch and range errors rejected" (fun () ->
        let d = Native.create ~seed:31 8 in
        Alcotest.check_raises "unite_batch mismatch"
          (Invalid_argument "Dsu.unite_batch: endpoint arrays differ in length")
          (fun () -> Native.unite_batch d [| 0 |] [| 1; 2 |]);
        Alcotest.check_raises "same_set_batch mismatch"
          (Invalid_argument
             "Dsu.same_set_batch: endpoint arrays differ in length") (fun () ->
            ignore (Native.same_set_batch d [| 0; 1 |] [| 1 |]));
        Alcotest.check_raises "out of range"
          (Invalid_argument "Dsu: node out of range") (fun () ->
            Native.unite_batch d [| 0 |] [| 8 |]);
        (* Validation happens before any mutation. *)
        check Alcotest.int "untouched" 8 (Native.count_sets d));
    case "batched op runner equals the plain runner" (fun () ->
        let n = 128 in
        let rng = Rng.create 149 in
        (* Long same-kind runs (so the kernels actually engage) mixed with
           alternating stretches and finds (so the fallback engages too). *)
        let ops =
          Array.concat
            [
              Array.init 100 (fun _ ->
                  Workload.Op.Unite (Rng.int rng n, Rng.int rng n));
              Array.init 100 (fun _ ->
                  Workload.Op.Same_set (Rng.int rng n, Rng.int rng n));
              Array.init 100 (fun _ ->
                  match Rng.int rng 3 with
                  | 0 -> Workload.Op.Unite (Rng.int rng n, Rng.int rng n)
                  | 1 -> Workload.Op.Same_set (Rng.int rng n, Rng.int rng n)
                  | _ -> Workload.Op.Find (Rng.int rng n));
            ]
        in
        let da = Native.create ~seed:37 n in
        let db = Native.create ~seed:37 n in
        Workload.Op.run_native_array da ops;
        Workload.Op.run_native_array_batched db ops;
        check Alcotest.int "count_sets" (Native.count_sets da)
          (Native.count_sets db);
        for x = 0 to n - 1 do
          check Alcotest.bool (string_of_int x) true
            (Native.same_set da x 0 = Native.same_set db x 0)
        done);
  ]

(* ---------------------------------------------------- allocation parity *)

(* Both linking rules run the same find loops and rounds, so packed [find]
   and [unite] must allocate what flat does, up to the link step: within
   [alloc_slack] minor words per operation, for every policy.  Measured
   over 2^16 random operations at n = 2^16. *)
let alloc_slack = 2.0

let words_per_op ops f =
  let before = Gc.minor_words () in
  for k = 0 to Array.length ops - 1 do
    f (Array.unsafe_get ops k)
  done;
  (Gc.minor_words () -. before) /. float_of_int (Array.length ops)

let alloc_n = 1 lsl 16

let alloc_pairs, alloc_nodes =
  let rng = Rng.create 2016 in
  let node _ = Rng.int rng alloc_n in
  let pairs = Array.init alloc_n (fun _ -> (node (), node ())) in
  (pairs, Array.init alloc_n node)

let parity_tests =
  List.map
    (fun policy ->
      case
        (Printf.sprintf "packed allocates like flat (%s)"
           (Policy.to_string policy))
        (fun () ->
          let flat = Native.create ~policy ~seed:7 alloc_n in
          let packed = Dsu.Packed.Native.create ~policy alloc_n in
          let flat_unite =
            words_per_op alloc_pairs (fun (x, y) -> Native.unite flat x y)
          in
          let packed_unite =
            words_per_op alloc_pairs (fun (x, y) ->
                Dsu.Packed.Native.unite packed x y)
          in
          let flat_find =
            words_per_op alloc_nodes (fun x -> ignore (Native.find flat x : int))
          in
          let packed_find =
            words_per_op alloc_nodes (fun x ->
                ignore (Dsu.Packed.Native.find packed x : int))
          in
          let within what f p =
            if Float.abs (p -. f) > alloc_slack then
              Alcotest.failf "%s: packed %.1f vs flat %.1f minor words/op" what
                p f
          in
          within "unite" flat_unite packed_unite;
          within "find" flat_find packed_find))
    Policy.all

(* The kernel's loops and rounds are closure-free, so an operation through
   [Dsu.Driver] allocates nothing, on both layouts, under every policy but
   compression: unites, then same_sets, then finds over the random pairs
   and nodes above, each under [zero_words] per op.  Compression records
   its find path as a list, the algorithm's own data; it is held to the
   words it allocated when the loops were recursive closures (unite,
   same_set, find: flat 60.33, 58.76, 23.02; packed 59.39, 58.77, 23.03). *)
let zero_words = 0.01

let driver_alloc_tests =
  List.concat_map
    (fun (layout, compression_words) ->
      List.map
        (fun policy ->
          let layout_name = Dsu.Plan.layout_to_string layout in
          let compression = policy = Policy.Compression in
          let name =
            if compression then
              Printf.sprintf "compression allocates no more than recorded (%s)"
                layout_name
            else
              Printf.sprintf "driver ops allocate nothing (%s, %s)" layout_name
                (Policy.to_string policy)
          in
          case name (fun () ->
              let plan = { Dsu.Plan.default with layout; compaction = policy } in
              let d = Dsu.Driver.create ~plan ~seed:7 alloc_n in
              let unite =
                words_per_op alloc_pairs (fun (x, y) -> Dsu.Driver.unite d x y)
              in
              let same_set =
                words_per_op alloc_pairs (fun (x, y) ->
                    ignore (Dsu.Driver.same_set d x y : bool))
              in
              let find =
                words_per_op alloc_nodes (fun x ->
                    ignore (Dsu.Driver.find d x : int))
              in
              List.iter2
                (fun (what, words) recorded ->
                  if compression then begin
                    if words > recorded then
                      Alcotest.failf
                        "%s allocates %.2f minor words/op (%.2f recorded)" what
                        words recorded
                  end
                  else if not (words < zero_words) then
                    Alcotest.failf "%s allocates %.2f minor words/op" what words)
                [ ("unite", unite); ("same_set", same_set); ("find", find) ]
                compression_words))
        Policy.all)
    [
      (Dsu.Plan.Flat, [ 60.33; 58.76; 23.02 ]);
      (Dsu.Plan.Packed, [ 59.39; 58.77; 23.03 ]);
    ]

let alloc_tests = parity_tests @ driver_alloc_tests

let () =
  Alcotest.run "dsu"
    [
      ("basics", basic_tests);
      ("oracle", oracle_tests);
      ("invariants", invariant_tests);
      ("snapshot", snapshot_tests);
      ("stats", stats_tests);
      ("memory_order", memory_order_tests);
      ("flaky_cas", flaky_tests);
      ("batch", batch_tests);
      ("simulator", sim_tests);
      ("exhaustive", exhaustive_tests);
      ("alloc", alloc_tests);
    ]
