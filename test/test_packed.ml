(* Tests for the bit-packed single-word (rank, parent, root-bit) layout
   (Dsu.Packed) and the first-class plan space (Dsu.Plan). *)

module Packed = Dsu.Packed
module Plan = Dsu.Plan
module Policy = Dsu.Find_policy
module Quick_find = Sequential.Quick_find
module Rng = Repro_util.Rng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ----------------------------------------------------------- word layout *)

let word_tests =
  [
    case "field widths fit one 63-bit OCaml int" (fun () ->
        check Alcotest.bool "parent + rank + root bit <= 62" true
          (Packed.parent_bits + Packed.rank_bits + 1 <= 62);
        check Alcotest.int "max_nodes" (1 lsl Packed.parent_bits)
          Packed.max_nodes;
        check Alcotest.int "max_rank" ((1 lsl Packed.rank_bits) - 1)
          Packed.max_rank);
    case "root/child words pack and unpack exactly" (fun () ->
        let probes =
          [ (0, 0); (1, 1); (7, 41); (Packed.max_rank, Packed.max_nodes - 1) ]
        in
        List.iter
          (fun (rank, node) ->
            let w = Packed.root_word ~rank ~node in
            check Alcotest.bool "root flag" true (Packed.is_root_word w);
            check Alcotest.int "rank" rank (Packed.rank_of_word w);
            check Alcotest.int "parent field" node (Packed.parent_of_word w);
            let c = Packed.child_word ~rank ~parent:node in
            check Alcotest.bool "child not root" false (Packed.is_root_word c);
            check Alcotest.int "child rank" rank (Packed.rank_of_word c);
            check Alcotest.int "child parent" node (Packed.parent_of_word c))
          probes);
    case "init_word is a rank-0 self-root" (fun () ->
        let w = Packed.init_word 19 in
        check Alcotest.bool "root" true (Packed.is_root_word w);
        check Alcotest.int "rank 0" 0 (Packed.rank_of_word w);
        check Alcotest.int "parent self" 19 (Packed.parent_of_word w));
    case "create bounds-checks n" (fun () ->
        List.iter
          (fun n ->
            match Packed.Native.create n with
            | _ -> Alcotest.fail (Printf.sprintf "accepted n=%d" n)
            | exception Invalid_argument _ -> ())
          [ 0; -1; Packed.max_nodes + 1 ]);
  ]

(* -------------------------------------------------------------- semantics *)

let oracle_mix ~policy ~n ~ops ~seed =
  let d = Packed.Native.create ~policy n in
  let q = Quick_find.create n in
  let rng = Rng.create seed in
  for _ = 1 to ops do
    let x = Rng.int rng n and y = Rng.int rng n in
    if Rng.bool rng then begin
      Packed.Native.unite d x y;
      Quick_find.unite q x y
    end
    else
      check Alcotest.bool "query" (Quick_find.same_set q x y)
        (Packed.Native.same_set d x y)
  done;
  check Alcotest.int "count" (Quick_find.count_sets q)
    (Packed.Native.count_sets d);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "invariants" []
    (Packed.Native.invariant_violations d)

let native_tests =
  [
    case "singletons at creation" (fun () ->
        let d = Packed.Native.create 8 in
        check Alcotest.int "count" 8 (Packed.Native.count_sets d);
        check Alcotest.bool "apart" false (Packed.Native.same_set d 0 1);
        check Alcotest.bool "root" true (Packed.Native.is_root d 5);
        check Alcotest.int "rank 0" 0 (Packed.Native.rank_of d 0));
    case "unite and transitivity" (fun () ->
        let d = Packed.Native.create 8 in
        Packed.Native.unite d 0 1;
        Packed.Native.unite d 1 2;
        check Alcotest.bool "0~2" true (Packed.Native.same_set d 0 2);
        check Alcotest.int "count" 6 (Packed.Native.count_sets d));
    case "rank tie promotes the winner" (fun () ->
        let d = Packed.Native.create 4 in
        Packed.Native.unite d 0 1;
        let root = Packed.Native.find d 0 in
        check Alcotest.int "winner rank" 1 (Packed.Native.rank_of d root));
    case "matches quick-find oracle under every policy" (fun () ->
        List.iter
          (fun policy -> oracle_mix ~policy ~n:64 ~ops:800 ~seed:7)
          Policy.all);
    case "ranks are bounded by lg n" (fun () ->
        let n = 256 in
        let d = Packed.Native.create n in
        let rng = Rng.create 3 in
        for _ = 1 to 4 * n do
          Packed.Native.unite d (Rng.int rng n) (Rng.int rng n)
        done;
        for i = 0 to n - 1 do
          check Alcotest.bool (string_of_int i) true
            (Packed.Native.rank_of d i <= 8)
        done);
    case "adversarial chain stays logarithmic" (fun () ->
        let n = 1 lsl 10 in
        let d = Packed.Native.create ~policy:Policy.No_compaction n in
        for i = 0 to n - 2 do
          Packed.Native.unite d i (i + 1)
        done;
        let max_depth = ref 0 in
        for i = 0 to n - 1 do
          let u = ref i and depth = ref 0 in
          while Packed.Native.parent_of d !u <> !u do
            u := Packed.Native.parent_of d !u;
            incr depth
          done;
          max_depth := max !max_depth !depth
        done;
        check Alcotest.bool "height <= lg n" true (!max_depth <= 10));
    case "out-of-range rejected" (fun () ->
        let d = Packed.Native.create 4 in
        match Packed.Native.find d 4 with
        | _ -> Alcotest.fail "accepted an out-of-range node"
        | exception Invalid_argument _ -> ());
    case "stats count links" (fun () ->
        let d = Packed.Native.create ~collect_stats:true 16 in
        for i = 0 to 14 do
          Packed.Native.unite d i (i + 1)
        done;
        check Alcotest.int "links" 15 (Packed.Native.stats d).Dsu.Stats.links);
    case "batch kernels agree with the per-op loop" (fun () ->
        let n = 512 in
        let rng = Rng.create 23 in
        let count = 2 * n in
        let xs = Array.init count (fun _ -> Rng.int rng n) in
        let ys = Array.init count (fun _ -> Rng.int rng n) in
        let a = Packed.Native.create n and b = Packed.Native.create n in
        Packed.Native.unite_batch a xs ys;
        Array.iteri (fun k x -> Packed.Native.unite b x ys.(k)) xs;
        let qx = Array.init 256 (fun _ -> Rng.int rng n) in
        let qy = Array.init 256 (fun _ -> Rng.int rng n) in
        let ra = Packed.Native.same_set_batch a qx qy in
        Array.iteri
          (fun k x ->
            check Alcotest.bool
              (Printf.sprintf "query %d" k)
              (Packed.Native.same_set b x qy.(k))
              ra.(k))
          qx;
        check Alcotest.int "same partition" (Packed.Native.count_sets b)
          (Packed.Native.count_sets a));
    case "parallel domains agree with oracle" (fun () ->
        let n = 300 in
        let d = Packed.Native.create n in
        let per_domain = 1500 in
        let worker k () =
          let rng = Rng.create (400 + k) in
          for _ = 1 to per_domain do
            Packed.Native.unite d (Rng.int rng n) (Rng.int rng n)
          done
        in
        let handles = List.init 4 (fun k -> Domain.spawn (worker k)) in
        List.iter Domain.join handles;
        let q = Quick_find.create n in
        for k = 0 to 3 do
          let rng = Rng.create (400 + k) in
          for _ = 1 to per_domain do
            Quick_find.unite q (Rng.int rng n) (Rng.int rng n)
          done
        done;
        check Alcotest.int "count" (Quick_find.count_sets q)
          (Packed.Native.count_sets d);
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "invariants hold after concurrency" []
          (Packed.Native.invariant_violations d));
    case "of_snapshot round-trips and validates" (fun () ->
        let n = 64 in
        let d = Packed.Native.create n in
        let rng = Rng.create 11 in
        for _ = 1 to 200 do
          Packed.Native.unite d (Rng.int rng n) (Rng.int rng n)
        done;
        let parents = Packed.Native.parents_snapshot d in
        let ranks = Packed.Native.ranks_snapshot d in
        let d' = Packed.Native.of_snapshot ~parents ~ranks () in
        for x = 0 to n - 1 do
          check Alcotest.bool (string_of_int x)
            (Packed.Native.same_set d 0 x)
            (Packed.Native.same_set d' 0 x)
        done;
        (* and the constructor rejects garbage *)
        let bad_parent = Array.copy parents in
        bad_parent.(0) <- n;
        (match Packed.Native.of_snapshot ~parents:bad_parent ~ranks () with
        | _ -> Alcotest.fail "accepted an out-of-range parent"
        | exception Invalid_argument _ -> ());
        let bad_rank = Array.copy ranks in
        bad_rank.(0) <- Packed.max_rank + 1;
        match Packed.Native.of_snapshot ~parents ~ranks:bad_rank () with
        | _ -> Alcotest.fail "accepted an oversized rank"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ plans *)

(* The whole plan space: every compaction x memory order x layout. *)
let all_plans =
  List.concat_map
    (fun compaction ->
      List.concat_map
        (fun memory_order ->
          List.map
            (fun layout -> { Plan.compaction; memory_order; layout })
            [ Plan.Flat; Plan.Packed ])
        Dsu.Memory_order.all)
    Dsu.Find_policy.all

let plan_tests =
  [
    case "default plan spells itself" (fun () ->
        check Alcotest.string "spec" "two-try:relaxed-reads:flat"
          (Plan.to_string Plan.default));
    case "of_string round-trips all 30 plans" (fun () ->
        let specs = List.map Plan.to_string all_plans in
        check Alcotest.int "distinct specs" 30
          (List.length (List.sort_uniq String.compare specs));
        List.iter
          (fun p ->
            match Plan.of_string (Plan.to_string p) with
            | Ok p' ->
              check Alcotest.bool "equal after round-trip" true (Plan.equal p p')
            | Error e -> Alcotest.fail e)
          all_plans);
    case "\"auto\" is not a plan spec" (fun () ->
        match Plan.of_string "auto" with
        | Error _ -> ()
        | Ok p -> Alcotest.fail ("parsed \"auto\" as " ^ Plan.to_string p));
    case "retired layouts are rejected" (fun () ->
        let rejected s =
          match Plan.of_string s with Ok _ -> false | Error _ -> true
        in
        check Alcotest.bool "flat-padded" true
          (rejected "two-try:relaxed-reads:flat-padded");
        check Alcotest.bool "padded" true (rejected "two-try:relaxed-reads:padded");
        check Alcotest.bool "growable is not a plan layout" true
          (rejected "two-try:relaxed-reads:growable"));
    case "malformed specs name the bad field" (fun () ->
        let err s =
          match Plan.of_string s with
          | Error e -> e
          | Ok _ -> Alcotest.fail ("accepted " ^ s)
        in
        check Alcotest.bool "too few fields" true
          (String.length (err "two-try:flat") > 0);
        check Alcotest.string "bad compaction"
          "bad plan compaction rule \"sideways\" in \"sideways:relaxed-reads:flat\""
          (err "sideways:relaxed-reads:flat");
        check Alcotest.string "bad order"
          "bad plan memory order \"weak\" in \"two-try:weak:flat\""
          (err "two-try:weak:flat"));
    case "a five-field spec names the three-field grammar" (fun () ->
        (* The linking rule and the backoff switch are no longer fields:
           the layout fixes the one and the other is always on. *)
        check
          Alcotest.(result reject string)
          "five fields"
          (Error
             "bad plan spec \"rand:two-try:relaxed-reads:on:flat\" (want \
              compaction:order:layout, e.g. \"two-try:relaxed-reads:flat\")")
          (Result.map ignore (Plan.of_string "rand:two-try:relaxed-reads:on:flat")));
    case "every plan runs through the scalability harness" (fun () ->
        let config =
          {
            Harness.Scalability.default_config with
            Harness.Scalability.n = 128;
            total_ops = 1_000;
          }
        in
        List.iter
          (fun plan ->
            let p = Harness.Scalability.run_point ~config ~plan ~domains:1 () in
            check Alcotest.bool (Plan.to_string plan ^ " clean") true
              (p.Harness.Scalability.failures = []))
          all_plans);
  ]

let () =
  Alcotest.run "packed_dsu"
    [ ("word", word_tests); ("native", native_tests); ("plan", plan_tests) ]
