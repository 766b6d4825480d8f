(* Unit tests for the utility library: PRNG, inverse Ackermann, ranks,
   statistics, histograms, tables, atomic arrays. *)

module Rng = Repro_util.Rng
module Alpha = Repro_util.Alpha
module Rank = Repro_util.Rank
module Stats = Repro_util.Stats
module Histogram = Repro_util.Histogram
module Table = Repro_util.Table

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ Rng *)

let rng_tests =
  [
    case "same seed, same stream" (fun () ->
        let a = Rng.create 42 and b = Rng.create 42 in
        for _ = 1 to 100 do
          check Alcotest.int64 "draw" (Rng.int64 a) (Rng.int64 b)
        done);
    case "different seeds differ" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let same = ref 0 in
        for _ = 1 to 64 do
          if Rng.int64 a = Rng.int64 b then incr same
        done;
        check Alcotest.bool "streams differ" true (!same < 4));
    case "copy replays the stream" (fun () ->
        let a = Rng.create 7 in
        ignore (Rng.int64 a);
        let b = Rng.copy a in
        for _ = 1 to 50 do
          check Alcotest.int64 "draw" (Rng.int64 a) (Rng.int64 b)
        done);
    case "split diverges from parent" (fun () ->
        let a = Rng.create 9 in
        let child = Rng.split a in
        let equal = ref 0 in
        for _ = 1 to 64 do
          if Rng.int64 a = Rng.int64 child then incr equal
        done;
        check Alcotest.bool "diverged" true (!equal < 4));
    case "int respects bound" (fun () ->
        let a = Rng.create 3 in
        for _ = 1 to 10_000 do
          let v = Rng.int a 17 in
          check Alcotest.bool "in range" true (v >= 0 && v < 17)
        done);
    case "int covers all residues" (fun () ->
        let a = Rng.create 5 in
        let seen = Array.make 7 false in
        for _ = 1 to 1000 do
          seen.(Rng.int a 7) <- true
        done;
        Array.iteri (fun i s -> check Alcotest.bool (string_of_int i) true s) seen);
    case "int rejects non-positive bound" (fun () ->
        let a = Rng.create 1 in
        Alcotest.check_raises "zero" (Invalid_argument "Rng.int: bound must be positive")
          (fun () -> ignore (Rng.int a 0)));
    case "int handles large bounds" (fun () ->
        let a = Rng.create 11 in
        let bound = (1 lsl 40) + 37 in
        for _ = 1 to 1000 do
          let v = Rng.int a bound in
          check Alcotest.bool "in range" true (v >= 0 && v < bound)
        done);
    case "int_in inclusive range" (fun () ->
        let a = Rng.create 13 in
        let lo = -5 and hi = 5 in
        let seen_lo = ref false and seen_hi = ref false in
        for _ = 1 to 2000 do
          let v = Rng.int_in a lo hi in
          check Alcotest.bool "in range" true (v >= lo && v <= hi);
          if v = lo then seen_lo := true;
          if v = hi then seen_hi := true
        done;
        check Alcotest.bool "endpoints reachable" true (!seen_lo && !seen_hi));
    case "int_in rejects empty range" (fun () ->
        let a = Rng.create 1 in
        Alcotest.check_raises "empty" (Invalid_argument "Rng.int_in: empty range")
          (fun () -> ignore (Rng.int_in a 3 2)));
    case "float in [0,1)" (fun () ->
        let a = Rng.create 17 in
        for _ = 1 to 10_000 do
          let f = Rng.float a in
          check Alcotest.bool "in range" true (f >= 0. && f < 1.)
        done);
    case "float mean near one half" (fun () ->
        let a = Rng.create 19 in
        let sum = ref 0. in
        for _ = 1 to 10_000 do
          sum := !sum +. Rng.float a
        done;
        let mean = !sum /. 10_000. in
        check Alcotest.bool "mean" true (Float.abs (mean -. 0.5) < 0.02));
    case "bool is roughly fair" (fun () ->
        let a = Rng.create 23 in
        let heads = ref 0 in
        for _ = 1 to 10_000 do
          if Rng.bool a then incr heads
        done;
        check Alcotest.bool "fair" true (abs (!heads - 5000) < 300));
    case "bits30 in range" (fun () ->
        let a = Rng.create 29 in
        for _ = 1 to 1000 do
          let v = Rng.bits30 a in
          check Alcotest.bool "range" true (v >= 0 && v < 1 lsl 30)
        done);
    case "permutation is a permutation" (fun () ->
        let a = Rng.create 31 in
        let p = Rng.permutation a 100 in
        let seen = Array.make 100 false in
        Array.iter
          (fun v ->
            check Alcotest.bool "fresh" false seen.(v);
            seen.(v) <- true)
          p);
    case "permutation varies with seed" (fun () ->
        let p1 = Rng.permutation (Rng.create 1) 50 in
        let p2 = Rng.permutation (Rng.create 2) 50 in
        check Alcotest.bool "different" true (p1 <> p2));
    case "golden int64 stream (pinned)" (fun () ->
        let a = Rng.create 42 in
        List.iter
          (fun want -> check Alcotest.int64 "draw" want (Rng.int64 a))
          [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L ]);
    case "golden derived draws (pinned)" (fun () ->
        (* One digest over every public draw kind, so a change to any
           derivation (rejection sampling, float scaling, split seeding,
           shuffling) shows even when the raw int64 stream is intact. *)
        let a = Rng.create 2024 in
        let b = Buffer.create 8192 in
        for i = 1 to 200 do
          let bits = Rng.bits30 a in
          let small = Rng.int a (1 + (i * 7919)) in
          let large = Rng.int a ((1 lsl 40) + i) in
          let f = Rng.float a in
          let coin = Rng.bool a in
          let ranged = Rng.int_in a (-i) i in
          Printf.bprintf b "%d %d %d %h %b %d\n" bits small large f coin ranged
        done;
        let child = Rng.split a in
        Printf.bprintf b "%Ld %Ld\n" (Rng.int64 child) (Rng.int64 (Rng.copy a));
        Array.iter (Printf.bprintf b "%d ") (Rng.permutation a 64);
        check Alcotest.string "md5" "5296a2ea1f70e8ece30012a78d61be07"
          (Digest.to_hex (Digest.string (Buffer.contents b))));
    case "shuffle preserves multiset" (fun () ->
        let a = Rng.create 37 in
        let arr = [| 1; 1; 2; 3; 5; 8; 13 |] in
        let before = List.sort compare (Array.to_list arr) in
        Rng.shuffle a arr;
        check
          Alcotest.(list int)
          "multiset" before
          (List.sort compare (Array.to_list arr)));
  ]

(* ---------------------------------------------------------------- Alpha *)

let alpha_tests =
  [
    case "A_0 is successor" (fun () ->
        List.iter
          (fun j -> check Alcotest.int (string_of_int j) (j + 1) (Alpha.ackermann 0 j))
          [ 0; 1; 5; 100 ]);
    case "A_1 adds two" (fun () ->
        List.iter
          (fun j -> check Alcotest.int (string_of_int j) (j + 2) (Alpha.ackermann 1 j))
          [ 0; 1; 7; 1000 ]);
    case "A_2 is 2j+3" (fun () ->
        List.iter
          (fun j ->
            check Alcotest.int (string_of_int j) ((2 * j) + 3) (Alpha.ackermann 2 j))
          [ 0; 1; 4; 50 ]);
    case "A_3 values" (fun () ->
        (* A_3(0) = A_2(1) = 5; A_3(j) = 2 A_3(j-1) + 3. *)
        check Alcotest.int "A_3(0)" 5 (Alpha.ackermann 3 0);
        check Alcotest.int "A_3(1)" 13 (Alpha.ackermann 3 1);
        check Alcotest.int "A_3(2)" 29 (Alpha.ackermann 3 2);
        check Alcotest.int "A_3(3)" 61 (Alpha.ackermann 3 3));
    case "A_4 explodes but terminates" (fun () ->
        check Alcotest.int "A_4(0)" 13 (Alpha.ackermann 4 0);
        check Alcotest.bool "A_4(2) saturates" true (Alpha.ackermann 4 2 > 1 lsl 60));
    case "huge arguments terminate quickly" (fun () ->
        check Alcotest.bool "A_2 huge" true (Alpha.ackermann 2 (1 lsl 55) > 1 lsl 56);
        check Alcotest.bool "A_5 huge" true (Alpha.ackermann 5 100 > 1 lsl 60));
    case "negative arguments rejected" (fun () ->
        Alcotest.check_raises "neg"
          (Invalid_argument "Alpha.ackermann: negative argument") (fun () ->
            ignore (Alpha.ackermann (-1) 0)));
    case "alpha of tiny n" (fun () ->
        (* A_1(0) = 2 > 1, so alpha(1, 0) = 1. *)
        check Alcotest.int "alpha(1,0)" 1 (Alpha.alpha 1 0.));
    case "alpha is tiny for huge n" (fun () ->
        (* A_5(0) = 49149 < 10^9 < A_6(0), so alpha(10^9, 0) = 6; with d = 1
           the tower starts one level higher: A_4(1) = 49149, so alpha = 5. *)
        check Alcotest.int "n=10^9 d=0" 6 (Alpha.alpha 1_000_000_000 0.);
        check Alcotest.int "n=10^9 d=1" 5 (Alpha.alpha 1_000_000_000 1.));
    case "alpha non-increasing in d" (fun () ->
        let n = 1 lsl 20 in
        let prev = ref max_int in
        List.iter
          (fun d ->
            let a = Alpha.alpha n d in
            check Alcotest.bool "monotone" true (a <= !prev);
            prev := a)
          [ 0.; 1.; 4.; 16.; 256.; 65536. ]);
    case "alpha non-decreasing in n" (fun () ->
        let prev = ref 0 in
        List.iter
          (fun n ->
            let a = Alpha.alpha n 1. in
            check Alcotest.bool "monotone" true (a >= !prev);
            prev := a)
          [ 2; 16; 256; 65536; 1 lsl 30 ]);
    case "alpha large d gives 1" (fun () ->
        (* A_1(n) = n + 2 > n, so once d >= n, alpha = 1. *)
        check Alcotest.int "d = n" 1 (Alpha.alpha 100 100.));
    case "index function level 0" (fun () ->
        (* b(0, k) = min j with j + 1 > k = k. *)
        List.iter
          (fun k -> check Alcotest.int (string_of_int k) k (Alpha.index 0 k))
          [ 0; 1; 5; 100 ]);
    case "index function level 1" (fun () ->
        (* b(1, k) = min j with j + 2 > k = max 0 (k - 1). *)
        List.iter
          (fun k ->
            check Alcotest.int (string_of_int k) (max 0 (k - 1)) (Alpha.index 1 k))
          [ 0; 1; 2; 10 ]);
    case "level is 0 iff ranks equal" (fun () ->
        (* a(k, j) with j = k: A_0(b(0,k)) = k + 1 > k, so level 0. *)
        check Alcotest.int "equal ranks" 0 (Alpha.level ~d:1. ~n:100 5 5);
        check Alcotest.bool "strictly larger parent rank" true
          (Alpha.level ~d:1. ~n:100 5 6 > 0));
    case "floor_log2 values" (fun () ->
        check Alcotest.int "1" 0 (Alpha.floor_log2 1);
        check Alcotest.int "2" 1 (Alpha.floor_log2 2);
        check Alcotest.int "3" 1 (Alpha.floor_log2 3);
        check Alcotest.int "4" 2 (Alpha.floor_log2 4);
        check Alcotest.int "1023" 9 (Alpha.floor_log2 1023);
        check Alcotest.int "1024" 10 (Alpha.floor_log2 1024));
    case "floor_log2 rejects zero" (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Alpha.floor_log2: argument must be >= 1") (fun () ->
            ignore (Alpha.floor_log2 0)));
  ]

(* ----------------------------------------------------------------- Rank *)

let rank_tests =
  [
    case "top element has max rank" (fun () ->
        List.iter
          (fun n ->
            check Alcotest.int (string_of_int n) (Alpha.floor_log2 n)
              (Rank.rank ~n n))
          [ 1; 2; 7; 8; 1000; 1024 ]);
    case "bottom elements have rank 0" (fun () ->
        (* For n = 1023 (not a power of two) the lower half is rank 0; for
           n a power of two only x = 1 is (floor lg (n - 1 + 1) = lg n). *)
        let n = 1023 in
        check Alcotest.int "x=1" 0 (Rank.rank ~n 1);
        check Alcotest.int "x=n/2" 0 (Rank.rank ~n (n / 2));
        check Alcotest.int "power of two, x=1" 0 (Rank.rank ~n:1024 1);
        check Alcotest.int "power of two, x=2" 1 (Rank.rank ~n:1024 2));
    case "rank is monotone in x" (fun () ->
        let n = 500 in
        let prev = ref 0 in
        for x = 1 to n do
          let r = Rank.rank ~n x in
          check Alcotest.bool "monotone" true (r >= !prev);
          prev := r
        done);
    case "count_with_rank sums to n" (fun () ->
        List.iter
          (fun n ->
            let total = ref 0 in
            for r = 0 to Rank.max_rank ~n do
              total := !total + Rank.count_with_rank ~n r
            done;
            check Alcotest.int (string_of_int n) n !total)
          [ 1; 2; 3; 17; 64; 1000 ]);
    case "count_with_rank matches brute force" (fun () ->
        let n = 200 in
        for r = 0 to Rank.max_rank ~n do
          let brute = ref 0 in
          for x = 1 to n do
            if Rank.rank ~n x = r then incr brute
          done;
          check Alcotest.int (string_of_int r) !brute (Rank.count_with_rank ~n r)
        done);
    case "high ranks are geometrically rare" (fun () ->
        let n = 1 lsl 12 in
        check Alcotest.int "rank max" 1 (Rank.count_with_rank ~n (Rank.max_rank ~n));
        (* Counts halve as rank increases (from rank 1 up; rank 0 is the
           single element x = 1 when n is a power of two). *)
        check Alcotest.int "rank 1" (n / 2) (Rank.count_with_rank ~n 1);
        check Alcotest.int "rank 2" (n / 4) (Rank.count_with_rank ~n 2);
        check Alcotest.int "rank 3" (n / 8) (Rank.count_with_rank ~n 3));
    case "out-of-range rejected" (fun () ->
        Alcotest.check_raises "x=0" (Invalid_argument "Rank.rank: element out of range")
          (fun () -> ignore (Rank.rank ~n:10 0)));
  ]

(* ---------------------------------------------------------------- Stats *)

let float_eq = Alcotest.float 1e-9

let stats_tests =
  [
    case "mean" (fun () ->
        check float_eq "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]));
    case "stddev of constant sample is 0" (fun () ->
        check float_eq "sd" 0. (Stats.stddev [| 5.; 5.; 5. |]));
    case "stddev known value" (fun () ->
        (* Sample sd of 1..5 is sqrt(2.5). *)
        check (Alcotest.float 1e-6) "sd" (sqrt 2.5)
          (Stats.stddev [| 1.; 2.; 3.; 4.; 5. |]));
    case "percentile endpoints" (fun () ->
        let xs = [| 10.; 20.; 30.; 40. |] in
        check float_eq "p0" 10. (Stats.percentile xs 0.);
        check float_eq "p100" 40. (Stats.percentile xs 100.));
    case "percentile interpolates" (fun () ->
        check float_eq "p50" 25. (Stats.percentile [| 10.; 20.; 30.; 40. |] 50.));
    case "percentile unsorted input" (fun () ->
        check float_eq "p50" 25. (Stats.percentile [| 40.; 10.; 30.; 20. |] 50.));
    case "summarize fields" (fun () ->
        let s = Stats.summarize [| 3.; 1.; 2. |] in
        check Alcotest.int "count" 3 s.Stats.count;
        check float_eq "min" 1. s.Stats.min;
        check float_eq "max" 3. s.Stats.max;
        check float_eq "median" 2. s.Stats.median);
    case "summarize empty raises" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample")
          (fun () -> ignore (Stats.summarize [||])));
    case "linear_fit recovers an exact line" (fun () ->
        let points = Array.init 10 (fun i -> (float_of_int i, (3. *. float_of_int i) +. 7.)) in
        let slope, intercept = Stats.linear_fit points in
        check (Alcotest.float 1e-6) "slope" 3. slope;
        check (Alcotest.float 1e-6) "intercept" 7. intercept);
    case "r_squared is 1 for exact fit" (fun () ->
        let points = Array.init 5 (fun i -> (float_of_int i, 2. *. float_of_int i)) in
        check (Alcotest.float 1e-9) "r2" 1. (Stats.r_squared points));
    case "linear_fit rejects degenerate x" (fun () ->
        Alcotest.check_raises "degenerate"
          (Invalid_argument "Stats.linear_fit: degenerate x values") (fun () ->
            ignore (Stats.linear_fit [| (1., 1.); (1., 2.) |])));
    case "summarize_ints" (fun () ->
        let s = Stats.summarize_ints [| 1; 2; 3 |] in
        check float_eq "mean" 2. s.Stats.mean);
  ]

(* ------------------------------------------------------------ Histogram *)

let histogram_tests =
  [
    case "add and count" (fun () ->
        let h = Histogram.create () in
        Histogram.add h 3;
        Histogram.add h 3;
        Histogram.add h 5;
        check Alcotest.int "count 3" 2 (Histogram.count h 3);
        check Alcotest.int "count 5" 1 (Histogram.count h 5);
        check Alcotest.int "count 7" 0 (Histogram.count h 7);
        check Alcotest.int "total" 3 (Histogram.total h));
    case "add_many" (fun () ->
        let h = Histogram.create () in
        Histogram.add_many h 2 10;
        check Alcotest.int "count" 10 (Histogram.count h 2));
    case "keys sorted" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 5; 1; 3; 1 ];
        check Alcotest.(list int) "keys" [ 1; 3; 5 ] (Histogram.keys h));
    case "max_key" (fun () ->
        let h = Histogram.create () in
        check Alcotest.(option int) "empty" None (Histogram.max_key h);
        Histogram.add h 9;
        Histogram.add h 2;
        check Alcotest.(option int) "max" (Some 9) (Histogram.max_key h));
    case "mean" (fun () ->
        let h = Histogram.create () in
        Histogram.add_many h 2 2;
        Histogram.add_many h 4 2;
        check float_eq "mean" 3. (Histogram.mean h));
    case "negative count rejected" (fun () ->
        let h = Histogram.create () in
        Alcotest.check_raises "neg" (Invalid_argument "Histogram.add_many: negative count")
          (fun () -> Histogram.add_many h 1 (-1)));
  ]

(* ---------------------------------------------------------------- Table *)

let table_tests =
  [
    case "render contains headers and cells" (fun () ->
        let t = Table.create ~headers:[ "a"; "bb" ] in
        Table.add_row t [ "1"; "22" ];
        let s = Table.render t in
        check Alcotest.bool "has a" true (String.length s > 0);
        check Alcotest.bool "header" true
          (String.length s >= 2 && String.sub s 0 1 = "a"));
    case "wrong arity rejected" (fun () ->
        let t = Table.create ~headers:[ "a"; "b" ] in
        Alcotest.check_raises "arity"
          (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
            Table.add_row t [ "only one" ]));
    case "rows render in insertion order" (fun () ->
        let t = Table.create ~headers:[ "x" ] in
        Table.add_row t [ "first" ];
        Table.add_row t [ "second" ];
        let s = Table.render t in
        let first_idx =
          match String.index_opt s 'f' with Some i -> i | None -> -1
        in
        let second_idx =
          let rec find i =
            if i >= String.length s - 5 then -1
            else if String.sub s i 6 = "second" then i
            else find (i + 1)
          in
          find 0
        in
        check Alcotest.bool "order" true (first_idx >= 0 && first_idx < second_idx));
    case "cell formatting" (fun () ->
        check Alcotest.string "int" "42" (Table.cell_int 42);
        check Alcotest.string "float" "3.14" (Table.cell_float 3.14159);
        check Alcotest.string "float decimals" "3.1416"
          (Table.cell_float ~decimals:4 3.14159);
        check Alcotest.string "ratio" "2.50x" (Table.cell_ratio 2.5));
    case "aligned create validates lengths" (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Table.create_aligned: length mismatch") (fun () ->
            ignore (Table.create_aligned ~headers:[ "a" ] ~aligns:[])));
  ]

(* ---------------------------------------------------- Flat_atomic_array *)

let flat_atomic_array_tests =
  let module F = Repro_util.Flat_atomic_array in
  let both_modes name f =
    [
      case name (fun () -> f ~padded:false);
      case (name ^ " (padded)") (fun () -> f ~padded:true);
    ]
  in
  List.concat
    [
      both_modes "make initializes via f" (fun ~padded ->
          let a = F.make ~padded 5 (fun i -> i * i) in
          check Alcotest.int "len" 5 (F.length a);
          check Alcotest.bool "padded flag" padded (F.padded a);
          for i = 0 to 4 do
            check Alcotest.int (string_of_int i) (i * i) (F.get a i)
          done);
      both_modes "set then get leaves neighbours alone" (fun ~padded ->
          let a = F.make ~padded 3 (fun _ -> 0) in
          F.set a 1 42;
          check Alcotest.int "get" 42 (F.get a 1);
          check Alcotest.int "left untouched" 0 (F.get a 0);
          check Alcotest.int "right untouched" 0 (F.get a 2));
      both_modes "cas succeeds on expected value" (fun ~padded ->
          let a = F.make ~padded 2 (fun _ -> 7) in
          check Alcotest.bool "cas ok" true (F.cas a 0 7 9);
          check Alcotest.int "value" 9 (F.get a 0);
          check Alcotest.int "other cell" 7 (F.get a 1));
      both_modes "cas fails on stale expected value" (fun ~padded ->
          let a = F.make ~padded 1 (fun _ -> 7) in
          check Alcotest.bool "cas fails" false (F.cas a 0 8 9);
          check Alcotest.int "unchanged" 7 (F.get a 0));
      both_modes "cas distinguishes negative values" (fun ~padded ->
          let a = F.make ~padded 1 (fun _ -> -1) in
          check Alcotest.bool "wrong expected" false (F.cas a 0 1 5);
          check Alcotest.bool "right expected" true (F.cas a 0 (-1) min_int);
          check Alcotest.int "min_int round-trips" min_int (F.get a 0));
      both_modes "fetch_add returns previous and adds" (fun ~padded ->
          let a = F.make ~padded 2 (fun _ -> 10) in
          check Alcotest.int "prev" 10 (F.fetch_add a 0 5);
          check Alcotest.int "new" 15 (F.get a 0);
          check Alcotest.int "prev negative delta" 10 (F.fetch_add a 1 (-3));
          check Alcotest.int "subtracted" 7 (F.get a 1));
      both_modes "snapshot copies, later writes invisible" (fun ~padded ->
          let a = F.make ~padded 3 (fun i -> i) in
          let s = F.snapshot a in
          F.set a 0 99;
          check Alcotest.int "snapshot stale" 0 s.(0);
          check (Alcotest.array Alcotest.int) "contents" [| 0; 1; 2 |] s);
      both_modes "out-of-bounds rejected" (fun ~padded ->
          let a = F.make ~padded 4 (fun i -> i) in
          let expect_invalid f =
            match f () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument"
          in
          expect_invalid (fun () -> F.get a (-1));
          expect_invalid (fun () -> F.get a 4);
          expect_invalid (fun () -> F.set a 4 0);
          expect_invalid (fun () -> F.cas a (-1) 0 0);
          expect_invalid (fun () -> F.fetch_add a 4 1));
      both_modes "explicit-order primitives round-trip values" (fun ~padded ->
          let a = F.make ~padded 3 (fun i -> i * 10) in
          check Alcotest.int "get_acquire" 10 (F.get_acquire a 1);
          check Alcotest.int "get_relaxed" 20 (F.get_relaxed a 2);
          F.set_release a 0 min_int;
          check Alcotest.int "set_release visible" min_int (F.get a 0);
          check Alcotest.int "unsafe_get_acquire" min_int (F.unsafe_get_acquire a 0);
          check Alcotest.int "unsafe_get_relaxed" min_int (F.unsafe_get_relaxed a 0);
          F.unsafe_set_release a 0 max_int;
          check Alcotest.int "unsafe_set_release visible" max_int (F.get a 0));
      both_modes "cas_weak succeeds eventually, fails on real mismatch"
        (fun ~padded ->
          let a = F.make ~padded 2 (fun _ -> 7) in
          (* Weak CAS may fail spuriously, so success is only guaranteed
             across a retry loop; a genuine value mismatch must fail and
             leave the cell alone every time. *)
          let rec spin tries =
            if tries = 0 then Alcotest.fail "cas_weak never succeeded"
            else if not (F.cas_weak a 0 7 9) then spin (tries - 1)
          in
          spin 1000;
          check Alcotest.int "installed" 9 (F.get a 0);
          check Alcotest.int "neighbour untouched" 7 (F.get a 1);
          for _ = 1 to 100 do
            check Alcotest.bool "mismatch fails" false (F.cas_weak a 0 8 11)
          done;
          check Alcotest.int "unchanged" 9 (F.get a 0));
      both_modes "prefetch is a no-op hint, silent out of bounds"
        (fun ~padded ->
          let a = F.make ~padded 4 (fun i -> i) in
          F.prefetch a 0;
          F.prefetch a 3;
          F.unsafe_prefetch a 2;
          (* Checked prefetch must neither raise nor touch memory when the
             index is out of range — batch kernels prefetch ahead of
             bounds validation. *)
          F.prefetch a (-1);
          F.prefetch a 4;
          F.prefetch a max_int;
          for i = 0 to 3 do
            check Alcotest.int (string_of_int i) i (F.get a i)
          done);
      both_modes "explicit-order out-of-bounds rejected" (fun ~padded ->
          let a = F.make ~padded 4 (fun i -> i) in
          let expect_invalid f =
            match f () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument"
          in
          expect_invalid (fun () -> F.get_acquire a (-1));
          expect_invalid (fun () -> F.get_acquire a 4);
          expect_invalid (fun () -> F.get_relaxed a 4);
          expect_invalid (fun () -> F.set_release a 4 0);
          expect_invalid (fun () -> F.cas_weak a (-1) 0 0));
      both_modes "multi-domain cas_weak increments never lose updates"
        (fun ~padded ->
          let a = F.make ~padded 1 (fun _ -> 0) in
          let domains = 4 and per_domain = 5_000 in
          let worker () =
            for _ = 1 to per_domain do
              let rec retry () =
                let cur = F.get_relaxed a 0 in
                if not (F.cas_weak a 0 cur (cur + 1)) then retry ()
              in
              retry ()
            done
          in
          let hs = List.init domains (fun _ -> Domain.spawn worker) in
          List.iter Domain.join hs;
          check Alcotest.int "total" (domains * per_domain) (F.get a 0));
      both_modes "multi-domain release/acquire publication" (fun ~padded ->
          (* Writer fills a payload cell then publishes a generation number
             with set_release; the reader acquires the generation and must
             see the matching payload — the release/acquire pair the
             Growable priority array relies on. *)
          let a = F.make ~padded 2 (fun _ -> 0) in
          let rounds = 2_000 in
          let writer () =
            for g = 1 to rounds do
              F.set a 1 (g * 3);
              F.set_release a 0 g
            done
          in
          let fails = ref 0 in
          let reader () =
            for g = 1 to rounds do
              while F.get_acquire a 0 < g do
                Domain.cpu_relax ()
              done;
              (* payload is monotone, so whatever generation we acquired
                 the payload must be at least the published one *)
              if F.get_relaxed a 1 < g * 3 then incr fails
            done
          in
          let w = Domain.spawn writer and r = Domain.spawn reader in
          Domain.join w;
          Domain.join r;
          check Alcotest.int "stale payloads" 0 !fails);
      both_modes "multi-domain set_release/get_acquire/get_relaxed stress"
        (fun ~padded ->
          (* Two writers hammer disjoint cells with the weak-order
             primitives while two readers walk the array; every observed
             value must be one some writer actually wrote. *)
          let n = 64 in
          let a = F.make ~padded n (fun _ -> 0) in
          let iters = 20_000 in
          let writer base () =
            for k = 1 to iters do
              let i = base + (k mod (n / 2)) in
              F.set_release a i (((base + k) * 2) + 1)
            done
          in
          let bad = ref 0 in
          let reader () =
            for k = 1 to iters do
              let v = F.get_acquire a (k mod n) in
              let v' = F.get_relaxed a ((k * 7) mod n) in
              if v <> 0 && v land 1 = 0 then incr bad;
              if v' <> 0 && v' land 1 = 0 then incr bad
            done
          in
          let ds =
            [
              Domain.spawn (writer 0);
              Domain.spawn (writer (n / 2));
              Domain.spawn reader;
              Domain.spawn reader;
            ]
          in
          List.iter Domain.join ds;
          check Alcotest.int "torn or invented values" 0 !bad);
      [
        case "zero-length array is fine" (fun () ->
            let a = F.make 0 (fun _ -> assert false) in
            check Alcotest.int "len" 0 (F.length a);
            check Alcotest.int "snapshot" 0 (Array.length (F.snapshot a)));
        case "negative length rejected" (fun () ->
            match F.make (-1) (fun _ -> 0) with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument");
        case "large values survive the tagged representation" (fun () ->
            let probes = [ max_int; min_int; max_int - 1; min_int + 1; 0; -1 ] in
            let a = F.make (List.length probes) (fun _ -> 0) in
            List.iteri (fun i v -> F.set a i v) probes;
            List.iteri
              (fun i v -> check Alcotest.int (string_of_int i) v (F.get a i))
              probes);
      ];
    ]

(* ----------------------------------------------------------- ascii_plot *)

let ascii_plot_tests =
  [
    case "render produces a frame with markers" (fun () ->
        let out =
          Repro_util.Ascii_plot.render_single ~width:20 ~height:6
            [ (0., 0.); (1., 1.); (2., 4.) ]
        in
        check Alcotest.bool "has marker" true (String.contains out '*');
        check Alcotest.bool "has axis" true (String.contains out '+'));
    case "multiple series use their own markers" (fun () ->
        let out =
          Repro_util.Ascii_plot.render ~width:20 ~height:6
            [
              { Repro_util.Ascii_plot.label = 'a'; points = [ (0., 0.); (1., 1.) ] };
              { Repro_util.Ascii_plot.label = 'b'; points = [ (0., 1.); (1., 0.) ] };
            ]
        in
        check Alcotest.bool "a" true (String.contains out 'a');
        check Alcotest.bool "b" true (String.contains out 'b'));
    case "degenerate ranges do not crash" (fun () ->
        let out = Repro_util.Ascii_plot.render_single [ (1., 1.); (1., 1.) ] in
        check Alcotest.bool "nonempty" true (String.length out > 0));
    case "empty input rejected" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Ascii_plot.render: no points") (fun () ->
            ignore (Repro_util.Ascii_plot.render_single [])));
    case "tiny frame rejected" (fun () ->
        Alcotest.check_raises "tiny"
          (Invalid_argument "Ascii_plot.render: frame too small") (fun () ->
            ignore
              (Repro_util.Ascii_plot.render_single ~width:2 ~height:2 [ (0., 0.) ])));
    case "labels appear in output" (fun () ->
        let out =
          Repro_util.Ascii_plot.render_single ~x_label:"abscissa" ~y_label:"ordinate"
            [ (0., 0.); (5., 5.) ]
        in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        check Alcotest.bool "x" true (contains out "abscissa");
        check Alcotest.bool "y" true (contains out "ordinate"));
  ]

let () =
  Alcotest.run "util"
    [
      ("rng", rng_tests);
      ("alpha", alpha_tests);
      ("rank", rank_tests);
      ("stats", stats_tests);
      ("histogram", histogram_tests);
      ("table", table_tests);
      ("flat_atomic_array", flat_atomic_array_tests);
      ("ascii_plot", ascii_plot_tests);
    ]
