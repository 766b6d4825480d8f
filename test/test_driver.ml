(* Conformance of the one backend type, Dsu.Driver, over every layout it
   builds: the same table of checks runs on flat, padded and packed —
   per-op answers against a sequential oracle, batch kernels against
   per-op calls, a quiescent snapshot -> restore round trip, and a
   quiescent fuzzy capture against the quiescent snapshot.  Every entry is
   built from its plan alone, and the rows span every memory order. *)

module Driver = Dsu.Driver
module Snap = Repro_recover.Snapshot
module Restore = Repro_recover.Restore
module Fuzzy = Repro_durable.Fuzzy
module Quick_find = Sequential.Quick_find
module Rng = Repro_util.Rng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

type layout = {
  name : string;
  plan : Dsu.Plan.t;
  kind : Snap.kind;
  n : int;
  make : unit -> Driver.t;
}

let fresh ?(n = 200) name plan kind =
  { name; plan; kind; n; make = (fun () -> Driver.create ~plan ~seed:9 n) }

let plan_of spec =
  match Dsu.Plan.of_string spec with Ok p -> p | Error e -> failwith e

let layouts =
  [
    fresh "flat" Dsu.Plan.default Snap.Flat;
    fresh "padded" { Dsu.Plan.default with layout = Dsu.Plan.Padded } Snap.Flat;
    fresh "packed" (Dsu.Plan.on_layout Dsu.Plan.Packed Dsu.Plan.default) Snap.Packed;
    (* The same layouts on the seq-cst memory order with full compression,
       no backoff: other loads and another find loop in the kernels. *)
    fresh "flat, seq-cst compression" (plan_of "rand:compression:seq-cst:off:flat")
      Snap.Flat;
    fresh "packed, seq-cst compression"
      (plan_of "rank:compression:seq-cst:off:packed") Snap.Packed;
    fresh "padded, seq-cst compression"
      (plan_of "rand:compression:seq-cst:off:flat-padded") Snap.Flat;
    (* Halving and one-try splitting on the acquire order: two more find
       loops and the middle load ordering. *)
    fresh "flat, acquire halving" (plan_of "rand:halving:acquire:on:flat") Snap.Flat;
    fresh "packed, acquire one-try" (plan_of "rank:one-try:acquire:on:packed")
      Snap.Packed;
  ]

let pairs ~n ~seed count =
  let rng = Rng.create seed in
  let xs = Array.init count (fun _ -> Rng.int rng n) in
  (xs, Array.init count (fun _ -> Rng.int rng n))

(* Same partition over every pair (i, i+1..i+7) plus every node vs 0. *)
let same_partition ~n name same_a same_b =
  for x = 0 to n - 1 do
    for y = x to min (n - 1) (x + 7) do
      check Alcotest.bool (Printf.sprintf "%s: %d~%d" name x y) (same_a x y)
        (same_b x y)
    done;
    check Alcotest.bool (Printf.sprintf "%s: 0~%d" name x) (same_a 0 x)
      (same_b 0 x)
  done

let conformance { name; plan; kind; n; make } =
  let pairs = pairs ~n and same_partition = same_partition ~n in
  let populated () =
    let d = make () in
    let xs, ys = pairs ~seed:4 (n / 2) in
    Array.iteri (fun k x -> Driver.unite d x ys.(k)) xs;
    d
  in
  [
    case (name ^ ": kind and size") (fun () ->
        let d = make () in
        check Alcotest.bool "kind" true (Driver.kind d = kind);
        check Alcotest.int "n" n (Driver.n d);
        check Alcotest.int "singletons" n (Driver.count_sets d));
    case (name ^ ": random ops match the sequential oracle") (fun () ->
        let d = make () and q = Quick_find.create n in
        let rng = Rng.create 17 in
        for _ = 1 to 4 * n do
          let x = Rng.int rng n and y = Rng.int rng n in
          match Rng.int rng 3 with
          | 0 ->
            Driver.unite d x y;
            Quick_find.unite q x y
          | 1 ->
            check Alcotest.bool "same_set" (Quick_find.same_set q x y)
              (Driver.same_set d x y)
          | _ ->
            check Alcotest.bool "find is a member" true
              (Quick_find.same_set q x (Driver.find d x))
        done;
        check Alcotest.int "count_sets" (Quick_find.count_sets q)
          (Driver.count_sets d));
    case (name ^ ": batch kernels agree with per-op calls") (fun () ->
        let batched = make () and per_op = make () in
        let xs, ys = pairs ~seed:5 (n / 2) in
        Driver.unite_batch batched xs ys;
        Array.iteri (fun k x -> Driver.unite per_op x ys.(k)) xs;
        same_partition "unite_batch" (Driver.same_set per_op)
          (Driver.same_set batched);
        let qx, qy = pairs ~seed:6 n in
        check (Alcotest.array Alcotest.bool) "same_set_batch"
          (Array.mapi (fun k x -> Driver.same_set batched x qy.(k)) qx)
          (Driver.same_set_batch batched qx qy);
        check (Alcotest.array Alcotest.int) "find_batch"
          (Array.map (Driver.find batched) qx)
          (Driver.find_batch batched qx));
    case (name ^ ": snapshot -> restore round trip") (fun () ->
        let d = populated () in
        let snap = Snap.of_driver d in
        check Alcotest.bool "snapshot passes check" true (Snap.ok snap);
        check Alcotest.int "snapshot n" n snap.Snap.n;
        check Alcotest.int "snapshot capacity is n" n snap.Snap.capacity;
        let r = Restore.restore ~plan snap in
        check Alcotest.bool "restored kind" true (Driver.kind r = kind);
        check Alcotest.int "restored n" n (Driver.n r);
        check Alcotest.bool "re-snapshot equal" true
          (Snap.equal snap (Snap.of_driver r));
        same_partition "restored" (Driver.same_set d) (Driver.same_set r);
        check Alcotest.bool "restored passes check" true
          (Snap.ok (Snap.of_driver r)));
    case (name ^ ": quiescent fuzzy capture is the snapshot") (fun () ->
        let d = populated () in
        let cap = Fuzzy.of_driver d in
        check Alcotest.int "no fixes" 0 (List.length cap.Fuzzy.fixes);
        check Alcotest.bool "raw equals snapshot" true
          (Snap.equal cap.Fuzzy.raw (Snap.of_driver d));
        check Alcotest.bool "reconciled equals snapshot" true
          (Snap.equal cap.Fuzzy.snapshot (Snap.of_driver d)));
  ]

let kind_checks =
  List.map
    (fun (layout, spec, expected) ->
      case ("a " ^ layout ^ " plan is rejected as an unknown layout") (fun () ->
          match Dsu.Plan.of_string spec with
          | Ok _ -> Alcotest.fail (layout ^ " accepted")
          | Error e -> check Alcotest.string "error" expected e))
    [
      ( "boxed",
        "rand:two-try:seq-cst:on:boxed",
        "bad plan layout \"boxed\" in \"rand:two-try:seq-cst:on:boxed\"" );
      ( "growable",
        "rand:two-try:relaxed-reads:on:growable",
        "bad plan layout \"growable\" in \"rand:two-try:relaxed-reads:on:growable\"" );
    ]

let () =
  Alcotest.run "driver"
    [
      ("conformance", List.concat_map conformance layouts);
      ("kind", kind_checks);
    ]
