(* Tests for the MakeSet extension (Section 3 remark): on-the-fly element
   creation with randomly drawn priorities. *)

module Growable = Dsu.Growable

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let tests =
  [
    case "make_set returns consecutive slots" (fun () ->
        let g = Growable.create () in
        check Alcotest.int "first" 0 (Growable.make_set g);
        check Alcotest.int "second" 1 (Growable.make_set g);
        check Alcotest.int "third" 2 (Growable.make_set g);
        check Alcotest.int "cardinal" 3 (Growable.cardinal g));
    case "fresh elements are singletons" (fun () ->
        let g = Growable.create () in
        let a = Growable.make_set g and b = Growable.make_set g in
        check Alcotest.bool "distinct" false (Growable.same_set g a b);
        check Alcotest.bool "self" true (Growable.same_set g a a);
        check Alcotest.int "count" 2 (Growable.count_sets g));
    case "unite works on created elements" (fun () ->
        let g = Growable.create () in
        let a = Growable.make_set g in
        let b = Growable.make_set g in
        let c = Growable.make_set g in
        Growable.unite g a b;
        check Alcotest.bool "a~b" true (Growable.same_set g a b);
        check Alcotest.bool "a!~c" false (Growable.same_set g a c);
        Growable.unite g b c;
        check Alcotest.bool "a~c" true (Growable.same_set g a c);
        check Alcotest.int "count" 1 (Growable.count_sets g));
    case "operations on uncreated elements rejected" (fun () ->
        let g = Growable.create () in
        ignore (Growable.make_set g);
        Alcotest.check_raises "uncreated"
          (Invalid_argument "Growable: element was not created") (fun () ->
            ignore (Growable.same_set g 0 1)));
    case "priorities are distinct in practice" (fun () ->
        let g = Growable.create ~seed:7 () in
        let seen = Hashtbl.create 256 in
        for _ = 1 to 256 do
          let e = Growable.make_set g in
          let p = Growable.priority g e in
          check Alcotest.bool "fresh priority" false (Hashtbl.mem seen p);
          Hashtbl.replace seen p ()
        done);
    case "matches oracle on random workload" (fun () ->
        let g = Growable.create ~seed:3 () in
        let q = Sequential.Quick_find.create 100 in
        for _ = 1 to 100 do
          ignore (Growable.make_set g)
        done;
        let rng = Repro_util.Rng.create 5 in
        for _ = 1 to 500 do
          let x = Repro_util.Rng.int rng 100 and y = Repro_util.Rng.int rng 100 in
          if Repro_util.Rng.bool rng then begin
            Growable.unite g x y;
            Sequential.Quick_find.unite q x y
          end
          else
            check Alcotest.bool "query"
              (Sequential.Quick_find.same_set q x y)
              (Growable.same_set g x y)
        done;
        check Alcotest.int "count" (Sequential.Quick_find.count_sets q)
          (Growable.count_sets g));
    case "find returns member of own set" (fun () ->
        let g = Growable.create ~seed:11 () in
        let a = Growable.make_set g and b = Growable.make_set g in
        Growable.unite g a b;
        let r = Growable.find g a in
        check Alcotest.bool "same" true (Growable.same_set g r b));
    case "stats enabled" (fun () ->
        let g = Growable.create ~collect_stats:true () in
        let a = Growable.make_set g and b = Growable.make_set g in
        Growable.unite g a b;
        check Alcotest.int "links" 1 (Growable.stats g).Dsu.Stats.links);
    case "parallel make_set allocates distinct slots" (fun () ->
        let g = Growable.create ~seed:13 () in
        let per_domain = 1000 in
        let worker _ = Array.init per_domain (fun _ -> Growable.make_set g) in
        let handles = List.init 4 (fun i -> Domain.spawn (fun () -> worker i)) in
        let results = List.map Domain.join handles in
        let all = List.concat_map Array.to_list results in
        let sorted = List.sort compare all in
        check Alcotest.int "total" 4000 (List.length all);
        check Alcotest.(list int) "distinct slots" (List.init 4000 Fun.id) sorted;
        check Alcotest.int "cardinal" 4000 (Growable.cardinal g));
  ]

(* ------------------------------------------------------------ unbounded *)

(* The universe has no bound: these cases grow it across several chunks
   and check that operations reach across the boundaries. *)

let cs = Growable.chunk_size

let unbounded_tests =
  [
    case "grows past any initial size" (fun () ->
        let g = Growable.create () in
        let count = (3 * cs) + 5 in
        let elems = Array.init count (fun _ -> Growable.make_set g) in
        check Alcotest.int "cardinal" count (Growable.cardinal g);
        check Alcotest.int "slots are consecutive" (count - 1) elems.(count - 1));
    case "operations across chunk boundaries" (fun () ->
        let g = Growable.create () in
        let count = 10 * cs in
        let elems = Array.init count (fun _ -> Growable.make_set g) in
        (* Unite every element with element 0: spans ten chunks. *)
        Array.iter
          (fun e -> if e <> elems.(0) then Growable.unite g elems.(0) e)
          elems;
        check Alcotest.int "one set" 1 (Growable.count_sets g);
        check Alcotest.bool "ends connected" true
          (Growable.same_set g 0 (count - 1)));
    case "matches oracle on random workload across chunks" (fun () ->
        let g = Growable.create ~seed:3 () in
        let count = cs + 100 in
        for _ = 1 to count do
          ignore (Growable.make_set g)
        done;
        let q = Sequential.Quick_find.create count in
        let rng = Repro_util.Rng.create 5 in
        for _ = 1 to 600 do
          (* Half the pairs straddle the chunk boundary. *)
          let x = Repro_util.Rng.int rng count in
          let y =
            if Repro_util.Rng.bool rng then cs - 50 + Repro_util.Rng.int rng 150
            else Repro_util.Rng.int rng count
          in
          if Repro_util.Rng.bool rng then begin
            Growable.unite g x y;
            Sequential.Quick_find.unite q x y
          end
          else
            check Alcotest.bool "query"
              (Sequential.Quick_find.same_set q x y)
              (Growable.same_set g x y)
        done;
        check Alcotest.int "count" (Sequential.Quick_find.count_sets q)
          (Growable.count_sets g));
    case "interleaved growth and unions" (fun () ->
        (* Alternate make_set and unite so traversals cross chunks that were
           added after earlier elements existed. *)
        let g = Growable.create () in
        let first = Growable.make_set g in
        for _ = 1 to (2 * cs) + 50 do
          let e = Growable.make_set g in
          Growable.unite g first e
        done;
        check Alcotest.int "one set" 1 (Growable.count_sets g);
        check Alcotest.bool "find works" true
          (Growable.same_set g first (Growable.find g first)));
    case "uncreated elements rejected past a chunk boundary" (fun () ->
        let g = Growable.create () in
        for _ = 1 to cs + 1 do
          ignore (Growable.make_set g)
        done;
        Alcotest.check_raises "uncreated"
          (Invalid_argument "Growable: element was not created") (fun () ->
            ignore (Growable.same_set g 0 (cs + 1))));
    case "stats count links across chunks" (fun () ->
        let g = Growable.create ~collect_stats:true () in
        let count = (2 * cs) + 1 in
        for _ = 1 to count do
          ignore (Growable.make_set g)
        done;
        (* Each unite joins two sets: one link apiece. *)
        for e = 1 to count - 1 do
          Growable.unite g 0 e
        done;
        check Alcotest.int "links" (count - 1) (Growable.stats g).Dsu.Stats.links;
        check Alcotest.int "one set" 1 (Growable.count_sets g));
    case "priorities are distinct across chunks" (fun () ->
        let g = Growable.create ~seed:11 () in
        let seen = Hashtbl.create (2 * cs) in
        for _ = 1 to 2 * cs do
          let e = Growable.make_set g in
          let p = Growable.priority g e in
          check Alcotest.bool "fresh" false (Hashtbl.mem seen p);
          Hashtbl.replace seen p ()
        done);
    case "parallel make_set and unite across domains" (fun () ->
        let g = Growable.create ~seed:13 () in
        let worker _ () =
          let mine = Array.init cs (fun _ -> Growable.make_set g) in
          Array.iteri (fun i e -> if i > 0 then Growable.unite g mine.(0) e) mine;
          mine.(0)
        in
        let handles = List.init 4 (fun k -> Domain.spawn (worker k)) in
        let reps = List.map Domain.join handles in
        check Alcotest.int "cardinal" (4 * cs) (Growable.cardinal g);
        check Alcotest.int "four groups" 4 (Growable.count_sets g);
        (match reps with
        | a :: rest -> List.iter (fun b -> Growable.unite g a b) rest
        | [] -> ());
        check Alcotest.int "one group" 1 (Growable.count_sets g));
    case "parallel growth with cross-domain unions" (fun () ->
        (* Domains unite their fresh elements with element 0, forcing
           traversals into chunks published by other domains. *)
        let g = Growable.create () in
        let zero = Growable.make_set g in
        let worker _ () =
          for _ = 1 to cs do
            let e = Growable.make_set g in
            Growable.unite g zero e
          done
        in
        let handles = List.init 4 (fun k -> Domain.spawn (worker k)) in
        List.iter Domain.join handles;
        check Alcotest.int "cardinal" ((4 * cs) + 1) (Growable.cardinal g);
        check Alcotest.int "one set" 1 (Growable.count_sets g));
  ]

(* ------------------------------------------------------ chunk directory *)

module Inject = Repro_fault.Inject
module Site = Repro_fault.Site

(* A universe of one full chunk whose next [make_set] claimed slot [cs]
   and crashed before publishing the chunk that covers it. *)
let crashed_before_publish () =
  let g = Growable.create () in
  for _ = 1 to cs do
    ignore (Growable.make_set g)
  done;
  let plan =
    {
      Inject.seed = 21;
      rules_for =
        (fun _ -> [ Inject.rule ~sites:[ Site.Chunk_publish_pre ] Inject.Crash ]);
    }
  in
  Inject.arm plan;
  Fun.protect ~finally:Inject.disarm (fun () ->
      Inject.enroll ~slot:0;
      match Growable.make_set g with
      | _ -> Alcotest.fail "expected Crashed"
      | exception Inject.Crashed (site, _) ->
        check Alcotest.bool "site" true (site = Site.Chunk_publish_pre));
  g

let directory_tests =
  let uncreated = Invalid_argument "Growable: element was not created" in
  [
    case "a slot claimed before a crashed chunk publish is rejected until the \
          next make_set publishes it" (fun () ->
        let g = crashed_before_publish () in
        (* Slot [cs] was claimed, but its chunk was never published. *)
        check Alcotest.int "cardinal stops at the directory" cs (Growable.cardinal g);
        Alcotest.check_raises "claimed slot rejected"
          (Invalid_argument "Growable: element was not created") (fun () ->
            ignore (Growable.find g cs));
        let next = Growable.make_set g in
        check Alcotest.int "next slot" (cs + 1) next;
        check Alcotest.int "both slots created" (cs + 2) (Growable.cardinal g);
        check Alcotest.int "abandoned slot is a root" cs (Growable.find g cs);
        Growable.unite g cs next;
        Growable.unite g 0 next;
        check Alcotest.bool "both slots work" true (Growable.same_set g 0 cs));
    case "every reader stops at the directory after a crashed chunk publish"
      (fun () ->
        let g = crashed_before_publish () in
        Alcotest.check_raises "priority" uncreated (fun () ->
            ignore (Growable.priority g cs));
        Alcotest.check_raises "same_set" uncreated (fun () ->
            ignore (Growable.same_set g 0 cs));
        Alcotest.check_raises "unite" uncreated (fun () -> Growable.unite g cs 0);
        check Alcotest.int "count_sets" cs (Growable.count_sets g));
  ]

(* ------------------------------------------------- multi-domain vs oracle *)

(* The chaos-adjacent stress test: 4 domains interleave [make_set], [unite]
   and [find]/[same_set] on one structure grown across a chunk boundary, publishing created
   slots through a shared board so cross-domain unions only ever touch
   fully created elements.  Every completed unite is recorded; at
   quiescence the final partition must coincide exactly with a sequential
   oracle replaying those unites. *)

let stress_tests =
  let refines a b =
    (* every [a]-class sits inside one [b]-class *)
    let tbl = Hashtbl.create 97 in
    Array.for_all2
      (fun ra rb ->
        match Hashtbl.find_opt tbl ra with
        | None ->
          Hashtbl.add tbl ra rb;
          true
        | Some rb' -> rb = rb')
      a b
  in
  [
    case "4-domain make_set/unite/find agrees with sequential oracle" (fun () ->
        let domains = 4 and per_domain = (cs / 2) + 100 in
        let g = Growable.create ~seed:29 () in
        let board = Array.init (domains * per_domain) (fun _ -> Atomic.make (-1)) in
        let reserved = Atomic.make 0 in
        let unites = Array.make domains [] in
        let worker k () =
          let rng = Repro_util.Rng.create (100 + k) in
          let pick_published last =
            let c = Atomic.get reserved in
            if c = 0 then last
            else
              let v = Atomic.get board.(Repro_util.Rng.int rng c) in
              if v < 0 then last else Some v
          in
          let last = ref None in
          for _ = 1 to per_domain do
            let e = Growable.make_set g in
            Atomic.set board.(Atomic.fetch_and_add reserved 1) e;
            last := Some e;
            (* a couple of random ops against published elements *)
            for _ = 1 to 2 do
              match (pick_published !last, pick_published !last) with
              | Some x, Some y ->
                if Repro_util.Rng.bool rng then begin
                  Growable.unite g x y;
                  unites.(k) <- (x, y) :: unites.(k)
                end
                else begin
                  ignore (Growable.same_set g x y);
                  ignore (Growable.find g x)
                end
              | _ -> ()
            done
          done
        in
        let handles = List.init domains (fun k -> Domain.spawn (worker k)) in
        List.iter Domain.join handles;
        let n = Growable.cardinal g in
        check Alcotest.int "all created" (domains * per_domain) n;
        let oracle = Sequential.Seq_dsu.create n in
        Array.iter
          (List.iter (fun (x, y) -> Sequential.Seq_dsu.unite oracle x y))
          unites;
        let g_roots = Array.init n (Growable.find g) in
        let o_roots = Array.init n (Sequential.Seq_dsu.find oracle) in
        check Alcotest.bool "no extra connectivity" true (refines g_roots o_roots);
        check Alcotest.bool "no lost unions" true (refines o_roots g_roots);
        check Alcotest.int "set counts agree"
          (Sequential.Seq_dsu.count_sets oracle)
          (Growable.count_sets g));
  ]

let () =
  Alcotest.run "growable"
    [
      ("growable", tests);
      ("unbounded", unbounded_tests);
      ("directory", directory_tests);
      ("stress", stress_tests);
    ]
