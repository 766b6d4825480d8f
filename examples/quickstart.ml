(* Quickstart: the concurrent disjoint-set-union API in two minutes.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* Create a DSU over one million elements.  The default Find policy is
     two-try splitting — the paper's best variant; the seed fixes the random
     node order so runs are reproducible. *)
  let n = 1_000_000 in
  let dsu = Dsu.Native.create ~seed:42 n in

  (* Basic operations: unite merges two sets, same_set queries membership. *)
  Dsu.Native.unite dsu 1 2;
  Dsu.Native.unite dsu 2 3;
  assert (Dsu.Native.same_set dsu 1 3);
  assert (not (Dsu.Native.same_set dsu 1 4));
  Printf.printf "after two unions: %d sets\n" (Dsu.Native.count_sets dsu);

  (* All operations are safe to call from multiple domains concurrently:
     wait-free and linearizable (Theorem 3.4 of the paper).  Here four
     domains union disjoint ranges in parallel, then we stitch them. *)
  let chunk = n / 4 in
  let worker k () =
    let lo = k * chunk in
    for i = lo to lo + chunk - 2 do
      Dsu.Native.unite dsu i (i + 1)
    done
  in
  let domains = List.init 4 (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join domains;
  Printf.printf "after parallel phase: %d sets\n" (Dsu.Native.count_sets dsu);
  for k = 0 to 2 do
    Dsu.Native.unite dsu (k * chunk) ((k + 1) * chunk)
  done;
  assert (Dsu.Native.same_set dsu 0 (n - 1));
  Printf.printf "after stitching: %d set(s)\n" (Dsu.Native.count_sets dsu);

  (* Variants: pick a Find policy and/or the early-termination operations of
     Section 6 of the paper. *)
  let fancy =
    Dsu.Native.create ~policy:Dsu.Find_policy.One_try_splitting ~early:true
      ~seed:7 16
  in
  Dsu.Native.unite fancy 3 9;
  assert (Dsu.Native.same_set fancy 9 3);

  (* The MakeSet extension: create elements on the fly, with no capacity
     bound (the universe grows chunk by chunk; see Section 3 of the paper
     on wait-free vs lock-free in the unbounded setting). *)
  let g = Dsu.Growable.create () in
  let a = Dsu.Growable.make_set g in
  let b = Dsu.Growable.make_set g in
  Dsu.Growable.unite g a b;
  assert (Dsu.Growable.same_set g a b);
  for _ = 1 to 10_000 do
    Dsu.Growable.unite g a (Dsu.Growable.make_set g)
  done;
  Printf.printf "growable: %d elements in %d set(s)\n" (Dsu.Growable.cardinal g)
    (Dsu.Growable.count_sets g);

  (* Instrumentation: operation counters for work accounting. *)
  let counted = Dsu.Native.create ~collect_stats:true ~seed:1 1000 in
  for i = 0 to 998 do
    Dsu.Native.unite counted i (i + 1)
  done;
  Format.printf "stats: %a@." Dsu.Stats.pp (Dsu.Native.stats counted);
  print_endline "quickstart ok"
