(** E12 — the introduction's application claims, end to end: connected
    components, minimum spanning forests, percolation, and SCC condensation
    all run on the concurrent DSU and agree with their sequential
    references. *)

module Table = Repro_util.Table

let run ppf =
  let table = Table.create ~headers:[ "application"; "instance"; "check"; "result" ] in
  let rng = Repro_util.Rng.create 99 in
  (* Connected components: concurrent labels must equal sequential labels. *)
  let g = Graphs.Generators.erdos_renyi ~rng ~n:20_000 ~m:30_000 () in
  let seq_labels = Graphs.Components.sequential g in
  let conc_labels = Graphs.Components.concurrent ~domains:4 ~seed:5 g in
  Table.add_row table
    [
      "connected components";
      "ER n=20k m=30k";
      "labels equal, count";
      Printf.sprintf "%s, %d components"
        (if seq_labels = conc_labels then "equal" else "MISMATCH")
        (Graphs.Components.count seq_labels);
    ];
  (* Minimum spanning forest: same total weight from both DSUs. *)
  let base = Graphs.Generators.erdos_renyi ~rng ~n:2_000 ~m:6_000 () in
  let w = Graphs.Graph.with_random_weights ~rng base in
  let mst_seq = Graphs.Kruskal.run w in
  let mst_conc = Graphs.Kruskal.run_concurrent_dsu ~seed:7 w in
  Table.add_row table
    [
      "Kruskal MSF";
      "ER n=2k m=6k";
      "equal weight";
      Printf.sprintf "%.4f vs %.4f (%s)" mst_seq.Graphs.Kruskal.total_weight
        mst_conc.Graphs.Kruskal.total_weight
        (if Float.abs (mst_seq.Graphs.Kruskal.total_weight -. mst_conc.Graphs.Kruskal.total_weight) < 1e-9
         then "equal" else "MISMATCH");
    ];
  (* Percolation threshold. *)
  let s = Graphs.Percolation.threshold_estimate ~rng ~size:48 ~trials:20 in
  Table.add_row table
    [
      "site percolation";
      "48x48, 20 trials";
      "threshold ~ 0.5927";
      Printf.sprintf "mean %.4f (sd %.4f)" s.Repro_util.Stats.mean s.Repro_util.Stats.stddev;
    ];
  (* SCC condensation. *)
  let dg = Graphs.Generators.clustered_digraph ~rng ~clusters:40 ~cluster_size:25 ~extra:200 in
  let cond = Graphs.Scc.condense_with_dsu ~seed:11 dg in
  Table.add_row table
    [
      "SCC condensation";
      "40 cycles x 25 + 200 dag edges";
      "40 SCCs, acyclic quotient";
      Printf.sprintf "%d SCCs, quotient self-SCCs: %d"
        (Graphs.Scc.count cond.Graphs.Scc.labels)
        (Graphs.Scc.count (Graphs.Scc.tarjan cond.Graphs.Scc.quotient));
    ];
  (* Parallel Boruvka MSF: rounds of concurrent finds + contractions. *)
  let bw = Graphs.Graph.with_random_weights ~rng (Graphs.Generators.erdos_renyi ~rng ~n:3_000 ~m:9_000 ()) in
  let bk = Graphs.Kruskal.run bw in
  let bb = Graphs.Boruvka.run_parallel ~domains:4 bw in
  Table.add_row table
    [
      "Boruvka MSF (parallel)";
      "ER n=3k m=9k, 4 domains";
      "equals Kruskal weight";
      Printf.sprintf "%.4f vs %.4f in %d rounds (%s)"
        bk.Graphs.Kruskal.total_weight bb.Graphs.Boruvka.total_weight
        bb.Graphs.Boruvka.rounds
        (if Float.abs (bk.Graphs.Kruskal.total_weight -. bb.Graphs.Boruvka.total_weight) < 1e-9
         then "equal" else "MISMATCH");
    ];
  (* Offline LCA. *)
  let t = Graphs.Lca.random_tree ~rng ~n:5_000 in
  let queries =
    List.init 2_000 (fun _ ->
        (Repro_util.Rng.int rng 5_000, Repro_util.Rng.int rng 5_000))
  in
  let fast = Graphs.Lca.solve t queries in
  let naive = List.map (fun (u, v) -> Graphs.Lca.lca_naive t u v) queries in
  Table.add_row table
    [
      "offline LCA (Tarjan)";
      "random tree n=5k, 2k queries";
      "equals naive walk";
      (if fast = naive then "all 2000 equal" else "MISMATCH");
    ];
  (* Dominators. *)
  let fg = Graphs.Generators.random_digraph ~rng ~n:2_000 ~m:5_000 in
  let lt = Graphs.Dominators.lengauer_tarjan fg ~root:0 in
  let it = Graphs.Dominators.iterative fg ~root:0 in
  Table.add_row table
    [
      "dominators (Lengauer-Tarjan)";
      "random flowgraph n=2k m=5k";
      "equals iterative dataflow";
      (if lt = it then "idom arrays equal" else "MISMATCH");
    ];
  (* Pointer analysis. *)
  let var i = Printf.sprintf "v%d" i in
  let program =
    List.init 4_000 (fun _ ->
        let x = var (Repro_util.Rng.int rng 200) in
        let y = var (Repro_util.Rng.int rng 200) in
        match Repro_util.Rng.int rng 4 with
        | 0 -> Analysis.Steensgaard.Address_of (x, y)
        | 1 -> Analysis.Steensgaard.Copy (x, y)
        | 2 -> Analysis.Steensgaard.Load (x, y)
        | _ -> Analysis.Steensgaard.Store (x, y))
  in
  let steens = Analysis.Steensgaard.analyze program in
  let anders = Analysis.Andersen.analyze program in
  let unsound = ref 0 in
  let vars = Analysis.Andersen.variables anders in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if
            Analysis.Andersen.may_alias anders x y
            && not (Analysis.Steensgaard.may_alias steens x y)
          then incr unsound)
        vars)
    vars;
  Table.add_row table
    [
      "Steensgaard points-to";
      "4000 stmts, 200 vars";
      "covers Andersen aliases";
      Printf.sprintf "%d uncovered (cells: %d)" !unsound
        (Analysis.Steensgaard.cells_used steens);
    ];
  Table.pp ppf table;
  Format.fprintf ppf
    "@.expected shape: components and MSF weights agree exactly with the \
     sequential references; the percolation estimate approaches the known \
     threshold 0.5927; the clustered digraph yields exactly its built-in 40 \
     SCCs and the quotient is a DAG; offline LCA matches the naive walk; the \
     two dominator algorithms agree; and Steensgaard (unification over the \
     growable DSU) covers every Andersen alias (0 uncovered).@."

let experiment =
  Experiment.make ~id:"e12" ~title:"applications end-to-end"
    ~claim:
      "Section 1: DSU drives connected components, MSTs, percolation, SCCs, \
       compiler storage allocation (pointer analysis), and dominators; the \
       concurrent algorithm slots in for all of them"
    run
