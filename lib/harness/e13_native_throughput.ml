(** E13 — native context numbers (not a paper claim): wall-clock throughput
    of the OCaml 5 domains implementation, against the global-lock baseline.

    Domains beyond the host's cores add scheduling overhead instead of
    parallel speedup, so there the interesting columns are the
    single-domain throughput and the lock-free vs lock comparison under
    oversubscription.  The paper's speedup claims are about total work,
    which experiments E4–E8 measure exactly in the simulator. *)

module Table = Repro_util.Table

(* One closed-loop run over pre-generated buckets (generation is outside
   the timed section), in ops/s. *)
let throughput ops apply =
  let r = Closed_loop.run ~apply ops in
  Closed_loop.raise_failures r;
  r.Closed_loop.ops_per_sec

let run ppf =
  let n = 1 lsl 17 in
  let total_ops = 400_000 in
  let table =
    Table.create ~headers:[ "domains"; "impl"; "Mops/s"; "vs locked" ]
  in
  List.iter
    (fun domains ->
      let ops =
        Closed_loop.gen_ops ~n ~unite_percent:30 ~seed:21 ~domains
          ~ops_per_domain:(total_ops / domains) ()
      in
      (* The default plan: flat, two-try, random priorities. *)
      let jt =
        throughput ops (Workload.Op.run_driver_array (Dsu.Driver.create ~seed:21 n))
      in
      let locked =
        let d = Baselines.Locked_dsu.create ~seed:21 n in
        throughput ops
          (Closed_loop.applier ~unite:(Baselines.Locked_dsu.unite d)
             ~same_set:(Baselines.Locked_dsu.same_set d)
             ~find:(Baselines.Locked_dsu.find d))
      in
      Table.add_row table
        [ Table.cell_int domains; "jt two-try"; Table.cell_float (jt /. 1e6); Table.cell_ratio (jt /. locked) ];
      Table.add_row table
        [ Table.cell_int domains; "global lock"; Table.cell_float (locked /. 1e6); "1.00x" ])
    [ 1; 2; 4 ];
  Table.pp ppf table;
  Format.fprintf ppf
    "@.caveat: this host runs %d domains in parallel; beyond that the sweep \
     measures oversubscribed concurrency, not parallelism.  See the \
     simulator experiments for the paper's work-based speedup claims.@."
    (Domain.recommended_domain_count ())

let experiment =
  Experiment.make ~id:"e13" ~title:"native throughput (OCaml 5 domains)"
    ~claim:
      "context: the wait-free implementation is competitive with (and under \
       contention better than) a lock-based DSU in wall-clock terms"
    run
