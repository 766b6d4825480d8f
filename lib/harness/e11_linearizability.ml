(** E11 — Theorem 3.4, exercised empirically: every history produced by any
    variant under any schedule linearizes against the sequential partition
    specification.  Small instances so the Wing–Gong search is exact; the
    schedulers include the CAS adversary and the laggard (which also
    witnesses wait-freedom: the starved process still completes). *)

module Table = Repro_util.Table

let schedulers seed =
  [
    Apram.Scheduler.round_robin ();
    Apram.Scheduler.sequential ();
    Apram.Scheduler.random ~seed;
    Apram.Scheduler.quantum ~seed ~quantum:3;
    Apram.Scheduler.cas_adversary ~seed;
    Apram.Scheduler.laggard ~seed ~victim:0 ~delay:5;
  ]

let random_small_workload rng ~n ~ops_per_proc ~p =
  Array.init p (fun _ ->
      List.init ops_per_proc (fun _ ->
          let x = Repro_util.Rng.int rng n in
          let y = Repro_util.Rng.int rng n in
          if Repro_util.Rng.bool rng then Workload.Op.Unite (x, y)
          else Workload.Op.Same_set (x, y)))

let run ppf =
  let n = 5 in
  let table =
    Table.create ~headers:[ "policy"; "early"; "histories"; "linearizable"; "violations" ]
  in
  List.iter
    (fun policy ->
      List.iter
        (fun early ->
          let checked = ref 0 in
          let ok = ref 0 in
          let rng = Repro_util.Rng.create 1234 in
          for trial = 1 to 25 do
            let ops = random_small_workload rng ~n ~ops_per_proc:3 ~p:3 in
            List.iter
              (fun sched ->
                let r = Measure.run_sim ~sched ~policy ~early ~n ~seed:trial ~ops () in
                incr checked;
                match Lincheck.Checker.check ~n r.Measure.history with
                | Lincheck.Checker.Linearizable -> incr ok
                | Lincheck.Checker.Not_linearizable _ -> ())
              (schedulers (trial * 17))
          done;
          Table.add_row table
            [
              Dsu.Find_policy.to_string policy;
              string_of_bool early;
              Table.cell_int !checked;
              Table.cell_int !ok;
              Table.cell_int (!checked - !ok);
            ])
        [ false; true ])
    Dsu.Find_policy.all;
  Table.pp ppf table;
  Format.fprintf ppf
    "@.expected shape: zero violations in every row — all %d variants \
     linearize under all %d schedulers, including the CAS adversary and the \
     process-starving laggard (whose victim still finishes: wait-freedom).@."
    (2 * List.length Dsu.Find_policy.all)
    (List.length (schedulers 0))

let experiment =
  Experiment.make ~id:"e11" ~title:"linearizability under adversarial schedules"
    ~claim:
      "Theorem 3.4: the implementation is a correct linearizable wait-free \
       algorithm with any of the three Find versions"
    run
