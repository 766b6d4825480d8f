(** E13 — native context numbers (not a paper claim): wall-clock throughput
    of the OCaml 5 domains implementation, against the global-lock baseline.

    Domains beyond the host's cores add scheduling overhead instead of
    parallel speedup, so there the interesting columns are the
    single-domain throughput and the lock-free vs lock comparison under
    oversubscription.  The paper's speedup claims are about total work,
    which experiments E4–E8 measure exactly in the simulator. *)

module Table = Repro_util.Table

(* Monotonic: a wall-clock step mid-run must not distort throughput. *)
let now () = float_of_int (Repro_obs.Clock.now_ns ()) /. 1e9

let throughput_concurrent ~policy ~n ~ops_per_domain ~domains ~seed =
  let d = Dsu.Native.create ~policy ~seed n in
  let worker k () =
    let rng = Repro_util.Rng.create (seed + (1000 * k)) in
    for _ = 1 to ops_per_domain do
      let x = Repro_util.Rng.int rng n in
      let y = Repro_util.Rng.int rng n in
      if Repro_util.Rng.int rng 10 < 3 then Dsu.Native.unite d x y
      else ignore (Dsu.Native.same_set d x y)
    done
  in
  let t0 = now () in
  let handles = List.init domains (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join handles;
  let dt = now () -. t0 in
  float_of_int (ops_per_domain * domains) /. dt

let throughput_locked ~n ~ops_per_domain ~domains ~seed =
  let d = Baselines.Locked_dsu.create ~seed n in
  let worker k () =
    let rng = Repro_util.Rng.create (seed + (1000 * k)) in
    for _ = 1 to ops_per_domain do
      let x = Repro_util.Rng.int rng n in
      let y = Repro_util.Rng.int rng n in
      if Repro_util.Rng.int rng 10 < 3 then Baselines.Locked_dsu.unite d x y
      else ignore (Baselines.Locked_dsu.same_set d x y)
    done
  in
  let t0 = now () in
  let handles = List.init domains (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join handles;
  let dt = now () -. t0 in
  float_of_int (ops_per_domain * domains) /. dt

let run ppf =
  let n = 1 lsl 17 in
  let total_ops = 400_000 in
  let table =
    Table.create ~headers:[ "domains"; "impl"; "Mops/s"; "vs locked" ]
  in
  List.iter
    (fun domains ->
      let ops_per_domain = total_ops / domains in
      let jt =
        throughput_concurrent ~policy:Dsu.Find_policy.Two_try_splitting ~n
          ~ops_per_domain ~domains ~seed:21
      in
      let locked = throughput_locked ~n ~ops_per_domain ~domains ~seed:21 in
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
