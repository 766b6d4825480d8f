(* Durability cost measurement: what the WAL and the fuzzy snapshots
   charge the hot path.

   Three phases over the same pre-generated workload, best wall time of
   [repeats] runs each:

   - wal=off: the bare structure — the throughput baseline, plus the
     stop-the-world price of a quiescent snapshot (the full scan, since a
     quiescent capture requires every mutator parked for its duration);
   - fuzzy: the same run with a snapshotter domain taking [snapshots]
     fuzzy captures concurrently — the mutator-observed "pause" is the
     run's wall-time inflation divided across the captures, which the
     fuzzy design claims is ~0 (mutators never stop);
   - wal=on: the same run with every link appended to a group-committed
     WAL — the overhead the 15% CI guard watches. *)

module Policy = Dsu.Find_policy
module J = Repro_obs.Json
module Clock = Repro_obs.Clock
module Rsnap = Repro_recover.Snapshot
module Dwal = Repro_durable.Wal
module Dfuzzy = Repro_durable.Fuzzy

type config = {
  n : int;
  ops_per_domain : int;
  domains : int;
  unite_percent : int;
  seed : int;
  repeats : int;
  snapshots : int;  (** fuzzy captures taken during the fuzzy phase *)
  policy : Policy.t;
}

let default_config =
  {
    n = 1 lsl 16;
    ops_per_domain = 200_000;
    domains = 4;
    unite_percent = 60;
    seed = 11;
    repeats = 3;
    snapshots = 8;
    policy = Policy.Two_try_splitting;
  }

let flush_records = 256
let flush_interval = 0.002

type result = {
  config : config;
  wal_off_mops : float;
  wal_on_mops : float;
  overhead_pct : float;  (** throughput lost to the WAL, percent *)
  quiescent_pause_ns : float;  (** stop-the-world scan duration *)
  fuzzy_pause_ns : float;  (** mutator-observed inflation per fuzzy capture *)
  fuzzy_scan_ns : float;  (** mean fuzzy scan duration (the scanner's cost) *)
  wal_appended : int;
  wal_committed : int;
  wal_commits : int;
}

let validate c =
  if c.n < 2 then invalid_arg "Durability: n must be >= 2";
  if c.domains < 1 then invalid_arg "Durability: domains must be >= 1";
  if c.ops_per_domain < 1 then invalid_arg "Durability: ops_per_domain must be >= 1";
  if c.repeats < 1 then invalid_arg "Durability: repeats must be >= 1";
  if c.snapshots < 1 then invalid_arg "Durability: snapshots must be >= 1"

(* One timed run of the buckets against a fresh structure, with [during d]
   on the calling domain; returns the seconds, the structure (for the
   quiescent-snapshot timing and so the WAL writer sees real link
   traffic) and [during]'s value. *)
let timed_run c ops ?on_link during =
  let d =
    Dsu.Driver.create
      ~plan:{ Dsu.Plan.default with compaction = c.policy }
      ~seed:c.seed ?on_link c.n
  in
  let r =
    Closed_loop.run
      ~during:(fun () -> during d)
      ~apply:(Workload.Op.run_driver_array d)
      ops
  in
  Closed_loop.raise_failures r;
  (r.seconds, d, Option.get r.during)

let best c f =
  let rec go i (best_s, best_aux) =
    if i >= c.repeats then (best_s, best_aux)
    else
      let s, aux = f () in
      go (i + 1) (if s < best_s then (s, aux) else (best_s, best_aux))
  in
  let s, aux = f () in
  go 1 (s, aux)

let mops c seconds = float_of_int (c.domains * c.ops_per_domain) /. seconds /. 1e6

let run ?(config = default_config) () =
  let c = config in
  validate c;
  let ops =
    Closed_loop.gen_ops ~n:c.n ~unite_percent:c.unite_percent ~seed:c.seed
      ~domains:c.domains ~ops_per_domain:c.ops_per_domain ()
  in
  (* Phase 1: baseline, plus the quiescent scan at quiescence. *)
  let off_s, quiescent_pause_ns =
    best c (fun () ->
        let s, d, () = timed_run c ops ignore in
        let t0 = Clock.now_ns () in
        ignore (Rsnap.of_driver d : Rsnap.t);
        (s, float_of_int (Clock.now_ns () - t0)))
  in
  (* Phase 2: concurrent fuzzy captures.  The per-capture "pause" is the
     wall-time the mutators lost, not the scanner's own cost. *)
  let fuzzy_s, fuzzy_scan_ns =
    best c (fun () ->
        let s, _, scan_ns =
          timed_run c ops (fun d ->
              let scans = ref 0 in
              for _ = 1 to c.snapshots do
                let cap = Dfuzzy.of_driver d in
                scans := !scans + cap.Dfuzzy.scan_ns
              done;
              float_of_int !scans /. float_of_int c.snapshots)
        in
        (s, scan_ns))
  in
  (* Phase 3: WAL on — every link enqueued, committer group-committing to
     a scratch file that is removed afterwards. *)
  let on_s, (wal_appended, wal_committed, wal_commits) =
    best c (fun () ->
        let path = Filename.temp_file "dsu-durability" ".wal" in
        let wal =
          Dwal.create_writer ~flush_records ~flush_interval path
        in
        let secs, _, () = timed_run c ops ~on_link:(Dwal.append wal) ignore in
        Dwal.close wal;
        let s = Dwal.writer_stats wal in
        (try Sys.remove path with Sys_error _ -> ());
        (secs, (s.Dwal.ws_appended, s.Dwal.ws_committed, s.Dwal.ws_commits)))
  in
  let wal_off_mops = mops c off_s and wal_on_mops = mops c on_s in
  {
    config = c;
    wal_off_mops;
    wal_on_mops;
    overhead_pct =
      (if wal_off_mops = 0. then 0.
       else (wal_off_mops -. wal_on_mops) /. wal_off_mops *. 100.);
    quiescent_pause_ns;
    fuzzy_pause_ns =
      Float.max 0. ((fuzzy_s -. off_s) *. 1e9 /. float_of_int c.snapshots);
    fuzzy_scan_ns;
    wal_appended;
    wal_committed;
    wal_commits;
  }

let to_json (r : result) =
  let c = r.config in
  J.Obj
    [
      ("schema", J.String "dsu-durability/v1");
      ("n", J.Int c.n);
      ("ops_per_domain", J.Int c.ops_per_domain);
      ("domains", J.Int c.domains);
      ("unite_percent", J.Int c.unite_percent);
      ("seed", J.Int c.seed);
      ("repeats", J.Int c.repeats);
      ("snapshots", J.Int c.snapshots);
      ("flush_records", J.Int flush_records);
      ("flush_interval", J.Float flush_interval);
      ("policy", J.String (Policy.to_string c.policy));
      Perfdiff.metrics_field
        [
          { Perfdiff.key = "unite wal=off"; metric = "mops_per_sec";
            dir = Higher_better; value = r.wal_off_mops };
          { key = "unite wal=on"; metric = "mops_per_sec";
            dir = Higher_better; value = r.wal_on_mops };
          { key = "snapshot quiescent"; metric = "pause_ns";
            dir = Lower_better; value = r.quiescent_pause_ns };
          { key = "snapshot fuzzy"; metric = "pause_ns";
            dir = Lower_better; value = r.fuzzy_pause_ns };
        ];
      ("wal_overhead_pct", J.Float r.overhead_pct);
      ("fuzzy_scan_ns", J.Float r.fuzzy_scan_ns);
      ( "wal",
        J.Obj
          [
            ("appended", J.Int r.wal_appended);
            ("committed", J.Int r.wal_committed);
            ("commits", J.Int r.wal_commits);
          ] );
    ]

let pp ppf (r : result) =
  Format.fprintf ppf
    "@[<v>durability (n=%d, %d domains x %d ops, %d%% unite):@,\
    \  unite throughput: %.2f Mops/s wal=off, %.2f Mops/s wal=on (%.1f%% \
     overhead)@,\
    \  snapshot pause: %.0f ns quiescent (stop-the-world scan), %.0f ns \
     fuzzy (mutator-observed, %d captures, mean scan %.0f ns)@,\
    \  wal: %d appended, %d committed in %d group commits@]"
    r.config.n r.config.domains r.config.ops_per_domain
    r.config.unite_percent r.wal_off_mops r.wal_on_mops r.overhead_pct
    r.quiescent_pause_ns r.fuzzy_pause_ns r.config.snapshots r.fuzzy_scan_ns
    r.wal_appended r.wal_committed r.wal_commits
