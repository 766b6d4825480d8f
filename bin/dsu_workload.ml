(* dsu_workload — run configurable workloads against any of the
   implementations, natively (wall-clock, optional domains) or inside the
   APRAM simulator (exact work counts), and fuzz linearizability from the
   command line.

   Examples:
     dsu_workload native --policy two-try -n 65536 --ops 262144
     dsu_workload native --impl lock --domains 4
     dsu_workload sim --procs 8 --sched cas-adversary -n 4096
     dsu_workload sim --procs 8 --sched crash:0,1:400
     dsu_workload lincheck --trials 200 --procs 3
     dsu_workload chaos --domains 8 --crash-domains 2
     dsu_workload chaos --depth snapshot --snapshot-out crash
     dsu_workload snapshot -n 4096 --ops 20000 --snapshot-out dsu.snap
     dsu_workload restore --resume-from dsu.snap --repair --validate
     dsu_workload native --wal ops.wal
     dsu_workload snapshot --fuzzy --snapshot-out fuzzy.snap
     dsu_workload restore --resume-from fuzzy.snap --wal ops.wal --validate
     dsu_workload chaos --depth wal --depth service --layout packed
     dsu_workload wal --file ops.wal --dump --check
     dsu_workload durability --max-overhead 15
     dsu_workload serve --arrival-rate 20000 --workers 2 --admission reject
     dsu_workload scalability --max-domains 4 --json sweep.json
     dsu_workload perfdiff --baseline old.json --current sweep.json *)

open Cmdliner

module Rng = Repro_util.Rng
module Policy = Dsu.Find_policy
module Dwal = Repro_durable.Wal
module Dfuzzy = Repro_durable.Fuzzy
module Drecovery = Repro_durable.Recovery

(* ------------------------------------------------------- shared options *)

let n_arg =
  Arg.(value & opt int 4096 & info [ "n"; "elements" ] ~docv:"N" ~doc:"Number of elements.")

let ops_arg =
  Arg.(value & opt int 16384 & info [ "ops" ] ~docv:"M" ~doc:"Number of operations.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let unite_frac_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "unite-frac" ] ~docv:"F" ~doc:"Fraction of operations that are unions.")

let policy_conv =
  let parse s =
    match Policy.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  Arg.conv (parse, Policy.pp)

let policy_arg =
  Arg.(
    value
    & opt policy_conv Policy.Two_try_splitting
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Find policy: none, one-try, two-try or compression.")

type sched_kind =
  [ `Round_robin
  | `Sequential
  | `Random
  | `Cas_adversary
  | `Quantum of int
  | `Crash of int list * int
  | `Stall_storm of int * int ]

let sched_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "round-robin" ] -> Ok (`Round_robin : sched_kind)
    | [ "sequential" ] -> Ok `Sequential
    | [ "random" ] -> Ok `Random
    | [ "cas-adversary" ] -> Ok `Cas_adversary
    | [ "quantum"; q ] -> (
      match int_of_string_opt q with
      | Some q when q > 0 -> Ok (`Quantum q)
      | _ -> Error (`Msg "quantum:<positive int>"))
    | [ "crash"; victims; after ] -> (
      let victims =
        String.split_on_char ',' victims
        |> List.filter (fun v -> v <> "")
        |> List.map int_of_string_opt
      in
      match (List.for_all Option.is_some victims, int_of_string_opt after) with
      | true, Some a when a > 0 ->
        Ok (`Crash (List.filter_map Fun.id victims, a))
      | _ -> Error (`Msg "crash:<pid,pid,...>:<positive step budget>"))
    | [ "stall-storm"; prob; stall ] -> (
      match (int_of_string_opt prob, int_of_string_opt stall) with
      | Some p, Some k when p >= 0 && p <= 100 && k > 0 ->
        Ok (`Stall_storm (p, k))
      | _ -> Error (`Msg "stall-storm:<percent 0-100>:<positive stall length>"))
    | _ -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  let print ppf = function
    | `Round_robin -> Format.pp_print_string ppf "round-robin"
    | `Sequential -> Format.pp_print_string ppf "sequential"
    | `Random -> Format.pp_print_string ppf "random"
    | `Cas_adversary -> Format.pp_print_string ppf "cas-adversary"
    | `Quantum q -> Format.fprintf ppf "quantum:%d" q
    | `Crash (victims, after) ->
      Format.fprintf ppf "crash:%s:%d"
        (String.concat "," (List.map string_of_int victims))
        after
    | `Stall_storm (p, k) -> Format.fprintf ppf "stall-storm:%d:%d" p k
  in
  Arg.conv (parse, print)

let sched_arg =
  Arg.(
    value
    & opt sched_conv `Random
    & info [ "sched" ] ~docv:"SCHED"
        ~doc:
          "Scheduler: round-robin, sequential, random, cas-adversary, \
           quantum:K, crash:PIDS:AFTER (crash-stop the comma-separated pids \
           once each has run about AFTER steps) or stall-storm:PCT:K (park a \
           random process for K decisions with probability PCT%).")

let make_sched (kind : sched_kind) seed =
  match kind with
  | `Round_robin -> Apram.Scheduler.round_robin ()
  | `Sequential -> Apram.Scheduler.sequential ()
  | `Random -> Apram.Scheduler.random ~seed
  | `Cas_adversary -> Apram.Scheduler.cas_adversary ~seed
  | `Quantum q -> Apram.Scheduler.quantum ~seed ~quantum:q
  | `Crash (victims, after) -> Apram.Scheduler.crash ~seed ~victims ~after
  | `Stall_storm (prob_percent, stall) ->
    Apram.Scheduler.stall_storm ~seed ~prob_percent ~stall

let workload ~n ~ops ~unite_frac ~seed =
  Workload.Random_mix.mixed ~rng:(Rng.create seed) ~n ~m:ops
    ~unite_fraction:unite_frac

(* ----------------------------------------------------------- telemetry *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and write the metrics registry as JSON lines \
           to $(docv) after the run (\"-\" = stdout).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable event tracing and write a Chrome trace_event JSON to \
           $(docv) after the run (\"-\" = stdout); open it in \
           about://tracing or https://ui.perfetto.dev.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a once-per-500ms one-line throughput + find-p99 report to \
           stderr while the workload runs (enables telemetry).")

let arm_telemetry ~metrics_out ~trace_out ~progress =
  if metrics_out <> None || progress then Repro_obs.Metrics.set_enabled true;
  if trace_out <> None then Repro_obs.Trace.set_enabled true

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg ->
    Error (`Msg (Printf.sprintf "cannot read %s" msg))

let with_out file f =
  match file with
  | "-" -> f stdout
  | path ->
    let oc =
      try open_out path
      with Sys_error msg ->
        Printf.eprintf "dsu_workload: cannot write output: %s\n%!" msg;
        exit 1
    in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* Write a JSON document to [out] ("-" = stdout), if one was asked for. *)
let write_json out doc =
  Option.iter
    (fun out ->
      with_out out (fun oc ->
          output_string oc (Repro_obs.Json.to_string doc);
          output_char oc '\n'))
    out

(* The metrics file is the registry dump plus one trailing object carrying
   the flat [Dsu.Stats] counters (when the implementation collects them),
   so the two counter systems can be cross-checked from one artifact. *)
let write_metrics out stats =
  with_out out (fun oc ->
      output_string oc
        (Repro_obs.Export.metrics_jsonl (Repro_obs.Metrics.snapshot ()));
      match stats with
      | None -> ()
      | Some s ->
        output_string oc
          (Printf.sprintf "{\"name\":\"dsu_stats\",\"type\":\"object\",\"value\":%s}\n"
             (Dsu.Stats.to_json s)))

let write_trace out =
  with_out out (fun oc ->
      output_string oc
        (Repro_obs.Export.chrome_trace_string (Repro_obs.Trace.dump ()));
      output_char oc '\n')

let progress_loop stop =
  let module M = Repro_obs.Metrics in
  let lookup snap name =
    List.find_opt (fun (s : M.sample) -> s.name = name) snap
  in
  let last_ops = ref 0 in
  let last_t = ref (Repro_obs.Clock.wall_s ()) in
  while not (Atomic.get stop) do
    Unix.sleepf 0.5;
    let snap = M.snapshot () in
    let ops =
      match lookup snap "dsu_ops_total" with
      | Some { value = M.Counter_v v; _ } -> v
      | _ -> 0
    in
    let p99 =
      match lookup snap "dsu_find_latency_ns" with
      | Some { value = M.Hdr_v h; _ } -> Repro_obs.Hdr.quantile h 0.99
      | Some { value = M.Histogram_v h; _ } -> M.quantile h 0.99
      | _ -> 0
    in
    let now = Repro_obs.Clock.wall_s () in
    let dt = now -. !last_t in
    let rate =
      if dt > 0. then float_of_int (ops - !last_ops) /. dt /. 1e6 else 0.
    in
    Printf.eprintf "progress: %d ops  %.2f Mops/s  find p99 %dns\n%!" ops rate
      p99;
    last_ops := ops;
    last_t := now
  done

let with_progress progress f =
  if not progress then f ()
  else begin
    let stop = Atomic.make false in
    let ticker = Domain.spawn (fun () -> progress_loop stop) in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join ticker)
      f
  end

(* ---------------------------------------------------------- native mode *)

(* The baselines no plan axis names; without --impl, native runs the
   Dsu.Driver the --plan names. *)
type impl = Jt_early | Aw | Lock | Seq

(* Exact names only: [Arg.enum] would take "jt" as a prefix of
   "jt-early". *)
let impl_conv =
  let impls = [ ("jt-early", Jt_early); ("aw", Aw); ("lock", Lock); ("seq", Seq) ] in
  let parse s =
    match List.assoc_opt s impls with
    | Some i -> Ok i
    | None ->
      Error
        (`Msg (Printf.sprintf "unknown implementation %S (want jt-early, aw, lock or seq)" s))
  in
  let print ppf i =
    Format.pp_print_string ppf (fst (List.find (fun (_, j) -> j = i) impls))
  in
  Arg.conv (parse, print)

let impl_arg =
  Arg.(
    value
    & opt (some impl_conv) None
    & info [ "impl" ] ~docv:"IMPL"
        ~doc:
          "Run a baseline instead of the $(b,--plan) backend: jt-early \
           (Section 6 variant), aw (Anderson-Woll), lock (global mutex), seq \
           (sequential).")

(* --plan: run under one point of the Dsu.Plan space.  A malformed spec
   is a Cmdliner conv error — proper usage message and the CLI-error exit
   status, never a backtrace. *)
let plan_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Dsu.Plan.of_string s) in
  Arg.conv (parse, Dsu.Plan.pp)

let plan_arg =
  Arg.(
    value
    & opt (some plan_conv) None
    & info [ "plan" ] ~docv:"SPEC"
        ~doc:
          "Run under one implementation plan (compaction:order:layout, e.g. \
           halving:relaxed-reads:packed).  Overrides $(b,--policy) \
           in $(b,native); pins the $(b,scalability) sweep to the plan's \
           point.")

(* The default plan under a --policy compaction rule. *)
let plan_of_policy policy = { Dsu.Plan.default with compaction = policy }

(* A gate's percent budget (--guard-tuned, --max-overhead,
   --diff-threshold).  Every comparison against nan is false, so a nan
   budget would pass any gate: non-finite budgets are usage errors.
   Negative budgets stay legal only where they mean "demand a win"
   (--guard-tuned, --max-overhead): perfdiff rejects a negative
   --diff-threshold, under which every unchanged row would be both a
   regression and an improvement. *)
let budget_conv =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok f when Float.is_finite f -> Ok f
    | Ok _ -> Error (`Msg (Printf.sprintf "budget %S is not a finite number" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:"OCaml domains to spread the operations over (native mode).")

(* Argument validation reports through Cmdliner ([Term.term_result]), so a
   bad flag combination prints a proper error on stderr and exits with the
   CLI-error status instead of an uncaught [Failure] backtrace. *)
let check_arg cond msg = if cond then Ok () else Error (`Msg msg)

let ( let* ) = Result.bind

(* A [--*-frac] flag as a whole percent, rounded to nearest: 0.29 is
   29, not the 28 that truncating [0.29 *. 100.] gives. *)
let percent frac = int_of_float (Float.round (frac *. 100.))

(* Exit statuses: 0 = ok, 124 = bad flag (Cmdliner), and this one for
   every failed check or gate — drill audits, guards, lincheck
   violations, a torn WAL under --check, perfdiff regressions, a serve
   point that failed its accounting or depth check. *)
let check_failed_exit = 3

let check_exits =
  Cmd.Exit.info check_failed_exit ~doc:"when a check or gate fails."
  :: Cmd.Exit.defaults

let contention_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "contention-out" ] ~docv:"FILE"
        ~doc:
          "Enable per-site contention attribution and write the \
           dsu-contention/v1 report (CAS failures per Site label and per \
           node, hot-node heatmap) to $(docv) after the run (\"-\" = \
           stdout).  Only the plan backends and jt-early carry the \
           instrumented CAS sites.")

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"FILE"
        ~doc:
          "Append every link to a group-committed write-ahead log at \
           $(docv) (plan backends and jt-early only — the other baselines \
           carry no link notification).")

(* The closed-loop buckets of native, snapshot and restore: the seeded mix
   dealt round-robin over [domains]. *)
let buckets ~n ~ops ~unite_frac ~seed ~domains =
  Array.map Array.of_list
    (Workload.Op.round_robin (workload ~n ~ops ~unite_frac ~seed) ~p:domains)

(* A worker that raised fails the run, after every domain was joined. *)
let check_workers (r : _ Harness.Closed_loop.result) =
  List.iter
    (fun (k, msg) -> Printf.eprintf "dsu_workload: domain %d failed: %s\n%!" k msg)
    r.failures;
  if r.failures <> [] then exit check_failed_exit

let run_native impl policy plan n ops unite_frac seed domains
    wal metrics_out trace_out contention_out progress =
  let* () = check_arg (domains >= 1) "--domains must be >= 1" in
  let* () = check_arg (n >= 1) "--elements must be >= 1" in
  let* () = check_arg (ops >= 0) "--ops must be >= 0" in
  let* () =
    check_arg
      (unite_frac >= 0. && unite_frac <= 1.)
      "--unite-frac must be in [0, 1]"
  in
  let* () =
    check_arg
      (not (impl = Some Seq && domains > 1))
      "--impl seq is single-threaded; use --domains 1"
  in
  let* () =
    check_arg (impl = None || plan = None)
      "--impl runs a baseline, --plan a plan backend; give one"
  in
  (* Only the plan backends and jt-early carry link notifications and
     instrumented CAS sites. *)
  let baseline =
    match impl with Some (Aw | Lock | Seq) -> true | None | Some Jt_early -> false
  in
  let* () =
    check_arg
      (wal = None || not baseline)
      "--wal needs an implementation with link notifications (a plan \
       backend or jt-early)"
  in
  let* () =
    check_arg
      (contention_out = None || not baseline)
      "--contention-out needs an implementation with instrumented CAS sites \
       (a plan backend or jt-early)"
  in
  arm_telemetry ~metrics_out ~trace_out ~progress;
  if contention_out <> None then begin
    Dsu.Contention.set_enabled true;
    Dsu.Contention.reset ()
  end;
  let wal_writer =
    Option.map (Dwal.create_writer ~flush_records:Harness.Durability.flush_records) wal
  in
  let on_link = Option.map Dwal.append wal_writer in
  (* [apply] runs one bucket; [finish] reads the quiescent structure:
     its set count, counters and root test. *)
  let apply, finish =
    match impl with
    | None ->
      let plan = Option.value plan ~default:(plan_of_policy policy) in
      let d = Dsu.Driver.create ~plan ~seed ~collect_stats:true ?on_link n in
      ( Workload.Op.run_driver_array d,
        fun () ->
          let parents = Dsu.Driver.parents_snapshot d in
          ( Dsu.Driver.count_sets d,
            Some (Dsu.Driver.stats d),
            Some (fun i -> parents.(i) = i) ) )
    | Some Jt_early ->
      let d =
        Dsu.Native.create ~policy ~early:true ~collect_stats:true ?on_link ~seed n
      in
      ( Workload.Op.run_native_array d,
        fun () ->
          (Dsu.Native.count_sets d, Some (Dsu.Native.stats d), Some (Dsu.Native.is_root d)) )
    | Some Aw ->
      let module A = Baselines.Anderson_woll.Native in
      let d = A.create ~collect_stats:true n in
      ( Harness.Closed_loop.applier ~unite:(A.unite d) ~same_set:(A.same_set d)
          ~find:(A.find d),
        fun () -> (A.count_sets d, Some (A.stats d), None) )
    | Some Lock ->
      let module L = Baselines.Locked_dsu in
      let d = L.create ~seed n in
      ( Harness.Closed_loop.applier ~unite:(L.unite d) ~same_set:(L.same_set d)
          ~find:(L.find d),
        fun () -> (L.count_sets d, None, None) )
    | Some Seq ->
      let d = Sequential.Seq_dsu.create ~seed n in
      (Workload.Op.run_seq_array d, fun () -> (Sequential.Seq_dsu.count_sets d, None, None))
  in
  let r =
    with_progress progress (fun () ->
        Harness.Closed_loop.run ~apply
          (buckets ~n ~ops ~unite_frac ~seed ~domains))
  in
  check_workers r;
  let final_sets, stats, is_root = finish () in
  Printf.printf "elements:      %d\noperations:    %d (%.0f%% unions)\ndomains:       %d\n"
    n ops (unite_frac *. 100.) domains;
  Printf.printf "elapsed:       %.4fs (%.2f Mops/s)\nfinal sets:    %d\n" r.seconds
    (r.ops_per_sec /. 1e6) final_sets;
  (match wal_writer with
  | None -> ()
  | Some w ->
    Dwal.close w;
    let s = Dwal.writer_stats w in
    Printf.printf "wal:           %d appended, %d committed in %d group commit(s) -> %s\n"
      s.Dwal.ws_appended s.Dwal.ws_committed s.Dwal.ws_commits (Dwal.path w));
  (match stats with
  | None -> ()
  | Some s -> Printf.printf "counters:      %s\n" (Format.asprintf "%a" Dsu.Stats.pp s));
  (match metrics_out with None -> () | Some out -> write_metrics out stats);
  (match trace_out with None -> () | Some out -> write_trace out);
  (match contention_out with
  | None -> ()
  | Some out ->
    let r = Dsu.Contention.report () in
    with_out out (fun oc ->
        output_string oc
          (Repro_obs.Json.to_string
             (Dsu.Contention.to_json ?is_root
                ~heatmap_buckets:(Stdlib.min 32 n) ~n r));
        output_char oc '\n');
    Dsu.Contention.set_enabled false);
  Ok ()

let native_cmd =
  let doc = "Run a workload natively (wall clock; optional domains)." in
  Cmd.v (Cmd.info "native" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_native $ impl_arg $ policy_arg $ plan_arg
        $ n_arg $ ops_arg $ unite_frac_arg $ seed_arg
        $ domains_arg $ wal_arg $ metrics_out_arg $ trace_out_arg
        $ contention_out_arg $ progress_arg))

(* ------------------------------------------------------------- sim mode *)

let procs_arg =
  Arg.(value & opt int 4 & info [ "procs" ] ~docv:"P" ~doc:"Simulated processes.")

let run_sim policy n ops unite_frac seed procs sched_kind metrics_out trace_out
    =
  let* () = check_arg (procs >= 1) "--procs must be >= 1" in
  let* () = check_arg (n >= 1) "--elements must be >= 1" in
  let* () =
    check_arg
      (unite_frac >= 0. && unite_frac <= 1.)
      "--unite-frac must be in [0, 1]"
  in
  let* () =
    match sched_kind with
    | `Crash (victims, _) ->
      check_arg
        (List.for_all (fun v -> v >= 0 && v < procs) victims)
        "crash victims must be pids in [0, procs)"
    | _ -> Ok ()
  in
  arm_telemetry ~metrics_out ~trace_out ~progress:false;
  let ops_list = workload ~n ~ops ~unite_frac ~seed in
  let split = Workload.Op.round_robin ops_list ~p:procs in
  let sched = make_sched sched_kind (seed + 1) in
  let r = Harness.Measure.run_sim ~sched ~policy ~n ~seed ~ops:split () in
  let costs = Array.map float_of_int r.Harness.Measure.op_costs in
  let s = Repro_util.Stats.summarize costs in
  Printf.printf
    "elements:      %d\noperations:    %d on %d processes (%s schedule)\n" n ops
    procs (Apram.Scheduler.name sched);
  Printf.printf "total work:    %d shared-memory steps (%.2f/op)\n"
    r.Harness.Measure.total_steps
    (Harness.Measure.work_per_op r);
  Printf.printf "steps/op:      mean %.2f  median %.0f  p99 %.0f  max %.0f\n"
    s.Repro_util.Stats.mean s.Repro_util.Stats.median s.Repro_util.Stats.p99
    s.Repro_util.Stats.max;
  Format.printf "counters:      %a@." Dsu.Stats.pp r.Harness.Measure.stats;
  (match r.Harness.Measure.crashed with
  | [] -> ()
  | pids ->
    Printf.printf "crashed:       %s (in-flight ops abandoned)\n"
      (String.concat ", " (List.map string_of_int pids)));
  (match metrics_out with
  | None -> ()
  | Some out -> write_metrics out (Some r.Harness.Measure.stats));
  (match trace_out with None -> () | Some out -> write_trace out);
  Ok ()

let sim_cmd =
  let doc = "Run a workload in the APRAM simulator (exact work counts)." in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(
      term_result
        (const run_sim $ policy_arg $ n_arg $ ops_arg $ unite_frac_arg
        $ seed_arg $ procs_arg $ sched_arg $ metrics_out_arg $ trace_out_arg))

(* -------------------------------------------------------- lincheck mode *)

let trials_arg =
  Arg.(value & opt int 100 & info [ "trials" ] ~docv:"T" ~doc:"Random trials.")

let ops_per_proc_arg =
  Arg.(
    value & opt int 3
    & info [ "ops-per-proc" ] ~docv:"K" ~doc:"Operations per process (keep small).")

let run_lincheck n procs ops_per_proc trials seed sched_kind =
  let* () =
    check_arg
      (procs * ops_per_proc <= 20)
      "history too large for the exact checker (procs * ops-per-proc <= 20)"
  in
  let* () = check_arg (procs >= 1) "--procs must be >= 1" in
  let* () = check_arg (trials >= 1) "--trials must be >= 1" in
  let rng = Rng.create seed in
  let failures = ref 0 in
  let crash_histories = ref 0 in
  let linearized = ref 0 in
  let vanished = ref 0 in
  for trial = 1 to trials do
    let ops =
      Array.init procs (fun _ ->
          List.init ops_per_proc (fun _ ->
              let x = Rng.int rng n and y = Rng.int rng n in
              if Rng.bool rng then Workload.Op.Unite (x, y)
              else Workload.Op.Same_set (x, y)))
    in
    let sched = make_sched sched_kind (seed + trial) in
    List.iter
      (fun policy ->
        let r = Harness.Measure.run_sim ~sched ~policy ~n ~seed:trial ~ops () in
        let history = r.Harness.Measure.history in
        if Apram.History.pending_calls history = [] then (
          match Lincheck.Checker.check ~n history with
          | Lincheck.Checker.Linearizable -> ()
          | Lincheck.Checker.Not_linearizable msg ->
            incr failures;
            Printf.printf "VIOLATION (policy %s): %s\n" (Policy.to_string policy) msg)
        else begin
          (* Crashed processes left pending invocations: check strict
             linearizability against the quiescent memory — every pending
             op must fully linearize or fully vanish. *)
          incr crash_histories;
          let final_roots =
            Dsu.Sim.roots_of_memory r.Harness.Measure.spec r.Harness.Measure.memory
          in
          let v = Lincheck.Checker.check_crash ~n ~final_roots history in
          linearized := !linearized + List.length v.Lincheck.Checker.linearized;
          vanished := !vanished + List.length v.Lincheck.Checker.vanished;
          if not v.Lincheck.Checker.crash_ok then begin
            incr failures;
            Printf.printf "VIOLATION (policy %s): %s\n" (Policy.to_string policy)
              v.Lincheck.Checker.crash_detail
          end
        end)
      Policy.all
  done;
  let total = trials * List.length Policy.all in
  if !crash_histories > 0 then
    Printf.printf
      "%d histories had crashed processes: %d pending ops linearized, %d vanished\n"
      !crash_histories !linearized !vanished;
  Printf.printf "%d histories checked, %d violations\n" total !failures;
  if !failures > 0 then exit check_failed_exit;
  Ok ()

let lincheck_cmd =
  let doc = "Fuzz linearizability: random workloads under a chosen scheduler." in
  let n_small =
    Arg.(value & opt int 5 & info [ "n"; "elements" ] ~docv:"N" ~doc:"Elements (keep small).")
  in
  Cmd.v (Cmd.info "lincheck" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_lincheck $ n_small $ procs_arg $ ops_per_proc_arg
        $ trials_arg $ seed_arg $ sched_arg))

(* ---------------------------------------------------- snapshot / restore *)

module Rsnap = Repro_recover.Snapshot
module Rrepair = Repro_recover.Repair
module Rrestore = Repro_recover.Restore

let snapshot_format_arg =
  Arg.(
    value
    & opt (enum [ ("binary", Rsnap.Binary); ("json", Rsnap.Json) ]) Rsnap.Binary
    & info [ "format" ] ~docv:"FORMAT" ~doc:"Snapshot encoding: binary or json.")

let write_snapshot_or_die ~format path snap =
  try
    Rsnap.write_file ~format path snap;
    Ok ()
  with Sys_error msg -> Error (`Msg (Printf.sprintf "cannot write snapshot: %s" msg))

let run_snapshot policy n ops unite_frac seed domains snapshot_out format
    corrupt fuzzy =
  let* () = check_arg (n >= 2) "--elements must be >= 2" in
  let* () = check_arg (ops >= 0) "--ops must be >= 0" in
  let* () = check_arg (domains >= 1) "--domains must be >= 1" in
  let* () =
    check_arg
      (unite_frac >= 0. && unite_frac <= 1.)
      "--unite-frac must be in [0, 1]"
  in
  let d = Dsu.Driver.create ~plan:(plan_of_policy policy) ~seed n in
  (* --fuzzy: the capture races the mutators, mid-flight.  The written
     snapshot is the reconciled cut, not the final structure — its
     partition refines the final one. *)
  let r =
    Harness.Closed_loop.run
      ?during:(if fuzzy then Some (fun () -> Dfuzzy.of_driver d) else None)
      ~apply:(Workload.Op.run_driver_array d)
      (buckets ~n ~ops ~unite_frac ~seed ~domains)
  in
  check_workers r;
  let sets = Dsu.Driver.count_sets d in
  let snap =
    match r.during with
    | None -> Rsnap.of_driver d
    | Some cap -> cap.Dfuzzy.snapshot
  in
  (match r.during with
  | None -> ()
  | Some cap ->
    Printf.printf "fuzzy:    scanned mid-run in %d ns, %d reconciliation fix(es)\n"
      cap.Dfuzzy.scan_ns
      (List.length cap.Dfuzzy.fixes));
  let snap =
    if not corrupt then snap
    else begin
      (* Testing hook: introduce a 2-cycle so the file decodes (the
         checksum is honest) but fails forest validation until --repair. *)
      let parents = Array.copy snap.Rsnap.parents in
      parents.(0) <- 1;
      parents.(1) <- 0;
      { snap with Rsnap.parents }
    end
  in
  let* () = write_snapshot_or_die ~format snapshot_out snap in
  Printf.printf "snapshot: %d elements, %d sets, crc %08x -> %s%s\n" n sets
    (Rsnap.checksum snap) snapshot_out
    (if corrupt then " (forest deliberately corrupted)" else "");
  Ok ()

let snapshot_cmd =
  let doc = "Run a native workload and write a checkpoint snapshot." in
  let snapshot_out =
    Arg.(
      required
      & opt (some string) None
      & info [ "snapshot-out" ] ~docv:"FILE" ~doc:"Where to write the snapshot.")
  in
  let corrupt =
    Arg.(
      value & flag
      & info [ "corrupt" ]
          ~doc:
            "(testing) Corrupt the written forest with a parent cycle — the \
             checksum stays valid, so loading exercises $(b,restore --repair).")
  in
  let fuzzy =
    Arg.(
      value & flag
      & info [ "fuzzy" ]
          ~doc:
            "Take the snapshot $(i,while) the mutators run (fuzzy epoch \
             capture, no stop-the-world) instead of at quiescence; the \
             written cut refines the final partition.")
  in
  Cmd.v (Cmd.info "snapshot" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_snapshot $ policy_arg $ n_arg $ ops_arg $ unite_frac_arg
        $ seed_arg $ domains_arg $ snapshot_out $ snapshot_format_arg $ corrupt
        $ fuzzy))

let resume_ops_arg =
  Arg.(
    value & opt int 0
    & info [ "ops" ] ~docv:"M"
        ~doc:"Operations to run against the restored structure (0 = none).")

let run_restore policy resume_from wal repair validate ops unite_frac seed
    domains snapshot_out format =
  let* () = check_arg (ops >= 0) "--ops must be >= 0" in
  let* () = check_arg (domains >= 1) "--domains must be >= 1" in
  let* () =
    check_arg
      (unite_frac >= 0. && unite_frac <= 1.)
      "--unite-frac must be in [0, 1]"
  in
  let* snap =
    match Rsnap.read_file resume_from with
    | Ok s -> Ok s
    | Error e -> Error (`Msg (Printf.sprintf "cannot load %s: %s" resume_from e))
  in
  let snap, fixes = if repair then Rrepair.repair snap else (snap, []) in
  List.iter
    (fun fix -> Format.printf "repair: %a@." Rrepair.pp_fix fix)
    fixes;
  let* restored =
    match Rrestore.restore_result ~plan:(plan_of_policy policy) snap with
    | Ok r -> Ok r
    | Error msg ->
      Error
        (`Msg (if repair then msg else msg ^ " (a corrupted snapshot may need --repair)"))
  in
  let count = Dsu.Driver.n restored in
  Printf.printf "restored: %s snapshot, %d elements, %d sets\n"
    (Rsnap.kind_to_string (Dsu.Driver.kind restored))
    count
    (Dsu.Driver.count_sets restored);
  let* () =
    match wal with
    | None -> Ok ()
    | Some path ->
      let* tail =
        match Dwal.read_file path with
        | Ok t -> Ok t
        | Error e -> Error (`Msg (Printf.sprintf "cannot read WAL %s: %s" path e))
      in
      (* Any repair fix voids the epoch-cut containment guarantee, so the
         whole log replays (epoch 0); over-replay is harmless. *)
      let from_epoch = if fixes = [] then snap.Rsnap.epoch else 0 in
      let replayed, skipped, out_of_range =
        Drecovery.replay restored ~from_epoch tail.Dwal.records
      in
      Printf.printf
        "wal:      %d valid record(s), %d replayed from epoch %d, %d below \
         the cut, %d out of range%s; %d sets\n"
        (Array.length tail.Dwal.records)
        replayed from_epoch skipped out_of_range
        (match tail.Dwal.truncated_at with
        | None -> ""
        | Some off -> Printf.sprintf " (torn tail at byte %d dropped)" off)
        (Dsu.Driver.count_sets restored);
      Ok ()
  in
  if ops > 0 then begin
    check_workers
      (Harness.Closed_loop.run
         ~apply:(Workload.Op.run_driver_array restored)
         (buckets ~n:count ~ops ~unite_frac ~seed ~domains));
    Printf.printf "resumed:  %d ops on %d domain(s), %d sets\n" ops domains
      (Dsu.Driver.count_sets restored)
  end;
  let* () =
    if not validate then Ok ()
    else begin
      let report = Rsnap.check (Rsnap.of_driver restored) in
      if Repro_fault.Forest_check.ok report then begin
        Printf.printf "validate: ok (%d roots, max depth %d)\n"
          report.Repro_fault.Forest_check.roots
          report.Repro_fault.Forest_check.max_depth;
        Ok ()
      end
      else
        Error
          (`Msg
            (Format.asprintf "forest validation failed: %a"
               Repro_fault.Forest_check.pp report))
    end
  in
  match snapshot_out with
  | None -> Ok ()
  | Some out ->
    let* () = write_snapshot_or_die ~format out (Rsnap.of_driver restored) in
    Printf.printf "snapshot: -> %s\n" out;
    Ok ()

let restore_cmd =
  let doc = "Restore a structure from a snapshot, optionally repairing and resuming." in
  let resume_from =
    Arg.(
      required
      & opt (some string) None
      & info [ "resume-from" ] ~docv:"FILE" ~doc:"Snapshot to load (binary or JSON).")
  in
  let wal =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:
            "Replay this write-ahead log's valid prefix onto the restored \
             structure, from the snapshot's epoch on (the durable recovery \
             path); a torn tail is dropped.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:"Run repair-on-restart over the snapshot before restoring.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ] ~doc:"Check the restored forest's invariants after the run.")
  in
  let snapshot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-out" ] ~docv:"FILE"
          ~doc:"Write a fresh snapshot after resuming.")
  in
  Cmd.v (Cmd.info "restore" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_restore $ policy_arg $ resume_from $ wal $ repair $ validate
        $ resume_ops_arg $ unite_frac_arg $ seed_arg $ domains_arg
        $ snapshot_out $ snapshot_format_arg))

(* ----------------------------------------------------------- chaos mode *)

module Chaos = Harness.Chaos

let layout_conv =
  let parse s =
    match Dsu.Plan.layout_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown layout %S" s))
  in
  let print ppf l =
    Format.pp_print_string ppf (Dsu.Plan.layout_to_string l)
  in
  Arg.conv (parse, print)

let memory_order_conv =
  let parse s =
    match Dsu.Memory_order.of_string s with
    | Some o -> Ok o
    | None -> Error (`Msg (Printf.sprintf "unknown memory order %S" s))
  in
  Arg.conv (parse, Dsu.Memory_order.pp)

let memory_order_arg =
  Arg.(
    value
    & opt memory_order_conv Dsu.Memory_order.default
    & info [ "memory-order" ] ~docv:"ORDER"
        ~doc:
          "Parent-load ordering mode for the structures under test: \
           relaxed-reads (default), acquire or seq-cst.  Lets the chaos \
           audit A/B the tuned path against the fully fenced baseline.")

let chaos_n_arg =
  Arg.(
    value & opt int Chaos.default_config.Chaos.n
    & info [ "n"; "elements" ] ~docv:"N" ~doc:"Number of elements.")

let chaos_ops_arg =
  Arg.(
    value & opt int Chaos.default_config.Chaos.ops_per_domain
    & info [ "ops" ] ~docv:"M" ~doc:"Operations per domain.")

let chaos_domains_arg =
  Arg.(
    value & opt int Chaos.default_config.Chaos.domains
    & info [ "domains" ] ~docv:"D" ~doc:"Mutator domains, or service workers.")

let crash_domains_arg =
  Arg.(
    value & opt int 2
    & info [ "crash-domains" ] ~docv:"K"
        ~doc:
          "Crash-stop the first $(docv) domains mid-operation (mutators, or \
           service workers at depth service; none at depth wal).")

let crash_after_arg =
  Arg.(
    value & opt int Chaos.default_config.Chaos.crash_after
    & info [ "crash-after" ] ~docv:"H"
        ~doc:"Base fault-site-hit countdown before a victim crashes.")

let stall_prob_arg =
  Arg.(
    value & opt float 0.01
    & info [ "stall-prob" ] ~docv:"P"
        ~doc:"Per-site-hit stall probability for every domain.")

let stall_len_arg =
  Arg.(
    value & opt int 64
    & info [ "stall-len" ] ~docv:"K" ~doc:"Stall length in spin iterations.")

let fault_seed_arg =
  Arg.(
    value & opt int 7
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for the fault-injection plan (independent of --seed).")

let layouts_arg =
  Arg.(
    value
    & opt_all layout_conv []
    & info [ "layout" ] ~docv:"LAYOUT"
        ~doc:
          "Memory layout to test: flat or packed (repeatable; default \
           flat).")

let policies_arg =
  Arg.(
    value
    & opt_all policy_conv []
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Find policy to test (repeatable; default two-try). One scenario \
           runs per layout/depth/policy triple.")

let json_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the JSON report to $(docv) (\"-\" = stdout).")

let depth_conv =
  let parse s =
    match Chaos.depth_of_string s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown depth %S" s))
  in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (Chaos.depth_to_string d))

let depths_arg =
  Arg.(
    value
    & opt_all depth_conv []
    & info [ "depth" ] ~docv:"DEPTH"
        ~doc:
          "How much of the stack the crash takes down (repeatable; default \
           dsu): $(b,dsu) crashes mutator domains in memory; $(b,snapshot) \
           adds snapshot, repair, restore and resume; $(b,wal) runs the \
           mutators over a group-committed WAL and fuzzy snapshots and \
           crashes a mutator leading a group commit (torn tail) and the \
           snapshotter instead, recovering from the newest snapshot plus \
           the log; $(b,service) crashes service workers, then a worker \
           leading a group commit, recovers, resumes serving and measures \
           RTO.")

let chaos_snapshot_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-out" ] ~docv:"PREFIX"
        ~doc:
          "Keep each scenario's files (crash snapshot, WAL, fuzzy \
           snapshots) in the directory $(docv)-<layout>-<policy>-<depth> \
           instead of removing its scratch directory.")

let run_chaos n ops domains crash_domains crash_after stall_prob stall_len
    unite_frac seed fault_seed policies layouts depths memory_order snapshot_out
    json_out metrics_out =
  let* () = check_arg (n >= 2) "--elements must be >= 2" in
  let* () = check_arg (ops >= 1) "--ops must be >= 1" in
  let* () = check_arg (domains >= 1) "--domains must be >= 1" in
  let* () =
    check_arg
      (crash_domains >= 0 && crash_domains <= domains)
      "--crash-domains must be between 0 and --domains"
  in
  let* () = check_arg (crash_after >= 1) "--crash-after must be >= 1" in
  let* () =
    check_arg
      (stall_prob >= 0. && stall_prob <= 1.)
      "--stall-prob must be in [0, 1]"
  in
  let* () =
    check_arg
      (unite_frac >= 0. && unite_frac <= 1.)
      "--unite-frac must be in [0, 1]"
  in
  if metrics_out <> None then Repro_obs.Metrics.set_enabled true;
  let default xs d = if xs = [] then [ d ] else xs in
  let config =
    {
      Chaos.n;
      ops_per_domain = ops;
      domains;
      crash_domains;
      crash_after;
      stall_prob;
      stall_len;
      unite_percent = percent unite_frac;
      seed;
      fault_seed;
      policies = default policies Policy.Two_try_splitting;
      layouts = default layouts Dsu.Plan.Flat;
      depths = default depths Chaos.Dsu;
      memory_order;
    }
  in
  let scenarios =
    Chaos.run_all ~config ?keep:snapshot_out
      ~progress:(Format.printf "%a@." Chaos.pp_scenario)
      ()
  in
  write_json json_out (Chaos.to_json ~config scenarios);
  (match metrics_out with None -> () | Some out -> write_metrics out None);
  let ok = List.for_all Chaos.scenario_ok scenarios in
  Printf.printf "chaos: %d scenario(s), %s\n" (List.length scenarios)
    (if ok then "all checks passed" else "CHECKS FAILED");
  if not ok then exit check_failed_exit;
  Ok ()

let chaos_cmd =
  let doc =
    "The crash drill: inject crashes at the chosen depths of the stack, \
     recover, and audit that the recovered partition contains every acked \
     unite and nothing no submitted unite explains (emits dsu-drill/v1)."
  in
  Cmd.v (Cmd.info "chaos" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_chaos $ chaos_n_arg $ chaos_ops_arg $ chaos_domains_arg
        $ crash_domains_arg $ crash_after_arg $ stall_prob_arg $ stall_len_arg
        $ unite_frac_arg
        $ seed_arg $ fault_seed_arg $ policies_arg $ layouts_arg $ depths_arg
        $ memory_order_arg $ chaos_snapshot_out_arg $ json_out_arg
        $ metrics_out_arg))

(* -------------------------------------------------------- perfdiff mode *)

module Perfdiff = Harness.Perfdiff

let diff_threshold_arg =
  Arg.(
    value
    & opt budget_conv 10.0
    & info [ "diff-threshold" ] ~docv:"PCT"
        ~doc:"Relative delta (percent) below which a change is noise.")

let pd_baseline_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline perf JSON document.")

let pd_current_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "current" ] ~docv:"FILE" ~doc:"Current perf JSON document.")

let pd_fail_arg =
  Arg.(
    value & flag
    & info [ "fail-on-regression" ]
        ~doc:"Exit with status 3 if any metric regressed beyond the threshold.")

let run_perfdiff baseline current threshold json_out fail_on_regression =
  let* base = read_file baseline in
  let* cur = read_file current in
  match Perfdiff.diff_strings ~threshold_pct:threshold ~base ~current:cur () with
  | Error e -> Error (`Msg e)
  | Ok rep ->
    Format.printf "%a" Perfdiff.pp rep;
    write_json json_out (Perfdiff.to_json rep);
    if fail_on_regression && rep.Perfdiff.regressions <> [] then
      exit check_failed_exit;
    Ok ()

let perfdiff_cmd =
  let doc =
    "Diff the metrics lists of two perf JSON documents of one kind \
     (bench/main.exe --out, or any dsu-*/v* document a subcommand writes) \
     and flag metric deltas beyond a noise threshold (emits \
     dsu-perfdiff/v1)."
  in
  Cmd.v (Cmd.info "perfdiff" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_perfdiff $ pd_baseline_arg $ pd_current_arg
        $ diff_threshold_arg $ json_out_arg $ pd_fail_arg))

(* ------------------------------------------------------------- wal mode *)

module J = Repro_obs.Json

let run_wal file dump do_truncate check json_out =
  let* tail =
    match Dwal.read_file file with
    | Ok t -> Ok t
    | Error e -> Error (`Msg (Printf.sprintf "cannot read %s: %s" file e))
  in
  let torn_before = tail.Dwal.truncated_at in
  let* tail, dropped_bytes =
    if not do_truncate then Ok (tail, None)
    else
      match tail.Dwal.truncated_at with
      | None -> Ok (tail, Some 0)
      | Some off -> (
        match Dwal.truncate_file file with
        | Ok t -> Ok (t, Some (tail.Dwal.total_bytes - off))
        | Error e ->
          Error (`Msg (Printf.sprintf "cannot truncate %s: %s" file e)))
  in
  let records = tail.Dwal.records in
  if dump then
    Array.iter
      (fun (r : Dwal.record) ->
        Printf.printf "%8d  epoch %-6d unite %d %d\n" r.Dwal.seq r.Dwal.epoch
          r.Dwal.x r.Dwal.y)
      records;
  let epoch_min, epoch_max =
    Array.fold_left
      (fun (lo, hi) (r : Dwal.record) ->
        (Stdlib.min lo r.Dwal.epoch, Stdlib.max hi r.Dwal.epoch))
      (max_int, 0) records
  in
  Printf.printf "wal: %s — %d valid record(s)%s, %d bytes, %s\n" file
    (Array.length records)
    (if Array.length records = 0 then ""
     else Printf.sprintf " (epochs %d-%d)" epoch_min epoch_max)
    tail.Dwal.total_bytes
    (match tail.Dwal.truncated_at with
    | None -> "tail intact"
    | Some off ->
      Printf.sprintf "TORN tail at byte %d (%d trailing bytes unreadable)" off
        (tail.Dwal.total_bytes - off));
  (match dropped_bytes with
  | None | Some 0 -> ()
  | Some b -> Printf.printf "truncated: dropped %d torn byte(s)\n" b);
  write_json json_out
    (J.Obj
       ([
          ("schema", J.String "dsu-wal/v1");
          ("file", J.String file);
          ("records", J.Int (Array.length records));
          ("total_bytes", J.Int tail.Dwal.total_bytes);
          ( "truncated_at",
            match tail.Dwal.truncated_at with
            | None -> J.Null
            | Some off -> J.Int off );
        ]
       @ (if Array.length records = 0 then []
          else [ ("epoch_min", J.Int epoch_min); ("epoch_max", J.Int epoch_max) ])
       @
       match dropped_bytes with
       | None -> []
       | Some b -> [ ("dropped_bytes", J.Int b) ]));
  if check && torn_before <> None && dropped_bytes = None then
    exit check_failed_exit;
  Ok ()

let wal_cmd =
  let doc =
    "Inspect a write-ahead log: decode and CRC-verify every record, report \
     the torn-tail point, optionally dump or physically truncate."
  in
  let file =
    Arg.(
      required
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE" ~doc:"The WAL to inspect.")
  in
  let dump =
    Arg.(
      value & flag
      & info [ "dump" ] ~doc:"Print every valid record (seq, epoch, unite x y).")
  in
  let truncate =
    Arg.(
      value & flag
      & info [ "truncate" ]
          ~doc:
            "Physically truncate the file at the torn-tail point, making \
             the valid prefix the whole file.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit with status 3 if the tail is torn (and $(b,--truncate) \
             was not given).")
  in
  Cmd.v (Cmd.info "wal" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_wal $ file $ dump $ truncate $ check $ json_out_arg))

(* ------------------------------------------------------ durability mode *)

module Durability = Harness.Durability

let dur_n_arg =
  Arg.(
    value & opt int 65536
    & info [ "n"; "elements" ] ~docv:"N" ~doc:"Number of elements.")

let dur_ops_arg =
  Arg.(
    value & opt int 200_000
    & info [ "ops" ] ~docv:"M" ~doc:"Operations per domain.")

let dur_domains_arg =
  Arg.(
    value & opt int 4
    & info [ "domains" ] ~docv:"D" ~doc:"Mutator domains.")

let dur_unite_frac_arg =
  Arg.(
    value & opt float 0.6
    & info [ "unite-frac" ] ~docv:"F"
        ~doc:"Fraction of operations that are unions.")

let dur_seed_arg =
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let dur_repeats_arg =
  Arg.(
    value & opt int 3
    & info [ "repeats" ] ~docv:"R" ~doc:"Best-of repeats per phase.")

let dur_snapshots_arg =
  Arg.(
    value & opt int 8
    & info [ "snapshots" ] ~docv:"K"
        ~doc:"Fuzzy captures taken during the fuzzy phase.")

let max_overhead_arg =
  Arg.(
    value
    & opt (some budget_conv) None
    & info [ "max-overhead" ] ~docv:"PCT"
        ~doc:
          "Exit with status 3 if the WAL throughput overhead exceeds \
           $(docv) percent (the CI durability guard).")

let run_durability n ops domains unite_frac seed repeats snapshots policy
    json_out max_overhead =
  let* () = check_arg (n >= 2) "--elements must be >= 2" in
  let* () = check_arg (ops >= 1) "--ops must be >= 1" in
  let* () = check_arg (domains >= 1) "--domains must be >= 1" in
  let* () = check_arg (repeats >= 1) "--repeats must be >= 1" in
  let* () = check_arg (snapshots >= 1) "--snapshots must be >= 1" in
  let* () =
    check_arg
      (unite_frac >= 0. && unite_frac <= 1.)
      "--unite-frac must be in [0, 1]"
  in
  let config =
    {
      Durability.n;
      ops_per_domain = ops;
      domains;
      unite_percent = percent unite_frac;
      seed;
      repeats;
      snapshots;
      policy;
    }
  in
  let r = Durability.run ~config () in
  let doc = Durability.to_json r in
  (* Artifact before table, same SIGPIPE discipline as [serve]. *)
  write_json json_out doc;
  Format.printf "%a@." Durability.pp r;
  (match max_overhead with
  | Some pct when r.Durability.overhead_pct > pct ->
    Printf.eprintf "GUARD FAILED: wal overhead %.1f%% exceeds the %.1f%% bound\n%!"
      r.Durability.overhead_pct pct;
    exit check_failed_exit
  | _ -> ());
  Ok ()

let durability_cmd =
  let doc =
    "Measure what durability charges the hot path: WAL throughput overhead \
     and fuzzy vs quiescent snapshot pause (emits dsu-durability/v1)."
  in
  Cmd.v (Cmd.info "durability" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_durability $ dur_n_arg $ dur_ops_arg $ dur_domains_arg
        $ dur_unite_frac_arg $ dur_seed_arg $ dur_repeats_arg
        $ dur_snapshots_arg $ policy_arg $ json_out_arg $ max_overhead_arg))

(* ----------------------------------------------------------- serve mode *)

module Load = Harness.Load
module Service = Repro_service.Service

let arrival_rates_arg =
  Arg.(
    value
    & opt_all float [ 20_000.0 ]
    & info [ "arrival-rate" ] ~docv:"RATE"
        ~doc:
          "Offered arrival rate per load-generator domain, operations per \
           second.  Repeatable; each occurrence adds one point to the \
           sweep.")

let shape_conv =
  let parse s =
    match Load.shape_of_string s with
    | Some sh -> Ok sh
    | None -> Error (`Msg (Printf.sprintf "unknown arrival shape %S" s))
  in
  let print ppf sh = Format.pp_print_string ppf (Load.shape_to_string sh) in
  Arg.conv (parse, print)

let shape_arg =
  Arg.(
    value
    & opt shape_conv Load.Poisson
    & info [ "shape" ] ~docv:"SHAPE"
        ~doc:"Arrival schedule: fixed, poisson, bursty or bursty:K.")

let serve_gens_arg =
  Arg.(
    value
    & opt int 2
    & info [ "gens" ] ~docv:"G"
        ~doc:
          "Load-generator domains (client sessions); each walks its own \
           open-loop arrival schedule and polls its own completion lane.")

let serve_workers_arg =
  Arg.(
    value
    & opt int 2
    & info [ "workers" ] ~docv:"W"
        ~doc:
          "Server worker domains (= bounded ingestion queues).  0 drives \
           the DSU directly: each generator runs its operation on its own \
           domain, with no service in between, so the queue, batch, \
           admission and deadline options do not apply.")

let serve_qcap_arg =
  Arg.(
    value
    & opt int 1024
    & info [ "queue-capacity" ] ~docv:"C"
        ~doc:"Per-worker ingestion queue bound — the backpressure point.")

let serve_batch_arg =
  Arg.(
    value
    & opt int 64
    & info [ "batch" ] ~docv:"B"
        ~doc:"Max operations a worker drains per queue lock acquisition.")

let admission_conv =
  let parse s =
    match Service.admission_of_string s with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown admission policy %S (want reject, shed-oldest, block \
              or block:MS)"
             s))
  in
  let print ppf a = Format.pp_print_string ppf (Service.admission_to_string a) in
  Arg.conv (parse, print)

let serve_admission_arg =
  Arg.(
    value
    & opt admission_conv Service.Reject
    & info [ "admission" ] ~docv:"POLICY"
        ~doc:
          "Admission policy at a full queue: $(b,reject) fails fast, \
           $(b,shed-oldest) displaces the oldest queued op (the victim is \
           answered Shed, never dropped silently), $(b,block) or \
           $(b,block:MS) retries under backoff until a deadline.")

let serve_find_frac_arg =
  Arg.(
    value
    & opt float 0.1
    & info [ "find-frac" ] ~docv:"F"
        ~doc:
          "Fraction of operations that are finds (unions take \
           $(b,--unite-frac), the remainder are same-set queries).")

let serve_wal_arg =
  Arg.(
    value & flag
    & info [ "wal" ]
        ~doc:
          "Attach a write-ahead log: workers force the group commit before \
           acknowledging any op, so every Done ack is durable.  Needs the \
           service ($(b,--workers) >= 1).")

let serve_deadline_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-op deadline: an op still queued this long past its intended \
           arrival is answered Timed_out without touching the structure \
           (0 = none).")

let run_serve n ops unite_frac find_frac seed gens rates shape workers qcap
    batch admission plan durable deadline_ms json_out =
  let* () = check_arg (n >= 2) "--elements must be >= 2" in
  let* () = check_arg (ops >= 1) "--ops must be >= 1" in
  let* () = check_arg (gens >= 1) "--gens must be >= 1" in
  let* () = check_arg (workers >= 0) "--workers must be >= 0" in
  let* () =
    check_arg
      (not (durable && workers = 0))
      "--wal needs the service (--workers >= 1)"
  in
  let* () = check_arg (qcap >= 1) "--queue-capacity must be >= 1" in
  let* () = check_arg (batch >= 1) "--batch must be >= 1" in
  let* () = check_arg (deadline_ms >= 0.) "--deadline-ms must be >= 0" in
  let* () =
    check_arg
      (unite_frac >= 0. && find_frac >= 0. && unite_frac +. find_frac <= 1.)
      "--unite-frac and --find-frac must be nonnegative and sum to <= 1"
  in
  let unite_percent = percent unite_frac and find_percent = percent find_frac in
  let* () =
    check_arg
      (unite_percent + find_percent <= 100)
      "--unite-frac and --find-frac must sum to <= 100% once rounded to \
       whole percents"
  in
  let* () =
    check_arg
      (List.for_all (fun r -> r > 0.) rates)
      "--arrival-rate must be positive"
  in
  let plan = Option.value plan ~default:Dsu.Plan.default in
  let config =
    {
      Load.n;
      unite_percent;
      find_percent;
      seed;
      generators = gens;
      ops;
      shape;
      workers;
      queue_capacity = qcap;
      batch;
      admission;
      plan;
      op_deadline_ms = deadline_ms;
      durable;
    }
  in
  let points = Load.sweep ~config ~rates () in
  (* Write the artifact before printing: a consumer that truncates stdout
     (e.g. [| head -1]) closes the pipe and SIGPIPEs the process mid-table,
     which must not cost the JSON document. *)
  write_json json_out (Load.to_json config points);
  Format.printf "%a" (Load.pp_table config) points;
  if
    not
      (List.for_all
         (fun (p : Load.point) -> p.accounted_ok && p.depth_bound_ok)
         points)
  then exit check_failed_exit;
  Ok ()

let serve_cmd =
  let doc =
    "Open-loop load sweep (emits dsu-load/v1): deterministic arrival \
     schedules, intended-start accounting, p50/p99/p999 per offered rate, \
     saturation knee.  The target is connectivity-as-a-service, a \
     multi-domain DSU server with bounded ingestion queues and explicit \
     backpressure, or with $(b,--workers 0) the bare DSU.  The serving \
     crash drill is $(b,chaos --depth service)."
  in
  Cmd.v (Cmd.info "serve" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_serve $ n_arg $ ops_arg $ unite_frac_arg
        $ serve_find_frac_arg $ seed_arg $ serve_gens_arg $ arrival_rates_arg
        $ shape_arg $ serve_workers_arg $ serve_qcap_arg $ serve_batch_arg
        $ serve_admission_arg $ plan_arg
        $ serve_wal_arg $ serve_deadline_arg $ json_out_arg))

(* ---------------------------------------------------- connectivity mode *)

module Connectivity = Harness.Connectivity
module Connectit = Graphs.Connectit

let conn_gen_conv =
  let parse s =
    match Connectivity.gen_of_string s with
    | Some g -> Ok g
    | None -> Error (`Msg (Printf.sprintf "unknown generator %S" s))
  in
  let print ppf g = Format.pp_print_string ppf (Connectivity.gen_to_string g) in
  Arg.conv (parse, print)

let conn_gens_arg =
  Arg.(
    value
    & opt_all conn_gen_conv []
    & info [ "gen" ] ~docv:"GEN"
        ~doc:
          "Streamed generator: rmat, er or power-law (repeatable; default \
           rmat and er).")

let conn_sampling_conv =
  let parse s =
    match Connectit.sampling_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown sampling strategy %S" s))
  in
  let print ppf v = Format.pp_print_string ppf (Connectit.sampling_to_string v) in
  Arg.conv (parse, print)

let conn_samplings_arg =
  Arg.(
    value
    & opt_all conn_sampling_conv []
    & info [ "sampling" ] ~docv:"S"
        ~doc:
          "Sampling phase: none or k-out:K (repeatable; default none and \
           k-out:2).")

let conn_mode_conv =
  let parse s =
    match Connectit.mode_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print ppf v = Format.pp_print_string ppf (Connectit.mode_to_string v) in
  Arg.conv (parse, print)

let conn_modes_arg =
  Arg.(
    value
    & opt_all conn_mode_conv []
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Engine mode: racy (the paper's wait-free engine) or det \
           (schedule-independent bulk rounds); repeatable, default racy.")

let conn_domains_arg =
  Arg.(
    value
    & opt_all int []
    & info [ "domains" ] ~docv:"D"
        ~doc:"Domain count to sweep (repeatable; default 1 and 4).")

let conn_scale_arg =
  Arg.(
    value & opt int 16
    & info [ "scale" ] ~docv:"S" ~doc:"2^$(docv) vertices (default 16).")

let conn_edge_factor_arg =
  Arg.(
    value & opt int 8
    & info [ "edge-factor" ] ~docv:"E"
        ~doc:"Edges = $(docv) * 2^scale (default 8).")

let conn_chunk_arg =
  Arg.(
    value & opt int 16384
    & info [ "chunk" ] ~docv:"C" ~doc:"Stream chunk size in edges (default 16384).")

let conn_simple_arg =
  Arg.(
    value & flag
    & info [ "simple" ]
        ~doc:"Reject self-loops in the streamed generators (resampled endpoint).")

let conn_block_chunks_arg =
  Arg.(
    value & opt int 8
    & info [ "block-chunks" ] ~docv:"B"
        ~doc:"Chunks per deterministic-engine round block (default 8).")

let conn_no_baselines_arg =
  Arg.(
    value & flag
    & info [ "no-baselines" ]
        ~doc:"Skip the Anderson-Woll and Boruvka baseline passes.")

let conn_adversarial_arg =
  Arg.(
    value & opt int 16384
    & info [ "adversarial" ] ~docv:"N"
        ~doc:
          "Elements for the Patrascu-Thorup incremental-connectivity point \
           (0 disables it; default 16384).")

let conn_check_det_arg =
  Arg.(
    value & flag
    & info [ "check-determinism" ]
        ~doc:
          "After the sweep, replay the deterministic engine across domain \
           counts 1/2/4 x three perturbation schedules (injected yields) \
           and demand byte-identical labels; exit 3 on any disagreement.")

let run_connectivity gens samplings modes domains_list scale edge_factor
    chunk seed simple plan block_chunks no_baselines
    adversarial_n check_det json_out =
  let* () = check_arg (scale >= 1 && scale <= 40) "--scale must be in [1, 40]" in
  let* () = check_arg (edge_factor >= 1) "--edge-factor must be >= 1" in
  let* () = check_arg (chunk >= 1) "--chunk must be >= 1" in
  let* () = check_arg (block_chunks >= 1) "--block-chunks must be >= 1" in
  let* () = check_arg (adversarial_n >= 0) "--adversarial must be >= 0" in
  let* () =
    check_arg
      (List.for_all (fun d -> d >= 1) domains_list)
      "--domains must be >= 1"
  in
  let defaults = Connectivity.default_config in
  let domains_list =
    if domains_list = [] then defaults.Connectivity.domains_list
    else domains_list
  in
  let plan = Option.value plan ~default:Dsu.Plan.default in
  let config =
    {
      Connectivity.scale;
      edge_factor;
      chunk_size = chunk;
      seed;
      simple;
      domains_list;
      gens = (if gens = [] then defaults.Connectivity.gens else gens);
      samplings =
        (if samplings = [] then defaults.Connectivity.samplings else samplings);
      modes = (if modes = [] then defaults.Connectivity.modes else modes);
      plan;
      block_chunks;
      baselines = not no_baselines;
      adversarial_n;
    }
  in
  let points =
    Connectivity.sweep ~config
      ~progress:(fun p ->
        Printf.eprintf "connectivity: %s %s %s d=%d  %.2f Medges/s\n%!"
          p.Connectivity.gen p.Connectivity.mode p.Connectivity.sampling
          p.Connectivity.domains
          (p.Connectivity.edges_per_sec /. 1e6))
      ()
  in
  let baselines_pts =
    if config.Connectivity.baselines then Connectivity.run_baselines ~config ()
    else []
  in
  let adversarial =
    if adversarial_n = 0 then None
    else
      Some
        (Connectivity.run_adversarial ~config
           ~domains:(List.fold_left max 1 domains_list)
           ())
  in
  let doc = Connectivity.to_json ~config ?adversarial ~baselines:baselines_pts points in
  (* Artifact before table, same SIGPIPE discipline as [serve]. *)
  write_json json_out doc;
  Format.printf "%a@." Connectivity.pp_table points;
  if baselines_pts <> [] then
    Format.printf "%a@." Connectivity.pp_baselines baselines_pts;
  (match adversarial with
  | None -> ()
  | Some a ->
    Printf.printf
      "adversarial: n=%d, %d ops (%d unions, %d queries) on %d domain(s), \
       %.2f Mops/s\n"
      a.Connectivity.a_n a.Connectivity.a_ops a.Connectivity.a_unions
      a.Connectivity.a_queries a.Connectivity.a_domains
      (a.Connectivity.a_ops_per_sec /. 1e6));
  (match Connectivity.check_components points with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "connectivity: FAIL — %s\n%!" e;
    exit check_failed_exit);
  if check_det then begin
    let stream =
      Connectivity.make_stream config
        (List.hd (if gens = [] then defaults.Connectivity.gens else gens))
    in
    let outcome =
      Lincheck.Determinism.check
        ~run:(fun ~domains ~on_round ->
          let labels, report =
            Graphs.Det_bulk.run ~domains ~block_chunks ~on_round stream
          in
          (labels, report.Graphs.Det_bulk.rounds))
        ()
    in
    Printf.printf "determinism: %d runs, %s\n" outcome.Lincheck.Determinism.runs
      (if outcome.Lincheck.Determinism.ok then
         Printf.sprintf "labels and rounds byte-identical (digest %s)"
           outcome.Lincheck.Determinism.digest
       else "DISAGREEMENT");
    if not outcome.Lincheck.Determinism.ok then begin
      List.iter (Printf.printf "  %s\n")
        outcome.Lincheck.Determinism.failures;
      exit check_failed_exit
    end
  end;
  Ok ()

let connectivity_cmd =
  let doc =
    "Streaming-connectivity benchmark family: ConnectIt-style sample+finish \
     pipeline over chunked edge streams (never materialized), racy vs \
     deterministic engines, edges/sec per phase vs the Anderson-Woll and \
     Boruvka baselines (emits dsu-connectivity/v1)."
  in
  Cmd.v (Cmd.info "connectivity" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_connectivity $ conn_gens_arg $ conn_samplings_arg
        $ conn_modes_arg $ conn_domains_arg $ conn_scale_arg
        $ conn_edge_factor_arg $ conn_chunk_arg $ seed_arg $ conn_simple_arg
        $ plan_arg $ conn_block_chunks_arg
        $ conn_no_baselines_arg $ conn_adversarial_arg $ conn_check_det_arg
        $ json_out_arg))

(* ----------------------------------------------------- scalability mode *)

module Scalability = Harness.Scalability

let dist_conv =
  let parse s =
    match Scalability.dist_of_string s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown distribution %S" s))
  in
  let print ppf d = Format.pp_print_string ppf (Scalability.dist_to_string d) in
  Arg.conv (parse, print)

let scal_defaults = Scalability.default_config

let scal_n_arg =
  Arg.(
    value & opt int scal_defaults.Scalability.n
    & info [ "n"; "elements" ] ~docv:"N" ~doc:"Nodes in the shared DSU.")

let scal_ops_arg =
  Arg.(
    value & opt int scal_defaults.Scalability.total_ops
    & info [ "ops" ] ~docv:"M"
        ~doc:"Operations per sweep point, split evenly across the domains.")

let max_domains_arg =
  Arg.(
    value & opt int 8
    & info [ "max-domains" ] ~docv:"D"
        ~doc:"Sweep the domain counts 1, 2, 4, ... up to $(docv).")

let unite_percent_arg =
  Arg.(
    value & opt int scal_defaults.Scalability.unite_percent
    & info [ "unite-percent" ] ~docv:"P"
        ~doc:"Percentage of Unite operations (the rest are SameSet).")

(* One comma-separated sweep axis, e.g. --policies two-try,one-try. *)
let axis_arg elt default name ~docv ~doc =
  Arg.(value & opt (list elt) default & info [ name ] ~docv ~doc)

let scal_policies_arg =
  axis_arg policy_conv scal_defaults.Scalability.policies "policies"
    ~docv:"P1,P2" ~doc:"Find policies to sweep (default two-try,one-try)."

let scal_layouts_arg =
  axis_arg layout_conv scal_defaults.Scalability.layouts "layouts"
    ~docv:"L1,L2"
    ~doc:"Memory layouts to sweep: flat, packed (default flat)."

let scal_orders_arg =
  axis_arg memory_order_conv scal_defaults.Scalability.memory_orders
    "memory-orders" ~docv:"O1,O2"
    ~doc:
      "Parent-load memory orders to sweep: seq-cst, acquire, relaxed-reads \
       (default relaxed-reads)."

let scal_dists_arg =
  axis_arg dist_conv scal_defaults.Scalability.dists "dists" ~docv:"D1,D2"
    ~doc:"Endpoint distributions to sweep: uniform, skewed (default uniform)."

let guard_tuned_arg =
  Arg.(
    value
    & opt (some budget_conv) None
    & info [ "guard-tuned" ] ~docv:"PCT"
        ~doc:
          "After the sweep, exit 3 if the tuned path is more than $(docv) \
           percent slower than its baseline: with $(b,--plan), the plan vs \
           the default plan; without, the single-domain smoke pair (flat, \
           two-try), the default memory order vs seq-cst.")

(* The --guard-tuned gate: [tuned] may lose at most [pct] percent of
   [base]'s throughput — the threshold perfdiff applies to a
   higher-is-better metric. *)
let guard_tuned ~pct ~base:(base_name, base) ~tuned:(tuned_name, tuned) =
  let loss = if base = 0. then 0. else (base -. tuned) /. base *. 100. in
  Printf.printf
    "\nguard-tuned: %s %.3f Mops/s, %s %.3f Mops/s (loss %.1f%%, budget \
     %.1f%%)\n%!"
    base_name base tuned_name tuned loss pct;
  if loss > pct then begin
    Printf.eprintf
      "guard-tuned: FAIL — %s is %.1f%% slower than %s (budget %.1f%%)\n%!"
      tuned_name loss base_name pct;
    exit check_failed_exit
  end

(* Best of three single-domain runs: single-domain runs on shared CI hosts
   are noisy, and the guard exists to catch a systematic regression (a
   misplaced fence, an accidental strong CAS in the hot loop), not
   scheduling jitter. *)
let best_of_3 run =
  let a = run () in
  let b = run () in
  Float.max a (Float.max b (run ()))

let run_scalability n ops max_domains unite_percent policies layouts orders
    dists plan guard json_out =
  let* () = check_arg (n >= 1) "--elements must be >= 1" in
  let* () = check_arg (ops >= 1) "--ops must be >= 1" in
  let* () = check_arg (max_domains >= 1) "--max-domains must be >= 1" in
  let* () =
    check_arg
      (unite_percent >= 0 && unite_percent <= 100)
      "--unite-percent must be in [0, 100]"
  in
  let* () =
    check_arg
      (policies <> [] && layouts <> [] && orders <> [] && dists <> [])
      "a sweep axis is empty"
  in
  let rec counts d = if d > max_domains then [] else d :: counts (2 * d) in
  let domain_counts = counts 1 in
  let config =
    {
      scal_defaults with
      n;
      total_ops = ops;
      unite_percent;
      domain_counts;
      policies;
      layouts;
      memory_orders = orders;
      dists;
    }
  in
  (* A plan pins the sweep to its point; only domains and dists still
     sweep. *)
  let config =
    match plan with
    | None -> config
    | Some p ->
      {
        config with
        layouts = [ p.Dsu.Plan.layout ];
        policies = [ p.Dsu.Plan.compaction ];
        memory_orders = [ p.Dsu.Plan.memory_order ];
      }
  in
  let points =
    Scalability.sweep ~config
      ~progress:(fun p ->
        Printf.printf "%-12s %-10s %-13s %-7s d=%d  %8.3f Mops/s\n%!"
          (Dsu.Plan.layout_to_string p.Scalability.layout)
          (Policy.to_string p.Scalability.policy)
          (Dsu.Memory_order.to_string p.Scalability.memory_order)
          (Scalability.dist_to_string p.Scalability.dist)
          p.Scalability.domains p.Scalability.mops_per_sec)
      ()
  in
  write_json json_out (Scalability.to_json ~config points);
  Format.printf "@.%a%!" Scalability.pp_table points;
  (match (guard, plan) with
  | None, _ -> ()
  | Some pct, None ->
    let best memory_order =
      best_of_3 (fun () ->
          (Scalability.run_point ~config
             ~plan:{ Dsu.Plan.default with memory_order }
             ~domains:1 ())
            .Scalability.mops_per_sec)
    in
    let seqcst = best Dsu.Memory_order.Seq_cst in
    let default = best Dsu.Memory_order.default in
    guard_tuned ~pct ~base:("seq-cst", seqcst)
      ~tuned:(Dsu.Memory_order.to_string Dsu.Memory_order.default, default)
  | Some pct, Some plan ->
    let best plan =
      best_of_3 (fun () ->
          (Scalability.run_point ~config ~plan ~domains:1 ())
            .Scalability.mops_per_sec)
    in
    let tuned = best plan in
    let default = best Dsu.Plan.default in
    guard_tuned ~pct
      ~base:("default plan " ^ Dsu.Plan.to_string Dsu.Plan.default, default)
      ~tuned:("tuned plan " ^ Dsu.Plan.to_string plan, tuned));
  Ok ()

let scalability_cmd =
  let doc =
    "Domain-parallel scalability sweep (experiment E13): one shared DSU \
     under 1, 2, 4, ... domains across find policies, memory layouts, \
     memory orders and key distributions (emits dsu-scalability/v2)."
  in
  Cmd.v (Cmd.info "scalability" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const run_scalability $ scal_n_arg $ scal_ops_arg $ max_domains_arg
        $ unite_percent_arg $ scal_policies_arg $ scal_layouts_arg
        $ scal_orders_arg $ scal_dists_arg $ plan_arg
        $ guard_tuned_arg $ json_out_arg))

let main =
  let doc = "Workload driver for the concurrent disjoint-set-union library" in
  Cmd.group (Cmd.info "dsu_workload" ~doc)
    [
      native_cmd;
      sim_cmd;
      lincheck_cmd;
      chaos_cmd;
      snapshot_cmd;
      restore_cmd;
      wal_cmd;
      durability_cmd;
      serve_cmd;
      connectivity_cmd;
      scalability_cmd;
      perfdiff_cmd;
    ]

let () = exit (Cmd.eval main)
