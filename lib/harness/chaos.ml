module Policy = Dsu.Find_policy
module Rng = Repro_util.Rng
module J = Repro_obs.Json
module Clock = Repro_obs.Clock
module Op = Workload.Op
module Site = Repro_fault.Site
module Fi = Repro_fault.Inject
module Fc = Repro_fault.Forest_check
module Seq = Sequential.Seq_dsu
module Rsnap = Repro_recover.Snapshot
module Rrepair = Repro_recover.Repair
module Rrestore = Repro_recover.Restore
module Driver = Dsu.Driver
module Dwal = Repro_durable.Wal
module Dfuzzy = Repro_durable.Fuzzy
module Drecovery = Repro_durable.Recovery
module Svc = Repro_service.Service

type depth = Dsu | Snapshot | Wal | Service

let all_depths = [ Dsu; Snapshot; Wal; Service ]

let depth_to_string = function
  | Dsu -> "dsu"
  | Snapshot -> "snapshot"
  | Wal -> "wal"
  | Service -> "service"

let depth_of_string s = List.find_opt (fun d -> depth_to_string d = s) all_depths

type config = {
  n : int;
  ops_per_domain : int;
  domains : int;
  crash_domains : int;
  crash_after : int;
  stall_prob : float;
  stall_len : int;
  unite_percent : int;
  seed : int;
  fault_seed : int;
  policies : Policy.t list;
  layouts : Dsu.Plan.layout list;
  depths : depth list;
  memory_order : Dsu.Memory_order.t;
}

let default_config =
  {
    n = 16384;
    ops_per_domain = 2_000;
    domains = 8;
    crash_domains = 2;
    crash_after = 2_000;
    stall_prob = 0.01;
    stall_len = 64;
    unite_percent = 40;
    seed = 11;
    fault_seed = 7;
    policies = [ Policy.Two_try_splitting ];
    layouts = [ Dsu.Plan.Flat ];
    depths = [ Dsu ];
    memory_order = Dsu.Memory_order.default;
  }

type check = { name : string; ok : bool; detail : string }

(* A check from its first counterexample, if any. *)
let verdict name = function
  | None -> { name; ok = true; detail = "" }
  | Some detail -> { name; ok = false; detail }

let recovery_check r = verdict "recovery" (match r with Error e -> Some e | Ok _ -> None)

(* ---------- the audit ---------- *)

type forest = { parents : int array; prio : int -> int; find : int -> int }

(* [prio] is read live: packed ranks move as roots are promoted. *)
let forest_of_driver d =
  { parents = Driver.parents_snapshot d; prio = Driver.prio d; find = Driver.find d }

type answers = {
  unites : (int * int * int) list;
  queries : (int * int * int * bool) list;
}

type evidence = {
  acked : (int * int) list;
  submitted : (int * int) list;
  answers : answers option;
  hops : (int * int) list;
}

let hop_budget n = 2. *. Float.log2 (float_of_int n)

let closure n pairs =
  let s = Seq.create n in
  List.iter (fun (x, y) -> Seq.unite s x y) pairs;
  s

let audit ?(stage = "") ev f =
  let n = Array.length f.parents in
  let verdict name = verdict (if stage = "" then name else stage ^ ":" ^ name) in
  let report = Fc.check ~prio:f.prio f.parents in
  if not (Fc.ok report) then
    (* Everything below chases parent chains. *)
    [ verdict "forest" (Some (Format.asprintf "%a" Fc.pp report)) ]
  else begin
    let parents = f.parents in
    let rec root i = if parents.(i) = i then i else root parents.(i) in
    let roots = Array.init n root in
    let forest =
      verdict "forest"
        (List.find_map
           (fun i ->
             let r = f.find i in
             if r = roots.(i) then None
             else Some (Printf.sprintf "find %d = %d, but its chain ends at %d" i r roots.(i)))
           (List.init n Fun.id))
    in
    let lower =
      verdict "lower"
        (if ev.acked = [] then Some "nothing was acked, so the lower side proves nothing"
         else
           List.find_map
             (fun (x, y) ->
               if roots.(x) = roots.(y) then None
               else Some (Printf.sprintf "acked unite (%d, %d) is not connected" x y))
             ev.acked)
    in
    let upper =
      let s = closure n ev.submitted in
      verdict "upper"
        (List.find_map
           (fun i ->
             let p = parents.(i) in
             if p = i || Seq.same_set s i p then None
             else
               Some (Printf.sprintf "edge %d -> %d joins nodes no submitted unite connects" i p))
           (List.init n Fun.id))
    in
    (* A true answer must hold in the final partition.  A false answer is
       wrong if unites that completed before the query started had joined
       its arguments: replay completed unites in stop-stamp order into an
       oracle and test each false answer at its start stamp. *)
    let answers a =
      let oracle = Seq.create n in
      let pending = ref (List.sort (fun (s, _, _) (t, _, _) -> Int.compare s t) a.unites) in
      verdict "answers"
        (List.find_map
           (fun (start, x, y, answer) ->
             if answer then
               if roots.(x) = roots.(y) then None
               else Some (Printf.sprintf "same_set (%d, %d) answered true, but they end apart" x y)
             else begin
               let rec catch_up () =
                 match !pending with
                 | (stop, ux, uy) :: rest when stop < start ->
                   Seq.unite oracle ux uy;
                   pending := rest;
                   catch_up ()
                 | _ -> ()
               in
               catch_up ();
               if not (Seq.same_set oracle x y) then None
               else
                 Some
                   (Printf.sprintf
                      "same_set (%d, %d) answered false after completed unites had joined them" x y)
             end)
           (List.sort (fun (s, _, _, _) (t, _, _, _) -> Int.compare s t) a.queries))
    in
    let hops () =
      let budget = hop_budget n in
      verdict "hops"
        (List.find_map
           (fun (h, ops) ->
             let mean = float_of_int h /. float_of_int ops in
             if ops = 0 || mean <= budget then None
             else Some (Printf.sprintf "a worker averaged %.1f own hops/op (budget %.1f)" mean budget))
           ev.hops)
    in
    [ forest; lower; upper ]
    @ Option.to_list (Option.map answers ev.answers)
    @ if ev.hops = [] then [] else [ hops () ]
  end

(* ---------- mutator runs ---------- *)

(* One run's per-slot state — op streams, logical-clock stamps, answers,
   progress and fate — kept in one value so a recovery can resume it. *)
type run = {
  ops : Op.t array array;
  clock : int Atomic.t;
  starts : int array array;
  stops : int array array;
  results : bool array array;
  cur : int array;  (* the op each slot is on; [m] once finished *)
  crash_site : Site.t option array;
  failed : string option array;
}

let fresh_run { n; ops_per_domain = m; domains; unite_percent; seed; _ } =
  let per_op v = Array.init domains (fun _ -> Array.make m v) in
  {
    ops = Closed_loop.gen_ops ~n ~unite_percent ~seed ~domains ~ops_per_domain:m ();
    clock = Atomic.make 0;
    starts = per_op (-1);
    stops = per_op (-1);
    results = per_op false;
    cur = Array.make domains 0;
    crash_site = Array.make domains None;
    failed = Array.make domains None;
  }

(* (slot, own Find_hop count, ops completed) for each slot one call ran. *)
type stage = { stage : string; slots : (int * int * int) list }

(* Run [slots]' streams from their current op to the end (re-running the op
   a crashed slot died inside is safe: unite is idempotent, queries are
   read-only).  Each call counts only its own hops and ops.  This is not
   [Closed_loop.run]: each worker enrols its fault-injection slot and
   stamps every op's start and stop on the shared logical clock for the
   audit, and a crashed worker's progress ([r.cur]) is where the resume
   stage picks up. *)
let run_workers ~d r slots =
  let m = Array.length r.ops.(0) in
  let worker k () =
    Fi.enroll ~slot:k;
    let first = r.cur.(k) in
    (try
       for j = first to m - 1 do
         r.cur.(k) <- j;
         r.starts.(k).(j) <- Atomic.fetch_and_add r.clock 1;
         (match r.ops.(k).(j) with
          | Op.Unite (x, y) -> Driver.unite d x y
          | Op.Same_set (x, y) -> r.results.(k).(j) <- Driver.same_set d x y
          | Op.Find x -> ignore (Driver.find d x));
         r.stops.(k).(j) <- Atomic.fetch_and_add r.clock 1
       done;
       r.cur.(k) <- m
     with
    | Fi.Crashed (site, _) -> r.crash_site.(k) <- Some site
    | e -> r.failed.(k) <- Some (Printexc.to_string e));
    (k, Fi.my_hops (), r.cur.(k) - first)
  in
  List.map Domain.join (List.map (fun k -> Domain.spawn (worker k)) slots)

(* The unites of [r] that started ([~completed:false]) or completed. *)
let unites_of ~completed r =
  let acc = ref [] in
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun j op ->
          match op with
          | Op.Unite (x, y) when (if completed then r.stops else r.starts).(k).(j) >= 0 ->
            acc := (x, y) :: !acc
          | _ -> ())
        row)
    r.ops;
  !acc

let answers_of r =
  let unites = ref [] and queries = ref [] in
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun j op ->
          if r.stops.(k).(j) >= 0 then
            match op with
            | Op.Unite (x, y) -> unites := (r.stops.(k).(j), x, y) :: !unites
            | Op.Same_set (x, y) ->
              queries := (r.starts.(k).(j), x, y, r.results.(k).(j)) :: !queries
            | Op.Find _ -> ())
        row)
    r.ops;
  { unites = !unites; queries = !queries }

(* Hop evidence: the (hops, ops) of every slot [st] ran to the end of [r]. *)
let finished_hops r st =
  List.filter_map
    (fun (k, h, ops) -> if r.cur.(k) = Array.length r.ops.(k) then Some (h, ops) else None)
    st.slots

(* ---------- fault plans ---------- *)

let noise config =
  if config.stall_prob > 0. then
    [
      Fi.rule ~prob:config.stall_prob (Fi.Stall config.stall_len);
      Fi.rule ~prob:(config.stall_prob /. 2.) Fi.Yield;
    ]
  else []

(* Slots below [victims] carry [victim k]; every worker slot carries
   [leader] (its rules for the group commits it leads) and the stall/yield
   noise; slots from [config.domains] on are the durability machinery's
   and get [extra slot]. *)
let fault_plan config ~victims ~victim ~leader ~extra =
  let noise = noise config in
  let rules_for slot =
    if slot >= config.domains then extra slot
    else (if slot < victims then [ victim slot ] else []) @ leader @ noise
  in
  { Fi.seed = config.fault_seed; rules_for }

let noise_only config =
  { Fi.seed = config.fault_seed + 1; rules_for = (fun _ -> noise config) }

(* ---------- shared recovery checks ---------- *)

let edges_of ~n parents =
  List.filter_map
    (fun i ->
      let p = parents.(i) in
      if p <> i && p >= 0 && p < n then Some (i, p) else None)
    (List.init n Fun.id)

(* The durable depths' recovery: the log's torn tail, every surviving
   snapshot's epoch cut (each valid record below a snapshot's epoch is
   already connected in it), then newest snapshot + tail replay.  Returns
   the valid records — the acknowledged links — with the checks. *)
let recover_durable ~plan ?on_link ~snapshots ~wal_path () =
  let tail = Dwal.read_file wal_path in
  let records = match tail with Ok t -> Array.to_list t.Dwal.records | Error _ -> [] in
  let torn =
    verdict "torn-tail"
      (match tail with
       | Error e -> Some e
       | Ok { Dwal.truncated_at = None; _ } -> Some "the commit crash left no torn tail"
       | Ok _ -> None)
  in
  let cut =
    verdict "epoch-cut"
      (List.find_map
         (fun path ->
           match Rsnap.read_file path with
           | Error e -> Some (path ^ ": " ^ e)
           | Ok s ->
             let part = closure s.Rsnap.n (edges_of ~n:s.Rsnap.n s.Rsnap.parents) in
             List.find_map
               (fun { Dwal.epoch; x; y; _ } ->
                 if epoch >= s.Rsnap.epoch || x >= s.Rsnap.n || y >= s.Rsnap.n
                    || Seq.same_set part x y
                 then None
                 else
                   Some
                     (Printf.sprintf "%s: record (%d, %d) of epoch %d is not in the cut of epoch %d"
                        path x y epoch s.Rsnap.epoch))
               records)
         snapshots)
  in
  let recovered = Drecovery.recover_files ~plan ?on_link ~snapshots ~wal:wal_path () in
  let links = List.map (fun { Dwal.x; y; _ } -> (x, y)) records in
  (links, [ torn; cut; recovery_check recovered ], recovered)

(* ---------- the scenario engine ---------- *)

type scenario = {
  layout : Dsu.Plan.layout;
  policy : Policy.t;
  depth : depth;
  crashed : (int * Site.t) list;
  stages : stage list;
  recovery : Drecovery.stats option;
  rto_ns : int option;
  faults : Fi.totals;
  checks : check list;
  seconds : float;
}

let scenario_ok s = List.for_all (fun c -> c.ok) s.checks

let validate_config c =
  if c.n < 2 then invalid_arg "Chaos: n must be >= 2";
  if c.domains < 1 then invalid_arg "Chaos: domains must be >= 1";
  if c.crash_domains < 0 || c.crash_domains > c.domains then
    invalid_arg "Chaos: crash_domains must be between 0 and domains";
  if c.ops_per_domain < 1 then invalid_arg "Chaos: ops_per_domain must be >= 1";
  if c.stall_prob < 0. || c.stall_prob > 1. then
    invalid_arg "Chaos: stall_prob must be in [0, 1]"

let crash_fired ~crashed ~victims ~failed extra =
  verdict "crash-fired"
    (match failed with
     | (k, e) :: _ -> Some (Printf.sprintf "slot %d failed: %s" k e)
     | [] -> (
       match List.find_opt (fun (k, _) -> k >= victims) crashed with
       | Some (k, site) ->
         Some (Printf.sprintf "slot %d crashed at %s without a crash rule" k (Site.to_string site))
       | None ->
         if victims > 0 && crashed = [] then Some "no planned crash fired" else extra))

(* Depths [Dsu], [Snapshot] and [Wal]: mutator domains run their streams
   with the crash plan armed (at [Wal] with a group-committed log and a
   fuzzy snapshotter whose crashes are planned too), the structure is
   recovered as the depth says, audited, resumed and audited again. *)
let mutator_drill ~config ~plan ~depth ~dir =
  let { n; domains; seed; _ } = config in
  let m = config.ops_per_domain in
  let all = List.init domains Fun.id in
  let wal_path = Filename.concat dir "wal.log" in
  let r = fresh_run config in
  (* At [Wal] the durability machinery crashes, not the mutators.  The
     mutators lead the group commits, so each carries the rule "crash at
     [Wal_commit_mid] in the [after + 1]-th chunk this slot leads", and
     [after] is sized so that the run must reach that crash:
     - the streams link at least [links] times ([n] minus the classes of
       the closure of their unites: every unite completes, since no
       mutator crashes here), and each link appends one record;
     - the size trigger leaves fewer than [flush_records] records staged
       once the appends stop, and a chunk holds at most [flush_records].
       So, if the log lived, at least [links / flush_records] chunks
       committed during the run, each led by a mutator: nothing else
       appends or flushes before [close];
     - one of the [domains] mutators leads at least a [domains]-th of
       them, so with [after = (links / flush_records - 1) / domains] some
       slot reaches its crash;
     - [after >= 1], so that slot committed a chunk before it crashed.
     Streams that link too little for [after >= 1] still run with
     [after = 1]; [crash-fired] then reports a crash that never came. *)
  let flush_records = 32 in
  let links =
    let s = Seq.create n in
    Array.iter (Array.iter (function Op.Unite (x, y) -> Seq.unite s x y | _ -> ())) r.ops;
    n - Seq.count_sets s
  in
  let after = max 1 (((links / flush_records) - 1) / domains) in
  let victims = if depth = Wal then 0 else config.crash_domains in
  (* Arm before the mutators and the snapshotter enroll: arming drops
     stale enrollments. *)
  Fi.arm
    (fault_plan config ~victims
       ~victim:(fun k -> Fi.rule ~after:(config.crash_after * (k + 1)) Fi.Crash)
       ~leader:[ Fi.rule ~sites:[ Site.Wal_commit_mid ] ~after Fi.Crash ]
       ~extra:(fun _ ->
         (* The snapshotter dies halfway into its second scan. *)
         Fi.rule ~sites:[ Site.Snapshot_read ] ~after:(n + (n / 2)) Fi.Crash :: noise config));
  let wal =
    if depth <> Wal then None
    else Some (Dwal.create_writer ~shards:(max 2 domains) ~flush_records wal_path)
  in
  let d = Driver.create ~plan ~seed ?on_link:(Option.map Dwal.append wal) n in
  let mutators_done = Atomic.make false in
  let caps = ref [] and snap_crash = ref None in
  let snapshotter =
    Option.map
      (fun wal ->
        Domain.spawn (fun () ->
            Fi.enroll ~slot:domains;
            try
              (* [< 2] keeps the planned crash deterministic even when the
                 mutators finish first. *)
              while List.length !caps < 2 || not (Atomic.get mutators_done) do
                let cap = Dfuzzy.of_driver ~epoch:(Dwal.epoch wal) d in
                let path = Filename.concat dir (Printf.sprintf "snap-%03d.bin" (List.length !caps)) in
                Rsnap.write_file path cap.Dfuzzy.snapshot;
                caps := (path, cap) :: !caps
              done
            with Fi.Crashed (site, _) -> snap_crash := Some site))
      wal
  in
  let crash_stage = { stage = "crash"; slots = run_workers ~d r all } in
  let crash_hops = finished_hops r crash_stage in
  Atomic.set mutators_done true;
  Option.iter Domain.join snapshotter;
  Option.iter Dwal.close wal;
  let commit_crash = Option.bind wal (fun w -> (Dwal.writer_stats w).Dwal.ws_crashed) in
  Fi.disarm ();
  let faults = Fi.totals () in
  let crashed = List.filter_map (fun k -> Option.map (fun s -> (k, s)) r.crash_site.(k)) all in
  let failed = List.filter_map (fun k -> Option.map (fun e -> (k, e)) r.failed.(k)) all in
  let fired =
    crash_fired ~crashed ~victims ~failed
      (match (depth, !snap_crash, commit_crash) with
       | Wal, Some Site.Snapshot_read, Some (Site.Wal_commit_mid, _) | (Dsu | Snapshot), _, _ -> None
       | _, s, c ->
         let site = Option.fold ~none:"never" ~some:Site.to_string in
         Some
           (Printf.sprintf "snapshotter crash: %s; commit crash: %s%s" (site s)
              (site (Option.map fst c))
              (match Option.bind wal Dwal.failed with
               | Some e -> "; the log failed: " ^ Printexc.to_string e
               | None -> "")))
  in
  let started = unites_of ~completed:false r in
  let facts, acked, recovery, recovered =
    match depth with
    | Dsu | Service -> ([], unites_of ~completed:true r, None, Ok d)
    | Snapshot ->
      (* Through the disk: the file and the JSON codec must give back the
         crash-time snapshot, and repair must be a no-op (Theorem 3.4: a
         crash never corrupts the forest). *)
      let snap = Rsnap.of_driver d in
      let path = Filename.concat dir "crash.snap" in
      Rsnap.write_file path snap;
      let codec =
        verdict "codec"
          (match (Rsnap.read_file path, Rsnap.of_json_string (Rsnap.to_json_string snap)) with
           | Ok b, Ok j when Rsnap.equal b snap && Rsnap.equal j snap -> None
           | Error e, _ | _, Error e -> Some e
           | _ -> Some "a decoded snapshot differs from the original")
      in
      let repaired, fixes = Rrepair.repair snap in
      let clean =
        verdict "repair-clean"
          (match fixes with
           | [] -> None
           | fix :: _ ->
             Some
               (Format.asprintf "the crash-time snapshot needed %d fixes, e.g. %a"
                  (List.length fixes) Rrepair.pp_fix fix))
      in
      let restored = Rrestore.restore_result ~plan repaired in
      ([ codec; clean; recovery_check restored ], unites_of ~completed:true r, None, restored)
    | Wal ->
      (* Reconciliation is a no-op for the id-order layouts; packed scans
         may race a rank promotion, so there it is exempt. *)
      let clean =
        verdict "repair-clean"
          (if plan.Dsu.Plan.layout = Dsu.Plan.Packed then None
           else
             List.find_map
               (fun (p, c) ->
                 if c.Dfuzzy.fixes = [] then None
                 else Some (Printf.sprintf "%s needed %d reconciliation fixes" p (List.length c.Dfuzzy.fixes)))
               !caps)
      in
      let links, checks, recovered =
        recover_durable ~plan ~snapshots:(List.rev_map fst !caps) ~wal_path ()
      in
      (clean :: checks, links, Option.map snd (Result.to_option recovered), Result.map fst recovered)
  in
  let checks, stages =
    match recovered with
    | Error _ -> (facts, [ crash_stage ])
    | Ok d2 ->
      let recovered_audit =
        if depth = Dsu then []
        else
          audit ~stage:"recovered"
            { acked; submitted = started; answers = None; hops = [] }
            (forest_of_driver d2)
      in
      (* Resume: [Snapshot] re-runs each stopped slot from the op it died
         inside; [Wal] re-runs every stream on the recovered structure,
         whose lost tail it restores. *)
      let r2, resumed =
        match depth with
        | Dsu | Service -> (r, [])
        | Snapshot | Wal ->
          let r2 = if depth = Wal then fresh_run config else r in
          let slots = List.filter (fun k -> r2.cur.(k) < m) all in
          List.iter (fun k -> r2.crash_site.(k) <- None; r2.failed.(k) <- None) slots;
          Fi.arm (noise_only config);
          let resume = { stage = "resume"; slots = run_workers ~d:d2 r2 slots } in
          Fi.disarm ();
          (r2, [ resume ])
      in
      let final =
        audit
          {
            acked = (if depth = Wal then acked else []) @ unites_of ~completed:true r2;
            submitted = (if depth = Wal then started else []) @ unites_of ~completed:false r2;
            answers = Some (answers_of r2);
            hops = crash_hops @ List.concat_map (finished_hops r2) resumed;
          }
          (forest_of_driver d2)
      in
      let complete =
        verdict "complete"
          (List.find_map
             (fun k ->
               if r2.cur.(k) = m || (depth = Dsu && r.crash_site.(k) <> None) then None
               else Some (Printf.sprintf "slot %d stopped at op %d of %d" k r2.cur.(k) m))
             all)
      in
      (facts @ recovered_audit @ final @ [ complete ], crash_stage :: resumed)
  in
  {
    layout = plan.Dsu.Plan.layout;
    policy = plan.Dsu.Plan.compaction;
    depth;
    crashed;
    stages;
    recovery;
    rto_ns = None;
    faults;
    checks = fired :: checks;
    seconds = 0.;
  }

(* The unites [drive] submits while a victim session is live. *)
let victim_unites = 8

(* Drive [svc] with the config's unite/same_set mix, round-robin over the
   live sessions, until [stop ()]; returns the enqueued and the acked
   unites and the completion time of the first [Done].  While one of
   sessions [0 .. victims - 1] is live, only those get traffic, and at
   most [victim_unites] of it is unites. *)
let drive ?(victims = 0) svc ~config ~rng ~sessions ~stop =
  let pending = Hashtbl.create 1024 in
  let enqueued = ref [] and acked = ref [] and first_done = ref 0 and next = ref 0 in
  let unites_to_victims = ref 0 in
  let drain () =
    for s = 0 to sessions - 1 do
      List.iter
        (fun (resp : Svc.response) ->
          (match resp.Svc.r_outcome with
           | Svc.Done _ ->
             if !first_done = 0 then first_done := resp.Svc.r_completed_ns;
             (match Hashtbl.find_opt pending resp.Svc.r_id with
              | Some (x, y) -> acked := (x, y) :: !acked
              | None -> ())
           | _ -> ());
          Hashtbl.remove pending resp.Svc.r_id)
        (Svc.poll svc ~session:s)
    done
  in
  while not (stop !first_done) do
    (* Route around dead workers: their ops would only wait out the
       admission deadline and die unacknowledged. *)
    let dead = List.map fst (Svc.health svc).Svc.h_dead_workers in
    let victim_live = List.exists (fun k -> not (List.mem k dead)) (List.init victims Fun.id) in
    let span = if victim_live then victims else sessions in
    let rec pick k =
      let s = (!next + k) mod span in
      if k < span && List.mem s dead then pick (k + 1) else s
    in
    let session = pick 0 in
    incr next;
    let x = Rng.int rng config.n and y = Rng.int rng config.n in
    let unite = Rng.int rng 100 < config.unite_percent in
    let unite = unite && not (victim_live && !unites_to_victims >= victim_unites) in
    if unite && victim_live then incr unites_to_victims;
    (match Svc.submit svc ~session (if unite then Svc.Unite (x, y) else Svc.Same_set (x, y)) with
     | Svc.Enqueued id when unite ->
       Hashtbl.replace pending id (x, y);
       enqueued := (x, y) :: !enqueued
     | _ -> ());
    drain ()
  done;
  (* Collect the answers still in flight on the surviving paths. *)
  let settle = Clock.now_ns () + 20_000_000 in
  while Hashtbl.length pending > 0 && Clock.now_ns () < settle do
    drain ();
    Unix.sleepf 0.0005
  done;
  (!enqueued, !acked, !first_done)

(* Depth [Service]: workers below the victim count crash between drains
   ([Queue_deq_cas]) and then a worker inside a group commit it leads,
   with acked traffic on both sides; then recovery from the newest fuzzy
   checkpoint on disk when the log died plus the log tail, audit, a
   resumed service on the recovered backend, RTO from the commit crash
   (no durable ack is possible after it) to the resumed service's first
   ack, and the audit again.

   The victims must crash first: a worker that finds the log dead fails
   its backlog and leaves its loop, so it might never reach its crash hit.
   The order holds by construction, not by timing.  Any worker may lead a
   group commit, so every worker carries the commit crash, in the
   [victim_unites + 1]-th chunk its slot leads.  Only a link appends a
   record, and every chunk holds one to [flush_records] records:
   - until every victim is dead, [drive] sends traffic only to victims,
     with at most [victim_unites] unites, so that phase commits at most
     [victim_unites] chunks and no slot reaches its commit crash in it;
   - after it only the [survivors] append and flush.  Random unites keep
     linking until the structure is one set, [links] more records, and
     every flush commits its worker's records, so if the log lived, at
     least [links / flush_records] chunks would commit, each led by a
     survivor.  One survivor leads [victim_unites + 1] of any
     [survivors * victim_unites + 1] chunks, which sizes [flush_records];
   - so the crashing slot has committed [victim_unites] chunks before it.
   The worst case needs every link (the durable tests' n = 256 on 2
   workers: 243 of 247 at [flush_records = 27]); the default config
   needs 1,568 of 16,375.  A chunk of more than one record keeps the flush barrier
   under test: most records are committed by the flush that acks them,
   not by the size trigger. *)
let service_drill ~config ~plan ~dir =
  let workers = config.domains in
  let victims = min config.crash_domains (workers - 1) in
  let survivors = workers - victims in
  let links = config.n - 1 - victim_unites in
  let flush_records = max 1 (min 32 (links / ((survivors * victim_unites) + 1))) in
  let wal_path = Filename.concat dir "wal.log" in
  Fi.arm
    (fault_plan config ~victims
       ~victim:(fun k -> Fi.rule ~sites:[ Site.Queue_deq_cas ] ~after:(4 + k) Fi.Crash)
       ~leader:[ Fi.rule ~sites:[ Site.Wal_commit_mid ] ~after:victim_unites Fi.Crash ]
       ~extra:(fun _ -> []));
  let wal = Dwal.create_writer ~flush_records wal_path in
  let scfg =
    {
      Svc.n = config.n;
      workers;
      clients = workers;
      queue_capacity = 256;
      batch = 64;
      admission = Svc.Block 0.05;
      plan;
      seed = config.seed;
      snapshot_dir = Some dir;
      snapshot_interval = 0.005;
    }
  in
  let svc = Svc.create ~wal ~on_worker_start:(fun k -> Fi.enroll ~slot:k) scfg in
  let rng = Rng.create (config.seed + 17) in
  let t_crash = ref 0 and on_disk = ref None in
  let deadline = Clock.now_ns () + 10_000_000_000 in
  let all_crashed _ =
    let h = Svc.health svc in
    let dead = List.length h.Svc.h_dead_workers in
    if h.Svc.h_committer_dead && !t_crash = 0 then t_crash := Clock.now_ns ();
    (* Recovery sees the checkpoints on disk when the log died; later ones
       would cover the whole committed log and leave no tail to replay. *)
    if h.Svc.h_committer_dead && !on_disk = None then on_disk := Some (Svc.snapshot_files svc);
    (dead >= victims && h.Svc.h_committer_dead) || Clock.now_ns () > deadline
  in
  let enqueued, acked, _ = drive ~victims svc ~config ~rng ~sessions:workers ~stop:all_crashed in
  let health = Svc.health svc in
  Svc.stop svc;
  (* The log is dead: close must neither hang nor raise. *)
  Dwal.close wal;
  Fi.disarm ();
  let faults = Fi.totals () in
  let crashed = List.map (fun (k, (site, _)) -> (k, site)) health.Svc.h_dead_workers in
  let fired =
    crash_fired ~crashed ~victims ~failed:[]
      (if health.Svc.h_committer_dead then None else Some "no group commit crashed")
  in
  let wal2 = Dwal.create_writer (Filename.concat dir "wal-resume.log") in
  Fun.protect
    ~finally:(fun () -> Dwal.close wal2)
    (fun () ->
      let _, facts, recovered =
        recover_durable ~plan ~on_link:(Dwal.append wal2)
          ~snapshots:(Option.value !on_disk ~default:(Svc.snapshot_files svc))
          ~wal_path ()
      in
      let checks, recovery, rto_ns =
        match recovered with
        | Error _ -> (facts, None, None)
        | Ok (restored, stats) ->
          let recovered_audit =
            audit ~stage:"recovered"
              { acked; submitted = enqueued; answers = None; hops = [] }
              (forest_of_driver restored)
          in
          let svc2 = Svc.create ~backend:restored ~wal:wal2 { scfg with Svc.snapshot_dir = None } in
          let deadline = Clock.now_ns () + 5_000_000_000 in
          let enqueued2, acked2, first_done =
            drive svc2 ~config ~rng ~sessions:workers ~stop:(fun first_done ->
                first_done > 0 || Clock.now_ns () > deadline)
          in
          Svc.stop svc2;
          let rto = if first_done > 0 && !t_crash > 0 then first_done - !t_crash else 0 in
          let final =
            audit
              { acked = acked @ acked2; submitted = enqueued @ enqueued2; answers = None; hops = [] }
              (forest_of_driver (Svc.backend svc2))
          in
          ( facts @ recovered_audit @ final
            @ [ verdict "rto" (if rto > 0 then None else Some "no ack after recovery") ],
            Some stats,
            Some rto )
      in
      {
        layout = plan.Dsu.Plan.layout;
        policy = plan.Dsu.Plan.compaction;
        depth = Service;
        crashed;
        stages = [];
        recovery;
        rto_ns;
        faults;
        checks = fired :: checks;
        seconds = 0.;
      })

let rec rmrf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f dir] in a scratch directory: [keep] names one left in place for
   inspection (emptied first); otherwise a fresh temp directory, removed on
   every exit path. *)
let with_scratch ?keep f =
  match keep with
  | Some dir ->
    if Sys.file_exists dir then rmrf dir;
    Sys.mkdir dir 0o755;
    f dir
  | None ->
    let dir = Filename.temp_dir "dsu-drill" "" in
    Fun.protect ~finally:(fun () -> rmrf dir) (fun () -> f dir)

let label ~layout ~policy ~depth =
  String.concat "-"
    [ Dsu.Plan.layout_to_string layout; Policy.to_string policy; depth_to_string depth ]

let run ?(config = default_config) ?keep ~layout ~policy ~depth () =
  validate_config config;
  let plan =
    { Dsu.Plan.compaction = policy; memory_order = config.memory_order; layout }
  in
  let t0 = Clock.now_ns () in
  let body dir =
    Fun.protect ~finally:Fi.disarm (fun () ->
        match depth with
        | Service -> service_drill ~config ~plan ~dir
        | Dsu | Snapshot | Wal -> mutator_drill ~config ~plan ~depth ~dir)
  in
  let s =
    if depth = Dsu then body ""
    else
      with_scratch
        ?keep:(Option.map (fun p -> p ^ "-" ^ label ~layout ~policy ~depth) keep)
        body
  in
  { s with seconds = float_of_int (Clock.now_ns () - t0) /. 1e9 }

let run_all ?(config = default_config) ?keep ?(progress = ignore) () =
  List.concat_map
    (fun layout ->
      List.concat_map
        (fun depth ->
          List.map
            (fun policy ->
              let s = run ~config ?keep ~layout ~policy ~depth () in
              progress s;
              s)
            config.policies)
        config.depths)
    config.layouts

(* ---------- reporting ---------- *)

let scenario_to_json s =
  let t = s.faults in
  let opt f = Option.fold ~none:J.Null ~some:f in
  J.Obj
    [
      ("layout", J.String (Dsu.Plan.layout_to_string s.layout));
      ("policy", J.String (Policy.to_string s.policy));
      ("depth", J.String (depth_to_string s.depth));
      ("seconds", J.Float s.seconds);
      ( "crashed",
        J.List
          (List.map
             (fun (k, site) -> J.Obj [ ("slot", J.Int k); ("site", J.String (Site.to_string site)) ])
             s.crashed) );
      ( "stages",
        J.List
          (List.map
             (fun st ->
               J.Obj
                 [
                   ("stage", J.String st.stage);
                   ( "slots",
                     J.List
                       (List.map
                          (fun (k, h, ops) ->
                            J.Obj [ ("slot", J.Int k); ("ops", J.Int ops); ("hops", J.Int h) ])
                          st.slots) );
                 ])
             s.stages) );
      ( "faults",
        J.Obj
          [
            ("site_hits", J.Int t.Fi.hits);
            ("yields", J.Int t.Fi.yields);
            ("stalls", J.Int t.Fi.stalls);
            ("crashes", J.Int t.Fi.crashes);
          ] );
      ("recovery", opt Drecovery.stats_to_json s.recovery);
      ("rto_ns", opt (fun v -> J.Int v) s.rto_ns);
      ( "checks",
        J.List
          (List.map
             (fun c ->
               J.Obj [ ("name", J.String c.name); ("ok", J.Bool c.ok); ("detail", J.String c.detail) ])
             s.checks) );
      ("ok", J.Bool (scenario_ok s));
    ]

let to_json ?(config = default_config) scenarios =
  J.Obj
    [
      ("schema", J.String "dsu-drill/v1");
      ("n", J.Int config.n);
      ("ops_per_domain", J.Int config.ops_per_domain);
      ("domains", J.Int config.domains);
      ("crash_domains", J.Int config.crash_domains);
      ("crash_after", J.Int config.crash_after);
      ("stall_prob", J.Float config.stall_prob);
      ("stall_len", J.Int config.stall_len);
      ("unite_percent", J.Int config.unite_percent);
      ("seed", J.Int config.seed);
      ("fault_seed", J.Int config.fault_seed);
      ("memory_order", J.String (Dsu.Memory_order.to_string config.memory_order));
      ("scenarios", J.List (List.map scenario_to_json scenarios));
      ("ok", J.Bool (List.for_all scenario_ok scenarios));
      Perfdiff.metrics_field
        (List.filter_map
           (fun s ->
             Option.map
               (fun rto ->
                 {
                   Perfdiff.key =
                     Printf.sprintf "drill %s/%s/%s"
                       (Dsu.Plan.layout_to_string s.layout)
                       (Policy.to_string s.policy) (depth_to_string s.depth);
                   metric = "rto_ns";
                   dir = Lower_better;
                   value = float_of_int rto;
                 })
               s.rto_ns)
           scenarios);
    ]

let pp_scenario ppf s =
  let t = s.faults in
  Format.fprintf ppf "@[<v>%s: %s in %.2fs@,"
    (label ~layout:s.layout ~policy:s.policy ~depth:s.depth)
    (if scenario_ok s then "OK" else "FAILED")
    s.seconds;
  Format.fprintf ppf "  faults: %d site hits, %d yields, %d stalls, %d crashes@," t.Fi.hits
    t.Fi.yields t.Fi.stalls t.Fi.crashes;
  List.iter
    (fun (k, site) -> Format.fprintf ppf "  crashed: slot %d at %s@," k (Site.to_string site))
    s.crashed;
  Option.iter (Format.fprintf ppf "  %a@," Drecovery.pp_stats) s.recovery;
  Option.iter (fun v -> Format.fprintf ppf "  RTO %.3f ms@," (float_of_int v /. 1e6)) s.rto_ns;
  List.iter
    (fun c -> if not c.ok then Format.fprintf ppf "  check %s FAILED: %s@," c.name c.detail)
    s.checks;
  Format.fprintf ppf "@]"
