(* Serving harness: open-loop load over Repro_service.Service.

   Load generation reuses the exact arrival schedules of the latency
   harness ([Latency.arrivals]) so the serving numbers are open-loop and
   coordinated-omission-free: every admitted op is charged from its
   *intended* arrival time, submitted with that timestamp, and the
   service echoes it back in the response — latency = completion −
   intended, however long the op sat in the ingestion queue.

   The serving crash drill (RPO and RTO) is [Chaos]'s [Service] depth. *)

module Svc = Repro_service.Service
module Hdr = Repro_obs.Hdr
module J = Repro_obs.Json
module Clock = Repro_obs.Clock
module Rng = Repro_util.Rng
module Wal = Repro_durable.Wal
module Snapshot = Repro_recover.Snapshot

type config = {
  n : int;  (* universe size *)
  unite_percent : int;
  find_percent : int;  (* remainder is same_set *)
  seed : int;
  generators : int;  (* load-generator domains (= client sessions) *)
  ops : int;  (* operations per generator *)
  shape : Latency.shape;
  workers : int;
  queue_capacity : int;
  batch : int;
  admission : Svc.admission;
  plan : Dsu.Plan.t;
  op_deadline_ms : float;  (* 0 = no per-op deadline *)
  durable : bool;  (* attach a WAL (group commit on the drain path) *)
}

let default_config =
  {
    n = 1 lsl 14;
    unite_percent = 40;
    find_percent = 10;
    seed = 42;
    generators = 2;
    ops = 4_000;
    shape = Latency.Poisson;
    workers = 2;
    queue_capacity = 256;
    batch = 64;
    admission = Svc.Reject;
    plan = Dsu.Plan.default;
    op_deadline_ms = 0.0;
    durable = false;
  }

let spin_until target =
  while Clock.now_ns () < target do
    Domain.cpu_relax ()
  done

let make_ops ~n ~unite_percent ~find_percent ~ops ~seed =
  let rng = Rng.create seed in
  Array.init ops (fun _ ->
      let r = Rng.int rng 100 in
      let x = Rng.int rng n in
      if r < unite_percent then Svc.Unite (x, Rng.int rng n)
      else if r < unite_percent + find_percent then Svc.Find x
      else Svc.Same_set (x, Rng.int rng n))

let service_config (c : config) : Svc.config =
  {
    Svc.n = c.n;
    workers = c.workers;
    clients = c.generators;
    queue_capacity = c.queue_capacity;
    batch = c.batch;
    admission = c.admission;
    plan = c.plan;
    seed = c.seed;
    snapshot_dir = None;
    snapshot_interval = Svc.default_config.Svc.snapshot_interval;
  }

(* ------------------------------------------------------------- sweep *)

type point = {
  rate : float;  (* offered arrivals/sec per generator *)
  offered_rate : float;
  target_ops : int;
  submitted : int;
  accepted : int;
  rejected : int;  (* admission backpressure: Queue_full / deadline *)
  acked : int;
  shed : int;
  timed_out : int;
  failed : int;
  lost : int;  (* admitted, never answered within the end drain *)
  duration_s : float;
  achieved_rate : float;  (* acked ops per second *)
  latency : Hdr.snapshot;  (* completion − intended arrival *)
  max_depth : int;  (* deepest ingestion queue seen at submit *)
  depth_bound_ok : bool;  (* max_depth ≤ queue_capacity *)
  idle_sleeps : int;  (* worker idle sleeps: the workers ran out of work *)
  accounted_ok : bool;
      (* accepted = acked+shed+timed_out+failed+lost, no phantom or
         duplicate responses, no completion-lane displacement *)
  saturated : bool;
}

type tally = {
  mutable g_submitted : int;
  mutable g_accepted : int;
  mutable g_rejected : int;
  mutable g_acked : int;
  mutable g_shed : int;
  mutable g_timed_out : int;
  mutable g_failed : int;
  mutable g_phantom : int;  (* responses whose id we never admitted *)
}

let run_point ~config ~rate () =
  if rate <= 0.0 then invalid_arg "Service.run_point: rate must be positive";
  if config.generators < 1 || config.ops < 1 then
    invalid_arg "Service.run_point: generators and ops must be positive";
  if
    config.unite_percent < 0 || config.find_percent < 0
    || config.unite_percent + config.find_percent > 100
  then invalid_arg "Service.run_point: op mix percentages must fit in 100";
  let wal_path =
    if config.durable then Some (Filename.temp_file "dsu-service" ".wal") else None
  in
  Fun.protect ~finally:(fun () -> Option.iter Sys.remove wal_path) @@ fun () ->
  let wal = Option.map Wal.create_writer wal_path in
  let svc = Svc.create ?wal (service_config config) in
  let worker k =
    let offsets =
      Latency.arrivals ~shape:config.shape ~rate ~ops:config.ops
        ~seed:(config.seed + (1000 * k) + 1)
    in
    let ops =
      make_ops ~n:config.n ~unite_percent:config.unite_percent
        ~find_percent:config.find_percent ~ops:config.ops
        ~seed:(config.seed + (1000 * k) + 2)
    in
    let lat = Hdr.create ~sharded:false () in
    Hdr.materialize lat;
    let t =
      {
        g_submitted = 0;
        g_accepted = 0;
        g_rejected = 0;
        g_acked = 0;
        g_shed = 0;
        g_timed_out = 0;
        g_failed = 0;
        g_phantom = 0;
      }
    in
    let pending = Hashtbl.create 1024 in
    fun () ->
      let epoch = Clock.now_ns () in
      let last_done = ref epoch in
      let drain () =
        List.iter
          (fun (r : Svc.response) ->
            if not (Hashtbl.mem pending r.Svc.r_id) then
              t.g_phantom <- t.g_phantom + 1
            else begin
              Hashtbl.remove pending r.Svc.r_id;
              match r.Svc.r_outcome with
              | Svc.Done _ ->
                t.g_acked <- t.g_acked + 1;
                Hdr.observe lat
                  (Stdlib.max 0 (r.Svc.r_completed_ns - r.Svc.r_intended_ns));
                if r.Svc.r_completed_ns > !last_done then
                  last_done := r.Svc.r_completed_ns
              | Svc.Shed -> t.g_shed <- t.g_shed + 1
              | Svc.Timed_out -> t.g_timed_out <- t.g_timed_out + 1
              | Svc.Failed _ -> t.g_failed <- t.g_failed + 1
            end)
          (Svc.poll svc ~session:k)
      in
      for i = 0 to config.ops - 1 do
        let intended = epoch + offsets.(i) in
        spin_until intended;
        let deadline_ns =
          if config.op_deadline_ms > 0.0 then
            intended + int_of_float (config.op_deadline_ms *. 1e6)
          else 0
        in
        t.g_submitted <- t.g_submitted + 1;
        (match
           Svc.submit svc ~intended_ns:intended ~deadline_ns ~session:k ops.(i)
         with
        | Svc.Enqueued id ->
          t.g_accepted <- t.g_accepted + 1;
          Hashtbl.replace pending id ()
        | Svc.Rejected _ -> t.g_rejected <- t.g_rejected + 1);
        drain ()
      done;
      (* end drain: every admitted op owes exactly one response *)
      let give_up = Clock.now_ns () + 2_000_000_000 in
      while Hashtbl.length pending > 0 && Clock.now_ns () < give_up do
        drain ();
        if Hashtbl.length pending > 0 then Unix.sleepf 0.0002
      done;
      let lost = Hashtbl.length pending in
      (Hdr.snap lat, t, Stdlib.max 1 (!last_done - epoch), lost)
  in
  (* Build generators (schedules, op streams) before spawning so domain
     start-up cost is on no schedule. *)
  let bodies = List.init config.generators worker in
  let handles = List.map Domain.spawn bodies in
  let results = List.map Domain.join handles in
  Svc.stop svc;
  let st = Svc.stats svc in
  Option.iter Wal.close wal;
  let sum f = List.fold_left (fun acc (_, t, _, _) -> acc + f t) 0 results in
  let submitted = sum (fun t -> t.g_submitted) in
  let accepted = sum (fun t -> t.g_accepted) in
  let rejected = sum (fun t -> t.g_rejected) in
  let acked = sum (fun t -> t.g_acked) in
  let shed = sum (fun t -> t.g_shed) in
  let timed_out = sum (fun t -> t.g_timed_out) in
  let failed = sum (fun t -> t.g_failed) in
  let phantom = sum (fun t -> t.g_phantom) in
  let lost = List.fold_left (fun acc (_, _, _, l) -> acc + l) 0 results in
  let latency =
    List.fold_left (fun acc (l, _, _, _) -> Hdr.merge acc l) Hdr.empty results
  in
  let duration_s =
    float_of_int
      (List.fold_left (fun acc (_, _, d, _) -> Stdlib.max acc d) 1 results)
    /. 1e9
  in
  let offered_rate = rate *. float_of_int config.generators in
  let achieved_rate = float_of_int acked /. duration_s in
  {
    rate;
    offered_rate;
    target_ops = config.generators * config.ops;
    submitted;
    accepted;
    rejected;
    acked;
    shed;
    timed_out;
    failed;
    lost;
    duration_s;
    achieved_rate;
    latency;
    max_depth = st.Svc.s_max_depth;
    depth_bound_ok = st.Svc.s_max_depth <= config.queue_capacity;
    idle_sleeps = st.Svc.s_idle_sleeps;
    accounted_ok =
      phantom = 0
      && accepted = acked + shed + timed_out + failed + lost
      && st.Svc.s_displaced = 0;
    saturated = achieved_rate < 0.95 *. offered_rate;
  }

let sweep ~config ~rates () =
  List.map (fun rate -> run_point ~config ~rate ()) rates

let knee points =
  List.fold_left
    (fun acc p ->
      if p.saturated then acc
      else
        match acc with
        | Some r when r >= p.offered_rate -> acc
        | _ -> Some p.offered_rate)
    None points

(* -------------------------------------------------------------- JSON *)

let hdr_fields (h : Hdr.snapshot) =
  [
    ("count", J.Int h.Hdr.count);
    ("mean_ns", J.Float (Hdr.mean h));
    ("min_ns", J.Int h.Hdr.min);
    ("p50_ns", J.Int (Hdr.quantile h 0.50));
    ("p90_ns", J.Int (Hdr.quantile h 0.90));
    ("p99_ns", J.Int (Hdr.quantile h 0.99));
    ("p999_ns", J.Int (Hdr.quantile h 0.999));
    ("max_ns", J.Int h.Hdr.max);
  ]

let point_json p =
  J.Obj
    [
      ("arrival_rate_per_gen", J.Float p.rate);
      ("offered_rate", J.Float p.offered_rate);
      ("target_ops", J.Int p.target_ops);
      ("submitted", J.Int p.submitted);
      ("accepted", J.Int p.accepted);
      ("rejected", J.Int p.rejected);
      ("acked", J.Int p.acked);
      ("shed", J.Int p.shed);
      ("timed_out", J.Int p.timed_out);
      ("failed", J.Int p.failed);
      ("lost", J.Int p.lost);
      ("duration_s", J.Float p.duration_s);
      ("achieved_rate", J.Float p.achieved_rate);
      ("max_depth", J.Int p.max_depth);
      ("depth_bound_ok", J.Bool p.depth_bound_ok);
      ("idle_sleeps", J.Int p.idle_sleeps);
      ("accounted_ok", J.Bool p.accounted_ok);
      ("saturated", J.Bool p.saturated);
      ("latency", J.Obj (hdr_fields p.latency));
    ]

let to_json config ~points =
  J.Obj
    [
      ("schema", J.String "dsu-service/v1");
      ("n", J.Int config.n);
      ("unite_percent", J.Int config.unite_percent);
      ("find_percent", J.Int config.find_percent);
      ("seed", J.Int config.seed);
      ("generators", J.Int config.generators);
      ("ops_per_generator", J.Int config.ops);
      ("shape", J.String (Latency.shape_to_string config.shape));
      ("workers", J.Int config.workers);
      ("queue_capacity", J.Int config.queue_capacity);
      ("batch", J.Int config.batch);
      ("admission", J.String (Svc.admission_to_string config.admission));
      ("plan", J.String (Dsu.Plan.to_string config.plan));
      ( "kind",
        J.String
          (Snapshot.kind_to_string
             (Dsu.Driver.kind_of_layout config.plan.Dsu.Plan.layout)) );
      ("durable", J.Bool config.durable);
      ("points", J.List (List.map point_json points));
      ( "knee_rate",
        match knee points with Some r -> J.Float r | None -> J.Null );
    ]

(* ------------------------------------------------------------ pretty *)

let pp_point ppf p =
  Format.fprintf ppf
    "rate %8.0f/s  acked %8.0f/s  p99 %8d  depth %4d/%s  rej %5d  shed %4d  \
     %s%s"
    p.offered_rate p.achieved_rate
    (Hdr.quantile p.latency 0.99)
    p.max_depth
    (if p.depth_bound_ok then "ok" else "OVER")
    p.rejected p.shed
    (if p.saturated then "SATURATED" else "ok")
    (if p.accounted_ok then "" else "  UNACCOUNTED")

let pp_table ppf points =
  Format.fprintf ppf "serving sweep (open-loop, intended-start accounting)@.";
  List.iter (fun p -> Format.fprintf ppf "  %a@." pp_point p) points;
  match knee points with
  | Some r -> Format.fprintf ppf "  saturation knee: %.0f ops/s@." r
  | None -> Format.fprintf ppf "  saturation knee: below the swept range@."
