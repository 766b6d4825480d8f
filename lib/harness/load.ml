(* The open-loop load engine, over a Direct or a Service target.

   A closed-loop harness issues the next operation only when the previous
   one returns, so a server stall pauses the load generator too: the
   stall's queueing delay never appears in the numbers (coordinated
   omission).  Here each generator domain walks a precomputed arrival
   schedule and charges every operation from its *intended* start time —
   an operation delayed behind a stall is billed for the wait.  The
   service-time distribution (completion − actual start: what a
   closed-loop harness would report) is recorded alongside, so the gap
   between the two IS the coordinated-omission error.

   The target is [config.workers]: 0 runs each op on the generator's own
   domain against a [Dsu.Driver]; w >= 1 submits it, with its intended
   timestamp, to a [Repro_service.Service] whose response echoes that
   timestamp back, and accounts for every admitted op.  The serving crash
   drill (RPO and RTO) is [Chaos]'s [Service] depth. *)

module Svc = Repro_service.Service
module Clock = Repro_obs.Clock
module Hdr = Repro_obs.Hdr
module Reservoir = Repro_obs.Reservoir
module J = Repro_obs.Json
module Rng = Repro_util.Rng
module Wal = Repro_durable.Wal
module Snapshot = Repro_recover.Snapshot

type shape = Fixed | Poisson | Bursty of int

let shape_to_string = function
  | Fixed -> "fixed"
  | Poisson -> "poisson"
  | Bursty k -> Printf.sprintf "bursty:%d" k

let shape_of_string s =
  match String.split_on_char ':' s with
  | [ "fixed" ] -> Some Fixed
  | [ "poisson" ] -> Some Poisson
  | [ "bursty" ] -> Some (Bursty 16)
  | [ "bursty"; k ] -> (
    match int_of_string_opt k with
    | Some k when k > 0 -> Some (Bursty k)
    | _ -> None)
  | _ -> None

(* Deterministic arrival offsets (ns from the generator's epoch) for one
   generator.  Mean inter-arrival is [1e9 /. rate] for every shape. *)
let arrivals ~shape ~rate ~ops ~seed =
  let period = 1e9 /. rate in
  let off = Array.make ops 0 in
  (match shape with
  | Fixed ->
    for i = 0 to ops - 1 do
      off.(i) <- int_of_float (float_of_int i *. period)
    done
  | Poisson ->
    let rng = Rng.create seed in
    let t = ref 0.0 in
    for i = 0 to ops - 1 do
      off.(i) <- int_of_float !t;
      (* exponential inter-arrival; 1 - u > 0 since u < 1 *)
      t := !t -. (log (1.0 -. Rng.float rng) *. period)
    done
  | Bursty k ->
    (* k back-to-back arrivals per burst, bursts spaced k * period. *)
    for i = 0 to ops - 1 do
      off.(i) <- int_of_float (float_of_int (i / k * k) *. period)
    done);
  off

type config = {
  n : int;  (* universe size *)
  unite_percent : int;
  find_percent : int;  (* remainder is same_set *)
  seed : int;
  generators : int;  (* load-generator domains (= client sessions) *)
  ops : int;  (* operations per generator *)
  shape : shape;
  workers : int;  (* 0 = Direct, >= 1 = Service drain workers *)
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
    shape = Poisson;
    workers = 2;
    queue_capacity = 256;
    batch = 64;
    admission = Svc.Reject;
    plan = Dsu.Plan.default;
    op_deadline_ms = 0.0;
    durable = false;
  }

let reservoir = 512

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

(* ------------------------------------------------------------- point *)

type point = {
  rate : float;  (* offered arrivals/sec per generator *)
  offered_rate : float;  (* rate * generators *)
  target_ops : int;
  submitted : int;
  accepted : int;
  acked : int;
  duration_s : float;
  achieved_rate : float;  (* acked ops per second *)
  latency : Hdr.snapshot;  (* completion − intended start *)
  service : Hdr.snapshot;  (* completion − actual start *)
  samples : int array;  (* sorted reservoir of open-loop latencies *)
  max_lag_ns : int;  (* worst scheduling lag: actual − intended start *)
  rejected : int;  (* admission backpressure: Queue_full / deadline *)
  shed : int;
  timed_out : int;
  failed : int;
  lost : int;  (* admitted, never answered within the end drain *)
  max_depth : int;  (* deepest ingestion queue seen at submit *)
  depth_bound_ok : bool;  (* max_depth ≤ queue_capacity *)
  parks : int;  (* worker parks: the workers ran out of work *)
  accounted_ok : bool;
      (* accepted = acked+shed+timed_out+failed+lost, no phantom or
         duplicate responses, no completion-lane displacement *)
  saturated : bool;
  oversubscribed : bool;
      (* Direct: the generators and the measuring domain outnumber the
         cores *)
}

(* One generator's books, owned by its domain until the join. *)
type gen = {
  lat : Hdr.t;
  srv : Hdr.t;
  res : Reservoir.t;
  mutable max_lag : int;
  mutable last_done : int;
  mutable g_submitted : int;
  mutable g_accepted : int;
  mutable g_rejected : int;
  mutable g_acked : int;
  mutable g_shed : int;
  mutable g_timed_out : int;
  mutable g_failed : int;
  mutable g_phantom : int;  (* responses whose id we never admitted *)
  mutable g_lost : int;
}

let new_gen ~seed =
  let lat = Hdr.create ~sharded:false () in
  let srv = Hdr.create ~sharded:false () in
  Hdr.materialize lat;
  Hdr.materialize srv;
  {
    lat;
    srv;
    res = Reservoir.create ~seed ~capacity:reservoir ();
    max_lag = 0;
    last_done = 0;
    g_submitted = 0;
    g_accepted = 0;
    g_rejected = 0;
    g_acked = 0;
    g_shed = 0;
    g_timed_out = 0;
    g_failed = 0;
    g_phantom = 0;
    g_lost = 0;
  }

let ack g ~intended ~actual ~fin =
  g.g_acked <- g.g_acked + 1;
  Hdr.observe g.lat (Stdlib.max 0 (fin - intended));
  Hdr.observe g.srv (Stdlib.max 0 (fin - actual));
  Reservoir.add g.res (Stdlib.max 0 (fin - intended));
  if fin > g.last_done then g.last_done <- fin

let spin_until target =
  while Clock.now_ns () < target do
    Domain.cpu_relax ()
  done

(* The two targets, as what a generator does with one op ([issue]) and
   after its last one ([finish]). *)
type target = {
  issue : gen -> session:int -> intended:int -> actual:int -> Svc.op -> unit;
  finish : gen -> session:int -> unit;
}

let direct d =
  let issue g ~session:_ ~intended ~actual op =
    (match op with
    | Svc.Unite (x, y) -> Dsu.Driver.unite d x y
    | Svc.Same_set (x, y) -> ignore (Dsu.Driver.same_set d x y)
    | Svc.Find x -> ignore (Dsu.Driver.find d x));
    g.g_accepted <- g.g_accepted + 1;
    ack g ~intended ~actual ~fin:(Clock.now_ns ())
  in
  { issue; finish = (fun _ ~session:_ -> ()) }

let served ~config svc =
  (* per-session table of admitted ids -> (intended, actual) submit
     times; each session's table is touched only by its own generator
     domain *)
  let pending = Array.init config.generators (fun _ -> Hashtbl.create 1024) in
  let drain g ~session =
    let pending = pending.(session) in
    List.iter
      (fun (r : Svc.response) ->
        match Hashtbl.find_opt pending r.Svc.r_id with
        | None -> g.g_phantom <- g.g_phantom + 1
        | Some (intended, actual) -> (
          Hashtbl.remove pending r.Svc.r_id;
          match r.Svc.r_outcome with
          | Svc.Done _ -> ack g ~intended ~actual ~fin:r.Svc.r_completed_ns
          | Svc.Shed -> g.g_shed <- g.g_shed + 1
          | Svc.Timed_out -> g.g_timed_out <- g.g_timed_out + 1
          | Svc.Failed _ -> g.g_failed <- g.g_failed + 1))
      (Svc.poll svc ~session)
  in
  let issue g ~session ~intended ~actual op =
    let deadline_ns =
      if config.op_deadline_ms > 0.0 then
        intended + int_of_float (config.op_deadline_ms *. 1e6)
      else 0
    in
    (match Svc.submit svc ~deadline_ns ~session op with
    | Svc.Enqueued id ->
      g.g_accepted <- g.g_accepted + 1;
      Hashtbl.replace pending.(session) id (intended, actual)
    | Svc.Rejected _ -> g.g_rejected <- g.g_rejected + 1);
    drain g ~session
  in
  let finish g ~session =
    (* end drain: every admitted op owes exactly one response *)
    let give_up = Clock.now_ns () + 2_000_000_000 in
    while Hashtbl.length pending.(session) > 0 && Clock.now_ns () < give_up do
      drain g ~session;
      if Hashtbl.length pending.(session) > 0 then Unix.sleepf 0.0002
    done;
    g.g_lost <- Hashtbl.length pending.(session)
  in
  { issue; finish }

let run_point ?(stall = fun ~generator:_ ~index:_ -> 0) ~config ~rate () =
  if rate <= 0.0 then invalid_arg "Load.run_point: rate must be positive";
  if config.generators < 1 || config.ops < 1 then
    invalid_arg "Load.run_point: generators and ops must be positive";
  if config.workers < 0 then
    invalid_arg "Load.run_point: workers must be >= 0";
  if config.durable && config.workers = 0 then
    invalid_arg "Load.run_point: a durable point needs the service target";
  if
    config.unite_percent < 0 || config.find_percent < 0
    || config.unite_percent + config.find_percent > 100
  then invalid_arg "Load.run_point: op mix percentages must fit in 100";
  (* Each generator busy-spins on its own domain until its next arrival,
     and each service worker drains on its own.  When they and the
     measuring domain outnumber the cores, one descheduling stalls a
     whole schedule and the point's latencies turn bimodal.  Flag rather
     than refuse: small CI hosts still run these sweeps for schema and
     accounting.  Only a Direct point also warns on stderr: a one-worker
     service point is oversubscribed on any host with up to 3 cores, so
     the warning would follow the host in every scripted run. *)
  let cores = Domain.recommended_domain_count () in
  let oversubscribed = config.generators + config.workers + 1 > cores in
  if oversubscribed && config.workers = 0 then
    Printf.eprintf
      "warning: %d direct generators plus the measuring domain exceed %d \
       cores; this point's latencies may be bimodal\n%!"
      config.generators cores;
  let wal_path =
    if config.durable then Some (Filename.temp_file "dsu-load" ".wal") else None
  in
  Fun.protect ~finally:(fun () -> Option.iter Sys.remove wal_path) @@ fun () ->
  let wal = Option.map Wal.create_writer wal_path in
  let svc =
    if config.workers = 0 then None
    else Some (Svc.create ?wal (service_config config))
  in
  let target =
    match svc with
    | None ->
      direct (Dsu.Driver.create ~plan:config.plan ~seed:config.seed config.n)
    | Some svc -> served ~config svc
  in
  let generator k =
    let offsets =
      arrivals ~shape:config.shape ~rate ~ops:config.ops
        ~seed:(config.seed + (1000 * k) + 1)
    in
    let ops =
      make_ops ~n:config.n ~unite_percent:config.unite_percent
        ~find_percent:config.find_percent ~ops:config.ops
        ~seed:(config.seed + (1000 * k) + 2)
    in
    let g = new_gen ~seed:(config.seed + (1000 * k) + 3) in
    fun () ->
      let epoch = Clock.now_ns () in
      g.last_done <- epoch;
      for i = 0 to config.ops - 1 do
        let intended = epoch + offsets.(i) in
        spin_until intended;
        let actual = Clock.now_ns () in
        if actual - intended > g.max_lag then g.max_lag <- actual - intended;
        let extra = stall ~generator:k ~index:i in
        if extra > 0 then spin_until (actual + extra);
        g.g_submitted <- g.g_submitted + 1;
        target.issue g ~session:k ~intended ~actual ops.(i)
      done;
      target.finish g ~session:k;
      (g, Stdlib.max 1 (g.last_done - epoch))
  in
  (* Build generators (schedules, op streams, recorders) before spawning
     so domain start-up cost is on no schedule; each generator times its
     own epoch-to-last-completion span, so spawn/join overhead never
     counts against the achieved rate. *)
  let bodies = List.init config.generators generator in
  let results = List.map Domain.join (List.map Domain.spawn bodies) in
  let st = Option.map (fun svc -> Svc.stop svc; Svc.stats svc) svc in
  Option.iter Wal.close wal;
  let gens = List.map fst results in
  let sum f = List.fold_left (fun acc g -> acc + f g) 0 gens in
  let merge f =
    List.fold_left (fun acc g -> Hdr.merge acc (Hdr.snap (f g))) Hdr.empty gens
  in
  let submitted = sum (fun g -> g.g_submitted) in
  let accepted = sum (fun g -> g.g_accepted) in
  let acked = sum (fun g -> g.g_acked) in
  let shed = sum (fun g -> g.g_shed) in
  let timed_out = sum (fun g -> g.g_timed_out) in
  let failed = sum (fun g -> g.g_failed) in
  let lost = sum (fun g -> g.g_lost) in
  let samples =
    let all = Array.concat (List.map (fun g -> Reservoir.samples g.res) gens) in
    Array.sort compare all;
    if Array.length all <= reservoir then all
    else
      (* deterministic even-stride thin to the reservoir size *)
      Array.init reservoir (fun i -> all.(i * Array.length all / reservoir))
  in
  let duration_s =
    float_of_int (List.fold_left (fun acc (_, d) -> Stdlib.max acc d) 1 results)
    /. 1e9
  in
  let offered_rate = rate *. float_of_int config.generators in
  let achieved_rate = float_of_int acked /. duration_s in
  let max_depth = match st with Some st -> st.Svc.s_max_depth | None -> 0 in
  {
    rate;
    offered_rate;
    target_ops = config.generators * config.ops;
    submitted;
    accepted;
    acked;
    duration_s;
    achieved_rate;
    latency = merge (fun g -> g.lat);
    service = merge (fun g -> g.srv);
    samples;
    max_lag_ns = List.fold_left (fun acc g -> Stdlib.max acc g.max_lag) 0 gens;
    rejected = sum (fun g -> g.g_rejected);
    shed;
    timed_out;
    failed;
    lost;
    max_depth;
    depth_bound_ok = max_depth <= config.queue_capacity;
    parks = (match st with Some st -> st.Svc.s_parks | None -> 0);
    accounted_ok =
      sum (fun g -> g.g_phantom) = 0
      && accepted = acked + shed + timed_out + failed + lost
      && (match st with Some st -> st.Svc.s_displaced = 0 | None -> true);
    saturated = achieved_rate < 0.95 *. offered_rate;
    oversubscribed;
  }

let sweep ?stall ~config ~rates () =
  List.map (fun rate -> run_point ?stall ~config ~rate ()) rates

(* The saturation knee: the highest offered rate the target still kept
   up with.  [None] when every point saturated. *)
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

let target_name config = if config.workers = 0 then "direct" else "service"

let point_json config p =
  let by_target =
    if config.workers = 0 then []
    else
      [
        ("rejected", J.Int p.rejected);
        ("shed", J.Int p.shed);
        ("timed_out", J.Int p.timed_out);
        ("failed", J.Int p.failed);
        ("lost", J.Int p.lost);
        ("max_depth", J.Int p.max_depth);
        ("depth_bound_ok", J.Bool p.depth_bound_ok);
        ("parks", J.Int p.parks);
        ("accounted_ok", J.Bool p.accounted_ok);
      ]
  in
  J.Obj
    ([
       ("arrival_rate_per_gen", J.Float p.rate);
       ("offered_rate", J.Float p.offered_rate);
       ("target_ops", J.Int p.target_ops);
       ("submitted", J.Int p.submitted);
       ("accepted", J.Int p.accepted);
       ("acked", J.Int p.acked);
       ("duration_s", J.Float p.duration_s);
       ("achieved_rate", J.Float p.achieved_rate);
       ("oversubscribed", J.Bool p.oversubscribed);
     ]
    @ by_target
    @ [
        ("saturated", J.Bool p.saturated);
        ("max_lag_ns", J.Int p.max_lag_ns);
        ("latency", J.Obj (hdr_fields p.latency));
        ("service", J.Obj (hdr_fields p.service));
        ( "samples_ns",
          J.List (Array.to_list (Array.map (fun v -> J.Int v) p.samples)) );
      ])

(* Throughput up-is-good, tail latency down-is-good, keyed by offered
   rate — [serve rate=…] on the Service target, [rate=…] on the Direct
   one, so the two targets never pair. *)
let point_metrics config p =
  let key =
    Printf.sprintf "%srate=%.0f"
      (if config.workers = 0 then "" else "serve ")
      p.offered_rate
  in
  let lat q = float_of_int (Hdr.quantile p.latency q) in
  [
    { Perfdiff.key; metric = "latency_p99_ns"; dir = Lower_better; value = lat 0.99 };
    { key; metric = "latency_p999_ns"; dir = Lower_better; value = lat 0.999 };
    { key; metric = "achieved_rate"; dir = Higher_better; value = p.achieved_rate };
  ]

let to_json config points =
  let served =
    if config.workers = 0 then []
    else
      [
        ("workers", J.Int config.workers);
        ("queue_capacity", J.Int config.queue_capacity);
        ("batch", J.Int config.batch);
        ("admission", J.String (Svc.admission_to_string config.admission));
        ("op_deadline_ms", J.Float config.op_deadline_ms);
        ("durable", J.Bool config.durable);
      ]
  in
  J.Obj
    ([
       ("schema", J.String "dsu-load/v1");
       ("target", J.String (target_name config));
       ("n", J.Int config.n);
       ("unite_percent", J.Int config.unite_percent);
       ("find_percent", J.Int config.find_percent);
       ("seed", J.Int config.seed);
       ("generators", J.Int config.generators);
       ("ops_per_generator", J.Int config.ops);
       ("shape", J.String (shape_to_string config.shape));
       ("plan", J.String (Dsu.Plan.to_string config.plan));
       ("kind", J.String (Snapshot.kind_to_string config.plan.Dsu.Plan.layout));
     ]
    @ served
    @ [
        ("points", J.List (List.map (point_json config) points));
        ( "knee_rate",
          match knee points with Some r -> J.Float r | None -> J.Null );
        Perfdiff.metrics_field (List.concat_map (point_metrics config) points);
      ])

(* ------------------------------------------------------------ pretty *)

let pp_point config ppf p =
  Format.fprintf ppf "rate %8.0f/s  acked %8.0f/s  p50 %7d  p99 %8d  p999 %9d"
    p.offered_rate p.achieved_rate
    (Hdr.quantile p.latency 0.50)
    (Hdr.quantile p.latency 0.99)
    (Hdr.quantile p.latency 0.999);
  if config.workers > 0 then
    Format.fprintf ppf "  depth %4d/%s  rej %5d  shed %4d" p.max_depth
      (if p.depth_bound_ok then "ok" else "OVER")
      p.rejected p.shed;
  Format.fprintf ppf "  %s%s"
    (if p.saturated then "SATURATED" else "ok")
    (if p.accounted_ok then "" else "  UNACCOUNTED")

let pp_table config ppf points =
  Format.fprintf ppf
    "open-loop sweep, %s target (ns, intended-start accounting)@."
    (target_name config);
  List.iter (fun p -> Format.fprintf ppf "  %a@." (pp_point config) p) points;
  match knee points with
  | Some r -> Format.fprintf ppf "  saturation knee: %.0f ops/s@." r
  | None -> Format.fprintf ppf "  saturation knee: below the swept range@."
