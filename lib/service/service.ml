(* The connectivity server: bounded ingestion, batched drain, durable ack.

   Client sessions submit ops into per-worker ingestion rings under an
   explicit admission policy.  A submit that finds room writes the
   request's ints into one ring slot: one CAS and one release store, no
   lock and no allocation but the [Enqueued] answer.  Worker domains take batches into a
   reusable buffer and apply them op by op, in FIFO order, through the
   backend's per-op calls; when a WAL is attached, a group commit is
   forced BEFORE any op in the batch is acknowledged, so an acked unite is
   always on disk — that ordering is the whole RPO=0 argument, and the
   serving chaos drill measures it.  A drained batch costs a constant
   number of CASes, locks and clock reads: one [head] CAS, one clock read
   for deadlines, one after the durability barrier to stamp every
   response, one counter bump per outcome kind and one completion-lane
   lock per run of responses bound for the same lane.

   Every admitted op gets exactly one response (Done, Shed, Timed_out or
   Failed) unless the worker holding it crashes, in which case it is lost
   {e unacknowledged} — the failure mode the contract permits. *)

module Queue = Bounded_queue
module Ring = Ingest_ring
module Site = Repro_fault.Site
module Fi = Repro_fault.Inject
module Backoff = Repro_util.Backoff
module Clock = Repro_obs.Clock
module Metrics = Repro_obs.Metrics
module Wal = Repro_durable.Wal
module Fuzzy = Repro_durable.Fuzzy
module Rsnap = Repro_recover.Snapshot

type op = Unite of int * int | Same_set of int * int | Find of int

let op_to_string = function
  | Unite (x, y) -> Printf.sprintf "unite %d %d" x y
  | Same_set (x, y) -> Printf.sprintf "same_set %d %d" x y
  | Find x -> Printf.sprintf "find %d" x

type admission = Reject | Shed_oldest | Block of float

let admission_to_string = function
  | Reject -> "reject"
  | Shed_oldest -> "shed-oldest"
  | Block s -> Printf.sprintf "block:%g" (s *. 1e3)

let admission_of_string s =
  match String.split_on_char ':' s with
  | [ "reject" ] -> Some Reject
  | [ "shed-oldest" ] -> Some Shed_oldest
  | [ "block" ] -> Some (Block 0.005)
  | [ "block"; ms ] -> (
    match float_of_string_opt ms with
    | Some ms when ms > 0. -> Some (Block (ms /. 1e3))
    | _ -> None)
  | _ -> None

type reject_reason = Queue_full | Admission_deadline | Stopped

let reject_reason_to_string = function
  | Queue_full -> "queue-full"
  | Admission_deadline -> "admission-deadline"
  | Stopped -> "stopped"

type value = V_unit | V_bool of bool | V_int of int

type outcome =
  | Done of value
  | Shed
  | Timed_out
  | Failed of string

(* An op as the ring's [kind; x; y] fields. *)
let kind_of = function Unite _ -> 0 | Same_set _ -> 1 | Find _ -> 2
let x_of = function Unite (x, _) | Same_set (x, _) | Find x -> x
let y_of = function Unite (_, y) | Same_set (_, y) -> y | Find _ -> 0

let op_of ~kind ~x ~y =
  match kind with 0 -> Unite (x, y) | 1 -> Same_set (x, y) | _ -> Find x

let entry_op b i = op_of ~kind:(Ring.kind b i) ~x:(Ring.x b i) ~y:(Ring.y b i)

type response = {
  r_id : int;
  r_session : int;
  r_op : op;
  r_outcome : outcome;
  r_intended_ns : int;
  r_completed_ns : int;
}

type admit = Enqueued of int | Rejected of reject_reason

type config = {
  n : int;
  workers : int;
  clients : int;
  queue_capacity : int;
  batch : int;
  admission : admission;
  plan : Dsu.Plan.t;
  seed : int;
  snapshot_dir : string option;
  snapshot_interval : float;
}

let default_config =
  {
    n = 1 lsl 16;
    workers = 2;
    clients = 2;
    queue_capacity = 1024;
    batch = 64;
    admission = Reject;
    plan = Dsu.Plan.default;
    seed = 42;
    snapshot_dir = None;
    snapshot_interval = 0.05;
  }

type t = {
  cfg : config;
  backend : Dsu.Driver.t;
  wal : Wal.writer option;
  rings : Ring.t array;
  completions : response Queue.t array;
  stopping : bool Atomic.t;
  mutable worker_handles : unit Domain.t list;
  mutable snapshotter : unit Domain.t option;
  worker_crash : (Site.t * int) option Atomic.t array;
  unhealthy : bool Atomic.t;  (* a worker refused to ack: wal dead *)
  next_id : int Atomic.t;  (* one per submit that was not [Stopped] *)
  rejected_full : int Atomic.t;
  rejected_deadline : int Atomic.t;
  rejected_stopped : int Atomic.t;
  shed : int Atomic.t;
  timed_out : int Atomic.t;
  acked : int Atomic.t;
  failed : int Atomic.t;
  idle_sleeps : int Atomic.t;
  displaced : int Atomic.t;  (* completion-lane displacement: 0 by sizing *)
  batches : int Atomic.t;
  max_batch : int Atomic.t;
  max_depth : int Atomic.t;
  snapshots_taken : int Atomic.t;
  m_depth : Metrics.gauge array;
  m_shed : Metrics.counter;
  m_rejected : Metrics.counter;
  m_acked : Metrics.counter;
  m_timed_out : Metrics.counter;
}

let backend t = t.backend
let kind t = Dsu.Driver.kind t.backend

let rec note_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then note_max cell v

let committer_dead t =
  match t.wal with
  | None -> false
  | Some w -> Wal.crashed w <> None || Wal.failed w <> None

type health = {
  h_dead_workers : (int * (Site.t * int)) list;
  h_committer_dead : bool;
}

let health t =
  let dead = ref [] in
  Array.iteri
    (fun k c ->
      match Atomic.get c with
      | Some cs -> dead := (k, cs) :: !dead
      | None -> ())
    t.worker_crash;
  {
    h_dead_workers = List.rev !dead;
    h_committer_dead = committer_dead t || Atomic.get t.unhealthy;
  }

let healthy t =
  let h = health t in
  h.h_dead_workers = [] && not h.h_committer_dead

(* ------------------------------------------------------------ responses *)

(* Completion lanes are sized in [create] for the worst-case in-flight
   population, so the shed paths below are unreachable in a correctly-sized
   service; they exist (instead of a blocking push) so a worker can never
   be wedged by a client that stopped polling, and the [displaced]
   counter makes any sizing violation loud. *)
let lane_of t session = t.completions.(session mod Array.length t.completions)

(* Answer entry [i] of batch [b] alone: the shed, dead-committer and
   shutdown paths. *)
let respond t b i outcome =
  (match outcome with
  | Done _ ->
    Atomic.incr t.acked;
    Metrics.incr t.m_acked
  | Shed ->
    Atomic.incr t.shed;
    Metrics.incr t.m_shed
  | Timed_out ->
    Atomic.incr t.timed_out;
    Metrics.incr t.m_timed_out
  | Failed _ -> Atomic.incr t.failed);
  let session = Ring.session b i in
  let rsp =
    {
      r_id = Ring.id b i;
      r_session = session;
      r_op = entry_op b i;
      r_outcome = outcome;
      r_intended_ns = Ring.intended_ns b i;
      r_completed_ns = Clock.now_ns ();
    }
  in
  match Queue.shed_enqueue (lane_of t session) rsp with
  | None -> ()
  | Some _ -> Atomic.incr t.displaced

(* Push [rsps.(0 .. n-1)] in order, one lock acquisition per run of
   responses bound for the same lane — one per batch when the batch's
   sessions share a lane, which is the common case. *)
let push_completions t rsps n =
  let lanes = Array.length t.completions in
  let pos = ref 0 in
  while !pos < n do
    let lane = rsps.(!pos).r_session mod lanes in
    let stop = ref (!pos + 1) in
    while !stop < n && rsps.(!stop).r_session mod lanes = lane do
      incr stop
    done;
    let d =
      Queue.shed_enqueue_batch t.completions.(lane) rsps ~pos:!pos
        ~len:(!stop - !pos)
    in
    if d > 0 then ignore (Atomic.fetch_and_add t.displaced d);
    pos := !stop
  done

(* ---------------------------------------------------------- application *)

(* Outcomes shared by every response that carries them. *)
let done_unit = Done V_unit
let done_true = Done (V_bool true)
let done_false = Done (V_bool false)
let failed_wal = Failed "wal-committer-dead"

(* A worker's reusable per-batch buffers, [batch] entries each. *)
type scratch = { reqs : Ring.batch; outs : outcome array; rsps : response array }

let scratch t =
  let blank =
    {
      r_id = -1;
      r_session = 0;
      r_op = Find 0;
      r_outcome = Shed;
      r_intended_ns = 0;
      r_completed_ns = 0;
    }
  in
  {
    reqs = Ring.batch t.cfg.batch;
    outs = Array.make t.cfg.batch Shed;
    rsps = Array.make t.cfg.batch blank;
  }

(* Apply one op given as the ring's fields ([kind_of] encoding). *)
let apply backend ~kind ~x ~y =
  match kind with
  | 0 ->
    Dsu.Driver.unite backend x y;
    done_unit
  | 1 -> if Dsu.Driver.same_set backend x y then done_true else done_false
  | _ -> Done (V_int (Dsu.Driver.find backend x))

(* Answer the first [n] entries of [sc.reqs]. *)
let process_batch t sc n =
  Atomic.incr t.batches;
  let b = sc.reqs in
  let now = Clock.now_ns () in
  (* Apply in FIFO order.  Ops that missed their deadline while queued
     time out without touching the structure — the client already gave
     up on them. *)
  let expired = ref 0 in
  for i = 0 to n - 1 do
    let deadline = Ring.deadline_ns b i in
    sc.outs.(i) <-
      (if deadline > 0 && now > deadline then begin
         incr expired;
         Timed_out
       end
       else apply t.backend ~kind:(Ring.kind b i) ~x:(Ring.x b i) ~y:(Ring.y b i))
  done;
  let expired = !expired in
  note_max t.max_batch n;
  (* The durability barrier: force the group commit and only ack if the
     committer is still alive to have performed it.  An ack therefore
     implies the batch's links are on disk — RPO = 0 by construction. *)
  let durable =
    match t.wal with
    | None -> true
    | Some w ->
      Wal.flush w;
      Wal.crashed w = None && Wal.failed w = None
  in
  let live = n - expired in
  if expired > 0 then begin
    ignore (Atomic.fetch_and_add t.timed_out expired);
    Metrics.add t.m_timed_out expired
  end;
  if live > 0 then
    if durable then begin
      ignore (Atomic.fetch_and_add t.acked live);
      Metrics.add t.m_acked live
    end
    else ignore (Atomic.fetch_and_add t.failed live);
  if not durable then Atomic.set t.unhealthy true;
  let completed = Clock.now_ns () in
  for i = 0 to n - 1 do
    let o = sc.outs.(i) in
    sc.rsps.(i) <-
      {
        r_id = Ring.id b i;
        r_session = Ring.session b i;
        r_op = entry_op b i;
        r_outcome = (match o with Done _ when not durable -> failed_wal | _ -> o);
        r_intended_ns = Ring.intended_ns b i;
        r_completed_ns = completed;
      }
  done;
  push_completions t sc.rsps n;
  durable

(* Take what is left in [ring] through [b] and answer it [outcome], one
   request per take and so one [Queue_deq_cas] site hit per request: these
   paths are cold, and the serving crash drill counts those hits to crash
   a worker while it fails its backlog. *)
let rec answer_rest t ring b outcome =
  if Ring.take ring b ~max:1 = 1 then begin
    respond t b 0 outcome;
    answer_rest t ring b outcome
  end

(* An idle worker checks its ring [idle_checks] times, 1, 2, 4, ... pauses
   apart (63 pauses in all), then sleeps 200 us between checks: it must
   not steal the mutators' CPU (same reasoning as the WAL committer), and
   spacing the checks keeps it from pulling the producer's cache line
   back after every pause. *)
let idle_checks = 6

let worker_loop t k =
  let ring = t.rings.(k) in
  let sc = scratch t in
  let idle = ref 0 in
  try
    let continue = ref true in
    while !continue do
      let n = Ring.take ring sc.reqs ~max:t.cfg.batch in
      if n = 0 then begin
        if Atomic.get t.stopping then continue := false
        else if !idle < idle_checks then begin
          Backoff.spin (1 lsl !idle);
          incr idle
        end
        else begin
          Atomic.incr t.idle_sleeps;
          Unix.sleepf 0.0002
        end
      end
      else begin
        idle := 0;
        if not (process_batch t sc n) then begin
          (* No durable acks are possible any more: fail the backlog so
             nothing rots unanswered, then leave. *)
          answer_rest t ring sc.reqs failed_wal;
          continue := false
        end
      end
    done
  with Fi.Crashed (site, slot) ->
    (* Crash-stop: the partially-processed batch dies with the worker,
       unacknowledged — admitted-but-unacked loss, which the serving
       contract permits and the drill's RPO accounting verifies. *)
    Atomic.set t.worker_crash.(k) (Some (site, slot))

(* ----------------------------------------------------------- snapshotter *)

let write_snapshot t dir seq =
  let epoch = Option.map Wal.epoch t.wal in
  let cap = Fuzzy.of_driver ?epoch t.backend in
  Rsnap.write_file
    (Filename.concat dir (Printf.sprintf "snap-%03d.bin" seq))
    cap.Fuzzy.snapshot;
  Atomic.incr t.snapshots_taken

let snapshotter_loop t dir =
  let seq = ref 1 in
  (* snap-000 was written synchronously in [create] *)
  while not (Atomic.get t.stopping) do
    let until = Clock.wall_s () +. t.cfg.snapshot_interval in
    while (not (Atomic.get t.stopping)) && Clock.wall_s () < until do
      Unix.sleepf 0.001
    done;
    if not (Atomic.get t.stopping) then begin
      write_snapshot t dir !seq;
      incr seq
    end
  done

let snapshot_files t =
  match t.cfg.snapshot_dir with
  | None -> []
  | Some dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.sort compare
    |> List.map (Filename.concat dir)

(* -------------------------------------------------------------- lifecycle *)

let validate_config cfg =
  if cfg.n < 2 then invalid_arg "Service.create: n must be >= 2";
  if cfg.workers < 1 then invalid_arg "Service.create: workers must be >= 1";
  if cfg.clients < 1 then invalid_arg "Service.create: clients must be >= 1";
  if cfg.queue_capacity < 1 then
    invalid_arg "Service.create: queue_capacity must be >= 1";
  if cfg.batch < 1 then invalid_arg "Service.create: batch must be >= 1";
  if cfg.snapshot_interval <= 0. then
    invalid_arg "Service.create: snapshot_interval must be positive"

let create ?backend ?wal ?on_worker_start cfg =
  validate_config cfg;
  let backend =
    match backend with
    | Some b -> b
    | None ->
      let on_link =
        Option.map (fun w -> fun ~child ~parent -> Wal.append w ~child ~parent) wal
      in
      Dsu.Driver.create ~plan:cfg.plan ~seed:cfg.seed ?on_link cfg.n
  in
  (* worst-case responses outstanding per lane: every admitted op of every
     worker (queued + one in-process batch) could route to one lane *)
  let lane_cap = (cfg.workers * (cfg.queue_capacity + cfg.batch)) + 8 in
  let t =
    {
      cfg;
      backend;
      wal;
      rings = Array.init cfg.workers (fun _ -> Ring.create cfg.queue_capacity);
      completions = Array.init cfg.clients (fun _ -> Queue.create lane_cap);
      stopping = Atomic.make false;
      worker_handles = [];
      snapshotter = None;
      worker_crash = Array.init cfg.workers (fun _ -> Atomic.make None);
      unhealthy = Atomic.make false;
      next_id = Atomic.make 0;
      rejected_full = Atomic.make 0;
      rejected_deadline = Atomic.make 0;
      rejected_stopped = Atomic.make 0;
      shed = Atomic.make 0;
      timed_out = Atomic.make 0;
      acked = Atomic.make 0;
      failed = Atomic.make 0;
      idle_sleeps = Atomic.make 0;
      displaced = Atomic.make 0;
      batches = Atomic.make 0;
      max_batch = Atomic.make 0;
      max_depth = Atomic.make 0;
      snapshots_taken = Atomic.make 0;
      m_depth =
        Array.init cfg.workers (fun k ->
            Metrics.gauge
              ~help:"current ingestion queue depth"
              (Printf.sprintf "service_queue_%d_depth" k));
      m_shed = Metrics.counter ~help:"ops displaced by shed-oldest" "service_shed_total";
      m_rejected =
        Metrics.counter ~help:"submissions rejected at admission"
          "service_rejected_total";
      m_acked = Metrics.counter ~help:"ops acknowledged Done" "service_acked_total";
      m_timed_out =
        Metrics.counter ~help:"ops expired past their deadline"
          "service_timed_out_total";
    }
  in
  (* always leave at least one recovery candidate on disk before serving *)
  (match cfg.snapshot_dir with
  | None -> ()
  | Some dir ->
    write_snapshot t dir 0;
    t.snapshotter <- Some (Domain.spawn (fun () -> snapshotter_loop t dir)));
  t.worker_handles <-
    List.init cfg.workers (fun k ->
        Domain.spawn (fun () ->
            (match on_worker_start with None -> () | Some f -> f k);
            worker_loop t k));
  t

(* -------------------------------------------------------------- requests *)

let check_element t x =
  if x < 0 || x >= t.cfg.n then
    invalid_arg (Printf.sprintf "Service.submit: element %d outside [0, %d)" x t.cfg.n)

let check_session fn session =
  if session < 0 then
    invalid_arg (Printf.sprintf "Service.%s: session %d is negative" fn session)

let push ring ~id ~session ~intended_ns ~deadline_ns op =
  Ring.try_push ring ~id ~session ~kind:(kind_of op) ~x:(x_of op) ~y:(y_of op)
    ~intended_ns ~deadline_ns

let submit t ?intended_ns ?(deadline_ns = 0) ~session op =
  check_session "submit" session;
  (match op with
  | Unite (x, y) | Same_set (x, y) ->
    check_element t x;
    check_element t y
  | Find x -> check_element t x);
  if Atomic.get t.stopping then begin
    Atomic.incr t.rejected_stopped;
    Metrics.incr t.m_rejected;
    Rejected Stopped
  end
  else begin
    let id = Atomic.fetch_and_add t.next_id 1 in
    let intended_ns =
      match intended_ns with Some ns -> ns | None -> Clock.now_ns ()
    in
    let qi = session mod t.cfg.workers in
    let ring = t.rings.(qi) in
    let depth = Ring.length ring in
    note_max t.max_depth depth;
    Metrics.set t.m_depth.(qi) depth;
    match t.cfg.admission with
    | Reject ->
      if push ring ~id ~session ~intended_ns ~deadline_ns op then Enqueued id
      else begin
        Atomic.incr t.rejected_full;
        Metrics.incr t.m_rejected;
        Rejected Queue_full
      end
    | Shed_oldest ->
      (* Full: take the oldest request through the same [head] CAS the
         worker drains with, answer it [Shed], and push again. *)
      if not (push ring ~id ~session ~intended_ns ~deadline_ns op) then begin
        let victim = Ring.batch 1 in
        while not (push ring ~id ~session ~intended_ns ~deadline_ns op) do
          if Ring.take ring victim ~max:1 = 1 then respond t victim 0 Shed
          else Domain.cpu_relax ()
        done
      end;
      Enqueued id
    | Block timeout_s ->
      let until_ns = Clock.now_ns () + int_of_float (timeout_s *. 1e9) in
      if
        Ring.push_until ring ~until_ns ~id ~session ~kind:(kind_of op)
          ~x:(x_of op) ~y:(y_of op) ~intended_ns ~deadline_ns
      then Enqueued id
      else begin
        Atomic.incr t.rejected_deadline;
        Metrics.incr t.m_rejected;
        Rejected Admission_deadline
      end
  end

let poll ?(max = max_int) t ~session =
  check_session "poll" session;
  if max < 1 then invalid_arg "Service.poll: max must be >= 1";
  let lane = lane_of t session in
  if Queue.is_empty lane then [] else Queue.dequeue_batch lane ~max

(* ------------------------------------------------------------------ stop *)

let stop t =
  Atomic.set t.stopping true;
  List.iter Domain.join t.worker_handles;
  t.worker_handles <- [];
  (match t.snapshotter with
  | None -> ()
  | Some d ->
    Domain.join d;
    t.snapshotter <- None);
  (* Sweep the rings of crashed workers (and any push that raced the
     drain-then-exit): every admitted op still gets its response. *)
  let b = Ring.batch 1 in
  Array.iter (fun ring -> answer_rest t ring b (Failed "shutdown")) t.rings;
  match t.wal with None -> () | Some w -> Wal.flush w

(* ----------------------------------------------------------------- stats *)

type stats = {
  s_submitted : int;
  s_accepted : int;
  s_rejected_full : int;
  s_rejected_deadline : int;
  s_rejected_stopped : int;
  s_shed : int;
  s_timed_out : int;
  s_acked : int;
  s_failed : int;
  s_displaced : int;
  s_idle_sleeps : int;
  s_batches : int;
  s_max_batch : int;
  s_max_depth : int;
  s_snapshots : int;
}

(* Every submit that gets past validation either takes an id or is
   rejected [Stopped], and every id is either admitted or rejected full or
   at its admission deadline; the two admission totals follow. *)
let stats t =
  let ids = Atomic.get t.next_id in
  let rejected_full = Atomic.get t.rejected_full in
  let rejected_deadline = Atomic.get t.rejected_deadline in
  let rejected_stopped = Atomic.get t.rejected_stopped in
  {
    s_submitted = ids + rejected_stopped;
    s_accepted = ids - rejected_full - rejected_deadline;
    s_rejected_full = rejected_full;
    s_rejected_deadline = rejected_deadline;
    s_rejected_stopped = rejected_stopped;
    s_shed = Atomic.get t.shed;
    s_timed_out = Atomic.get t.timed_out;
    s_acked = Atomic.get t.acked;
    s_failed = Atomic.get t.failed;
    s_displaced = Atomic.get t.displaced;
    s_idle_sleeps = Atomic.get t.idle_sleeps;
    s_batches = Atomic.get t.batches;
    s_max_batch = Atomic.get t.max_batch;
    s_max_depth = Atomic.get t.max_depth;
    s_snapshots = Atomic.get t.snapshots_taken;
  }
