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
   number of CASes and clock reads: one [head] CAS, one clock read for
   deadlines, one after the durability barrier to stamp every answer, one
   counter bump per outcome kind and one completion-lane [tail] CAS per
   run of answers bound for the same lane.

   Answers travel back as ints too: each completion lane is a [Slot_ring]
   of [answer_width] ints per slot, [id; code; completed_ns], where the
   code packs the outcome and a find's root.  The worker allocates
   nothing per request; [poll] builds the [response] records on the
   polling domain's own heap.

   Every admitted op gets exactly one response (Done, Shed, Timed_out or
   Failed) unless the worker holding it crashes, in which case it is lost
   {e unacknowledged} — the failure mode the contract permits. *)

module Ring = Slot_ring
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

(* A request as an ingestion slot's fields, and an answer as a completion
   slot's. *)
let request_width = 6
let f_id = 0
let f_session = 1
let f_kind = 2
let f_x = 3
let f_y = 4
let f_deadline = 5

let answer_width = 3
let a_id = 0
let a_code = 1
let a_completed = 2

(* An op as the request's [kind; x; y] fields. *)
let kind_of = function Unite _ -> 0 | Same_set _ -> 1 | Find _ -> 2
let x_of = function Unite (x, _) | Same_set (x, _) | Find x -> x
let y_of = function Unite (_, y) | Same_set (_, y) -> y | Find _ -> 0

(* An outcome as an answer's [code]: the kind in the low 3 bits, a find's
   root above them.  The codes below [c_shed] are the [Done] ones. *)
let c_unit = 0
let c_true = 1
let c_false = 2
let c_root = 3
let c_shed = 4
let c_timed_out = 5
let c_failed_wal = 6
let c_failed_shutdown = 7

(* Outcomes shared by every response that carries them. *)
let done_unit = Done V_unit
let done_true = Done (V_bool true)
let done_false = Done (V_bool false)
let failed_wal = Failed "wal-committer-dead"
let failed_shutdown = Failed "shutdown"

let outcome_of code =
  match code land 7 with
  | 0 -> done_unit
  | 1 -> done_true
  | 2 -> done_false
  | 3 -> Done (V_int (code lsr 3))
  | 4 -> Shed
  | 5 -> Timed_out
  | 6 -> failed_wal
  | _ -> failed_shutdown

type response = { r_id : int; r_outcome : outcome; r_completed_ns : int }

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
  completions : Ring.t array;  (* per-client lanes of answers *)
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
  parks : int Atomic.t;
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
   population, so a full lane is unreachable in a correctly-sized
   service.  A worker that finds one full displaces the lane's oldest
   answers instead of waiting, so it can never be wedged by a client that
   stopped polling, and the [displaced] counter makes any sizing
   violation loud. *)
let lane_of t session = t.completions.(session mod Array.length t.completions)

(* Claim [len] slots on [ring]; while it has no room, take its oldest
   entry into [victim] and hand [victim] to [displace].  Shed-oldest
   admission and a full completion lane are both this loop; callers try
   [Ring.claim] first, so the closure is only built once a ring is
   full. *)
let rec claim_displacing ring ~len victim displace =
  let s = Ring.claim ring ~len in
  if s >= 0 then s
  else begin
    if Ring.take ring victim ~max:1 = 1 then displace victim
    else Domain.cpu_relax ();
    claim_displacing ring ~len victim displace
  end

let claim_answers t lane ~len =
  let s = Ring.claim lane ~len in
  if s >= 0 then s
  else
    claim_displacing lane ~len (Ring.batch ~width:answer_width 1) (fun _ ->
        Atomic.incr t.displaced)

let answer lane s ~id ~code ~completed =
  Ring.set lane s a_id id;
  Ring.set lane s a_code code;
  Ring.set lane s a_completed completed;
  Ring.publish lane s

(* Answer the request in entry 0 of [b] alone, [Shed] or [Failed]: the
   shed, dead-committer and shutdown paths. *)
let respond t b code =
  if code = c_shed then begin
    Atomic.incr t.shed;
    Metrics.incr t.m_shed
  end
  else Atomic.incr t.failed;
  let lane = lane_of t (Ring.get b 0 f_session) in
  answer lane (claim_answers t lane ~len:1) ~id:(Ring.get b 0 f_id) ~code
    ~completed:(Clock.now_ns ())

(* ---------------------------------------------------------- application *)

(* A worker's reusable per-batch buffers, [batch] entries each: the
   requests taken and their answers' codes. *)
type scratch = { reqs : Ring.batch; codes : int array }

let scratch t =
  {
    reqs = Ring.batch ~width:request_width t.cfg.batch;
    codes = Array.make t.cfg.batch c_unit;
  }

(* Apply one op given as the request's fields ([kind_of] encoding) and
   return its answer's code. *)
let apply backend ~kind ~x ~y =
  match kind with
  | 0 ->
    Dsu.Driver.unite backend x y;
    c_unit
  | 1 -> if Dsu.Driver.same_set backend x y then c_true else c_false
  | _ -> c_root lor (Dsu.Driver.find backend x lsl 3)

(* Push the answers of [sc.reqs.(0 .. n-1)] in order, one [tail] CAS per
   run of answers bound for the same lane: one per batch when the batch's
   sessions share a lane, which is the common case.  Without durability a
   [Done] code becomes [c_failed_wal]. *)
let push_answers t sc n ~durable ~completed =
  let b = sc.reqs and lanes = Array.length t.completions in
  let pos = ref 0 in
  while !pos < n do
    let first = !pos in
    let l = Ring.get b first f_session mod lanes in
    let stop = ref (first + 1) in
    while !stop < n && Ring.get b !stop f_session mod lanes = l do
      incr stop
    done;
    let lane = t.completions.(l) in
    let s = ref (claim_answers t lane ~len:(!stop - first)) in
    for i = first to !stop - 1 do
      let code = sc.codes.(i) in
      let code = if durable || code land 7 >= c_shed then code else c_failed_wal in
      answer lane !s ~id:(Ring.get b i f_id) ~code ~completed;
      s := Ring.next_slot lane !s
    done;
    pos := !stop
  done

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
    let deadline = Ring.get b i f_deadline in
    sc.codes.(i) <-
      (if deadline > 0 && now > deadline then begin
         incr expired;
         c_timed_out
       end
       else
         apply t.backend ~kind:(Ring.get b i f_kind) ~x:(Ring.get b i f_x)
           ~y:(Ring.get b i f_y))
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
  push_answers t sc n ~durable ~completed:(Clock.now_ns ());
  durable

(* Take what is left in [ring] through [b] and answer it [code], one
   request per take and so one [Queue_deq_cas] site hit per request: these
   paths are cold, and the serving crash drill counts those hits to crash
   a worker while it fails its backlog. *)
let rec answer_rest t ring b code =
  if Ring.take ring b ~max:1 = 1 then begin
    respond t b code;
    answer_rest t ring b code
  end

(* An idle worker spins, then parks.  It checks its ring 1, 2, 4, ...
   32 pauses apart (63 pauses in all), then every 32 pauses until it has
   found the ring empty for [spin_budget_ns], then parks until a submit
   publishes into its ring or [stop] wakes it ([Ring.park]).  Spacing the
   checks keeps the worker from pulling the producer's cache line back
   after every pause.  A wake-up costs the submit a futex call and the
   worker a reschedule, so the budget covers the short gaps of a client
   that keeps the worker fed, and only a longer gap frees the core.
   On a 2-core host (docs/PERFORMANCE.md, "Parking the drain worker"),
   budgets of 20, 50 and 150 us read alike on the [serve] benchmark, and
   parking at once moved the open-loop 400k req/s point's p50 from 2-3 us
   to 6-123 us. *)
let spin_checks = 6
let spin_budget_ns = 50_000

let worker_loop t k =
  let ring = t.rings.(k) in
  let sc = scratch t in
  let idle = ref 0 and idle_since = ref 0 in
  try
    let continue = ref true in
    while !continue do
      let n = Ring.take ring sc.reqs ~max:t.cfg.batch in
      if n = 0 then begin
        if Atomic.get t.stopping then continue := false
        else if !idle < spin_checks then begin
          if !idle = 0 then idle_since := Clock.now_ns ();
          Backoff.spin (1 lsl !idle);
          incr idle
        end
        else if Clock.now_ns () - !idle_since < spin_budget_ns then
          Backoff.spin (1 lsl (spin_checks - 1))
        else begin
          Atomic.incr t.parks;
          Ring.park ring ~stop:t.stopping;
          idle := 0
        end
      end
      else begin
        idle := 0;
        if not (process_batch t sc n) then begin
          (* No durable acks are possible any more: fail the backlog so
             nothing rots unanswered, then leave. *)
          answer_rest t ring sc.reqs c_failed_wal;
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
      rings =
        Array.init cfg.workers (fun _ ->
            Ring.create ~width:request_width cfg.queue_capacity);
      completions =
        Array.init cfg.clients (fun _ -> Ring.create ~width:answer_width lane_cap);
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
      parks = Atomic.make 0;
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

(* Write [op] into claimed slot [s] of [ring] and publish it. *)
let write_request ring s ~id ~session ~deadline_ns op =
  Ring.set ring s f_id id;
  Ring.set ring s f_session session;
  Ring.set ring s f_kind (kind_of op);
  Ring.set ring s f_x (x_of op);
  Ring.set ring s f_y (y_of op);
  Ring.set ring s f_deadline deadline_ns;
  Ring.publish ring s

let submit t ?intended_ns:_ ?(deadline_ns = 0) ~session op =
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
    let qi = session mod t.cfg.workers in
    let ring = t.rings.(qi) in
    let depth = Ring.length ring in
    note_max t.max_depth depth;
    Metrics.set t.m_depth.(qi) depth;
    let s =
      match t.cfg.admission with
      | Reject -> Ring.claim ring ~len:1
      | Shed_oldest ->
        (* Full: take the oldest request through the same [head] CAS the
           worker drains with and answer it [Shed]. *)
        let s = Ring.claim ring ~len:1 in
        if s >= 0 then s
        else
          claim_displacing ring ~len:1 (Ring.batch ~width:request_width 1)
            (fun victim -> respond t victim c_shed)
      | Block timeout_s ->
        Ring.claim_until ring ~len:1
          ~until_ns:(Clock.now_ns () + int_of_float (timeout_s *. 1e9))
    in
    if s >= 0 then begin
      write_request ring s ~id ~session ~deadline_ns op;
      Enqueued id
    end
    else begin
      Metrics.incr t.m_rejected;
      match t.cfg.admission with
      | Block _ ->
        Atomic.incr t.rejected_deadline;
        Rejected Admission_deadline
      | Reject | Shed_oldest ->
        Atomic.incr t.rejected_full;
        Rejected Queue_full
    end
  end

(* Each polling domain's buffer, grown to the largest take asked of it. *)
let poll_buffer =
  Domain.DLS.new_key (fun () -> ref (Ring.batch ~width:answer_width 1))

(* The responses to entries [0 .. i] of [b], consed onto [acc] from the
   last back, so the list comes out in FIFO order. *)
let rec responses b i acc =
  if i < 0 then acc
  else
    responses b (i - 1)
      ({
         r_id = Ring.get b i a_id;
         r_outcome = outcome_of (Ring.get b i a_code);
         r_completed_ns = Ring.get b i a_completed;
       }
      :: acc)

let poll ?(max = max_int) t ~session =
  check_session "poll" session;
  if max < 1 then invalid_arg "Service.poll: max must be >= 1";
  let lane = lane_of t session in
  let max = if max < Ring.capacity lane then max else Ring.capacity lane in
  let buf = Domain.DLS.get poll_buffer in
  if Ring.batch_size !buf < max then buf := Ring.batch ~width:answer_width max;
  let b = !buf in
  responses b (Ring.take lane b ~max - 1) []

(* ------------------------------------------------------------------ stop *)

let stop t =
  Atomic.set t.stopping true;
  Array.iter Ring.wake t.rings;
  List.iter Domain.join t.worker_handles;
  t.worker_handles <- [];
  (match t.snapshotter with
  | None -> ()
  | Some d ->
    Domain.join d;
    t.snapshotter <- None);
  (* Sweep the rings of crashed workers (and any push that raced the
     drain-then-exit): every admitted op still gets its response. *)
  let b = Ring.batch ~width:request_width 1 in
  Array.iter (fun ring -> answer_rest t ring b c_failed_shutdown) t.rings;
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
  s_parks : int;
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
    s_parks = Atomic.get t.parks;
    s_batches = Atomic.get t.batches;
    s_max_batch = Atomic.get t.max_batch;
    s_max_depth = Atomic.get t.max_depth;
    s_snapshots = Atomic.get t.snapshots_taken;
  }
