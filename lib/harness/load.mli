(** The open-loop load engine: coordinated-omission-free sweeps over one
    of two targets.

    Each load-generator domain walks a {e precomputed} arrival schedule
    (fixed-rate, Poisson, or bursty — deterministic from the seed) and
    charges every operation from its {e intended} start time, so an
    operation queued behind a stall is billed for the wait.  A
    closed-loop harness (issue-on-return, like {!Scalability}) measures
    only service time and silently omits exactly those samples —
    coordinated omission, which flattens the reported tail.  Both
    distributions are recorded ({!Repro_obs.Hdr}, ≤1% quantile error) so
    the gap is visible, plus a {!Repro_obs.Reservoir} of exact open-loop
    samples for export.

    The target is [config.workers]:
    - [0] is {e Direct}: each generator runs its operation on the
      {!Dsu.Driver} built from [config.plan], on its own domain;
    - [w >= 1] is {e Service}: each generator submits to a
      {!Repro_service.Service} with [w] drain workers (the service echoes
      the intended timestamp back in the response) and polls its own
      completion lane, and every admitted operation is accounted for.

    Rate sweeps locate the saturation knee; results serialize as the
    versioned [dsu-load/v1] JSON, which records its target (see
    docs/OBSERVABILITY.md).  The serving crash drill (RPO and RTO) is
    {!Chaos}'s [Service] depth. *)

type shape = Fixed | Poisson | Bursty of int  (** arrivals per burst *)

val shape_to_string : shape -> string
val shape_of_string : string -> shape option
(** ["fixed"], ["poisson"], ["bursty"] (= [Bursty 16]) or ["bursty:K"]. *)

val arrivals : shape:shape -> rate:float -> ops:int -> seed:int -> int array
(** The deterministic arrival-offset schedule (ns from the generator's
    epoch) one generator walks: mean inter-arrival [1e9 /. rate] for
    every shape. *)

type config = {
  n : int;  (** universe size *)
  unite_percent : int;
  find_percent : int;  (** remaining operations are [same_set] *)
  seed : int;
  generators : int;  (** load-generator domains (= client sessions) *)
  ops : int;  (** operations per generator *)
  shape : shape;
  workers : int;  (** [0] = Direct target, [>= 1] = Service drain workers *)
  queue_capacity : int;  (** Service only: per-worker ingestion bound *)
  batch : int;  (** Service only *)
  admission : Repro_service.Service.admission;  (** Service only *)
  plan : Dsu.Plan.t;  (** names the backend, layout included *)
  op_deadline_ms : float;  (** Service only; 0 = no per-op deadline *)
  durable : bool;
      (** Service only: attach a WAL (group commit on the drain path) *)
}

val default_config : config
(** The [dsu_workload serve] request mix (40% unite, 10% find, 50%
    same-set) on a 2-worker service. *)

val reservoir : int
(** Exact open-loop samples kept per point (512). *)

type point = {
  rate : float;  (** offered arrivals/sec per generator *)
  offered_rate : float;  (** [rate *. generators] *)
  target_ops : int;
  submitted : int;
  accepted : int;  (** Direct: [= submitted] *)
  acked : int;  (** completed operations; Direct: [= submitted] *)
  duration_s : float;
  achieved_rate : float;  (** acked operations per second *)
  latency : Repro_obs.Hdr.snapshot;
      (** open-loop: completion − intended start *)
  service : Repro_obs.Hdr.snapshot;
      (** closed-loop equivalent: completion − actual start (Service:
          − actual submit) *)
  samples : int array;  (** sorted reservoir of open-loop latencies, ns *)
  max_lag_ns : int;  (** worst (actual − intended) start lag *)
  rejected : int;  (** admission backpressure (full / deadline); Direct: 0 *)
  shed : int;
  timed_out : int;
  failed : int;
  lost : int;  (** admitted, never answered within the end drain *)
  max_depth : int;  (** deepest ingestion queue observed at submit *)
  depth_bound_ok : bool;  (** [max_depth <= queue_capacity] *)
  parks : int;
      (** worker parks ({!Repro_service.Service.stats} [s_parks]): how
          often the drain workers ran out of work *)
  accounted_ok : bool;
      (** [accepted = acked + shed + timed_out + failed + lost], no
          phantom/duplicate responses, no completion-lane displacement —
          the "nothing silently dropped after ack" guarantee *)
  saturated : bool;  (** achieved < 95% of offered *)
}

val run_point :
  ?stall:(generator:int -> index:int -> int) ->
  config:config ->
  rate:float ->
  unit ->
  point
(** One offered rate: build the target, drive it open-loop from
    [config.generators] domains, stop it, and account for every
    operation.  [stall ~generator ~index] (default: none) spins that many
    nanoseconds on generator [generator] between its [index]-th
    operation's actual start and its call (Direct) or submit (Service) —
    the "deliberately stalled server" whose queueing delay open-loop
    accounting exposes and closed-loop accounting hides.  A durable
    point's WAL is a temp file, removed afterwards.
    @raise Invalid_argument on nonsensical knobs, including [durable]
    with the Direct target. *)

val sweep :
  ?stall:(generator:int -> index:int -> int) ->
  config:config ->
  rates:float list ->
  unit ->
  point list

val knee : point list -> float option
(** Highest offered rate that did not saturate; [None] if all did. *)

val to_json : config -> point list -> Repro_obs.Json.t
(** The [dsu-load/v1] document.  Its {!Perfdiff} [metrics] are each
    point's [achieved_rate] and open-loop p99/p999 latency, keyed
    [rate=…] on the Direct target and [serve rate=…] on the Service one. *)

val pp_table : config -> Format.formatter -> point list -> unit
(** One line per point (the admission columns on the Service target),
    then the knee. *)
