(** Serving harness: open-loop load sweeps over the
    {!Repro_service.Service} layer.

    Load generators walk the exact arrival schedules of the latency
    harness ({!Latency.arrivals}) — fixed, Poisson, or bursty — and
    charge every operation from its {e intended} arrival time (the
    service echoes the submitted timestamp back in the response), so the
    reported latencies are open-loop and include ingestion queueing.
    Results serialize as the versioned [dsu-service/v1] JSON.  The
    serving crash drill (RPO and RTO) is {!Chaos}'s [Service] depth. *)

type config = {
  n : int;  (** universe size *)
  unite_percent : int;
  find_percent : int;  (** remaining operations are [same_set] *)
  seed : int;
  generators : int;  (** load-generator domains (= client sessions) *)
  ops : int;  (** operations per generator *)
  shape : Latency.shape;
  workers : int;
  queue_capacity : int;
  batch : int;
  admission : Repro_service.Service.admission;
  plan : Dsu.Plan.t;  (** names the backend, layout included *)
  op_deadline_ms : float;  (** 0 = no per-op deadline *)
  durable : bool;  (** attach a WAL (group commit on the drain path) *)
}

val default_config : config

type point = {
  rate : float;  (** offered arrivals/sec per generator *)
  offered_rate : float;  (** [rate *. generators] *)
  target_ops : int;
  submitted : int;
  accepted : int;
  rejected : int;  (** admission backpressure (full / deadline) *)
  acked : int;
  shed : int;
  timed_out : int;
  failed : int;
  lost : int;  (** admitted, never answered within the end drain *)
  duration_s : float;
  achieved_rate : float;  (** acked operations per second *)
  latency : Repro_obs.Hdr.snapshot;  (** completion − intended arrival *)
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

val run_point : config:config -> rate:float -> unit -> point
(** One offered rate: build a service, drive it open-loop from
    [generators] domains, stop it, and account for every operation.
    @raise Invalid_argument on nonsensical knobs. *)

val sweep : config:config -> rates:float list -> unit -> point list

val knee : point list -> float option
(** Highest offered rate that did not saturate; [None] if all did. *)

val to_json : config -> points:point list -> Repro_obs.Json.t
(** The [dsu-service/v1] document. *)

val pp_point : Format.formatter -> point -> unit
val pp_table : Format.formatter -> point list -> unit
