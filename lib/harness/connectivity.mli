(** Streaming-connectivity benchmark family ([dsu-connectivity/v1]):
    edges/sec for the ConnectIt-style pipeline over streamed generators
    — sampling × mode × domains — against the Borůvka and
    Anderson–Woll baselines, plus a Pătrașcu–Thorup adversarial
    incremental-connectivity point.  Surfaced by [dsu_workload
    connectivity]; diffed by {!Perfdiff} through the document's
    [metrics]. *)

type gen = Rmat | Er | Power_law

val all_gens : gen list
val gen_to_string : gen -> string
val gen_of_string : string -> gen option

type config = {
  scale : int;  (** 2^scale vertices *)
  edge_factor : int;  (** edges = edge_factor * 2^scale *)
  chunk_size : int;
  seed : int;
  simple : bool;  (** self-loop rejection in the generators *)
  domains_list : int list;
  gens : gen list;
  samplings : Graphs.Connectit.sampling list;
  modes : Graphs.Connectit.mode list;
  plan : Dsu.Plan.t;
  block_chunks : int;  (** deterministic engine block size *)
  baselines : bool;
  adversarial_n : int;  (** 0 disables the PT point *)
}

val default_config : config
(** scale 16, edge factor 8, chunk 2^14, domains [1; 4], rmat + er,
    no-sampling + k-out:2, racy mode, default plan. *)

val make_stream : config -> gen -> Graphs.Edge_stream.t

type point = {
  gen : string;
  n : int;
  m : int;
  domains : int;
  sampling : string;
  mode : string;
  plan : string;
  seconds : float;
  edges_per_sec : float;  (** whole pipeline (sample + finish + label) *)
  finish_edges_per_sec : float;  (** finish phase only, over all m edges *)
  sample_ns : int;
  finish_ns : int;
  label_ns : int;
  gen_ns : int;
      (** edge generation, summed over the domains (overlaps the phases;
          {!Graphs.Connectit.stream_report} [gen_ns]) *)
  skipped_ratio : float;
  components : int;
  det_rounds : int;
}

val run_point :
  config:config ->
  gen:gen ->
  domains:int ->
  sampling:Graphs.Connectit.sampling ->
  mode:Graphs.Connectit.mode ->
  point

val sweep : ?config:config -> ?progress:(point -> unit) -> unit -> point list

type baseline_point = {
  b_name : string;
  b_gen : string;
  b_domains : int;
  b_m : int;
  b_seconds : float;
  b_edges_per_sec : float;
}

val run_baselines : ?config:config -> unit -> baseline_point list
(** Anderson–Woll per-op unites over the same streamed chunks, and (for
    streams small enough to materialize) a parallel Borůvka MSF pass. *)

type adversarial_point = {
  a_n : int;
  a_ops : int;
  a_unions : int;
  a_queries : int;
  a_domains : int;
  a_seconds : float;
  a_ops_per_sec : float;
}

val run_adversarial :
  ?config:config -> domains:int -> unit -> adversarial_point
(** {!Workload.Adversarial.pt_incremental} through the plan's backend:
    binomial merge phases interleaved with cross-component queries. *)

val point_to_json : point -> Repro_obs.Json.t

val to_json :
  ?config:config ->
  ?baselines:baseline_point list ->
  ?adversarial:adversarial_point ->
  point list ->
  Repro_obs.Json.t
(** The [dsu-connectivity/v1] document. *)

val pp_table : Format.formatter -> point list -> unit
val pp_baselines : Format.formatter -> baseline_point list -> unit

val check_components : point list -> (unit, string) result
(** Every point of one gen ran the same stream, so all of them — racy
    or det, at any domain count and sampling — must report the same
    [components].  [Error] names each disagreeing gen with every one of
    its points and their counts. *)
