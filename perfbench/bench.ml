(* End-to-end benchmark of the connectivity system on three workloads:

   - serve:      closed-loop serving on a preloaded partition with the
                 mix of [dsu_workload serve] (40% unite, 10% find, 50%
                 same_set): admission, the ingestion queue, the drain
                 worker, the unite_batch/same_set_batch kernels and the
                 completion lane;
   - stream:     the streamed ConnectIt-style connectivity pipeline over
                 an R-MAT edge stream on 2 domains, with no service in
                 front of it: k-out sampling, the bulk unite kernel and
                 the parallel label pass;
   - stream_det: the same stream through the deterministic bulk engine
                 (propose / link / flatten rounds).

   Serving is a closed loop: one client session keeps [window] requests
   in flight (each of [window] simulated callers sends its next request
   only when its previous one was answered) against a service with one
   drain worker.  The window is four drain batches deep, so the worker
   always finds queued work and never falls into its idle sleep.  A run
   is a sequence of rounds; each round builds a fresh service (set-up:
   create + bulk preload through [submit]), serves [round_ops] requests,
   stops it and checks every answer against a sequential union-find that
   replays the requests in submission order — with one worker draining
   one FIFO queue, that order is the linearization order.  Throughput is
   a round's requests over its wall time, first submit to last answer;
   the figures are medians over rounds.

   Serving with the write-ahead log attached is left out: its ack path
   waits in sleep-poll loops whose wake-up latency drifts 15-40% from run
   to run on a small shared host (2 cores).

   The stream workloads time whole pipeline passes and check each pass's
   labels against the oracle's.  Their set-up is the process's first,
   cold pass (building the stream, the union-find and the domains' heaps
   for the first time), which is timed apart from the warm passes.

   Usage:
     bench.exe --workload serve|stream|stream_det --seed N --seconds S
               --trace 0|1

   The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer ones. *)

module Svc = Repro_service.Service
module Connectit = Graphs.Connectit
module Edge_stream = Graphs.Edge_stream

let now_ns = Repro_obs.Clock.now_ns
let ms ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------ oracle *)

(* Sequential union-find; linking by smaller index makes every root the
   minimum id of its set, which is the label normalization the stream
   pipeline reports. *)
module Oracle = struct
  let create n = Array.init n Fun.id

  let rec find p x =
    let q = p.(x) in
    if q = x then x
    else begin
      let g = p.(q) in
      p.(x) <- g;
      if g = q then q else find p g
    end

  (* true when the union merged two sets *)
  let union p x y =
    let a = find p x and b = find p y in
    if a = b then false
    else begin
      if a < b then p.(b) <- a else p.(a) <- b;
      true
    end
end

(* ------------------------------------------------------------- stats *)

let quantile values q =
  let s = Array.copy values in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.0
  else s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median values = quantile values 0.5
let quantile_i values q = quantile (Array.map float_of_int values) q

(* --------------------------------------------------------- serving *)

type serving = {
  n : int;  (** universe size *)
  preload : int;  (** unites applied during set-up *)
  round_ops : int;  (** measured requests per round *)
  unite_pct : int;
  find_pct : int;  (** the rest of the mix is same_set *)
}

(* The preload goes through [submit] with the queue kept full, which is
   how a bulk import reaches the service. *)
let queue_capacity = 1024
let batch = Svc.default_config.Svc.batch
let window = 4 * batch

(* The request mix is the default of Harness.Service (dsu_workload serve). *)
let serve_workload =
  { n = 1 lsl 16; preload = 1 lsl 16; round_ops = 1 lsl 17; unite_pct = 40; find_pct = 10 }

type drive = {
  answers : Svc.value option array;  (** [None]: not answered [Done] *)
  sent_ns : int array;
  latency_ns : int array;  (** submit until the client saw the answer *)
  server_ns : int array;  (** submit until the service completed it *)
  submit_ns : int;  (** time spent inside [submit] (traced runs only) *)
  failed : int;
  phantom : int;  (** responses to ids never admitted *)
}

exception Stalled

(* Closed loop over one session: keep [window] requests in flight. *)
let drive svc ~window ~trace ops =
  let len = Array.length ops in
  let answers = Array.make len None in
  let sent_ns = Array.make len 0 in
  let latency_ns = Array.make len 0 and server_ns = Array.make len 0 in
  let pending = Hashtbl.create (2 * window) in
  let next = ref 0 and inflight = ref 0 and settled = ref 0 in
  let failed = ref 0 and phantom = ref 0 and submit_ns = ref 0 in
  let give_up = now_ns () + 60_000_000_000 in
  while !settled < len do
    while !inflight < window && !next < len do
      let i = !next in
      incr next;
      let t0 = now_ns () in
      sent_ns.(i) <- t0;
      (match Svc.submit svc ~intended_ns:t0 ~session:0 ops.(i) with
      | Svc.Enqueued id ->
        Hashtbl.replace pending id i;
        incr inflight
      | Svc.Rejected _ ->
        incr failed;
        incr settled);
      if trace then submit_ns := !submit_ns + (now_ns () - t0)
    done;
    match Svc.poll svc ~session:0 with
    | [] ->
      if now_ns () > give_up then raise Stalled;
      Domain.cpu_relax ()
    | rs ->
      let t = now_ns () in
      List.iter
        (fun (r : Svc.response) ->
          match Hashtbl.find_opt pending r.Svc.r_id with
          | None -> incr phantom
          | Some i ->
            Hashtbl.remove pending r.Svc.r_id;
            decr inflight;
            incr settled;
            latency_ns.(i) <- t - sent_ns.(i);
            server_ns.(i) <- r.Svc.r_completed_ns - sent_ns.(i);
            (match r.Svc.r_outcome with
            | Svc.Done v -> answers.(i) <- Some v
            | Svc.Shed | Svc.Timed_out | Svc.Failed _ -> incr failed))
        rs
  done;
  {
    answers;
    sent_ns;
    latency_ns;
    server_ns;
    submit_ns = !submit_ns;
    failed = !failed;
    phantom = !phantom;
  }

let gen_ops rng (w : serving) count =
  let r n = Random.State.int rng n in
  Array.init count (fun _ ->
      let p = r 100 and x = r w.n in
      if p < w.unite_pct then Svc.Unite (x, r w.n)
      else if p < w.unite_pct + w.find_pct then Svc.Find x
      else Svc.Same_set (x, r w.n))

(* Replay [ops] in submission order on the oracle; returns the number of
   wrong answers and the number of unites that merged two sets. *)
let check_answers oracle ops answers =
  let wrong = ref 0 and merged = ref 0 in
  Array.iteri
    (fun i op ->
      match (op, answers.(i)) with
      | _, None -> ()
      | Svc.Unite (x, y), Some Svc.V_unit ->
        if Oracle.union oracle x y then incr merged
      | Svc.Same_set (x, y), Some (Svc.V_bool b) ->
        if b <> (Oracle.find oracle x = Oracle.find oracle y) then incr wrong
      | Svc.Find x, Some (Svc.V_int r) ->
        if
          r < 0
          || r >= Array.length oracle
          || Oracle.find oracle r <> Oracle.find oracle x
        then incr wrong
      | _, Some _ -> incr wrong)
    ops;
  (!wrong, !merged)

(* First submit to last answer seen by the client. *)
let wall_ns (d : drive) =
  let last = ref 0 in
  Array.iteri (fun i s -> last := max !last (s + d.latency_ns.(i))) d.sent_ns;
  !last - d.sent_ns.(0)

type round = {
  setup_ns : int;
  create_ns : int;
  ops : int;  (** requests sent, preload included *)
  failed : int;
  correct : bool;
  rate : float;  (** measured requests per second of wall time *)
  lat_p50_ns : float;
  (* per-layer *)
  lat_p90_ns : float;
  lat_p99_ns : float;
  submit_mean_ns : float;
  server_p50_ns : float;
  pickup_p50_ns : float;
  batch_ops : float;
  useful_unite_pct : float;
}

let serving_round (w : serving) ~seed ~round ~trace =
  let rng = Random.State.make [| seed; round; 0x5e71 |] in
  let preload =
    Array.init w.preload (fun _ ->
        Svc.Unite (Random.State.int rng w.n, Random.State.int rng w.n))
  in
  let ops = gen_ops rng w w.round_ops in
  let t0 = now_ns () in
  let svc =
    Svc.create
      {
        Svc.default_config with
        Svc.n = w.n;
        workers = 1;
        clients = 1;
        queue_capacity;
        admission = Svc.Reject;
        seed = seed + round;
        snapshot_dir = None;
      }
  in
  let t_created = now_ns () in
  let pre = drive svc ~window:queue_capacity ~trace:false preload in
  let t1 = now_ns () in
  let st_pre = Svc.stats svc in
  let d = drive svc ~window ~trace ops in
  let st = Svc.stats svc in
  Svc.stop svc;
  let oracle = Oracle.create w.n in
  let wrong_pre, merged_pre = check_answers oracle preload pre.answers in
  let wrong, merged = check_answers oracle ops d.answers in
  let failed = pre.failed + d.failed in
  let sent = w.preload + w.round_ops in
  let unites =
    Array.fold_left
      (fun acc op -> match op with Svc.Unite _ -> acc + 1 | _ -> acc)
      w.preload ops
  in
  let pickup = Array.mapi (fun i l -> l - d.server_ns.(i)) d.latency_ns in
  {
    setup_ns = t1 - t0;
    create_ns = t_created - t0;
    ops = sent;
    failed;
    correct =
      failed = 0 && pre.phantom = 0 && d.phantom = 0 && wrong_pre = 0
      && wrong = 0
      && st.Svc.s_acked = sent;
    rate = float_of_int w.round_ops *. 1e9 /. float_of_int (wall_ns d);
    lat_p50_ns = quantile_i d.latency_ns 0.50;
    lat_p90_ns = quantile_i d.latency_ns 0.90;
    lat_p99_ns = quantile_i d.latency_ns 0.99;
    submit_mean_ns = float_of_int d.submit_ns /. float_of_int w.round_ops;
    server_p50_ns = quantile_i d.server_ns 0.50;
    pickup_p50_ns = quantile_i pickup 0.50;
    batch_ops =
      float_of_int (st.Svc.s_acked - st_pre.Svc.s_acked)
      /. float_of_int (max 1 (st.Svc.s_batches - st_pre.Svc.s_batches));
    useful_unite_pct =
      100.0 *. float_of_int (merged_pre + merged) /. float_of_int (max 1 unites);
  }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float * string) list;
  per_layer : (string * float) list;
      (** the rest of {!per_layer_units} reads 0: not this workload's layer *)
}

let per_layer_units =
  [
    ("latency_p90_ms", "ms");
    ("latency_p99_ms", "ms");
    ("submit_ns", "ns");
    ("server_p50_us", "us");
    ("pickup_p50_us", "us");
    ("batch_ops", "count");
    ("useful_unite_pct", "%");
    ("setup_create_ms", "ms");
    ("setup_preload_ms", "ms");
    ("stream_sample_ms", "ms");
    ("stream_finish_ms", "ms");
    ("stream_label_ms", "ms");
    ("stream_skipped_pct", "%");
    ("det_rounds", "count");
  ]

let run_serving w ~seed ~seconds ~trace =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rounds = ref [] in
  let round = ref 0 in
  while !round = 0 || now_ns () < deadline do
    let r = serving_round w ~seed ~round:!round ~trace in
    Printf.eprintf
      "round %d: setup %.1f ms, %d ops at %.0f/s, p50 %.3f ms, p90 %.3f ms%s\n%!"
      !round (ms r.setup_ns) w.round_ops r.rate (r.lat_p50_ns /. 1e6)
      (r.lat_p90_ns /. 1e6)
      (if r.correct then "" else "  INCORRECT");
    rounds := r :: !rounds;
    incr round
  done;
  let rs = Array.of_list (List.rev !rounds) in
  let med f = median (Array.map f rs) in
  {
    correct = Array.for_all (fun (r : round) -> r.correct) rs;
    attempted = Array.fold_left (fun a (r : round) -> a + r.ops) 0 rs;
    failed = Array.fold_left (fun a (r : round) -> a + r.failed) 0 rs;
    end_to_end =
      [
        ("throughput", med (fun r -> r.rate), "1/s");
        ("latency_p50_ms", med (fun r -> r.lat_p50_ns /. 1e6), "ms");
        ("setup_s", med (fun r -> float_of_int r.setup_ns /. 1e9), "s");
      ];
    per_layer =
      [
        ("latency_p90_ms", med (fun r -> r.lat_p90_ns /. 1e6));
        ("latency_p99_ms", med (fun r -> r.lat_p99_ns /. 1e6));
        ("submit_ns", med (fun r -> r.submit_mean_ns));
        ("server_p50_us", med (fun r -> r.server_p50_ns /. 1e3));
        ("pickup_p50_us", med (fun r -> r.pickup_p50_ns /. 1e3));
        ("batch_ops", med (fun r -> r.batch_ops));
        ("useful_unite_pct", med (fun r -> r.useful_unite_pct));
        ("setup_create_ms", med (fun r -> ms r.create_ns));
        ("setup_preload_ms", med (fun r -> ms (r.setup_ns - r.create_ns)));
      ];
  }

(* ---------------------------------------------------------- stream *)

let stream_scale = 16
let stream_edge_factor = 8
let stream_domains = 2

let make_stream seed =
  Edge_stream.rmat ~seed ~scale:stream_scale ~edge_factor:stream_edge_factor ()

let oracle_labels stream =
  let o = Oracle.create (Edge_stream.n stream) in
  Edge_stream.iter stream (fun u v -> ignore (Oracle.union o u v));
  Array.init (Edge_stream.n stream) (Oracle.find o)

let run_stream ~mode ~seed ~seconds =
  let expected = oracle_labels (make_stream seed) in
  let pass stream =
    let t0 = now_ns () in
    let r = Connectit.run_stream ~domains:stream_domains ~mode stream in
    (now_ns () - t0, r)
  in
  let wrong = ref 0 in
  let check (r : Connectit.stream_report) =
    if r.Connectit.labels <> expected then incr wrong
  in
  (* Set-up: the cold pass, which a process pays once. *)
  let t0 = now_ns () in
  let stream = make_stream seed in
  let _, cold = pass stream in
  let setup_ns = now_ns () - t0 in
  check cold;
  let m = Edge_stream.total_edges stream in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let passes = ref [] in
  while !passes = [] || now_ns () < deadline do
    let dt, r = pass stream in
    Printf.eprintf "pass %.1f ms (sample %.1f finish %.1f label %.1f)\n%!" (ms dt)
      (ms r.Connectit.sample_ns) (ms r.Connectit.finish_ns) (ms r.Connectit.label_ns);
    check r;
    passes := (dt, r) :: !passes
  done;
  let ps = Array.of_list (List.rev !passes) in
  Printf.eprintf "stream: %s, %d passes\n%!" (Edge_stream.describe stream)
    (Array.length ps);
  let med f = median (Array.map f ps) in
  let pass_ms = Array.map (fun (dt, _) -> ms dt) ps in
  let runs = 1 + Array.length ps in
  {
    correct = !wrong = 0;
    attempted = runs * m;
    failed = !wrong * m;
    end_to_end =
      [
        ( "throughput",
          med (fun (dt, _) -> float_of_int m /. (float_of_int dt /. 1e9)),
          "1/s" );
        ("latency_p50_ms", median pass_ms, "ms");
        ("setup_s", float_of_int setup_ns /. 1e9, "s");
      ];
    per_layer =
      [
        ("latency_p90_ms", quantile pass_ms 0.9);
        ("latency_p99_ms", quantile pass_ms 0.99);
        ("stream_sample_ms", med (fun (_, r) -> ms r.Connectit.sample_ns));
        ("stream_finish_ms", med (fun (_, r) -> ms r.Connectit.finish_ns));
        ("stream_label_ms", med (fun (_, r) -> ms r.Connectit.label_ns));
        ( "stream_skipped_pct",
          med (fun (_, r) ->
              100.0 *. float_of_int r.Connectit.edges_skipped
              /. float_of_int (max 1 r.Connectit.edges_total)) );
        ("det_rounds", med (fun (_, r) -> float_of_int r.Connectit.det_rounds));
      ];
  }

(* ------------------------------------------------------------- main *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result (r : result) ~trace =
  let metrics =
    if trace then
      List.map
        (fun (name, unit) ->
          (name, Option.value (List.assoc_opt name r.per_layer) ~default:0.0, unit))
        per_layer_units
    else r.end_to_end
  in
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " serve | stream | stream_det");
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench: --seed, --seconds and --trace are required";
    exit 2
  end;
  let trace = !trace = 1 in
  let result =
    match !workload with
    | "serve" -> run_serving serve_workload ~seed:!seed ~seconds:!seconds ~trace
    | "stream" -> run_stream ~mode:Connectit.Racy ~seed:!seed ~seconds:!seconds
    | "stream_det" ->
      run_stream ~mode:Connectit.Deterministic ~seed:!seed ~seconds:!seconds
    | w ->
      Printf.eprintf "bench: unknown workload %S\n" w;
      exit 2
  in
  print_result result ~trace
