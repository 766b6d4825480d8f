module Clock = Repro_obs.Clock

(* ------------------------------------------------------------------ *)
(* ConnectIt-style parallel connectivity (Dhulipala–Hong–Shun): a cheap
   sampling phase collapses most of a giant-component graph into one
   class, a snapshot labeling identifies that class, and the finish
   phase skips every intra-giant edge with two array reads.  Two entry
   points share the machinery:

   - [components]: the original materialized-graph API, now
     plan-dispatched ({!Dsu.Driver}) with parallel label passes;
   - [run_stream]: the out-of-core pipeline over an {!Edge_stream} —
     sampling x finish x plan on the racy engine, or the
     schedule-independent {!Det_bulk} engine. *)

let in_domains ~domains f =
  if domains <= 1 then f 0 1
  else begin
    let handles =
      List.init domains (fun k -> Domain.spawn (fun () -> f k domains))
    in
    let failure = ref None in
    List.iter
      (fun h ->
        match Domain.join h with
        | () -> ()
        | exception e -> if !failure = None then failure := Some e)
      handles;
    match !failure with Some e -> raise e | None -> ()
  end

(* Parallel label snapshot: each domain batch-finds its vertex range
   through the bulk kernel (root cache + prefetch) and blits into the
   shared array.  Writes are range-partitioned, so no two domains touch
   the same slot. *)
let parallel_labels ~domains (driver : Dsu.Driver.t) =
  let n = Dsu.Driver.n driver in
  let labels = Array.make n 0 in
  in_domains ~domains (fun k total ->
      let lo = n * k / total and hi = n * (k + 1) / total in
      if hi > lo then begin
        let xs = Array.init (hi - lo) (fun i -> lo + i) in
        let roots = Dsu.Driver.find_batch driver xs in
        Array.blit roots 0 labels lo (hi - lo)
      end);
  labels

(* [Components.normalize] with flat arrays instead of a Hashtbl: root
   labels are vertex ids, so a second [n]-word array suffices — at
   2^20+ vertices the Hashtbl would dominate the label pass. *)
let normalize_min_id labels =
  let n = Array.length labels in
  let smallest = Array.make n (-1) in
  for v = n - 1 downto 0 do
    smallest.(labels.(v)) <- v
  done;
  Array.map (fun l -> smallest.(l)) labels

(* The giant class of a label snapshot: the label with the highest
   multiplicity (all labels are vertex ids, so a flat counts array
   works), or -1 for an empty universe. *)
let giant_of snapshot =
  let counts = Array.make (Array.length snapshot) 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) snapshot;
  let giant = ref (-1) and best = ref 0 in
  Array.iteri
    (fun l c ->
      if c > !best then begin
        giant := l;
        best := c
      end)
    counts;
  !giant

(* ------------------------------------------------------------------ *)
(* Materialized-graph API (the original signature, kept as a default). *)

type strategy = Direct | Sampled of int

type stats = {
  edges_total : int;
  edges_skipped : int;
  sample_unites : int;
  dsu_work : int;
}

let components ?(domains = 4) ?(seed = 1) ?(strategy = Sampled 2)
    ?(plan = Dsu.Plan.default) ?(collect_stats = true) g =
  let n = Graph.n g in
  let edges = Graph.edges g in
  let m = Array.length edges in
  let d = Dsu.Driver.create ~plan ~seed ~collect_stats n in
  let sample_unites = ref 0 in
  let skipped = Atomic.make 0 in
  (match strategy with
  | Direct ->
    in_domains ~domains (fun k total ->
        for i = m * k / total to (m * (k + 1) / total) - 1 do
          let u, v = edges.(i) in
          Dsu.Driver.unite d u v
        done)
  | Sampled k_out ->
    (* Phase 1: k-out sampling over the adjacency lists (parallel over
       vertex ranges). *)
    let adj = Graph.adjacency g in
    in_domains ~domains (fun k total ->
        for v = n * k / total to (n * (k + 1) / total) - 1 do
          let neighbours = adj.(v) in
          for j = 0 to min k_out (Array.length neighbours) - 1 do
            Dsu.Driver.unite d v neighbours.(j)
          done
        done);
    sample_unites :=
      Array.fold_left (fun acc row -> acc + min k_out (Array.length row)) 0 adj;
    (* Phase 2: snapshot labels and find the giant class. *)
    let labels = parallel_labels ~domains d in
    let giant = giant_of labels in
    (* Phase 3: finish — two array reads decide most edges. *)
    in_domains ~domains (fun k total ->
        let my_skipped = ref 0 in
        for i = m * k / total to (m * (k + 1) / total) - 1 do
          let u, v = edges.(i) in
          if labels.(u) = giant && labels.(v) = giant then incr my_skipped
          else Dsu.Driver.unite d u v
        done;
        ignore (Atomic.fetch_and_add skipped !my_skipped)));
  let labels = normalize_min_id (parallel_labels ~domains d) in
  let dsu_work = Dsu.Stats.total_work (Dsu.Driver.stats d) in
  ( labels,
    {
      edges_total = m;
      edges_skipped = Atomic.get skipped;
      sample_unites = !sample_unites;
      dsu_work;
    } )

(* ------------------------------------------------------------------ *)
(* Streamed pipeline. *)

type sampling = No_sampling | K_out of int | Bfs_hubs of int
type finish = Per_op | Bulk
type mode = Racy | Deterministic

let sampling_to_string = function
  | No_sampling -> "none"
  | K_out k -> Printf.sprintf "k-out:%d" k
  | Bfs_hubs h -> Printf.sprintf "bfs-hubs:%d" h

let sampling_of_string s =
  match String.split_on_char ':' s with
  | [ "none" ] -> Some No_sampling
  | [ "k-out"; k ] -> int_of_string_opt k |> Option.map (fun k -> K_out k)
  | [ "k-out" ] -> Some (K_out 2)
  | [ "bfs-hubs"; h ] ->
    int_of_string_opt h |> Option.map (fun h -> Bfs_hubs h)
  | [ "bfs-hubs" ] -> Some (Bfs_hubs 64)
  | _ -> None

let finish_to_string = function Per_op -> "per-op" | Bulk -> "bulk"

let finish_of_string = function
  | "per-op" -> Some Per_op
  | "bulk" -> Some Bulk
  | _ -> None

let mode_to_string = function Racy -> "racy" | Deterministic -> "det"

let mode_of_string = function
  | "racy" -> Some Racy
  | "det" | "deterministic" -> Some Deterministic
  | _ -> None

type stream_report = {
  labels : int array;
  components : int;
  edges_total : int;
  edges_skipped : int;
  sample_unites : int;
  det_rounds : int;
  sample_ns : int;
  finish_ns : int;
  label_ns : int;
  total_ns : int;
}

let count_components labels =
  let c = ref 0 in
  Array.iteri (fun v l -> if l = v then incr c) labels;
  !c

(* How much of the stream the sampling phase reads: enough chunks to see
   ~2 edges per vertex on average, capped at the whole stream.  A pure
   function of the stream geometry, so sampling work is reproducible. *)
let sample_window stream =
  let n = Edge_stream.n stream in
  let per_chunk = Edge_stream.chunk_size stream in
  let want = (2 * n + per_chunk - 1) / per_chunk in
  min (Edge_stream.chunk_count stream) (max 1 want)

(* Round-robin chunk hand-out: domains race on an atomic cursor, so a
   slow domain (NUMA, preemption) simply takes fewer chunks. *)
let drain_chunks ~domains stream ~window ~f =
  let next = Atomic.make 0 in
  in_domains ~domains (fun _ _ ->
      let buf = Edge_stream.make_chunk stream in
      let rec loop () =
        let idx = Atomic.fetch_and_add next 1 in
        if idx < window then begin
          Edge_stream.fill stream idx buf;
          f buf;
          loop ()
        end
      in
      loop ())

let run_stream ?(domains = 4) ?(seed = 1) ?(plan = Dsu.Plan.default)
    ?(sampling = K_out 2) ?(finish = Bulk) ?(mode = Racy) ?(block_chunks = 8)
    stream =
  let n = Edge_stream.n stream in
  let m = Edge_stream.total_edges stream in
  let chunks = Edge_stream.chunk_count stream in
  let t_start = Clock.now_ns () in
  match mode with
  | Deterministic ->
    (* The deterministic engine processes every edge through min-id
       rounds: sampling and plan choice would reintroduce schedule
       dependence, so they are ignored by design. *)
    let labels, (report : Det_bulk.report) =
      Det_bulk.run ~domains ~block_chunks stream
    in
    let t_end = Clock.now_ns () in
    {
      labels;
      components = report.Det_bulk.components;
      edges_total = m;
      edges_skipped = 0;
      sample_unites = 0;
      det_rounds = report.Det_bulk.rounds;
      sample_ns = 0;
      finish_ns = t_end - t_start;
      label_ns = 0;
      total_ns = t_end - t_start;
    }
  | Racy ->
    let d = Dsu.Driver.create ~plan ~seed n in
      let sample_unites = ref 0 in
    (* -------- Phase 1: sampling over a stream prefix. ------------- *)
    (match sampling with
    | No_sampling -> ()
    | K_out k ->
      let k = max 1 (min k 255) in
      (* Per-vertex out-degree budget.  The unsynchronized byte
         counters can race a few extra unites in — harmless for the
         racy engine, and far cheaper than n atomic cells. *)
      let budget = Bytes.make n '\000' in
      let counted = Atomic.make 0 in
      drain_chunks ~domains stream ~window:(sample_window stream)
        ~f:(fun buf ->
          let mine = ref 0 in
          for e = 0 to buf.Edge_stream.len - 1 do
            let u = buf.Edge_stream.src.(e)
            and v = buf.Edge_stream.dst.(e) in
            let b = Char.code (Bytes.unsafe_get budget u) in
            if b < k then begin
              Bytes.unsafe_set budget u (Char.unsafe_chr (b + 1));
              Dsu.Driver.unite d u v;
              incr mine
            end
          done;
          ignore (Atomic.fetch_and_add counted !mine));
      sample_unites := Atomic.get counted
    | Bfs_hubs hubs ->
      let hubs = max 1 hubs in
      let window = sample_window stream in
      (* Pass 1: racy degree histogram over the window (lost updates
         only blur hub selection, never correctness). *)
      let degree = Array.make n 0 in
      drain_chunks ~domains stream ~window ~f:(fun buf ->
          for e = 0 to buf.Edge_stream.len - 1 do
            let u = buf.Edge_stream.src.(e) in
            degree.(u) <- degree.(u) + 1
          done);
      let is_hub =
        let order = Array.init n (fun i -> i) in
        Array.sort (fun a b -> compare degree.(b) degree.(a)) order;
        let mark = Bytes.make n '\000' in
        for i = 0 to min hubs n - 1 do
          Bytes.set mark order.(i) '\001'
        done;
        fun v -> Bytes.unsafe_get mark v = '\001'
      in
      (* Pass 2: unite every window edge incident to a hub — the
         streamed analogue of BFS outward from high-degree roots. *)
      let counted = Atomic.make 0 in
      drain_chunks ~domains stream ~window ~f:(fun buf ->
          let mine = ref 0 in
          for e = 0 to buf.Edge_stream.len - 1 do
            let u = buf.Edge_stream.src.(e)
            and v = buf.Edge_stream.dst.(e) in
            if is_hub u || is_hub v then begin
              Dsu.Driver.unite d u v;
              incr mine
            end
          done;
          ignore (Atomic.fetch_and_add counted !mine));
      sample_unites := Atomic.get counted);
    (* -------- Phase 2: snapshot labels, find the giant class. ----- *)
    let skip_filter =
      if sampling = No_sampling then None
      else begin
        let snapshot = parallel_labels ~domains d in
        let giant = giant_of snapshot in
        if giant < 0 then None
        else Some (fun u v -> snapshot.(u) = giant && snapshot.(v) = giant)
      end
    in
    let t_sampled = Clock.now_ns () in
    (* -------- Phase 3: finish over the whole stream. -------------- *)
    let skipped = Atomic.make 0 in
    let cap = Edge_stream.chunk_size stream in
    let next = Atomic.make 0 in
    in_domains ~domains (fun _ _ ->
        let buf = Edge_stream.make_chunk stream in
        let xs = Array.make cap 0 and ys = Array.make cap 0 in
        let my_skipped = ref 0 in
        let rec loop () =
          let idx = Atomic.fetch_and_add next 1 in
          if idx < chunks then begin
            Edge_stream.fill stream idx buf;
            (match finish with
            | Per_op ->
              for e = 0 to buf.Edge_stream.len - 1 do
                let u = buf.Edge_stream.src.(e)
                and v = buf.Edge_stream.dst.(e) in
                match skip_filter with
                | Some skip when skip u v -> incr my_skipped
                | _ -> Dsu.Driver.unite d u v
              done
            | Bulk ->
              (match skip_filter with
              | None when buf.Edge_stream.len = cap ->
                (* Full chunk, nothing to skip: feed the chunk buffers
                   straight to the kernel, no compaction copy. *)
                Dsu.Driver.unite_batch d buf.Edge_stream.src
                  buf.Edge_stream.dst
              | _ ->
                (* Compact the survivors, then one bulk-kernel call per
                   chunk (root cache + prefetch amortized over the
                   block). *)
                let len = ref 0 in
                for e = 0 to buf.Edge_stream.len - 1 do
                  let u = buf.Edge_stream.src.(e)
                  and v = buf.Edge_stream.dst.(e) in
                  match skip_filter with
                  | Some skip when skip u v -> incr my_skipped
                  | _ ->
                    xs.(!len) <- u;
                    ys.(!len) <- v;
                    incr len
                done;
                if !len > 0 then
                  Dsu.Driver.unite_batch d (Array.sub xs 0 !len)
                    (Array.sub ys 0 !len)));
            loop ()
          end
        in
        loop ();
        ignore (Atomic.fetch_and_add skipped !my_skipped));
    let t_finished = Clock.now_ns () in
    (* -------- Phase 4: final labels (parallel batched finds). ----- *)
    let labels = normalize_min_id (parallel_labels ~domains d) in
    let t_end = Clock.now_ns () in
    {
      labels;
      components = count_components labels;
      edges_total = m;
      edges_skipped = Atomic.get skipped;
      sample_unites = !sample_unites;
      det_rounds = 0;
      sample_ns = t_sampled - t_start;
      finish_ns = t_finished - t_sampled;
      label_ns = t_end - t_finished;
      total_ns = t_end - t_start;
    }
