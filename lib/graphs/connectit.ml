module Clock = Repro_obs.Clock

(* ------------------------------------------------------------------ *)
(* ConnectIt-style parallel connectivity (Dhulipala–Hong–Shun): a cheap
   sampling phase collapses most of a giant-component graph into one
   class, a snapshot labeling identifies that class, and the finish
   phase skips every intra-giant edge with two array reads.  Two entry
   points share the machinery:

   - [components]: the original materialized-graph API, now
     plan-dispatched ({!Dsu.Driver}), its phases on one {!Team};
   - [run_stream]: the out-of-core pipeline over an {!Edge_stream} —
     sampling x finish x plan on the racy engine, or the
     schedule-independent {!Det_bulk} engine. *)

(* Every vertex's current root, written into the shared [labels] by
   member [k] of a [total]-member team for its own vertex range: the
   ranges are disjoint, so no two members touch the same slot. *)
let label_range d labels k total =
  let n = Array.length labels in
  for v = n * k / total to (n * (k + 1) / total) - 1 do
    labels.(v) <- Dsu.Driver.find d v
  done

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
  let adj, k_out =
    match strategy with
    | Direct -> ([||], 0)
    | Sampled k_out -> (Graph.adjacency g, k_out)
  in
  (* The giant snapshot, then the final roots. *)
  let labels = Array.make n 0 in
  let giant = ref (-1) in
  let skipped = Atomic.make 0 in
  (* One team: sample | snapshot | giant | finish | labels, each phase
     parallel over vertex or edge ranges and ended by a barrier. *)
  Team.phased ~domains (fun k total sync ->
      if strategy <> Direct then begin
        (* Phase 1: k-out sampling over the adjacency lists. *)
        for v = n * k / total to (n * (k + 1) / total) - 1 do
          let neighbours = adj.(v) in
          for j = 0 to min k_out (Array.length neighbours) - 1 do
            Dsu.Driver.unite d v neighbours.(j)
          done
        done;
        (* Phase 2: snapshot labels and find the giant class. *)
        sync ();
        label_range d labels k total;
        sync ();
        if k = 0 then giant := giant_of labels;
        sync ()
      end;
      (* Phase 3: finish — two array reads decide most edges.  With no
         sampling the giant is -1, which no label equals. *)
      let g = !giant in
      let my_skipped = ref 0 in
      for i = m * k / total to (m * (k + 1) / total) - 1 do
        let u, v = edges.(i) in
        if labels.(u) = g && labels.(v) = g then incr my_skipped
        else Dsu.Driver.unite d u v
      done;
      ignore (Atomic.fetch_and_add skipped !my_skipped);
      sync ();
      label_range d labels k total);
  let sample_unites =
    Array.fold_left (fun acc row -> acc + min k_out (Array.length row)) 0 adj
  in
  let dsu_work = Dsu.Stats.total_work (Dsu.Driver.stats d) in
  ( normalize_min_id labels,
    {
      edges_total = m;
      edges_skipped = Atomic.get skipped;
      sample_unites;
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

(* k-out's budget is one byte per vertex, hence the 255 ceiling. *)
let sampling_valid = function
  | No_sampling -> true
  | K_out k -> k >= 1 && k <= 255
  | Bfs_hubs h -> h >= 1

let sampling_of_string s =
  let parsed =
    match String.split_on_char ':' s with
    | [ "none" ] -> Some No_sampling
    | [ "k-out"; k ] -> int_of_string_opt k |> Option.map (fun k -> K_out k)
    | [ "k-out" ] -> Some (K_out 2)
    | [ "bfs-hubs"; h ] ->
      int_of_string_opt h |> Option.map (fun h -> Bfs_hubs h)
    | [ "bfs-hubs" ] -> Some (Bfs_hubs 64)
    | _ -> None
  in
  Option.bind parsed (fun v -> if sampling_valid v then Some v else None)

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

(* The racy pass is one {!Team}: its domains are spawned once, and a
   barrier separates the phases

     sampling | snapshot | giant | finish | labels

   (bfs-hubs adds a barrier-fenced hub-marking step between its two
   window passes).  Each member allocates one chunk buffer and keeps it
   for the whole pass.  Chunks are handed out by an atomic cursor per
   pass, so a slow domain simply takes fewer.  A pass first runs on the
   chunk still in the member's buffer, and its cursor skips every chunk
   some member holds: each chunk is processed exactly once per pass, and
   the window chunks resident at the end of sampling are finished from
   memory.  With [h] members holding a sampled chunk ([h = min domains
   window] unless some member got none), k-out generates
   [chunks + window - h] chunks per pass.  The snapshot and the final
   labels share one [n]-array, each member writing its vertex range. *)
let run_stream ?(domains = 4) ?(seed = 1) ?(plan = Dsu.Plan.default)
    ?(sampling = K_out 2) ?(finish = Bulk) ?(mode = Racy) ?(block_chunks = 8)
    stream =
  if not (sampling_valid sampling) then
    invalid_arg
      (Printf.sprintf "Connectit.run_stream: invalid sampling %s"
         (sampling_to_string sampling));
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
    let window = sample_window stream in
    let sample_unites = Atomic.make 0 and skipped = Atomic.make 0 in
    (* The sampling passes over the window, in order, and the work
       member 0 does between two passes, fenced by a barrier on each
       side. *)
    let sample_passes, between_passes =
      match sampling with
      | No_sampling -> ([], ignore)
      | K_out k ->
        (* Per-vertex out-degree budget.  The unsynchronized byte
           counters can race a few extra unites in — harmless for the
           racy engine, and far cheaper than n atomic cells. *)
        let budget = Bytes.make n '\000' in
        let sample (buf : Edge_stream.chunk) =
          let mine = ref 0 in
          for e = 0 to buf.len - 1 do
            let u = buf.src.(e) and v = buf.dst.(e) in
            let b = Char.code (Bytes.unsafe_get budget u) in
            if b < k then begin
              Bytes.unsafe_set budget u (Char.unsafe_chr (b + 1));
              Dsu.Driver.unite d u v;
              incr mine
            end
          done;
          ignore (Atomic.fetch_and_add sample_unites !mine)
        in
        ([ sample ], ignore)
      | Bfs_hubs hubs ->
        (* Pass 1: racy degree histogram (lost updates only blur hub
           selection, never correctness).  Pass 2: unite every window
           edge incident to a hub — the streamed analogue of BFS
           outward from high-degree roots. *)
        let degree = Array.make n 0 and hub = Bytes.make n '\000' in
        let count_degrees (buf : Edge_stream.chunk) =
          for e = 0 to buf.len - 1 do
            let u = buf.src.(e) in
            degree.(u) <- degree.(u) + 1
          done
        in
        let mark_hubs () =
          let order = Array.init n (fun i -> i) in
          Array.sort (fun a b -> compare degree.(b) degree.(a)) order;
          for i = 0 to min hubs n - 1 do
            Bytes.set hub order.(i) '\001'
          done
        in
        let unite_hub_edges (buf : Edge_stream.chunk) =
          let mine = ref 0 in
          for e = 0 to buf.len - 1 do
            let u = buf.src.(e) and v = buf.dst.(e) in
            if Bytes.unsafe_get hub u = '\001' || Bytes.unsafe_get hub v = '\001'
            then begin
              Dsu.Driver.unite d u v;
              incr mine
            end
          done;
          ignore (Atomic.fetch_and_add sample_unites !mine)
        in
        ([ count_degrees; unite_hub_edges ], mark_hubs)
    in
    (* The giant snapshot, then the final roots. *)
    let labels = Array.make n 0 in
    let giant = ref (-1) in
    (* [held.(k)]: the chunk member [k]'s buffer held when the current
       pass began, or -1.  A member writes its own slot only in a phase
       in which no pass runs, so every skip test of a pass reads the
       values from its start. *)
    let held = Array.make (max 1 domains) (-1) in
    let is_held idx = Array.exists (Int.equal idx) held in
    let cursors =
      Array.init (List.length sample_passes + 1) (fun _ -> Atomic.make 0)
    in
    let t_sampled = ref t_start and t_finished = ref t_start in
    Team.phased ~domains (fun k total sync ->
        let buf = Edge_stream.make_chunk stream in
        let mine = ref (-1) in
        (* Chunks [0, limit) from [cursor], after the chunk still in
           [buf]: each chunk some member already holds is done by that
           member from memory instead of being generated again. *)
        let pass cursor ~limit f =
          if !mine >= 0 then f buf;
          let rec loop () =
            let idx = Atomic.fetch_and_add cursor 1 in
            if idx < limit then begin
              if not (is_held idx) then begin
                Edge_stream.fill stream idx buf;
                mine := idx;
                f buf
              end;
              loop ()
            end
          in
          loop ()
        in
        List.iteri
          (fun i f ->
            if i > 0 then begin
              sync ();
              held.(k) <- !mine;
              if k = 0 then between_passes ();
              sync ()
            end;
            pass cursors.(i) ~limit:window f)
          sample_passes;
        if sampling <> No_sampling then begin
          sync ();
          held.(k) <- !mine;
          label_range d labels k total;
          sync ();
          if k = 0 then begin
            giant := giant_of labels;
            t_sampled := Clock.now_ns ()
          end;
          sync ()
        end;
        (* Finish over the whole stream.  With no sampling the giant is
           -1, which no label equals. *)
        let g = !giant in
        let my_skipped = ref 0 in
        let finish_chunk (buf : Edge_stream.chunk) =
          let src = buf.src and dst = buf.dst in
          match finish with
          | Per_op ->
            for e = 0 to buf.len - 1 do
              let u = src.(e) and v = dst.(e) in
              if labels.(u) = g && labels.(v) = g then incr my_skipped
              else Dsu.Driver.unite d u v
            done
          | Bulk when g < 0 -> Dsu.Driver.unite_batch ~len:buf.len d src dst
          | Bulk ->
            (* Compact the survivors in place, then one bulk-kernel call
               per chunk (root cache + prefetch amortized over it). *)
            let live = ref 0 in
            for e = 0 to buf.len - 1 do
              let u = src.(e) and v = dst.(e) in
              if labels.(u) = g && labels.(v) = g then incr my_skipped
              else begin
                src.(!live) <- u;
                dst.(!live) <- v;
                incr live
              end
            done;
            Dsu.Driver.unite_batch ~len:!live d src dst
        in
        pass cursors.(List.length sample_passes) ~limit:chunks finish_chunk;
        ignore (Atomic.fetch_and_add skipped !my_skipped);
        sync ();
        if k = 0 then t_finished := Clock.now_ns ();
        label_range d labels k total);
    let labels = normalize_min_id labels in
    let t_end = Clock.now_ns () in
    {
      labels;
      components = count_components labels;
      edges_total = m;
      edges_skipped = Atomic.get skipped;
      sample_unites = Atomic.get sample_unites;
      det_rounds = 0;
      sample_ns = !t_sampled - t_start;
      finish_ns = !t_finished - !t_sampled;
      label_ns = t_end - !t_finished;
      total_ns = t_end - t_start;
    }
