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
     sampling x plan on the racy engine, or the schedule-independent
     {!Det_bulk} engine. *)

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

type sampling = No_sampling | K_out of int
type mode = Racy | Deterministic

let sampling_to_string = function
  | No_sampling -> "none"
  | K_out k -> Printf.sprintf "k-out:%d" k

(* k-out's budget is one byte per vertex, hence the 255 ceiling. *)
let sampling_valid = function
  | No_sampling -> true
  | K_out k -> k >= 1 && k <= 255

let sampling_of_string s =
  let parsed =
    match String.split_on_char ':' s with
    | [ "none" ] -> Some No_sampling
    | [ "k-out"; k ] -> int_of_string_opt k |> Option.map (fun k -> K_out k)
    | [ "k-out" ] -> Some (K_out 2)
    | _ -> None
  in
  Option.bind parsed (fun v -> if sampling_valid v then Some v else None)

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
  gen_ns : int;
}

let count_components labels =
  let c = ref 0 in
  Array.iteri (fun v l -> if l = v then incr c) labels;
  !c

(* The racy pass is one {!Team}: its domains are spawned once, and a
   barrier separates the phases

     sample | snapshot | giant | finish | labels

   (with no sampling, only the last two run).  Each member allocates
   one chunk buffer and keeps it for the whole pass.  Chunks are handed
   out by an atomic cursor per pass, so a slow domain simply takes
   fewer.  The finish first runs on the chunk still in the member's
   buffer, and its cursor skips every chunk some member holds: each
   chunk is finished exactly once, and the window chunks resident at
   the end of sampling are finished from memory.  With [h] members
   holding a sampled chunk ([h = min domains window] unless some member
   got none), k-out generates [chunks + window - h] chunks.  The
   snapshot and the final labels share one [n]-array, each member
   writing its vertex range. *)
let run_stream ?(domains = 4) ?(seed = 1) ?(plan = Dsu.Plan.default)
    ?(sampling = K_out 2) ?(mode = Racy) ?(block_chunks = 8) stream =
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
    (* The deterministic engine samples on its own terms: its first
       block is the stream's sample window, and each later block drops
       at load the edges the earlier blocks settled.  The [sampling]
       strategies (k-out's budget is a racy byte array) and the plan
       would reintroduce schedule dependence, so they are not used. *)
    let labels, (report : Det_bulk.report) =
      Det_bulk.run ~domains ~block_chunks stream
    in
    let t_end = Clock.now_ns () in
    {
      labels;
      components = report.Det_bulk.components;
      edges_total = m;
      edges_skipped = report.Det_bulk.skipped;
      sample_unites = 0;
      det_rounds = report.Det_bulk.rounds;
      sample_ns = 0;
      finish_ns = t_end - t_start;
      label_ns = 0;
      total_ns = t_end - t_start;
      gen_ns = report.Det_bulk.gen_ns;
    }
  | Racy ->
    let d = Dsu.Driver.create ~plan ~seed n in
    let window = Edge_stream.sample_window stream in
    let sample_unites = Atomic.make 0 and skipped = Atomic.make 0 in
    let gen_ns = Atomic.make 0 in
    (* The sample pass over the window, if any. *)
    let sample =
      match sampling with
      | No_sampling -> None
      | K_out k ->
        (* Per-vertex out-degree budget.  The unsynchronized byte
           counters can race a few extra unites in — harmless for the
           racy engine, and far cheaper than n atomic cells. *)
        let budget = Bytes.make n '\000' in
        Some
          (fun (buf : Edge_stream.chunk) ->
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
            ignore (Atomic.fetch_and_add sample_unites !mine))
    in
    (* The giant snapshot, then the final roots. *)
    let labels = Array.make n 0 in
    let giant = ref (-1) in
    (* [held.(k)]: the chunk member [k]'s buffer held when the finish
       began, or -1.  A member writes its own slot only between the
       sample pass and the finish, so every skip test of the finish
       reads the values from its start. *)
    let held = Array.make (max 1 domains) (-1) in
    let is_held idx = Array.exists (Int.equal idx) held in
    let sample_cursor = Atomic.make 0 and finish_cursor = Atomic.make 0 in
    let t_sampled = ref t_start and t_finished = ref t_start in
    (* Chunk buffers are allocated here, on the calling domain, as in
       [Det_bulk.run]: the same allocation on a freshly spawned domain
       costs several times as much. *)
    let bufs =
      Array.init (max 1 domains) (fun _ -> Edge_stream.make_chunk stream)
    in
    Team.phased ~domains (fun k total sync ->
        let buf = bufs.(k) in
        let mine = ref (-1) and my_gen_ns = ref 0 in
        (* Chunks [0, limit) from [cursor], after the chunk still in
           [buf]: each chunk some member already holds is done by that
           member from memory instead of being generated again. *)
        let pass cursor ~limit f =
          if !mine >= 0 then f buf;
          let rec loop () =
            let idx = Atomic.fetch_and_add cursor 1 in
            if idx < limit then begin
              if not (is_held idx) then begin
                let t0 = Clock.now_ns () in
                Edge_stream.fill stream idx buf;
                my_gen_ns := !my_gen_ns + (Clock.now_ns () - t0);
                mine := idx;
                f buf
              end;
              loop ()
            end
          in
          loop ()
        in
        (match sample with
        | None -> ()
        | Some f ->
          pass sample_cursor ~limit:window f;
          sync ();
          held.(k) <- !mine;
          label_range d labels k total;
          sync ();
          if k = 0 then begin
            giant := giant_of labels;
            t_sampled := Clock.now_ns ()
          end;
          sync ());
        (* Finish over the whole stream.  With no sampling there is no
           giant (-1), so whole chunks go to the bulk kernel. *)
        let g = !giant in
        let my_skipped = ref 0 in
        let finish_chunk (buf : Edge_stream.chunk) =
          let src = buf.src and dst = buf.dst in
          if g < 0 then Dsu.Driver.unite_batch ~len:buf.len d src dst
          else begin
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
          end
        in
        pass finish_cursor ~limit:chunks finish_chunk;
        ignore (Atomic.fetch_and_add skipped !my_skipped);
        ignore (Atomic.fetch_and_add gen_ns !my_gen_ns);
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
      gen_ns = Atomic.get gen_ns;
    }
