module Rng = Repro_util.Rng

(* Self-loop rejection for the [~simple] modes: resample the second
   endpoint until it differs from the first.  A bounded retry count keeps
   the generators total even under adversarial rng states; the fallback
   rotation is hit with probability ~[n^-64]. *)
let max_resample = 64

let other_endpoint rng ~n u =
  let rec loop tries =
    let v = Rng.int rng n in
    if v <> u then v
    else if tries >= max_resample then (u + 1) mod n
    else loop (tries + 1)
  in
  loop 0

let require_two op ~simple ~n =
  if simple && n < 2 then
    invalid_arg (Printf.sprintf "Generators.%s: ~simple needs n >= 2" op)

let erdos_renyi ?(simple = false) ~rng ~n ~m () =
  require_two "erdos_renyi" ~simple ~n;
  let edges =
    if not simple then Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n))
    else begin
      (* Simple mode also drops duplicate undirected edges: resample the
         pair until unseen.  Feasible here because the edge list is
         materialized anyway (the streamed twin, {!Edge_stream}, only
         rejects self-loops — cross-chunk dedup would need global
         state).  Give up on dedup when the graph is denser than the
         simple graph can be. *)
      let max_pairs = n * (n - 1) / 2 in
      if m > max_pairs then
        invalid_arg
          (Printf.sprintf
             "Generators.erdos_renyi: ~simple cannot place %d distinct edges \
              on %d vertices (max %d)"
             m n max_pairs);
      let seen = Hashtbl.create (2 * m) in
      Array.init m (fun _ ->
          let rec draw () =
            let u = Rng.int rng n in
            let v = other_endpoint rng ~n u in
            let key = if u < v then (u, v) else (v, u) in
            if Hashtbl.mem seen key then draw ()
            else begin
              Hashtbl.add seen key ();
              (u, v)
            end
          in
          draw ())
    end
  in
  Graph.create ~n ~edges

let random_tree ~rng ~n =
  let relabel = Rng.permutation rng n in
  let edges =
    Array.init (n - 1) (fun i ->
        let child = i + 1 in
        (relabel.(child), relabel.(Rng.int rng child)))
  in
  Graph.create ~n ~edges

let grid2d ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid2d: empty grid";
  let vertex r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then acc := (vertex r c, vertex r (c + 1)) :: !acc;
      if r + 1 < rows then acc := (vertex r c, vertex (r + 1) c) :: !acc
    done
  done;
  Graph.create ~n:(rows * cols) ~edges:(Array.of_list !acc)

(* Integer form of [Rng.float rng < x]: [Rng.float] is [bits53 * 2^-53]
   exactly, so for the integer [bits53] the test holds iff
   [bits53 < ceil (x * 2^53)].  Clamped so that NaN and out-of-range
   probabilities compare exactly as the float test would. *)
let threshold53 x =
  if not (x > 0.) then 0
  else if x >= 1. then 1 lsl 53
  else int_of_float (Float.ceil (Float.ldexp x 53))

(* Edges per call of the C kernel.  A domain inside it does not answer a
   minor-GC request, so a call is kept to about 0.11 ms at scale 16. *)
let kernel_span = 2048

(* R-MAT edges [0, len) into [src]/[dst]: per edge, recurse [scale] times
   into the quadrant the (a, b, c, d) mix selects, accumulating one bit of
   each endpoint per level.  The quadrant is the first of
   [r < a], [r < a + b], [r < a + b + c], otherwise d, on one draw [r],
   which {!Rng.rmat_edges} evaluates as integer compares against the
   thresholds.  It stops at each [~simple] self-loop, whose second
   endpoint is redrawn here before the kernel resumes. *)
let rmat_fill rng ~scale ~a ~b ~c ~simple ~src ~dst len =
  if len < 0 || len > Array.length src || len > Array.length dst then
    invalid_arg "Generators.rmat_fill: len exceeds a destination buffer";
  let ta = threshold53 a
  and tab = threshold53 (a +. b)
  and tabc = threshold53 (a +. b +. c) in
  let n = 1 lsl scale in
  let k = ref 0 in
  while !k < len do
    let upto = min len (!k + kernel_span) in
    let stop =
      Rng.rmat_edges rng ~scale ~ta ~tab ~tabc ~simple ~src ~dst !k upto
    in
    if stop < upto then begin
      let u = Array.unsafe_get src stop in
      Array.unsafe_set dst stop (other_endpoint rng ~n u);
      k := stop + 1
    end
    else k := upto
  done

let rmat ?(simple = false) ~rng ~scale ~edge_factor ?(a = 0.57) ?(b = 0.19)
    ?(c = 0.19) () =
  if a +. b +. c >= 1. then invalid_arg "Generators.rmat: a + b + c must be < 1";
  let n = 1 lsl scale in
  require_two "rmat" ~simple ~n;
  let m = edge_factor * n in
  let src = Array.make m 0 and dst = Array.make m 0 in
  rmat_fill rng ~scale ~a ~b ~c ~simple ~src ~dst m;
  Graph.create ~n ~edges:(Array.init m (fun k -> (src.(k), dst.(k))))

let preferential ~rng ~n ~deg =
  if deg < 1 then invalid_arg "Generators.preferential: deg must be >= 1";
  if n < 2 then invalid_arg "Generators.preferential: n must be >= 2";
  (* [targets] holds one entry per edge endpoint, so sampling a uniform
     element of it is sampling proportionally to degree.  Each vertex's
     attachment points are drawn from the state before it arrived. *)
  let targets = ref [ 0 ] in
  let edges = ref [] in
  for v = 1 to n - 1 do
    let arr = Array.of_list !targets in
    let len = Array.length arr in
    for _ = 1 to min deg v do
      let u = arr.(Rng.int rng len) in
      edges := (u, v) :: !edges;
      targets := u :: !targets
    done;
    targets := v :: !targets
  done;
  Graph.create ~n ~edges:(Array.of_list !edges)

let random_digraph ~rng ~n ~m =
  Digraph.create ~n ~edges:(Array.init m (fun _ -> (Rng.int rng n, Rng.int rng n)))

let clustered_digraph ~rng ~clusters ~cluster_size ~extra =
  if clusters < 1 || cluster_size < 1 then
    invalid_arg "Generators.clustered_digraph: empty clusters";
  let n = clusters * cluster_size in
  let acc = ref [] in
  for cl = 0 to clusters - 1 do
    let base = cl * cluster_size in
    for i = 0 to cluster_size - 1 do
      acc := (base + i, base + ((i + 1) mod cluster_size)) :: !acc
    done
  done;
  let added = ref 0 in
  while !added < extra && clusters > 1 do
    let cu = Rng.int rng (clusters - 1) in
    let cv = Rng.int rng (clusters - cu - 1) + cu + 1 in
    let u = (cu * cluster_size) + Rng.int rng cluster_size in
    let v = (cv * cluster_size) + Rng.int rng cluster_size in
    acc := (u, v) :: !acc;
    incr added
  done;
  Digraph.create ~n ~edges:(Array.of_list !acc)
