module Rng = Repro_util.Rng

(* ------------------------------------------------------------------ *)
(* Chunked, replayable random edge streams.

   The billion-edge connectivity pipeline must never hold the edge list:
   at 10^9 edges a materialized [(int * int) array] is ~16 GB.  Instead a
   stream is a pure *description* — generator kind + parameters + seed +
   chunk geometry — and edges only ever exist inside caller-provided
   chunk buffers of [chunk_size] pairs.

   Chunk [idx] is generated from its own rng, seeded as
   [seed * 1_000_003 + idx].  That makes every chunk independently
   regenerable: any domain can fill any chunk in any order (the parallel
   driver hands chunks out round-robin), a crashed run can replay from
   any position, and the deterministic bulk engine can rely on chunk
   contents being a function of [(stream, idx)] alone.  The price is
   that a streamed generator draws *different* edges than its
   single-rng materialized twin in {!Generators} even at equal seeds —
   both run the one R-MAT kernel {!Generators.rmat_fill}, but on
   different rng streams — so the oracle tests compare a stream against
   its own {!materialize}, not against {!Generators}. *)

type chunk = { src : int array; dst : int array; mutable len : int }

type kind =
  | Erdos_renyi
  | Rmat of { scale : int; a : float; b : float; c : float }
  | Power_law of { theta : float }

type t = {
  n : int;
  m : int;
  chunk_size : int;
  seed : int;
  simple : bool;
  kind : kind;
}

let default_chunk_size = 1 lsl 16

let check_common op ~n ~m ~chunk_size ~simple =
  if n < 1 then invalid_arg (Printf.sprintf "Edge_stream.%s: n must be >= 1" op);
  if m < 0 then invalid_arg (Printf.sprintf "Edge_stream.%s: m must be >= 0" op);
  if chunk_size < 1 then
    invalid_arg (Printf.sprintf "Edge_stream.%s: chunk_size must be >= 1" op);
  if simple && n < 2 then
    invalid_arg (Printf.sprintf "Edge_stream.%s: ~simple needs n >= 2" op)

let erdos_renyi ?(simple = false) ?(chunk_size = default_chunk_size) ~seed ~n
    ~m () =
  check_common "erdos_renyi" ~n ~m ~chunk_size ~simple;
  { n; m; chunk_size; seed; simple; kind = Erdos_renyi }

let rmat ?(simple = false) ?(chunk_size = default_chunk_size) ?(a = 0.57)
    ?(b = 0.19) ?(c = 0.19) ~seed ~scale ~edge_factor () =
  if a +. b +. c >= 1. then
    invalid_arg "Edge_stream.rmat: a + b + c must be < 1";
  if scale < 0 || scale > 40 then
    invalid_arg "Edge_stream.rmat: scale must be in [0, 40]";
  let n = 1 lsl scale in
  let m = edge_factor * n in
  check_common "rmat" ~n ~m ~chunk_size ~simple;
  { n; m; chunk_size; seed; simple; kind = Rmat { scale; a; b; c } }

let power_law ?(simple = false) ?(chunk_size = default_chunk_size)
    ?(theta = 2.0) ~seed ~n ~m () =
  if theta <= 1. then invalid_arg "Edge_stream.power_law: theta must be > 1";
  check_common "power_law" ~n ~m ~chunk_size ~simple;
  { n; m; chunk_size; seed; simple; kind = Power_law { theta } }

let n t = t.n
let total_edges t = t.m
let chunk_size t = t.chunk_size
let is_simple t = t.simple
let chunk_count t = (t.m + t.chunk_size - 1) / t.chunk_size

(* Enough chunks to see ~2 edges per vertex on average, capped at the
   whole stream: a pure function of the geometry, so sampling work is
   reproducible. *)
let sample_window t =
  let want = ((2 * t.n) + t.chunk_size - 1) / t.chunk_size in
  min (chunk_count t) (max 1 want)

let kind_name t =
  match t.kind with
  | Erdos_renyi -> "erdos-renyi"
  | Rmat _ -> "rmat"
  | Power_law _ -> "power-law"

let describe t =
  Printf.sprintf "%s(n=%d, m=%d, chunk=%d, seed=%d%s)" (kind_name t) t.n t.m
    t.chunk_size t.seed
    (if t.simple then ", simple" else "")

let make_chunk t =
  { src = Array.make t.chunk_size 0; dst = Array.make t.chunk_size 0; len = 0 }

let chunk_rng t idx = Rng.create ((t.seed * 1_000_003) + idx)

(* One dedicated loop per generator kind, so the per-edge path is straight
   int code: no closure call, no tuple, no boxed float. *)
let fill t idx chunk =
  let chunks = chunk_count t in
  if idx < 0 || idx >= chunks then
    invalid_arg
      (Printf.sprintf "Edge_stream.fill: chunk %d out of range [0, %d)" idx
         chunks);
  let src = chunk.src and dst = chunk.dst in
  if Array.length src < t.chunk_size || Array.length dst < t.chunk_size then
    invalid_arg "Edge_stream.fill: chunk buffer smaller than chunk_size";
  let len = min t.chunk_size (t.m - (idx * t.chunk_size)) in
  let rng = chunk_rng t idx and n = t.n and simple = t.simple in
  (match t.kind with
   | Rmat { scale; a; b; c } ->
     Generators.rmat_fill rng ~scale ~a ~b ~c ~simple ~src ~dst len
   | Erdos_renyi ->
     for k = 0 to len - 1 do
       (* Second endpoint first: the pinned stream digests fix the order. *)
       let v = Rng.int rng n in
       let u = Rng.int rng n in
       let v = if simple && u = v then Generators.other_endpoint rng ~n u else v in
       Array.unsafe_set src k u;
       Array.unsafe_set dst k v
     done
   | Power_law { theta } ->
     (* Hub endpoint × uniform endpoint: heavy-tailed degrees without the
        quadratic cost of two Zipf draws hitting the same hubs.  The hub
        inverts the continuous power-law CDF on [1, n + 1) with exponent
        [theta], x = (1 + u * ((n+1)^e - 1))^(1/e), then truncates; the
        uniform endpoint is drawn first. *)
     let e = 1. -. theta in
     let span = Float.pow (float_of_int (n + 1)) e -. 1. and inv_e = 1. /. e in
     for k = 0 to len - 1 do
       let v = Rng.int rng n in
       (* [Rng.float], spelled out so the draw stays unboxed. *)
       let r = float_of_int (Rng.bits53 rng) *. 0x1p-53 in
       let u = int_of_float (Float.pow (1. +. (r *. span)) inv_e) - 1 in
       let u = if u < 0 then 0 else if u >= n then n - 1 else u in
       let v = if simple && u = v then Generators.other_endpoint rng ~n u else v in
       Array.unsafe_set src k u;
       Array.unsafe_set dst k v
     done);
  chunk.len <- len

let iter t f =
  let chunk = make_chunk t in
  for idx = 0 to chunk_count t - 1 do
    fill t idx chunk;
    for k = 0 to chunk.len - 1 do
      f chunk.src.(k) chunk.dst.(k)
    done
  done

let materialize t =
  let edges = Array.make t.m (0, 0) in
  let pos = ref 0 in
  iter t (fun u v ->
      edges.(!pos) <- (u, v);
      incr pos);
  Graph.create ~n:t.n ~edges
