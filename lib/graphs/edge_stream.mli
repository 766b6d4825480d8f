(** Chunked, replayable random edge streams for out-of-core connectivity.

    A stream is a pure description — generator kind, parameters, seed and
    chunk geometry — not a container: edges only ever exist inside
    caller-provided {!chunk} buffers, so a 2^26-vertex / 10^9-edge input
    occupies [chunk_size] pairs of memory no matter how long it runs.

    Chunk [idx] is generated from its own rng ([seed * 1_000_003 + idx]),
    so any domain can (re)generate any chunk in any order and its
    contents are a function of [(stream, idx)] alone — the property the
    parallel driver (round-robin chunk hand-out), crash replay, and the
    deterministic bulk engine all rely on.  Consequence: a stream draws
    different edges than the single-rng materialized generators in
    {!Generators} even at equal seeds (R-MAT streams and {!Generators.rmat}
    share the kernel {!Generators.rmat_fill}, not the rng stream); oracle
    tests compare a stream against its own {!materialize}.

    [~simple:true] rejects [u = v] self-loops by resampling the second
    endpoint ({!Generators.other_endpoint}); duplicate edges remain
    possible in every kind — cross-chunk dedup would need global state
    (see the {!Generators} hygiene contract). *)

type chunk = { src : int array; dst : int array; mutable len : int }
(** One block of edges: pairs [(src.(k), dst.(k))] for [k < len].
    Buffers are [chunk_size] long; the final chunk of a stream may be
    shorter ([len < chunk_size]). *)

type t

val erdos_renyi :
  ?simple:bool -> ?chunk_size:int -> seed:int -> n:int -> m:int -> unit -> t
(** G(n, m)-style stream: both endpoints uniform on [0, n). *)

val rmat :
  ?simple:bool -> ?chunk_size:int -> ?a:float -> ?b:float -> ?c:float ->
  seed:int -> scale:int -> edge_factor:int -> unit -> t
(** R-MAT stream on [2^scale] vertices, [edge_factor * 2^scale] edges;
    defaults (a, b, c) = (0.57, 0.19, 0.19), the Graph500 parameters.
    @raise Invalid_argument unless [0 <= scale <= 40] and [a + b + c < 1]. *)

val power_law :
  ?simple:bool -> ?chunk_size:int -> ?theta:float -> seed:int -> n:int ->
  m:int -> unit -> t
(** Heavy-tailed stream: source drawn Zipf-ishly (inverse-CDF power law
    with exponent [theta], default 2.0, must be [> 1]), destination
    uniform — low-id vertices become hubs. *)

val n : t -> int
(** Number of vertices (the DSU universe size). *)

val total_edges : t -> int

val chunk_size : t -> int
val chunk_count : t -> int

val sample_window : t -> int
(** How many leading chunks a sampling phase reads: enough to see about
    two edges per vertex on average, at least one and at most the whole
    stream (0 for an empty stream).  A function of the geometry alone;
    the racy {!Connectit} pass samples this prefix, and {!Det_bulk}
    makes it its first block. *)

val is_simple : t -> bool

val kind_name : t -> string
(** ["erdos-renyi"], ["rmat"] or ["power-law"] — report keys. *)

val describe : t -> string
(** One-line human-readable description for logs and reports. *)

val make_chunk : t -> chunk
(** A fresh buffer sized for this stream; reuse it across {!fill} calls. *)

val fill : t -> int -> chunk -> unit
(** [fill t idx chunk] (re)generates chunk [idx] into [chunk], setting
    [chunk.len].  Deterministic in [(t, idx)]; safe to call concurrently
    from many domains on distinct chunks.
    Generation allocates nothing per edge.
    @raise Invalid_argument if [idx] is out of range or either buffer
    ([src] or [dst]) is shorter than [chunk_size]. *)

val iter : t -> (int -> int -> unit) -> unit
(** Sequential scan of the whole stream in chunk order, using one
    internal buffer ([O(chunk_size)] memory). *)

val materialize : t -> Graph.t
(** The stream as an ordinary graph — tests and small baselines only;
    allocates all [total_edges] pairs. *)
