(** Random graph generators for the application examples and benches.

    {b Edge hygiene contract.}  By default the random generators draw
    endpoints independently, so they can emit [u = v] self-loops and
    duplicate edges; every DSU application here tolerates both (a
    self-loop or repeated edge is a no-op unite), but they inflate
    edges/sec numbers — a skipped unite is much cheaper than a real one.
    The generators that can produce them take [~simple:true] to reject
    self-loops by resampling the second endpoint (bounded retries, then a
    deterministic rotation); [erdos_renyi ~simple:true] additionally
    dedupes undirected edges (feasible only because its edge list is
    materialized — the streamed twins in {!Edge_stream} reject self-loops
    only).  [rmat ~simple:true] keeps duplicates: they are intrinsic to
    the R-MAT skew and deduping them would need a global seen-set. *)

val erdos_renyi :
  ?simple:bool -> rng:Repro_util.Rng.t -> n:int -> m:int -> unit -> Graph.t
(** [m] edges with endpoints uniform (parallel edges possible) — G(n, m)
    up to multi-edges, which the DSU applications tolerate.
    [~simple:true] (default [false]) resamples away self-loops {e and}
    duplicate undirected edges; raises [Invalid_argument] if [n < 2] or
    [m] exceeds [n(n-1)/2]. *)

val random_tree : rng:Repro_util.Rng.t -> n:int -> Graph.t
(** A uniformly random recursive tree: connected, [n - 1] edges. *)

val grid2d : rows:int -> cols:int -> Graph.t
(** The 4-neighbour lattice; vertex [(r, c)] is [r * cols + c]. *)

val rmat :
  ?simple:bool -> rng:Repro_util.Rng.t -> scale:int -> edge_factor:int ->
  ?a:float -> ?b:float -> ?c:float -> unit -> Graph.t
(** R-MAT power-law graph on [2^scale] vertices with
    [edge_factor * 2^scale] edges; defaults (a, b, c) = (0.57, 0.19, 0.19),
    the Graph500 parameters.  [~simple:true] resamples the second endpoint
    of self-loops (duplicates remain; see the module contract). *)

val rmat_fill :
  Repro_util.Rng.t -> scale:int -> a:float -> b:float -> c:float ->
  simple:bool -> src:int array -> dst:int array -> int -> unit
(** [rmat_fill rng ~scale ~a ~b ~c ~simple ~src ~dst len] writes [len]
    R-MAT edges into [(src.(k), dst.(k))] for [k < len], drawing from
    [rng]; with [~simple] a self-loop's second endpoint is resampled by
    {!other_endpoint}.  The allocation-free R-MAT generator that {!rmat}
    and {!Edge_stream} share; its level loop is the C kernel
    {!Repro_util.Rng.rmat_edges}, called on a few thousand edges at a
    time.  They share the kernel, not the rng stream: {!rmat} draws every
    edge from the one rng it is given, while a stream seeds a fresh rng
    per chunk, so equal seeds give different edges.
    @raise Invalid_argument if [len] exceeds either buffer. *)

val other_endpoint : Repro_util.Rng.t -> n:int -> int -> int
(** [other_endpoint rng ~n u] draws a vertex distinct from [u] (the
    [~simple] self-loop rejection kernel: bounded resampling, then the
    deterministic rotation [(u + 1) mod n]).  Requires [n >= 2]. *)

val preferential : rng:Repro_util.Rng.t -> n:int -> deg:int -> Graph.t
(** Barabási–Albert-style preferential attachment: each new vertex attaches
    [deg] edges to endpoints chosen proportionally to current degree. *)

val random_digraph : rng:Repro_util.Rng.t -> n:int -> m:int -> Digraph.t

val clustered_digraph :
  rng:Repro_util.Rng.t -> clusters:int -> cluster_size:int -> extra:int -> Digraph.t
(** SCC-rich directed graph: [clusters] directed cycles of [cluster_size]
    vertices each (each cycle one SCC), plus [extra] random inter-cluster
    edges oriented from lower to higher cluster so they never merge SCCs.
    The ground truth for the SCC tests: exactly [clusters] components. *)
