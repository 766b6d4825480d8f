(** Deterministic, splittable pseudo-random number generation.

    The library never uses the global [Random] state: every randomized
    component takes an explicit generator so that experiments and tests are
    reproducible from a single integer seed.  The implementation is
    xoshiro256** seeded through SplitMix64, following the reference
    construction of Blackman and Vigna. *)

type t
(** Mutable generator state (four unboxed 64-bit words). *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Distinct seeds
    give statistically independent streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same stream
    as [t] from this point on. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of
    the parent and child do not overlap for any practical horizon; used to
    hand independent generators to simulated processes. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** Next 30 uniformly random bits as a non-negative [int]. *)

val bits53 : t -> int
(** Next 53 uniformly random bits (the top 53 of {!int64}) as a
    non-negative [int].  Allocates nothing, which makes it the draw for
    the generation loops written in OCaml (power-law hubs); R-MAT's
    per-level draws happen in C, inside {!rmat_edges}, on the same
    stream. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound).  Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi]. *)

val float : t -> float
(** Uniform float in [0, 1): exactly [float_of_int (bits53 t) *. 0x1p-53].
    Consumes one {!int64}. *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1]. *)

val rmat_edges :
  t -> scale:int -> ta:int -> tab:int -> tabc:int -> simple:bool ->
  src:int array -> dst:int array -> int -> int -> int
(** [rmat_edges t ~scale ~ta ~tab ~tabc ~simple ~src ~dst from upto] is
    the R-MAT level loop, in C, for edges [k] in [\[from, upto)]: per
    edge, [scale] levels each draw [x = bits53 t] and append
    [x >= ta && x >= tab] to [src.(k)] and
    [x >= ta && (x < tab || x >= tabc)] to [dst.(k)], most significant
    level first.  The draws are exactly {!bits53}'s, so [t] continues
    from the last one.  Compares are signed, and the thresholds need not
    be ordered: with [tab' = max ta tab] and [tabc' = max tab' tabc], the
    two bits are bits 1 and 0 of the number of [ta <= tab' <= tabc']
    that are [<= x].  That count is monotone in [x], so it is constant
    over a bucket of [2^43] consecutive values of [x] whenever it agrees
    at the bucket's two ends; the kernel looks up each level's count in
    a table of the 1,024 buckets (the top 10 bits of [x]), built per
    call, and falls back to the three compares only in the at most 3
    buckets a threshold cuts.  The output is the formula's for every
    [x] and any thresholds.  With [~simple], it stops after the first edge
    whose endpoints are equal and returns its index (both endpoints are
    written); otherwise it returns [upto].  Allocates nothing, and keeps
    every other domain waiting at a minor collection for as long as it
    runs, so callers pass ranges of a few thousand edges.
    [Generators.rmat_fill] is the caller.
    @raise Invalid_argument unless [0 <= from <= upto] and [upto] fits
    both buffers. *)
