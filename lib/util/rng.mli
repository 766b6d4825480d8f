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
    hot generation loops. *)

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
