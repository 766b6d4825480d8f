(** A DSU backend as one value: a variant over the two layouts (flat;
    packed).  A {!Dsu_plan.t} is the only selector:
    {!create} builds whatever layout the plan names.

    {!Growable}, the [MakeSet] extension, is not a kind: nothing behind
    this interface creates elements, so its callers use it directly.

    Everything above the layout modules — the connectivity pipeline, the
    service, the chaos and recovery drills, snapshots and fuzzy captures —
    holds a [t] and calls the functions below, so there are exactly two
    layout dispatches outside the layouts themselves: the fresh
    constructor {!create} and the snapshot restore
    ([Repro_recover.Restore.restore]).

    A variant rather than a record of closures: each call is one match on
    a known constructor followed by a direct call, which the serving path
    pays per op.  On the [serve] mix a closure record took a median
    0.98–1.10x the variant's time per op over 8 runs (median 1.05x;
    docs/PERFORMANCE.md, "Backend dispatch"): the variant is at least as
    fast. *)

type kind = Dsu_plan.layout =
  | Flat  (** {!Dsu_native}, random-id linking *)
  | Packed  (** {!Packed_dsu.Native}, linking by rank *)

type t = Flat of Dsu_native.t | Packed of Packed_dsu.Native.t

val kind : t -> kind

val create :
  ?plan:Dsu_plan.t ->
  ?seed:int ->
  ?collect_stats:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  int ->
  t
(** [create n] builds the structure the plan names ([plan] defaults to
    {!Dsu_plan.default}): its layout picks the kind.  [seed] feeds the random
    priorities of the id-linking layouts (ignored by [Packed]); [on_link]
    hooks every successful link CAS.
    @raise Invalid_argument if [n < 1]. *)

val n : t -> int

val find : t -> int -> int
val same_set : t -> int -> int -> bool
val unite : t -> int -> int -> unit

val unite_batch : ?len:int -> t -> int array -> int array -> unit
val same_set_batch : t -> int array -> int array -> bool array
val find_batch : t -> int array -> int array
(** The layouts' bulk kernels.
    [unite_batch ~len] unites only the first [len] pairs, so a caller
    can compact survivors into longer buffers.
    @raise Invalid_argument on length mismatch (or [len] outside either
    array) or out-of-range nodes. *)

val count_sets : t -> int
(** Quiescent only. *)

val parents_snapshot : t -> int array
(** Quiescent only. *)

val prio : t -> int -> int
(** The node's linking order, read live: the id or random priority, or
    the packed rank, which moves as roots are promoted. *)

val prios_snapshot : t -> int array
(** {!prio} of every node.  Quiescent only. *)

val snapshot_fuzzy : t -> int array * int array
(** The layout's fuzzy [(parents, prios)] scan, safe concurrent with
    mutators (see {!Dsu_native.snapshot_fuzzy}). *)

val stats : t -> Dsu_stats.snapshot
(** {!Dsu_stats.zero} unless created with [~collect_stats:true]. *)
