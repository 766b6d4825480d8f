(** Abstract set operations, the currency of workload generators: a workload
    is an [op list] (or one list per process), executable against any of the
    implementations — native, simulated, sequential — so the same workload
    drives correctness tests and cross-implementation work comparisons. *)

type t = Unite of int * int | Same_set of int * int | Find of int

val pp : Format.formatter -> t -> unit
val max_node : t list -> int
val count_unites : t list -> int

(** {1 Distribution across processes} *)

val round_robin : 'a list -> p:int -> 'a list array
(** Deal the list out cyclically to [p] processes, preserving per-process
    order. *)

val blocks : 'a list -> p:int -> 'a list array
(** Split into [p] contiguous blocks of near-equal length. *)

val duplicate : 'a list -> p:int -> 'a list array
(** Every process gets the whole list — the lockstep workloads of the
    lower-bound experiments (Theorem 5.4). *)

(** {1 Execution} *)

val run_native : Dsu.Native.t -> t list -> unit
val run_seq : Sequential.Seq_dsu.t -> t list -> unit
val run_quick_find : Sequential.Quick_find.t -> t list -> unit
(** Convert to an array once and delegate to the array runners below. *)

val run_native_array : Dsu.Native.t -> t array -> unit

val run_native_array_batched : Dsu.Native.t -> ?batch:int -> t array -> unit
(** Like {!run_native_array}, but maximal runs of consecutive same-kind
    [Unite]/[Same_set] ops are flushed through the bulk kernels
    ({!Dsu.Native.unite_batch} / {!Dsu.Native.same_set_batch}) in groups of
    at most [batch] (default 2048) pairs; [Find]s flush and run directly,
    and runs shorter than an internal threshold (32) fall back to the
    per-op entry points, so kind-alternating streams never pay kernel
    setup per tiny flush.  Same per-element semantics as the per-op loop —
    used by the bench bulk suite to measure the batching win.
    @raise Invalid_argument if [batch < 1]. *)

val run_packed_array : Dsu.Packed.Native.t -> t array -> unit
(** Drives the bit-packed linking-by-rank layout ({!Dsu.Packed.Native})
    for the plan-space sweeps. *)

val run_seq_array : Sequential.Seq_dsu.t -> t array -> unit
val run_quick_find_array : Sequential.Quick_find.t -> t array -> unit
(** Array-based hot loops: contiguous iteration, no list-cell chasing in
    benchmark inner loops. *)

val to_sim_ops : Dsu.Sim.t -> t list -> (unit -> unit) list
(** Closures for {!Apram.Sim.run_ops}, each recording itself in the
    history. *)

val to_sim_ops_aw : Baselines.Anderson_woll.Sim.t -> t list -> (unit -> unit) list
(** Same for the Anderson–Woll baseline ([Find] is run as a [same_set] with
    itself, since AW exposes the same interface through its own root type). *)
