(** The same concurrent DSU running inside the APRAM simulator.

    Operations called from within simulated process bodies perform their
    shared-memory accesses through {!Apram.Process}, so the scheduler
    interleaves them at single-access granularity and charges each access as
    one step — the paper's work metric, measured exactly.

    Typical use:

    {[
      let spec = Dsu_sim.spec ~n:1024 ~seed:7 () in
      let handle = Dsu_sim.handle spec in
      let bodies = [| ops for process 0; ops for process 1 |] in
      let outcome =
        Apram.Sim.run_ops
          ~mem_size:(Dsu_sim.mem_size spec)
          ~init:(Dsu_sim.init spec)
          ~sched:(Apram.Scheduler.random ~seed:3)
          bodies
      in
      ...
    ]} *)

module Memory : Memory_intf.S with type t = unit
(** The simulator's shared memory as a {!Memory_intf.S}: every [read] and
    [cas] is one {!Apram.Process} step, so it must run inside a simulated
    process.  Cell [i] holds node [i]'s word. *)

type spec = {
  n : int;
  policy : Find_policy.t;
  early : bool;
  ids : int array;  (** the random total order; [ids.(i)] = priority of node [i] *)
}

val spec :
  ?policy:Find_policy.t -> ?early:bool -> ?ids:int array -> n:int -> seed:int -> unit -> spec
(** Build a specification; [ids] defaults to a random permutation drawn from
    [seed].  Supplying [ids] explicitly lets tests fix the linking order. *)

val mem_size : spec -> int
(** Cells of simulated shared memory the DSU needs (= [n]; cell [i] is node
    [i]'s parent). *)

val init : spec -> int -> int
(** Initial memory contents: every node its own parent. *)

type t
(** A handle usable from inside simulated processes. *)

val handle : ?on_link:(child:int -> parent:int -> unit) -> spec -> t
(** The handle also carries a {!Dsu_stats.t}; counter updates are host-local
    and cost no simulated steps. *)

val stats : t -> Dsu_stats.snapshot

val same_set : t -> int -> int -> bool
(** Must be called from inside a simulated process. *)

val unite : t -> int -> int -> unit
val find : t -> int -> int

val same_set_op : t -> int -> int -> unit -> unit
(** A closure for {!Apram.Sim.run_ops} that runs [same_set] and records the
    operation in the history (for the linearizability checker). *)

val unite_op : t -> int -> int -> unit -> unit
val find_op : t -> int -> unit -> unit

val roots_of_memory : spec -> Apram.Memory.t -> int array
(** Post-mortem: the root of every node in the final memory (host-side
    pointer chasing; no simulated steps). *)

val sets_of_memory : spec -> Apram.Memory.t -> int list list
(** Post-mortem: the partition as sorted classes, for comparison against a
    reference implementation. *)
