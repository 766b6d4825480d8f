(** Determinism checking — the lincheck-style companion to {!Checker}
    for the internally deterministic bulk connectivity engine: replay
    one input under many schedules (domain counts × perturbation seeds
    with injected sleeps) and demand byte-identical output: the labels
    and the engine's round count.  Canonical (min-id) labels alone are
    the same for {e any} correct engine; the round count is what pins the
    engine's own schedule-independent trajectory.

    The module is engine-agnostic: callers pass a closure that runs the
    engine at a given domain count with a given round hook, so the check
    composes with {!Graphs.Det_bulk} without this library depending on
    the graphs layer. *)

type outcome = {
  digest : string;  (** digest of the agreed labels and rounds (when [ok]) *)
  runs : int;
  ok : bool;
  failures : string list;
      (** one ["domains=D perturb=S: <got> (expected <ref>)"] line per
          disagreeing run *)
}

val digest_labels : int array -> string
(** Hex digest of a label array (marshalled bytes — byte-identical
    arrays, not just equal multisets). *)

val check :
  ?domain_counts:int list ->
  ?perturb_seeds:int list ->
  run:
    (domains:int ->
    on_round:(domain:int -> round:int -> unit) ->
    int array * int) ->
  unit ->
  outcome
(** Run the engine once per (domain count × perturbation seed) — seeds
    default to [[0; 1; 2]], where seed 0 injects no delays and the rest
    sleep pseudo-randomly inside [on_round] — and compare digests of the
    [(labels, rounds)] pair each run returns.
    [ok = false] lists every run disagreeing with the first. *)

val distinguish :
  ?schedules:(int * int) list ->
  run:(domains:int -> variant:int -> int array) ->
  unit ->
  bool
(** [true] if at least two schedules (pairs of domain count × variant,
    passed to [run]) produce different digests — the positive control
    proving a racy engine's raw forest really is schedule-dependent. *)
