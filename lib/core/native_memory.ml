(** The {!Memory_intf.S} instance over {!Repro_util.Flat_atomic_array}: one
    contiguous word per node, so every parent hop in [find] is a single
    cache-friendly load and every link/splitting step a single-word CAS —
    the paper's machine model, with no per-cell boxing.

    The memory carries its {!Memory_order.t} mode so one set of algorithm
    loops serves all modes: without flambda the functorised [M.read] is an
    indirect call per hop anyway, so the perfectly predicted mode branch
    inside it is free next to the load it guards, and both
    specialisations of each find body (plain and fault/telemetry-armed)
    inherit the tuned accesses.

    The unchecked accessors are safe here: the algorithm validates node
    arguments at operation entry ([check_node]), and every parent value
    stored in the array is in range by construction (links only ever store
    existing node indices). *)

module A = Repro_util.Flat_atomic_array

type t = { arr : A.t; order : Memory_order.t }

let make ?(padded = false) ?(order = Memory_order.default) n f =
  { arr = A.make ~padded n f; order }

let of_flat ?(order = Memory_order.default) arr = { arr; order }
let order t = t.order

(* Parent reads per mode; see {!Memory_order} for the soundness argument
   of each (the weakest mode relies on: a formerly valid parent is still
   an ancestor with a larger id, so walks terminate and Lemma 3.1 is
   preserved, and every write goes through a CAS that re-validates). *)
let read t i =
  match t.order with
  | Memory_order.Relaxed_reads -> A.unsafe_load t.arr i
  | Memory_order.Acquire -> A.unsafe_get_acquire t.arr i
  | Memory_order.Seq_cst -> A.unsafe_get t.arr i

(* Link CASes stay strong in every mode: a reported failure must mean a
   real conflict, because [unite] uses it to decide between backing off
   and re-reading versus retrying blindly. *)
let cas t i expected desired = A.unsafe_cas t.arr i expected desired

(* Splitting CASes may fail spuriously (a spurious failure is exactly a
   failed try).  Under [Seq_cst] the weak CAS is strengthened back to the
   strong seq-cst one so that mode really is the original fully fenced
   baseline. *)
let cas_weak t i expected desired =
  match t.order with
  | Memory_order.Seq_cst -> A.unsafe_cas t.arr i expected desired
  | Memory_order.Acquire | Memory_order.Relaxed_reads ->
    A.unsafe_cas_weak t.arr i expected desired

let prefetch t i = A.unsafe_prefetch t.arr i
