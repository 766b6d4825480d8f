module Flat_atomic_array = Repro_util.Flat_atomic_array
module Rng = Repro_util.Rng
module Fi = Repro_fault.Inject

module Algo =
  Dsu_algorithm.Make (Native_memory) (Dsu_algorithm.By_id (Native_memory))

type t = {
  capacity : int;
  next : int Atomic.t;
  prios : Flat_atomic_array.t;
      (** atomic so priorities published by [make_set] are visible to every
          domain without further synchronization *)
  rng_state : int Atomic.t;  (** per-allocation counter, hashed to a priority *)
  algo : Algo.t;
}

let mix64 z =
  (* SplitMix64 finalizer on 62-bit ints; good avalanche, cheap. *)
  let z = Int64.of_int z in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 2)

let create ?policy ?early ?backoff ?memory_order ?(collect_stats = false)
    ?on_link ?(seed = 0x9e3779b9) ~capacity () =
  if capacity < 1 then invalid_arg "Growable.create: capacity must be >= 1";
  let prios = Flat_atomic_array.make capacity (fun _ -> 0) in
  let mem = Native_memory.make ?order:memory_order capacity (fun i -> i) in
  let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
  let algo =
    (* Acquire is enough for priority reads: a slot's priority is published
       (release) by [make_set] before the slot index escapes to any other
       domain, so an acquire load of the cell synchronises with that
       publication; priority 0 is only observable for a slot whose
       [make_set] crashed mid-publish, which the tie-breaking order
       tolerates. *)
    Algo.create ?policy ?early ?backoff ?stats ?on_link ~mem ~n:capacity
      ~prio:(fun i -> Flat_atomic_array.get_acquire prios i)
      ()
  in
  { capacity; next = Atomic.make 0; prios; rng_state = Atomic.make seed; algo }

let make_set t =
  let slot = Atomic.fetch_and_add t.next 1 in
  if slot >= t.capacity then begin
    (* Undo is unnecessary: the counter may run past capacity harmlessly. *)
    failwith "Growable.make_set: capacity exhausted"
  end;
  let r = Atomic.fetch_and_add t.rng_state 0x632be59bd9b4e019 in
  (* Crash-stop here leaves the claimed slot with the default priority 0,
     which the tie-breaking order tolerates (Lemma 3.1 never needs
     distinct priorities). *)
  if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Make_set_publish;
  (* Release publication: pairs with the acquire priority loads in the
     linking order (see [create]); no full fence needed. *)
  Flat_atomic_array.set_release t.prios slot (mix64 r);
  slot

let cardinal t = min (Atomic.get t.next) t.capacity
let capacity t = t.capacity

let check t x =
  if x < 0 || x >= cardinal t then invalid_arg "Growable: element was not created"

let same_set t x y =
  check t x;
  check t y;
  Algo.same_set t.algo x y

let unite t x y =
  check t x;
  check t y;
  Algo.unite t.algo x y

let find t x =
  check t x;
  Algo.find t.algo x

let priority t x =
  check t x;
  Flat_atomic_array.get_acquire t.prios x

let stats t =
  match Algo.stats t.algo with None -> Dsu_stats.zero | Some s -> Dsu_stats.snapshot s

let count_sets t =
  let c = ref 0 in
  for i = 0 to cardinal t - 1 do
    if Algo.parent_of t.algo i = i then incr c
  done;
  !c

(* ---- snapshot / restore (quiescent persistence; see Repro_recover) ---- *)

let parents_snapshot t =
  let k = cardinal t in
  Array.init k (fun i -> Algo.parent_of t.algo i)

let priorities_snapshot t =
  let k = cardinal t in
  Array.init k (fun i -> Flat_atomic_array.get t.prios i)

(* Fuzzy (non-quiescent) scan; see {!Dsu_native.snapshot_fuzzy}.  The
   cardinal is latched first, so concurrent [make_set]s past it are simply
   not part of the cut; a slot below the latched cardinal has its priority
   release-published before the slot escaped, so the acquire loads see it. *)
let snapshot_fuzzy t =
  let k = cardinal t in
  let parents =
    Array.init k (fun i ->
        if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Snapshot_read;
        Algo.parent_of t.algo i)
  in
  let prios = Array.init k (fun i -> Flat_atomic_array.get_acquire t.prios i) in
  (* A parent installed by a racing link may point above the latched
     cardinal; clamp such nodes to roots — dropping the edge only makes the
     cut finer, which still refines the final partition. *)
  Array.iteri (fun i p -> if p >= k then parents.(i) <- i) parents;
  (parents, prios)

let of_snapshot ?policy ?early ?backoff ?memory_order ?(collect_stats = false)
    ?on_link ?(seed = 0x9e3779b9) ?capacity ~parents ~prios () =
  let k = Array.length parents in
  if Array.length prios <> k then
    invalid_arg "Growable.of_snapshot: parents/prios length mismatch";
  let capacity = match capacity with None -> max 1 k | Some c -> c in
  if capacity < max 1 k then
    invalid_arg "Growable.of_snapshot: capacity below element count";
  Array.iteri
    (fun i p ->
      if p < 0 || p >= k then invalid_arg "Growable.of_snapshot: parent out of range";
      if p <> i && not (prios.(i) < prios.(p) || (prios.(i) = prios.(p) && i < p))
      then invalid_arg "Growable.of_snapshot: parents violate the linking order")
    parents;
  let prios_arr =
    Flat_atomic_array.make capacity (fun i -> if i < k then prios.(i) else 0)
  in
  let mem =
    Native_memory.make ?order:memory_order capacity (fun i ->
        if i < k then parents.(i) else i)
  in
  let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
  let algo =
    Algo.create ?policy ?early ?backoff ?stats ?on_link ~mem ~n:capacity
      ~prio:(fun i -> Flat_atomic_array.get_acquire prios_arr i)
      ()
  in
  { capacity; next = Atomic.make k; prios = prios_arr; rng_state = Atomic.make seed; algo }
