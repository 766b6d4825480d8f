module Atomic_array = Repro_util.Atomic_array
module Rng = Repro_util.Rng

module A =
  Dsu_algorithm.Make (Boxed_memory) (Dsu_algorithm.By_id (Boxed_memory))

type t = A.t

let self_seed = Atomic.make 0x2545f4914f6cdd1d

let create ?policy ?early ?backoff ?(collect_stats = false) ?on_link ?seed n =
  if n < 1 then invalid_arg "Dsu_boxed.create: n must be >= 1";
  let seed =
    match seed with
    | Some s -> s
    | None -> 1 + Atomic.fetch_and_add self_seed 1
  in
  let ids = Rng.permutation (Rng.create seed) n in
  let mem = Atomic_array.make n (fun i -> i) in
  let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
  A.create ?policy ?early ?backoff ?stats ?on_link ~mem ~n ~prio:(fun i -> ids.(i)) ()

let n = A.n

(* The same armed-telemetry wrappers as {!Dsu_native}, so layout A/B runs
   compare memory layouts only, not instrumentation overhead. *)

let same_set t x y =
  if Atomic.get Dsu_obs.armed then begin
    let t0 = Dsu_obs.now_ns () in
    let r = A.same_set t x y in
    Dsu_obs.record_same_set_latency t0;
    r
  end
  else A.same_set t x y

let unite t x y =
  if Atomic.get Dsu_obs.armed then begin
    let t0 = Dsu_obs.now_ns () in
    A.unite t x y;
    Dsu_obs.record_unite_latency t0
  end
  else A.unite t x y

let find t x =
  if Atomic.get Dsu_obs.armed then Dsu_obs.record_find_op ();
  A.find t x

let unite_batch t xs ys =
  if Atomic.get Dsu_obs.armed then begin
    let t0 = Dsu_obs.now_ns () in
    A.unite_batch t xs ys;
    Dsu_obs.record_unite_latency t0
  end
  else A.unite_batch t xs ys

let same_set_batch t xs ys =
  if Atomic.get Dsu_obs.armed then begin
    let t0 = Dsu_obs.now_ns () in
    let r = A.same_set_batch t xs ys in
    Dsu_obs.record_same_set_latency t0;
    r
  end
  else A.same_set_batch t xs ys

let find_batch t xs =
  if Atomic.get Dsu_obs.armed then Dsu_obs.record_find_op ();
  A.find_batch t xs

let id = A.id
let parent_of = A.parent_of
let is_root = A.is_root
let count_sets = A.count_sets
let invariant_violations = A.invariant_violations
let parents_snapshot t = Atomic_array.snapshot (A.mem t)
let ids_snapshot t = Array.init (A.n t) (fun i -> A.id t i)

(* Fuzzy (non-quiescent) scan; see {!Dsu_native.snapshot_fuzzy} for the
   Lemma 3.1 soundness argument.  Boxed cells are seq-cst [Atomic.t]s, so
   each per-cell read is at least as strong as the acquire load the flat
   layout uses. *)
module Fi = Repro_fault.Inject

let snapshot_fuzzy t =
  let mem = A.mem t in
  let parents =
    Array.init (A.n t) (fun i ->
        if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Snapshot_read;
        Atomic_array.get mem i)
  in
  (parents, ids_snapshot t)

let stats t = match A.stats t with None -> Dsu_stats.zero | Some s -> Dsu_stats.snapshot s

(* The same validated restore as {!Dsu_native.of_snapshot}, over the boxed
   layout — so a snapshot taken from either layout restores into either. *)
let of_snapshot ?policy ?early ?backoff ?(collect_stats = false) ?on_link ~parents ~ids () =
  let n = Array.length parents in
  if n < 1 || Array.length ids <> n then
    invalid_arg "Dsu_boxed.of_snapshot: malformed snapshot";
  let ids = Array.copy ids in
  let seen = Array.make n false in
  Array.iter
    (fun id ->
      if id < 0 || id >= n || seen.(id) then
        invalid_arg "Dsu_boxed.of_snapshot: ids are not a permutation";
      seen.(id) <- true)
    ids;
  Array.iteri
    (fun i p ->
      if p < 0 || p >= n then invalid_arg "Dsu_boxed.of_snapshot: parent out of range";
      if p <> i && ids.(p) <= ids.(i) then
        invalid_arg "Dsu_boxed.of_snapshot: parents violate the linking order")
    parents;
  let mem = Atomic_array.make n (fun i -> parents.(i)) in
  let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
  A.create ?policy ?early ?backoff ?stats ?on_link ~mem ~n ~prio:(fun i -> ids.(i)) ()
