module Flat_atomic_array = Repro_util.Flat_atomic_array
module Rng = Repro_util.Rng

module A =
  Dsu_algorithm.Make (Native_memory) (Dsu_algorithm.By_id (Native_memory))

type t = A.t

(* [fetch_and_add], not a plain [ref] + [incr]: [create] may be called from
   several domains at once, and racing increments could hand two structures
   the same default seed (identical priority permutations defeat the
   randomized-linking analysis). *)
let self_seed = Atomic.make 0x4d595df4d0f33173

let create ?policy ?early ?memory_order ?(collect_stats = false) ?on_link
    ?seed n =
  if n < 1 then invalid_arg "Dsu_native.create: n must be >= 1";
  let seed =
    match seed with
    | Some s -> s
    | None -> 1 + Atomic.fetch_and_add self_seed 1
  in
  let ids = Rng.permutation (Rng.create seed) n in
  let mem = Native_memory.make ?order:memory_order n (fun i -> i) in
  let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
  A.create ?policy ?early ?stats ?on_link ~mem ~n ~prio:(fun i -> ids.(i)) ()

let n = A.n

(* Top-level operations time themselves when telemetry is armed
   (dsu_unite_latency_ns / dsu_same_set_latency_ns / dsu_ops_total);
   per-find latency is captured inside the algorithm's find itself. *)

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

let unite_batch ?len t xs ys =
  if Atomic.get Dsu_obs.armed then begin
    let t0 = Dsu_obs.now_ns () in
    A.unite_batch ?len t xs ys;
    Dsu_obs.record_unite_latency t0
  end
  else A.unite_batch ?len t xs ys

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

let stats t = match A.stats t with None -> Dsu_stats.zero | Some s -> Dsu_stats.snapshot s

let reset_stats t = match A.stats t with None -> () | Some s -> Dsu_stats.reset s

let invariant_violations = A.invariant_violations
let memory_order t = Native_memory.order (A.mem t)

let parents_snapshot t =
  Flat_atomic_array.snapshot (A.mem t).Native_memory.arr

let sets t =
  let size = A.n t in
  let root = Array.init size (fun i -> A.find t i) in
  let classes : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  for i = size - 1 downto 0 do
    let r = root.(i) in
    Hashtbl.replace classes r (i :: Option.value ~default:[] (Hashtbl.find_opt classes r))
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) classes []
  |> List.map (List.sort compare)
  |> List.sort compare

type snapshot = { parents : int array; ids : int array }

let snapshot t =
  { parents = parents_snapshot t; ids = Array.init (A.n t) (fun i -> A.id t i) }

let ids_snapshot t = Array.init (A.n t) (fun i -> A.id t i)

(* Fuzzy (non-quiescent) scan: per-cell acquire loads racing the mutators,
   each preceded by a [Snapshot_read] fault site so chaos can crash a
   snapshotter mid-scan.  Sound by Lemma 3.1: parents only ever move to
   proper ancestors, so every scanned edge was a real ancestor edge at the
   instant its cell was read.  The ids are immutable and need no care. *)
module Fi = Repro_fault.Inject

let snapshot_fuzzy t =
  let arr = (A.mem t).Native_memory.arr in
  let parents =
    Array.init (A.n t) (fun i ->
        if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Snapshot_read;
        Flat_atomic_array.get_acquire arr i)
  in
  (parents, ids_snapshot t)

let restore ?policy ?early ?memory_order ?(collect_stats = false) ?on_link
    (s : snapshot) =
  let n = Array.length s.parents in
  if n < 1 || Array.length s.ids <> n then
    invalid_arg "Dsu_native.restore: malformed snapshot";
  let ids = Array.copy s.ids in
  let seen = Array.make n false in
  Array.iter
    (fun id ->
      if id < 0 || id >= n || seen.(id) then
        invalid_arg "Dsu_native.restore: ids are not a permutation";
      seen.(id) <- true)
    ids;
  Array.iteri
    (fun i p ->
      if p < 0 || p >= n then invalid_arg "Dsu_native.restore: parent out of range";
      if p <> i && ids.(p) <= ids.(i) then
        invalid_arg "Dsu_native.restore: parents violate the linking order")
    s.parents;
  let mem = Native_memory.make ?order:memory_order n (fun i -> s.parents.(i)) in
  let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
  A.create ?policy ?early ?stats ?on_link ~mem ~n ~prio:(fun i -> ids.(i)) ()

let of_snapshot ?policy ?early ?memory_order ?collect_stats ?on_link ~parents
    ~ids () =
  restore ?policy ?early ?memory_order ?collect_stats ?on_link { parents; ids }

let snapshot_to_string (s : snapshot) =
  let buf = Buffer.create (Array.length s.parents * 8) in
  Buffer.add_string buf (string_of_int (Array.length s.parents));
  Array.iter (fun p -> Buffer.add_char buf ' '; Buffer.add_string buf (string_of_int p)) s.parents;
  Array.iter (fun id -> Buffer.add_char buf ' '; Buffer.add_string buf (string_of_int id)) s.ids;
  Buffer.contents buf

let snapshot_of_string text =
  match String.split_on_char ' ' (String.trim text) with
  | [] -> invalid_arg "Dsu_native.snapshot_of_string: empty"
  | count :: rest -> (
    match int_of_string_opt count with
    | None -> invalid_arg "Dsu_native.snapshot_of_string: bad header"
    | Some n ->
      if n < 1 || List.length rest <> 2 * n then
        invalid_arg "Dsu_native.snapshot_of_string: wrong field count";
      let values =
        List.map
          (fun f ->
            match int_of_string_opt f with
            | Some v -> v
            | None -> invalid_arg "Dsu_native.snapshot_of_string: bad integer")
          rest
      in
      let arr = Array.of_list values in
      { parents = Array.sub arr 0 n; ids = Array.sub arr n n })
