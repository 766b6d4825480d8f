module Rng = Repro_util.Rng
module Fi = Repro_fault.Inject

(* A growable array of atomic cells: an immutable directory of fixed-size
   chunks, republished through an [Atomic] on growth.  Readers snapshot the
   directory with one atomic load; a snapshot taken before a growth still
   covers every index allocated at snapshot time, so reads are lock-free. *)
module Chunked = struct
  type t = {
    chunk_size : int;
    directory : int Atomic.t array array Atomic.t;
    grow_lock : Mutex.t;
    init : base:int -> int -> int;  (** initial value of absolute cell [base + j] *)
  }

  let create ~chunk_size ~init =
    if chunk_size < 1 then invalid_arg "Growable_unbounded: chunk_size must be >= 1";
    { chunk_size; directory = Atomic.make [||]; grow_lock = Mutex.create (); init }

  let capacity t = Array.length (Atomic.get t.directory) * t.chunk_size

  (* Locate cell [i], re-fetching the directory if the snapshot is stale.
     A traversal can only reach indices of fully created elements (their
     chunk was published before their index became reachable through any
     parent pointer), so a fresh directory load always covers [i]: the
     sequentially consistent order puts the directory publication before
     the parent write the reader just observed.

     The retry is therefore expected to resolve after at most one
     republication — but an index that was {e never} created (a caller
     bug) would otherwise spin forever.  The slow path tells the two
     apart: once it can take the growth lock, no growth is in progress,
     so the directory it sees is definitive and a still-uncovered index
     is an error, reported rather than spun on. *)
  let rec cell t i =
    let dir = Atomic.get t.directory in
    if i < Array.length dir * t.chunk_size then
      dir.(i / t.chunk_size).(i mod t.chunk_size)
    else if Mutex.try_lock t.grow_lock then begin
      let cap = capacity t in
      Mutex.unlock t.grow_lock;
      if i >= cap then
        invalid_arg
          (Printf.sprintf
             "Growable_unbounded: cell %d out of capacity %d with no growth \
              in progress"
             i cap)
      else cell t i
    end
    else begin
      (* A grower holds the lock: wait for it to publish, then re-check. *)
      Domain.cpu_relax ();
      cell t i
    end

  let get t i = Atomic.get (cell t i)
  let set t i v = Atomic.set (cell t i) v
  let cas t i expected desired = Atomic.compare_and_set (cell t i) expected desired

  (* Make sure cell [i] exists; amortized O(1), takes the lock only when a
     new chunk is actually needed. *)
  let ensure t i =
    if i >= capacity t then begin
      Mutex.lock t.grow_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.grow_lock)
        (fun () ->
          while i >= capacity t do
            let dir = Atomic.get t.directory in
            let base = Array.length dir * t.chunk_size in
            let chunk =
              Array.init t.chunk_size (fun j -> Atomic.make (t.init ~base j))
            in
            (* A crash at either site dies inside the [Fun.protect], so the
               growth lock is released and readers spin-bounded on it see a
               definitive directory; pre kills before the new chunk is
               visible (allocation lost, never reachable), post kills after
               publication (chunk live, grower dead). *)
            if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Chunk_publish_pre;
            Atomic.set t.directory (Array.append dir [| chunk |]);
            if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Chunk_publish_post
          done)
    end

  let chunk_count t = Array.length (Atomic.get t.directory)
end

module Memory = struct
  type t = Chunked.t

  let read = Chunked.get
  let cas = Chunked.cas

  (* Cells are boxed [Atomic.t]s inside chunks: no cheaper weak CAS exists
     (the strong one is a valid weak CAS), and prefetching would only pull
     the box pointer, so it is a no-op. *)
  let cas_weak = Chunked.cas
  let prefetch _ _ = ()
end

module Algo = Dsu_algorithm.Make (Memory) (Dsu_algorithm.By_id (Memory))

type t = {
  parents : Chunked.t;
  prios : Chunked.t;
  next : int Atomic.t;
  rng_state : int Atomic.t;
  algo : Algo.t;
}

let mix64 z =
  let z = Int64.of_int z in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 2)

let create ?policy ?early ?(collect_stats = false) ?(chunk_size = 1024)
    ?(seed = 0x51ed2701) () =
  let parents = Chunked.create ~chunk_size ~init:(fun ~base j -> base + j) in
  let prios = Chunked.create ~chunk_size ~init:(fun ~base:_ _ -> 0) in
  let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
  let algo =
    (* The functor needs a bound for its range checks; the universe is
       unbounded, so give it the largest representable one and do real
       bounds checking against [cardinal] here. *)
    Algo.create ?policy ?early ?stats ~mem:parents ~n:max_int
      ~prio:(fun i -> Chunked.get prios i)
      ()
  in
  { parents; prios; next = Atomic.make 0; rng_state = Atomic.make seed; algo }

let cardinal t = Atomic.get t.next

let make_set t =
  let slot = Atomic.fetch_and_add t.next 1 in
  Chunked.ensure t.parents slot;
  Chunked.ensure t.prios slot;
  let r = Atomic.fetch_and_add t.rng_state 0x632be59bd9b4e019 in
  (* After both [ensure]s: storage for the slot exists, so a crash here
     leaves a live element with the default priority 0 (tolerated by the
     tie-break), never a claimed slot without storage. *)
  if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Make_set_publish;
  Chunked.set t.prios slot (mix64 r);
  slot

let check t x =
  if x < 0 || x >= cardinal t then
    invalid_arg "Growable_unbounded: element was not created"

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
  Chunked.get t.prios x

let stats t =
  match Algo.stats t.algo with None -> Dsu_stats.zero | Some s -> Dsu_stats.snapshot s

let count_sets t =
  let c = ref 0 in
  for i = 0 to cardinal t - 1 do
    if Chunked.get t.parents i = i then incr c
  done;
  !c

let chunk_count t = Chunked.chunk_count t.parents
