module A = Repro_util.Flat_atomic_array
module Fi = Repro_fault.Inject

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* Element [i] lives in chunk [i lsr chunk_bits], a flat array of
   [2 * chunk_size] words holding its parent and its priority side by
   side, so a link's priority reads hit the cache line of the root's
   parent word that [find] just loaded.  (Parents and priorities in two
   halves of the chunk kept [find]'s footprint dense but measured about
   4% slower on [unite] at n = 2^20; see docs/PERFORMANCE.md.) *)
let[@inline] parent_word i = (i land chunk_mask) lsl 1
let[@inline] prio_word i = ((i land chunk_mask) lsl 1) lor 1

(* The chunk directory: an immutable array of chunks, republished by one
   CAS on [dir] whenever it grows.  A chunk is fully initialised (parents
   self, priorities 0) before the CAS publishes it, so a reader that loads
   a directory sees its chunks' contents.  Every published directory
   extends the previous one, so an older one is a prefix of the current. *)
module Memory = struct
  type t = {
    dir : A.t array Atomic.t;
    mutable seen : A.t array;
        (** a directory once loaded from [dir], so a prefix of the current
            one; the cell accessors index it to save the [Atomic]'s hop
            and refresh it only when it is too short.  A racing refresh may
            store an older directory, which costs only a later refresh. *)
    order : Memory_order.t;
  }

  let new_chunk c =
    A.make (2 * chunk_size) (fun w ->
        if w land 1 = 0 then (c lsl chunk_bits) lor (w lsr 1) else 0)

  (* Cells covered by the published directory. *)
  let[@inline] cells t = Array.length (Atomic.get t.dir) lsl chunk_bits

  (* [A.t] is abstract, so indexing an [A.t array] directly compiles to
     the generic array access (a float check and a boxing path); a chunk
     is a boxed record, so read the directory as an array of pointers. *)
  let[@inline] chunk_at (dir : A.t array) c : A.t =
    Obj.magic (Array.unsafe_get (Obj.magic dir : string array) c)

  (* Only an index covered by a published chunk ever reaches the cell
     accessors: the entry check rejects the rest, and a link stores only
     checked nodes or their ancestors.  A directory load can still trail
     the parent load that produced the index on weakly ordered hardware,
     so [refresh] re-loads until the publication shows.  Each accessor
     calls it only when [seen] falls short and then retries by a tail
     call, which keeps its fast path free of spills. *)
  let rec refresh t i =
    let dir = Atomic.get t.dir in
    if i lsr chunk_bits < Array.length dir then t.seen <- dir
    else begin
      Domain.cpu_relax ();
      refresh t i
    end

  (* Whether a published chunk covers cell [i]; [seen] answers most
     calls without the [Atomic]'s hop. *)
  let[@inline] covers t i =
    let c = i lsr chunk_bits in
    c < Array.length t.seen || c < Array.length (Atomic.get t.dir)

  (* Parent reads per mode, as in {!Native_memory}. *)
  let rec read t i =
    let seen = t.seen in
    let c = i lsr chunk_bits in
    if c < Array.length seen then
      let ch = chunk_at seen c in
      match t.order with
      | Memory_order.Relaxed_reads -> A.unsafe_load ch (parent_word i)
      | Memory_order.Acquire -> A.unsafe_get_acquire ch (parent_word i)
      | Memory_order.Seq_cst -> A.unsafe_get ch (parent_word i)
    else begin
      refresh t i;
      read t i
    end

  let rec cas t i expected desired =
    let seen = t.seen in
    let c = i lsr chunk_bits in
    if c < Array.length seen then
      A.unsafe_cas (chunk_at seen c) (parent_word i) expected desired
    else begin
      refresh t i;
      cas t i expected desired
    end

  let rec cas_weak t i expected desired =
    let seen = t.seen in
    let c = i lsr chunk_bits in
    if c < Array.length seen then
      let ch = chunk_at seen c in
      match t.order with
      | Memory_order.Seq_cst -> A.unsafe_cas ch (parent_word i) expected desired
      | Memory_order.Acquire | Memory_order.Relaxed_reads ->
        A.unsafe_cas_weak ch (parent_word i) expected desired
    else begin
      refresh t i;
      cas_weak t i expected desired
    end

  (* Batch kernels prefetch ahead of validation: an index outside the
     directory (negative ones included, via [lsr]) is ignored. *)
  let prefetch t i =
    let seen = t.seen in
    let c = i lsr chunk_bits in
    if c < Array.length seen then A.unsafe_prefetch (chunk_at seen c) (parent_word i)

  (* Acquire: pairs with the release store of [set_prio]. *)
  let rec prio t i =
    let seen = t.seen in
    let c = i lsr chunk_bits in
    if c < Array.length seen then A.unsafe_get_acquire (chunk_at seen c) (prio_word i)
    else begin
      refresh t i;
      prio t i
    end

  (* Only after [ensure t i], whose directory load covered [i]: a later
     load by the same domain covers it too. *)
  let set_prio t i p =
    A.unsafe_set_release (chunk_at (Atomic.get t.dir) (i lsr chunk_bits)) (prio_word i) p

  (* Publish chunks until cell [i] is covered.  Lock-free: a failed CAS
     means another grower published a chunk, and the loop re-reads.  A
     crash at [Chunk_publish_pre] loses only the unpublished chunk; one at
     [Chunk_publish_post] leaves the chunk live. *)
  let rec ensure t i =
    let dir = Atomic.get t.dir in
    let c = Array.length dir in
    if i lsr chunk_bits >= c then begin
      let fresh = Array.append dir [| new_chunk c |] in
      if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Chunk_publish_pre;
      if Atomic.compare_and_set t.dir dir fresh && Atomic.get Fi.armed then
        Fi.hit Repro_fault.Site.Chunk_publish_post;
      ensure t i
    end

  (* An empty directory: the first [make_set] publishes chunk 0. *)
  let create order = { dir = Atomic.make [||]; seen = [||]; order }
end

module Algo = Dsu_algorithm.Make (Memory) (Dsu_algorithm.By_id (Memory))

type t = {
  mem : Memory.t;
  next : int Atomic.t;  (** slots claimed by [make_set] *)
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

(* Element [i]'s priority is [mix64 (seed + i * prio_step)]. *)
let prio_step = 0x632be59bd9b4e019

let create ?policy ?early ?(memory_order = Memory_order.default)
    ?(collect_stats = false) ?on_link ?(seed = 0x9e3779b9) () =
  let mem = Memory.create memory_order in
  let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
  let algo =
    (* The universe has no bound, so the functor's own range check gets
       the largest one; the real entry check is [check] below. *)
    Algo.create ?policy ?early ?stats ?on_link ~mem ~n:max_int
      ~prio:(fun i -> Memory.prio mem i) ()
  in
  { mem; next = Atomic.make 0; rng_state = Atomic.make seed; algo }

let make_set t =
  let slot = Atomic.fetch_and_add t.next 1 in
  Memory.ensure t.mem slot;
  let r = Atomic.fetch_and_add t.rng_state prio_step in
  (* The slot's storage exists: a crash here leaves a live element with
     the default priority 0, which the tie-breaking order tolerates
     (Lemma 3.1 never needs distinct priorities). *)
  if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Make_set_publish;
  (* Release publication: pairs with the acquire priority loads of the
     linking order before the slot index escapes to any other domain. *)
  Memory.set_prio t.mem slot (mix64 r);
  slot

(* Claimed slots that a published chunk covers: a slot claimed by a
   grower that died before publishing its chunk is not part of it until
   a later [make_set] publishes that chunk. *)
let cardinal t = Int.min (Atomic.get t.next) (Memory.cells t.mem)

let[@inline] check t x =
  if x < 0 || x >= Atomic.get t.next || not (Memory.covers t.mem x) then
    invalid_arg "Growable: element was not created"

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
  Memory.prio t.mem x

let stats t =
  match Algo.stats t.algo with None -> Dsu_stats.zero | Some s -> Dsu_stats.snapshot s

let count_sets t =
  let c = ref 0 in
  for i = 0 to cardinal t - 1 do
    if Memory.read t.mem i = i then incr c
  done;
  !c
