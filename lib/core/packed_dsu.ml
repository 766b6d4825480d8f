(** Concurrent linking-by-rank DSU over a {e bit-packed} single word per
    node — the GBBS [jayanti.h] layout — as an instance of
    {!Dsu_algorithm.Make}.

    Packing [(rank, parent)] with arithmetic coding ([word = rank * n +
    parent]) makes every hop pay an integer division and a modulo by the
    {e non-constant} [n] to unpack, which the compiler cannot
    strength-reduce.  Here the word is split into fixed bit fields, so
    unpacking is a mask and a shift:

    {v
      bit 62        (unused — OCaml ints are 63-bit)
      bit 61        root flag (set iff the node is a tree root)
      bits 40..60   rank (21 bits)
      bits  0..39   parent index (40 bits)
    v}

    A root's parent field is its own index, so the find loops, SameSet
    and Unite rounds and batch kernels of {!Dsu_algorithm} run unchanged
    over a memory {!View} whose [read] returns the parent field.  Only the
    link step differs ({!By_rank}).  Link and split each remain a single
    CAS on the one word, with no indirection.  The layout bounds the
    universe to [n <= 2^40] nodes (checked at [create]); ranks never
    exceed [ceil(lg n) <= 40], far below the 21-bit field's 2^21 - 1.

    Linking is by rank with ties broken by node index (the winner's rank
    promotion is a separate, best-effort CAS), so — as Section 7
    announces for linking by rank — the structure needs no independence
    assumption; [find] supports all five compaction policies with
    rank-preserving updates. *)

(* ------------------------------------------------------- word layout *)

let parent_bits = 40
let rank_bits = 21
let rank_shift = parent_bits
let root_bit = 1 lsl (parent_bits + rank_bits)
let max_nodes = 1 lsl parent_bits
let max_rank = (1 lsl rank_bits) - 1
let parent_mask = max_nodes - 1
let rank_field = max_rank lsl rank_shift

let[@inline] is_root_word w = w land root_bit <> 0
let[@inline] parent_of_word w = w land parent_mask
let[@inline] rank_of_word w = (w land rank_field) lsr rank_shift
let[@inline] root_word ~rank ~node = root_bit lor (rank lsl rank_shift) lor node
let[@inline] child_word ~rank ~parent = (rank lsl rank_shift) lor parent

(* Swing a word's parent field, preserving the rank bits; the root flag is
   cleared (a node given a parent is by definition not a root). *)
let[@inline] with_parent w parent = (w land rank_field) lor parent

let init_word i = root_bit lor i

(* ------------------------------------------------------ memory view *)

(* The parent-field view of a packed memory.  A split CAS re-reads the
   word and swings its parent field with the rank bits preserved: sound
   because a non-root's rank never changes and its parent only moves to a
   proper ancestor (Lemma 3.1), so a word whose parent field is still
   [expected] is the word the caller's reads saw.  No split targets a
   root: a node's parent field is its own index only while it is a root,
   and never again once it is linked, so [with_parent]'s cleared root
   flag never links. *)
module View (M : Memory_intf.S) = struct
  type t = M.t

  let read m i = parent_of_word (M.read m i)

  (* Retried while only the rank bits moved (a racing promotion), so a
     failure still means the parent field did not hold [expected]. *)
  let rec cas m i expected desired =
    let w = M.read m i in
    parent_of_word w = expected
    && (M.cas m i w (with_parent w desired) || cas m i expected desired)

  let cas_weak m i expected desired =
    let w = M.read m i in
    parent_of_word w = expected && M.cas_weak m i w (with_parent w desired)

  let prefetch = M.prefetch
end

(* ---------------------------------------------------------- link rule *)

(* Linking by rank: the lower-ranked root is linked below the higher; rank
   ties break by node index, and the winner's rank promotion is a
   separate best-effort CAS (losing it means someone else promoted or
   linked the winner first, both fine).  The ranks come from the very
   words the link CAS expects, not from [prio]: a rank promoted after the
   comparison fails the CAS instead of linking out of order. *)
module By_rank (M : Memory_intf.S) = struct
  type mem = M.t

  let link_below m c wc p wp =
    Dsu_algorithm.fault_link_pre ();
    if M.cas m c wc (child_word ~rank:(rank_of_word wc) ~parent:p) then begin
      let rp = rank_of_word wp in
      if rank_of_word wc = rp then
        ignore (M.cas m p wp (root_word ~rank:(rp + 1) ~node:p) : bool);
      c
    end
    else lnot c

  let link m ~prio:_ (u : int) (v : int) =
    let wu = M.read m u in
    let wv = M.read m v in
    if Atomic.get Repro_fault.Inject.armed then
      Repro_fault.Inject.hit Repro_fault.Site.Rank_read;
    if not (is_root_word wu && is_root_word wv) then Dsu_algorithm.stale
    else begin
      let ru = rank_of_word wu and rv = rank_of_word wv in
      if ru < rv || (ru = rv && u < v) then link_below m u wu v wv
      else link_below m v wv u wu
    end
end

(** Native instantiation over {!Native_memory}: the explicit-order
    [Flat_atomic_array] primitives, so parent-word loads follow the chosen
    {!Memory_order} mode and both CASes hit the flat array directly. *)
module Native = struct
  (* {!View} over {!Native_memory}, written out over the flat array: a
     functor view calls [Native_memory.read] through a second indirect call
     on every access (no flambda), which cost packed [unite] about 13% at
     n = 2^12 (docs/PERFORMANCE.md, "Packed").  The loads and CASes per
     memory order are {!Native_memory}'s. *)
  module Native_view = struct
    module F = Repro_util.Flat_atomic_array

    type t = Native_memory.t

    let word (m : t) i =
      match m.order with
      | Memory_order.Relaxed_reads -> F.unsafe_load m.arr i
      | Memory_order.Acquire -> F.unsafe_get_acquire m.arr i
      | Memory_order.Seq_cst -> F.unsafe_get m.arr i

    let read m i = parent_of_word (word m i)

    let rec cas (m : t) i expected desired =
      let w = word m i in
      parent_of_word w = expected
      && (F.unsafe_cas m.arr i w (with_parent w desired)
         || cas m i expected desired)

    let cas_weak (m : t) i expected desired =
      let w = word m i in
      parent_of_word w = expected
      &&
      match m.order with
      | Memory_order.Seq_cst -> F.unsafe_cas m.arr i w (with_parent w desired)
      | Memory_order.Acquire | Memory_order.Relaxed_reads ->
        F.unsafe_cas_weak m.arr i w (with_parent w desired)

    let prefetch (m : t) i = F.unsafe_prefetch m.arr i
  end

  module A = Dsu_algorithm.Make (Native_view) (By_rank (Native_memory))

  type t = A.t

  (* [prio] is the live rank, the order the words maintain; [rank_of] and
     [ranks_snapshot] read it.  The rounds never call it: {!By_rank}
     compares the ranks in the words its CAS expects. *)
  let make ?policy ?backoff ?memory_order ~collect_stats ~padded ?on_link n
      init =
    let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
    let mem = Native_memory.make ~padded ?order:memory_order n init in
    A.create ?policy ?backoff ?stats ?on_link ~mem ~n
      ~prio:(fun i -> rank_of_word (Native_memory.read mem i))
      ()

  let create ?policy ?backoff ?memory_order ?(collect_stats = false)
      ?(padded = false) ?on_link n =
    (* Bounds-check before allocating: n > max_nodes must raise
       Invalid_argument, not attempt a 2^40-word allocation. *)
    if n < 1 || n > max_nodes then
      invalid_arg
        (Printf.sprintf
           "Packed_dsu.create: n must be in [1, 2^%d] (parent field is %d \
            bits)"
           parent_bits parent_bits);
    make ?policy ?backoff ?memory_order ~collect_stats ~padded ?on_link n
      init_word

  let n = A.n
  let policy = A.policy
  let backoff = A.backoff

  (* Top-level operations time themselves when telemetry is armed, exactly
     as {!Dsu_native} does. *)

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

  let parent_of = A.parent_of
  let is_root = A.is_root
  let count_sets = A.count_sets

  let rank_of t x =
    if x < 0 || x >= A.n t then invalid_arg "Packed_dsu: node out of range";
    A.id t x

  let stats t =
    match A.stats t with None -> Dsu_stats.zero | Some s -> Dsu_stats.snapshot s

  let memory_order t = Native_memory.order (A.mem t)
  let word t i = Native_view.word (A.mem t) i
  let parents_snapshot t = Array.init (A.n t) (A.parent_of t)
  let ranks_snapshot t = Array.init (A.n t) (A.id t)

  (* Fuzzy (non-quiescent) scan; see {!Dsu_native.snapshot_fuzzy} — one
     word read per node keeps each (rank, parent) pair internally
     consistent, and cross-node order violations from racing rank
     promotions are left to the {!Repro_durable.Fuzzy} reconciliation
     pass. *)
  let snapshot_fuzzy t =
    let n = A.n t in
    let parents = Array.make n 0 and ranks = Array.make n 0 in
    for i = 0 to n - 1 do
      if Atomic.get Repro_fault.Inject.armed then
        Repro_fault.Inject.hit Repro_fault.Site.Snapshot_read;
      let w = word t i in
      parents.(i) <- parent_of_word w;
      ranks.(i) <- rank_of_word w
    done;
    (parents, ranks)

  (* The by-rank order invariant (the linking-by-rank analogue of Lemma 3.1):
     every non-root points to a strictly larger rank, ties broken by node
     index.  The root flag must also agree with the parent field. *)
  let invariant_violations t =
    let acc = ref [] in
    for i = A.n t - 1 downto 0 do
      let w = word t i in
      let p = parent_of_word w and r = rank_of_word w in
      if is_root_word w then begin
        if p <> i then acc := (i, p) :: !acc
      end
      else begin
        let rp = rank_of_word (word t p) in
        if p = i || not (r < rp || (r = rp && i < p)) then acc := (i, p) :: !acc
      end
    done;
    !acc

  let of_snapshot ?policy ?backoff ?memory_order ?(collect_stats = false)
      ?(padded = false) ?on_link ~parents ~ranks () =
    let n = Array.length parents in
    if n < 1 || Array.length ranks <> n then
      invalid_arg "Packed_dsu.of_snapshot: malformed snapshot";
    if n > max_nodes then
      invalid_arg "Packed_dsu.of_snapshot: n overflows the parent field";
    Array.iteri
      (fun i p ->
        if p < 0 || p >= n then
          invalid_arg "Packed_dsu.of_snapshot: parent out of range";
        if ranks.(i) < 0 || ranks.(i) > max_rank then
          invalid_arg "Packed_dsu.of_snapshot: rank overflows the rank field";
        if
          p <> i
          && not (ranks.(i) < ranks.(p) || (ranks.(i) = ranks.(p) && i < p))
        then invalid_arg "Packed_dsu.of_snapshot: parents violate the rank order")
      parents;
    make ?policy ?backoff ?memory_order ~collect_stats ~padded ?on_link n
      (fun i ->
        if parents.(i) = i then root_word ~rank:ranks.(i) ~node:i
        else child_word ~rank:ranks.(i) ~parent:parents.(i))
end
