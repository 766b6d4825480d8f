(** Concurrent linking-by-rank DSU over a {e bit-packed} single word per
    node — the GBBS [jayanti.h] layout.

    Packing [(rank, parent)] with arithmetic coding ([word = rank * n +
    parent]) makes every hop pay an integer division and a modulo by the
    {e non-constant} [n] to unpack, which the compiler cannot
    strength-reduce.  Here the word is split into fixed bit fields, so
    unpacking is a mask and a shift and the root test is a single bit
    test:

    {v
      bit 62        (unused — OCaml ints are 63-bit)
      bit 61        root flag (set iff the node is a tree root)
      bits 40..60   rank (21 bits)
      bits  0..39   parent index (40 bits)
    v}

    Link and split each remain a single CAS on the one word, updating
    parent and rank atomically, with no indirection.  The layout bounds
    the universe to [n <= 2^40] nodes (checked at [create]); ranks never
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

module Make (M : Memory_intf.S) = struct
  module Backoff = Repro_util.Backoff

  type t = {
    mem : M.t;
    n : int;
    policy : Find_policy.t;
    backoff : bool;
    stats : Dsu_stats.t option;
    on_link : (child:int -> parent:int -> unit) option;
  }

  let create ?(policy = Find_policy.Two_try_splitting) ?(backoff = true) ?stats
      ?on_link ~mem ~n () =
    if n < 1 || n > max_nodes then
      invalid_arg
        (Printf.sprintf
           "Packed_dsu.create: n must be in [1, 2^%d] (parent field is %d \
            bits)"
           parent_bits parent_bits);
    { mem; n; policy; backoff; stats; on_link }

  let record_link t ~child ~parent =
    match t.on_link with None -> () | Some f -> f ~child ~parent

  let n t = t.n
  let mem t = t.mem
  let policy t = t.policy
  let backoff t = t.backoff

  let bump t f = match t.stats with None -> () | Some s -> f s

  (* Instrumented-twin pattern of {!Dsu_algorithm}: each find loop exists
     twice (plain and [_obs], the latter carrying the telemetry hooks and
     labeled fault-injection sites), and [find_root] picks a body with one
     atomic load each of [Dsu_obs.armed] and [Repro_fault.Inject.armed]
     per traversal. *)
  module Fi = Repro_fault.Inject

  let[@inline] fault_hop () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Find_hop

  let[@inline] fault_gap () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Split_read_gap

  let[@inline] fault_rank_read () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Rank_read

  let[@inline] fault_split_pre () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Split_cas_pre

  let[@inline] fault_split_post () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Split_cas_post

  let[@inline] fault_link_pre () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Link_cas_pre

  let[@inline] fault_link_post () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Link_cas_post

  (* Algorithm 1 on packed words: rootness is the flag bit, so each hop is
     one load, one bit test and one mask. *)
  let find_no_compaction t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      let w = M.read t.mem u in
      if is_root_word w then u else loop (parent_of_word w)
    in
    loop x

  let find_no_compaction_obs t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      Dsu_obs.on_find_iter ();
      fault_hop ();
      let w = M.read t.mem u in
      if is_root_word w then u else loop (parent_of_word w)
    in
    loop x

  (* One-try splitting: swing [u]'s parent to its grandparent with a weak
     CAS (rank bits preserved), advance one hop. *)
  let find_one_try t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      let wu = M.read t.mem u in
      if is_root_word wu then u
      else begin
        let v = parent_of_word wu in
        let wv = M.read t.mem v in
        if is_root_word wv then v
        else begin
          let ok = M.cas_weak t.mem u wu (with_parent wu (parent_of_word wv)) in
          bump t (Dsu_stats.incr_compaction_cas ~ok);
          loop v
        end
      end
    in
    loop x

  let find_one_try_obs t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      Dsu_obs.on_find_iter ();
      fault_hop ();
      let wu = M.read t.mem u in
      if is_root_word wu then u
      else begin
        let v = parent_of_word wu in
        fault_gap ();
        let wv = M.read t.mem v in
        if is_root_word wv then v
        else begin
          fault_split_pre ();
          let ok = M.cas_weak t.mem u wu (with_parent wu (parent_of_word wv)) in
          bump t (Dsu_stats.incr_compaction_cas ~ok);
          Dsu_obs.on_compaction_cas ~node:u ~ok;
          fault_split_post ();
          loop v
        end
      end
    in
    loop x

  (* Two-try splitting (Algorithm 5, re-coded on the bit fields):
     each node gets two splitting attempts before the traversal advances. *)
  let find_two_try t x =
    let try_split u =
      let wu = M.read t.mem u in
      if is_root_word wu then `Root u
      else begin
        let v = parent_of_word wu in
        let wv = M.read t.mem v in
        if is_root_word wv then `Root v
        else begin
          let ok = M.cas_weak t.mem u wu (with_parent wu (parent_of_word wv)) in
          bump t (Dsu_stats.incr_compaction_cas ~ok);
          `Advance v
        end
      end
    in
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      match try_split u with
      | `Root r -> r
      | `Advance _ -> (
        match try_split u with `Root r -> r | `Advance v -> loop v)
    in
    loop x

  let find_two_try_obs t x =
    let try_split u =
      let wu = M.read t.mem u in
      if is_root_word wu then `Root u
      else begin
        let v = parent_of_word wu in
        fault_gap ();
        let wv = M.read t.mem v in
        if is_root_word wv then `Root v
        else begin
          fault_split_pre ();
          let ok = M.cas_weak t.mem u wu (with_parent wu (parent_of_word wv)) in
          bump t (Dsu_stats.incr_compaction_cas ~ok);
          Dsu_obs.on_compaction_cas ~node:u ~ok;
          fault_split_post ();
          `Advance v
        end
      end
    in
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      Dsu_obs.on_find_iter ();
      fault_hop ();
      match try_split u with
      | `Root r -> r
      | `Advance _ -> (
        match try_split u with `Root r -> r | `Advance v -> loop v)
    in
    loop x

  (* Path halving: the one-try CAS, but the traversal advances two hops. *)
  let find_halving t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      let wu = M.read t.mem u in
      if is_root_word wu then u
      else begin
        let v = parent_of_word wu in
        let wv = M.read t.mem v in
        if is_root_word wv then v
        else begin
          let g = parent_of_word wv in
          let ok = M.cas_weak t.mem u wu (with_parent wu g) in
          bump t (Dsu_stats.incr_compaction_cas ~ok);
          loop g
        end
      end
    in
    loop x

  let find_halving_obs t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      Dsu_obs.on_find_iter ();
      fault_hop ();
      let wu = M.read t.mem u in
      if is_root_word wu then u
      else begin
        let v = parent_of_word wu in
        fault_gap ();
        let wv = M.read t.mem v in
        if is_root_word wv then v
        else begin
          let g = parent_of_word wv in
          fault_split_pre ();
          let ok = M.cas_weak t.mem u wu (with_parent wu g) in
          bump t (Dsu_stats.incr_compaction_cas ~ok);
          Dsu_obs.on_compaction_cas ~node:u ~ok;
          fault_split_post ();
          loop g
        end
      end
    in
    loop x

  (* Two-pass compression: pass one records each (node, observed word)
     pair; pass two swings each recorded parent to the found root — every
     successful CAS is an ancestor move, so Lemma 3.1 applies. *)
  let find_compression t x =
    let rec walk u acc =
      bump t Dsu_stats.incr_find_iter;
      let w = M.read t.mem u in
      if is_root_word w then (u, acc) else walk (parent_of_word w) ((u, w) :: acc)
    in
    let root, path = walk x [] in
    List.iter
      (fun (u, wu) ->
        if parent_of_word wu <> root then begin
          let ok = M.cas_weak t.mem u wu (with_parent wu root) in
          bump t (Dsu_stats.incr_compaction_cas ~ok)
        end)
      path;
    root

  let find_compression_obs t x =
    let rec walk u acc =
      bump t Dsu_stats.incr_find_iter;
      Dsu_obs.on_find_iter ();
      fault_hop ();
      let w = M.read t.mem u in
      if is_root_word w then (u, acc) else walk (parent_of_word w) ((u, w) :: acc)
    in
    let root, path = walk x [] in
    List.iter
      (fun (u, wu) ->
        if parent_of_word wu <> root then begin
          fault_split_pre ();
          let ok = M.cas_weak t.mem u wu (with_parent wu root) in
          bump t (Dsu_stats.incr_compaction_cas ~ok);
          Dsu_obs.on_compaction_cas ~node:u ~ok;
          fault_split_post ()
        end)
      path;
    root

  let find_root t x =
    bump t Dsu_stats.incr_find;
    if Atomic.get Dsu_obs.armed || Atomic.get Fi.armed then begin
      Dsu_obs.find_begin x;
      let root =
        match t.policy with
        | Find_policy.No_compaction -> find_no_compaction_obs t x
        | Find_policy.One_try_splitting -> find_one_try_obs t x
        | Find_policy.Two_try_splitting -> find_two_try_obs t x
        | Find_policy.Halving -> find_halving_obs t x
        | Find_policy.Compression -> find_compression_obs t x
      in
      Dsu_obs.find_end x root;
      root
    end
    else
      match t.policy with
      | Find_policy.No_compaction -> find_no_compaction t x
      | Find_policy.One_try_splitting -> find_one_try t x
      | Find_policy.Two_try_splitting -> find_two_try t x
      | Find_policy.Halving -> find_halving t x
      | Find_policy.Compression -> find_compression t x

  let check_node t x =
    if x < 0 || x >= t.n then invalid_arg "Packed_dsu: node out of range"

  let find t x =
    check_node t x;
    find_root t x

  let same_set t x y =
    check_node t x;
    check_node t y;
    bump t Dsu_stats.incr_same_set;
    let rec loop u v ~first =
      if not first then begin
        bump t Dsu_stats.incr_outer_retry;
        if Atomic.get Dsu_obs.armed then Dsu_obs.on_outer_retry ()
      end;
      let u = find_root t u in
      let v = find_root t v in
      if u = v then true
      else if is_root_word (M.read t.mem u) then false
      else loop u v ~first:false
    in
    loop x y ~first:true

  (* Linking by rank: the lower-ranked root is linked below the higher;
     rank ties break by node index, and the winner's rank promotion is a
     separate best-effort CAS (losing it means someone else promoted or
     linked the winner first, both fine).  The link CAS re-validates the
     whole packed word — parent {e and} rank — so a stale rank read only
     costs a retry.  A failed link backs off like {!Dsu_algorithm}. *)
  let unite_rounds t x y ~on_settled =
    let rec loop u v spins ~first =
      if not first then begin
        bump t Dsu_stats.incr_outer_retry;
        if Atomic.get Dsu_obs.armed then Dsu_obs.on_outer_retry ()
      end;
      let u = find_root t u in
      let v = find_root t v in
      if u = v then on_settled u
      else begin
        let wu = M.read t.mem u in
        let wv = M.read t.mem v in
        fault_rank_read ();
        if not (is_root_word wu && is_root_word wv) then
          loop u v spins ~first:false
        else begin
          let link child wc parent =
            fault_link_pre ();
            let ok =
              M.cas t.mem child wc
                (child_word ~rank:(rank_of_word wc) ~parent)
            in
            bump t (Dsu_stats.incr_link_cas ~ok);
            if ok then record_link t ~child ~parent;
            if Atomic.get Dsu_obs.armed then Dsu_obs.on_link_cas ~node:child ~ok;
            fault_link_post ();
            ok
          in
          let retry () =
            loop u v (if t.backoff then Backoff.once spins else spins)
              ~first:false
          in
          let ru = rank_of_word wu and rv = rank_of_word wv in
          if ru < rv then if link u wu v then on_settled v else retry ()
          else if rv < ru then if link v wv u then on_settled u else retry ()
          else if u < v then begin
            if link u wu v then begin
              ignore (M.cas t.mem v wv (root_word ~rank:(rv + 1) ~node:v));
              on_settled v
            end
            else retry ()
          end
          else if link v wv u then begin
            ignore (M.cas t.mem u wu (root_word ~rank:(ru + 1) ~node:u));
            on_settled u
          end
          else retry ()
        end
      end
    in
    loop x y Backoff.initial ~first:true

  let unite t x y =
    check_node t x;
    check_node t y;
    bump t Dsu_stats.incr_unite;
    unite_rounds t x y ~on_settled:(fun _ -> ())

  (* ---------------------------------------------------- bulk kernels *)

  (* The {!Dsu_algorithm} batched kernels, unchanged in structure: the
     direct-mapped root cache is sound because packed parents also only
     ever move to proper ancestors (splitting/halving/compression swing to
     grandparents or the observed root; links point a root at another
     root), and prefetching the packed cell warms the only word a hop
     touches. *)
  let cache_bits = 8
  let cache_size = 1 lsl cache_bits
  let cache_mask = cache_size - 1
  let prefetch_dist = 8

  (* A common ancestor of [u] and [v] once they are in one set (the link
     target on success, the shared root when already joined). *)
  let settle_unite t u v = unite_rounds t u v ~on_settled:(fun a -> a)

  let check_batch t op xs ys =
    let len = Array.length xs in
    if Array.length ys <> len then
      invalid_arg
        (Printf.sprintf "Packed_dsu.%s: endpoint arrays differ in length" op);
    for k = 0 to len - 1 do
      check_node t (Array.unsafe_get xs k);
      check_node t (Array.unsafe_get ys k)
    done;
    len

  let[@inline] cache_hint keys anc x =
    let slot = x land cache_mask in
    if Array.unsafe_get keys slot = x then Array.unsafe_get anc slot else x

  let[@inline] cache_store keys anc x a =
    let slot = x land cache_mask in
    Array.unsafe_set keys slot x;
    Array.unsafe_set anc slot a

  let unite_batch t xs ys =
    let len = check_batch t "unite_batch" xs ys in
    let keys = Array.make cache_size (-1) and anc = Array.make cache_size 0 in
    for k = 0 to len - 1 do
      if k + prefetch_dist < len then begin
        M.prefetch t.mem (Array.unsafe_get xs (k + prefetch_dist));
        M.prefetch t.mem (Array.unsafe_get ys (k + prefetch_dist))
      end;
      let x = Array.unsafe_get xs k and y = Array.unsafe_get ys k in
      bump t Dsu_stats.incr_unite;
      let a = settle_unite t (cache_hint keys anc x) (cache_hint keys anc y) in
      cache_store keys anc x a;
      cache_store keys anc y a
    done

  let same_set_batch t xs ys =
    let len = check_batch t "same_set_batch" xs ys in
    let keys = Array.make cache_size (-1) and anc = Array.make cache_size 0 in
    let out = Array.make len false in
    for k = 0 to len - 1 do
      if k + prefetch_dist < len then begin
        M.prefetch t.mem (Array.unsafe_get xs (k + prefetch_dist));
        M.prefetch t.mem (Array.unsafe_get ys (k + prefetch_dist))
      end;
      let x = Array.unsafe_get xs k and y = Array.unsafe_get ys k in
      bump t Dsu_stats.incr_same_set;
      let rec loop u v ~first =
        if not first then begin
          bump t Dsu_stats.incr_outer_retry;
          if Atomic.get Dsu_obs.armed then Dsu_obs.on_outer_retry ()
        end;
        let u = find_root t u in
        let v = find_root t v in
        if u = v then begin
          cache_store keys anc x u;
          cache_store keys anc y u;
          true
        end
        else if is_root_word (M.read t.mem u) then begin
          cache_store keys anc x u;
          cache_store keys anc y v;
          false
        end
        else loop u v ~first:false
      in
      Array.unsafe_set out k
        (loop (cache_hint keys anc x) (cache_hint keys anc y) ~first:true)
    done;
    out

  let find_batch t xs =
    let len = Array.length xs in
    for k = 0 to len - 1 do
      check_node t (Array.unsafe_get xs k)
    done;
    let keys = Array.make cache_size (-1) and anc = Array.make cache_size 0 in
    let out = Array.make len 0 in
    for k = 0 to len - 1 do
      if k + prefetch_dist < len then
        M.prefetch t.mem (Array.unsafe_get xs (k + prefetch_dist));
      let x = Array.unsafe_get xs k in
      (* [find_root] bumps [incr_find] itself, as in [find]. *)
      let r = find_root t (cache_hint keys anc x) in
      cache_store keys anc x r;
      Array.unsafe_set out k r
    done;
    out

  (* Quiescent inspection helpers. *)

  let parent_of t x =
    check_node t x;
    parent_of_word (M.read t.mem x)

  let rank_of t x =
    check_node t x;
    rank_of_word (M.read t.mem x)

  let is_root t x =
    check_node t x;
    is_root_word (M.read t.mem x)

  let count_sets t =
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      if is_root_word (M.read t.mem i) then incr c
    done;
    !c

  let stats t =
    match t.stats with None -> Dsu_stats.zero | Some s -> Dsu_stats.snapshot s

  let parents_snapshot t =
    Array.init t.n (fun i -> parent_of_word (M.read t.mem i))

  let ranks_snapshot t = Array.init t.n (fun i -> rank_of_word (M.read t.mem i))

  (* Fuzzy (non-quiescent) scan; see {!Dsu_native.snapshot_fuzzy} — one
     word read per node keeps each (rank, parent) pair internally
     consistent, and cross-node order violations from racing rank
     promotions are left to the {!Repro_durable.Fuzzy} reconciliation
     pass. *)
  let snapshot_fuzzy t =
    let parents = Array.make t.n 0 and ranks = Array.make t.n 0 in
    for i = 0 to t.n - 1 do
      if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Snapshot_read;
      let w = M.read t.mem i in
      parents.(i) <- parent_of_word w;
      ranks.(i) <- rank_of_word w
    done;
    (parents, ranks)

  (* The by-rank order invariant (the linking-by-rank analogue of Lemma 3.1):
     every non-root points to a strictly larger rank, ties broken by node
     index.  The root flag must also agree with the parent field. *)
  let invariant_violations t =
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      let w = M.read t.mem i in
      let p = parent_of_word w and r = rank_of_word w in
      if is_root_word w then begin
        if p <> i then acc := (i, p) :: !acc
      end
      else begin
        let wp = M.read t.mem p in
        let rp = rank_of_word wp in
        if p = i || not (r < rp || (r = rp && i < p)) then acc := (i, p) :: !acc
      end
    done;
    !acc
end

(** Native instantiation over {!Native_memory}: the explicit-order
    [Flat_atomic_array] primitives, so parent-word loads follow the chosen
    {!Memory_order} mode and both CASes hit the flat array directly. *)
module Native = struct
  module A = Make (Native_memory)

  type t = A.t

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
    let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
    let mem =
      Native_memory.make ~padded ?order:memory_order n (fun i -> init_word i)
    in
    A.create ?policy ?backoff ?stats ?on_link ~mem ~n ()

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

  let parent_of = A.parent_of
  let rank_of = A.rank_of
  let is_root = A.is_root
  let count_sets = A.count_sets
  let stats = A.stats
  let invariant_violations = A.invariant_violations
  let memory_order t = Native_memory.order (A.mem t)
  let parents_snapshot = A.parents_snapshot
  let ranks_snapshot = A.ranks_snapshot
  let snapshot_fuzzy = A.snapshot_fuzzy

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
    let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
    let mem =
      Native_memory.make ~padded ?order:memory_order n (fun i ->
          if parents.(i) = i then root_word ~rank:ranks.(i) ~node:i
          else child_word ~rank:ranks.(i) ~parent:parents.(i))
    in
    A.create ?policy ?backoff ?stats ?on_link ~mem ~n ()
end
