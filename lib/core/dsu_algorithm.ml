(** The concurrent disjoint-set-union algorithm of Jayanti and Tarjan,
    parameterized by the shared-memory implementation and the linking rule.

    The functor body transcribes the paper's pseudocode:

    - [find] is Algorithm 1 ([No_compaction]), Algorithm 4
      ([One_try_splitting]) or Algorithm 5 ([Two_try_splitting]);
    - [same_set] and [unite] are Algorithms 2 and 3, or — with
      [~early:true] — the early-termination Algorithms 6 and 7 that
      interleave the two finds and always step from the node with the
      smaller id.

    None of these depends on how two roots are linked, so the linking rule
    is the second functor argument ({!LINK}), consulted only when linking,
    never on a hop:

    - {!By_id} is the paper's randomized linking (Section 3).  Node ids are
      fixed uniformly at random at creation; [Unite] links the root with
      the smaller id below the root with the larger id, so every link is
      one [Cas] on one word and the structure needs no rank or size fields.
      Ids are immutable, so processes read them from ordinary
      (non-shared-memory-step) storage.
    - {!Packed_dsu.By_rank} is Section 7's linking by rank over a packed
      [(root flag, rank, parent)] word, seen through a memory view whose
      [read] returns the parent field.  Early termination needs an order
      that never changes, which only linking by id has, so the packed
      instance does not offer [~early].

    One deliberate deviation from the printed pseudocode: Algorithms 6 and 7
    perform the splitting [Cas(u.parent, z, w)] even when [z = w]; a [Cas]
    that would store the value already present is unobservable, so we skip
    it.  This only lowers constant factors and is noted in EXPERIMENTS.md. *)

(* Telemetry (lib/obs) and fault injection (lib/fault).  A per-hop armed
   test would cost a load, a call and a branch on every parent-pointer
   hop, which is measurable on the native fast path.  So each find loop
   and the early-termination step are written once, as an [[@inline]]
   [..._gen ~obs] body whose telemetry hooks and labeled fault-injection
   sites (see {!Repro_fault.Site}) all sit under [if obs then ...], and
   are compiled twice: [find_two_try] is [find_two_try_gen ~obs:false],
   [find_two_try_obs] is the same call with [~obs:true].  The compiler
   inlines the body into each and folds the constant [obs], so the plain
   specialisation carries no hook at all.  [find_root] picks one with one
   atomic load each of [Dsu_obs.armed] and [Repro_fault.Inject.armed] per
   traversal; the outer rounds test [Dsu_obs.armed] only at their (rare)
   retry and link sites.  The hooks themselves are individually gated too
   (telemetry by the registry switch, fault sites by per-domain
   enrollment), so a stale pick is safe either way.

   Every loop here, the rounds included, is a [while] loop over local
   refs, not a local [let rec]: a recursive closure would be allocated on
   every call, and the inliner does not specialise through one (the
   [~obs:false] caller would jump to a generic body that tests [obs] on
   every hop).  Local refs that no closure captures compile to registers,
   so an operation allocates nothing but what compression records. *)

module Fi = Repro_fault.Inject

(* Shorthands for the compiled-in fault sites.  Each expands to an atomic
   load + branch when fault injection is disarmed; [Fi.hit] may raise
   [Repro_fault.Inject.Crashed] to model crash-stop mid-operation. *)
let[@inline] fault_hop () =
  if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Find_hop

let[@inline] fault_gap () =
  if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Split_read_gap

let[@inline] fault_split_pre () =
  if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Split_cas_pre

let[@inline] fault_split_post () =
  if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Split_cas_post

let[@inline] fault_link_pre () =
  if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Link_cas_pre

let[@inline] fault_link_post () =
  if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Link_cas_post

(* Of the two roots [u] and [v], the one that is not [child]; branch-free,
   because which root becomes the child is a coin flip the branch
   predictor cannot learn. *)
let[@inline] other_root u v child = u lxor v lxor child

(* A link step's result is one unboxed int: the child on a successful
   CAS, [lnot child] on a failed one, [stale] when no CAS was tried. *)
let stale = min_int

module type LINK = sig
  type mem

  val link : mem -> prio:(int -> int) -> int -> int -> int
end

module By_id (M : Memory_intf.S) = struct
  type mem = M.t

  (* Typed [int] so the comparisons compile to integer ones, not calls to
     the polymorphic compare. *)
  let link mem ~(prio : int -> int) (u : int) (v : int) =
    let pu = prio u and pv = prio v in
    let child = if pu < pv || (pu = pv && u < v) then u else v in
    let parent = other_root u v child in
    fault_link_pre ();
    if M.cas mem child child parent then child else lnot child
end

module Make (M : Memory_intf.S) (L : LINK with type mem = M.t) = struct
  module Backoff = Repro_util.Backoff

  type t = {
    mem : M.t;
    n : int;
    prio : int -> int;
        (** [prio i] = node [i]'s position in the linking order: its random
            id under {!By_id}, its current rank under linking by rank.  Ties
            are broken by node index, so priorities need not be distinct
            (needed by the growable extension, where priorities are drawn
            on the fly from a large universe). *)
    policy : Find_policy.t;
    early : bool;
    stats : Dsu_stats.t option;
    on_link : (child:int -> parent:int -> unit) option;
  }

  let create ?(policy = Find_policy.Two_try_splitting) ?(early = false)
      ?stats ?on_link ~mem ~n ~prio () =
    if n < 1 then invalid_arg "Dsu_algorithm.create: n must be >= 1";
    { mem; n; prio; policy; early; stats; on_link }

  let n t = t.n
  let mem t = t.mem
  let policy t = t.policy
  let early t = t.early
  let stats t = t.stats

  let id t i = t.prio i

  let less t u v =
    let pu = t.prio u and pv = t.prio v in
    pu < pv || (pu = pv && u < v)

  let[@inline] bump t f = match t.stats with None -> () | Some s -> f s

  let[@inline] bump_cas t f ~ok =
    match t.stats with None -> () | Some s -> f s ~ok

  let record_link t ~child ~parent =
    match t.on_link with None -> () | Some f -> f ~child ~parent

  (* The pieces every find step is made of, each with its counter and,
     when [obs], its telemetry hook and fault sites. *)

  (* One visited node: counted, then the [Find_hop] fault site. *)
  let[@inline] hop ~obs t =
    bump t Dsu_stats.incr_find_iter;
    if obs then begin
      Dsu_obs.on_find_iter ();
      fault_hop ()
    end

  (* The second read of a splitting step, after the [Split_read_gap] site. *)
  let[@inline] read_gap ~obs t v =
    if obs then fault_gap ();
    M.read t.mem v

  (* A splitting (or compression) CAS of [u]'s parent from [v] to [w]. *)
  let[@inline] split ~obs t u v w =
    if obs then fault_split_pre ();
    let ok = M.cas_weak t.mem u v w in
    bump_cas t Dsu_stats.incr_compaction_cas ~ok;
    if obs then begin
      Dsu_obs.on_compaction_cas ~node:u ~ok;
      fault_split_post ()
    end

  (* Algorithm 1: Find without compaction.  [root] stays [-1] until the
     walk reaches a root, in this loop and the ones below. *)
  let[@inline] find_no_compaction_gen ~obs t x =
    let u = ref x and root = ref (-1) in
    while !root < 0 do
      hop ~obs t;
      let p = M.read t.mem !u in
      if p = !u then root := p else u := p
    done;
    !root

  (* Algorithm 4: Find with one-try splitting.  The splitting update is a
     {e weak} CAS: Algorithm 4 already tolerates a failed try (it advances
     regardless), so a spurious failure is indistinguishable from losing a
     race and the semantics are unchanged.  Same in every splitting CAS
     below. *)
  let[@inline] find_one_try_gen ~obs t x =
    let u = ref x and root = ref (-1) in
    while !root < 0 do
      hop ~obs t;
      let v = M.read t.mem !u in
      let w = read_gap ~obs t v in
      if v = w then root := v
      else begin
        split ~obs t !u v w;
        u := v
      end
    done;
    !root

  (* Algorithm 5: Find with two-try splitting.  Each parent update is tried
     twice before the traversal advances; [u] advances to the second try's
     [v]. *)
  let[@inline] find_two_try_gen ~obs t x =
    let u = ref x and root = ref (-1) in
    while !root < 0 do
      hop ~obs t;
      let v = M.read t.mem !u in
      let w = read_gap ~obs t v in
      if v = w then root := v
      else begin
        split ~obs t !u v w;
        let v2 = M.read t.mem !u in
        let w2 = read_gap ~obs t v2 in
        if v2 = w2 then root := v2
        else begin
          split ~obs t !u v2 w2;
          u := v2
        end
      end
    done;
    !root

  (* Concurrent path halving (van der Weide's rule): the same
     grandparent-swing CAS as one-try splitting, but the traversal advances
     two hops — to the grandparent — instead of one, so each pass visits
     half the path.  Every successful CAS replaces a parent by its current
     grandparent, an ancestor move, so Lemma 3.1's correctness argument is
     unchanged; like the splitting CASes it is weak (a spurious failure is
     just a skipped compaction). *)
  let[@inline] find_halving_gen ~obs t x =
    let u = ref x and root = ref (-1) in
    while !root < 0 do
      hop ~obs t;
      let v = M.read t.mem !u in
      if v = !u then root := v
      else begin
        let w = read_gap ~obs t v in
        if v = w then root := v
        else begin
          split ~obs t !u v w;
          u := w
        end
      end
    done;
    !root

  (* Concurrent two-pass compression (Section 6 conjecture).  Pass one walks
     to the current root recording each (node, observed parent) pair; pass
     two Cas-es each node's parent from the recorded value to the found
     root.  Because the root found in pass one is an ancestor (in the union
     forest) of every recorded parent, every successful Cas replaces a
     parent by a proper ancestor, exactly the invariant Lemma 3.1 needs; a
     Cas that fails because another process moved the parent first is
     simply skipped.  The recorded path is the only allocation of any
     find. *)
  let[@inline] find_compression_gen ~obs t x =
    let u = ref x and root = ref (-1) and path = ref [] in
    while !root < 0 do
      hop ~obs t;
      let p = M.read t.mem !u in
      if p = !u then root := p
      else begin
        path := (!u, p) :: !path;
        u := p
      end
    done;
    let root = !root in
    while
      match !path with
      | [] -> false
      | (u, observed_parent) :: rest ->
        if observed_parent <> root then split ~obs t u observed_parent root;
        path := rest;
        true
    do
      ()
    done;
    root

  let find_no_compaction t x = find_no_compaction_gen ~obs:false t x
  let find_no_compaction_obs t x = find_no_compaction_gen ~obs:true t x
  let find_one_try t x = find_one_try_gen ~obs:false t x
  let find_one_try_obs t x = find_one_try_gen ~obs:true t x
  let find_two_try t x = find_two_try_gen ~obs:false t x
  let find_two_try_obs t x = find_two_try_gen ~obs:true t x
  let find_halving t x = find_halving_gen ~obs:false t x
  let find_halving_obs t x = find_halving_gen ~obs:true t x
  let find_compression t x = find_compression_gen ~obs:false t x
  let find_compression_obs t x = find_compression_gen ~obs:true t x

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
    if x < 0 || x >= t.n then invalid_arg "Dsu: node out of range"

  let find t x =
    check_node t x;
    find_root t x

  (* One early-termination step from node [u] (Algorithms 6 and 7, lines
     7-11): advance [u] one hop along its find path, doing the splitting
     [Cas] once or twice according to the policy.  [z], the parent of [u]
     already read by the caller's root test, is reused rather than re-read —
     the printed pseudocode reads it twice; merging the reads only removes a
     redundant access (noted in EXPERIMENTS.md).  Returns the new [u]. *)
  let[@inline] early_step_gen ~obs t u z =
    hop ~obs t;
    match t.policy with
    | Find_policy.No_compaction | Find_policy.Compression ->
      (* Full compression needs a complete find path, which the interleaved
         early-termination walk never has; its steps are plain hops. *)
      z
    | Find_policy.One_try_splitting ->
      let w = read_gap ~obs t z in
      if z <> w then split ~obs t u z w;
      z
    | Find_policy.Halving ->
      (* Same CAS as one-try, but advance to the grandparent — still an
         ancestor of [u], so the early-termination invariant holds. *)
      let w = read_gap ~obs t z in
      if z <> w then begin
        split ~obs t u z w;
        w
      end
      else z
    | Find_policy.Two_try_splitting ->
      let w = read_gap ~obs t z in
      if z <> w then begin
        split ~obs t u z w;
        let z2 = M.read t.mem u in
        let w2 = read_gap ~obs t z2 in
        if z2 <> w2 then split ~obs t u z2 w2;
        z2
      end
      else z

  let early_step t u z = early_step_gen ~obs:false t u z
  let early_step_obs t u z = early_step_gen ~obs:true t u z

  (* The early rounds' one armed dispatch per step. *)
  let early_step_any t u z =
    if Atomic.get Dsu_obs.armed || Atomic.get Fi.armed then
      early_step_obs t u z
    else early_step t u z

  (* Every extra iteration of a SameSet or Unite outer loop. *)
  let[@inline] retry t =
    bump t Dsu_stats.incr_outer_retry;
    if Atomic.get Dsu_obs.armed then Dsu_obs.on_outer_retry ()

  (* Algorithm 2: SameSet via two complete finds per round, from [x] and
     [y] or from any ancestors of them.  Returns the shared root when they
     are in one set, and [lnot u] for the root [u] found from [x] when
     they are not. *)
  let same_set_rounds t x y =
    let u = ref (find_root t x) in
    let v = ref (find_root t y) in
    while !u <> !v && M.read t.mem !u <> !u do
      retry t;
      u := find_root t !u;
      v := find_root t !v
    done;
    if !u = !v then !u else lnot !u

  (* Algorithm 6: SameSet with early termination — always step from the
     smaller of the two current nodes; answer as soon as the smaller one is
     a root. *)
  let same_set_early t x y =
    let u = ref x and v = ref y and go = ref true in
    while !go && !u <> !v do
      if less t !v !u then begin
        let w = !u in
        u := !v;
        v := w
      end;
      let z = M.read t.mem !u in
      if z = !u then go := false
      else begin
        u := early_step_any t !u z;
        retry t
      end
    done;
    !u = !v

  (* One link attempt between the distinct roots [u] and [v] just observed:
     the rule's CAS, then the counters, telemetry and the post-CAS fault
     site shared by every rule.  Returns the parent on success, a negative
     code otherwise ([stale] when the rule tried no CAS). *)
  let link t u v =
    let c = L.link t.mem ~prio:t.prio u v in
    if c = stale then c
    else begin
      let ok = c >= 0 in
      let child = if ok then c else lnot c in
      bump_cas t Dsu_stats.incr_link_cas ~ok;
      if Atomic.get Dsu_obs.armed then Dsu_obs.on_link_cas ~node:child ~ok;
      fault_link_post ();
      if ok then begin
        let parent = other_root u v child in
        record_link t ~child ~parent;
        parent
      end
      else c
    end

  (* Only a failed link CAS backs off: another domain just linked the same
     root, so an immediate retry mostly re-collides.  A stale observation
     and an early step are progress.  Splitting CAS failures never back
     off (they are not retried beyond the policy's second try). *)
  let[@inline] after_failed_link code spins =
    if code <> stale then Backoff.once spins else spins

  (* Algorithm 3: Unite via two complete finds per round, then one link
     attempt.  The link CAS stays {e strong} (a reported failure must mean
     a real conflict) because a failure triggers the bounded exponential
     backoff.  Returns a common ancestor of [x] and [y] once they are in
     one set (the link target on success, the shared root when already
     joined), which the bulk kernels' root cache keeps. *)
  let unite_rounds t x y =
    let u = ref x and v = ref y and spins = ref Backoff.initial in
    (* Negative until a round links the roots or finds them equal. *)
    let p = ref (-1) in
    while !p < 0 do
      u := find_root t !u;
      v := find_root t !v;
      if !u = !v then p := !u
      else begin
        p := link t !u !v;
        if !p < 0 then begin
          spins := after_failed_link !p !spins;
          retry t
        end
      end
    done;
    !p

  (* Algorithm 7: Unite with early termination.  The printed pseudocode uses
     an unconditional linking Cas as the root test; attempting the Cas only
     after a read observes [u] to be a root costs the same step when [u] is
     a root and saves a wasted Cas when it is not (the Cas still re-verifies
     rootness atomically, so correctness is unchanged).  The rule links [u]
     below [v], as [u] precedes [v] in the order. *)
  let unite_early t x y =
    let u = ref x and v = ref y and go = ref true in
    let spins = ref Backoff.initial in
    while !go && !u <> !v do
      if less t !v !u then begin
        let w = !u in
        u := !v;
        v := w
      end;
      let z = M.read t.mem !u in
      if z = !u then begin
        let p = link t !u !v in
        if p >= 0 then go := false
        else begin
          spins := after_failed_link p !spins;
          retry t
        end
      end
      else begin
        u := early_step_any t !u z;
        retry t
      end
    done

  let same_set t x y =
    check_node t x;
    check_node t y;
    bump t Dsu_stats.incr_same_set;
    if t.early then same_set_early t x y else same_set_rounds t x y >= 0

  let unite t x y =
    check_node t x;
    check_node t y;
    bump t Dsu_stats.incr_unite;
    if t.early then unite_early t x y else ignore (unite_rounds t x y : int)

  (* ------------------------------------------------------ bulk kernels *)

  (* ConnectIt-style batched processing: one call unites (or queries) a
     whole array of endpoint pairs.  Two per-call optimizations:

     - {b root cache}: a direct-mapped table mapping a recently seen node
       to a recently observed {e ancestor} of it.  Soundness: parents only
       ever move to proper ancestors (Lemma 3.1), so once [a] is an
       ancestor of [x] it stays one forever — [find_root] from the cached
       ancestor lands on exactly the current root of [x]'s tree, and a
       unite from the cached ancestors unites [x]'s and [y]'s sets.  The
       cache lives on the calling domain's stack (allocated per call), so
       it is per-domain by construction and never contended.
     - {b prefetching}: the parent cells of the pair [prefetch_dist]
       slots ahead are prefetched before the current pair is processed.
       Prefetch is a pure hint, so issuing it before the ahead-pair is
       bounds-checked is safe ({!Memory_intf.S.prefetch} never faults).

     The kernels use the plain (non-early) rounds regardless of [t.early]:
     batched callers want the roots settled for the cache.  Fault sites
     and telemetry fire exactly as in [unite] (they are the same rounds),
     so chaos coverage extends to the bulk path. *)

  let cache_bits = 8
  let cache_size = 1 lsl cache_bits
  let cache_mask = cache_size - 1
  let prefetch_dist = 8

  let check_batch ?len t op xs ys =
    let len =
      match len with
      | None ->
        let len = Array.length xs in
        if Array.length ys <> len then
          invalid_arg
            (Printf.sprintf "Dsu.%s: endpoint arrays differ in length" op);
        len
      | Some len ->
        if len < 0 || len > Array.length xs || len > Array.length ys then
          invalid_arg
            (Printf.sprintf "Dsu.%s: len outside the endpoint arrays" op);
        len
    in
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

  let unite_batch ?len t xs ys =
    let len = check_batch ?len t "unite_batch" xs ys in
    let keys = Array.make cache_size (-1) and anc = Array.make cache_size 0 in
    for k = 0 to len - 1 do
      if k + prefetch_dist < len then begin
        M.prefetch t.mem (Array.unsafe_get xs (k + prefetch_dist));
        M.prefetch t.mem (Array.unsafe_get ys (k + prefetch_dist))
      end;
      let x = Array.unsafe_get xs k and y = Array.unsafe_get ys k in
      bump t Dsu_stats.incr_unite;
      let a = unite_rounds t (cache_hint keys anc x) (cache_hint keys anc y) in
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
      (* Algorithm 2's rounds, started from the cached ancestors.  The
         roots found stay ancestors of their endpoints forever; the rounds
         return [x]'s side only, so on a [false] answer [y] keeps its older
         hint. *)
      let r =
        same_set_rounds t (cache_hint keys anc x) (cache_hint keys anc y)
      in
      if r >= 0 then begin
        cache_store keys anc x r;
        cache_store keys anc y r
      end
      else cache_store keys anc x (lnot r);
      Array.unsafe_set out k (r >= 0)
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

  (* Quiescent inspection helpers.  These read through [M], so under the
     simulator they consume steps; call them only outside measured phases. *)

  let parent_of t x =
    check_node t x;
    M.read t.mem x

  let is_root t x = parent_of t x = x

  let count_sets t =
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      if M.read t.mem i = i then incr c
    done;
    !c

  (* The id-monotonicity invariant of Lemma 3.1: every non-root points to a
     node with a strictly larger id. *)
  let invariant_violations t =
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      let p = M.read t.mem i in
      if p <> i && not (less t i p) then acc := (i, p) :: !acc
    done;
    !acc
end
