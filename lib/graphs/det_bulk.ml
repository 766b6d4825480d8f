module Faa = Repro_util.Flat_atomic_array
module Clock = Repro_obs.Clock

(* ------------------------------------------------------------------ *)
(* Internally deterministic bulk union-find over an edge stream, after
   Fedorov–Hashemi–Nadiradze–Alistarh: the output forest is a function
   of the input stream alone — independent of the number of domains,
   the OS schedule, and any injected delays.

   The stream is consumed in *blocks*.  The first block is the stream's
   sample window ([Edge_stream.sample_window], capped at [block_chunks]
   chunks), so a stream with many edges per vertex is mostly settled
   after a short first block; every later block is [block_chunks]
   chunks.  A block is loaded, then processed in rounds of two phases,
   each ended by a barrier:

   - {b load}: the domains claim the block's chunks through an atomic
     cursor, so a slowed domain simply takes fewer.  A domain generates
     each chunk it claims and chases both endpoints in the forest, which
     nobody writes while any domain loads: the previous block's flatten
     was barrier-fenced, and round 0's propose phase below writes
     nothing.  Only the pairs [(ru, rv)] with [ru <> rv] enter the
     domain's slice; the others are counted as [skipped].  The forest
     at the start of a block is a function of the stream (induction
     over blocks), so the surviving edge set and [skipped] are too,
     whichever domain claimed which chunk.  The forest is flat at every
     load (the identity before the first block, the previous block's
     flatten after it), so an endpoint's root is its parent, one read,
     and the rounds never see an edge an earlier block already settled.
   - {b propose}: the forest's roots are frozen; every domain walks its
     slice's (still unmerged) edges, chases both endpoints to their
     roots, and for roots [ru <> rv] publishes [writeMin(propose[hi], lo)]
     where [hi = max ru rv], [lo = min ru rv].  writeMin (a CAS-min loop)
     is commutative and associative, so after the barrier [propose.(h)]
     is the minimum over every proposal for [h] this round — whatever
     the interleaving.  The domain whose CAS replaced the sentinel owns
     the slot for the round and is the only one to record it, so every
     proposed slot appears on exactly one domain's [touched] list.
     Before proposing, each domain first shortcuts the slots it linked
     in the previous round: [parent.(h) <- root h].  Roots are frozen in
     this phase, so the value is the one frozen root whoever writes it,
     the slot has one writer (its previous owner), and [h]'s parent
     moves only to an ancestor, the invariant Lemma 3.1 of Jayanti–Tarjan
     states for their forests.  A racing chase reads the old or the new
     parent; both reach the same root.
   - {b link + reset}: each owner installs [parent.(hi) <- propose.(hi)]
     and puts the sentinel back, so the next round starts clean.  Each
     slot has one writer, and the value it writes is frozen.  Links
     always point root -> strictly smaller id, so no cycle can form and
     the final root of a component is its minimum id.

   A round with no proposal anywhere ends the block.  Progress is an OR
   (again commutative) into one of two flags chosen by round parity.
   Round [r]'s link phase clears the flag of round [r + 1]: it is the
   flag round [r - 1] used, whose readers have all passed round [r]'s
   first barrier, and the barrier after the link phase orders the clear
   before round [r + 1]'s proposals.  Because every phase is
   deterministic given the frozen state before it, by induction the
   parent array after every round — and hence the final labels and the
   round count — is schedule-independent.  After a block's last round
   the forest is fully compressed (a range-partitioned pass, then a
   barrier), so the next block loads against depth-one trees.

   Which domain holds which edge is left to the cursor, never fixed by
   the domain count: the block's edge set is, and the min-reductions
   erase who proposed what.  Memory is [2 * n] words of shared state
   plus the block's surviving edges, at most [block_chunks *
   chunk_size] pairs across all domains; a slice grows on demand when
   its domain keeps more survivors than its share.  Each chunk's
   survivors are compacted in its buffer before they are copied, so a
   domain that claims several mostly settled chunks does not grow.  The
   full edge list is never materialized.

   The whole pass is one {!Team}: its domains are spawned once, and
   every barrier above is the team's sense-reversing barrier. *)

type report = {
  n : int;
  edges : int;
  blocks : int;
  rounds : int;
  skipped : int;
  components : int;
  gen_ns : int;
}

(* One domain's slice of the current block, compacted across rounds,
   and the propose slots it owns this round (or owned last round, until
   the next propose phase has shortcut them). *)
type slice = {
  mutable src : int array;
  mutable dst : int array;
  mutable live : int;
  mutable touched : int array;
  mutable touched_len : int;
}

let run ?(domains = 4) ?(block_chunks = 8)
    ?(on_round = fun ~domain:_ ~round:_ -> ()) stream =
  if domains < 1 then invalid_arg "Det_bulk.run: domains must be >= 1";
  if block_chunks < 1 then
    invalid_arg "Det_bulk.run: block_chunks must be >= 1";
  let n = Edge_stream.n stream in
  let m = Edge_stream.total_edges stream in
  let chunk_size = Edge_stream.chunk_size stream in
  let chunks = Edge_stream.chunk_count stream in
  (* Block [b] covers chunks [block_start b, block_start (b + 1)). *)
  let first_block = min (Edge_stream.sample_window stream) block_chunks in
  let block_start b =
    if b = 0 then 0 else min chunks (first_block + ((b - 1) * block_chunks))
  in
  let blocks =
    if chunks = 0 then 0
    else 1 + ((chunks - first_block + block_chunks - 1) / block_chunks)
  in
  (* Plain parent array: written only by one writer per slot, in the
     barrier-separated link/flatten phases and by the shortcuts of the
     propose phase, whose value is a frozen root. *)
  let parent = Array.init n (fun i -> i) in
  let sentinel = n in
  let propose = Faa.make n (fun _ -> sentinel) in
  (* [progress.(r land 1)]: some edge of round [r] still joins two roots. *)
  let progress = [| Atomic.make false; Atomic.make false |] in
  (* Chunks of the current block claimed so far; domain 0 resets it in
     the flatten phase, after every load of the block has ended. *)
  let cursor = Atomic.make 0 in
  let rounds_total = ref 0 in
  let skipped = Atomic.make 0 and gen_ns = Atomic.make 0 in
  (* Each slice starts at a fair share of the first block, the one block
     that no earlier block filters, and grows by survivors only, up to a
     whole block.  Slices and chunk buffers are allocated here, on the
     calling domain: a large allocation on a freshly spawned domain costs
     milliseconds, several times the same allocation made before the
     spawn. *)
  let block_cap = block_chunks * chunk_size in
  let share_cap = ((first_block + domains - 1) / domains) * chunk_size in
  let slices =
    Array.init domains (fun _ ->
        {
          src = Array.make share_cap 0;
          dst = Array.make share_cap 0;
          live = 0;
          touched = Array.make (min share_cap n) 0;
          touched_len = 0;
        })
  in
  let bufs = Array.init domains (fun _ -> Edge_stream.make_chunk stream) in
  let root v =
    let r = ref v in
    while Array.unsafe_get parent !r <> !r do
      r := Array.unsafe_get parent !r
    done;
    !r
  in
  let reserve sl need =
    if need > Array.length sl.src then begin
      let cap = min block_cap (max need (2 * Array.length sl.src)) in
      let grow a =
        let a' = Array.make cap 0 in
        Array.blit a 0 a' 0 sl.live;
        a'
      in
      sl.src <- grow sl.src;
      sl.dst <- grow sl.dst;
      sl.touched <- Array.make (min cap n) 0
    end
  in
  let body d bar =
    let sl = slices.(d) and buf = bufs.(d) in
    let my_skipped = ref 0 and my_gen_ns = ref 0 in
    for b = 0 to blocks - 1 do
      (* Load: claim chunks of block [b], keep the edges that still join
         two roots.  [touched] is empty here (the block's last propose
         phase recorded nothing), so growing may drop its contents. *)
      sl.live <- 0;
      let first = block_start b and stop = block_start (b + 1) in
      let j = ref (first + Atomic.fetch_and_add cursor 1) in
      while !j < stop do
        let t0 = Clock.now_ns () in
        Edge_stream.fill stream !j buf;
        my_gen_ns := !my_gen_ns + (Clock.now_ns () - t0);
        let len = buf.Edge_stream.len in
        let src = buf.Edge_stream.src and dst = buf.Edge_stream.dst in
        (* Compact the surviving root pairs in place in the chunk buffer,
           so that the slice grows only by the survivors.  The forest is
           flat here (the identity, or the previous block's flatten), so
           a parent is a root.  Every pair is written and only a survivor
           advances [kept]: no branch on the survivors, which are mixed
           unpredictably with the dropped edges. *)
        let kept = ref 0 in
        for k = 0 to len - 1 do
          let ru = Array.unsafe_get parent (Array.unsafe_get src k) in
          let rv = Array.unsafe_get parent (Array.unsafe_get dst k) in
          Array.unsafe_set src !kept ru;
          Array.unsafe_set dst !kept rv;
          kept := !kept + Bool.to_int (ru <> rv)
        done;
        my_skipped := !my_skipped + len - !kept;
        reserve sl (sl.live + !kept);
        Array.blit src 0 sl.src sl.live !kept;
        Array.blit dst 0 sl.dst sl.live !kept;
        sl.live <- sl.live + !kept;
        j := first + Atomic.fetch_and_add cursor 1
      done;
      let round = ref 0 in
      let continue = ref true in
      while !continue do
        let flag = progress.(!round land 1) in
        (* Shortcut last round's links to their frozen roots. *)
        for k = 0 to sl.touched_len - 1 do
          let h = Array.unsafe_get sl.touched k in
          Array.unsafe_set parent h (root h)
        done;
        (* Propose phase: compact live edges in place.  A plain load
           suffices for writeMin: within the phase a slot only
           decreases, so a stale read is too large and the CAS retries,
           and the barriers order every reset before it. *)
        let keep = ref 0 in
        sl.touched_len <- 0;
        for k = 0 to sl.live - 1 do
          let ru = root (Array.unsafe_get sl.src k) in
          let rv = root (Array.unsafe_get sl.dst k) in
          if ru <> rv then begin
            let hi = if ru > rv then ru else rv in
            let lo = if ru > rv then rv else ru in
            (* writeMin, as a loop: a local closure would allocate per
               edge, and every minor collection stops both domains. *)
            let cur = ref (Faa.unsafe_load propose hi) in
            while lo < !cur do
              if Faa.unsafe_cas propose hi !cur lo then begin
                if !cur = sentinel then begin
                  Array.unsafe_set sl.touched sl.touched_len hi;
                  sl.touched_len <- sl.touched_len + 1
                end;
                cur := lo
              end
              else cur := Faa.unsafe_load propose hi
            done;
            Array.unsafe_set sl.src !keep ru;
            Array.unsafe_set sl.dst !keep rv;
            incr keep
          end
        done;
        sl.live <- !keep;
        if !keep > 0 && not (Atomic.get flag) then Atomic.set flag true;
        bar ();
        on_round ~domain:d ~round:!round;
        if Atomic.get flag then begin
          (* Link + reset over the slots this domain owns. *)
          for k = 0 to sl.touched_len - 1 do
            let hi = Array.unsafe_get sl.touched k in
            Array.unsafe_set parent hi (Faa.unsafe_load propose hi);
            Faa.unsafe_set_release propose hi sentinel
          done;
          if d = 0 then begin
            Atomic.set progress.((!round + 1) land 1) false;
            incr rounds_total
          end;
          bar ();
          incr round
        end
        else continue := false
      done;
      (* Deterministic flatten: each vertex's root is frozen, so the
         range-partitioned writes commute with concurrent root chases
         (a racy read sees the old or the new parent — both reach the
         same root).  Both progress flags are cleared before the
         barrier: the other parity still holds the previous round's
         [true], which would otherwise run an empty round 0 next block. *)
      let lo = d * n / domains and hi = (d + 1) * n / domains in
      for v = lo to hi - 1 do
        let r = root v in
        if Array.unsafe_get parent v <> r then Array.unsafe_set parent v r
      done;
      if d = 0 then begin
        Atomic.set progress.(0) false;
        Atomic.set progress.(1) false;
        Atomic.set cursor 0
      end;
      bar ()
    done;
    ignore (Atomic.fetch_and_add skipped !my_skipped);
    ignore (Atomic.fetch_and_add gen_ns !my_gen_ns)
  in
  Team.phased ~domains (fun d _ -> body d);
  let components = ref 0 in
  for v = 0 to n - 1 do
    if parent.(v) = v then incr components
  done;
  ( parent,
    {
      n;
      edges = m;
      blocks;
      rounds = !rounds_total;
      skipped = Atomic.get skipped;
      components = !components;
      gen_ns = Atomic.get gen_ns;
    } )
