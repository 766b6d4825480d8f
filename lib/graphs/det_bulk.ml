module Faa = Repro_util.Flat_atomic_array

(* ------------------------------------------------------------------ *)
(* Internally deterministic bulk union-find over an edge stream, after
   Fedorov–Hashemi–Nadiradze–Alistarh: the output forest is a function
   of the input stream alone — independent of the number of domains,
   the OS schedule, and any injected delays.

   The stream is consumed in *blocks* of [block_chunks] chunks.  A block
   is processed in rounds of two phases, each ended by a barrier:

   - {b propose}: the forest is frozen; every domain walks its share of
     the block's (still unmerged) edges, chases both endpoints to their
     roots, and for roots [ru <> rv] publishes [writeMin(propose[hi], lo)]
     where [hi = max ru rv], [lo = min ru rv].  writeMin (a CAS-min loop)
     is commutative and associative, so after the barrier [propose.(h)]
     is the minimum over every proposal for [h] this round — whatever
     the interleaving.  The domain whose CAS replaced the sentinel owns
     the slot for the round and is the only one to record it, so every
     proposed slot appears on exactly one domain's [touched] list.
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
   barrier), so the next block starts from depth-one trees.

   Work partitioning is by *chunk index*, never by domain count: chunk
   [j] of a block always belongs to domain [j mod domains], so changing
   [domains] changes who does the work but not which edges are in the
   block, and the min-reductions erase the difference.  Memory is
   [2 * n] words of shared state plus one block of edges
   ([block_chunks * chunk_size] pairs) spread across the domains —
   the full edge list is never materialized.

   The whole pass is one {!Team}: its domains are spawned once, and
   every barrier above is the team's sense-reversing barrier. *)

type report = {
  n : int;
  edges : int;
  blocks : int;
  rounds : int;
  components : int;
}

(* One domain's slice of the current block, compacted across rounds,
   and the propose slots it owns this round. *)
type slice = {
  src : int array;
  dst : int array;
  mutable live : int;
  touched : int array;
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
  let blocks = (chunks + block_chunks - 1) / block_chunks in
  (* Plain parent array: written only in barrier-separated link/flatten
     phases (one writer per slot), read only in frozen phases. *)
  let parent = Array.init n (fun i -> i) in
  let sentinel = n in
  let propose = Faa.make n (fun _ -> sentinel) in
  (* [progress.(r land 1)]: some edge of round [r] still joins two roots. *)
  let progress = [| Atomic.make false; Atomic.make false |] in
  let rounds_total = ref 0 in
  (* Per-domain slice capacity: chunks j mod domains = d of a block. *)
  let slice_cap =
    ((block_chunks + domains - 1) / domains) * chunk_size
  in
  let root v =
    let r = ref v in
    while Array.unsafe_get parent !r <> !r do
      r := Array.unsafe_get parent !r
    done;
    !r
  in
  let body d bar =
    let sl =
      {
        src = Array.make slice_cap 0;
        dst = Array.make slice_cap 0;
        live = 0;
        touched = Array.make (min slice_cap n) 0;
        touched_len = 0;
      }
    in
    let buf = Edge_stream.make_chunk stream in
    for b = 0 to blocks - 1 do
      (* Load my chunks of block [b] into the slice. *)
      sl.live <- 0;
      let first = b * block_chunks in
      let last = min chunks (first + block_chunks) - 1 in
      for j = first to last do
        if (j - first) mod domains = d then begin
          Edge_stream.fill stream j buf;
          Array.blit buf.Edge_stream.src 0 sl.src sl.live buf.Edge_stream.len;
          Array.blit buf.Edge_stream.dst 0 sl.dst sl.live buf.Edge_stream.len;
          sl.live <- sl.live + buf.Edge_stream.len
        end
      done;
      let round = ref 0 in
      let continue = ref true in
      while !continue do
        let flag = progress.(!round land 1) in
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
        Atomic.set progress.(1) false
      end;
      bar ()
    done
  in
  Team.phased ~domains (fun d _ -> body d);
  let components = ref 0 in
  for v = 0 to n - 1 do
    if parent.(v) = v then incr components
  done;
  ( Array.copy parent,
    { n; edges = m; blocks; rounds = !rounds_total; components = !components } )
