(* Bounded MPMC ring of fixed-width int slots: the ingestion and the
   completion lanes of Service.

   Vyukov's bounded queue over one flat int array.  Slot [s] is a stride of
   [width + 1] words [seq; field 0; ...; field (width - 1)], and ticket [p]
   lives in slot [p mod capacity].  The slot's [seq] says whose turn it is:

   - [seq = 2p]: free for the producer holding ticket [p];
   - [seq = 2p + 1]: holds ticket [p]'s entry, ready for a consumer;
   - [seq = 2(p + capacity)]: released, free for ticket [p + capacity].

   (Vyukov's original counts [p], [p + 1], [p + capacity], which makes
   "holds [p]" and "free for [p + 1]" the same value at capacity 1.)

   A producer that sees [seq = 2(p + i)] in the slots of tickets
   [p = tail], ..., [p + len - 1] claims the run with one CAS on [tail],
   writes the fields with plain stores and publishes each ticket with a
   release store of [seq = 2(p + i) + 1]; that store is the push's
   linearization point, and consumers take entries in ticket order.  A
   consumer acquire-checks the [seq]s from [head], claims the run of ready
   slots with one CAS on [head], copies them out and releases each slot
   with [seq = 2(p + capacity)].  Nothing is locked or allocated, and no
   counter is written by both sides: producers write [tail], consumers
   [head], and each slot's [seq] alternates between the two by turn.

   A ticket [q] can only be claimed once ticket [q - capacity] was
   released, so the ring never holds more than [capacity] entries, at any
   capacity.  A slot whose [seq] still reads [q - capacity]'s is either
   untaken ([head <= q - capacity]: the ring is full) or claimed by a
   consumer that is copying it out ([head > q - capacity]), which the
   producer waits for: a copy is a bounded loop with no fault site in it.

   The fault sites are hit immediately before the [tail] / [head] CAS: an
   injected crash leaves no ticket claimed and no slot held, so the ring
   stays usable for every other domain.

   Parking.  A consumer that ran out of work may block in [park] until a
   push publishes into the ring.  The ring's third control word,
   [parked], is the consumer's mark, and the wake-up is a Dekker-style
   pairing in which each side writes its own word, then reads the
   other's, all four accesses seq-cst:

   - the consumer stores [parked = 1], then reads [head] and [tail], and
     only waits if no ticket is claimed past [head];
   - a producer claims its tickets with the CAS on [tail] and, after
     publishing each one, reads [parked] and, if it read 1, wakes the
     consumer.

   The CAS is a full barrier and comes before the read of [parked] in
   program order, so the push needs no extra fence.  In the single total
   order of seq-cst accesses, either the producer's CAS comes before the
   consumer's read of [tail] (the consumer sees the claimed ticket and
   does not wait; the entry is published moments later), or the
   consumer's store of [parked] comes before the producer's read of it
   (the producer wakes the consumer).  The wait and the wake take [mu],
   and the consumer only waits while [parked] is still 1 under it, so a
   wake that lands between its re-check and its [Condition.wait] is not
   lost either.  [wake] clears the mark unconditionally, which is how a
   shutdown releases a parked consumer. *)

module Faa = Repro_util.Flat_atomic_array
module Site = Repro_fault.Site
module Fi = Repro_fault.Inject
module Backoff = Repro_util.Backoff
module Clock = Repro_obs.Clock

(* [ctl] is padded, so the two indices and the parked mark sit on
   separate cache lines. *)
let head_ix = 0
let tail_ix = 1
let parked_ix = 2

type t = {
  cells : Faa.t;
  cap : int;
  width : int;
  stride : int;  (* width + 1: the [seq] word, then the fields *)
  ctl : Faa.t;
  mu : Mutex.t;  (* guards the consumer's wait on [cond] *)
  cond : Condition.t;
}

let create ~width cap =
  if width < 1 then invalid_arg "Slot_ring.create: width must be >= 1";
  if cap < 1 then invalid_arg "Slot_ring.create: capacity must be >= 1";
  let stride = width + 1 in
  {
    cells =
      Faa.make (cap * stride) (fun i -> if i mod stride = 0 then 2 * (i / stride) else 0);
    cap;
    width;
    stride;
    ctl = Faa.make ~padded:true 3 (fun _ -> 0);
    mu = Mutex.create ();
    cond = Condition.create ();
  }

let capacity t = t.cap

let length t =
  (* tail first: the head read after it can only be newer, so the
     difference never exceeds the capacity *)
  let tail = Faa.unsafe_get t.ctl tail_ix in
  let head = Faa.unsafe_get t.ctl head_ix in
  if tail > head then tail - head else 0

let[@inline] hit site = if Atomic.get Fi.armed then Fi.hit site

(* Lock and unlock by hand: [Mutex.protect] would allocate a closure on
   every wake. *)
let wake t =
  Mutex.lock t.mu;
  Faa.unsafe_set t.ctl parked_ix 0;
  Condition.signal t.cond;
  Mutex.unlock t.mu

(* Whether a ticket is claimed past [head]: the consumer's re-check.
   [head] is read first, so a concurrent take can only make this answer
   [true] spuriously. *)
let claimed t =
  let h = Faa.unsafe_get t.ctl head_ix in
  Faa.unsafe_get t.ctl tail_ix > h

let park t ~stop =
  Faa.unsafe_set t.ctl parked_ix 1;
  if not (claimed t || Atomic.get stop) then begin
    Mutex.lock t.mu;
    while Faa.unsafe_get t.ctl parked_ix = 1 && not (Atomic.get stop) do
      Condition.wait t.cond t.mu
    done;
    Mutex.unlock t.mu
  end;
  Faa.unsafe_set t.ctl parked_ix 0

let[@inline] next_slot t s = if s + 1 = t.cap then 0 else s + 1
let[@inline] seq_at t s = Faa.unsafe_get_acquire t.cells (s * t.stride)

(* How many of the tickets [p + i], [p + i + 1], ..., below [p + len],
   starting with the one in slot [s], find their slot free. *)
let rec free_run t p ~len i s =
  if i < len && seq_at t s = 2 * (p + i) then free_run t p ~len (i + 1) (next_slot t s)
  else i

let rec claim_run t ~len =
  let p = Faa.unsafe_get t.ctl tail_ix in
  let s = p mod t.cap in
  let i = free_run t p ~len 0 s in
  if i = len then begin
    hit Site.Queue_enq_cas;
    if Faa.unsafe_cas t.ctl tail_ix p (p + len) then s else claim_run t ~len
  end
  else begin
    let q = p + i in
    let seq = seq_at t (q mod t.cap) in
    if seq >= 2 * q then claim_run t ~len (* stale tail, or freed since *)
    else if Faa.unsafe_get t.ctl head_ix <= q - t.cap then -1
      (* full: ticket q - capacity is not taken yet *)
    else begin
      (* a consumer is copying ticket q - capacity out *)
      Domain.cpu_relax ();
      claim_run t ~len
    end
  end

let claim t ~len =
  if len < 1 || len > t.cap then
    invalid_arg "Slot_ring.claim: len must be in [1, capacity]";
  claim_run t ~len

let rec claim_backing_off spins t ~len ~until_ns =
  let p = claim t ~len in
  if p >= 0 || Clock.now_ns () >= until_ns then p
  else claim_backing_off (Backoff.once spins) t ~len ~until_ns

let claim_until t ~len ~until_ns = claim_backing_off Backoff.initial t ~len ~until_ns

let[@inline] set t s f v = Faa.unsafe_store t.cells ((s * t.stride) + 1 + f) v

(* The claimed slot of ticket [p] still holds the [seq = 2p] its claim
   read, and only its holder writes it until this store. *)
let publish t s =
  let base = s * t.stride in
  Faa.unsafe_set_release t.cells base (Faa.unsafe_load t.cells base + 1);
  if Faa.unsafe_get t.ctl parked_ix = 1 then wake t

type batch = { bw : int; words : int array }

let batch ~width size =
  if width < 1 || size < 1 then
    invalid_arg "Slot_ring.batch: width and size must be >= 1";
  { bw = width; words = Array.make (size * width) 0 }

let batch_size b = Array.length b.words / b.bw

(* The length, capped at [max], of the run of published tickets
   [h + k], [h + k + 1], ... whose first slot is [s]. *)
let rec ready t h ~max k s =
  if k < max && seq_at t s = (2 * (h + k)) + 1 then ready t h ~max (k + 1) (next_slot t s)
  else k

let rec take_run t b ~max =
  let h = Faa.unsafe_get t.ctl head_ix in
  let s0 = h mod t.cap in
  let seq = seq_at t s0 in
  if seq < (2 * h) + 1 then 0 (* empty, or ticket h not yet published *)
  else if seq > (2 * h) + 1 then take_run t b ~max (* stale head: reread *)
  else begin
    let k = ready t h ~max 1 (next_slot t s0) in
    hit Site.Queue_deq_cas;
    if Faa.unsafe_cas t.ctl head_ix h (h + k) then begin
      let w = t.width and s = ref s0 in
      for i = 0 to k - 1 do
        let base = (!s * t.stride) + 1 and o = i * w in
        for f = 0 to w - 1 do
          Array.unsafe_set b.words (o + f) (Faa.unsafe_load t.cells (base + f))
        done;
        Faa.unsafe_set_release t.cells (base - 1) (2 * (h + i + t.cap));
        s := next_slot t !s
      done;
      k
    end
    else take_run t b ~max
  end

let take t b ~max =
  if b.bw <> t.width then invalid_arg "Slot_ring.take: batch width differs from the ring's";
  if max < 1 || max > batch_size b then
    invalid_arg "Slot_ring.take: max must be in [1, batch size]";
  take_run t b ~max

let[@inline] get b i f = b.words.((i * b.bw) + f)
