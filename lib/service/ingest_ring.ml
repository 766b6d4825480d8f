(* Bounded MPMC ring of unboxed requests: the ingestion lanes of Service.

   Vyukov's bounded queue over one flat int array.  Slot [s] is an 8-word
   stride [seq; id; session; kind; x; y; intended_ns; deadline_ns], and
   ticket [p] lives in slot [p mod capacity].  The slot's [seq] says whose
   turn it is:

   - [seq = 2p]: free for the producer holding ticket [p];
   - [seq = 2p + 1]: holds ticket [p]'s request, ready for a consumer;
   - [seq = 2(p + capacity)]: released, free for ticket [p + capacity].

   (Vyukov's original counts [p], [p + 1], [p + capacity], which makes
   "holds [p]" and "free for [p + 1]" the same value at capacity 1.)

   A producer that sees [seq = 2p] at ticket [p = tail] claims it with one
   CAS on [tail], writes the fields with plain stores and publishes them
   with a release store of [seq = 2p + 1]; that store is the push's
   linearization point, and consumers take requests in ticket order.  A
   consumer acquire-checks the [seq]s from [head], claims the run of ready
   slots with one CAS on [head], copies them out and releases each slot
   with [seq = 2(p + capacity)].  Nothing is locked or allocated, and no
   counter is written by both sides: producers write [tail], consumers
   [head], and each slot's [seq] alternates between the two by turn.

   A ticket [p] can only be claimed once ticket [p - capacity] was
   released, so the ring never holds more than [capacity] requests, at
   any capacity.  A slot claimed by a consumer but not yet released reads
   full to the producer a lap behind it, for the few nanoseconds the
   consumer takes to copy its run out.

   The fault sites are hit immediately before the [tail] / [head] CAS: an
   injected crash leaves no ticket claimed and no slot held, so the ring
   stays usable for every other domain. *)

module Faa = Repro_util.Flat_atomic_array
module Site = Repro_fault.Site
module Fi = Repro_fault.Inject
module Backoff = Repro_util.Backoff
module Clock = Repro_obs.Clock

(* Words per slot (a cache line's worth) and the fields' offsets in it; a
   [batch] uses the same layout with the [seq] word unused. *)
let stride = 8
let f_id = 1
let f_session = 2
let f_kind = 3
let f_x = 4
let f_y = 5
let f_intended = 6
let f_deadline = 7

(* [ctl] is padded, so the two indices sit on separate cache lines. *)
let head_ix = 0
let tail_ix = 1

type t = { cells : Faa.t; cap : int; ctl : Faa.t }

let create cap =
  if cap < 1 then invalid_arg "Ingest_ring.create: capacity must be >= 1";
  {
    cells =
      Faa.make (cap * stride) (fun i -> if i mod stride = 0 then 2 * (i / stride) else 0);
    cap;
    ctl = Faa.make ~padded:true 2 (fun _ -> 0);
  }

let length t =
  (* tail first: the head read after it can only be newer, so the
     difference never exceeds the capacity *)
  let tail = Faa.unsafe_get t.ctl tail_ix in
  let head = Faa.unsafe_get t.ctl head_ix in
  if tail > head then tail - head else 0

let[@inline] hit site = if Atomic.get Fi.armed then Fi.hit site

let rec try_push t ~id ~session ~kind ~x ~y ~intended_ns ~deadline_ns =
  let p = Faa.unsafe_get t.ctl tail_ix in
  let base = p mod t.cap * stride in
  let seq = Faa.unsafe_get_acquire t.cells base in
  if seq = 2 * p then begin
    hit Site.Queue_enq_cas;
    if Faa.unsafe_cas t.ctl tail_ix p (p + 1) then begin
      Faa.unsafe_store t.cells (base + f_id) id;
      Faa.unsafe_store t.cells (base + f_session) session;
      Faa.unsafe_store t.cells (base + f_kind) kind;
      Faa.unsafe_store t.cells (base + f_x) x;
      Faa.unsafe_store t.cells (base + f_y) y;
      Faa.unsafe_store t.cells (base + f_intended) intended_ns;
      Faa.unsafe_store t.cells (base + f_deadline) deadline_ns;
      Faa.unsafe_set_release t.cells base ((2 * p) + 1);
      true
    end
    else try_push t ~id ~session ~kind ~x ~y ~intended_ns ~deadline_ns
  end
  else if seq < 2 * p then false (* full: ticket p - capacity not yet released *)
  else try_push t ~id ~session ~kind ~x ~y ~intended_ns ~deadline_ns

let rec push_backing_off spins t ~until_ns ~id ~session ~kind ~x ~y ~intended_ns
    ~deadline_ns =
  if try_push t ~id ~session ~kind ~x ~y ~intended_ns ~deadline_ns then true
  else if Clock.now_ns () >= until_ns then false
  else
    push_backing_off (Backoff.once spins) t ~until_ns ~id ~session ~kind ~x ~y
      ~intended_ns ~deadline_ns

let push_until t ~until_ns ~id ~session ~kind ~x ~y ~intended_ns ~deadline_ns =
  push_backing_off Backoff.initial t ~until_ns ~id ~session ~kind ~x ~y
    ~intended_ns ~deadline_ns

type batch = int array

let batch size =
  if size < 1 then invalid_arg "Ingest_ring.batch: size must be >= 1";
  Array.make (size * stride) 0

let batch_size b = Array.length b / stride

let[@inline] next t s = if s + 1 = t.cap then 0 else s + 1

(* The length, capped at [max], of the run of published tickets
   [h + k], [h + k + 1], ... whose first slot is [s]. *)
let rec ready t h ~max k s =
  if k < max && Faa.unsafe_get_acquire t.cells (s * stride) = (2 * (h + k)) + 1 then
    ready t h ~max (k + 1) (next t s)
  else k

let rec take_run t b ~max =
  let h = Faa.unsafe_get t.ctl head_ix in
  let s0 = h mod t.cap in
  let seq = Faa.unsafe_get_acquire t.cells (s0 * stride) in
  if seq < (2 * h) + 1 then 0 (* empty, or ticket h not yet published *)
  else if seq > (2 * h) + 1 then take_run t b ~max (* stale head: reread *)
  else begin
    let k = ready t h ~max 1 (next t s0) in
    hit Site.Queue_deq_cas;
    if Faa.unsafe_cas t.ctl head_ix h (h + k) then begin
      let s = ref s0 in
      for i = 0 to k - 1 do
        let base = !s * stride and o = i * stride in
        for f = f_id to f_deadline do
          Array.unsafe_set b (o + f) (Faa.unsafe_load t.cells (base + f))
        done;
        Faa.unsafe_set_release t.cells base (2 * (h + i + t.cap));
        s := next t !s
      done;
      k
    end
    else take_run t b ~max
  end

let take t b ~max =
  if max < 1 || max > batch_size b then
    invalid_arg "Ingest_ring.take: max must be in [1, batch size]";
  take_run t b ~max

let[@inline] id b i = b.((i * stride) + f_id)
let[@inline] session b i = b.((i * stride) + f_session)
let[@inline] kind b i = b.((i * stride) + f_kind)
let[@inline] x b i = b.((i * stride) + f_x)
let[@inline] y b i = b.((i * stride) + f_y)
let[@inline] intended_ns b i = b.((i * stride) + f_intended)
let[@inline] deadline_ns b i = b.((i * stride) + f_deadline)
