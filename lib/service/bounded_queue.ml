(* Bounded MPMC ring queue: a hybrid of the classic two-lock queue and a
   lock-free size probe.  It carries the service's completion lanes; the
   ingestion lanes are the lock-free Ingest_ring.

   The Michael-Scott two-lock queue serializes producers on one mutex and
   consumers on another, so producers never contend with consumers.  The
   hybrid keeps that structure over a fixed ring but publishes occupancy
   through a single atomic [size] counter:

   - [size] is incremented only AFTER the slot writes, under the enqueue
     lock; decremented only AFTER the slots are taken, under the dequeue
     lock.  The increment is the linearization point of enqueue, the
     decrement of dequeue.  The batch operations write or take k slots
     and then publish them with a single [fetch_and_add size (+/-k)]: the
     k elements linearize together at that one update, in ring order.
   - The empty fast path ([is_empty], and [dequeue_batch] on an empty
     queue) is a single atomic load — no lock is touched, so a client
     polling an empty lane cannot slow the worker pushing to it.
   - Under the enqueue lock, [size] can only decrease concurrently
     (consumers), so a capacity re-check that passes stays valid until
     the publish; symmetrically under the dequeue lock [size] can only
     grow, so a non-empty re-check stays valid until the take.  That is
     the whole correctness argument — the CAS loop of a fully lock-free
     ring buys nothing here because each side is already serialized.

   Fault-injection sites ([Site.Queue_enq_cas] / [Site.Queue_deq_cas]) are
   hit BEFORE any lock acquisition: an injected [Crash] aborts the attempt
   with both mutexes free, so crash-stop chaos can never wedge the queue
   for the surviving domains. *)

module Site = Repro_fault.Site
module Fi = Repro_fault.Inject

type 'a t = {
  slots : 'a option array;
  cap : int;
  mutable head : int;  (* next take index; guarded by deq_mu *)
  mutable tail : int;  (* next put index; guarded by enq_mu *)
  size : int Atomic.t;  (* published occupancy: the lock-free probe *)
  enq_mu : Mutex.t;
  deq_mu : Mutex.t;
}

let create cap =
  if cap < 1 then invalid_arg "Bounded_queue.create: capacity must be >= 1";
  {
    slots = Array.make cap None;
    cap;
    head = 0;
    tail = 0;
    size = Atomic.make 0;
    enq_mu = Mutex.create ();
    deq_mu = Mutex.create ();
  }

let capacity t = t.cap
let length t = Atomic.get t.size
let is_empty t = length t = 0

let[@inline] hit site = if Atomic.get Fi.armed then Fi.hit site

(* Write [v] into the tail slot; caller holds [enq_mu], has room, and
   publishes the write through [size] afterwards.  Ring indices wrap by
   compare, not [mod]: these run once per element on the drain path. *)
let[@inline] put t v =
  t.slots.(t.tail) <- Some v;
  t.tail <- (if t.tail + 1 = t.cap then 0 else t.tail + 1)

(* Clear the head slot and return its element; caller holds [deq_mu], has
   checked it is occupied, and publishes the take through [size]. *)
let[@inline] take t =
  let v = t.slots.(t.head) in
  t.slots.(t.head) <- None;
  t.head <- (if t.head + 1 = t.cap then 0 else t.head + 1);
  match v with Some v -> v | None -> assert false

let shed_enqueue t v =
  hit Site.Queue_enq_cas;
  Mutex.lock t.enq_mu;
  let dropped =
    if Atomic.get t.size >= t.cap then begin
      (* Full: displace the oldest.  Taking [deq_mu] inside [enq_mu] is
         the one place both locks nest; dequeue-side paths never take
         [enq_mu], so the order cannot invert. *)
      Mutex.lock t.deq_mu;
      let d =
        if Atomic.get t.size >= t.cap then begin
          let v = take t in
          Atomic.decr t.size;
          Some v
        end
        else None
      in
      Mutex.unlock t.deq_mu;
      d
    end
    else None
  in
  (* Room is guaranteed now: under [enq_mu] no other producer runs, and
     consumers only shrink [size]. *)
  put t v;
  Atomic.incr t.size;
  Mutex.unlock t.enq_mu;
  dropped

let shed_enqueue_batch t a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Bounded_queue.shed_enqueue_batch: range outside the array";
  if len = 0 then 0
  else begin
    hit Site.Queue_enq_cas;
    Mutex.lock t.enq_mu;
    (* Elements that would be displaced by later ones of the same batch
       never enter the ring; queued elements are displaced oldest first,
       under [deq_mu] (same nesting as [shed_enqueue]). *)
    let skip = if len > t.cap then len - t.cap else 0 in
    let k = len - skip in
    let evicted =
      if Atomic.get t.size + k <= t.cap then 0
      else begin
        Mutex.lock t.deq_mu;
        let d = max 0 (Atomic.get t.size + k - t.cap) in
        for _ = 1 to d do
          ignore (take t)
        done;
        ignore (Atomic.fetch_and_add t.size (-d));
        Mutex.unlock t.deq_mu;
        d
      end
    in
    for i = pos + skip to pos + len - 1 do
      put t a.(i)
    done;
    ignore (Atomic.fetch_and_add t.size k);
    Mutex.unlock t.enq_mu;
    skip + evicted
  end

let dequeue_batch t ~max =
  if max < 1 then invalid_arg "Bounded_queue.dequeue_batch: max must be >= 1";
  if Atomic.get t.size = 0 then []
  else begin
    hit Site.Queue_deq_cas;
    Mutex.lock t.deq_mu;
    (* Producers only grow [size] while we hold [deq_mu], so the k slots
       from [head] read here stay occupied until the publish below. *)
    let size = Atomic.get t.size in
    let k = if size < max then size else max in
    (* cons from the last slot back so the list comes out in FIFO order *)
    let rec collect i acc =
      if i < 0 then acc
      else begin
        let j = t.head + i in
        let j = if j >= t.cap then j - t.cap else j in
        match t.slots.(j) with
        | Some v ->
          t.slots.(j) <- None;
          collect (i - 1) (v :: acc)
        | None -> assert false
      end
    in
    let r = collect (k - 1) [] in
    t.head <- (t.head + k) mod t.cap;
    ignore (Atomic.fetch_and_add t.size (-k));
    Mutex.unlock t.deq_mu;
    r
  end
