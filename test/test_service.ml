(* Tests for the serving layer: the lock-free slot ring as the ingestion
   lanes use it (sequential oracle, wrap-around, multi-domain stress,
   injected faults) and as the completion lanes use it (run pushes,
   displacement, stress, faults), the service's admission accounting and
   allocation, and the crash drill's service depth. *)

module R = Repro_service.Slot_ring
module Svc = Repro_service.Service
module Load = Harness.Load
module Chaos = Harness.Chaos
module Fi = Repro_fault.Inject
module Site = Repro_fault.Site
module Rng = Repro_util.Rng
module Clock = Repro_obs.Clock

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* ------------------------------------------------------ ingestion ring *)

(* The widths of a request slot and of an answer slot in the service. *)
let request_width = 6
let answer_width = 3

(* Every field of an entry is a different function of its value [v], so a
   take can tell a torn or crossed slot from an intact one. *)
let field v f = (8 * v) + f

let write r ~width s v =
  for f = 0 to width - 1 do
    R.set r s f (field v f)
  done;
  R.publish r s

(* One request pushed as [Service.submit] pushes it. *)
let ring_push r v =
  let s = R.claim r ~len:1 in
  s >= 0
  && begin
    write r ~width:request_width s v;
    true
  end

(* The values taken by one [take], oldest first; [-1] marks a slot whose
   fields do not belong together. *)
let take_values ~width r b ~max =
  List.init (R.take r b ~max) (fun i ->
      let v = R.get b i 0 / 8 in
      if List.for_all (fun f -> R.get b i f = field v f) (List.init width Fun.id)
      then v
      else -1)

let ring_take = take_values ~width:request_width
let request_batch = R.batch ~width:request_width
let request_ring = R.create ~width:request_width

(* Random interleaving of push and take attempts against a stdlib Queue
   bounded by hand: every accept/reject decision and every taken value
   must match FIFO order and the capacity bound exactly. *)
let test_ring_oracle () =
  let rng = Rng.create 11 in
  let cap = 1 + Rng.int rng 8 in
  let r = request_ring cap in
  let b = request_batch 1 in
  let oracle = Queue.create () in
  for i = 0 to 4_999 do
    if Rng.int rng 100 < 55 then begin
      let accepted = ring_push r i in
      let should = Queue.length oracle < cap in
      check Alcotest.bool "admission matches capacity" should accepted;
      if accepted then Queue.push i oracle
    end
    else
      match ring_take r b ~max:1 with
      | [ v ] -> check Alcotest.int "FIFO order" (Queue.pop oracle) v
      | _ -> check Alcotest.bool "empty agrees" true (Queue.is_empty oracle)
  done;
  check Alcotest.int "final length" (Queue.length oracle) (R.length r)

let test_ring_batch_oracle () =
  let rng = Rng.create 12 in
  let r = request_ring 16 in
  let b = request_batch 5 in
  let oracle = Queue.create () in
  for i = 0 to 1_999 do
    if Rng.int rng 100 < 60 then begin
      if ring_push r i then Queue.push i oracle
    end
    else begin
      let max = 1 + Rng.int rng 5 in
      let got = ring_take r b ~max in
      check Alcotest.bool "batch bounded" true (List.length got <= max);
      check Alcotest.bool "takes all it can" true
        (List.length got = Stdlib.min max (Queue.length oracle));
      List.iter (fun v -> check Alcotest.int "batch FIFO" (Queue.pop oracle) v) got
    end
  done;
  Alcotest.check_raises "max above the batch size"
    (Invalid_argument "Slot_ring.take: max must be in [1, batch size]")
    (fun () -> ignore (R.take r b ~max:6))

(* Shed-oldest on the ring, as [Service.submit] does it: a push to a full
   ring fails, the oldest request is taken through the drain's own [head]
   CAS, and the retried push lands behind the survivors. *)
let test_ring_shed () =
  let r = request_ring 3 in
  let b = request_batch 3 in
  for i = 0 to 2 do
    check Alcotest.bool "fills" true (ring_push r i)
  done;
  check Alcotest.bool "full rejects" false (ring_push r 99);
  check Alcotest.(list int) "takes the oldest" [ 0 ] (ring_take r b ~max:1);
  check Alcotest.bool "admits after the take" true (ring_push r 3);
  check Alcotest.(list int) "next oldest" [ 1 ] (ring_take r b ~max:1);
  check Alcotest.bool "room: admits" true (ring_push r 4);
  check Alcotest.int "capacity held" 3 (R.length r);
  check Alcotest.(list int) "FIFO after shed" [ 2; 3; 4 ] (ring_take r b ~max:3)

let test_ring_deadline () =
  let r = request_ring 1 in
  let push_until ~until_ns v =
    let s = R.claim_until r ~len:1 ~until_ns in
    s >= 0
    && begin
      write r ~width:request_width s v;
      true
    end
  in
  check Alcotest.bool "admits" true (ring_push r 0);
  let t0 = Clock.now_ns () in
  check Alcotest.bool "full ring times out" false
    (push_until ~until_ns:(t0 + 2_000_000) 1);
  check Alcotest.bool "waited for the deadline" true
    (Clock.now_ns () - t0 >= 2_000_000);
  ignore (ring_take r (request_batch 1) ~max:1);
  check Alcotest.bool "admits after room" true
    (push_until ~until_ns:(Clock.now_ns () + 1_000_000) 1)

(* Capacity 7 is not a power of two, so [p mod capacity] wraps at a
   different point of every machine-word boundary; runs of every length
   from 1 to the capacity cross the wrap over at least 100 laps. *)
let test_ring_wrap () =
  let cap = 7 in
  let r = request_ring cap in
  let b = request_batch cap in
  let rng = Rng.create 14 in
  let oracle = Queue.create () in
  let pushed = ref 0 in
  while !pushed < 100 * cap do
    for _ = 1 to 1 + Rng.int rng cap do
      if ring_push r !pushed then begin
        Queue.push !pushed oracle;
        incr pushed
      end
      else check Alcotest.int "only a full ring refuses" cap (Queue.length oracle)
    done;
    let max = 1 + Rng.int rng cap in
    let got = ring_take r b ~max in
    check Alcotest.int "run length" (Stdlib.min max (Queue.length oracle))
      (List.length got);
    List.iter (fun v -> check Alcotest.int "FIFO across the wrap" (Queue.pop oracle) v) got
  done;
  check Alcotest.(list int) "drained in order"
    (List.of_seq (Queue.to_seq oracle))
    (ring_take r b ~max:cap)

(* Checks shared by the multi-domain runs.  [streams] are what each
   consumer took, in its order; value [v] came from producer
   [v mod producers], which pushed its values in increasing order.  Every
   admitted value is taken exactly once, and within one consumer's stream
   each producer's values appear in increasing order (the queues are MPMC,
   so cross-producer order is unconstrained, and two consumers can
   interleave one producer's values). *)
let check_streams ~producers ~total streams =
  let all = List.concat streams in
  check Alcotest.int "no loss" total (List.length all);
  check Alcotest.(list int) "no duplicates" (List.init total Fun.id)
    (List.sort compare all);
  List.iter
    (fun stream ->
      let last = Array.make producers (-1) in
      List.iter
        (fun v ->
          let p = v mod producers in
          check Alcotest.bool "per-producer FIFO" true (v > last.(p));
          last.(p) <- v)
        stream)
    streams

(* On a single-core box spinning domains starve each other for whole
   scheduler quanta; sleep yields the OS thread instead. *)
let yield () = Unix.sleepf 0.00002

(* 2 producers x 2 consumers over a small ring: no op lost, none
   duplicated or torn, per-producer FIFO, and the length never exceeds
   capacity.  With [enroll] the domains take part in fault injection as
   slots 0-3. *)
let run_ring_stress ?(enroll = false) ~cap ~per_producer () =
  let producers = 2 and consumers = 2 in
  let r = request_ring cap in
  let total = producers * per_producer in
  let taken = Atomic.make 0 and over_cap = Atomic.make 0 in
  let produce p () =
    if enroll then Fi.enroll ~slot:p;
    for i = 0 to per_producer - 1 do
      while not (ring_push r ((i * producers) + p)) do
        yield ()
      done
    done
  in
  let consume c () =
    if enroll then Fi.enroll ~slot:(producers + c);
    let b = request_batch 4 in
    let mine = ref [] in
    while Atomic.get taken < total do
      if R.length r > cap then Atomic.incr over_cap;
      match ring_take r b ~max:(1 + (c * 3)) with
      | [] -> yield ()
      | vs ->
        ignore (Atomic.fetch_and_add taken (List.length vs));
        mine := List.rev_append vs !mine
    done;
    List.rev !mine
  in
  let ps = List.init producers (fun p -> Domain.spawn (produce p)) in
  let cs = List.init consumers (fun c -> Domain.spawn (consume c)) in
  List.iter Domain.join ps;
  let streams = List.map Domain.join cs in
  check Alcotest.int "length within capacity" 0 (Atomic.get over_cap);
  check_streams ~producers ~total streams

let test_ring_stress () = run_ring_stress ~cap:8 ~per_producer:5_000 ()

(* Same stress with adversarial yields and stalls injected at the ring's
   fault sites, which sit right before its two CASes. *)
let test_ring_stress_yields () =
  Fi.arm
    {
      Fi.seed = 5;
      rules_for =
        (fun _ ->
          [
            Fi.rule
              ~sites:[ Site.Queue_enq_cas; Site.Queue_deq_cas ]
              ~prob:0.2 Fi.Yield;
            Fi.rule
              ~sites:[ Site.Queue_enq_cas; Site.Queue_deq_cas ]
              ~prob:0.02 (Fi.Stall 64);
          ]);
    };
  Fun.protect ~finally:Fi.disarm
    (run_ring_stress ~enroll:true ~cap:4 ~per_producer:2_000)

(* 4 producers that wait for room, a worker draining batches of up to 8
   (slowly, so the ring fills), and a displacer that sheds the oldest
   request whenever it finds the ring full, as shed-oldest admission
   does.  Every admitted value is answered exactly once, by the worker or
   the displacer, each in per-producer FIFO order. *)
let test_ring_shed_stress () =
  let producers = 4 and per_producer = 2_000 and cap = 8 in
  let r = request_ring cap in
  let total = producers * per_producer in
  let taken = Atomic.make 0 in
  let produce p () =
    for i = 0 to per_producer - 1 do
      while not (ring_push r ((i * producers) + p)) do
        yield ()
      done
    done
  in
  let consumer ~max ~ready () =
    let b = request_batch max in
    let mine = ref [] in
    while Atomic.get taken < total do
      match if ready () then ring_take r b ~max else [] with
      | [] -> yield ()
      | vs ->
        ignore (Atomic.fetch_and_add taken (List.length vs));
        mine := List.rev_append vs !mine;
        if max > 1 then yield ()
    done;
    List.rev !mine
  in
  let ps = List.init producers (fun p -> Domain.spawn (produce p)) in
  let worker = Domain.spawn (consumer ~max:8 ~ready:(fun () -> true)) in
  let displacer = Domain.spawn (consumer ~max:1 ~ready:(fun () -> R.length r = cap)) in
  List.iter Domain.join ps;
  let drained = Domain.join worker and shed = Domain.join displacer in
  check Alcotest.bool "the displacer shed some" true (shed <> []);
  check_streams ~producers ~total [ drained; shed ]

(* A crash injected at either fault site leaves no ticket claimed and no
   slot held: the ring keeps working, and what was admitted is taken
   exactly once, in order. *)
let with_crash site ~after f =
  Fi.arm
    { Fi.seed = 1; rules_for = (fun _ -> [ Fi.rule ~sites:[ site ] ~after Fi.Crash ]) };
  Fi.enroll ~slot:0;
  Fun.protect ~finally:Fi.disarm (fun () ->
      match f () with
      | () -> Alcotest.fail "the crash did not fire"
      | exception Fi.Crashed (s, 0) when s = site -> ())

let test_ring_crash () =
  let r = request_ring 5 in
  let b = request_batch 5 in
  with_crash Site.Queue_enq_cas ~after:2 (fun () ->
      for v = 0 to 4 do
        check Alcotest.bool "admitted" true (ring_push r v)
      done);
  check Alcotest.int "two admitted before the crash" 2 (R.length r);
  for v = 2 to 4 do
    check Alcotest.bool "pushes after the crash" true (ring_push r v)
  done;
  with_crash Site.Queue_deq_cas ~after:1 (fun () ->
      check Alcotest.(list int) "first take" [ 0; 1 ] (ring_take r b ~max:2);
      ignore (ring_take r b ~max:2));
  check Alcotest.int "nothing taken by the crashed take" 3 (R.length r);
  check Alcotest.(list int) "the rest, in order" [ 2; 3; 4 ] (ring_take r b ~max:5);
  check Alcotest.bool "the ring takes pushes again" true (ring_push r 5);
  check Alcotest.(list int) "and drains them" [ 5 ] (ring_take r b ~max:5)

(* ----------------------------------------------------- completion lanes *)

let answer_batch = R.batch ~width:answer_width
let answer_ring = R.create ~width:answer_width
let lane_take = take_values ~width:answer_width

(* Push the run [vs] as a worker pushes a batch's answers to one lane: one
   claim for the whole run, displacing the lane's oldest answers while it
   has no room for it.  Returns how many it displaced. *)
let push_run r vs =
  let len = List.length vs in
  let displaced = ref 0 in
  let rec claim () =
    let p = R.claim r ~len in
    if p >= 0 then p
    else begin
      if R.take r (answer_batch 1) ~max:1 = 1 then incr displaced;
      claim ()
    end
  in
  let s = ref (claim ()) in
  List.iter
    (fun v ->
      write r ~width:answer_width !s v;
      s := R.next_slot r !s)
    vs;
  !displaced

(* Run pushes against [len] successive single pushes onto a stdlib Queue
   that drops its oldest element when full: same contents, and exactly
   the displaced count.  The named cases pin room, exactly-full, a refused
   claim and overflow; the random walk at capacity 7 (not a power of two)
   mixes runs of every length with takes over at least 200 laps. *)
let test_lane_run_oracle () =
  let r = answer_ring 4 in
  let b = answer_batch 4 in
  check Alcotest.int "room: nothing displaced" 0 (push_run r [ 0; 1 ]);
  check Alcotest.int "exactly full: nothing displaced" 0 (push_run r [ 2; 3 ]);
  check Alcotest.int "a full lane refuses a claim" (-1) (R.claim r ~len:1);
  check Alcotest.int "overflow displaces the oldest" 2 (push_run r [ 4; 5 ]);
  check Alcotest.(list int) "newest survive, FIFO" [ 2; 3; 4; 5 ] (lane_take r b ~max:4);
  Alcotest.check_raises "a run longer than the capacity"
    (Invalid_argument "Slot_ring.claim: len must be in [1, capacity]") (fun () ->
      ignore (R.claim r ~len:5));
  let cap = 7 in
  let r = answer_ring cap in
  let b = answer_batch cap in
  let rng = Rng.create 15 in
  let oracle = Queue.create () in
  let next = ref 0 in
  while !next < 200 * cap do
    if Rng.int rng 100 < 55 then begin
      let vs = List.init (1 + Rng.int rng cap) (fun i -> !next + i) in
      next := !next + List.length vs;
      let shed = ref 0 in
      List.iter
        (fun v ->
          if Queue.length oracle = cap then begin
            ignore (Queue.pop oracle);
            incr shed
          end;
          Queue.push v oracle)
        vs;
      check Alcotest.int "displaced count" !shed (push_run r vs);
      check Alcotest.int "length after the run" (Queue.length oracle) (R.length r)
    end
    else begin
      let max = 1 + Rng.int rng cap in
      let got = lane_take r b ~max in
      check Alcotest.int "takes all it can"
        (Stdlib.min max (Queue.length oracle))
        (List.length got);
      List.iter (fun v -> check Alcotest.int "FIFO across the wrap" (Queue.pop oracle) v) got
    end
  done;
  check Alcotest.(list int) "final contents"
    (List.of_seq (Queue.to_seq oracle))
    (lane_take r b ~max:cap)

(* A client that never polls: the worker's answers fill the lane (1 worker
   x (4 queued + a batch of 4) + 8 = 16 slots), then displace its oldest.
   The lane keeps the newest 16, in order, and [s_displaced] counts the
   rest. *)
let test_lane_displacement () =
  let total = 40 in
  let svc =
    Svc.create
      {
        Svc.default_config with
        Svc.n = 64;
        workers = 1;
        clients = 1;
        queue_capacity = 4;
        batch = 4;
        admission = Svc.Block 1.0;
      }
  in
  for i = 0 to total - 1 do
    match Svc.submit svc ~session:0 (Svc.Unite (i mod 64, 0)) with
    | Svc.Enqueued id -> check Alcotest.int "ids in order" i id
    | Svc.Rejected _ -> Alcotest.fail "rejected"
  done;
  let give_up = Clock.now_ns () + 2_000_000_000 in
  while (Svc.stats svc).Svc.s_displaced < total - 16 && Clock.now_ns () < give_up do
    Unix.sleepf 0.0002
  done;
  let got = ref [] in
  while List.length !got < 16 && Clock.now_ns () < give_up do
    got := !got @ Svc.poll svc ~session:0
  done;
  Svc.stop svc;
  check Alcotest.(list int) "the newest answers, in order"
    (List.init 16 (fun i -> total - 16 + i))
    (List.map (fun (r : Svc.response) -> r.Svc.r_id) !got);
  check Alcotest.int "displaced" (total - 16) (Svc.stats svc).Svc.s_displaced;
  check Alcotest.int "all acked" total (Svc.stats svc).Svc.s_acked

(* 2 pushers of runs x 2 pollers over a small lane.  Pushers claim runs of
   1-5 answers (at most [cap]) with one [tail] CAS each and wait while the
   lane has no room, so nothing is displaced; pollers take up to 1 and 4.
   No answer lost, duplicated or torn, per-pusher FIFO, and the length
   never exceeds capacity.  With [enroll] the domains take part in fault
   injection as slots 0-3. *)
let run_lane_stress ?(enroll = false) ~cap ~per_producer () =
  let producers = 2 and consumers = 2 in
  let r = answer_ring cap in
  let total = producers * per_producer in
  let taken = Atomic.make 0 and over_cap = Atomic.make 0 in
  let produce p () =
    if enroll then Fi.enroll ~slot:p;
    let i = ref 0 in
    while !i < per_producer do
      let len = Stdlib.min (per_producer - !i) (Stdlib.min cap (1 + (!i mod 5))) in
      let first = ref (R.claim r ~len) in
      while !first < 0 do
        yield ();
        first := R.claim r ~len
      done;
      for j = 0 to len - 1 do
        write r ~width:answer_width !first (((!i + j) * producers) + p);
        first := R.next_slot r !first
      done;
      i := !i + len
    done
  in
  let consume c () =
    if enroll then Fi.enroll ~slot:(producers + c);
    let b = answer_batch 4 in
    let mine = ref [] in
    while Atomic.get taken < total do
      if R.length r > cap then Atomic.incr over_cap;
      match lane_take r b ~max:(1 + (c * 3)) with
      | [] -> yield ()
      | vs ->
        ignore (Atomic.fetch_and_add taken (List.length vs));
        mine := List.rev_append vs !mine
    done;
    List.rev !mine
  in
  let ps = List.init producers (fun p -> Domain.spawn (produce p)) in
  let cs = List.init consumers (fun c -> Domain.spawn (consume c)) in
  List.iter Domain.join ps;
  let streams = List.map Domain.join cs in
  check Alcotest.int "length within capacity" 0 (Atomic.get over_cap);
  check_streams ~producers ~total streams

let test_lane_stress () = run_lane_stress ~cap:8 ~per_producer:5_000 ()

(* Same stress with adversarial yields and stalls injected at the lane's
   fault sites, right before its run claim's and its take's CAS. *)
let test_lane_stress_yields () =
  Fi.arm
    {
      Fi.seed = 5;
      rules_for =
        (fun _ ->
          [
            Fi.rule
              ~sites:[ Site.Queue_enq_cas; Site.Queue_deq_cas ]
              ~prob:0.2 Fi.Yield;
            Fi.rule
              ~sites:[ Site.Queue_enq_cas; Site.Queue_deq_cas ]
              ~prob:0.02 (Fi.Stall 64);
          ]);
    };
  Fun.protect ~finally:Fi.disarm
    (run_lane_stress ~enroll:true ~cap:5 ~per_producer:2_000)

(* A crash injected before a run claim's CAS or a poll's take leaves no
   ticket claimed and no slot held: the lane keeps working, and every run
   pushed is taken exactly once, in order. *)
let test_lane_crash () =
  let r = answer_ring 6 in
  let b = answer_batch 6 in
  with_crash Site.Queue_enq_cas ~after:1 (fun () ->
      ignore (push_run r [ 0; 1 ]);
      ignore (push_run r [ 2; 3; 4 ]));
  check Alcotest.int "one run pushed before the crash" 2 (R.length r);
  check Alcotest.int "the run pushes after the crash" 0 (push_run r [ 2; 3; 4 ]);
  with_crash Site.Queue_deq_cas ~after:1 (fun () ->
      check Alcotest.(list int) "first take" [ 0; 1 ] (lane_take r b ~max:2);
      ignore (lane_take r b ~max:2));
  check Alcotest.int "nothing taken by the crashed take" 3 (R.length r);
  check Alcotest.(list int) "the rest, in order" [ 2; 3; 4 ] (lane_take r b ~max:6);
  check Alcotest.int "the lane takes runs again" 0 (push_run r [ 5; 6; 7; 8; 9; 10 ]);
  check Alcotest.(list int) "and drains them" [ 5; 6; 7; 8; 9; 10 ] (lane_take r b ~max:6)

(* --------------------------------------------- service vs sequential *)

let layouts = Dsu.Plan.[ Flat; Packed ]

(* Sequential union-find oracle over [0, n). *)
let oracle n =
  let parent = Array.init n Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union x y =
    let rx = find x and ry = find y in
    if rx <> ry then parent.(rx) <- ry
  in
  (find, union)

(* What a [Done] answer must be: unite and same_set have one right value;
   find's answer is a representative node, which the layouts are free to
   pick differently, so it must be a member of the element's set as it
   stood when the op was applied. *)
type expect = Exactly of Svc.value | Member_of of bool array

let expect_op n (find, union) = function
  | Svc.Unite (x, y) ->
    union x y;
    Exactly Svc.V_unit
  | Svc.Same_set (x, y) -> Exactly (Svc.V_bool (find x = find y))
  | Svc.Find x ->
    let rx = find x in
    Member_of (Array.init n (fun v -> find v = rx))

let agrees e v =
  match (e, v) with
  | Exactly e, v -> v = e
  | Member_of set, Svc.V_int r -> r >= 0 && r < Array.length set && set.(r)
  | Member_of _, _ -> false

(* With one worker and one session, admitted ops apply in submission
   order, so every answered value must agree with a sequential
   union-find replay of the accepted prefix — on every layout. *)
let test_service_sequential_oracle () =
  let n = 256 in
  List.iter
    (fun layout ->
      let name = Dsu.Plan.layout_to_string layout in
      let o = oracle n in
      let cfg =
        {
          Svc.default_config with
          Svc.n;
          workers = 1;
          clients = 1;
          queue_capacity = 64;
          batch = 16;
          admission = Svc.Block 0.2;
          plan = Dsu.Plan.on_layout layout Dsu.Plan.default;
        }
      in
      let svc = Svc.create cfg in
      let rng = Rng.create 3 in
      let expected = Hashtbl.create 512 in
      let answered = ref 0 in
      let drain () =
        List.iter
          (fun (r : Svc.response) ->
            incr answered;
            match (r.Svc.r_outcome, Hashtbl.find_opt expected r.Svc.r_id) with
            | Svc.Done v, Some e ->
              check Alcotest.bool (name ^ ": oracle agrees") true (agrees e v)
            | Svc.Done _, None -> Alcotest.fail "unexpected response id"
            | _ -> Alcotest.fail "unexpected non-Done outcome")
          (Svc.poll svc ~session:0)
      in
      for _ = 0 to 1_999 do
        let x = Rng.int rng n and y = Rng.int rng n in
        let op =
          match Rng.int rng 10 with
          | 0 -> Svc.Find x
          | k when k < 5 -> Svc.Unite (x, y)
          | _ -> Svc.Same_set (x, y)
        in
        (match Svc.submit svc ~session:0 op with
        | Svc.Enqueued id ->
          (* the oracle applies the op now: one worker serves FIFO *)
          Hashtbl.replace expected id (expect_op n o op)
        | Svc.Rejected _ -> Alcotest.fail "block admission rejected");
        drain ()
      done;
      let give_up = Clock.now_ns () + 2_000_000_000 in
      while !answered < Hashtbl.length expected && Clock.now_ns () < give_up do
        drain ();
        Unix.sleepf 0.0002
      done;
      Svc.stop svc;
      check Alcotest.int
        (name ^ ": every accepted op answered")
        (Hashtbl.length expected) !answered)
    layouts

(* One drained batch mixing expired and live ops.  The worker is held at
   start until every op is queued, so a single dequeue takes them all;
   expired ops (deadline already past) answer Timed_out without touching
   the structure, live ops answer Done in FIFO order — an expired unite
   must not be visible to a later same_set. *)
let test_service_mixed_deadline_batch () =
  let n = 64 in
  let go = Atomic.make false in
  let cfg =
    { Svc.default_config with Svc.n; workers = 1; clients = 1; batch = 64 }
  in
  let svc =
    Svc.create
      ~on_worker_start:(fun _ ->
        while not (Atomic.get go) do
          Unix.sleepf 0.0001
        done)
      cfg
  in
  let far = Clock.now_ns () + 60_000_000_000 in
  let ops =
    [
      (Svc.Unite (1, 2), 0);
      (Svc.Unite (3, 4), 1) (* expired: 3 and 4 stay apart *);
      (Svc.Same_set (1, 2), far);
      (Svc.Same_set (3, 4), 0);
      (Svc.Find 5, 1);
      (Svc.Unite (2, 3), 0);
      (Svc.Same_set (1, 4), 0);
      (Svc.Same_set (1, 3), 1);
      (Svc.Find 1, 0);
    ]
  in
  let o = oracle n in
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (op, deadline_ns) ->
      match Svc.submit svc ~deadline_ns ~session:0 op with
      | Svc.Enqueued id ->
        let e = if deadline_ns = 1 then None else Some (expect_op n o op) in
        Hashtbl.replace expected id (op, e)
      | Svc.Rejected _ -> Alcotest.fail "rejected")
    ops;
  Atomic.set go true;
  let got = ref [] in
  let give_up = Clock.now_ns () + 2_000_000_000 in
  while List.length !got < List.length ops && Clock.now_ns () < give_up do
    got := !got @ Svc.poll svc ~session:0;
    Unix.sleepf 0.0002
  done;
  Svc.stop svc;
  check Alcotest.int "every op answered" (List.length ops) (List.length !got);
  check Alcotest.(list int) "responses in FIFO order"
    (List.sort compare (List.map (fun (r : Svc.response) -> r.Svc.r_id) !got))
    (List.map (fun (r : Svc.response) -> r.Svc.r_id) !got);
  List.iter
    (fun (r : Svc.response) ->
      let op, e = Hashtbl.find expected r.Svc.r_id in
      let what = Svc.op_to_string op in
      match (e, r.Svc.r_outcome) with
      | None, Svc.Timed_out -> ()
      | Some e, Svc.Done v -> check Alcotest.bool (what ^ " agrees") true (agrees e v)
      | None, _ -> Alcotest.fail (what ^ ": expired op not Timed_out")
      | Some _, _ -> Alcotest.fail (what ^ ": live op not Done"))
    !got;
  let st = Svc.stats svc in
  check Alcotest.int "one drained batch" 1 st.Svc.s_batches;
  check Alcotest.int "of every op" (List.length ops) st.Svc.s_max_batch;
  check Alcotest.int "timed out" 3 st.Svc.s_timed_out;
  check Alcotest.int "acked" 6 st.Svc.s_acked

(* Find returns a real root of the element's current set — compare it as
   a set representative, not as a specific node. *)
let test_service_find_is_root () =
  let n = 64 in
  let cfg =
    { Svc.default_config with Svc.n; workers = 1; clients = 1; admission = Svc.Block 0.2 }
  in
  let svc = Svc.create cfg in
  (match Svc.submit svc ~session:0 (Svc.Unite (1, 2)) with
  | Svc.Enqueued _ -> ()
  | Svc.Rejected _ -> Alcotest.fail "rejected");
  let find_id =
    match Svc.submit svc ~session:0 (Svc.Find 1) with
    | Svc.Enqueued id -> id
    | Svc.Rejected _ -> Alcotest.fail "rejected"
  in
  let root = ref (-1) in
  let give_up = Clock.now_ns () + 2_000_000_000 in
  while !root < 0 && Clock.now_ns () < give_up do
    List.iter
      (fun (r : Svc.response) ->
        match r.Svc.r_outcome with
        | Svc.Done (Svc.V_int v) when r.Svc.r_id = find_id -> root := v
        | _ -> ())
      (Svc.poll svc ~session:0);
    Unix.sleepf 0.0002
  done;
  Svc.stop svc;
  check Alcotest.bool "find answered with a member's root" true
    (!root = 1 || !root = 2);
  check Alcotest.bool "backend agrees" true
    (Dsu.Driver.same_set (Svc.backend svc) !root 1)

let test_service_element_bounds () =
  let cfg = { Svc.default_config with Svc.n = 8; workers = 1; clients = 1 } in
  let svc = Svc.create cfg in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Service.submit: element 8 outside [0, 8)") (fun () ->
      ignore (Svc.submit svc ~session:0 (Svc.Find 8)));
  Svc.stop svc

(* A negative session is refused before any counter moves or any id is
   consumed, with a message that names it. *)
let test_service_negative_session () =
  let cfg = { Svc.default_config with Svc.n = 8; workers = 2; clients = 2 } in
  let svc = Svc.create cfg in
  Alcotest.check_raises "submit"
    (Invalid_argument "Service.submit: session -3 is negative") (fun () ->
      ignore (Svc.submit svc ~session:(-3) (Svc.Unite (1, 2))));
  Alcotest.check_raises "poll"
    (Invalid_argument "Service.poll: session -1 is negative") (fun () ->
      ignore (Svc.poll svc ~session:(-1)));
  check Alcotest.int "nothing counted" 0 (Svc.stats svc).Svc.s_submitted;
  (match Svc.submit svc ~session:1 (Svc.Find 0) with
  | Svc.Enqueued id -> check Alcotest.int "no id consumed" 0 id
  | Svc.Rejected _ -> Alcotest.fail "rejected");
  Svc.stop svc

(* A worker held at start until [release] is called: nothing is taken
   from its ring before that. *)
let held_service cfg =
  let go = Atomic.make false in
  let svc =
    Svc.create
      ~on_worker_start:(fun _ ->
        while not (Atomic.get go) do
          Unix.sleepf 0.0001
        done)
      cfg
  in
  (svc, fun () -> Atomic.set go true)

(* Poll session 0 until [n] responses arrived or 2 s passed. *)
let collect svc n =
  let got = ref [] in
  let give_up = Clock.now_ns () + 2_000_000_000 in
  while List.length !got < n && Clock.now_ns () < give_up do
    got := !got @ Svc.poll svc ~session:0;
    if List.length !got < n then Unix.sleepf 0.0002
  done;
  !got

(* [max] is checked before the lane is looked at, with a message that
   names the service, on an empty lane and on one holding a response.
   The held worker drains both ops in one batch, whose responses reach
   the lane in one push: once the first is polled, the second is there. *)
let test_service_poll_max () =
  let svc, release =
    held_service { Svc.default_config with Svc.n = 8; workers = 1; clients = 1 }
  in
  let refused what =
    Alcotest.check_raises what (Invalid_argument "Service.poll: max must be >= 1")
      (fun () -> ignore (Svc.poll svc ~max:0 ~session:0))
  in
  refused "empty lane";
  for _ = 1 to 2 do
    match Svc.submit svc ~session:0 (Svc.Unite (1, 2)) with
    | Svc.Enqueued _ -> ()
    | Svc.Rejected _ -> Alcotest.fail "rejected"
  done;
  release ();
  let give_up = Clock.now_ns () + 2_000_000_000 in
  while Svc.poll svc ~max:1 ~session:0 = [] && Clock.now_ns () < give_up do
    Unix.sleepf 0.0002
  done;
  refused "non-empty lane";
  check Alcotest.int "the response is still there" 1
    (List.length (Svc.poll svc ~max:1 ~session:0));
  Svc.stop svc

(* With the worker held, a ring of capacity 250 (not a power of two)
   admits exactly 250 requests and refuses the rest; once released, the
   worker answers every admitted one. *)
let test_service_exact_capacity () =
  let cap = 250 in
  let svc, release =
    held_service
      { Svc.default_config with Svc.n = 64; workers = 1; clients = 1; queue_capacity = cap }
  in
  let admitted = ref 0 in
  for i = 0 to cap + 49 do
    match Svc.submit svc ~session:0 (Svc.Find (i mod 64)) with
    | Svc.Enqueued id ->
      check Alcotest.int "ids in submission order" i id;
      incr admitted
    | Svc.Rejected Svc.Queue_full -> ()
    | Svc.Rejected _ -> Alcotest.fail "unexpected rejection"
  done;
  check Alcotest.int "exactly the capacity admitted" cap !admitted;
  release ();
  let got = collect svc cap in
  Svc.stop svc;
  check Alcotest.int "every admitted op answered" cap (List.length got);
  let st = Svc.stats svc in
  check Alcotest.int "full rejections" 50 st.Svc.s_rejected_full;
  check Alcotest.int "max depth is the capacity" cap st.Svc.s_max_depth

(* At quiescence the derived admission totals add up under every policy:
   10 submits against a held worker's 4-slot ring, then one after stop. *)
let test_service_admission_totals () =
  List.iter
    (fun (admission, accepted, full, deadline) ->
      let what = Svc.admission_to_string admission in
      let svc, release =
        held_service
          {
            Svc.default_config with
            Svc.n = 64;
            workers = 1;
            clients = 1;
            queue_capacity = 4;
            batch = 4;
            admission;
          }
      in
      for i = 0 to 9 do
        ignore (Svc.submit svc ~session:0 (Svc.Unite (i, i + 1)))
      done;
      release ();
      ignore (collect svc accepted);
      Svc.stop svc;
      (match Svc.submit svc ~session:0 (Svc.Find 0) with
      | Svc.Rejected Svc.Stopped -> ()
      | _ -> Alcotest.fail (what ^ ": submit after stop was not refused"));
      let st = Svc.stats svc in
      check Alcotest.int (what ^ ": submitted") 11 st.Svc.s_submitted;
      check Alcotest.int (what ^ ": accepted") accepted st.Svc.s_accepted;
      check Alcotest.int (what ^ ": rejected full") full st.Svc.s_rejected_full;
      check Alcotest.int (what ^ ": rejected at deadline") deadline
        st.Svc.s_rejected_deadline;
      check Alcotest.int (what ^ ": rejected stopped") 1 st.Svc.s_rejected_stopped;
      check Alcotest.int (what ^ ": the totals add up") st.Svc.s_submitted
        (st.Svc.s_accepted + st.Svc.s_rejected_full + st.Svc.s_rejected_deadline
       + st.Svc.s_rejected_stopped))
    [ (Svc.Reject, 4, 6, 0); (Svc.Shed_oldest, 10, 0, 0); (Svc.Block 0.001, 4, 0, 6) ]

(* ------------------------------------------------------------- parking *)

(* Parking must lose no wake-up, and a test of that must not hang when
   one is lost: every wait below gives up after 5 s and fails. *)
let give_up_after_5s what cond =
  let give_up = Clock.now_ns () + 5_000_000_000 in
  while not (cond ()) do
    if Clock.now_ns () > give_up then Alcotest.failf "%s: gave up after 5 s" what;
    Domain.cpu_relax ()
  done

(* Wait until [s_parks] rises past [since] — the worker parked after the
   request of the last round was answered — and return it. *)
let wait_for_park svc ~since =
  let parks = ref since in
  give_up_after_5s "the worker never parked" (fun () ->
      parks := (Svc.stats svc).Svc.s_parks;
      !parks > since);
  !parks

(* Poll session 0 until the response to [id] arrives. *)
let answer_of svc id =
  let got = ref None in
  give_up_after_5s
    (Printf.sprintf "no answer to request %d (lost wake-up?)" id)
    (fun () ->
      List.iter
        (fun (r : Svc.response) -> if r.Svc.r_id = id then got := Some r.Svc.r_outcome)
        (Svc.poll svc ~session:0);
      !got <> None);
  Option.get !got

(* 1,000 rounds of: let the worker park, submit one op, get its answer.
   Each submit lands on a worker that is parked or parking, which is
   where a lost wake-up would strand it. *)
let test_no_lost_wakeup admission () =
  let svc =
    Svc.create
      { Svc.default_config with Svc.n = 64; workers = 1; clients = 1; admission }
  in
  let parks = ref 0 in
  for i = 1 to 1_000 do
    parks := wait_for_park svc ~since:!parks;
    match Svc.submit svc ~session:0 (Svc.Same_set (i mod 64, 0)) with
    | Svc.Enqueued id -> (
      match answer_of svc id with
      | Svc.Done _ -> ()
      | _ -> Alcotest.failf "request %d was not answered Done" id)
    | Svc.Rejected _ -> Alcotest.fail "rejected"
  done;
  Svc.stop svc

(* 10,000 rounds of: get the answer, wait a random 45-55 us, submit the
   next op.  The worker spins for about 50 us before it parks, so some
   submits land between its last empty check and its wait: the window in
   which a park without its re-check of [tail], or a submit that reads
   the parked mark before its [tail] CAS, loses a wake-up: the first
   mutation failed this case in 2 runs of 2, the second in 1 of 2. *)
let test_racing_park () =
  let svc = Svc.create { Svc.default_config with Svc.n = 64; workers = 1; clients = 1 } in
  let rng = Rng.create 7 in
  for i = 1 to 10_000 do
    let at = Clock.now_ns () + 45_000 + Rng.int rng 10_000 in
    while Clock.now_ns () < at do
      Domain.cpu_relax ()
    done;
    match Svc.submit svc ~session:0 (Svc.Find (i mod 64)) with
    | Svc.Enqueued id -> ignore (answer_of svc id)
    | Svc.Rejected _ -> Alcotest.fail "rejected"
  done;
  Svc.stop svc

(* [stop] wakes every parked worker: with both workers parked it
   returns, run on its own domain so a lost wake-up fails the test
   instead of hanging it. *)
let test_stop_wakes_parked () =
  let svc = Svc.create { Svc.default_config with Svc.n = 64; workers = 2; clients = 2 } in
  give_up_after_5s "the workers never parked" (fun () ->
      (Svc.stats svc).Svc.s_parks >= 2);
  let settle = Clock.now_ns () + 1_000_000 in
  while Clock.now_ns () < settle do
    Domain.cpu_relax ()
  done;
  let stopped = Atomic.make false in
  let d = Domain.spawn (fun () -> Svc.stop svc; Atomic.set stopped true) in
  give_up_after_5s "stop did not return" (fun () -> Atomic.get stopped);
  Domain.join d

(* ----------------------------------------------------------- allocation *)

(* A Reject-path submit allocates only its [Enqueued] answer (2 words) on
   the submitting domain: the request travels as ints in a ring slot.
   Measured over 10k admitted submits while the worker is held. *)
let test_submit_alloc () =
  let count = 10_000 in
  let svc, release =
    held_service
      {
        Svc.default_config with
        Svc.n = 64;
        workers = 1;
        clients = 1;
        queue_capacity = count;
        admission = Svc.Reject;
      }
  in
  let ops = Array.init count (fun i -> Svc.Unite (i mod 64, (i * 7) mod 64)) in
  let admitted = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to count - 1 do
    match Svc.submit svc ~session:0 (Array.unsafe_get ops i) with
    | Svc.Enqueued _ -> incr admitted
    | Svc.Rejected _ -> ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int count in
  release ();
  ignore (collect svc count);
  Svc.stop svc;
  check Alcotest.int "all admitted" count !admitted;
  if words > 2.0 then
    Alcotest.failf "submit allocates %.2f minor words (at most 2 allowed)" words

(* An accepted submit that wakes a parked worker allocates no more than
   its [Enqueued] answer either: the wake locks, signals and unlocks by
   hand.  Each submit is measured alone, once the worker has parked and
   had 100 us to block. *)
let test_wake_alloc () =
  let rounds = 200 in
  let svc =
    Svc.create { Svc.default_config with Svc.n = 64; workers = 1; clients = 1 }
  in
  let words = ref 0. and parks = ref 0 in
  for i = 1 to rounds do
    parks := wait_for_park svc ~since:!parks;
    let settle = Clock.now_ns () + 100_000 in
    while Clock.now_ns () < settle do
      Domain.cpu_relax ()
    done;
    let op = Svc.Unite (i mod 64, 0) in
    let before = Gc.minor_words () in
    let admit = Svc.submit svc ~session:0 op in
    words := !words +. (Gc.minor_words () -. before);
    match admit with
    | Svc.Enqueued id -> ignore (answer_of svc id)
    | Svc.Rejected _ -> Alcotest.fail "rejected"
  done;
  Svc.stop svc;
  let words = !words /. float_of_int rounds in
  if words > 2.0 then
    Alcotest.failf "a waking submit allocates %.2f minor words (at most 2 allowed)"
      words

(* The 40/10/50 unite/find/same_set mix of [Harness.Load] over [0, 64). *)
let mixed_ops count =
  let rng = Rng.create 9 in
  Array.init count (fun _ ->
      let x = Rng.int rng 64 and y = Rng.int rng 64 in
      match Rng.int rng 10 with
      | k when k < 4 -> Svc.Unite (x, y)
      | 4 -> Svc.Find x
      | _ -> Svc.Same_set (x, y))

(* Submit [ops] to a held one-worker service, release the worker and poll
   every answer; [on_poll] runs around the polling loop.  Returns what
   the worker domain allocated over its whole life, read at its exit. *)
let serve_held ?(on_poll = fun f -> f ()) ops =
  let count = Array.length ops in
  let go = Atomic.make false and worker_words = Atomic.make nan in
  let svc =
    Svc.create
      ~on_worker_start:(fun _ ->
        let start = Gc.minor_words () in
        Domain.at_exit (fun () ->
            Atomic.set worker_words (Gc.minor_words () -. start));
        while not (Atomic.get go) do
          Unix.sleepf 0.0001
        done)
      {
        Svc.default_config with
        Svc.n = 64;
        workers = 1;
        clients = 1;
        queue_capacity = count;
        admission = Svc.Reject;
      }
  in
  Array.iter
    (fun op ->
      match Svc.submit svc ~session:0 op with
      | Svc.Enqueued _ -> ()
      | Svc.Rejected _ -> Alcotest.fail "rejected")
    ops;
  ignore (Svc.poll svc ~session:0);
  Atomic.set go true;
  let got = ref 0 in
  let give_up = Clock.now_ns () + 5_000_000_000 in
  on_poll (fun () ->
      while !got < count && Clock.now_ns () < give_up do
        got := !got + List.length (Svc.poll svc ~session:0)
      done);
  Svc.stop svc;
  check Alcotest.int "every op answered" count !got;
  Atomic.get worker_words

(* The drain worker allocates nothing per request: requests and answers
   cross as ints, the outcome is a code, and the DSU kernel allocates
   nothing under the default plan.  What the worker allocates at start
   (its batch buffers) is spread over 20k requests of the serve mix. *)
let test_worker_alloc () =
  let count = 20_000 in
  let words = serve_held (mixed_ops count) /. float_of_int count in
  if not (words < 0.05) then
    Alcotest.failf "the worker allocates %.3f minor words per request (0 allowed)"
      words

(* [poll] allocates only what it returns: a record and a list cell (7
   words) per unite or same_set answer, and the [Done (V_int _)] (4 more)
   per find answer; a poll of an empty lane allocates nothing. *)
let test_poll_alloc () =
  let count = 10_000 in
  let per_answer ops =
    let words = ref 0. in
    ignore
      (serve_held
         ~on_poll:(fun f ->
           let before = Gc.minor_words () in
           f ();
           words := Gc.minor_words () -. before)
         ops);
    !words /. float_of_int count
  in
  let pairs =
    per_answer
      (Array.init count (fun i ->
           if i land 1 = 0 then Svc.Unite (i mod 64, 0) else Svc.Same_set (i mod 64, 1)))
  in
  if pairs > 7.0 then
    Alcotest.failf "poll allocates %.2f minor words per unite/same_set answer (7 allowed)"
      pairs;
  let finds = per_answer (Array.init count (fun i -> Svc.Find (i mod 64))) in
  if finds > 11.0 then
    Alcotest.failf "poll allocates %.2f minor words per find answer (11 allowed)" finds

(* --------------------------------------------- backpressure accounting *)

(* Drive the open-loop harness at a rate far past saturation with a tiny
   queue: depth stays bounded by capacity, and every accepted op is
   accounted (acked + shed + timed_out + failed + lost = accepted, no
   silent drops).  The service is durable, so each drained batch waits
   for a group commit and 800k/s offered is many times what it can ack:
   without the WAL the drain keeps up with two generators, and a point
   then saturates only when the generators fall behind their own
   schedule on a loaded host, which no admission policy can answer. *)
let run_backpressure admission =
  let config =
    {
      Load.default_config with
      Load.n = 1 lsl 10;
      generators = 2;
      ops = 2_000;
      workers = 2;
      queue_capacity = 32;
      batch = 8;
      admission;
      shape = Load.Fixed;
      durable = true;
    }
  in
  let p = Load.run_point ~config ~rate:400_000.0 () in
  check Alcotest.bool "depth bounded by capacity" true p.Load.depth_bound_ok;
  check Alcotest.bool "all accepted ops accounted" true p.Load.accounted_ok;
  check Alcotest.int "nothing lost" 0 p.Load.lost;
  check Alcotest.int "everything submitted" (2 * 2_000) p.Load.submitted;
  check Alcotest.int "one service sample per ack" p.Load.acked
    p.Load.service.Repro_obs.Hdr.count;
  p

let test_backpressure_reject () =
  let p = run_backpressure Svc.Reject in
  check Alcotest.bool "reject surfaces backpressure" true
    (p.Load.rejected > 0 || not p.Load.saturated)

let test_backpressure_shed () =
  let p = run_backpressure Svc.Shed_oldest in
  check Alcotest.int "shed admission never rejects" 0 p.Load.rejected;
  check Alcotest.bool "displacement is answered, not silent" true
    (p.Load.shed > 0 || not p.Load.saturated)

let test_deadline_expiry () =
  (* saturate a tiny queue with a 0.1 ms per-op deadline: some queued ops
     must expire and be answered Timed_out without touching the DSU.  The
     deadline is shorter than the bursts' queueing delay: with a 1 ms one
     the drain keeps up with this load often enough for no op to expire
     (the deterministic expiry case is "mixed expired and live batch") *)
  let config =
    {
      Load.default_config with
      Load.n = 1 lsl 10;
      generators = 2;
      ops = 1_500;
      workers = 1;
      queue_capacity = 512;
      batch = 4;
      admission = Svc.Block 0.05;
      op_deadline_ms = 0.1;
      shape = Load.Bursty 64;
    }
  in
  let p = Load.run_point ~config ~rate:500_000.0 () in
  check Alcotest.bool "accounted" true p.Load.accounted_ok;
  check Alcotest.bool "deadlines fired" true (p.Load.timed_out > 0)

(* One small point on a WAL-backed service: a worker forces the group
   commit before every ack, and the point's temp WAL is gone afterwards.
   The temp directory is private to the test, so "gone" means empty. *)
let test_durable_point () =
  let saved = Filename.get_temp_dir_name () in
  let tmp = Filename.temp_dir "test-service-durable" "" in
  Filename.set_temp_dir_name tmp;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp);
      Sys.rmdir tmp)
  @@ fun () ->
  let config =
    {
      Load.default_config with
      Load.n = 1 lsl 10;
      generators = 1;
      ops = 400;
      workers = 1;
      shape = Load.Fixed;
      durable = true;
    }
  in
  let p = Load.run_point ~config ~rate:5_000.0 () in
  check Alcotest.bool "accounted" true p.Load.accounted_ok;
  check Alcotest.int "nothing failed" 0 p.Load.failed;
  check Alcotest.int "nothing lost" 0 p.Load.lost;
  check Alcotest.bool "durable acks arrived" true (p.Load.acked > 0);
  check
    Alcotest.(array string)
    "the temp WAL was removed" [||] (Sys.readdir tmp)

(* ------------------------------------------------------- mini drill *)

let test_drill layout () =
  let config = { Chaos.default_config with Chaos.n = 1 lsl 10; domains = 2 } in
  let s =
    Chaos.run ~config ~layout ~policy:Dsu.Find_policy.Two_try_splitting
      ~depth:Chaos.Service ()
  in
  List.iter
    (fun (c : Chaos.check) ->
      check Alcotest.bool (Printf.sprintf "drill check %s: %s" c.Chaos.name c.Chaos.detail) true
        c.Chaos.ok)
    s.Chaos.checks;
  check Alcotest.bool "RPO is zero" true
    (List.exists (fun c -> c.Chaos.name = "recovered:lower" && c.Chaos.ok) s.Chaos.checks);
  check Alcotest.bool "RTO measured" true
    (match s.Chaos.rto_ns with Some r -> r > 0 | None -> false);
  check Alcotest.bool "passed" true (Chaos.scenario_ok s)

let () =
  Alcotest.run "service"
    [
      ( "ingest-ring",
        [
          case "sequential oracle" test_ring_oracle;
          case "batch oracle" test_ring_batch_oracle;
          case "shed displaces oldest" test_ring_shed;
          case "enqueue deadline" test_ring_deadline;
          case "wrap-around at capacity 7" test_ring_wrap;
          case "injected crash leaves the ring usable" test_ring_crash;
          slow "4-domain stress" test_ring_stress;
          slow "4-domain stress with yields" test_ring_stress_yields;
          slow "4 producers, a worker and a shed-oldest displacer"
            test_ring_shed_stress;
        ] );
      ( "completion-lane",
        [
          case "run-push oracle, wrap-around at capacity 7" test_lane_run_oracle;
          case "an unpolled lane displaces its oldest answers" test_lane_displacement;
          case "injected crash leaves the lane usable" test_lane_crash;
          slow "4-domain stress, run pushes and polls" test_lane_stress;
          slow "4-domain stress with yields, run pushes and polls"
            test_lane_stress_yields;
        ] );
      ( "service",
        [
          case "sequential oracle (1 worker)" test_service_sequential_oracle;
          case "find returns a root" test_service_find_is_root;
          case "element bounds" test_service_element_bounds;
          case "negative session" test_service_negative_session;
          case "mixed expired and live batch" test_service_mixed_deadline_batch;
          case "poll checks max on any lane" test_service_poll_max;
          case "exactly queue_capacity admitted" test_service_exact_capacity;
          case "admission totals add up" test_service_admission_totals;
        ] );
      ( "parking",
        [
          case "no lost wake-up, reject" (test_no_lost_wakeup Svc.Reject);
          case "no lost wake-up, shed-oldest" (test_no_lost_wakeup Svc.Shed_oldest);
          case "no lost wake-up, block" (test_no_lost_wakeup (Svc.Block 0.5));
          case "submits racing the park" test_racing_park;
          case "stop wakes two parked workers" test_stop_wakes_parked;
        ] );
      ( "alloc",
        [
          case "a reject-path submit allocates only its answer" test_submit_alloc;
          case "a submit that wakes a parked worker allocates only its answer"
            test_wake_alloc;
          case "the drain worker allocates nothing per request" test_worker_alloc;
          case "poll allocates only the answers it returns" test_poll_alloc;
        ] );
      ( "backpressure",
        [
          slow "reject at 2x saturation" test_backpressure_reject;
          slow "shed-oldest at 2x saturation" test_backpressure_shed;
          slow "per-op deadlines expire" test_deadline_expiry;
          slow "a durable point acks through the WAL" test_durable_point;
        ] );
      ( "drill",
        [
          slow "flat crash-recovery drill" (test_drill Dsu.Plan.Flat);
          slow "flat-padded crash-recovery drill" (test_drill Dsu.Plan.Padded);
          slow "packed crash-recovery drill" (test_drill Dsu.Plan.Packed);
        ] );
    ]
