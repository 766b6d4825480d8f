(* Tests for the serving layer: the bounded MPMC queue (sequential oracle,
   multi-domain stress, fault-injection histories), the service's
   backpressure accounting, and the crash drill's service depth. *)

module Q = Repro_service.Bounded_queue
module Svc = Repro_service.Service
module Hsvc = Harness.Service
module Chaos = Harness.Chaos
module Fi = Repro_fault.Inject
module Site = Repro_fault.Site
module Rng = Repro_util.Rng
module Clock = Repro_obs.Clock

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* ------------------------------------------------- sequential oracle *)

(* Random interleaving of enqueue/dequeue attempts against a stdlib Queue
   bounded by hand: every accept/reject decision and every dequeued value
   must match FIFO order and the capacity bound exactly. *)
let test_queue_oracle () =
  let rng = Rng.create 11 in
  let cap = 1 + Rng.int rng 8 in
  let q = Q.create cap in
  let oracle = Queue.create () in
  for i = 0 to 4_999 do
    if Rng.int rng 100 < 55 then begin
      let accepted = Q.try_enqueue q i in
      let should = Queue.length oracle < cap in
      check Alcotest.bool "admission matches capacity" should accepted;
      if accepted then Queue.push i oracle
    end
    else
      match Q.dequeue_opt q with
      | Some v -> check Alcotest.int "FIFO order" (Queue.pop oracle) v
      | None ->
        check Alcotest.bool "empty agrees" true (Queue.is_empty oracle)
  done;
  check Alcotest.int "final length" (Queue.length oracle) (Q.length q)

let test_queue_batch_oracle () =
  let rng = Rng.create 12 in
  let q = Q.create 16 in
  let oracle = Queue.create () in
  for i = 0 to 1_999 do
    if Rng.int rng 100 < 60 then begin
      if Q.try_enqueue q i then Queue.push i oracle
    end
    else begin
      let max = 1 + Rng.int rng 5 in
      let got = Q.dequeue_batch q ~max in
      check Alcotest.bool "batch bounded" true (List.length got <= max);
      List.iter
        (fun v -> check Alcotest.int "batch FIFO" (Queue.pop oracle) v)
        got
    end
  done

let test_queue_shed () =
  let q = Q.create 3 in
  for i = 0 to 2 do
    check Alcotest.bool "fills" true (Q.try_enqueue q i)
  done;
  check Alcotest.bool "full rejects" false (Q.try_enqueue q 99);
  (* shed admits by displacing the oldest, never silently *)
  check Alcotest.(option int) "displaces oldest" (Some 0) (Q.shed_enqueue q 3);
  check Alcotest.(option int) "no displacement with room"
    None
    (match Q.dequeue_opt q with
    | Some 1 -> Q.shed_enqueue q 4
    | _ -> Alcotest.fail "expected head 1");
  check Alcotest.int "capacity held" 3 (Q.length q);
  let drained = Q.dequeue_batch q ~max:10 in
  check Alcotest.(list int) "FIFO after shed" [ 2; 3; 4 ] drained

(* The batch push against [len] successive single shed_enqueues on a
   stdlib Queue: same final contents, and the returned count is exactly
   what was displaced.  The three named cases pin room, exactly-full and
   overflow; the random walk mixes them with batched dequeues. *)
let test_queue_shed_batch_oracle () =
  let q = Q.create 4 in
  let push a = Q.shed_enqueue_batch q a ~pos:0 ~len:(Array.length a) in
  check Alcotest.int "room: nothing displaced" 0 (push [| 0; 1 |]);
  check Alcotest.int "exactly full: nothing displaced" 0 (push [| 2; 3 |]);
  check Alcotest.int "full length" 4 (Q.length q);
  check Alcotest.int "overflow sheds the oldest" 2 (push [| 4; 5 |]);
  check Alcotest.(list int) "newest survive, FIFO" [ 2; 3; 4; 5 ]
    (Q.dequeue_batch q ~max:10);
  check Alcotest.int "run longer than capacity" 3
    (push [| 10; 11; 12; 13; 14; 15; 16 |]);
  check Alcotest.(list int) "its last capacity elements" [ 13; 14; 15; 16 ]
    (Q.dequeue_batch q ~max:10);
  check Alcotest.int "pos/len sub-range" 0
    (Q.shed_enqueue_batch q [| 20; 21; 22; 23 |] ~pos:1 ~len:2);
  check Alcotest.int "empty run is a no-op" 0
    (Q.shed_enqueue_batch q [| 99 |] ~pos:1 ~len:0);
  check Alcotest.(list int) "sub-range pushed" [ 21; 22 ] (Q.dequeue_batch q ~max:10);
  Alcotest.check_raises "range outside the array"
    (Invalid_argument "Bounded_queue.shed_enqueue_batch: range outside the array")
    (fun () -> ignore (Q.shed_enqueue_batch q [| 1; 2 |] ~pos:1 ~len:2));
  let rng = Rng.create 13 in
  let cap = 1 + Rng.int rng 8 in
  let q = Q.create cap in
  let oracle = Queue.create () in
  let next = ref 0 in
  for _ = 0 to 2_999 do
    if Rng.int rng 100 < 55 then begin
      let len = Rng.int rng (2 * cap + 1) in
      let a = Array.init len (fun i -> !next + i) in
      next := !next + len;
      let shed = ref 0 in
      Array.iter
        (fun v ->
          if Queue.length oracle = cap then begin
            ignore (Queue.pop oracle);
            incr shed
          end;
          Queue.push v oracle)
        a;
      check Alcotest.int "displaced count" !shed
        (Q.shed_enqueue_batch q a ~pos:0 ~len);
      check Alcotest.int "length after push" (Queue.length oracle) (Q.length q)
    end
    else begin
      let max = 1 + Rng.int rng 5 in
      List.iter
        (fun v -> check Alcotest.int "FIFO after batch push" (Queue.pop oracle) v)
        (Q.dequeue_batch q ~max)
    end
  done;
  check Alcotest.(list int) "final contents"
    (List.of_seq (Queue.to_seq oracle))
    (Q.dequeue_batch q ~max:(cap + 1))

let test_queue_deadline () =
  let q = Q.create 1 in
  check Alcotest.bool "admits" true (Q.try_enqueue q 0);
  let t0 = Clock.now_ns () in
  let ok = Q.enqueue_until q ~deadline_ns:(t0 + 2_000_000) 1 in
  check Alcotest.bool "full queue times out" false ok;
  check Alcotest.bool "waited for the deadline" true
    (Clock.now_ns () - t0 >= 2_000_000);
  ignore (Q.dequeue_opt q);
  check Alcotest.bool "admits after room"
    true
    (Q.enqueue_until q ~deadline_ns:(Clock.now_ns () + 1_000_000) 1)

(* -------------------------------------------------- 4-domain stress *)

(* How producers put and consumers take:
   - [Single]: try_enqueue / dequeue_opt, one element per lock;
   - [Batch]: shed_enqueue_batch runs of 1-5 (at most [cap]) /
     dequeue_batch of up to 4, each published with one occupancy
     update.  Producers first claim room from a credit pool of [cap]
     slots that consumers refill after a take, so a push can never
     shed: "no loss" then means nothing was displaced either. *)
type mode = Single | Batch

(* 2 producers x 2 consumers over a small ring: no op lost, none
   duplicated, each producer's values consumed in its own order
   (per-producer FIFO — the queue is MPMC so cross-producer order is
   unconstrained), and the published length never exceeds capacity.
   With [enroll] the domains take part in fault injection as slots
   0-3. *)
let run_queue_stress ?(enroll = false) ~mode ~cap ~per_producer () =
  let producers = 2 and consumers = 2 in
  let q = Q.create cap in
  (* on a single-core box spinning domains starve each other for whole
     scheduler quanta; sleep yields the OS thread instead *)
  let yield () = Unix.sleepf 0.00002 in
  let credits = Atomic.make cap in
  let rec claim k =
    let c = Atomic.get credits in
    if c >= k && Atomic.compare_and_set credits c (c - k) then ()
    else begin
      yield ();
      claim k
    end
  in
  let displaced = Atomic.make 0 and over_cap = Atomic.make 0 in
  let produce p () =
    if enroll then Fi.enroll ~slot:p;
    (* tag values with the producer id in the low bit *)
    let value i = (i * producers) + p in
    match mode with
    | Single ->
      for i = 0 to per_producer - 1 do
        while not (Q.try_enqueue q (value i)) do
          yield ()
        done
      done
    | Batch ->
      let i = ref 0 in
      while !i < per_producer do
        let len = min (per_producer - !i) (min cap (1 + (!i mod 5))) in
        let run = Array.init len (fun j -> value (!i + j)) in
        claim len;
        let d = Q.shed_enqueue_batch q run ~pos:0 ~len in
        ignore (Atomic.fetch_and_add displaced d);
        i := !i + len
      done
  in
  let total = producers * per_producer in
  let taken = Atomic.make 0 in
  let consume c () =
    if enroll then Fi.enroll ~slot:(producers + c);
    let mine = ref [] in
    let continue_ = ref true in
    while !continue_ do
      if Q.length q > cap then Atomic.incr over_cap;
      let got =
        match mode with
        | Single -> Option.to_list (Q.dequeue_opt q)
        | Batch -> Q.dequeue_batch q ~max:4
      in
      match got with
      | [] -> if Atomic.get taken >= total then continue_ := false else yield ()
      | vs ->
        let k = List.length vs in
        ignore (Atomic.fetch_and_add taken k);
        ignore (Atomic.fetch_and_add credits k);
        mine := List.rev_append vs !mine
    done;
    List.rev !mine
  in
  let ps = List.init producers (fun p -> Domain.spawn (produce p)) in
  let cs = List.init consumers (fun c -> Domain.spawn (consume c)) in
  List.iter Domain.join ps;
  let batches = List.map Domain.join cs in
  let all = List.concat batches in
  check Alcotest.int "nothing displaced" 0 (Atomic.get displaced);
  check Alcotest.int "length within capacity" 0 (Atomic.get over_cap);
  check Alcotest.int "no loss" total (List.length all);
  let sorted = List.sort compare all in
  check Alcotest.bool "no duplicates" true
    (List.for_all2 (fun a b -> a = b) sorted (List.init total Fun.id));
  (* per-producer FIFO: within each consumer's stream, each producer's
     values appear in increasing order; merge-check across consumers via
     a per-producer high-water mark is not valid (two consumers can
     interleave), but within one consumer order must hold *)
  List.iter
    (fun stream ->
      let last = Array.make producers (-1) in
      List.iter
        (fun v ->
          let p = v mod producers in
          check Alcotest.bool "per-producer FIFO" true (v > last.(p));
          last.(p) <- v)
        stream)
    batches

let test_queue_stress mode () = run_queue_stress ~mode ~cap:8 ~per_producer:5_000 ()

(* Same stress with adversarial yields injected at the queue's fault
   sites on every enrolled domain — a lincheck-style schedule perturbation
   at exactly the published linearization-sensitive points. *)
let test_queue_stress_yields mode () =
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
    (run_queue_stress ~enroll:true ~mode ~cap:4 ~per_producer:2_000)

(* --------------------------------------------- service vs sequential *)

let layouts = Dsu.Plan.[ Flat; Growable; Packed ]

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
        Hashtbl.replace expected id e
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
      let what = Svc.op_to_string r.Svc.r_op in
      match (Hashtbl.find expected r.Svc.r_id, r.Svc.r_outcome) with
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
  (match Svc.submit svc ~session:0 (Svc.Find 1) with
  | Svc.Enqueued _ -> ()
  | Svc.Rejected _ -> Alcotest.fail "rejected");
  let root = ref (-1) in
  let give_up = Clock.now_ns () + 2_000_000_000 in
  while !root < 0 && Clock.now_ns () < give_up do
    List.iter
      (fun (r : Svc.response) ->
        match (r.Svc.r_op, r.Svc.r_outcome) with
        | Svc.Find _, Svc.Done (Svc.V_int v) -> root := v
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

(* --------------------------------------------- backpressure accounting *)

(* Drive the open-loop harness at a rate far past saturation with a tiny
   queue: depth stays bounded by capacity, and every accepted op is
   accounted (acked + shed + timed_out + failed + lost = accepted, no
   silent drops). *)
let run_backpressure admission =
  let config =
    {
      Hsvc.default_config with
      Hsvc.n = 1 lsl 10;
      generators = 2;
      ops = 2_000;
      workers = 2;
      queue_capacity = 32;
      batch = 8;
      admission;
      shape = Harness.Latency.Fixed;
    }
  in
  let p = Hsvc.run_point ~config ~rate:400_000.0 () in
  check Alcotest.bool "depth bounded by capacity" true p.Hsvc.depth_bound_ok;
  check Alcotest.bool "all accepted ops accounted" true p.Hsvc.accounted_ok;
  check Alcotest.int "nothing lost" 0 p.Hsvc.lost;
  check Alcotest.int "everything submitted" (2 * 2_000) p.Hsvc.submitted;
  p

let test_backpressure_reject () =
  let p = run_backpressure Svc.Reject in
  check Alcotest.bool "reject surfaces backpressure" true
    (p.Hsvc.rejected > 0 || not p.Hsvc.saturated)

let test_backpressure_shed () =
  let p = run_backpressure Svc.Shed_oldest in
  check Alcotest.int "shed admission never rejects" 0 p.Hsvc.rejected;
  check Alcotest.bool "displacement is answered, not silent" true
    (p.Hsvc.shed > 0 || not p.Hsvc.saturated)

let test_deadline_expiry () =
  (* saturate a tiny queue with a 0.1 ms per-op deadline: some queued ops
     must expire and be answered Timed_out without touching the DSU.  The
     deadline is shorter than the bursts' queueing delay: with a 1 ms one
     the drain keeps up with this load often enough for no op to expire
     (the deterministic expiry case is "mixed expired and live batch") *)
  let config =
    {
      Hsvc.default_config with
      Hsvc.n = 1 lsl 10;
      generators = 2;
      ops = 1_500;
      workers = 1;
      queue_capacity = 512;
      batch = 4;
      admission = Svc.Block 0.05;
      op_deadline_ms = 0.1;
      shape = Harness.Latency.Bursty 64;
    }
  in
  let p = Hsvc.run_point ~config ~rate:500_000.0 () in
  check Alcotest.bool "accounted" true p.Hsvc.accounted_ok;
  check Alcotest.bool "deadlines fired" true (p.Hsvc.timed_out > 0)

(* ------------------------------------------------------- mini drill *)

let test_drill_flat () =
  let config = { Chaos.default_config with Chaos.n = 1 lsl 10; domains = 2 } in
  let s =
    Chaos.run ~config ~layout:Dsu.Plan.Flat ~policy:Dsu.Find_policy.Two_try_splitting
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
      ( "bounded-queue",
        [
          case "sequential oracle" test_queue_oracle;
          case "batch oracle" test_queue_batch_oracle;
          case "shed displaces oldest" test_queue_shed;
          case "enqueue deadline" test_queue_deadline;
          case "batch push oracle" test_queue_shed_batch_oracle;
          slow "4-domain stress" (test_queue_stress Single);
          slow "4-domain stress with yields" (test_queue_stress_yields Single);
          slow "4-domain stress, batch push and drain" (test_queue_stress Batch);
          slow "4-domain stress with yields, batch push and drain"
            (test_queue_stress_yields Batch);
        ] );
      ( "service",
        [
          case "sequential oracle (1 worker)" test_service_sequential_oracle;
          case "find returns a root" test_service_find_is_root;
          case "element bounds" test_service_element_bounds;
          case "negative session" test_service_negative_session;
          case "mixed expired and live batch" test_service_mixed_deadline_batch;
        ] );
      ( "backpressure",
        [
          slow "reject at 2x saturation" test_backpressure_reject;
          slow "shed-oldest at 2x saturation" test_backpressure_shed;
          slow "per-op deadlines expire" test_deadline_expiry;
        ] );
      ("drill", [ slow "flat crash-recovery drill" test_drill_flat ]);
    ]
