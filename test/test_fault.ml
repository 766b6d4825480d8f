(* Tests for the fault-injection subsystem: site labels, the injection
   engine's arming/enrollment/rule semantics, the forest validator
   (including a deliberately seeded cycle), the crash drill's in-memory
   depth (the 2-of-8 domain-crash demo) and its audit as a pure function. *)

module Site = Repro_fault.Site
module Inject = Repro_fault.Inject
module Forest_check = Repro_fault.Forest_check
module Chaos = Harness.Chaos

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ----------------------------------------------------------------- Site *)

let site_tests =
  [
    case "to_string/of_string round-trip" (fun () ->
        List.iter
          (fun s ->
            match Site.of_string (Site.to_string s) with
            | Some s' -> check Alcotest.bool "round-trip" true (s = s')
            | None -> Alcotest.failf "unparseable: %s" (Site.to_string s))
          Site.all);
    case "of_string rejects junk" (fun () ->
        check Alcotest.bool "junk" true (Site.of_string "not-a-site" = None));
    case "cas sites are a subset of all" (fun () ->
        check Alcotest.bool "subset" true
          (List.for_all (fun s -> List.mem s Site.all) Site.cas_sites));
  ]

(* --------------------------------------------------------------- Inject *)

(* These run on the test's own domain: enroll, hammer [hit], observe.  Each
   case arms its own plan and disarms at the end so cases stay independent. *)

let with_plan plan f =
  Inject.arm plan;
  Fun.protect ~finally:Inject.disarm f

let inject_tests =
  [
    case "disarmed hit is a no-op" (fun () ->
        Inject.disarm ();
        Inject.hit Site.Find_hop;
        check Alcotest.int "no hits counted" 0 (Inject.totals ()).Inject.hits);
    case "unenrolled domain never faults" (fun () ->
        with_plan
          { Inject.seed = 1; rules_for = (fun _ -> [ Inject.rule Inject.Crash ]) }
          (fun () ->
            (* no enroll *)
            Inject.hit Site.Find_hop;
            check Alcotest.int "crashes" 0 (Inject.totals ()).Inject.crashes));
    case "crash rule fires after its countdown, exactly once" (fun () ->
        with_plan
          {
            Inject.seed = 2;
            rules_for = (fun _ -> [ Inject.rule ~after:3 Inject.Crash ]);
          }
          (fun () ->
            Inject.enroll ~slot:0;
            Inject.hit Site.Link_cas_pre;
            Inject.hit Site.Link_cas_pre;
            Inject.hit Site.Link_cas_pre;
            (try
               Inject.hit Site.Link_cas_pre;
               Alcotest.fail "expected Crashed"
             with Inject.Crashed (site, slot) ->
               check Alcotest.bool "site" true (site = Site.Link_cas_pre);
               check Alcotest.int "slot" 0 slot);
            let t = Inject.totals () in
            check Alcotest.int "one crash" 1 t.Inject.crashes;
            check Alcotest.int "four hits" 4 t.Inject.hits));
    case "site filter restricts where a rule fires" (fun () ->
        with_plan
          {
            Inject.seed = 3;
            rules_for =
              (fun _ ->
                [ Inject.rule ~sites:[ Site.Split_read_gap ] Inject.Crash ]);
          }
          (fun () ->
            Inject.enroll ~slot:0;
            Inject.hit Site.Find_hop;
            Inject.hit Site.Link_cas_post;
            check Alcotest.int "no crash yet" 0 (Inject.totals ()).Inject.crashes;
            try
              Inject.hit Site.Split_read_gap;
              Alcotest.fail "expected Crashed"
            with Inject.Crashed _ -> ()));
    case "stall and yield rules count and do not raise" (fun () ->
        with_plan
          {
            Inject.seed = 4;
            rules_for =
              (fun _ ->
                [ Inject.rule (Inject.Stall 4); Inject.rule Inject.Yield ]);
          }
          (fun () ->
            Inject.enroll ~slot:0;
            for _ = 1 to 5 do
              Inject.hit Site.Find_hop
            done;
            let t = Inject.totals () in
            check Alcotest.int "stalls" 5 t.Inject.stalls;
            check Alcotest.int "yields" 5 t.Inject.yields;
            check Alcotest.int "crashes" 0 t.Inject.crashes));
    case "my_hops counts Find_hop hits only" (fun () ->
        with_plan
          { Inject.seed = 5; rules_for = (fun _ -> []) }
          (fun () ->
            Inject.enroll ~slot:2;
            Inject.hit Site.Find_hop;
            Inject.hit Site.Find_hop;
            Inject.hit Site.Link_cas_pre;
            check Alcotest.int "hops" 2 (Inject.my_hops ())));
    case "arm resets counters, disarm preserves them" (fun () ->
        with_plan
          { Inject.seed = 6; rules_for = (fun _ -> [ Inject.rule Inject.Yield ]) }
          (fun () ->
            Inject.enroll ~slot:0;
            Inject.hit Site.Find_hop);
        check Alcotest.int "kept after disarm" 1 (Inject.totals ()).Inject.yields;
        with_plan
          { Inject.seed = 7; rules_for = (fun _ -> []) }
          (fun () ->
            check Alcotest.int "zeroed by arm" 0 (Inject.totals ()).Inject.yields));
    case "enrollment does not survive re-arm" (fun () ->
        Inject.arm
          { Inject.seed = 8; rules_for = (fun _ -> [ Inject.rule Inject.Crash ]) };
        Inject.enroll ~slot:0;
        (* New plan: the old enrollment must be invalidated, so this hit
           must not crash even though the new plan also crashes slot 0. *)
        Inject.arm
          { Inject.seed = 9; rules_for = (fun _ -> [ Inject.rule Inject.Crash ]) };
        Inject.hit Site.Find_hop;
        check Alcotest.int "no crash" 0 (Inject.totals ()).Inject.crashes;
        Inject.disarm ());
    case "negative slot rejected" (fun () ->
        with_plan
          { Inject.seed = 10; rules_for = (fun _ -> []) }
          (fun () ->
            try
              Inject.enroll ~slot:(-1);
              Alcotest.fail "expected Invalid_argument"
            with Invalid_argument _ -> ()));
  ]

(* ---------------------------------------------------------- armed sites *)

(* The MakeSet extensions and the ranked variant carry their own fault
   sites: prove each site is actually wired by crashing at it, and that
   the structure tolerates the abandoned operation. *)

let crash_at sites =
  { Inject.seed = 20; rules_for = (fun _ -> [ Inject.rule ~sites Inject.Crash ]) }

let armed_site_tests =
  [
    case "growable make_set crashes at Make_set_publish, slot stays usable"
      (fun () ->
        let d = Dsu.Growable.create () in
        let a = Dsu.Growable.make_set d in
        with_plan
          (crash_at [ Site.Make_set_publish ])
          (fun () ->
            Inject.enroll ~slot:0;
            (try
               ignore (Dsu.Growable.make_set d : int);
               Alcotest.fail "expected Crashed"
             with Inject.Crashed (site, _) ->
               check Alcotest.bool "site" true (site = Site.Make_set_publish)));
        (* The crash abandoned the publish after the slot was claimed: a
           fresh make_set must still work and the earlier element must
           still answer queries. *)
        let b = Dsu.Growable.make_set d in
        check Alcotest.bool "fresh element distinct" false
          (Dsu.Growable.same_set d a b);
        Dsu.Growable.unite d a b;
        check Alcotest.bool "united" true (Dsu.Growable.same_set d a b));
    case "growable make_set crashes at a chunk-publish site" (fun () ->
        let d = Dsu.Growable.create () in
        for _ = 1 to Dsu.Growable.chunk_size do
          ignore (Dsu.Growable.make_set d : int)
        done;
        with_plan
          (crash_at [ Site.Chunk_publish_pre; Site.Chunk_publish_post ])
          (fun () ->
            Inject.enroll ~slot:0;
            (* The first chunk is full: the next make_set must grow a new
               chunk and hit a publish site on the way. *)
            try
              ignore (Dsu.Growable.make_set d : int);
              Alcotest.fail "expected Crashed"
            with Inject.Crashed (site, _) ->
              check Alcotest.bool "publish site" true
                (site = Site.Chunk_publish_pre || site = Site.Chunk_publish_post));
        (* Growth still works after the abandoned publish. *)
        let x = Dsu.Growable.make_set d in
        let y = Dsu.Growable.make_set d in
        Dsu.Growable.unite d x y;
        check Alcotest.bool "united" true (Dsu.Growable.same_set d x y);
        Dsu.Growable.unite d 0 x;
        check Alcotest.bool "united across the chunk boundary" true
          (Dsu.Growable.same_set d y 0));
    case "ranked unite crashes at Rank_read, forest stays valid" (fun () ->
        let d = Dsu.Packed.Native.create 32 in
        with_plan
          (crash_at [ Site.Rank_read ])
          (fun () ->
            Inject.enroll ~slot:0;
            try
              Dsu.Packed.Native.unite d 0 1;
              Alcotest.fail "expected Crashed"
            with Inject.Crashed (site, _) ->
              check Alcotest.bool "site" true (site = Site.Rank_read));
        (* The abandoned unite installed at most one CAS: re-running it
           completes, and the forest validates under the rank order. *)
        Dsu.Packed.Native.unite d 0 1;
        check Alcotest.bool "united" true (Dsu.Packed.Native.same_set d 0 1);
        let r =
          Forest_check.check
            ~prio:(Dsu.Packed.Native.rank_of d)
            (Dsu.Packed.Native.parents_snapshot d)
        in
        check Alcotest.bool "forest ok" true (Forest_check.ok r));
  ]

(* ---------------------------------------------------------- tuned path *)

(* The memory-order-tuned hot path (relaxed/acquire loads, weak split
   CAS, link backoff) runs the same find bodies as every other mode: each
   policy's loop is written once, with its fault sites under [if obs],
   and the armed specialisation keeps them.  So every fault site must
   keep firing when the structure is created with
   [~memory_order:Relaxed_reads], under every policy that reaches it —
   [Find_hop] under all five, the split CAS sites under the four that
   compact — and inside the bulk kernels.  Both linking rules run the
   same bodies, so each case runs on the flat (by id) and the packed (by
   rank) layouts.  These are regression tests against the tuning, a
   policy or either rule silently bypassing injection. *)

module Driver = Dsu.Driver

let tuned_create layout policy ?(n = 256) ~seed () =
  let plan =
    {
      Dsu.Plan.memory_order = Dsu.Memory_order.Relaxed_reads;
      compaction = policy;
      layout;
    }
  in
  Driver.create ~plan ~seed n

let random_unites d ~seed ~count =
  let rng = Repro_util.Rng.create seed in
  for _ = 1 to count do
    Driver.unite d (Repro_util.Rng.int rng 256) (Repro_util.Rng.int rng 256)
  done

let forest_ok d =
  let r =
    Forest_check.check ~prio:(Driver.prio d) (Driver.parents_snapshot d)
  in
  check Alcotest.bool "forest ok" true (Forest_check.ok r)

let tuned_site_cases =
  [
    ( "tuned path still counts Find_hop hits",
      Dsu.Find_policy.all,
      fun layout policy ->
        let d = tuned_create layout policy ~seed:31 () in
        with_plan
          { Inject.seed = 30; rules_for = (fun _ -> []) }
          (fun () ->
            Inject.enroll ~slot:0;
            random_unites d ~seed:7 ~count:300;
            for i = 0 to 255 do
              ignore (Driver.find d i : int)
            done;
            check Alcotest.bool "hits recorded" true
              ((Inject.totals ()).Inject.hits > 0);
            check Alcotest.bool "hops recorded" true (Inject.my_hops () > 0)) );
    ( "split CAS sites still crash the tuned find",
      List.filter (( <> ) Dsu.Find_policy.No_compaction) Dsu.Find_policy.all,
      fun layout policy ->
        let d = tuned_create layout policy ~seed:33 () in
        (* Build depth while disarmed so the crash plan only sees finds. *)
        random_unites d ~seed:9 ~count:400;
        with_plan
          (crash_at [ Site.Split_cas_pre; Site.Split_cas_post ])
          (fun () ->
            Inject.enroll ~slot:0;
            let crashed = ref false in
            (try
               for i = 0 to 255 do
                 ignore (Driver.find d i : int)
               done
             with Inject.Crashed (site, _) ->
               crashed := true;
               check Alcotest.bool "split site" true
                 (site = Site.Split_cas_pre || site = Site.Split_cas_post));
            check Alcotest.bool "a split fired" true !crashed);
        (* The abandoned split is harmless: queries and the forest audit
           still pass. *)
        for i = 0 to 255 do
          ignore (Driver.find d i : int)
        done;
        forest_ok d );
    ( "Link_cas_pre still crashes inside unite_batch",
      Dsu.Find_policy.all,
      fun layout policy ->
        let d = tuned_create layout policy ~seed:35 () in
        let xs = Array.init 128 (fun i -> i) in
        let ys = Array.init 128 (fun i -> i + 128) in
        with_plan
          (crash_at [ Site.Link_cas_pre ])
          (fun () ->
            Inject.enroll ~slot:0;
            try
              Driver.unite_batch d xs ys;
              Alcotest.fail "expected Crashed"
            with Inject.Crashed (site, _) ->
              check Alcotest.bool "link site" true (site = Site.Link_cas_pre));
        (* Re-running the abandoned batch disarmed completes it. *)
        Driver.unite_batch d xs ys;
        for i = 0 to 127 do
          check Alcotest.bool "pair united" true
            (Driver.same_set d xs.(i) ys.(i))
        done;
        forest_ok d );
    ( "same_set_batch traversals still count Find_hop",
      Dsu.Find_policy.all,
      fun layout policy ->
        let d = tuned_create layout policy ~seed:37 () in
        random_unites d ~seed:11 ~count:300;
        let xs = Array.init 128 (fun i -> i) in
        let ys = Array.init 128 (fun i -> 255 - i) in
        with_plan
          { Inject.seed = 36; rules_for = (fun _ -> []) }
          (fun () ->
            Inject.enroll ~slot:0;
            ignore (Driver.same_set_batch d xs ys : bool array);
            check Alcotest.bool "hops recorded" true (Inject.my_hops () > 0)) );
  ]

let tuned_site_tests =
  List.concat_map
    (fun layout ->
      List.concat_map
        (fun (name, policies, f) ->
          List.map
            (fun policy ->
              case
                (Printf.sprintf "%s %s: %s"
                   (Dsu.Plan.layout_to_string layout)
                   (Dsu.Find_policy.to_string policy)
                   name)
                (fun () -> f layout policy))
            policies)
        tuned_site_cases)
    [ Dsu.Plan.Flat; Dsu.Plan.Packed ]

(* --------------------------------------------------------- Forest_check *)

let violations r = List.length r.Forest_check.violations

let forest_tests =
  [
    case "valid forest passes" (fun () ->
        (* 0 -> 2, 1 -> 2, 2 root; 3 -> 4, 4 root *)
        let r = Forest_check.check [| 2; 2; 2; 4; 4 |] in
        check Alcotest.bool "ok" true (Forest_check.ok r);
        check Alcotest.int "roots" 2 r.Forest_check.roots;
        check Alcotest.int "max depth" 1 r.Forest_check.max_depth);
    case "empty forest passes" (fun () ->
        check Alcotest.bool "ok" true (Forest_check.ok (Forest_check.check [||])));
    case "seeded 2-cycle is detected" (fun () ->
        let r = Forest_check.check [| 1; 0; 2 |] in
        check Alcotest.bool "not ok" false (Forest_check.ok r);
        check Alcotest.bool "reports a cycle" true
          (List.exists
             (function Forest_check.Cycle _ -> true | _ -> false)
             r.Forest_check.violations));
    case "seeded long cycle is detected with its members" (fun () ->
        (* 2 -> 3 -> 4 -> 2, plus 0,1 hanging off the cycle *)
        let r = Forest_check.check ~prio:(fun _ -> 0) [| 2; 2; 3; 4; 2 |] in
        check Alcotest.bool "not ok" false (Forest_check.ok r);
        let cyc =
          List.find_map
            (function Forest_check.Cycle c -> Some c | _ -> None)
            r.Forest_check.violations
        in
        match cyc with
        | None -> Alcotest.fail "no cycle reported"
        | Some members ->
          check Alcotest.int "cycle length" 3 (List.length members);
          List.iter
            (fun m -> check Alcotest.bool "member" true (List.mem m [ 2; 3; 4 ]))
            members);
    case "priority-order violation is detected" (fun () ->
        (* parent 0 has lower priority than child 1 *)
        let r = Forest_check.check [| 0; 0 |] ~prio:(fun i -> [| 5; 9 |].(i)) in
        check Alcotest.bool "not ok" false (Forest_check.ok r);
        check Alcotest.bool "order violation" true
          (List.exists
             (function
               | Forest_check.Order { node = 1; parent = 0 } -> true
               | _ -> false)
             r.Forest_check.violations));
    case "out-of-range parent is detected" (fun () ->
        let r = Forest_check.check [| 7 |] in
        check Alcotest.bool "not ok" false (Forest_check.ok r);
        check Alcotest.int "one violation" 1 (violations r));
    case "quiescent native forest validates" (fun () ->
        let d = Dsu.Native.create ~seed:42 256 in
        let rng = Repro_util.Rng.create 17 in
        for _ = 1 to 400 do
          Dsu.Native.unite d
            (Repro_util.Rng.int rng 256)
            (Repro_util.Rng.int rng 256)
        done;
        let r =
          Forest_check.check ~prio:(Dsu.Native.id d) (Dsu.Native.parents_snapshot d)
        in
        check Alcotest.bool "ok" true (Forest_check.ok r));
    case "json shape" (fun () ->
        let r = Forest_check.check [| 1; 0 |] in
        match Forest_check.to_json r with
        | Repro_obs.Json.Obj fields ->
          check Alcotest.bool "has violations key" true
            (List.mem_assoc "violations" fields)
        | _ -> Alcotest.fail "expected an object");
  ]

(* ---------------------------------------------------------------- Chaos *)

(* Scaled-down but structurally faithful scenarios: enough ops that every
   planned crash countdown is reached, small enough for the test suite. *)
let chaos_config =
  {
    Chaos.default_config with
    Chaos.n = 512;
    ops_per_domain = 4_000;
    domains = 8;
    crash_domains = 2;
    crash_after = 500;
    stall_prob = 0.02;
    stall_len = 16;
  }

let run_dsu ?(config = chaos_config) ?(policy = Dsu.Find_policy.Two_try_splitting) layout =
  Chaos.run ~config ~layout ~policy ~depth:Chaos.Dsu ()

let chaos_tests =
  [
    case "2-of-8 crash demo: survivors finish, audit passes" (fun () ->
        let s = run_dsu Dsu.Plan.Flat in
        check Alcotest.int "both victims crashed" 2 (List.length s.Chaos.crashed);
        List.iter
          (fun (slot, _) -> check Alcotest.bool "victim slot" true (slot < 2))
          s.Chaos.crashed;
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s);
        check
          Alcotest.(list string)
          "the audit and the depth's facts ran"
          [ "crash-fired"; "forest"; "lower"; "upper"; "answers"; "hops"; "complete" ]
          (List.map (fun c -> c.Chaos.name) s.Chaos.checks);
        check Alcotest.bool "crashes counted" true
          (s.Chaos.faults.Inject.crashes >= 2));
    case "crash-free scenario completes everything" (fun () ->
        let config =
          { chaos_config with Chaos.crash_domains = 0; domains = 4; ops_per_domain = 2_000 }
        in
        let s = run_dsu ~config ~policy:Dsu.Find_policy.One_try_splitting Dsu.Plan.Flat in
        check Alcotest.bool "nobody crashed" true (s.Chaos.crashed = []);
        List.iter
          (fun st ->
            List.iter (fun (_, _, ops) -> check Alcotest.int "all ops done" 2_000 ops) st.Chaos.slots)
          s.Chaos.stages;
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s));
    case "packed layout passes the same audit" (fun () ->
        let config = { chaos_config with Chaos.ops_per_domain = 2_000; domains = 4; crash_domains = 1; crash_after = 300 } in
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok (run_dsu ~config Dsu.Plan.Packed)));
    case "chaos json is well-formed and self-consistent" (fun () ->
        let config =
          { chaos_config with Chaos.domains = 4; crash_domains = 1; ops_per_domain = 1_500; crash_after = 200 }
        in
        let scenarios = Chaos.run_all ~config () in
        let json = Chaos.to_json ~config scenarios in
        let reparsed = Repro_obs.Json.parse_exn (Repro_obs.Json.to_string json) in
        (match Repro_obs.Json.member "schema" reparsed with
        | Some (Repro_obs.Json.String s) ->
          check Alcotest.string "schema" "dsu-drill/v1" s
        | _ -> Alcotest.fail "missing schema");
        match Repro_obs.Json.member "ok" reparsed with
        | Some (Repro_obs.Json.Bool ok) ->
          check Alcotest.bool "ok agrees" (List.for_all Chaos.scenario_ok scenarios) ok
        | _ -> Alcotest.fail "missing ok");
    case "invalid configs rejected" (fun () ->
        let bad config =
          try
            ignore (run_dsu ~config Dsu.Plan.Flat);
            false
          with Invalid_argument _ -> true
        in
        check Alcotest.bool "domains 0" true
          (bad { chaos_config with Chaos.domains = 0 });
        check Alcotest.bool "crash > domains" true
          (bad { chaos_config with Chaos.crash_domains = 99 });
        check Alcotest.bool "stall_prob > 1" true
          (bad { chaos_config with Chaos.stall_prob = 1.5 }));
  ]

(* ------------------------------------------------------------ the audit *)

(* The audit as a pure function over hand-built forests.  Six nodes:
   {0, 1, 2} linked below 2 and {3, 4} below 4; 5 alone.  The identity
   priority order makes every edge order-increasing. *)
let audit_forest parents =
  let rec find i = if parents.(i) = i then i else find parents.(i) in
  { Chaos.parents; prio = Fun.id; find }

let good = [| 2; 2; 2; 4; 4; 5 |]

let evidence ?(acked = [ (0, 1); (3, 4) ]) ?(submitted = [ (0, 1); (1, 2); (3, 4) ]) () =
  { Chaos.acked; submitted; answers = None; hops = [] }

let failed_checks checks =
  List.filter_map (fun c -> if c.Chaos.ok then None else Some c.Chaos.name) checks

let audit_tests =
  [
    case "a consistent forest passes every side" (fun () ->
        check
          Alcotest.(list string)
          "no failures" []
          (failed_checks (Chaos.audit (evidence ()) (audit_forest good))));
    case "a lost acked unite fails the lower side" (fun () ->
        (* 3 -> 4 missing: the recovered partition splits an acked pair. *)
        check
          Alcotest.(list string)
          "lower fails" [ "lower" ]
          (failed_checks (Chaos.audit (evidence ()) (audit_forest [| 2; 2; 2; 3; 4; 5 |]))));
    case "one phantom merge fails the upper side" (fun () ->
        (* 4 -> 5: no submitted unite ever touched 5. *)
        check
          Alcotest.(list string)
          "upper fails" [ "upper" ]
          (failed_checks (Chaos.audit (evidence ()) (audit_forest [| 2; 2; 2; 4; 5; 5 |]))));
    case "a cyclic parent array fails the forest check without hanging" (fun () ->
        let cyclic = { Chaos.parents = [| 1; 2; 0; 4; 4; 5 |]; prio = Fun.id; find = Fun.id } in
        check
          Alcotest.(list string)
          "only the forest check, failed" [ "forest" ]
          (failed_checks (Chaos.audit (evidence ()) cyclic));
        check Alcotest.int "nothing else ran" 1
          (List.length (Chaos.audit (evidence ()) cyclic)));
  ]

let () =
  Alcotest.run "fault"
    [
      ("site", site_tests);
      ("inject", inject_tests);
      ("armed_sites", armed_site_tests);
      ("tuned_sites", tuned_site_tests);
      ("forest_check", forest_tests);
      ("chaos", chaos_tests);
      ("audit", audit_tests);
    ]
