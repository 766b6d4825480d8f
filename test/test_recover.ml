(* Tests for the crash-recovery subsystem: the snapshot codecs round-trip
   every layout, corrupted and truncated files are rejected as errors,
   repair-on-restart fixes seeded storage corruption while provably only
   splitting sets, and the crash drill's snapshot depth: a crashed
   multi-domain run snapshots, restores and resumes to a clean audit. *)

module Snap = Repro_recover.Snapshot
module Repair = Repro_recover.Repair
module Restore = Repro_recover.Restore
module Chaos = Harness.Chaos
module Json = Repro_obs.Json

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let rng_ops ~seed ~n ~ops apply =
  let rng = Repro_util.Rng.create seed in
  for _ = 1 to ops do
    apply (Repro_util.Rng.int rng n) (Repro_util.Rng.int rng n)
  done

(* One populated instance per layout, snapshotted at quiescence. *)

let native_snap () =
  let d = Dsu.Native.create ~seed:5 128 in
  rng_ops ~seed:11 ~n:128 ~ops:200 (Dsu.Native.unite d);
  Snap.of_driver (Dsu.Driver.Flat d)

let padded_snap () =
  let d =
    Dsu.Driver.create
      ~plan:{ Dsu.Plan.default with layout = Dsu.Plan.Padded }
      ~seed:5 128
  in
  rng_ops ~seed:11 ~n:128 ~ops:200 (Dsu.Driver.unite d);
  Snap.of_driver d

let packed_snap () =
  let d = Dsu.Packed.Native.create 128 in
  rng_ops ~seed:11 ~n:128 ~ops:200 (Dsu.Packed.Native.unite d);
  Snap.of_driver (Dsu.Driver.Packed d)

let all_layouts =
  [ ("flat", native_snap); ("padded", padded_snap); ("packed", packed_snap) ]

(* ---------------------------------------------------------------- codec *)

let roundtrip name encode decode snap =
  match decode (encode snap) with
  | Ok snap' -> check Alcotest.bool (name ^ " equal") true (Snap.equal snap snap')
  | Error e -> Alcotest.failf "%s decode failed: %s" name e

let codec_tests =
  List.concat_map
    (fun (layout, make) ->
      [
        case (layout ^ ": snapshot is a valid forest") (fun () ->
            check Alcotest.bool "ok" true (Snap.ok (make ())));
        case (layout ^ ": binary round-trip") (fun () ->
            roundtrip "binary" Snap.to_binary_string Snap.of_binary_string
              (make ()));
        case (layout ^ ": json round-trip") (fun () ->
            roundtrip "json" Snap.to_json_string Snap.of_json_string (make ()));
        case (layout ^ ": file round-trip auto-detects both formats")
          (fun () ->
            let snap = make () in
            List.iter
              (fun format ->
                let path = Filename.temp_file "dsu_snap" ".snap" in
                Fun.protect
                  ~finally:(fun () -> Sys.remove path)
                  (fun () ->
                    Snap.write_file ~format path snap;
                    match Snap.read_file path with
                    | Ok snap' ->
                      check Alcotest.bool "equal" true (Snap.equal snap snap')
                    | Error e -> Alcotest.failf "read_file: %s" e))
              [ Snap.Binary; Snap.Json ]);
      ])
    all_layouts
  @ [
      case "kind strings round-trip" (fun () ->
          List.iter
            (fun k ->
              check Alcotest.bool "round-trip" true
                (Snap.kind_of_string (Snap.kind_to_string k) = Some k))
            [ Snap.Flat; Snap.Packed ];
          check Alcotest.bool "boxed is no longer a writable kind" true
            (Snap.kind_of_string "boxed" = None);
          check Alcotest.bool "growable is no longer a writable kind" true
            (Snap.kind_of_string "growable" = None));
      case "corrupted byte fails the checksum" (fun () ->
          let s = Snap.to_binary_string (native_snap ()) in
          let b = Bytes.of_string s in
          Bytes.set b (Bytes.length b / 2)
            (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 0xff));
          match Snap.of_binary_string (Bytes.to_string b) with
          | Ok _ -> Alcotest.fail "corrupted snapshot accepted"
          | Error e ->
            check Alcotest.bool "mentions checksum" true
              (String.length e >= 8 && String.sub e 0 8 = "checksum"));
      case "truncated file is rejected" (fun () ->
          let s = Snap.to_binary_string (native_snap ()) in
          List.iter
            (fun len ->
              match Snap.of_binary_string (String.sub s 0 len) with
              | Ok _ -> Alcotest.failf "truncation to %d accepted" len
              | Error _ -> ())
            [ 0; 4; 12; String.length s - 1 ]);
      case "bad magic is rejected" (fun () ->
          match Snap.of_binary_string (String.make 64 'x') with
          | Ok _ -> Alcotest.fail "garbage accepted"
          | Error e ->
            check Alcotest.bool "mentions magic" true
              (String.length e >= 9 && String.sub e 0 9 = "bad magic"));
      case "tampered json checksum is rejected" (fun () ->
          let s = Snap.to_json_string (native_snap ()) in
          (* Retarget the first parents entry textually without touching
             the checksum field. *)
          let needle = "\"parents\":[" in
          let rec index_of i =
            if i + String.length needle > String.length s then None
            else if String.sub s i (String.length needle) = needle then Some i
            else index_of (i + 1)
          in
          match index_of 0 with
          | None -> Alcotest.fail "tamper point not found"
          | Some i ->
            let b = Bytes.of_string s in
            let j = i + String.length needle in
            Bytes.set b j (if Bytes.get b j = '0' then '1' else '0');
            let tampered = Bytes.to_string b in
            match Snap.of_json_string tampered with
            | Ok _ -> Alcotest.fail "tampered json accepted"
            | Error _ -> ());
      case "json junk is an error, not an exception" (fun () ->
          List.iter
            (fun junk ->
              match Snap.of_json_string junk with
              | Ok _ -> Alcotest.failf "junk accepted: %s" junk
              | Error _ -> ())
            [ "{}"; "[]"; "not json at all"; "{\"schema\":\"wrong/v9\"}" ]);
      case "packed: corrupt file on disk is rejected by read_file" (fun () ->
          let snap = packed_snap () in
          let path = Filename.temp_file "dsu_snap" ".snap" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Snap.write_file ~format:Snap.Binary path snap;
              let data =
                let ic = open_in_bin path in
                Fun.protect
                  ~finally:(fun () -> close_in_noerr ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              let b = Bytes.of_string data in
              let mid = Bytes.length b / 2 in
              Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x55));
              let oc = open_out_bin path in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () -> output_bytes oc b);
              match Snap.read_file path with
              | Ok _ -> Alcotest.fail "corrupt packed snapshot accepted"
              | Error _ -> ()));
      case "packed: restore rejects fields the word cannot hold" (fun () ->
          (* A decoded snapshot can still be unrepresentable in the packed
             word: ranks above the 21-bit field and out-of-range parents
             must surface as restore errors, not silent truncation. *)
          let base = packed_snap () in
          let with_prio i v =
            let prios = Array.copy base.Snap.prios in
            prios.(i) <- v;
            { base with Snap.prios }
          in
          let with_parent i v =
            let parents = Array.copy base.Snap.parents in
            parents.(i) <- v;
            { base with Snap.parents }
          in
          List.iter
            (fun (label, snap) ->
              match Restore.restore_result snap with
              | Ok _ -> Alcotest.failf "%s accepted" label
              | Error _ -> ())
            [
              ("oversized rank", with_prio 0 (Dsu.Packed.max_rank + 1));
              ("negative rank", with_prio 0 (-1));
              ("out-of-range parent", with_parent 3 base.Snap.n);
            ]);
      case "packed: restore-unite-resnapshot agrees with a quick-find oracle"
        (fun () ->
          (* Resume semantics: operations applied to a restored packed
             instance must partition identically to the same operations on
             a sequential oracle seeded with the snapshot's partition. *)
          let snap = packed_snap () in
          let restored = Restore.restore snap in
          (match restored with
          | Dsu.Driver.Packed _ -> ()
          | _ -> Alcotest.fail "packed snapshot restored to another kind");
          let oracle = Sequential.Quick_find.create snap.Snap.n in
          Array.iteri (Sequential.Quick_find.unite oracle) snap.Snap.parents;
          rng_ops ~seed:23 ~n:snap.Snap.n ~ops:150 (fun x y ->
              Dsu.Driver.unite restored x y;
              Sequential.Quick_find.unite oracle x y);
          for x = 0 to snap.Snap.n - 1 do
            for y = x + 1 to min (snap.Snap.n - 1) (x + 7) do
              check Alcotest.bool
                (Printf.sprintf "same_set %d %d" x y)
                (Sequential.Quick_find.same_set oracle x y)
                (Dsu.Driver.same_set restored x y)
            done
          done;
          check Alcotest.int "set counts agree"
            (Sequential.Quick_find.count_sets oracle)
            (Dsu.Driver.count_sets restored);
          check Alcotest.bool "re-snapshot still a valid forest" true
            (Snap.ok (Snap.of_driver restored)));
    ]

(* --------------------------------------------------------------- repair *)

let mk_snap parents prios =
  {
    Snap.kind = Snap.Flat;
    n = Array.length parents;
    capacity = Array.length parents;
    epoch = 0;
    parents;
    prios;
  }

let repair_tests =
  [
    case "clean snapshot: zero fixes" (fun () ->
        List.iter
          (fun (_, make) ->
            let snap = make () in
            let snap', fixes = Repair.repair snap in
            check Alcotest.int "no fixes" 0 (List.length fixes);
            check Alcotest.bool "unchanged" true (Snap.equal snap snap'))
          all_layouts);
    case "seeded 2-cycle is broken at the min-priority node" (fun () ->
        let snap = mk_snap [| 1; 0; 2 |] [| 3; 7; 1 |] in
        let snap', fixes = Repair.repair snap in
        check Alcotest.bool "repaired ok" true (Snap.ok snap');
        check Alcotest.bool "has a cycle fix" true
          (List.exists (fun f -> f.Repair.reason = Repair.Cycle) fixes);
        (* node 0 has the lower priority: it must be the one rooted, and the
           surviving 1 -> 0 edge keeps the component together. *)
        check Alcotest.int "0 rooted" 0 snap'.Snap.parents.(0);
        check Alcotest.bool "refines" true
          (Repair.refines ~fine:snap' ~coarse:snap));
    case "priority-order violation is rooted" (fun () ->
        (* 1 -> 0 but prio(1) > prio(0): Lemma 3.1 forbids the edge. *)
        let snap = mk_snap [| 0; 0 |] [| 5; 9 |] in
        let snap', fixes = Repair.repair snap in
        check Alcotest.bool "repaired ok" true (Snap.ok snap');
        check Alcotest.bool "order fix" true
          (List.exists
             (fun f -> f.Repair.node = 1 && f.Repair.reason = Repair.Order)
             fixes);
        check Alcotest.bool "refines" true
          (Repair.refines ~fine:snap' ~coarse:snap));
    case "out-of-range parent is rooted" (fun () ->
        let snap = mk_snap [| 7; 1 |] [| 1; 2 |] in
        let snap', fixes = Repair.repair snap in
        check Alcotest.bool "repaired ok" true (Snap.ok snap');
        check Alcotest.bool "range fix on 0" true
          (List.exists
             (fun f -> f.Repair.node = 0 && f.Repair.reason = Repair.Out_of_range)
             fixes);
        check Alcotest.int "0 self-rooted" 0 snap'.Snap.parents.(0));
    case "repair of a mangled real snapshot refines it" (fun () ->
        let snap = native_snap () in
        let parents = Array.copy snap.Snap.parents in
        (* Mangle three nodes: a 2-cycle and an out-of-range parent. *)
        parents.(0) <- 1;
        parents.(1) <- 0;
        parents.(2) <- snap.Snap.n + 41;
        let bad = { snap with Snap.parents } in
        let snap', fixes = Repair.repair bad in
        check Alcotest.bool "repaired ok" true (Snap.ok snap');
        check Alcotest.bool "some fixes" true (fixes <> []);
        check Alcotest.bool "refines the corrupted snapshot" true
          (Repair.refines ~fine:snap' ~coarse:bad));
    case "refines rejects a merge" (fun () ->
        (* fine glues {0,1}; coarse keeps them apart. *)
        let fine = mk_snap [| 0; 0 |] [| 2; 1 |] in
        let coarse = mk_snap [| 0; 1 |] [| 2; 1 |] in
        check Alcotest.bool "not a refinement" false
          (Repair.refines ~fine ~coarse);
        check Alcotest.bool "other direction holds" true
          (Repair.refines ~fine:coarse ~coarse:fine));
    case "restore_result reports invalid snapshots as errors" (fun () ->
        let bad = mk_snap [| 1; 0 |] [| 1; 0 |] in
        (match Restore.restore_result bad with
        | Ok _ -> Alcotest.fail "cyclic snapshot restored"
        | Error _ -> ());
        let repaired, _ = Repair.repair bad in
        match Restore.restore_result repaired with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "repaired snapshot rejected: %s" e);
  ]

(* ------------------------------------------------- crash-resume drill *)

let recovery_config =
  {
    Chaos.default_config with
    Chaos.n = 512;
    ops_per_domain = 3_000;
    domains = 4;
    crash_domains = 2;
    crash_after = 400;
    stall_prob = 0.02;
    stall_len = 16;
  }

(* The early crash of the packed regression: resumed unites promote ranks
   past their restore-time values. *)
let early_config =
  {
    Chaos.default_config with
    Chaos.n = 512;
    ops_per_domain = 500;
    domains = 2;
    crash_after = 200;
    seed = 1;
  }

let run_snapshot ?(config = recovery_config) ?keep
    ?(policy = Dsu.Find_policy.Two_try_splitting) layout =
  Chaos.run ~config ?keep ~layout ~policy ~depth:Chaos.Snapshot ()

let find_check name (s : Chaos.scenario) =
  match List.find_opt (fun c -> c.Chaos.name = name) s.Chaos.checks with
  | Some c -> c
  | None -> Alcotest.failf "check %s not reported" name

let stage name (s : Chaos.scenario) =
  match List.find_opt (fun st -> st.Chaos.stage = name) s.Chaos.stages with
  | Some st -> st
  | None -> Alcotest.failf "stage %s not reported" name

let recovery_tests =
  [
    case "4-domain crash -> snapshot -> repair -> resume passes the audit"
      (fun () ->
        let keep = Filename.concat (Filename.get_temp_dir_name ()) "dsu-test-keep" in
        let s = run_snapshot ~keep Dsu.Plan.Flat in
        let dir = keep ^ "-flat-two-try-snapshot" in
        let crash_snap = Snap.read_file (Filename.concat dir "crash.snap") in
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir;
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s);
        check Alcotest.int "both crashed slots resumed" 2
          (List.length (stage "resume" s).Chaos.slots);
        check Alcotest.bool "resumed some operations" true
          (List.exists (fun (_, _, ops) -> ops > 0) (stage "resume" s).Chaos.slots);
        List.iter
          (fun name ->
            let c = find_check name s in
            check Alcotest.bool name true c.Chaos.ok)
          [
            "codec"; "repair-clean"; "recovery"; "recovered:lower"; "recovered:upper";
            "complete";
          ];
        (* The resumed audit re-runs the oracle sweep over both stages. *)
        check Alcotest.bool "oracle sweep passed" true (find_check "answers" s).Chaos.ok;
        match crash_snap with
        | Ok snap -> check Alcotest.bool "kept crash snapshot validates" true (Snap.ok snap)
        | Error e -> Alcotest.failf "kept crash snapshot unreadable: %s" e);
    case "packed early crash: the resumed audit reads ranks live" (fun () ->
        (* An audit that froze ranks at restore time reported false order
           violations here. *)
        let s = run_snapshot ~config:early_config Dsu.Plan.Packed in
        check Alcotest.bool "a slot crashed" true (s.Chaos.crashed <> []);
        check Alcotest.string "resumed forest" "" (find_check "forest" s).Chaos.detail;
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s));
    case "each stage reports its own hops and ops" (fun () ->
        (* Every site hit, hops included, counts toward a victim's crash
           countdown, so its crash-stage hops cannot exceed the countdown;
           the resumed run's hops belong to the resume stage alone. *)
        let s = run_snapshot ~config:early_config Dsu.Plan.Flat in
        let crash = stage "crash" s and resume = stage "resume" s in
        check Alcotest.int "both slots crashed" 2 (List.length s.Chaos.crashed);
        List.iter
          (fun (k, hops, ops) ->
            let countdown = early_config.Chaos.crash_after * (k + 1) in
            if hops > countdown + 1 then
              Alcotest.failf "slot %d: %d crash-stage hops, countdown %d" k hops countdown;
            let _, _, resumed =
              List.find (fun (k', _, _) -> k' = k) resume.Chaos.slots
            in
            check Alcotest.int "stages split the stream" early_config.Chaos.ops_per_domain
              (ops + resumed))
          crash.Chaos.slots);
  ]
  @ List.map
      (fun layout ->
        case
          (Dsu.Plan.layout_to_string layout
          ^ ": crash -> snapshot -> repair -> resume passes the audit")
          (fun () ->
            let s = run_snapshot layout in
            check Alcotest.int "both crashed slots resumed" 2
              (List.length (stage "resume" s).Chaos.slots);
            check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s)))
      [ Dsu.Plan.Padded ]
  @ [
    case "crash-free recovery drill also passes (nothing to resume)"
      (fun () ->
        let config =
          { recovery_config with Chaos.crash_domains = 0; ops_per_domain = 1_000 }
        in
        let s = run_snapshot ~config ~policy:Dsu.Find_policy.One_try_splitting Dsu.Plan.Flat in
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s);
        check Alcotest.bool "no slots resumed" true ((stage "resume" s).Chaos.slots = []));
    case "recovery json carries the drill's evidence" (fun () ->
        let config = { recovery_config with Chaos.depths = [ Chaos.Snapshot ] } in
        let json = Chaos.to_json ~config (Chaos.run_all ~config ()) in
        let reparsed = Repro_obs.Json.parse_exn (Repro_obs.Json.to_string json) in
        let field name j =
          match Repro_obs.Json.member name j with
          | Some v -> v
          | None -> Alcotest.failf "%s missing" name
        in
        check Alcotest.bool "schema" true
          (field "schema" reparsed = Repro_obs.Json.String "dsu-drill/v1");
        match field "scenarios" reparsed with
        | Repro_obs.Json.List [ first ] ->
          check Alcotest.bool "depth" true
            (field "depth" first = Repro_obs.Json.String "snapshot");
          check Alcotest.bool "scenario ok in json" true
            (field "ok" first = Repro_obs.Json.Bool true);
          (match field "stages" first with
          | Repro_obs.Json.List stages -> check Alcotest.int "two stages" 2 (List.length stages)
          | _ -> Alcotest.fail "stages is not a list")
        | _ -> Alcotest.fail "expected one scenario");
  ]

(* ------------------------------------------------------- legacy files *)

(* Snapshots of three retired layouts, each captured from a forest built
   by 4 racing domains over 48 nodes: the two-array rank layout (kind byte
   3 / JSON "rank", both codecs and both versions), which restores as
   packed; the boxed [int Atomic.t array] layout (kind byte 1 / JSON
   "boxed", v2), which restores as flat; and the growable backend (kind
   byte 2 / JSON "growable", v2), which restores as flat with its 62-bit
   priorities re-ranked into ids.  growable-cap-v2.* comes from the
   growable layout that preallocated its slots, so it records capacity 64
   for n 48; the same unites give it growable-v2's partition.
   <layout>-partition.txt holds the captured partition as each node's
   smallest set member. *)
let legacy_partition layout =
  In_channel.with_open_text
    (Printf.sprintf "data/%s-partition.txt" layout)
    In_channel.input_all
  |> String.trim |> String.split_on_char ' ' |> List.map int_of_string
  |> Array.of_list

let legacy_case ~layout ~restores_as file =
  case
    (Printf.sprintf "legacy %s snapshot %s restores as %s" layout file
       restores_as)
    (fun () ->
      let snap =
        match Snap.read_file (Filename.concat "data" file) with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s: %s" file e
      in
      check Alcotest.string "decoded kind" restores_as
        (Snap.kind_to_string snap.Snap.kind);
      check Alcotest.bool "passes check" true (Snap.ok snap);
      let d = Restore.restore snap in
      check Alcotest.string "restored kind" restores_as
        (Snap.kind_to_string (Dsu.Driver.kind d));
      let labels = legacy_partition layout in
      check Alcotest.int "universe" (Array.length labels) (Dsu.Driver.n d);
      Array.iteri
        (fun i l ->
          for j = 0 to Array.length labels - 1 do
            check Alcotest.bool
              (Printf.sprintf "same_set %d %d" i j)
              (l = labels.(j))
              (Dsu.Driver.same_set d i j)
          done)
        labels;
      check Alcotest.bool "re-snapshot passes check" true
        (Snap.ok (Snap.of_driver d)))

(* [t]'s binary file relabelled as the growable backend's: kind byte 2
   patched in and the checksum recomputed over the patched body.  A flat
   record stands in for a growable file with the same arrays. *)
let as_growable_binary t =
  let b = Bytes.of_string (Snap.to_binary_string t) in
  let len = Bytes.length b in
  Bytes.set b 8 (Char.chr 2);
  Bytes.set_int32_le b (len - 4)
    (Int32.of_int (Repro_util.Crc32.string (Bytes.sub_string b 8 (len - 12))));
  Bytes.to_string b

(* The same relabelling in JSON: the checksum covers the body with the
   original kind byte, which is the patched binary body. *)
let as_growable_json t =
  let s = as_growable_binary t in
  let crc = Repro_util.Crc32.string (String.sub s 8 (String.length s - 12)) in
  match Snap.to_json t with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (function
           | "kind", _ -> ("kind", Json.String "growable")
           | "checksum", _ -> ("checksum", Json.Int crc)
           | f -> f)
         fields)
  | _ -> Alcotest.fail "snapshot JSON is not an object"

let growable_codecs =
  [
    ("binary", fun t -> Snap.of_binary_string (as_growable_binary t));
    ("json", fun t -> Snap.of_json (as_growable_json t));
  ]

let flat_record ?capacity parents prios =
  let n = Array.length parents in
  {
    Snap.kind = Snap.Flat;
    n;
    capacity = Option.value capacity ~default:n;
    epoch = 0;
    parents;
    prios;
  }

(* Growable priorities are 62-bit draws that may tie; the decoder ranks
   them into ids by (priority, index). *)
let growable_ties_cases =
  List.map
    (fun (codec, decode) ->
      let name =
        if codec = "binary" then "legacy growable priorities that tie re-rank by index"
        else "legacy growable JSON priorities that tie re-rank by index"
      in
      case name (fun () ->
          match decode (flat_record [| 2; 3; 2; 0 |] [| 7; 5; 7; 5 |]) with
          | Error e -> Alcotest.fail e
          | Ok s ->
            check Alcotest.string "decoded kind" "flat" (Snap.kind_to_string s.Snap.kind);
            check Alcotest.(array int) "ids in (priority, index) order" [| 2; 0; 3; 1 |]
              s.Snap.prios;
            check Alcotest.bool "passes check" true (Snap.ok s);
            let d = Restore.restore s in
            check Alcotest.bool "restored forest" true
              (Dsu.Driver.same_set d 1 2 && Dsu.Driver.count_sets d = 1)))
    growable_codecs

let growable_guard_cases =
  [
    case "a legacy growable file whose kind or priorities changed fails the checksum"
      (fun () ->
        let rejected what = function
          | Ok _ -> Alcotest.failf "%s accepted" what
          | Error e ->
            check Alcotest.bool (what ^ " mentions checksum") true
              (String.length e >= 8 && String.sub e 0 8 = "checksum")
        in
        let json =
          match
            Json.parse
              (In_channel.with_open_text "data/growable-v2.json" In_channel.input_all)
          with
          | Ok j -> j
          | Error e -> Alcotest.fail e
        in
        let edit key f =
          match json with
          | Json.Obj fields ->
            Json.Obj (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) fields)
          | _ -> Alcotest.fail "fixture is not an object"
        in
        rejected "relabelled flat" (Snap.of_json (edit "kind" (fun _ -> Json.String "flat")));
        rejected "relabelled boxed"
          (Snap.of_json (edit "kind" (fun _ -> Json.String "boxed")));
        rejected "changed priority"
          (Snap.of_json
             (edit "prios" (function
               | Json.List (Json.Int p :: rest) -> Json.List (Json.Int (p + 1) :: rest)
               | _ -> Alcotest.fail "prios is not an int list")));
        let bin = In_channel.with_open_bin "data/growable-v2.bin" In_channel.input_all in
        let flip off =
          let b = Bytes.of_string bin in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1));
          Snap.of_binary_string (Bytes.to_string b)
        in
        rejected "binary kind byte" (flip 8);
        (* The first priority word follows the 25-byte header and n parents. *)
        rejected "binary priority" (flip (8 + 25 + (8 * 48))));
    case "a legacy growable file with capacity below n is rejected" (fun () ->
        List.iter
          (fun (codec, decode) ->
            match decode (flat_record ~capacity:1 [| 0; 1 |] [| 3; 9 |]) with
            | Ok _ -> Alcotest.failf "%s: capacity 1 for n 2 accepted" codec
            | Error e -> check Alcotest.string codec "capacity below element count" e)
          growable_codecs);
    case "a legacy growable forest is checked in (priority, index) order" (fun () ->
        List.iter
          (fun (codec, decode) ->
            List.iter
              (fun (what, parents, prios, valid) ->
                match decode (flat_record parents prios) with
                | Error e -> Alcotest.failf "%s, %s: %s" codec what e
                | Ok s -> check Alcotest.bool (codec ^ ", " ^ what) valid (Snap.ok s))
              [
                ("up the priorities", [| 1; 1 |], [| 3; 9 |], true);
                ("down the priorities", [| 1; 1 |], [| 9; 3 |], false);
                ("tie, up the index", [| 1; 1 |], [| 5; 5 |], true);
                ("tie, down the index", [| 0; 0 |], [| 5; 5 |], false);
              ])
          growable_codecs);
  ]

let legacy_tests =
  growable_ties_cases @ growable_guard_cases
  @ List.map
    (legacy_case ~layout:"rank" ~restores_as:"packed")
    [ "rank-v2.bin"; "rank-v2.json"; "rank-v1.bin"; "rank-v1.json" ]
  @ List.map
      (legacy_case ~layout:"boxed" ~restores_as:"flat")
      [ "boxed-v2.bin"; "boxed-v2.json" ]
  @ List.map
      (legacy_case ~layout:"growable" ~restores_as:"flat")
      [
        "growable-v2.bin";
        "growable-v2.json";
        "growable-cap-v2.bin";
        "growable-cap-v2.json";
      ]

let () =
  Alcotest.run "recover"
    [
      ("codec", codec_tests);
      ("legacy", legacy_tests);
      ("repair", repair_tests);
      ("recovery", recovery_tests);
    ]
