(* Tests for the durability subsystem: the CRC and WAL codecs round-trip
   and reject every torn or bit-flipped tail, group commit delivers every
   acknowledged append, recovery replays exactly the records past the
   snapshot's epoch cut, fuzzy snapshots taken against racing mutators
   always refine the final partition (100 seeded races per layout), the
   epoch-stamped snapshot codec round-trips, crash-atomic write_file
   leaves no droppings, and the crash drill's WAL depth passes on every
   layout without leaving its scratch directory behind. *)

module Crc32 = Repro_util.Crc32
module Epoch = Repro_durable.Epoch
module Wal = Repro_durable.Wal
module Fuzzy = Repro_durable.Fuzzy
module Recovery = Repro_durable.Recovery
module Snap = Repro_recover.Snapshot
module Repair = Repro_recover.Repair
module Restore = Repro_recover.Restore
module Chaos = Harness.Chaos
module Policy = Dsu.Find_policy
module Rng = Repro_util.Rng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let temp_wal () = Filename.temp_file "test-durable" ".wal"

let read_bin path = In_channel.with_open_bin path In_channel.input_all

let tail_of path =
  match Wal.read_file path with Ok t -> t | Error e -> Alcotest.fail e

(* ----------------------------------------------------------------- crc *)

let test_crc_vector () =
  (* the standard IEEE CRC-32 check vector *)
  check Alcotest.int "123456789" 0xCBF43926 (Crc32.string "123456789");
  check Alcotest.int "empty" 0 (Crc32.string "");
  check Alcotest.int "sub = whole" (Crc32.string "abc")
    (Crc32.sub "xxabcxx" ~pos:2 ~len:3)

(* --------------------------------------------------------------- epoch *)

let test_epoch () =
  let e = Epoch.create () in
  check Alcotest.int "starts at 1 (0 is the quiescent sentinel)" 1
    (Epoch.current e);
  check Alcotest.int "bump returns the new value" 2 (Epoch.bump e);
  check Alcotest.int "current follows" 2 (Epoch.current e)

(* --------------------------------------------------------------- codec *)

let test_record_roundtrip () =
  let r = { Wal.seq = 42; epoch = 7; x = 123_456; y = 654_321 } in
  match Wal.decode_record (Bytes.to_string (Wal.encode_record r)) 0 with
  | Ok r' -> check Alcotest.bool "roundtrip" true (r = r')
  | Error _ -> Alcotest.fail "decode of a freshly encoded record failed"

let test_writer_roundtrip () =
  let path = temp_wal () in
  let w = Wal.create_writer ~shards:2 ~flush_records:8 path in
  for i = 0 to 99 do
    Wal.append w ~child:i ~parent:(i + 1)
  done;
  Wal.close w;
  let tail = tail_of path in
  Sys.remove path;
  check Alcotest.int "all records" 100 (Array.length tail.Wal.records);
  check Alcotest.bool "tail intact" true (tail.Wal.truncated_at = None);
  (* commit order need not be seq order (sharded staging), but every seq
     must appear exactly once with its payload intact *)
  let seen = Array.make 100 false in
  Array.iter
    (fun (r : Wal.record) ->
      check Alcotest.int "payload" (r.Wal.x + 1) r.Wal.y;
      check Alcotest.bool "seq in range" true (r.Wal.seq >= 0 && r.Wal.seq < 100);
      check Alcotest.bool "seq unique" false seen.(r.Wal.seq);
      seen.(r.Wal.seq) <- true)
    tail.Wal.records;
  check Alcotest.bool "every seq present" true (Array.for_all Fun.id seen)

let test_group_commit_stats () =
  let path = temp_wal () in
  (* a 10s window so only the batch bound and flush/close trigger commits *)
  let w = Wal.create_writer ~flush_records:16 ~flush_interval:10.0 path in
  for i = 0 to 63 do
    Wal.append w ~child:i ~parent:(i + 1)
  done;
  Wal.flush w;
  let s = Wal.writer_stats w in
  check Alcotest.bool "flush commits everything so far" true
    (s.Wal.ws_committed >= 64);
  Wal.close w;
  let s = Wal.writer_stats w in
  Sys.remove path;
  check Alcotest.int "appended" 64 s.Wal.ws_appended;
  check Alcotest.int "committed = appended after close" 64 s.Wal.ws_committed;
  check Alcotest.bool "chunked into >= 4 commits of <= 16" true
    (s.Wal.ws_commits >= 4)

(* [flush] must cover the caller's own records, not just as many records
   as were appended: 4 domains append and flush concurrently, and each
   record must be in the file when its appender's flush returns. *)
let test_flush_covers_own_records () =
  let path = temp_wal () in
  let w = Wal.create_writer ~shards:4 ~flush_records:8 ~flush_interval:0.0005 path in
  let missing = Atomic.make None in
  let worker k () =
    for i = 0 to 99 do
      for j = 0 to 3 do
        Wal.append w ~child:k ~parent:((4 * i) + j)
      done;
      Wal.flush w;
      let on_disk = (tail_of path).Wal.records in
      for j = 0 to 3 do
        if
          Atomic.get missing = None
          && not
               (Array.exists
                  (fun (r : Wal.record) -> r.Wal.x = k && r.Wal.y = (4 * i) + j)
                  on_disk)
        then Atomic.set missing (Some (k, (4 * i) + j))
      done
    done
  in
  List.iter Domain.join (List.init 4 (fun k -> Domain.spawn (worker k)));
  Wal.close w;
  Sys.remove path;
  match Atomic.get missing with
  | None -> ()
  | Some (k, i) -> Alcotest.failf "flush returned before record (%d, %d) was on disk" k i

(* ------------------------------------------------------------- shutdown *)

module Fi = Repro_fault.Inject
module Site = Repro_fault.Site

(* Kill the committer with an injected crash mid-commit, then exercise the
   shutdown paths that used to be able to hang (flush waiting on a commit
   watermark that will never advance) or raise (a second close joining an
   already-joined domain). *)
let test_close_after_committer_crash () =
  let path = temp_wal () in
  Fi.arm
    {
      Fi.seed = 7;
      rules_for =
        (fun slot ->
          if slot = 9 then [ Fi.rule ~sites:[ Site.Wal_commit_mid ] Fi.Crash ]
          else []);
    };
  let w =
    Wal.create_writer ~shards:1 ~flush_records:4 ~flush_interval:0.0005
      ~on_committer_start:(fun () -> Fi.enroll ~slot:9)
      path
  in
  for i = 0 to 31 do
    Wal.append w ~child:i ~parent:(i + 1)
  done;
  (* The first commit attempt dies at Wal_commit_mid; wait for the latch. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Wal.crashed w = None && Unix.gettimeofday () < deadline do
    Wal.flush w;
    Unix.sleepf 0.001
  done;
  check Alcotest.bool "committer crashed" true (Wal.crashed w <> None);
  Wal.flush w;
  (* must not hang *)
  Wal.close w;
  (* must not hang or re-raise *)
  Wal.close w;
  (* second close: no double join *)
  Fi.disarm ();
  Sys.remove path;
  check Alcotest.bool "injected crash is not a failure" true
    (Wal.failed w = None)

(* A committer killed by a real exception (not an injected crash) must
   latch it too: here the start hook raises before the commit loop even
   begins, the historically worst case — nothing was ever going to set the
   old crash latch. *)
let test_close_after_committer_failure () =
  let path = temp_wal () in
  let w =
    Wal.create_writer ~shards:1 ~flush_interval:0.0005
      ~on_committer_start:(fun () -> failwith "committer start blew up")
      path
  in
  Wal.append w ~child:0 ~parent:1;
  Wal.flush w;
  (* must not hang: the failure latch ends the wait *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Wal.failed w = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  (match Wal.failed w with
  | Some (Failure msg) ->
    check Alcotest.string "latched exception" "committer start blew up" msg
  | Some e -> Alcotest.failf "unexpected latched exception %s" (Printexc.to_string e)
  | None -> Alcotest.fail "committer failure never latched");
  Wal.close w;
  Wal.close w;
  Sys.remove path;
  check Alcotest.bool "no injected-crash latch" true (Wal.crashed w = None)

(* Concurrent closers: exactly one does the join, the rest are no-ops. *)
let test_concurrent_close () =
  let path = temp_wal () in
  let w = Wal.create_writer ~shards:2 path in
  for i = 0 to 99 do
    Wal.append w ~child:i ~parent:(i + 1)
  done;
  let closers =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Wal.close w))
  in
  List.iter Domain.join closers;
  let s = Wal.writer_stats w in
  Sys.remove path;
  check Alcotest.int "everything committed" 100 s.Wal.ws_committed

(* ----------------------------------------------------------- torn tails *)

(* Truncate a valid WAL at EVERY byte length: the reader must return
   exactly the whole records that fit and flag the torn point, never
   error, never fabricate a record from a partial suffix. *)
let test_truncation_every_length () =
  let path = temp_wal () in
  let w = Wal.create_writer ~shards:1 path in
  for i = 0 to 19 do
    Wal.append w ~child:i ~parent:(i + 1)
  done;
  Wal.close w;
  let data = read_bin path in
  Sys.remove path;
  let magic_len = String.length Wal.magic in
  check Alcotest.int "file shape" (magic_len + (20 * Wal.record_bytes))
    (String.length data);
  for len = 0 to magic_len - 1 do
    match Wal.of_string (String.sub data 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted a %d-byte file without the magic" len
  done;
  for len = magic_len to String.length data do
    match Wal.of_string (String.sub data 0 len) with
    | Error e -> Alcotest.failf "len %d: %s" len e
    | Ok tail ->
      let whole = (len - magic_len) / Wal.record_bytes in
      check Alcotest.int
        (Printf.sprintf "whole records at len %d" len)
        whole
        (Array.length tail.Wal.records);
      let torn = (len - magic_len) mod Wal.record_bytes <> 0 in
      check
        Alcotest.(option int)
        (Printf.sprintf "torn point at len %d" len)
        (if torn then Some (magic_len + (whole * Wal.record_bytes)) else None)
        tail.Wal.truncated_at
  done

(* Flip one bit in every byte of a valid WAL: a flip inside the magic is
   a hard error; a flip inside record k truncates the valid prefix to
   exactly the first k records (CRC-32 catches every single-bit flip). *)
let test_bitflip_every_byte () =
  let path = temp_wal () in
  let w = Wal.create_writer ~shards:1 path in
  for i = 0 to 5 do
    Wal.append w ~child:i ~parent:(i + 1)
  done;
  Wal.close w;
  let data = read_bin path in
  Sys.remove path;
  let magic_len = String.length Wal.magic in
  for pos = 0 to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
    match Wal.of_string (Bytes.to_string b) with
    | Error _ ->
      check Alcotest.bool
        (Printf.sprintf "only magic flips may error (pos %d)" pos)
        true (pos < magic_len)
    | Ok tail ->
      check Alcotest.bool
        (Printf.sprintf "flip past the magic decodes (pos %d)" pos)
        true (pos >= magic_len);
      let bad = (pos - magic_len) / Wal.record_bytes in
      check Alcotest.int
        (Printf.sprintf "prefix stops at the corrupt record (pos %d)" pos)
        bad
        (Array.length tail.Wal.records);
      check
        Alcotest.(option int)
        (Printf.sprintf "torn at the corrupt record (pos %d)" pos)
        (Some (magic_len + (bad * Wal.record_bytes)))
        tail.Wal.truncated_at
  done

let test_truncate_file () =
  let path = temp_wal () in
  let w = Wal.create_writer ~shards:1 path in
  for i = 0 to 9 do
    Wal.append w ~child:i ~parent:(i + 1)
  done;
  Wal.close w;
  let full = read_bin path in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full - 5)));
  let t1 = tail_of path in
  check Alcotest.bool "torn after the tear" true (t1.Wal.truncated_at <> None);
  check Alcotest.int "one record lost" 9 (Array.length t1.Wal.records);
  let t2 =
    match Wal.truncate_file path with Ok t -> t | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "clean after truncate" true (t2.Wal.truncated_at = None);
  let t3 = tail_of path in
  Sys.remove path;
  check Alcotest.bool "physically clean on re-read" true
    (t3.Wal.truncated_at = None && Array.length t3.Wal.records = 9)

(* ------------------------------------------------------------- recovery *)

let test_replay_epoch_cut () =
  let d = Dsu.Native.create ~seed:1 8 in
  Dsu.Native.unite d 0 1;
  let snap = Snap.with_epoch (Snap.of_driver (Dsu.Driver.Flat d)) 3 in
  let restored =
    match Restore.restore_result snap with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let records =
    [|
      { Wal.seq = 0; epoch = 1; x = 2; y = 3 } (* below the cut: skipped *);
      { Wal.seq = 1; epoch = 3; x = 4; y = 5 } (* at the cut: replayed *);
      { Wal.seq = 2; epoch = 4; x = 0; y = 6 } (* past the cut: replayed *);
      { Wal.seq = 3; epoch = 4; x = 7; y = 99 } (* out of the universe *);
    |]
  in
  let replayed, skipped, out_of_range =
    Recovery.replay restored ~from_epoch:3 records
  in
  check Alcotest.int "replayed" 2 replayed;
  check Alcotest.int "skipped" 1 skipped;
  check Alcotest.int "out of range" 1 out_of_range;
  check Alcotest.bool "4-5 united" true (Dsu.Driver.same_set restored 4 5);
  check Alcotest.bool "0-6 united" true (Dsu.Driver.same_set restored 0 6);
  check Alcotest.bool "2-3 stayed apart" false (Dsu.Driver.same_set restored 2 3)

(* End to end: an epoch-0 quiescent snapshot, then a fuzzy epoch-stamped
   one, then more logged unites.  recover_files must skip the garbage
   candidate, pick the fuzzy snapshot (highest epoch), replay the tail
   and land on exactly the live structure's partition. *)
let test_recover_files_end_to_end () =
  let wal_path = temp_wal () in
  let s_old = Filename.temp_file "test-durable-old" ".snap" in
  let s_new = Filename.temp_file "test-durable-new" ".snap" in
  let junk = Filename.temp_file "test-durable-junk" ".snap" in
  Out_channel.with_open_bin junk (fun oc ->
      Out_channel.output_string oc "not a snapshot at all");
  let w = Wal.create_writer ~shards:1 ~flush_records:4 wal_path in
  let n = 64 in
  let d = Dsu.Native.create ~on_link:(Wal.append w) ~seed:3 n in
  let rng = Rng.create 17 in
  for _ = 1 to 30 do
    Dsu.Native.unite d (Rng.int rng n) (Rng.int rng n)
  done;
  Snap.write_file s_old (Snap.of_driver (Dsu.Driver.Flat d));
  let cap = Fuzzy.of_driver ~epoch:(Wal.epoch w) (Dsu.Driver.Flat d) in
  check Alcotest.int "no fixes at quiescence" 0 (List.length cap.Fuzzy.fixes);
  check Alcotest.bool "epoch stamped" true (cap.Fuzzy.snapshot.Snap.epoch > 0);
  Snap.write_file s_new cap.Fuzzy.snapshot;
  for _ = 1 to 30 do
    Dsu.Native.unite d (Rng.int rng n) (Rng.int rng n)
  done;
  Wal.close w;
  (match
     Recovery.recover_files ~snapshots:[ junk; s_old; s_new ] ~wal:wal_path ()
   with
  | Error e -> Alcotest.fail e
  | Ok (restored, stats) ->
    check Alcotest.bool "picked the fuzzy snapshot" true
      (stats.Recovery.snapshot_epoch > 0);
    check Alcotest.int "no repair fixes" 0 stats.Recovery.fixes;
    check Alcotest.bool "tail intact" true
      (stats.Recovery.truncated_at = None);
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        check Alcotest.bool
          (Printf.sprintf "partition matches at (%d,%d)" i j)
          (Dsu.Native.same_set d i j)
          (Dsu.Driver.same_set restored i j)
      done
    done);
  List.iter Sys.remove [ wal_path; s_old; s_new; junk ]

(* ------------------------------------------------- fuzzy vs racing runs *)

(* Spawn racing mutator domains, capture mid-flight, join, snapshot the
   quiescent end state.  The fuzzy cut must refine the final partition on
   every layout and every seed; the random-priority layouts additionally
   must need zero reconciliation fixes (Lemma 3.1). *)
let run_racing ~seed ~n ~ops ~domains ~unite ~capture =
  let workers =
    List.init domains (fun k ->
        Domain.spawn (fun () ->
            let rng = Rng.create (seed + (100 * k)) in
            for _ = 1 to ops do
              unite (Rng.int rng n) (Rng.int rng n)
            done))
  in
  let cap = capture () in
  List.iter Domain.join workers;
  cap

let check_fuzzy_refines ~name ~seeds ~strict run =
  for seed = 1 to seeds do
    let cap, final = run seed in
    if strict then
      check Alcotest.int
        (Printf.sprintf "%s seed %d: no fixes" name seed)
        0
        (List.length cap.Fuzzy.fixes)
    else if cap.Fuzzy.fixes <> [] then
      check Alcotest.int
        (Printf.sprintf "%s seed %d: fixes void the epoch cut" name seed)
        0 cap.Fuzzy.snapshot.Snap.epoch;
    check Alcotest.bool
      (Printf.sprintf "%s seed %d: raw cut refines final" name seed)
      true
      (Repair.refines ~fine:cap.Fuzzy.raw ~coarse:final);
    check Alcotest.bool
      (Printf.sprintf "%s seed %d: reconciled cut refines final" name seed)
      true
      (Repair.refines ~fine:cap.Fuzzy.snapshot ~coarse:final)
  done

let seeds = 100
let race_n = 64
let race_ops = 300
let race_domains = 2

let test_fuzzy layout () =
  (* Packed scans may race a rank promotion, so fixes are allowed there. *)
  let strict = layout <> Dsu.Plan.Packed in
  let plan = Dsu.Plan.on_layout layout Dsu.Plan.default in
  check_fuzzy_refines ~name:(Dsu.Plan.layout_to_string layout) ~seeds ~strict
    (fun seed ->
      let d = Dsu.Driver.create ~plan ~seed race_n in
      let cap =
        run_racing ~seed ~n:race_n ~ops:race_ops ~domains:race_domains
          ~unite:(Dsu.Driver.unite d)
          ~capture:(fun () -> Fuzzy.of_driver d)
      in
      (cap, Snap.of_driver d))

(* -------------------------------------------------------- snapshot epoch *)

let test_snapshot_epoch_roundtrip () =
  let d = Dsu.Native.create ~seed:2 16 in
  Dsu.Native.unite d 0 1;
  let s = Snap.with_epoch (Snap.of_driver (Dsu.Driver.Flat d)) 42 in
  (match Snap.of_binary_string (Snap.to_binary_string s) with
  | Ok b -> check Alcotest.int "binary epoch" 42 b.Snap.epoch
  | Error e -> Alcotest.fail e);
  (match Snap.of_json_string (Snap.to_json_string s) with
  | Ok j -> check Alcotest.int "json epoch" 42 j.Snap.epoch
  | Error e -> Alcotest.fail e);
  match Snap.with_epoch s (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative epoch accepted"

let test_write_file_atomic () =
  let path = Filename.temp_file "test-durable-atomic" ".snap" in
  let d = Dsu.Native.create ~seed:4 8 in
  Dsu.Native.unite d 0 1;
  Snap.write_file path (Snap.of_driver (Dsu.Driver.Flat d));
  let first =
    match Snap.read_file path with Ok s -> s | Error e -> Alcotest.fail e
  in
  Dsu.Native.unite d 2 3;
  Snap.write_file path (Snap.of_driver (Dsu.Driver.Flat d));
  let second =
    match Snap.read_file path with Ok s -> s | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "overwrite replaced the content" false
    (Snap.equal first second);
  (* the temp+rename discipline must not leave <path>.tmp.* droppings *)
  let dir = Filename.dirname path and base = Filename.basename path in
  let droppings =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           f <> base
           && String.length f > String.length base
           && String.sub f 0 (String.length base) = base)
  in
  Sys.remove path;
  check Alcotest.(list string) "no temp droppings" [] droppings

(* ---------------------------------------------------------- durable drill *)

let drill_config =
  {
    Chaos.default_config with
    n = 256;
    ops_per_domain = 2_000;
    domains = 2;
    stall_prob = 0.0;
  }

let run_drill ?(config = drill_config) layout depth =
  Chaos.run ~config ~layout ~policy:Policy.Two_try_splitting ~depth ()

let passed name (s : Chaos.scenario) =
  List.exists (fun c -> c.Chaos.name = name && c.Chaos.ok) s.Chaos.checks

let test_wal_drill layout () =
  let s = run_drill layout Chaos.Wal in
  if not (Chaos.scenario_ok s) then
    Alcotest.failf "wal drill failed:@.%a" Chaos.pp_scenario s;
  check Alcotest.bool "snapshotter and committer crashed" true (passed "crash-fired" s);
  check Alcotest.bool "wal tail torn" true (passed "torn-tail" s);
  check Alcotest.bool "recovery ran" true (s.Chaos.recovery <> None);
  check Alcotest.bool "recovered state audited from both sides" true
    (passed "recovered:lower" s && passed "recovered:upper" s)

(* Both durable depths work in a scratch directory under the temp dir;
   nothing may be left behind. *)
let test_scratch_removed () =
  let saved = Filename.get_temp_dir_name () in
  let tmp = Filename.temp_dir "test-durable-scratch" "" in
  Filename.set_temp_dir_name tmp;
  Fun.protect
    ~finally:(fun () -> Filename.set_temp_dir_name saved)
    (fun () ->
      List.iter
        (fun depth -> ignore (run_drill Dsu.Plan.Flat depth : Chaos.scenario))
        [ Chaos.Wal; Chaos.Service ]);
  let left = Sys.readdir tmp in
  Sys.rmdir tmp;
  check Alcotest.(array string) "scratch directories removed" [||] left

let () =
  Alcotest.run "durable"
    [
      ( "crc-epoch",
        [ case "crc32 check vector" test_crc_vector; case "epoch" test_epoch ]
      );
      ( "wal-codec",
        [
          case "record roundtrip" test_record_roundtrip;
          case "writer roundtrip" test_writer_roundtrip;
          case "group commit stats" test_group_commit_stats;
          case "flush covers the caller's own records" test_flush_covers_own_records;
        ] );
      ( "wal-shutdown",
        [
          case "close after committer crash" test_close_after_committer_crash;
          case "close after committer failure" test_close_after_committer_failure;
          case "concurrent close" test_concurrent_close;
        ] );
      ( "torn-tails",
        [
          case "truncation at every byte length" test_truncation_every_length;
          case "bit flip in every byte" test_bitflip_every_byte;
          case "physical truncate" test_truncate_file;
        ] );
      ( "recovery",
        [
          case "epoch cut replay" test_replay_epoch_cut;
          case "recover_files end to end" test_recover_files_end_to_end;
        ] );
      ( "fuzzy-refines",
        [
          case "flat x100 races" (test_fuzzy Dsu.Plan.Flat);
          case "padded x100 races" (test_fuzzy Dsu.Plan.Padded);
          case "packed x100 races" (test_fuzzy Dsu.Plan.Packed);
        ] );
      ( "snapshot",
        [
          case "epoch codec roundtrip" test_snapshot_epoch_roundtrip;
          case "crash-atomic write_file" test_write_file_atomic;
        ] );
      ( "drill",
        [
          case "flat" (test_wal_drill Dsu.Plan.Flat);
          case "padded" (test_wal_drill Dsu.Plan.Padded);
          case "packed" (test_wal_drill Dsu.Plan.Packed);
          case "scratch directories removed" test_scratch_removed;
        ] );
    ]
