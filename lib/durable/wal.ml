module Site = Repro_fault.Site
module Fi = Repro_fault.Inject
module Crc32 = Repro_util.Crc32

let magic = "DSUWAL01"
let record_bytes = 37
let payload_bytes = 33

type record = { seq : int; epoch : int; x : int; y : int }

(* ------------------------------------------------------------- codec *)

let encode_record r =
  let b = Bytes.create record_bytes in
  Bytes.set b 0 '\001';
  Bytes.set_int64_le b 1 (Int64.of_int r.epoch);
  Bytes.set_int64_le b 9 (Int64.of_int r.seq);
  Bytes.set_int64_le b 17 (Int64.of_int r.x);
  Bytes.set_int64_le b 25 (Int64.of_int r.y);
  let crc = Crc32.sub (Bytes.unsafe_to_string b) ~pos:0 ~len:payload_bytes in
  Bytes.set_int32_le b payload_bytes (Int32.of_int crc);
  b

let word_fits v = Int64.of_int (Int64.to_int v) = v

(* [decode_record s pos] validates the CRC before trusting any field, so a
   torn or bit-flipped record is detected no matter which byte it hit. *)
let decode_record s pos =
  if pos + record_bytes > String.length s then Error `Short
  else begin
    let stored =
      Int32.to_int (String.get_int32_le s (pos + payload_bytes)) land 0xffffffff
    in
    let computed = Crc32.sub s ~pos ~len:payload_bytes in
    if stored <> computed then Error `Crc
    else if s.[pos] <> '\001' then Error `Kind
    else begin
      let w off = String.get_int64_le s (pos + off) in
      if word_fits (w 1) && word_fits (w 9) && word_fits (w 17) && word_fits (w 25)
      then
        Ok
          {
            epoch = Int64.to_int (w 1);
            seq = Int64.to_int (w 9);
            x = Int64.to_int (w 17);
            y = Int64.to_int (w 25);
          }
      else Error `Kind
    end
  end

(* ------------------------------------------------------------ reader *)

type tail = {
  records : record array;
  truncated_at : int option;
  total_bytes : int;
}

let empty_tail = { records = [||]; truncated_at = None; total_bytes = 0 }

let of_string s =
  let len = String.length s in
  if len < String.length magic then Error "WAL file shorter than the magic"
  else if String.sub s 0 (String.length magic) <> magic then
    Error "bad magic: not a DSU WAL"
  else begin
    let rec loop pos acc =
      if pos = len then { records = Array.of_list (List.rev acc); truncated_at = None; total_bytes = len }
      else
        match decode_record s pos with
        | Ok r -> loop (pos + record_bytes) (r :: acc)
        | Error (`Short | `Crc | `Kind) ->
          (* Torn tail: everything from the first bad record on is
             untrustworthy — a group commit writes records in order, so a
             valid-looking record after a torn one could be half of two
             different commits. *)
          { records = Array.of_list (List.rev acc); truncated_at = Some pos; total_bytes = len }
    in
    Ok (loop (String.length magic) [])
  end

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error "WAL file truncated while reading"
  | data -> of_string data

let ( let* ) = Result.bind

let truncate_file path =
  let* tail = read_file path in
  match tail.truncated_at with
  | None -> Ok tail
  | Some off ->
    (match Unix.truncate path off with
    | () -> Ok { tail with truncated_at = None; total_bytes = off }
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

(* ------------------------------------------------------------ writer *)

type shard = { mu : Mutex.t; mutable buf : record list }

type writer = {
  path : string;
  oc : out_channel;
  fd : Unix.file_descr;
  epoch : Epoch.t;
  seq : int Atomic.t;
  shards : shard array;
  flush_records : int;
  flush_interval : float;
  stop : bool Atomic.t;
  force : bool Atomic.t;
  appended : int Atomic.t;
  committed : int Atomic.t;
  rounds : int Atomic.t;  (* committer rounds started *)
  durable_round : int Atomic.t;  (* every record drained up to this round is fsynced *)
  commits : int Atomic.t;
  crashed : (Site.t * int) option Atomic.t;
  failed : exn option Atomic.t;
  close_mu : Mutex.t;
  mutable closed : bool;
  mutable committer : unit Domain.t option;
}

let[@inline] hit_site site = if Atomic.get Fi.armed then Fi.hit site

(* One group commit: encode the whole batch, write it, one fsync.  When
   fault injection is armed the batch is written in two parts with a
   flush and a {!Site.Wal_commit_mid} hit between them — a crash there
   deterministically leaves a torn final record on disk, which is the
   exact state {!of_string}'s truncation logic must recover from. *)
let commit w batch n_batch =
  hit_site Site.Wal_commit_pre;
  let buf = Buffer.create (n_batch * record_bytes) in
  List.iter (fun r -> Buffer.add_bytes buf (encode_record r)) batch;
  let s = Buffer.contents buf in
  let len = String.length s in
  if Atomic.get Fi.armed then begin
    let cut = max 0 (len - 19) in
    output_substring w.oc s 0 cut;
    flush w.oc;
    Fi.hit Site.Wal_commit_mid;
    output_substring w.oc s cut (len - cut)
  end
  else output_string w.oc s;
  flush w.oc;
  Unix.fsync w.fd;
  ignore (Atomic.fetch_and_add w.committed n_batch);
  ignore (Atomic.fetch_and_add w.commits 1);
  hit_site Site.Wal_commit_post

let run_committer w =
  let pending = ref [] and n_pending = ref 0 in
  let last = ref (Unix.gettimeofday ()) in
  let drain () =
    Array.iter
      (fun sh ->
        Mutex.lock sh.mu;
        let b = sh.buf in
        sh.buf <- [];
        Mutex.unlock sh.mu;
        List.iter
          (fun r ->
            pending := r :: !pending;
            incr n_pending)
          b)
      w.shards
  in
  (* A drained backlog larger than [flush_records] is committed in chunks
     of that size — each chunk one write + one fsync — so a commit's cost
     and blast radius (the records a torn tail can lose) stay bounded no
     matter how far the committer fell behind. *)
  let commit_pending now =
    let rec go lst =
      match lst with
      | [] -> ()
      | _ ->
        let rec take k acc rest =
          if k = 0 then (List.rev acc, rest)
          else
            match rest with
            | [] -> (List.rev acc, [])
            | r :: tl -> take (k - 1) (r :: acc) tl
        in
        let batch, rest = take w.flush_records [] lst in
        commit w batch (List.length batch);
        go rest
    in
    go (List.rev !pending);
    pending := [];
    n_pending := 0;
    Atomic.set w.force false;
    last := now
  in
  let rec loop () =
    let round = Atomic.fetch_and_add w.rounds 1 + 1 in
    drain ();
    let now = Unix.gettimeofday () in
    let committing =
      !n_pending > 0
      && (!n_pending >= w.flush_records
         || now -. !last >= w.flush_interval
         || Atomic.get w.force || Atomic.get w.stop)
    in
    if committing then commit_pending now
    else if !n_pending = 0 && Atomic.get w.force then Atomic.set w.force false;
    if !n_pending = 0 then Atomic.set w.durable_round round;
    if Atomic.get w.stop then begin
      (* Final drain: appends racing the stop flag may still be in the
         shards; anything arriving after this is lost (documented). *)
      drain ();
      if !n_pending > 0 then commit_pending (Unix.gettimeofday ())
    end
    else begin
      (* Sleep between rounds rather than spin: a spinning committer
         (and its per-shard mutex sweep) steals mutator CPU — on a
         fully loaded box it showed up as tens of percent of unite
         throughput.  Only a just-finished commit or a waiting
         [flush]er warrants an immediate next round. *)
      if committing || Atomic.get w.force then Domain.cpu_relax ()
      else Unix.sleepf (min 0.002 (w.flush_interval /. 2.));
      loop ()
    end
  in
  loop ()

let create_writer ?(shards = 8) ?(flush_records = 64) ?(flush_interval = 0.002)
    ?epoch ?on_committer_start path =
  if shards < 1 then invalid_arg "Wal.create_writer: shards must be >= 1";
  if flush_records < 1 then invalid_arg "Wal.create_writer: flush_records must be >= 1";
  if flush_interval <= 0. then
    invalid_arg "Wal.create_writer: flush_interval must be positive";
  let oc = open_out_bin path in
  output_string oc magic;
  flush oc;
  let epoch = match epoch with Some e -> e | None -> Epoch.create () in
  let w =
    {
      path;
      oc;
      fd = Unix.descr_of_out_channel oc;
      epoch;
      seq = Atomic.make 0;
      shards = Array.init shards (fun _ -> { mu = Mutex.create (); buf = [] });
      flush_records;
      flush_interval;
      stop = Atomic.make false;
      force = Atomic.make false;
      appended = Atomic.make 0;
      committed = Atomic.make 0;
      rounds = Atomic.make 0;
      durable_round = Atomic.make 0;
      commits = Atomic.make 0;
      crashed = Atomic.make None;
      failed = Atomic.make None;
      close_mu = Mutex.create ();
      closed = false;
      committer = None;
    }
  in
  (* The death latches wrap the whole domain body, [on_committer_start]
     included: a committer that dies for ANY reason — injected crash, real
     I/O failure, or a raising start hook — must leave a latch behind,
     because [flush]/[close] wait loops key off them and an unlatched
     death would leave every later [flush] spinning forever. *)
  w.committer <-
    Some
      (Domain.spawn (fun () ->
           try
             (match on_committer_start with None -> () | Some f -> f ());
             run_committer w
           with
           | Fi.Crashed (site, slot) -> Atomic.set w.crashed (Some (site, slot))
           | e -> Atomic.set w.failed (Some e)));
  w

let epoch w = w.epoch

let append w ~child ~parent =
  (* The record's epoch is read after the link CAS took effect (on_link
     fires post-CAS), which is what makes the epoch-cut argument in
     {!Epoch} sound. *)
  let seq = Atomic.fetch_and_add w.seq 1 in
  let e = Epoch.current w.epoch in
  let r = { seq; epoch = e; x = child; y = parent } in
  let sh = w.shards.((Domain.self () :> int) mod Array.length w.shards) in
  Mutex.lock sh.mu;
  sh.buf <- r :: sh.buf;
  Mutex.unlock sh.mu;
  ignore (Atomic.fetch_and_add w.appended 1)

let crashed w = Atomic.get w.crashed
let failed w = Atomic.get w.failed

(* A dead committer will never advance [committed] again, so every wait
   loop must give up as soon as either death latch is set. *)
let dead w = Atomic.get w.crashed <> None || Atomic.get w.failed <> None

(* The caller's records were staged before [flush] read [rounds], so the
   next round's drain takes them.  A record count is no such proof: the
   shards drain one by one, so a round can commit later appends from
   other domains and reach the count while missing the caller's own. *)
let flush w =
  let target = Atomic.get w.rounds + 1 in
  Atomic.set w.force true;
  let rec wait () =
    if dead w then ()
    else if Atomic.get w.durable_round >= target then ()
    else begin
      (* Sleep-poll: the committer needs the CPU more than this waiter. *)
      Unix.sleepf 0.00005;
      wait ()
    end
  in
  wait ()

type writer_stats = {
  ws_appended : int;
  ws_committed : int;
  ws_commits : int;
  ws_crashed : (Site.t * int) option;
}

let writer_stats w =
  {
    ws_appended = Atomic.get w.appended;
    ws_committed = Atomic.get w.committed;
    ws_commits = Atomic.get w.commits;
    ws_crashed = Atomic.get w.crashed;
  }

(* Idempotent and safe against a dead committer: the mutex serializes
   concurrent closers (the second waits, then sees [closed] and returns),
   [flush] cannot hang (it exits on the death latches), and the single
   [Domain.join] never re-raises — a committer that died took its
   exception into a latch, not into the joiner. *)
let close w =
  Mutex.lock w.close_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.close_mu)
    (fun () ->
      if not w.closed then begin
        w.closed <- true;
        flush w;
        Atomic.set w.stop true;
        (match w.committer with
        | None -> ()
        | Some d -> ( try Domain.join d with _ -> ()));
        w.committer <- None;
        close_out_noerr w.oc
      end)

let path w = w.path
