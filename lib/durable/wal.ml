module Site = Repro_fault.Site
module Fi = Repro_fault.Inject
module Crc32 = Repro_util.Crc32

let magic = "DSUWAL01"
let record_bytes = 37
let payload_bytes = 33

type record = { seq : int; epoch : int; x : int; y : int }

(* ------------------------------------------------------------- codec *)

(* Encode [r] into [b] at [off]: the writer fills a whole chunk this way. *)
let encode_into b off r =
  Bytes.set b off '\001';
  Bytes.set_int64_le b (off + 1) (Int64.of_int r.epoch);
  Bytes.set_int64_le b (off + 9) (Int64.of_int r.seq);
  Bytes.set_int64_le b (off + 17) (Int64.of_int r.x);
  Bytes.set_int64_le b (off + 25) (Int64.of_int r.y);
  let crc = Crc32.sub (Bytes.unsafe_to_string b) ~pos:off ~len:payload_bytes in
  Bytes.set_int32_le b (off + payload_bytes) (Int32.of_int crc)

let encode_record r =
  let b = Bytes.create record_bytes in
  encode_into b 0 r;
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
  let start = String.length magic in
  if len < start then Error "WAL file shorter than the magic"
  else if String.sub s 0 start <> magic then Error "bad magic: not a DSU WAL"
  else begin
    let records = Array.make ((len - start) / record_bytes) { seq = 0; epoch = 0; x = 0; y = 0 } in
    let rec loop i pos =
      if pos = len then { records; truncated_at = None; total_bytes = len }
      else
        match decode_record s pos with
        | Ok r ->
          records.(i) <- r;
          loop (i + 1) (pos + record_bytes)
        | Error (`Short | `Crc | `Kind) ->
          (* Torn tail: everything from the first bad record on is
             untrustworthy — a group commit writes records in order, so a
             valid-looking record after a torn one could be half of two
             different commits. *)
          { records = Array.sub records 0 i; truncated_at = Some pos; total_bytes = len }
    in
    Ok (loop 0 start)
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
  commit_mu : Mutex.t;  (* held by the leader of a round *)
  chunk : Bytes.t;  (* [flush_records] encoded records; used under [commit_mu] *)
  rounds : int Atomic.t;  (* rounds started *)
  appended : int Atomic.t;
  drained : int Atomic.t;  (* taken from the shards; written under [commit_mu] *)
  committed : int Atomic.t;
  commits : int Atomic.t;
  crashed : (Site.t * int) option Atomic.t;
  failed : exn option Atomic.t;
  mutable closed : bool;  (* under [commit_mu] *)
}

let[@inline] hit_site site = if Atomic.get Fi.armed then Fi.hit site

(* One group commit: the first [n] records of [w.chunk], one write, one
   fsync.  When fault injection is armed the chunk is written in two
   parts with a flush and a {!Site.Wal_commit_mid} hit between them — a
   crash there deterministically leaves a torn final record on disk, which
   is the exact state {!of_string}'s truncation logic must recover from. *)
let commit w n =
  hit_site Site.Wal_commit_pre;
  let len = n * record_bytes in
  if Atomic.get Fi.armed then begin
    let cut = len - 19 in
    output w.oc w.chunk 0 cut;
    flush w.oc;
    Fi.hit Site.Wal_commit_mid;
    output w.oc w.chunk cut (len - cut)
  end
  else output w.oc w.chunk 0 len;
  flush w.oc;
  Unix.fsync w.fd;
  ignore (Atomic.fetch_and_add w.committed n);
  Atomic.incr w.commits;
  hit_site Site.Wal_commit_post

let dead w = Atomic.get w.crashed <> None || Atomic.get w.failed <> None

(* One round, run by its leader under [commit_mu]: drain every shard and
   commit what it held in chunks of [flush_records] — each chunk one write
   + one fsync — so a commit's cost and blast radius (the records a torn
   tail can lose) stay bounded however large the backlog.  A dead or
   closed log drains and drops.  The round latches whatever kills it, so
   no exception reaches the appender or flusher that happened to lead. *)
let round w =
  Atomic.incr w.rounds;
  let live = not (w.closed || dead w) in
  let n = ref 0 in
  let emit () =
    if !n > 0 then begin
      let k = !n in
      n := 0;
      commit w k
    end
  in
  try
    Array.iter
      (fun sh ->
        Mutex.lock sh.mu;
        let b = sh.buf in
        sh.buf <- [];
        Mutex.unlock sh.mu;
        Atomic.set w.drained (Atomic.get w.drained + List.length b);
        if live then
          List.iter
            (fun r ->
              encode_into w.chunk (!n * record_bytes) r;
              incr n;
              if !n = w.flush_records then emit ())
            b)
      w.shards;
    emit ()
  with
  | Fi.Crashed (site, slot) -> Atomic.set w.crashed (Some (site, slot))
  | e -> Atomic.set w.failed (Some e)

(* The size trigger, on the count of records in the shards.  A caller
   that finds [commit_mu] taken leaves its records to the leader, which
   checks the count again after unlocking: so once appends stop, fewer
   than [flush_records] records stay staged. *)
let rec lead_if_full w =
  if Atomic.get w.appended - Atomic.get w.drained >= w.flush_records
     && Mutex.try_lock w.commit_mu
  then begin
    round w;
    Mutex.unlock w.commit_mu;
    lead_if_full w
  end

let create_writer ?(shards = 8) ?(flush_records = 64) ?epoch path =
  if shards < 1 then invalid_arg "Wal.create_writer: shards must be >= 1";
  if flush_records < 1 then invalid_arg "Wal.create_writer: flush_records must be >= 1";
  let oc = open_out_bin path in
  output_string oc magic;
  flush oc;
  {
    path;
    oc;
    fd = Unix.descr_of_out_channel oc;
    epoch = (match epoch with Some e -> e | None -> Epoch.create ());
    seq = Atomic.make 0;
    shards = Array.init shards (fun _ -> { mu = Mutex.create (); buf = [] });
    flush_records;
    commit_mu = Mutex.create ();
    chunk = Bytes.create (flush_records * record_bytes);
    rounds = Atomic.make 0;
    appended = Atomic.make 0;
    drained = Atomic.make 0;
    committed = Atomic.make 0;
    commits = Atomic.make 0;
    crashed = Atomic.make None;
    failed = Atomic.make None;
    closed = false;
  }

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
  Atomic.incr w.appended;
  lead_if_full w

let crashed w = Atomic.get w.crashed
let failed w = Atomic.get w.failed

(* The caller's records were staged before [flush] read [rounds], so a
   round that starts after the read drains them; holding [commit_mu], the
   caller knows any such round has finished.  A record count is no such
   proof: the shards drain one by one, so a round can commit later appends
   from other domains and reach the count while missing the caller's own. *)
let flush w =
  let seen = Atomic.get w.rounds in
  Mutex.protect w.commit_mu (fun () -> if Atomic.get w.rounds = seen then round w);
  lead_if_full w

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

(* Idempotent: closers serialize on [commit_mu], and the first commits what
   is staged and closes the file.  A round never raises, so neither does
   [close], whatever killed the log. *)
let close w =
  Mutex.protect w.commit_mu (fun () ->
      if not w.closed then begin
        round w;
        w.closed <- true;
        close_out_noerr w.oc
      end)

let path w = w.path
