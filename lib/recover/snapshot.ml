module J = Repro_obs.Json

type kind = Dsu.Driver.kind = Flat | Packed

type t = {
  kind : kind;
  n : int;
  capacity : int;
  epoch : int;
  parents : int array;
  prios : int array;
}

let with_epoch t epoch =
  if epoch < 0 then invalid_arg "Snapshot.with_epoch: negative epoch";
  { t with epoch }

let kind_to_string = Dsu.Plan.layout_to_string

let kind_of_string = function
  | "flat" -> Some Flat
  | "packed" -> Some Packed
  | _ -> None

let of_driver d =
  {
    kind = Dsu.Driver.kind d;
    n = Dsu.Driver.n d;
    capacity = Dsu.Driver.n d;
    epoch = 0;
    parents = Dsu.Driver.parents_snapshot d;
    prios = Dsu.Driver.prios_snapshot d;
  }

let check t = Repro_fault.Forest_check.check ~prio:(fun i -> t.prios.(i)) t.parents
let ok t = Repro_fault.Forest_check.ok (check t)

let crc32 = Repro_util.Crc32.string

let kind_byte = function Flat -> 0 | Packed -> 4

(* Bytes no current layout writes.  Byte 1 (JSON "boxed") is the retired
   [int Atomic.t array] layout, whose [(parents, ids)] are a flat
   snapshot's, so it restores as flat; byte 2 (JSON "growable") is the
   retired growable backend, whose forest obeys the [(priority, index)]
   order, so it restores as flat once [ids_of_priorities] re-ranks its
   priorities; byte 3 (JSON "rank") is the retired two-array rank layout,
   whose ranks and forest obey the same [(rank, index)] order, so it
   restores as packed. *)
let legacy_boxed_byte = 1
let legacy_growable_byte = 2
let legacy_rank_byte = 3

let kind_of_byte = function
  | 0 | 1 | 2 -> Some Flat
  | 3 | 4 -> Some Packed
  | _ -> None

(* A growable snapshot's priorities are 62-bit draws that may tie; flat
   restores from an id permutation.  Each node's id is its place in the
   [(priority, index)] order — the tie rule the algorithm links by — so
   every parent still points up the order and [check] and the flat
   restore accept exactly the forests they accepted before.  Applied
   after the checksum, which covers the stored priorities. *)
let ids_of_priorities prios =
  let order = Array.init (Array.length prios) Fun.id in
  Array.stable_sort (fun i j -> Int.compare prios.(i) prios.(j)) order;
  let ids = Array.make (Array.length prios) 0 in
  Array.iteri (fun id i -> ids.(i) <- id) order;
  ids

(* The canonical body both codecs checksum: kind byte, then epoch (v2
   only), n, capacity and the two arrays as 8-byte little-endian words.
   [byte] overrides the kind byte, for legacy files that recorded one a
   current kind no longer writes. *)
let body ?(v2 = true) ?byte t =
  let buf = Buffer.create (25 + (16 * t.n)) in
  let byte = Option.value byte ~default:(kind_byte t.kind) in
  Buffer.add_char buf (Char.chr byte);
  let scratch = Bytes.create 8 in
  let add_word v =
    Bytes.set_int64_le scratch 0 (Int64.of_int v);
    Buffer.add_bytes buf scratch
  in
  if v2 then add_word t.epoch;
  add_word t.n;
  add_word t.capacity;
  Array.iter add_word t.parents;
  Array.iter add_word t.prios;
  Buffer.contents buf

let checksum t = crc32 (body t)

let magic = "DSUSNAP2"
let magic_v1 = "DSUSNAP1"

let to_binary_string t =
  let body = body t in
  let buf = Buffer.create (String.length magic + String.length body + 4) in
  Buffer.add_string buf magic;
  Buffer.add_string buf body;
  let trailer = Bytes.create 4 in
  Bytes.set_int32_le trailer 0 (Int32.of_int (crc32 body));
  Buffer.add_bytes buf trailer;
  Buffer.contents buf

let ( let* ) = Result.bind

let int_of_word v =
  (* OCaml ints are 63-bit; a word outside that range cannot have been
     written by [body], so the file is from a foreign producer or corrupt. *)
  if Int64.of_int (Int64.to_int v) = v then Ok (Int64.to_int v)
  else Error "snapshot word overflows the OCaml int range"

(* [parse_body ~header s] parses a body whose fixed prefix is the kind
   byte plus [header] 8-byte words ending with n and capacity, followed by
   the two arrays.  v2 bodies carry (epoch, n, capacity); v1 bodies carry
   (n, capacity) and an implicit epoch 0. *)
let parse_body ~v2 s =
  let header = if v2 then 25 else 17 in
  let len = String.length s in
  let* () = if len >= header then Ok () else Error "snapshot body truncated" in
  let byte = Char.code s.[0] in
  let* kind =
    match kind_of_byte byte with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "unknown snapshot kind byte %d" byte)
  in
  let* epoch = if v2 then int_of_word (String.get_int64_le s 1) else Ok 0 in
  let base = if v2 then 9 else 1 in
  let* n = int_of_word (String.get_int64_le s base) in
  let* capacity = int_of_word (String.get_int64_le s (base + 8)) in
  let* () = if epoch >= 0 then Ok () else Error "negative epoch" in
  let* () = if n >= 0 then Ok () else Error "negative element count" in
  let* () = if capacity >= n then Ok () else Error "capacity below element count" in
  let* () =
    if len = header + (16 * n) then Ok ()
    else
      Error (Printf.sprintf "snapshot body length %d, expected %d" len (header + (16 * n)))
  in
  let read_array base =
    let arr = Array.make n 0 in
    let rec fill i =
      if i = n then Ok arr
      else
        let* v = int_of_word (String.get_int64_le s (base + (8 * i))) in
        arr.(i) <- v;
        fill (i + 1)
    in
    fill 0
  in
  let* parents = read_array header in
  let* prios = read_array (header + (8 * n)) in
  let prios = if byte = legacy_growable_byte then ids_of_priorities prios else prios in
  Ok { kind; n; capacity; epoch; parents; prios }

let of_binary_string s =
  let len = String.length s in
  let* () =
    if len >= String.length magic + 17 + 4 then Ok () else Error "snapshot file truncated"
  in
  let* v2 =
    match String.sub s 0 (String.length magic) with
    | m when m = magic -> Ok true
    | m when m = magic_v1 -> Ok false
    | _ -> Error "bad magic: not a DSU snapshot"
  in
  let body = String.sub s (String.length magic) (len - String.length magic - 4) in
  let stored = Int32.to_int (String.get_int32_le s (len - 4)) land 0xffffffff in
  let computed = crc32 body in
  let* () =
    if stored = computed then Ok ()
    else Error (Printf.sprintf "checksum mismatch: stored %08x, computed %08x" stored computed)
  in
  parse_body ~v2 body

let schema = "dsu-snapshot/v2"
let schema_v1 = "dsu-snapshot/v1"

let to_json t =
  let ints arr = J.List (Array.to_list arr |> List.map (fun v -> J.Int v)) in
  J.Obj
    [
      ("schema", J.String schema);
      ("kind", J.String (kind_to_string t.kind));
      ("n", J.Int t.n);
      ("capacity", J.Int t.capacity);
      ("epoch", J.Int t.epoch);
      ("parents", ints t.parents);
      ("prios", ints t.prios);
      ("checksum", J.Int (checksum t));
    ]

let of_json json =
  let field name = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let int_field name =
    let* v = field name (J.member name json) in
    match v with J.Int i -> Ok i | _ -> Error (Printf.sprintf "field %S is not an integer" name)
  in
  let int_array name =
    let* v = field name (J.member name json) in
    match v with
    | J.List items ->
      let rec conv acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | J.Int i :: rest -> conv (i :: acc) rest
        | _ -> Error (Printf.sprintf "field %S has a non-integer element" name)
      in
      conv [] items
    | _ -> Error (Printf.sprintf "field %S is not an array" name)
  in
  let* s = field "schema" (J.member "schema" json) in
  let* v2 =
    match s with
    | J.String v when v = schema -> Ok true
    | J.String v when v = schema_v1 -> Ok false
    | J.String v -> Error (Printf.sprintf "unsupported schema %S (want %S)" v schema)
    | _ -> Error "field \"schema\" is not a string"
  in
  let* k = field "kind" (J.member "kind" json) in
  let* kind, byte =
    match k with
    | J.String "boxed" -> Ok (Flat, Some legacy_boxed_byte)
    | J.String "growable" -> Ok (Flat, Some legacy_growable_byte)
    | J.String "rank" -> Ok (Packed, Some legacy_rank_byte)
    | J.String v -> (
      match kind_of_string v with
      | Some k -> Ok (k, None)
      | None -> Error (Printf.sprintf "unknown kind %S" v))
    | _ -> Error "field \"kind\" is not a string"
  in
  let* n = int_field "n" in
  let* capacity = int_field "capacity" in
  let* epoch = if v2 then int_field "epoch" else Ok 0 in
  let* parents = int_array "parents" in
  let* prios = int_array "prios" in
  let* () = if epoch >= 0 then Ok () else Error "negative epoch" in
  let* () = if n >= 0 then Ok () else Error "negative element count" in
  let* () = if capacity >= n then Ok () else Error "capacity below element count" in
  let* () =
    if Array.length parents = n && Array.length prios = n then Ok ()
    else Error "array lengths disagree with n"
  in
  let t = { kind; n; capacity; epoch; parents; prios } in
  let* stored = int_field "checksum" in
  (* v1 files checksummed the v1 body (no epoch). *)
  let computed = crc32 (body ~v2 ?byte t) in
  if stored = computed then
    if byte = Some legacy_growable_byte then Ok { t with prios = ids_of_priorities prios }
    else Ok t
  else Error (Printf.sprintf "checksum mismatch: stored %08x, computed %08x" stored computed)

let to_json_string t = J.to_string (to_json t)

let of_json_string s =
  match J.parse s with Error e -> Error ("bad JSON: " ^ e) | Ok json -> of_json json

type format = Binary | Json

(* Crash-atomic write: stage the bytes in a temporary file in the same
   directory (rename is only atomic within a filesystem), fsync the data,
   then rename over the destination and fsync the directory so the rename
   itself is durable.  A crash at any point leaves either the old file or
   the new one — never a torn snapshot. *)
let write_file ?(format = Binary) path t =
  let data = match format with Binary -> to_binary_string t | Json -> to_json_string t in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (match
     output_string oc data;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc)
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  (match Unix.rename tmp path with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error "snapshot file truncated"
  | data ->
    let has_magic m =
      String.length data >= String.length m && String.sub data 0 (String.length m) = m
    in
    if has_magic magic || has_magic magic_v1 then of_binary_string data
    else of_json_string data

let equal a b =
  a.kind = b.kind && a.n = b.n && a.capacity = b.capacity && a.epoch = b.epoch
  && a.parents = b.parents && a.prios = b.prios

let pp ppf t =
  Format.fprintf ppf "snapshot{%s, n=%d, capacity=%d, epoch=%d, crc=%08x}"
    (kind_to_string t.kind) t.n t.capacity t.epoch (checksum t)
