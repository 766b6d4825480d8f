(* C primitives over an [int array]; see flat_atomic_stubs.c for the safety
   argument (immediates only, word-aligned, no GC barrier needed). *)
external atomic_get : int array -> int -> int = "dsu_flat_atomic_get"
  [@@noalloc]

external atomic_set : int array -> int -> int -> unit = "dsu_flat_atomic_set"
  [@@noalloc]

external atomic_cas : int array -> int -> int -> int -> bool
  = "dsu_flat_atomic_cas"
  [@@noalloc]

external atomic_fetch_add : int array -> int -> int -> int
  = "dsu_flat_atomic_fetch_add"
  [@@noalloc]

external atomic_get_acquire : int array -> int -> int
  = "dsu_flat_atomic_get_acquire"
  [@@noalloc]

external atomic_get_relaxed : int array -> int -> int
  = "dsu_flat_atomic_get_relaxed"
  [@@noalloc]

external atomic_set_release : int array -> int -> int -> unit
  = "dsu_flat_atomic_set_release"
  [@@noalloc]

external atomic_cas_weak : int array -> int -> int -> int -> bool
  = "dsu_flat_atomic_cas_weak"
  [@@noalloc]

external atomic_prefetch : int array -> int -> unit = "dsu_flat_prefetch"
  [@@noalloc]

(* 8 words = 64 bytes on 64-bit targets: one logical cell per cache line in
   padded mode. *)
let pad_shift = 3

type t = { data : int array; shift : int; length : int }

let make ?(padded = false) n f =
  if n < 0 then invalid_arg "Flat_atomic_array.make: negative length";
  let shift = if padded then pad_shift else 0 in
  let data = Array.make (n lsl shift) 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set data (i lsl shift) (f i)
  done;
  { data; shift; length = n }

let length t = t.length
let padded t = t.shift <> 0

let check t i op =
  if i < 0 || i >= t.length then
    invalid_arg (Printf.sprintf "Flat_atomic_array.%s: index %d out of bounds [0, %d)" op i t.length)

let unsafe_get t i = atomic_get t.data (i lsl t.shift)

(* A plain (non-seq-cst) load compiled to a single inline [mov] — no C
   call.  Memory-safe on immediates (word-sized aligned loads cannot
   tear), but a racing read may observe a stale value; use only where the
   algorithm tolerates staleness (the DSU's parent reads: any formerly
   valid parent is still an ancestor, and every write is re-validated by
   CAS). *)
let unsafe_load t i = Array.unsafe_get t.data (i lsl t.shift)

(* The store twin of [unsafe_load]: one inline [mov], no C call, no fence.
   A reader sees it only through a later release store that it acquires
   (the ingestion ring publishes a slot's fields this way). *)
let unsafe_store t i v = Array.unsafe_set t.data (i lsl t.shift) v
let unsafe_set t i v = atomic_set t.data (i lsl t.shift) v
let unsafe_cas t i expected desired = atomic_cas t.data (i lsl t.shift) expected desired
let unsafe_fetch_add t i delta = atomic_fetch_add t.data (i lsl t.shift) delta

(* Explicit weaker orders.  Same width/alignment safety argument as above;
   see flat_atomic_stubs.c for the per-order visibility contracts. *)
let unsafe_get_acquire t i = atomic_get_acquire t.data (i lsl t.shift)
let unsafe_get_relaxed t i = atomic_get_relaxed t.data (i lsl t.shift)
let unsafe_set_release t i v = atomic_set_release t.data (i lsl t.shift) v

let unsafe_cas_weak t i expected desired =
  atomic_cas_weak t.data (i lsl t.shift) expected desired

let unsafe_prefetch t i = atomic_prefetch t.data (i lsl t.shift)

let get t i =
  check t i "get";
  unsafe_get t i

let set t i v =
  check t i "set";
  unsafe_set t i v

let cas t i expected desired =
  check t i "cas";
  unsafe_cas t i expected desired

let fetch_add t i delta =
  check t i "fetch_add";
  unsafe_fetch_add t i delta

let get_acquire t i =
  check t i "get_acquire";
  unsafe_get_acquire t i

let get_relaxed t i =
  check t i "get_relaxed";
  unsafe_get_relaxed t i

let set_release t i v =
  check t i "set_release";
  unsafe_set_release t i v

let cas_weak t i expected desired =
  check t i "cas_weak";
  unsafe_cas_weak t i expected desired

(* Prefetch is a pure hint, so the checked variant silently ignores
   out-of-range indices instead of raising: batch kernels prefetch a fixed
   distance ahead of the element they are about to validate. *)
let prefetch t i = if i >= 0 && i < t.length then unsafe_prefetch t i

(* Acquire loads: each cell read synchronises with the CAS/store that
   published it, so the snapshot sees fully published links (never a value
   "from before" the write that made it reachable).  Still not a consistent
   cut under concurrent writers. *)
let snapshot t =
  let shift = t.shift and data = t.data in
  Array.init t.length (fun i -> atomic_get_acquire data (i lsl shift))
