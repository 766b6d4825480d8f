(** Versioned, checksummed snapshots of a quiescent DSU memory.

    A snapshot is the raw state any of the layouts can be rebuilt from:
    the parent array plus the per-node linking order ([prios] — the id
    permutation for {!Dsu.Native}, the ranks for {!Dsu.Packed.Native},
    extracted from the packed words).  Both orders share the algorithm's
    [less]: priority first, node index on ties — so one {!check}
    validates either kind against Lemma 3.1.

    Snapshots are taken at quiescence — either deliberately (checkpoint) or
    after a crash has killed some domains and the survivors have drained
    (Theorem 3.4: every surviving operation completes regardless of the
    crashed processes, so quiescence is always reachable).  A crash leaves
    at most one installed CAS per killed process and never a corrupt edge,
    so a crash-time snapshot still passes {!check}; {!Repair} exists for
    snapshots corrupted {e in storage}, not by the algorithm.

    Fuzzy snapshots ({!Repro_durable.Fuzzy}) carry a WAL [epoch]: the cut
    is guaranteed to contain every link whose WAL record has a strictly
    smaller epoch, so recovery replays the log tail from [epoch] on.
    Quiescent captures set [epoch = 0] (replay nothing, or everything —
    at quiescence the snapshot already holds all links).

    Two codecs, both carrying a CRC-32 of the same canonical body so either
    detects bit-rot:

    - binary: magic ["DSUSNAP2"], kind byte, [epoch], [n] and [capacity]
      as 8-byte little-endian, both arrays as 8-byte little-endian words,
      CRC-32 little-endian trailer;
    - JSON: schema ["dsu-snapshot/v2"] with the checksum as a field.

    Both decoders also read the previous version (["DSUSNAP1"] /
    ["dsu-snapshot/v1"], no epoch field) as [epoch = 0], and three retired
    layouts' snapshots, in either version:
    - the boxed layout's (kind byte 1, JSON kind ["boxed"]) as {!Flat}, the
      same [(parents, ids)] under the same id linking;
    - the growable backend's (kind byte 2, JSON kind ["growable"]) as
      {!Flat}: the same parents, with the 62-bit priorities (which may tie)
      re-ranked into the ids of their [(priority, index)] order, so a
      forest valid under the old order is valid under the ids.  The
      checksum is verified over the stored priorities, before re-ranking;
    - the two-array rank layout's (kind byte 3, JSON kind ["rank"]) as
      {!Packed}, the same ranks and forest under the same [(rank, index)]
      order, re-packed and checked on restore.

    Decoders return [result]s — a malformed or checksum-failing file is an
    ordinary error, never an exception. *)

type kind = Dsu.Driver.kind = Flat | Packed
(** The layout a snapshot restores into: a {!Dsu.Plan.layout}. *)

type t = {
  kind : kind;
  n : int;  (** elements present *)
  capacity : int;
      (** written as [n]; older writers stored a growable universe's
          preallocated slots here.  Kept because both checksums cover it; decoders
          check [capacity >= n] and restore ignores it. *)
  epoch : int;  (** WAL epoch the cut is consistent with; 0 = quiescent *)
  parents : int array;  (** length [n]; roots are self-parented *)
  prios : int array;  (** length [n]; ids or ranks, per [kind] *)
}

val with_epoch : t -> int -> t
(** The same snapshot stamped with a WAL epoch.
    @raise Invalid_argument on a negative epoch. *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
(** The kinds this module writes; the legacy names ["boxed"],
    ["growable"] and ["rank"] are read by the decoders only. *)

(** {1 Capture} — quiescent only; see the layout's [parents_snapshot] doc. *)

val of_driver : Dsu.Driver.t -> t
(** [prios] is {!Dsu.Driver.prios_snapshot}: ids, or the ranks unpacked
    from the packed words, which restore re-packs. *)

(** {1 Validation} *)

val check : t -> Repro_fault.Forest_check.report
(** {!Repro_fault.Forest_check.check} with this snapshot's priority order. *)

val ok : t -> bool

val checksum : t -> int
(** CRC-32 of the canonical body (shared by both codecs). *)

(** {1 Codecs} *)

val to_binary_string : t -> string
val of_binary_string : string -> (t, string) result

val to_json : t -> Repro_obs.Json.t
val of_json : Repro_obs.Json.t -> (t, string) result
val to_json_string : t -> string
val of_json_string : string -> (t, string) result

type format = Binary | Json

val write_file : ?format:format -> string -> t -> unit
(** Default {!Binary}.  Crash-atomic: the bytes are staged in a temporary
    file in the destination directory, fsynced, renamed over [path], and
    the directory is fsynced — a crash leaves the old file or the new one,
    never a torn snapshot.  Raises [Sys_error] or [Unix.Unix_error] on I/O
    failure. *)

val read_file : string -> (t, string) result
(** Auto-detects the format: a binary magic (v2 or v1) wins, otherwise
    JSON. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
