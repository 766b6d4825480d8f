(** Steensgaard's unification-based points-to analysis.

    The paper's first application ("storage allocation in compilers
    [Lattner & Adve 2002]"): pool allocation rests on a unification-based
    pointer analysis whose core is exactly disjoint set union — abstract
    memory locations are unified as assignments are processed, each
    statement costing a constant number of union-find operations, for a
    near-linear whole-program analysis.

    The input language is the classic four-statement pointer fragment over
    named variables:

    - [Address_of (x, y)] — [x = &y]
    - [Copy (x, y)] — [x = y]
    - [Load (x, y)] — [x = *y]
    - [Store (x, y)] — [*x = y]

    Every variable (and every fresh pointee cell the analysis invents) is
    an element of a {!Dsu.Growable} structure — locations are created on
    the fly, which is precisely the [MakeSet] extension of the paper's
    Section 3.  The analysis is flow-insensitive: statement order does not
    matter, so the union-find unifications can be replayed in any order
    (or concurrently). *)

type stmt =
  | Address_of of string * string
  | Copy of string * string
  | Load of string * string
  | Store of string * string

val pp_stmt : Format.formatter -> stmt -> unit

type t

val create : unit -> t
(** An empty analysis; abstract locations (variables and fresh pointee
    cells) are created as statements mention them, with no bound. *)

val process : t -> stmt -> unit
(** Apply one statement's unifications.  Idempotent. *)

val analyze : stmt list -> t
(** Fresh analysis over a whole program. *)

val may_alias : t -> string -> string -> bool
(** Do [x] and [y] possibly point to the same location?  True iff their
    pointee cells are in the same class.  Variables never seen and
    variables with no points-to facts alias nothing. *)

val same_class : t -> string -> string -> bool
(** Are the two variables' own cells unified? *)

val points_to_repr : t -> string -> int option
(** The class representative of the variable's pointee cell, if any facts
    about it exist; classes are unification classes, so equal representative
    means may-alias. *)

val variables : t -> string list
(** All variables mentioned so far, sorted. *)

val cells_used : t -> int
(** Abstract locations allocated. *)
