(** A team of domains for one parallel pass: the members are spawned and
    joined once, and a barrier splits the pass into phases that every
    member finishes before any member starts the next. *)

val run : domains:int -> (int -> int -> unit) -> unit
(** [run ~domains f] runs [f k total] for every member [k] in
    [\[0, total)], where [total = max 1 domains]: on the calling domain
    when [total = 1], otherwise on [total] spawned domains.  Joins them
    all, then rethrows the first member exception. *)

val phased : domains:int -> (int -> int -> (unit -> unit) -> unit) -> unit
(** [phased ~domains f] is {!run} with a barrier: member [k] runs
    [f k total sync], and each [sync ()] returns once every member has
    made the same number of [sync] calls.  The barrier is
    sense-reversing; a waiter spins with [Domain.cpu_relax] for a
    bounded number of checks, then sleeps briefly between checks, so a
    host with fewer cores than members still makes progress.  A member
    that raises leaves the others waiting at their next [sync], so
    phased bodies must not raise. *)
