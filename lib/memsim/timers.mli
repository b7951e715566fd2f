(** Step-indexed timers over dense int ids: the pending-deadline store
    behind the retention policies' [due] queries ({!Kedge}, and the
    clock policy's re-armed timers).

    A timer is an [(at, id)] pair. Entries are never updated in place:
    a restart just pushes a new entry, and {!pop_due} drops the stale
    ones through the caller's liveness test. An entry firing no earlier
    than the newest in-order one joins a FIFO ring; the rest go to a
    binary min-heap on [at]. Under a uniform period, with a caller
    whose steps only grow, every entry takes the ring, so arming and
    popping are a few int stores — no hashing, no allocation.

    Steps passed to {!pop_due} must be nondecreasing across calls on
    one instance: entries that fall behind the query step are dropped
    unreported. *)

type t

val create : unit -> t

val push : t -> at:int -> int -> unit
(** [push t ~at id] arms a timer for [id] firing at step [at]. *)

val pop_due : t -> step:int -> live:(int -> int -> bool) -> int list
(** Removes every entry firing at or before [step] and returns the ids
    of those firing exactly at [step] for which [live id step] holds —
    sorted, each id at most once. Allocation-free when nothing fires
    (pass a [live] closure built once, not per call). *)
