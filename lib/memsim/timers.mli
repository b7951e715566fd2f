(** Step-indexed timers over dense int ids: the pending-deadline store
    behind the retention policies' [due] queries ({!Kedge}, and the
    clock policy's re-armed timers).

    A timer is an [(at, id)] pair. Entries are never updated in place:
    a restart just pushes a new entry, and the caller drops the stale
    ones {!pop_at} reports with its own liveness test. An entry firing no earlier
    than the newest in-order one joins a FIFO ring; the rest go to a
    binary min-heap on [at]. Under a uniform period, with a caller
    whose steps only grow, every entry takes the ring, so arming and
    popping are a few int stores — no hashing, no allocation.

    Steps passed to {!pop_at} must be nondecreasing across calls on
    one instance: entries that fall behind the query step are dropped
    unreported. *)

type t

val create : unit -> t

val push : t -> at:int -> int -> unit
(** [push t ~at id] arms a timer for [id] firing at step [at]. *)

val pop_at : t -> step:int -> int
(** [pop_at t ~step] removes every entry firing at or before [step] and
    returns how many fired exactly at [step]; their ids are
    [fired t 0 .. fired t (n-1)], in pop order, stale entries and
    repeats included (the caller tests liveness). Valid until the next
    [pop_at]. Allocates nothing once the scratch space has grown to
    the largest batch. *)

val fired : t -> int -> int

val insert_sorted : int array -> int -> int -> int
(** [insert_sorted buf n x] inserts [x] into the sorted, duplicate-free
    prefix [buf.(0 .. n-1)] unless it is already there, and returns the
    new prefix length — how the [due] queries build their sorted,
    deduplicated results in a caller-owned buffer. [buf] must have
    room for one more entry when [x] is new. *)
