(** Bookkeeping for the k-edge compression algorithm (paper, §3 and
    §5): every tracked block has a counter that resets to zero when the
    block executes and increases by one at each subsequent edge
    traversal; when it reaches [k] the block's decompressed copy is
    due for deletion.

    Steps are global edge-traversal counts (position in the trace).
    The implementation keeps, per block, the step of its last reset and
    its pending due steps in a {!Timers} store — a few int stores per event
    instead of touching every resident counter on every branch.

    Steps passed to {!due} must be nondecreasing across calls on one
    instance (every driver walks its trace forward); entries that fall
    behind the query step are discarded as stale. *)

type t

val create : ?k_of:(int -> int) -> blocks:int -> k:int -> unit -> t
(** [k_of] gives each block its own deletion distance (the adaptive
    variant); it is read once per block here, into an array, so the
    per-step calls below make no closure call. Blocks default to the
    uniform [k].
    @raise Invalid_argument if [k < 1] or [blocks < 1]; a per-block k
    below 1 raises when that block is first tracked. *)

val k : t -> int
(** The uniform/default k. *)

val k_for : t -> block:int -> int
(** The effective k of one block. *)

val track : t -> block:int -> step:int -> unit
(** (Re)starts the block's counter at [step] — on execution, or when a
    pre-decompressed copy materializes. *)

val untrack : t -> block:int -> unit
(** Stops tracking (the copy was deleted or evicted). *)

val tracked : t -> block:int -> bool

val counter : t -> block:int -> step:int -> int option
(** Current counter value at [step]; [None] if untracked. *)

val due_into : t -> step:int -> int array -> int
(** [due_into t ~step buf] writes the blocks whose counter reaches
    exactly [k] at [step] — whose copies the algorithm deletes on this
    edge traversal — into [buf.(0 .. n-1)], sorted, and returns [n].
    Each block is reported at most once per reset; the caller decides
    whether to actually delete (the branch target itself is spared —
    its counter resets instead, §5). [buf] must hold [blocks] entries.
    Allocation-free. *)

val due : t -> step:int -> int list
(** {!due_into} as a fresh list. *)
