(** Per-block k-edge frontier tables for the pre-decompression
    strategies (paper, §4, Figure 3).

    Pre-all decompresses every compressed block at most [k] edges past
    the current one; pre-single decompresses the most likely of them.
    That frontier is a static property of the CFG, so instead of a
    breadth-first search per edge the table computes each block's
    frontier once, on the first query for that block, and stores it in
    one flat int array with per-block offsets. Entries come in exactly
    {!Cfg.Dist.within}'s order (breadth-first, nearest first).

    Given a profile, each entry also carries its reach probability:
    the largest product of edge probabilities over paths of at most
    [k] edges from the block, computed by the same relaxation (and so
    the same float products) as {!Predictor.choose}'s [By_profile]
    case. *)

type t

val create : ?profile:Cfg.Profile.t -> succs:int array array -> k:int -> unit -> t
(** An empty table over the graph whose successor ids (in
    {!Cfg.Graph.succ_ids} order) are [succs]; nothing is computed
    until a block is queried. [profile] enables {!best}.
    @raise Invalid_argument if [k < 0]. *)

val k : t -> int

val succs : t -> int -> int array
(** The successor ids the table was built from. *)

val first : t -> int -> int
(** Offset of the block's first entry, building the entry if this is
    the block's first query. Entries run from [first t b] to
    [first t b + length t b - 1]. *)

val length : t -> int -> int
(** Number of entries of a block whose entry is built ({!first} was
    called). *)

val id : t -> int -> int
(** The block id at an offset. *)

val nearest : t -> from:int -> eligible:(int -> bool) -> int
(** The first eligible entry of [from]'s frontier, or [-1]. *)

val best : t -> from:int -> eligible:(int -> bool) -> int
(** The first eligible entry of largest reach probability (a later
    entry wins only with a strictly larger one), or [-1] if none is
    eligible.
    @raise Invalid_argument if the table has no profile. *)
