(** Retention policies for the decompressed-copy area.

    A policy decides {e when a decompressed copy stops being worth its
    memory}: which copies are due for deletion after an edge traversal
    and which copy to sacrifice when a decompression would overflow the
    memory budget. The paper hard-codes one answer — k-edge counters
    with LRU victims (§3, §5, §2) — this interface makes it selectable
    so the timing model ({!Core.Engine}) and the executable runtime
    ({!Runtime}) share one implementation.

    A policy owns whatever state its spec needs (counters, bits,
    timers) and is driven by an {!Area.t}, which adds the remember-set
    bookkeeping common to every policy. *)

type spec =
  | Kedge  (** The paper's scheme: k-edge counters, LRU budget victims. *)
  | Loop_aware of { weight : int }
      (** k-edge with per-block k scaled by [1 + weight * loop_depth]:
          copies nested in hot loops survive proportionally longer. *)
  | Clock
      (** Second-chance approximation of k-edge/LRU with O(1) state per
          block: a reference bit set on execution and a timer re-armed
          every [k] edges; a copy is due when its timer fires with the
          bit clear. Budget victims come from a clock-hand sweep. *)
  | Pin_hot of { pinned : int list }
      (** Profile-driven pinned set: pinned blocks are never due and
          never budget victims; everything else runs plain k-edge/LRU.
          Instantiation rejects pins that alone exceed the budget. *)

val spec_name : spec -> string
(** CLI-facing name: ["kedge"], ["loop-aware"], ["clock"], ["pin-hot"]. *)

type ctx = {
  blocks : int;  (** Number of blocks (ids are [0 .. blocks-1]). *)
  k : int;  (** The uniform deletion distance. *)
  k_of : (int -> int) option;
      (** Adaptive per-block k, if any; read once per block at
          instantiation. *)
  graph : Cfg.Graph.t option;  (** Needed by [Loop_aware]. *)
  budget : int option;  (** Decompressed-area byte budget, if any. *)
  size_of : (int -> int) option;
      (** Uncompressed block size, for budget validation. *)
}
(** Everything a [spec] may need to build its runtime state. *)

type t
(** An instantiated policy: the state of one [spec] for one run,
    first-order — every call below dispatches with one [match] on the
    closed set of specs, with no closure per hook. All calls are total
    over [0 .. blocks-1]; calling them for blocks without a live copy
    is allowed and harmless. *)

val instantiate : spec -> ctx -> t
(** Builds the policy state for one simulation run. A [t] is single-use
    and stateful — instantiate a fresh one per run.
    @raise Invalid_argument on nonsensical parameters: [k < 1],
    [blocks < 1], loop-aware without a graph or [weight < 1], pinned
    ids out of range, or a pinned set that alone exceeds the budget. *)

val on_materialize : t -> block:int -> step:int -> unit
(** A copy of [block] starts existing (demand decompression or
    prefetch issue) at edge-step [step]. *)

val on_ready : t -> block:int -> time:int -> unit
(** The copy became executable at cycle [time] (prefetch completion,
    or immediately for demand decompression). *)

val on_execute : t -> block:int -> step:int -> time:int -> unit
(** The block executed at edge-step [step], cycle [time]. *)

val rearm : t -> block:int -> step:int -> unit
(** The host spared a copy the policy reported due (branch target, or
    still in flight): restart its retention window. *)

val due : t -> step:int -> int array -> int
(** [due t ~step buf] writes the copies due for deletion after the edge
    traversal that made the step counter reach [step] into
    [buf.(0 .. n-1)] and returns [n]. Sorted, each block at most once
    per window; the host may spare any of them (then it must
    [rearm]). [buf] is the caller's, reused across calls, and must
    hold [blocks] entries; nothing is allocated. *)

val victim : t -> exclude:(int -> bool) -> int
(** A resident copy to evict for budget room, or [-1]. *)

val on_release : t -> block:int -> unit
(** The copy is gone (deleted, evicted or flushed): drop all policy
    state for [block]. *)
