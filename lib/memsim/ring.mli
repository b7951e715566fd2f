(** FIFO of [(time, payload)] int pairs in a growable ring buffer: the
    queue behind the engine's in-flight prefetches and recompression
    frees, and {!Timers}' in-order lane. Pushing and dropping are a
    few int stores; a full ring doubles, so a run allocates while the
    queue reaches its high-water mark and not after.

    The record is read-only outside this module; hot loops test [len]
    and read the head entry, [times.(head)] and [loads.(head)],
    without a call. *)

type t = private {
  mutable times : int array;  (** capacity is a power of two *)
  mutable loads : int array;
  mutable head : int;  (** slot of the oldest entry *)
  mutable len : int;
}

val create : unit -> t

val push : t -> time:int -> int -> unit
(** Appends an entry at the tail. *)

val drop : t -> unit
(** Removes the head entry; [len] must be positive. *)

val last_time : t -> int
(** Time of the newest entry; [len] must be positive. *)
