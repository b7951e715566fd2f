(** E17: the pluggable retention policies (k-edge, loop-aware, clock,
    pin-hot) head to head over the whole workload suite at one k —
    aggregate stalls, patch-backs, discards, peak decompressed bytes
    and mean overhead per policy. Exercises the {!Residency} layer the
    way a policy author would. *)

type agg = {
  mutable total_cycles : int;
  mutable stall_cycles : int;
  mutable exceptions : int;
  mutable patches : int;
  mutable discards : int;
  mutable peak_bytes : int;  (** max over the suite *)
  mutable overhead_sum : float;
  mutable runs : int;
}

val policies : string list
(** Retention knob names ({!Fleet.Job.Knob.retention}), in table
    order. *)

val rows : unit -> (string * agg) list
(** Aggregates per policy across the suite. *)

val run : unit -> Report.Table.t
