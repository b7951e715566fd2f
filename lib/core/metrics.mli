(** Results of one policy-engine run. *)

type t = {
  (* time *)
  total_cycles : int;  (** wall clock of the execution thread *)
  exec_cycles : int;  (** cycles spent executing block bodies *)
  exception_cycles : int;
  patch_cycles : int;
  demand_dec_cycles : int;  (** decompression on the critical path *)
  stall_cycles : int;  (** waiting for in-flight pre-decompressions *)
  baseline_cycles : int;
      (** the same trace with everything resident (no compression
          machinery at all) *)
  (* events *)
  exceptions : int;
  patches : int;
  demand_decompressions : int;
  prefetch_decompressions : int;
  useful_prefetches : int;  (** prefetched copies that were executed *)
  wasted_prefetches : int;
      (** prefetched copies deleted or evicted before any execution *)
  discards : int;  (** k-edge deletions *)
  evictions : int;  (** budget-forced LRU deletions *)
  budget_overflows : int;
      (** decompressions admitted above the budget because no victim
          was evictable *)
  (* helper threads *)
  dec_thread_busy_cycles : int;
  comp_thread_busy_cycles : int;
  (* energy (all zero under the paper-2005 profile) *)
  energy_nj : int;  (** total across every charge source *)
  exec_energy_nj : int;
  exception_energy_nj : int;
  patch_energy_nj : int;  (** patches on the critical path + patch-backs *)
  dec_energy_nj : int;  (** demand + prefetch decompressions *)
  comp_energy_nj : int;  (** recompressions *)
  ram_static_energy_nj : int;
      (** leakage of the decompressed copy area over the run *)
  baseline_energy_nj : int;
      (** exec energy of the baseline trace (everything resident) *)
  (* memory *)
  original_bytes : int;  (** full uncompressed image *)
  compressed_area_bytes : int;  (** always-resident compressed image *)
  peak_decompressed_bytes : int;
  avg_decompressed_bytes : float;
  peak_footprint_bytes : int;  (** compressed area + decompressed peak *)
  avg_footprint_bytes : float;
  (* shape *)
  trace_length : int;
  blocks : int;
}

(** {2 The field list}

    Every serialized form of a record — the fleet cache entry, the
    wire JSON, the registry rows — iterates {!fields} and rebuilds
    with {!of_reader}, so a field added to [t] reaches all of them
    at once. *)

type _ kind = Int : int kind | Float : float kind

type field = Field : string * 'a kind * (t -> 'a) -> field
(** A field's name, value type and accessor. *)

val fields : field list
(** Every field of [t], once each, in declaration order. *)

type reader = { read : 'a. string -> 'a kind -> 'a }
(** Looks up one field's value by name; raising aborts the rebuild. *)

val of_reader : reader -> t
(** Rebuilds a record by reading each of {!fields} once (in no
    particular order). *)

val overhead_ratio : t -> float
(** [total_cycles / baseline_cycles - 1]; 0 = no slowdown. *)

val energy_overhead_ratio : t -> float
(** [energy_nj / baseline_energy_nj - 1]; 0 when the baseline energy
    is 0 (any all-zero energy profile). *)

val peak_memory_saving : t -> float
(** [1 - peak_footprint / original]: fraction of the original image
    freed at the worst moment. Negative if compression lost. *)

val avg_memory_saving : t -> float

val register : ?labels:(string * string) list -> Sim.Metrics.t -> t -> unit
(** Publishes every field as a counter in the registry (float
    averages are truncated), so engine results, runtime stats and
    event tallies can be rendered and exported through one
    {!Sim.Metrics} surface. *)

val pp : Format.formatter -> t -> unit
val pp_brief : Format.formatter -> t -> unit
