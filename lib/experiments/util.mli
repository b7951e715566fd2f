(** Shared helpers for the experiment drivers. *)

val scenarios : unit -> Core.Scenario.t list
(** The 8 workload scenarios (built once and memoized: building one
    executes the kernel to extract its trace). *)

val scenario : string -> Core.Scenario.t
(** By workload name. @raise Invalid_argument if unknown. *)

val collect_events : unit -> Core.Engine.event list ref * (Core.Engine.event -> unit)
(** An event sink for engine logs; the list accumulates newest-first
    ([List.rev] it for chronological order). Prefer
    {!Sim.Events.collector} in new code. *)

val event_to_string : Core.Engine.event -> string
(** {!Sim.Events.describe} ([Core.Engine.event] is the same type). *)

val event_time : Core.Engine.event -> int
(** {!Sim.Events.time}. *)

val run : Core.Scenario.t -> Core.Policy.t -> Core.Metrics.t
(** {!Core.Scenario.run} with the scenario codec's cost model. *)

val configure_fleet :
  ?jobs:int ->
  ?cache:Fleet.Cache.t ->
  ?registry:Sim.Metrics.t ->
  ?progress:(string -> unit) ->
  unit ->
  unit
(** Sets how {!fleet_sweep} — and therefore every sweeping experiment
    (E6, E10, E16, E17) — executes its engine runs. Defaults restore
    the sequential uncached behaviour ([jobs = 1], no cache), which
    the fleet guarantees produces identical tables.
    @raise Invalid_argument if [jobs < 1]. *)

val resolve : scenario:string -> codec:string -> Core.Scenario.t
(** The fleet's scenario resolver: a plain workload name (memoized
    suite, or a named registry codec for non-["code"] jobs), a [gen:]
    generator spec or a [multi:] composition ({!Corpus.Resolve}). *)

val retention_job :
  ?budget:int -> k:int -> scenario:string -> string -> Fleet.Job.t
(** The job for one retention policy by its knob name, at that
    policy's knob defaults (loop-aware weight, pin-hot fraction) —
    the job [ccomp sim --retention NAME] runs.
    @raise Invalid_argument for an unknown name. *)

val fleet_sweep : Fleet.Job.t list -> (Fleet.Job.t * Core.Metrics.t) list
(** {!Fleet.Sweep.run} under the current {!configure_fleet} settings,
    resolving scenario strings through {!resolve} — so generated
    [gen:]/[multi:] scenarios sweep and cache exactly like suite
    workloads. Results come back in submission order.
    @raise Failure if any job errored. *)
