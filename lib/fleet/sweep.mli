(** Sweep orchestration: matrix expansion, sharding, and the
    cache-then-pool execution loop the experiments and the [ccomp
    sweep] subcommand share.

    The correctness contract: for any pool size and any cache state,
    {!run} returns the same metrics in the same (submission) order as
    a sequential uncached execution of the same job list. Cache
    lookups and writes, deduplication, and all {!Sim.Metrics} counter
    updates happen on the calling domain; worker domains only execute
    engine runs against scenarios the caller resolved up front. *)

type outcome = {
  job : Job.t;
  result : (Core.Metrics.t, string) result;
      (** [Error] = the job raised, blew its fuel/timeout, or its
          scenario could not be resolved. *)
  cached : bool;  (** satisfied from the cache, no engine run *)
}

val run :
  ?jobs:int ->
  ?pool:Pool.t ->
  ?cache:Cache.t ->
  ?registry:Sim.Metrics.t ->
  ?progress:(string -> unit) ->
  ?fuel:int ->
  ?timeout_ms:int ->
  ?cancel:(unit -> bool) ->
  resolve:(scenario:string -> codec:string -> Core.Scenario.t) ->
  Job.t list ->
  outcome list
(** Executes the jobs and returns outcomes in submission order.

    [jobs] (default 1) is the worker-pool size; 1 runs inline with no
    domains. [pool] overrides [jobs] with a caller-owned pool shared
    across calls — the resident service dispatches every request's
    engine runs onto one such pool, so concurrent {!run} calls from
    different threads queue fairly instead of spawning domains per
    request (the pool supports exactly this; the caller must not
    invoke {!run} from inside one of that pool's own tasks). [cancel]
    is the cooperative abort hook threaded into every engine run's
    {!Pool.budget}. Duplicate jobs (equal {!Job.key}) are executed once and
    fanned back out to every submission slot. With [cache], hits skip
    the engine entirely and fresh results are written back (atomic,
    see {!Cache}). [resolve] is called on the {e calling} domain,
    once per distinct (scenario, codec) pair that actually needs an
    engine run; a raising [resolve] fails only the jobs that needed
    it. [fuel]/[timeout_ms] bound each engine run via {!Pool.tick}
    wired into the run's event sink (one tick per simulation event).

    [registry] gains the pool's counters (names
    [fleet_jobs_submitted], [fleet_jobs_completed],
    [fleet_cache_hits], [fleet_cache_misses], [fleet_engine_runs],
    [fleet_jobs_errored]); totals accumulate across calls sharing a
    registry. [progress] receives one JSONL object per job
    completion — same shape discipline as [--trace-out] lines: a
    ["kind"] tag, an ["at"] sequence number, then job key, spec, the
    job's ["scenario"] name (so corpus-generated sweeps can be grouped
    by shape without re-parsing the spec string) and status. Called
    from worker domains under a mutex; keep it cheap. *)

val counter_names : string list
(** The registry counter names {!run} maintains, in a stable order
    (for rendering and tests). *)

val matrix :
  ?codecs:string list ->
  ?strategies:Job.strategy list ->
  ?modes:Job.mode list ->
  ?budgets:int option list ->
  ?retentions:Job.retention list ->
  ?profiles:string list ->
  ?line_sizes:int option list ->
  scenarios:string list ->
  ks:int list ->
  unit ->
  Job.t list
(** Cartesian expansion in deterministic row order: scenarios
    outermost, then ks, codecs, strategies, modes, budgets,
    retentions, device profiles, line sizes innermost. Defaults are
    singleton lists ([{!Job.default_codec}], [On_demand], [Discard], [None],
    [Kedge], [{!Job.default_profile}], [None] = block granularity),
    so [matrix ~scenarios ~ks ()] is the classic E6 grid. *)

val default_ks : int list
(** [[1; 2; 4; 8; 16; 32]]: the k grid of a sweep that names none. *)

val normalize_ks : int list -> int list
(** Sorted deduplication of a sweep's k axis. Duplicate or unsorted
    [--ks] values would expand to duplicate jobs that the cache then
    masks (the dedup above makes them one engine run, but every table
    row repeats); callers compare the result against their input to
    warn the user. *)

val shard : shards:int -> index:int -> 'a list -> 'a list
(** Round-robin slice [index] of [shards] (for splitting one matrix
    across processes/machines): element [i] goes to shard
    [i mod shards]. Preserves relative order.
    @raise Invalid_argument unless [0 <= index < shards]. *)
