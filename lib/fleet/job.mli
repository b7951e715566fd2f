(** Self-describing sweep jobs.

    A job names one policy-engine run — workload scenario, codec,
    policy knobs — using only serializable data (strings and numbers,
    no closures), so the same spec can be expanded from a CLI matrix,
    shipped to a worker domain, and hashed into a stable content key
    for the {!Cache}. Everything a run needs that is not in the spec
    (the predictor's profile, the pin-hot pinned set) is derived
    deterministically from the scenario inside {!execute}, so equal
    keys really do mean equal results. *)

type strategy =
  | On_demand
  | Pre_all of { lookahead : int }
  | Pre_single of { lookahead : int; predictor : string }
      (** predictor is ["first"], ["last-taken"] or ["profile"] *)

type mode =
  | Discard
  | Recompress

type retention =
  | Kedge
  | Loop_aware of { weight : int }
  | Clock
  | Pin_hot of { fraction : float }
      (** pinned set = the profile-hot blocks covering [fraction] of
          visits, recomputed from the scenario's own trace *)

type t = {
  scenario : string;  (** workload name, resolved by the caller *)
  codec : string;  (** registry codec name, or ["code"] *)
  k : int;
  strategy : strategy;
  mode : mode;
  budget : int option;
  retention : retention;
  profile : string;  (** device profile naming the cost coefficients *)
  line_size : int option;
      (** [Some bytes] runs the scenario through {!Core.Lineview} —
          line-granular residency — instead of block-granular
          {!Core.Scenario.run} *)
}

val default_codec : string
(** ["code"]: the positional shared-Huffman model trained on the
    workload itself. *)

val default_profile : string
(** ["paper-2005"]. *)

val make :
  ?codec:string ->
  ?strategy:strategy ->
  ?mode:mode ->
  ?budget:int ->
  ?retention:retention ->
  ?profile:string ->
  ?line_size:int ->
  scenario:string ->
  k:int ->
  unit ->
  t
(** Defaults: codec {!default_codec}, [On_demand], [Discard], no budget,
    [Kedge], profile {!default_profile}, block granularity (no
    [line_size]). The profile and line size are part of the content
    key — the same sweep under two device profiles, or at two line
    granularities, never shares cache entries. *)

val canonical : t -> string
(** Canonical one-line serialization: every field rendered in a fixed
    order (floats in hexadecimal so the text round-trips exactly).
    Two specs are the same job iff their canonical strings are
    equal. *)

val key : t -> string
(** Hex digest of {!canonical}, prefixed with the spec format
    version — the content address used by {!Cache}. Filesystem-safe
    ([a-z0-9-] only). *)

val describe : t -> string
(** Human-readable one-liner for progress output. *)

val registry_codec : string -> Compress.Codec.t option
(** The registry codec a job's codec name selects; [None] for
    {!default_codec}.
    @raise Not_found (via {!Compress.Registry.find_exn}) for an
    unknown name. *)

(** {1 Policy knobs}

    The one definition of every policy setting a job carries beyond
    its scenario: its name, default, validation and rendering. The
    CLI options and the wire fields of the service are derived from
    {!Knob.all}, so they accept the same values and fill in the same
    defaults. *)

module Knob : sig
  type value =
    | Str of string
    | Int of int
    | Float of float

  type kind =
    | Choice of (unit -> string list)  (** one of these names *)
    | At_least of int  (** an integer no smaller than this *)
    | Fraction  (** a float in (0, 1] *)

  type t = {
    name : string;  (** wire field *)
    flag : string;
        (** CLI option; for a {!Choice} knob whose flag is one of its
            names, a switch selecting that name *)
    kind : kind;
    default : value option;  (** [None]: unset unless given *)
    doc : string;
  }

  val codec : t
  val k : t
  val strategy : t
  val lookahead : t
  val predictor : t
  val mode : t
  val budget : t
  val retention : t
  val weight : t
  val fraction : t
  val profile : t
  val line_size : t

  val all : t list
  (** Every knob, in rendering order. *)

  val check : t -> value -> (unit, string) result
  (** Whether the value is of the knob's kind and in its range. *)
end

val settings : t -> (Knob.t * Knob.value) list
(** The job's knob settings, in {!Knob.all} order, leaving out
    parameters its strategy or retention does not take. *)

val of_settings :
  (Knob.t * Knob.value) list -> (scenario:string -> t, string) result
(** Checks each given setting and fills the rest with knob defaults.
    [of_settings (settings j)] rebuilds [j] for [j.scenario]. *)

val policy : Core.Scenario.t -> t -> Core.Policy.t
(** The engine policy the job names. The predictor's profile and the
    pin-hot pinned set are derived from [scenario] itself.
    @raise Invalid_argument on malformed specs (bad k, lookahead,
    predictor or retention parameters). *)

val execute :
  ?sink:Sim.Events.sink ->
  ?registry:Sim.Metrics.t ->
  Core.Scenario.t ->
  t ->
  Core.Metrics.t
(** Runs the job against [scenario] (which the caller resolved from
    [t.scenario]/[t.codec]). Deterministic: no clocks, no global
    state, safe to call from any domain as long as the scenario is
    not mutated concurrently.
    @raise Invalid_argument as {!policy} does — the pool turns this
    into a per-job [Error]. *)
