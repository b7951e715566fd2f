(** The versioned JSONL request/response protocol.

    One request per line, one response line per request. Clients may
    pipeline: many requests can be outstanding on one connection, and
    responses to {e heavy} ops ([sim]/[sweep]/[compress]) may arrive
    out of order as the pool finishes them — the echoed ["id"] is the
    correlation key. Light ops ([health]/[stats]) are answered inline
    in arrival order. A request is a flat JSON object:

    {v
    {"v": 1, "id": 7, "op": "sim", "workload": "fir", "k": 8}
    v}

    - ["v"] (optional) must equal {!protocol_version} when present.
    - ["id"] (optional, any scalar) is echoed verbatim in the
      response; pipelining clients should make it unique per
      outstanding request.
    - ["op"] selects the operation: [health], [stats], [sim],
      [sweep] or [compress].
    - [sim] takes [workload] and [sweep] [workloads]/[ks]; both take
      one field per {!Fleet.Job.Knob.all} knob — the CLI's policy
      surface, with the knobs' own defaults and checks — plus
      per-request guards [timeout_ms] and [fuel].
    - [compress] takes [workload] and optionally [codec] (all codecs
      when omitted).

    Responses are [{"id": .., "ok": {..}}] or
    [{"id": .., "error": {"code": .., "msg": ..}}] — malformed input
    is answered with a structured error, never a dropped connection
    or a crash. *)

val protocol_version : int

val default_max_request_bytes : int
(** 65536 — longer request lines are answered with an [oversized]
    error and skipped; the connection stays usable. *)

(** {1 Errors} *)

type error = {
  code : string;
  msg : string;
  retry_after_ms : int option;
      (** only on [overloaded]: the admission layer's backoff hint *)
}

(** Stable error codes (the failure-mode table in DESIGN.md §8). *)

val bad_json : string (* unparseable line *)
val bad_request : string (* parsed, but missing/invalid fields *)
val unknown_op : string
val oversized : string
val overloaded : string
val too_many_connections : string
val deadline_exceeded : string
val fuel_exhausted : string
val cancelled : string

val shutting_down : string
val slow_consumer : string
(** The connection's write buffer outgrew the server's cap (the
    client stopped reading while responses kept landing); the server
    sends this and hangs up. *)

val internal : string

val err : ?retry_after_ms:int -> string -> string -> error
(** [err code msg]. *)

val classify_run_error : string -> string
(** Maps a {!Fleet.Pool} per-job error message to the matching
    wire code ([deadline_exceeded], [fuel_exhausted], [cancelled]),
    defaulting to [internal]. *)

(** {1 Requests} *)

type request =
  | Health
  | Stats
  | Sim of Fleet.Job.t
  | Sweep of Fleet.Job.t list
  | Compress of { workload : string; codec : string option }

type envelope = {
  id : Json.t;  (** [Null] when the client sent none *)
  timeout_ms : int option;
  fuel : int option;
  request : request;
}

val parse_request : string -> (envelope, Json.t * error) result
(** Parses and validates one request line. On error, the returned id
    is whatever could be salvaged from the line ([Null] if even that
    failed), so the error response still correlates. Workload, codec
    and enum values are validated here against the registries — a
    request that parses is executable. *)

(** {1 Fast-path scanner} *)

type fast_op =
  | Fast_health
  | Fast_stats

val scan_fast :
  Bytes.t -> pos:int -> len:int -> (fast_op * (int * int) option) option
(** [scan_fast buf ~pos ~len] recognizes the hot read-only requests
    without allocating: a line that is exactly a JSON object whose
    members are [op] ("health" or "stats"), optionally a scalar [id]
    (returned as a byte span into [buf], quotes included for
    strings), and optionally [v] equal to 1 — no escapes, no
    duplicates, nothing else. Any other shape returns [None] and must
    go through {!parse_request}; by construction the two paths agree
    on every line the scanner accepts. *)

(** {1 Responses} *)

val ok_line : id:Json.t -> Json.t -> string
(** One complete response line (no trailing newline). *)

val error_line : id:Json.t -> error -> string

val parse_response :
  string -> (Json.t * (Json.t, error) result, string) result
(** Client side: splits a response line into (id, ok payload |
    structured error). [Error] only when the line itself is not a
    valid response object. *)

val metrics_to_json : Core.Metrics.t -> Json.t
(** Every field of {!Core.Metrics.fields}, in order, plus the derived
    ratios ([overhead_ratio], [peak_memory_saving],
    [avg_memory_saving], [energy_overhead_ratio]). *)

val job_to_json : Fleet.Job.t -> Json.t
(** The spec as a [sim] request would carry it: [workload] plus
    {!Fleet.Job.settings}, so it parses back to the same job. *)

val outcome_to_json : Fleet.Sweep.outcome -> Json.t
(** Job spec + key + [cached] + either ["metrics"] or ["error"]. *)
