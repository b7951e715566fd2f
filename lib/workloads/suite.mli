(** The benchmark suite: every kernel plus lookup helpers. *)

val all : Common.t list
(** Hand-written ERIS assembly: fir, crc32, matmul, bsort, dijkstra,
    fsm, adpcm, dct, qsort, strsearch, histogram, rotmix.
    Compiled from MiniC: nqueens, collatz, life, vm. *)

val names : string list

val find : string -> Common.t option
val find_exn : string -> Common.t

val check_all : unit -> (string * (unit, string) result) list
(** Runs every kernel against its OCaml reference. *)

val scenarios : ?codec:Compress.Codec.t -> unit -> Core.Scenario.t list

val resolve :
  ?lookup:(string -> Core.Scenario.t) ->
  ?codec:Compress.Codec.t ->
  string ->
  Core.Scenario.t
(** Any scenario string: a suite workload name, a [gen:] generator
    spec or a [multi:] composition ({!Corpus.Resolve.scenario}), under
    [codec] (default: the positional model trained on each program).
    [lookup] serves the plain names, the top-level one and those inside
    a [multi:] (default: build the suite workload under [codec]).
    @raise Invalid_argument on an unknown name or a malformed spec. *)
