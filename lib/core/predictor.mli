(** Next-block prediction for the pre-decompress-single strategy
    (paper, §4): among the compressed blocks at most [k] edges ahead,
    "predict the block that is to be the most likely one to be
    reached" and decompress only that one. *)

(** Prediction policies. *)
type t =
  | First_successor
      (** static: follow each block's first CFG successor *)
  | Last_taken
      (** dynamic: follow the successor most recently taken from each
          block (falling back to the first successor) *)
  | By_profile of Cfg.Profile.t
      (** maximize path probability under an edge profile *)

val name : t -> string

(** Mutable per-run state (the last-taken table). *)
type state

val create_state : blocks:int -> state

val note_edge : state -> src:int -> dst:int -> unit
(** Records a dynamically taken edge (drives [Last_taken]). *)

val choose :
  t ->
  state ->
  Cfg.Graph.t ->
  from:int ->
  k:int ->
  candidates:int list ->
  int option
(** Picks the candidate predicted most likely to be reached within [k]
    edges of [from]'s exit. [candidates] must be given in BFS order
    (nearest first), as produced by {!Cfg.Dist.within}; the fallback
    when the predicted path misses every candidate is the nearest
    one. Returns [None] iff [candidates] is empty. *)

val pick :
  t ->
  state ->
  Frontier.t ->
  from:int ->
  eligible:(int -> bool) ->
  int
(** {!choose} over a frontier table whose [k] is the lookahead, with
    the candidates being the eligible entries of [from]'s frontier:
    the same pick, or [-1] where [choose] gives [None]. Allocates
    nothing once [from]'s entry is built. For [By_profile p] the table
    must have been created with profile [p]. *)
