(** The decompressed-copy area manager: the remember sets shared by the
    timing model and the executable runtime.

    An area keeps the remember-set bookkeeping every host needs (which
    branch sites were patched to point at each copy, paper §5) and
    ends a copy's life in its retention {!Policy.t} on {!release}. The
    host drives the policy's other hooks itself. The area emits no
    events: each host pushes its own [Discard]/[Evict] into its
    {!Sim.Events.Packed} chunk after {!release}.

    The area is generic in the {e site} representation: the timing
    model records the branching block's id ([int]), the executable
    runtime records concrete patched slots ([copy * slot]). [site_key]
    must injectively map a site to an [int] — the area stores it beside
    the site, once per record, to deduplicate repeated patches of the
    same site. *)

type 'site t

val create :
  policy:Policy.t ->
  blocks:int ->
  site_key:('site -> int) ->
  unit ->
  'site t

(** {1 Remember sets} *)

val record_site : 'site t -> target:int -> site:'site -> bool
(** Records that [site] was patched to point at [target]'s copy.
    Returns [true] if the site was new ([false] = already recorded, no
    patch was needed). *)

val forget_key : 'site t -> target:int -> key:int -> int
(** Drops the recorded site whose [site_key] is [key] without patching
    it back — used when the {e site's own} copy disappears and its
    patched branch goes with it. Returns 1 if such a site was recorded
    (and is now dropped), else 0. *)

(** {1 Copy death} *)

val release : 'site t -> block:int -> patch_back:('site -> bool) -> int
(** Ends [block]'s copy: flushes its remember set through [patch_back]
    (in recording order; the return value counts [true] results, i.e.
    patches actually performed) and tells the policy to drop its
    state. *)

val release_count : 'site t -> block:int -> int
(** {!release} when every site trivially patches back ([patch_back]
    would be [fun _ -> true] and pure): returns the number of recorded
    sites without traversing them. Closure-free, for per-step
    callers. *)
