(** E5 — Figure 5: the §5 memory organization traced step by step for
    the access pattern B0, B1, B0, B1, B3 with k = 2. Runs
    {!Core.Engine} on the figure's scenario and reads the narrative and
    the memory image off its event stream, reproducing the numbered
    snapshots: initial all-compressed image, decompressions into the
    separate area, branch patching via remember sets, the
    exception-free direct branch, and the deletion of B0'. *)

val run : unit -> Report.Table.t

val holds : unit -> bool
(** After the final step, exactly B1' and B3' are resident, B0' was
    deleted with one branch site patched back, and the compressed
    area never changed size. *)
