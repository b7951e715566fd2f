(* Recorded engine results. A golden file holds one line per
   (program, cell): the run's total and baseline cycles and the MD5 of
   its full serialized Core.Metrics.t, so any field that moves shows.
   Suite programs do not depend on the seed and are checked on every
   run; seeded programs only at the default seed.

   [--record-golden] rewrites the files from the current run instead
   of checking against them. *)

let recording = ref false

let path workload =
  Filename.concat (Filename.concat "perfbench" "golden") (workload ^ ".txt")

let fingerprint (m : Core.Metrics.t) =
  Printf.sprintf "total_cycles=%d baseline_cycles=%d md5=%s" m.total_cycles
    m.baseline_cycles
    (Digest.to_hex (Digest.string (Fleet.Cache.metrics_to_string m)))

type t = {
  workload : string;
  expected : (string, string) Hashtbl.t;
  mutable fresh : (string * string) list;
}

let load workload =
  let expected = Hashtbl.create 64 in
  (if not !recording then
     let ic = open_in (path workload) in
     Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () ->
         try
           while true do
             let line = input_line ic in
             match String.index_opt line ' ' with
             | Some i when line <> "" && line.[0] <> '#' ->
               Hashtbl.replace expected (String.sub line 0 i)
                 (String.sub line (i + 1) (String.length line - i - 1))
             | _ -> ()
           done
         with End_of_file -> ()));
  { workload; expected; fresh = [] }

let check g c ~key m =
  let fp = fingerprint m in
  if !recording then begin
    if not (List.mem_assoc key g.fresh) then g.fresh <- (key, fp) :: g.fresh
  end
  else
    match Hashtbl.find_opt g.expected key with
    | Some want -> Util.check c (want = fp) "%s: got %s, recorded %s" key fp want
    | None -> Util.check c false "%s: no recorded result" key

let save g =
  if !recording then begin
    let oc = open_out (path g.workload) in
    Printf.fprintf oc
      "# %s: Core.Metrics.t per program|cell at seed %d (perfbench \
       --record-golden)\n"
      g.workload Util.default_seed;
    List.iter
      (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v)
      (List.sort compare g.fresh);
    close_out oc
  end
