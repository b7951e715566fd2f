(* E17: the pluggable retention policies head to head. Every workload
   of the suite runs through the timing model once per policy at the
   same k; the table aggregates the costs the retention decision
   drives — stall cycles, peak decompressed bytes, patch-backs — so
   the trade-off each policy makes is visible in one row. *)

let compress_k = 8

type agg = {
  mutable total_cycles : int;
  mutable stall_cycles : int;
  mutable exceptions : int;
  mutable patches : int;
  mutable discards : int;
  mutable peak_bytes : int;  (* max over the suite *)
  mutable overhead_sum : float;
  mutable runs : int;
}

let zero () =
  {
    total_cycles = 0;
    stall_cycles = 0;
    exceptions = 0;
    patches = 0;
    discards = 0;
    peak_bytes = 0;
    overhead_sum = 0.0;
    runs = 0;
  }

let policies = [ "kedge"; "loop-aware"; "clock"; "pin-hot" ]

let rows () =
  let names =
    List.map (fun sc -> sc.Core.Scenario.name) (Util.scenarios ())
  in
  let jobs =
    List.concat_map
      (fun policy ->
        List.map
          (fun scenario ->
            (policy, Util.retention_job ~k:compress_k ~scenario policy))
          names)
      policies
  in
  let by_policy = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace by_policy p (zero ())) policies;
  List.iter2
    (fun (policy, _) (_, m) ->
      let a = Hashtbl.find by_policy policy in
      a.total_cycles <- a.total_cycles + m.Core.Metrics.total_cycles;
      a.stall_cycles <- a.stall_cycles + m.Core.Metrics.stall_cycles;
      a.exceptions <- a.exceptions + m.Core.Metrics.exceptions;
      a.patches <- a.patches + m.Core.Metrics.patches;
      a.discards <- a.discards + m.Core.Metrics.discards;
      a.peak_bytes <- max a.peak_bytes m.Core.Metrics.peak_decompressed_bytes;
      a.overhead_sum <- a.overhead_sum +. Core.Metrics.overhead_ratio m;
      a.runs <- a.runs + 1)
    jobs
    (Util.fleet_sweep (List.map snd jobs));
  List.map (fun name -> (name, Hashtbl.find by_policy name)) policies

let run () =
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "E17 retention policies head to head (workload suite, k=%d)"
           compress_k)
      ~columns:
        [
          ("retention", Report.Table.Left);
          ("total cycles", Report.Table.Right);
          ("stall cycles", Report.Table.Right);
          ("exceptions", Report.Table.Right);
          ("patch-backs", Report.Table.Right);
          ("discards", Report.Table.Right);
          ("peak bytes", Report.Table.Right);
          ("avg overhead", Report.Table.Right);
        ]
  in
  List.iter
    (fun (name, a) ->
      Report.Table.add_row t
        [
          name;
          Report.Table.fmt_int a.total_cycles;
          Report.Table.fmt_int a.stall_cycles;
          Report.Table.fmt_int a.exceptions;
          Report.Table.fmt_int a.patches;
          Report.Table.fmt_int a.discards;
          Report.Table.fmt_bytes a.peak_bytes;
          Report.Table.fmt_pct (a.overhead_sum /. float_of_int a.runs);
        ])
    (rows ());
  t
