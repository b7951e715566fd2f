let ks = [ 1; 2; 4; 8; 16; 32 ]

let series sc =
  List.map (fun k -> (k, Util.run sc (Core.Policy.on_demand ~k))) ks

let run () =
  let t =
    Report.Table.create
      ~title:
        "E6: k-edge compression sweep (on-demand decompression) - memory \
         vs. performance tradeoff"
      ~columns:
        [
          ("workload", Report.Table.Left);
          ("k", Report.Table.Right);
          ("overhead", Report.Table.Right);
          ("peak mem saving", Report.Table.Right);
          ("avg mem saving", Report.Table.Right);
          ("demand decs", Report.Table.Right);
          ("discards", Report.Table.Right);
        ]
  in
  (* The whole workload x k grid goes through the fleet in one
     submission: parallel and cached when the caller configured it,
     sequential (and row-for-row identical) by default. *)
  let names =
    List.map (fun sc -> sc.Core.Scenario.name) (Util.scenarios ())
  in
  let jobs = Fleet.Sweep.matrix ~scenarios:names ~ks (Fleet.Job.make ~k:1 ()) in
  List.iter
    (fun ((job : Fleet.Job.t), m) ->
      Report.Table.add_row t
        [
          job.scenario;
          string_of_int job.k;
          Report.Table.fmt_pct (Core.Metrics.overhead_ratio m);
          Report.Table.fmt_pct (Core.Metrics.peak_memory_saving m);
          Report.Table.fmt_pct (Core.Metrics.avg_memory_saving m);
          string_of_int m.Core.Metrics.demand_decompressions;
          string_of_int m.Core.Metrics.discards;
        ])
    (Util.fleet_sweep jobs);
  t
