let workload_names = [ "matmul"; "dijkstra"; "fsm" ]
let fractions = [ 1.0; 0.8; 0.6; 0.4; 0.2; 0.1 ]
let compress_k = 8

let series sc =
  let unbounded = Util.run sc (Core.Policy.on_demand ~k:compress_k) in
  let peak = max 1 unbounded.Core.Metrics.peak_decompressed_bytes in
  List.map
    (fun frac ->
      let budget = max 1 (int_of_float (frac *. float_of_int peak)) in
      let policy = Core.Policy.make ~compress_k ~budget () in
      (frac, Util.run sc policy))
    fractions

let run () =
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "E10: memory-budget variant with LRU eviction (k=%d, budget as \
            fraction of unbudgeted peak)"
           compress_k)
      ~columns:
        [
          ("workload", Report.Table.Left);
          ("budget", Report.Table.Right);
          ("budget bytes", Report.Table.Right);
          ("overhead", Report.Table.Right);
          ("evictions", Report.Table.Right);
          ("overflows", Report.Table.Right);
          ("peak dec bytes", Report.Table.Right);
        ]
  in
  (* Two fleet stages: the unbounded runs fix each workload's peak,
     which prices the budgeted grid of the second stage. *)
  let unbounded_jobs =
    Fleet.Sweep.matrix ~scenarios:workload_names ~ks:[ compress_k ]
      (Fleet.Job.make ~k:compress_k ())
  in
  let peaks =
    List.map
      (fun ((job : Fleet.Job.t), m) ->
        (job.scenario, max 1 m.Core.Metrics.peak_decompressed_bytes))
      (Util.fleet_sweep unbounded_jobs)
  in
  let budgeted_jobs =
    List.concat_map
      (fun name ->
        let peak = List.assoc name peaks in
        List.map
          (fun frac ->
            let budget = max 1 (int_of_float (frac *. float_of_int peak)) in
            (frac, Fleet.Job.make ~budget ~scenario:name ~k:compress_k ()))
          fractions)
      workload_names
  in
  List.iter2
    (fun (frac, _) ((job : Fleet.Job.t), m) ->
      Report.Table.add_row t
        [
          job.scenario;
          Printf.sprintf "%.0f%%" (100.0 *. frac);
          string_of_int (Option.get job.budget);
          Report.Table.fmt_pct (Core.Metrics.overhead_ratio m);
          string_of_int m.Core.Metrics.evictions;
          string_of_int m.Core.Metrics.budget_overflows;
          string_of_int m.Core.Metrics.peak_decompressed_bytes;
        ])
    budgeted_jobs
    (Util.fleet_sweep (List.map snd budgeted_jobs));
  t
