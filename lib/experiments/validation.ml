let compress_k = 4

type row = {
  workload : string;
  engine_demand : int;
  runtime_decompressions : int;
  runtime_traps : int;
  engine_discards : int;
  runtime_deletions : int;
  checksum_ok : bool;
}

let rows () =
  (* The timing-model half of every row is a fleet sweep (parallel,
     cacheable); the executable-runtime half stays inline — it is the
     reference being validated, not a cacheable metric. *)
  let names = List.map (fun w -> w.Workloads.Common.name) Workloads.Suite.all in
  let model =
    List.map
      (fun ((job : Fleet.Job.t), m) -> (job.scenario, m))
      (Util.fleet_sweep
         (Fleet.Sweep.matrix ~scenarios:names ~ks:[ compress_k ]
            (Fleet.Job.make ~k:compress_k ())))
  in
  List.map
    (fun w ->
      let m = List.assoc w.Workloads.Common.name model in
      let prog = Eris.Asm.assemble_exn w.Workloads.Common.source in
      match Runtime.run ~k:compress_k prog with
      | Ok (machine, stats) ->
        {
          workload = w.Workloads.Common.name;
          engine_demand = m.Core.Metrics.demand_decompressions;
          runtime_decompressions = stats.Runtime.decompressions;
          runtime_traps = stats.Runtime.traps;
          engine_discards = m.Core.Metrics.discards;
          runtime_deletions = stats.Runtime.deletions;
          checksum_ok =
            Eris.Machine.read_word machine w.Workloads.Common.result_addr
            = w.Workloads.Common.expected;
        }
      | Error _ ->
        {
          workload = w.Workloads.Common.name;
          engine_demand = m.Core.Metrics.demand_decompressions;
          runtime_decompressions = -1;
          runtime_traps = -1;
          engine_discards = m.Core.Metrics.discards;
          runtime_deletions = -1;
          checksum_ok = false;
        })
    Workloads.Suite.all

let run () =
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "E16 (validation): timing model vs. executable runtime (k=%d, \
            on-demand)"
           compress_k)
      ~columns:
        [
          ("workload", Report.Table.Left);
          ("model demand dec", Report.Table.Right);
          ("runtime dec", Report.Table.Right);
          ("runtime traps", Report.Table.Right);
          ("model discards", Report.Table.Right);
          ("runtime deletions", Report.Table.Right);
          ("checksum", Report.Table.Left);
        ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row t
        [
          r.workload;
          string_of_int r.engine_demand;
          string_of_int r.runtime_decompressions;
          string_of_int r.runtime_traps;
          string_of_int r.engine_discards;
          string_of_int r.runtime_deletions;
          (if r.checksum_ok then "matches reference" else "MISMATCH");
        ])
    (rows ());
  t
