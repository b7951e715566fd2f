(* E21: what preemptive multitasking does to the paper's model. Pairs
   of suite workloads run interleaved (Corpus.Multitask) under a
   shared decompressed-area budget, across preemption quanta and two
   retention policies. The cross-eviction column counts copies of one
   task's working set discarded or evicted while the other task was
   running — contention the single-threaded suite can never show. A
   small quantum thrashes the shared area; a large one approaches the
   two tasks run back to back. *)

let compress_k = 8
let quanta = [ 16; 64; 256 ]
let retentions = [ "kedge"; "clock" ]
let combos = [ [ "fir"; "crc32" ]; [ "matmul"; "dct" ]; [ "qsort"; "strsearch" ] ]

(* A budget the union working sets cannot both fit under: a third of
   the composed image's uncompressed bytes forces the tasks to fight
   for the area at small quanta. *)
let budget_of sc =
  let total =
    Array.fold_left
      (fun a (i : Core.Engine.block_info) -> a + i.uncompressed_bytes)
      0 sc.Core.Scenario.info
  in
  max 256 (total / 3)

type row = {
  tasks : string list;
  quantum : int;
  retention : string;
  metrics : Core.Metrics.t;
  stats : Corpus.Multitask.task_stats array;
}

let rows () =
  List.concat_map
    (fun tasks ->
      let scenarios = List.map Util.scenario tasks in
      List.concat_map
        (fun quantum ->
          let mt = Corpus.Multitask.compose ~quantum ~seed:1 scenarios in
          let budget = budget_of mt.Corpus.Multitask.scenario in
          List.map
            (fun retention ->
              let sc = mt.Corpus.Multitask.scenario in
              let metrics, stats =
                Corpus.Multitask.run mt
                  (Fleet.Job.policy sc
                     (Util.retention_job ~budget ~k:compress_k
                        ~scenario:sc.name retention))
              in
              { tasks; quantum; retention; metrics; stats })
            retentions)
        quanta)
    combos

let per_task f stats =
  String.concat "+"
    (Array.to_list (Array.map (fun s -> string_of_int (f s)) stats))

let run () =
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "E21 multitask contention: shared area under preemption (k=%d, \
            budget=uncompressed/3)"
           compress_k)
      ~columns:
        [
          ("tasks", Report.Table.Left);
          ("quantum", Report.Table.Right);
          ("retention", Report.Table.Left);
          ("total cycles", Report.Table.Right);
          ("demand decs", Report.Table.Right);
          ("per-task decs", Report.Table.Right);
          ("cross evictions", Report.Table.Right);
          ("peak bytes", Report.Table.Right);
        ]
  in
  List.iter
    (fun row ->
      let cross =
        Array.fold_left
          (fun a (s : Corpus.Multitask.task_stats) ->
            a + s.evicted_while_inactive)
          0 row.stats
      in
      Report.Table.add_row t
        [
          String.concat "+" row.tasks;
          Report.Table.fmt_int row.quantum;
          row.retention;
          Report.Table.fmt_int row.metrics.Core.Metrics.total_cycles;
          Report.Table.fmt_int row.metrics.Core.Metrics.demand_decompressions;
          per_task
            (fun (s : Corpus.Multitask.task_stats) -> s.demand_decompressions)
            row.stats;
          Report.Table.fmt_int cross;
          Report.Table.fmt_bytes
            row.metrics.Core.Metrics.peak_decompressed_bytes;
        ])
    (rows ());
  t
