let all =
  [
    Fir.workload;
    Crc32.workload;
    Matmul.workload;
    Bsort.workload;
    Dijkstra.workload;
    Fsm.workload;
    Adpcm.workload;
    Dct.workload;
    Qsort.workload;
    Strsearch.workload;
    Histogram.workload;
    Rotmix.workload;
    Nqueens.workload;
    Collatz.workload;
    Life.workload;
    Bytecode_vm.workload;
  ]

let names = List.map (fun w -> w.Common.name) all

let find name = List.find_opt (fun w -> w.Common.name = name) all

let find_exn name =
  match find name with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Workloads.Suite.find_exn: %S" name)

let check_all () =
  List.map (fun w -> (w.Common.name, Common.check w)) all

let scenarios ?codec () = List.map (fun w -> Common.scenario ?codec w) all

let resolve ?lookup ?codec name =
  let lookup =
    match lookup with
    | Some f -> f
    | None -> fun n -> Common.scenario ?codec (find_exn n)
  in
  Corpus.Resolve.scenario ~lookup ?codec name
