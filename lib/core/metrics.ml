type t = {
  total_cycles : int;
  exec_cycles : int;
  exception_cycles : int;
  patch_cycles : int;
  demand_dec_cycles : int;
  stall_cycles : int;
  baseline_cycles : int;
  exceptions : int;
  patches : int;
  demand_decompressions : int;
  prefetch_decompressions : int;
  useful_prefetches : int;
  wasted_prefetches : int;
  discards : int;
  evictions : int;
  budget_overflows : int;
  dec_thread_busy_cycles : int;
  comp_thread_busy_cycles : int;
  energy_nj : int;
  exec_energy_nj : int;
  exception_energy_nj : int;
  patch_energy_nj : int;
  dec_energy_nj : int;
  comp_energy_nj : int;
  ram_static_energy_nj : int;
  baseline_energy_nj : int;
  original_bytes : int;
  compressed_area_bytes : int;
  peak_decompressed_bytes : int;
  avg_decompressed_bytes : float;
  peak_footprint_bytes : int;
  avg_footprint_bytes : float;
  trace_length : int;
  blocks : int;
}

type _ kind = Int : int kind | Float : float kind
type field = Field : string * 'a kind * (t -> 'a) -> field

(* Declaration order: every serialized form (cache entry, wire JSON,
   registry rows) lists the fields in this order. *)
let fields =
  let int name get = Field (name, Int, get)
  and float name get = Field (name, Float, get) in
  [
    int "total_cycles" (fun m -> m.total_cycles);
    int "exec_cycles" (fun m -> m.exec_cycles);
    int "exception_cycles" (fun m -> m.exception_cycles);
    int "patch_cycles" (fun m -> m.patch_cycles);
    int "demand_dec_cycles" (fun m -> m.demand_dec_cycles);
    int "stall_cycles" (fun m -> m.stall_cycles);
    int "baseline_cycles" (fun m -> m.baseline_cycles);
    int "exceptions" (fun m -> m.exceptions);
    int "patches" (fun m -> m.patches);
    int "demand_decompressions" (fun m -> m.demand_decompressions);
    int "prefetch_decompressions" (fun m -> m.prefetch_decompressions);
    int "useful_prefetches" (fun m -> m.useful_prefetches);
    int "wasted_prefetches" (fun m -> m.wasted_prefetches);
    int "discards" (fun m -> m.discards);
    int "evictions" (fun m -> m.evictions);
    int "budget_overflows" (fun m -> m.budget_overflows);
    int "dec_thread_busy_cycles" (fun m -> m.dec_thread_busy_cycles);
    int "comp_thread_busy_cycles" (fun m -> m.comp_thread_busy_cycles);
    int "energy_nj" (fun m -> m.energy_nj);
    int "exec_energy_nj" (fun m -> m.exec_energy_nj);
    int "exception_energy_nj" (fun m -> m.exception_energy_nj);
    int "patch_energy_nj" (fun m -> m.patch_energy_nj);
    int "dec_energy_nj" (fun m -> m.dec_energy_nj);
    int "comp_energy_nj" (fun m -> m.comp_energy_nj);
    int "ram_static_energy_nj" (fun m -> m.ram_static_energy_nj);
    int "baseline_energy_nj" (fun m -> m.baseline_energy_nj);
    int "original_bytes" (fun m -> m.original_bytes);
    int "compressed_area_bytes" (fun m -> m.compressed_area_bytes);
    int "peak_decompressed_bytes" (fun m -> m.peak_decompressed_bytes);
    float "avg_decompressed_bytes" (fun m -> m.avg_decompressed_bytes);
    int "peak_footprint_bytes" (fun m -> m.peak_footprint_bytes);
    float "avg_footprint_bytes" (fun m -> m.avg_footprint_bytes);
    int "trace_length" (fun m -> m.trace_length);
    int "blocks" (fun m -> m.blocks);
  ]

type reader = { read : 'a. string -> 'a kind -> 'a }

let of_reader { read } =
  let int name = read name Int and float name = read name Float in
  {
    total_cycles = int "total_cycles";
    exec_cycles = int "exec_cycles";
    exception_cycles = int "exception_cycles";
    patch_cycles = int "patch_cycles";
    demand_dec_cycles = int "demand_dec_cycles";
    stall_cycles = int "stall_cycles";
    baseline_cycles = int "baseline_cycles";
    exceptions = int "exceptions";
    patches = int "patches";
    demand_decompressions = int "demand_decompressions";
    prefetch_decompressions = int "prefetch_decompressions";
    useful_prefetches = int "useful_prefetches";
    wasted_prefetches = int "wasted_prefetches";
    discards = int "discards";
    evictions = int "evictions";
    budget_overflows = int "budget_overflows";
    dec_thread_busy_cycles = int "dec_thread_busy_cycles";
    comp_thread_busy_cycles = int "comp_thread_busy_cycles";
    energy_nj = int "energy_nj";
    exec_energy_nj = int "exec_energy_nj";
    exception_energy_nj = int "exception_energy_nj";
    patch_energy_nj = int "patch_energy_nj";
    dec_energy_nj = int "dec_energy_nj";
    comp_energy_nj = int "comp_energy_nj";
    ram_static_energy_nj = int "ram_static_energy_nj";
    baseline_energy_nj = int "baseline_energy_nj";
    original_bytes = int "original_bytes";
    compressed_area_bytes = int "compressed_area_bytes";
    peak_decompressed_bytes = int "peak_decompressed_bytes";
    avg_decompressed_bytes = float "avg_decompressed_bytes";
    peak_footprint_bytes = int "peak_footprint_bytes";
    avg_footprint_bytes = float "avg_footprint_bytes";
    trace_length = int "trace_length";
    blocks = int "blocks";
  }

let overhead_ratio t =
  if t.baseline_cycles = 0 then 0.0
  else
    (float_of_int t.total_cycles /. float_of_int t.baseline_cycles) -. 1.0

let energy_overhead_ratio t =
  if t.baseline_energy_nj = 0 then 0.0
  else
    (float_of_int t.energy_nj /. float_of_int t.baseline_energy_nj) -. 1.0

let peak_memory_saving t =
  if t.original_bytes = 0 then 0.0
  else
    1.0 -. (float_of_int t.peak_footprint_bytes /. float_of_int t.original_bytes)

let avg_memory_saving t =
  if t.original_bytes = 0 then 0.0
  else 1.0 -. (t.avg_footprint_bytes /. float_of_int t.original_bytes)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>cycles: %d (baseline %d, overhead %.1f%%)@,\
     \  exec %d, exceptions %d, patches %d, demand-dec %d, stalls %d@,\
     events: %d exceptions, %d patches, %d demand / %d prefetch \
     decompressions (%d useful, %d wasted), %d discards, %d evictions, %d \
     overflows@,\
     threads: dec busy %d, comp busy %d@,\
     energy: %dnJ (baseline %dnJ, overhead %.1f%%)@,\
     \  exec %d, exceptions %d, patches %d, dec %d, comp %d, ram-static \
     %dnJ@,\
     memory: original %dB, compressed area %dB, decompressed peak %dB (avg \
     %.1fB)@,\
     \  footprint peak %dB (saving %.1f%%), avg %.1fB (saving %.1f%%)@]"
    t.total_cycles t.baseline_cycles
    (100.0 *. overhead_ratio t)
    t.exec_cycles t.exception_cycles t.patch_cycles t.demand_dec_cycles
    t.stall_cycles t.exceptions t.patches t.demand_decompressions
    t.prefetch_decompressions t.useful_prefetches t.wasted_prefetches
    t.discards t.evictions t.budget_overflows t.dec_thread_busy_cycles
    t.comp_thread_busy_cycles t.energy_nj t.baseline_energy_nj
    (100.0 *. energy_overhead_ratio t)
    t.exec_energy_nj t.exception_energy_nj t.patch_energy_nj t.dec_energy_nj
    t.comp_energy_nj t.ram_static_energy_nj t.original_bytes
    t.compressed_area_bytes
    t.peak_decompressed_bytes t.avg_decompressed_bytes t.peak_footprint_bytes
    (100.0 *. peak_memory_saving t)
    t.avg_footprint_bytes
    (100.0 *. avg_memory_saving t)

let register ?(labels = []) registry t =
  List.iter
    (fun (Field (name, kind, get)) ->
      let v : int =
        match kind with Int -> get t | Float -> int_of_float (get t)
      in
      Sim.Metrics.set (Sim.Metrics.counter registry ~labels name) v)
    fields

let pp_brief ppf t =
  Format.fprintf ppf "overhead %.1f%%, peak saving %.1f%%, avg saving %.1f%%"
    (100.0 *. overhead_ratio t)
    (100.0 *. peak_memory_saving t)
    (100.0 *. avg_memory_saving t)
