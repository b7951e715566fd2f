(* Tests for the fleet: job keys, the domain pool's ordering and crash
   isolation, the content-addressed cache, and the load-bearing
   guarantee — a parallel cached sweep is byte-identical to a
   sequential uncached one. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Job keys                                                            *)

let job ?codec ?strategy ?mode ?budget ?retention ?profile ?line_size
    ?(scenario = "fir") ?(k = 8) () =
  Fleet.Job.make ?codec ?strategy ?mode ?budget ?retention ?profile ?line_size
    ~scenario ~k ()

let test_key_stable () =
  checks "equal specs equal keys" (Fleet.Job.key (job ()))
    (Fleet.Job.key (job ()));
  let base = Fleet.Job.key (job ()) in
  let variants =
    [
      job ~scenario:"crc32" ();
      job ~k:4 ();
      job ~codec:"lzss" ();
      job ~strategy:(Fleet.Job.Pre_all { lookahead = 2 }) ();
      job ~strategy:(Fleet.Job.Pre_single { lookahead = 2; predictor = "profile" }) ();
      job ~mode:Fleet.Job.Recompress ();
      job ~budget:512 ();
      job ~retention:Fleet.Job.Clock ();
      job ~retention:(Fleet.Job.Loop_aware { weight = 2 }) ();
      job ~retention:(Fleet.Job.Pin_hot { fraction = 0.5 }) ();
      job ~profile:"cortex-m-flash" ();
      job ~profile:"sram-heavy" ();
      job ~line_size:32 ();
      job ~line_size:64 ();
    ]
  in
  List.iter
    (fun j -> checkb "every field feeds the key" true (Fleet.Job.key j <> base))
    variants;
  let keys = List.map Fleet.Job.key variants in
  checki "variant keys distinct"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let contains_sub needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_line_size_in_spec () =
  checkb "canonical carries line_size" true
    (contains_sub "line_size=32" (Fleet.Job.canonical (job ~line_size:32 ())));
  checkb "canonical none by default" true
    (contains_sub "line_size=none" (Fleet.Job.canonical (job ())));
  checkb "describe shows line size" true
    (contains_sub " line=32B" (Fleet.Job.describe (job ~line_size:32 ())));
  checkb "describe silent without it" false
    (contains_sub "line=" (Fleet.Job.describe (job ())));
  (* a line-granular job executes through Lineview and preserves the
     execution cycles of the block-granular run *)
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  let block = Fleet.Job.execute sc (job ()) in
  let line = Fleet.Job.execute sc (job ~line_size:32 ()) in
  checki "exec cycles preserved" block.Core.Metrics.exec_cycles
    line.Core.Metrics.exec_cycles;
  checkb "line run really decompressed" true
    (line.Core.Metrics.demand_decompressions > 0)

let test_key_filesystem_safe () =
  String.iter
    (fun c ->
      checkb "key charset" true
        ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = 'v'))
    (Fleet.Job.key (job ()))

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_order () =
  (* Results come back in submission order whatever the completion
     order; identity mapping makes any misplacement visible. *)
  let xs = List.init 40 Fun.id in
  Fleet.Pool.with_pool ~jobs:4 (fun p ->
      let rs = Fleet.Pool.map p (fun _b x -> x * x) xs in
      checki "arity" 40 (List.length rs);
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> checki "slot matches submission" (i * i) v
          | Error e -> Alcotest.failf "job %d failed: %s" i e)
        rs)

let test_pool_crash_isolation () =
  Fleet.Pool.with_pool ~jobs:3 (fun p ->
      let rs =
        Fleet.Pool.map p
          (fun _b x -> if x mod 2 = 0 then failwith "boom" else x)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> checki "odd survives" i v
          | Error msg ->
            checkb "even crashes, pool survives" true
              (i mod 2 = 0 && String.length msg > 0))
        rs)

let test_pool_fuel () =
  let rs =
    Fleet.Pool.run_sequential ~fuel:100
      (fun b () ->
        for _ = 1 to 1_000_000 do
          Fleet.Pool.tick b
        done)
      [ () ]
  in
  match rs with
  | [ Error msg ] ->
    checkb "fuel message" true
      (String.length msg > 0
      && String.sub msg 0 4 = "fuel")
  | _ -> Alcotest.fail "runaway job was not stopped by fuel"

let test_pool_sequential_matches_parallel () =
  let xs = List.init 25 (fun i -> i - 12) in
  let f _b x = if x < 0 then invalid_arg "neg" else x * 3 in
  let seq = Fleet.Pool.run_sequential f xs in
  let par = Fleet.Pool.with_pool ~jobs:5 (fun p -> Fleet.Pool.map p f xs) in
  checkb "identical outcomes" true (seq = par)

let test_pool_rejects_bad_sizes () =
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Fleet.Pool.create: jobs must be >= 1 (got 0)")
    (fun () -> ignore (Fleet.Pool.create ~jobs:0))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

(* Every field gets a unique value, so a serializer that drops,
   duplicates or swaps any field cannot round-trip. *)
let exhaustive_metrics : Core.Metrics.t =
  {
    total_cycles = 101;
    exec_cycles = 102;
    exception_cycles = 103;
    patch_cycles = 104;
    demand_dec_cycles = 105;
    stall_cycles = 106;
    baseline_cycles = 107;
    exceptions = 108;
    patches = 109;
    demand_decompressions = 110;
    prefetch_decompressions = 111;
    useful_prefetches = 112;
    wasted_prefetches = 113;
    discards = 114;
    evictions = 115;
    budget_overflows = 116;
    dec_thread_busy_cycles = 117;
    comp_thread_busy_cycles = 118;
    energy_nj = 127;
    exec_energy_nj = 128;
    exception_energy_nj = 129;
    patch_energy_nj = 130;
    dec_energy_nj = 131;
    comp_energy_nj = 132;
    ram_static_energy_nj = 133;
    baseline_energy_nj = 134;
    original_bytes = 119;
    compressed_area_bytes = 120;
    peak_decompressed_bytes = 121;
    avg_decompressed_bytes = 122.0625;
    peak_footprint_bytes = 123;
    avg_footprint_bytes = 124.33333333333333;
    trace_length = 125;
    blocks = 126;
  }

let test_cache_roundtrip_every_field () =
  match Fleet.Cache.metrics_of_string
          (Fleet.Cache.metrics_to_string exhaustive_metrics)
  with
  | Ok m ->
    checkb "all 34 fields round-trip (floats bit-exact)" true
      (m = exhaustive_metrics)
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Pins: exact bytes of every serialized form                         *)

(* The key, the cache text, the wire JSON and the registry rows are
   what other processes (and older cache entries) read back, so a
   refactor of how they are produced must leave them byte-identical.
   The jobs cover every strategy, predictor, mode, retention, budget,
   profile and line-size variant at least once. *)
let pinned_jobs =
  Fleet.Job.
    [
      ( job (),
        "v4-0084269e8251ddbfcdf7e0f643390d5c",
        {|{"workload":"fir","codec":"code","k":8,"strategy":"on-demand","mode":"discard","retention":"kedge","profile":"paper-2005"}|}
      );
      ( job ~scenario:"crc32" ~k:1 ~strategy:(Pre_all { lookahead = 2 }) (),
        "v4-9931dd4227b1dfa2d54fd3dad88e6ae4",
        {|{"workload":"crc32","codec":"code","k":1,"strategy":"pre-all","lookahead":2,"mode":"discard","retention":"kedge","profile":"paper-2005"}|}
      );
      ( job ~k:4
          ~strategy:(Pre_single { lookahead = 3; predictor = "first" })
          ~mode:Recompress (),
        "v4-1ca60daabd53d55cb598d1a75e5d409b",
        {|{"workload":"fir","codec":"code","k":4,"strategy":"pre-single","lookahead":3,"predictor":"first","mode":"recompress","retention":"kedge","profile":"paper-2005"}|}
      );
      ( job
          ~strategy:(Pre_single { lookahead = 1; predictor = "last-taken" })
          ~budget:256 (),
        "v4-d56e1942f909c9d6f9bcfde2aebf1daa",
        {|{"workload":"fir","codec":"code","k":8,"strategy":"pre-single","lookahead":1,"predictor":"last-taken","mode":"discard","budget":256,"retention":"kedge","profile":"paper-2005"}|}
      );
      ( job
          ~strategy:(Pre_single { lookahead = 2; predictor = "profile" })
          ~retention:(Loop_aware { weight = 1 }) (),
        "v4-52f5442783b8dd35859f91aab0d92f95",
        {|{"workload":"fir","codec":"code","k":8,"strategy":"pre-single","lookahead":2,"predictor":"profile","mode":"discard","retention":"loop-aware","weight":1,"profile":"paper-2005"}|}
      );
      ( job ~retention:(Loop_aware { weight = 2 }) ~profile:"cortex-m-flash" (),
        "v4-962fc91ed54edf7e381123de72cbaa71",
        {|{"workload":"fir","codec":"code","k":8,"strategy":"on-demand","mode":"discard","retention":"loop-aware","weight":2,"profile":"cortex-m-flash"}|}
      );
      ( job ~retention:Clock ~profile:"sram-heavy" ~budget:64 (),
        "v4-da67890614dd9c29a108275ce6fae309",
        {|{"workload":"fir","codec":"code","k":8,"strategy":"on-demand","mode":"discard","budget":64,"retention":"clock","profile":"sram-heavy"}|}
      );
      ( job ~codec:"lzss" ~retention:(Pin_hot { fraction = 0.5 }) (),
        "v4-a267fe84dece61c209e572bec72cc392",
        {|{"workload":"fir","codec":"lzss","k":8,"strategy":"on-demand","mode":"discard","retention":"pin-hot","fraction":0.5,"profile":"paper-2005"}|}
      );
      ( job ~k:16 ~strategy:(Pre_all { lookahead = 4 }) ~mode:Recompress
          ~retention:(Pin_hot { fraction = 0.1 }) (),
        "v4-dfa29804b09390325cdea8580ad4e1ea",
        {|{"workload":"fir","codec":"code","k":16,"strategy":"pre-all","lookahead":4,"mode":"recompress","retention":"pin-hot","fraction":0.10000000000000001,"profile":"paper-2005"}|}
      );
      ( job ~codec:"bdi-32" ~line_size:32 (),
        "v4-0dfb3f1119e64d8a8a74919520a58079",
        {|{"workload":"fir","codec":"bdi-32","k":8,"strategy":"on-demand","mode":"discard","retention":"kedge","profile":"paper-2005","line_size":32}|}
      );
      ( job ~codec:"cpack-16" ~line_size:16 ~retention:Clock (),
        "v4-202946247a263d65a07e970e597c3b49",
        {|{"workload":"fir","codec":"cpack-16","k":8,"strategy":"on-demand","mode":"discard","retention":"clock","profile":"paper-2005","line_size":16}|}
      );
      ( job ~scenario:"multi:quantum=32,seed=1,jitter=0;fir+crc32"
          ~line_size:64 ~budget:128 (),
        "v4-e7adf7dc2ddf3f0c6362353374733974",
        {|{"workload":"multi:quantum=32,seed=1,jitter=0;fir+crc32","codec":"code","k":8,"strategy":"on-demand","mode":"discard","budget":128,"retention":"kedge","profile":"paper-2005","line_size":64}|}
      );
    ]

let test_pin_job_keys () =
  List.iter
    (fun (j, key, _) -> checks (Fleet.Job.describe j) key (Fleet.Job.key j))
    pinned_jobs

let test_pin_job_json () =
  List.iter
    (fun (j, _, json) ->
      checks (Fleet.Job.describe j) json
        (Service.Json.to_string (Service.Wire.job_to_json j)))
    pinned_jobs

let test_pin_cache_text () =
  checks "cache entry text"
    {|ccomp-fleet-entry 2
total_cycles=101
exec_cycles=102
exception_cycles=103
patch_cycles=104
demand_dec_cycles=105
stall_cycles=106
baseline_cycles=107
exceptions=108
patches=109
demand_decompressions=110
prefetch_decompressions=111
useful_prefetches=112
wasted_prefetches=113
discards=114
evictions=115
budget_overflows=116
dec_thread_busy_cycles=117
comp_thread_busy_cycles=118
energy_nj=127
exec_energy_nj=128
exception_energy_nj=129
patch_energy_nj=130
dec_energy_nj=131
comp_energy_nj=132
ram_static_energy_nj=133
baseline_energy_nj=134
original_bytes=119
compressed_area_bytes=120
peak_decompressed_bytes=121
avg_decompressed_bytes=0x1.e84p+6
peak_footprint_bytes=123
avg_footprint_bytes=0x1.f155555555555p+6
trace_length=125
blocks=126
|}
    (Fleet.Cache.metrics_to_string exhaustive_metrics)

let test_pin_metrics_json () =
  checks "wire metrics"
    ({|{"total_cycles":101,"exec_cycles":102,"exception_cycles":103,"patch_cycles":104,"demand_dec_cycles":105,"stall_cycles":106,"baseline_cycles":107,"exceptions":108,"patches":109,"demand_decompressions":110,"prefetch_decompressions":111,"useful_prefetches":112,"wasted_prefetches":113,"discards":114,"evictions":115,"budget_overflows":116,"dec_thread_busy_cycles":117,"comp_thread_busy_cycles":118,|}
   ^ {|"energy_nj":127,"exec_energy_nj":128,"exception_energy_nj":129,"patch_energy_nj":130,"dec_energy_nj":131,"comp_energy_nj":132,"ram_static_energy_nj":133,"baseline_energy_nj":134,|}
   ^ {|"original_bytes":119,"compressed_area_bytes":120,"peak_decompressed_bytes":121,"avg_decompressed_bytes":122.0625,"peak_footprint_bytes":123,"avg_footprint_bytes":124.33333333333333,"trace_length":125,"blocks":126,|}
   ^ {|"overhead_ratio":-0.056074766355140193,"peak_memory_saving":-0.033613445378151363,"avg_memory_saving":-0.04481792717086841,"energy_overhead_ratio":-0.052238805970149294}|}
    )
    (Service.Json.to_string (Service.Wire.metrics_to_json exhaustive_metrics))

let test_pin_registry () =
  let r = Sim.Metrics.create () in
  Core.Metrics.register ~labels:[ ("w", "x") ] r exhaustive_metrics;
  checks "registry rows"
    {|== m ==
metric                          value
-------------------------------------
total_cycles{w="x"}               101
exec_cycles{w="x"}                102
exception_cycles{w="x"}           103
patch_cycles{w="x"}               104
demand_dec_cycles{w="x"}          105
stall_cycles{w="x"}               106
baseline_cycles{w="x"}            107
exceptions{w="x"}                 108
patches{w="x"}                    109
demand_decompressions{w="x"}      110
prefetch_decompressions{w="x"}    111
useful_prefetches{w="x"}          112
wasted_prefetches{w="x"}          113
discards{w="x"}                   114
evictions{w="x"}                  115
budget_overflows{w="x"}           116
dec_thread_busy_cycles{w="x"}     117
comp_thread_busy_cycles{w="x"}    118
energy_nj{w="x"}                  127
exec_energy_nj{w="x"}             128
exception_energy_nj{w="x"}        129
patch_energy_nj{w="x"}            130
dec_energy_nj{w="x"}              131
comp_energy_nj{w="x"}             132
ram_static_energy_nj{w="x"}       133
baseline_energy_nj{w="x"}         134
original_bytes{w="x"}             119
compressed_area_bytes{w="x"}      120
peak_decompressed_bytes{w="x"}    121
avg_decompressed_bytes{w="x"}     122
peak_footprint_bytes{w="x"}       123
avg_footprint_bytes{w="x"}        124
trace_length{w="x"}               125
blocks{w="x"}                     126
|}
    (Report.Table.render (Sim.Metrics.to_table ~title:"m" r))

let entry_file dir =
  match
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".metrics")
  with
  | [ f ] -> Filename.concat dir f
  | fs -> Alcotest.failf "expected exactly one entry, got %d" (List.length fs)

let test_cache_store_find () =
  let dir = temp_dir "ccomp-cache" in
  let c = Fleet.Cache.open_dir dir in
  let key = Fleet.Job.key (job ()) in
  checkb "empty cache misses" true (Fleet.Cache.find c key = None);
  Fleet.Cache.store c key exhaustive_metrics;
  checkb "stored entry hits" true
    (Fleet.Cache.find c key = Some exhaustive_metrics);
  checkb "other key still misses" true
    (Fleet.Cache.find c (Fleet.Job.key (job ~k:2 ())) = None);
  checkb "no tmp litter" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".tmp"))
       (Sys.readdir dir))

let test_cache_corrupt_entry_is_miss () =
  let dir = temp_dir "ccomp-cache" in
  let c = Fleet.Cache.open_dir dir in
  let key = Fleet.Job.key (job ()) in
  Fleet.Cache.store c key exhaustive_metrics;
  let path = entry_file dir in
  List.iter
    (fun garbage ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc garbage);
      checkb "corrupt entry is a miss, not an exception" true
        (Fleet.Cache.find c key = None))
    [
      "";  (* truncated to nothing *)
      "total_cycles=1\n";  (* no header *)
      "ccomp-fleet-entry 2\ntotal_cycles=banana\n";  (* bad value *)
      "ccomp-fleet-entry 2\ntotal_cycles=1\n";  (* missing fields *)
      Fleet.Cache.metrics_to_string exhaustive_metrics ^ "intruder=9\n";
      (* unknown extra field *)
      String.concat "\n"
        [ "ccomp-fleet-entry 2"; "total_cycles=1"; "total_cycles=2" ];
      (* duplicate field *)
    ];
  (* and a miss re-stores cleanly *)
  Fleet.Cache.store c key exhaustive_metrics;
  checkb "rewrite after corruption" true
    (Fleet.Cache.find c key = Some exhaustive_metrics)

let test_cache_version_mismatch_is_miss () =
  let dir = temp_dir "ccomp-cache" in
  let c = Fleet.Cache.open_dir dir in
  let key = Fleet.Job.key (job ()) in
  Fleet.Cache.store c key exhaustive_metrics;
  let path = entry_file dir in
  let bumped =
    Printf.sprintf "ccomp-fleet-entry %d" (Fleet.Cache.entry_version + 1)
  in
  let body = In_channel.with_open_text path In_channel.input_all in
  let rewritten =
    match String.index_opt body '\n' with
    | Some i ->
      bumped ^ String.sub body i (String.length body - i)
    | None -> Alcotest.fail "entry has no header line"
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc rewritten);
  checkb "version-bumped entry is ignored" true (Fleet.Cache.find c key = None)

(* A complete, well-formed entry from the previous on-disk format
   (version 1: no energy fields) must read as a miss — never a crash,
   never a stale hit with zeroed dimensions. *)
let test_cache_previous_version_entry_is_miss () =
  let dir = temp_dir "ccomp-cache" in
  let c = Fleet.Cache.open_dir dir in
  let key = Fleet.Job.key (job ()) in
  let v1_entry =
    String.concat "\n"
      [
        "ccomp-fleet-entry 1";
        "total_cycles=101";
        "exec_cycles=102";
        "exception_cycles=103";
        "patch_cycles=104";
        "demand_dec_cycles=105";
        "stall_cycles=106";
        "baseline_cycles=107";
        "exceptions=108";
        "patches=109";
        "demand_decompressions=110";
        "prefetch_decompressions=111";
        "useful_prefetches=112";
        "wasted_prefetches=113";
        "discards=114";
        "evictions=115";
        "budget_overflows=116";
        "dec_thread_busy_cycles=117";
        "comp_thread_busy_cycles=118";
        "original_bytes=119";
        "compressed_area_bytes=120";
        "peak_decompressed_bytes=121";
        "avg_decompressed_bytes=0x1.e84p+6";
        "peak_footprint_bytes=123";
        "avg_footprint_bytes=0x1.f155555555555p+6";
        "trace_length=125";
        "blocks=126";
        "";
      ]
  in
  Out_channel.with_open_text
    (Filename.concat dir (key ^ ".metrics"))
    (fun oc -> Out_channel.output_string oc v1_entry);
  checkb "old-format entry is a miss" true (Fleet.Cache.find c key = None);
  (* and the miss re-stores in the current format *)
  Fleet.Cache.store c key exhaustive_metrics;
  checkb "upgraded in place" true
    (Fleet.Cache.find c key = Some exhaustive_metrics)


let test_cache_stats_and_gc () =
  let dir = temp_dir "ccomp-cache" in
  let c = Fleet.Cache.open_dir dir in
  let empty = Fleet.Cache.stats c in
  checki "empty entries" 0 empty.Fleet.Cache.entries;
  checki "empty bytes" 0 empty.Fleet.Cache.bytes;
  let keys = List.map (fun k -> Fleet.Job.key (job ~k ())) [ 1; 2; 4 ] in
  List.iter (fun key -> Fleet.Cache.store c key exhaustive_metrics) keys;
  (* pin distinct mtimes so "oldest first" is deterministic *)
  let now = Unix.gettimeofday () in
  List.iteri
    (fun i key ->
      let path = Filename.concat dir (key ^ ".metrics") in
      let t = now -. float_of_int (100 - (10 * i)) in
      Unix.utimes path t t)
    keys;
  let full = Fleet.Cache.stats c in
  checki "three entries" 3 full.Fleet.Cache.entries;
  checkb "bytes counted" true (full.Fleet.Cache.bytes > 0);
  let per_entry = full.Fleet.Cache.bytes / 3 in
  (* keep room for exactly one entry: the two oldest must go *)
  let removed = Fleet.Cache.gc c ~max_bytes:per_entry in
  checki "evicted oldest two" 2 removed.Fleet.Cache.entries;
  checki "evicted bytes" (2 * per_entry) removed.Fleet.Cache.bytes;
  (match keys with
  | [ oldest; middle; newest ] ->
    checkb "oldest gone" true (Fleet.Cache.find c oldest = None);
    checkb "middle gone" true (Fleet.Cache.find c middle = None);
    checkb "newest survives" true
      (Fleet.Cache.find c newest = Some exhaustive_metrics)
  | _ -> assert false);
  checki "stats agree after gc" 1 (Fleet.Cache.stats c).Fleet.Cache.entries;
  (* gc to zero empties the cache; negative is a programming error *)
  let removed = Fleet.Cache.gc c ~max_bytes:0 in
  checki "emptied" 1 removed.Fleet.Cache.entries;
  checki "nothing left" 0 (Fleet.Cache.stats c).Fleet.Cache.entries;
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Fleet.Cache.gc: max_bytes must be >= 0 (got -1)")
    (fun () -> ignore (Fleet.Cache.gc c ~max_bytes:(-1)))

(* ------------------------------------------------------------------ *)
(* Pool cancellation                                                   *)

let test_pool_cancel_before_start () =
  let rs =
    Fleet.Pool.run_sequential
      ~cancel:(fun () -> true)
      (fun _b x -> x)
      [ 1; 2; 3 ]
  in
  List.iter
    (fun r -> checkb "cancelled before start" true (r = Error "cancelled"))
    rs

let test_pool_cancel_mid_run () =
  let ticks = Atomic.make 0 in
  let rs =
    Fleet.Pool.run_sequential
      ~cancel:(fun () -> Atomic.get ticks > 5_000)
      (fun b () ->
        for _ = 1 to 10_000_000 do
          Atomic.incr ticks;
          Fleet.Pool.tick b
        done)
      [ () ]
  in
  checkb "aborted by the cancel hook" true (rs = [ Error "cancelled" ]);
  checkb "stopped promptly, not at the end" true
    (Atomic.get ticks < 10_000_000)

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)

let resolve ~scenario ~codec =
  ignore codec;
  Experiments.Util.scenario scenario

(* Same sweep, different device profiles: the profile is part of the
   content key, so warm runs under another profile must never be
   served from the first profile's entries. *)
let test_cache_profiles_never_share_entries () =
  let dir = temp_dir "ccomp-cache" in
  let cache = Fleet.Cache.open_dir dir in
  let sweep profile registry =
    Fleet.Sweep.run ~cache ~registry ~resolve
      [ job ~profile ~scenario:"fir" ~k:2 () ]
  in
  let paper_reg = Sim.Metrics.create () in
  let _ = sweep "paper-2005" paper_reg in
  let value reg name = Sim.Metrics.value (Sim.Metrics.counter reg name) in
  checki "cold paper-2005 run misses" 1 (value paper_reg "fleet_cache_misses");
  (* Warm under a *different* profile: must miss and run the engine. *)
  let flash_reg = Sim.Metrics.create () in
  let outcomes = sweep "cortex-m-flash" flash_reg in
  checki "other profile is a miss" 1 (value flash_reg "fleet_cache_misses");
  checki "other profile runs the engine" 1
    (value flash_reg "fleet_engine_runs");
  (match outcomes with
  | [ { Fleet.Sweep.result = Ok m; cached = false; _ } ] ->
    checkb "energized profile actually charges energy" true
      (m.Core.Metrics.energy_nj > 0)
  | _ -> Alcotest.fail "expected one uncached Ok outcome");
  (* Warm under the same profile: pure hit. *)
  let warm_reg = Sim.Metrics.create () in
  let _ = sweep "cortex-m-flash" warm_reg in
  checki "same profile hits" 1 (value warm_reg "fleet_cache_hits");
  checki "same profile runs nothing" 0 (value warm_reg "fleet_engine_runs")

let test_sweep_normalize_ks () =
  checkb "sorted and deduped" true
    (Fleet.Sweep.normalize_ks [ 8; 2; 2; 32; 8; 1 ] = [ 1; 2; 8; 32 ]);
  checkb "already-normal input unchanged" true
    (Fleet.Sweep.normalize_ks [ 1; 2; 4 ] = [ 1; 2; 4 ]);
  checkb "empty stays empty" true (Fleet.Sweep.normalize_ks [] = [])

let test_sweep_matrix_order () =
  let jobs =
    Fleet.Sweep.matrix ~scenarios:[ "a"; "b" ] ~ks:[ 1; 2 ] ()
  in
  Alcotest.check
    Alcotest.(list (pair string int))
    "scenarios outer, ks inner"
    [ ("a", 1); ("a", 2); ("b", 1); ("b", 2) ]
    (List.map (fun (j : Fleet.Job.t) -> (j.scenario, j.k)) jobs)

let test_sweep_matrix_line_sizes () =
  let jobs =
    Fleet.Sweep.matrix ~scenarios:[ "a" ] ~ks:[ 1 ]
      ~line_sizes:[ None; Some 16; Some 64 ] ()
  in
  Alcotest.check
    Alcotest.(list (option int))
    "line sizes innermost"
    [ None; Some 16; Some 64 ]
    (List.map (fun (j : Fleet.Job.t) -> j.line_size) jobs);
  checkb "default matrix has no line dimension" true
    (List.for_all
       (fun (j : Fleet.Job.t) -> j.line_size = None)
       (Fleet.Sweep.matrix ~scenarios:[ "a" ] ~ks:[ 1 ] ()))

let test_sweep_shard () =
  let xs = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let shards =
    List.map (fun i -> Fleet.Sweep.shard ~shards:3 ~index:i xs) [ 0; 1; 2 ]
  in
  checkb "shards partition the list" true
    (List.sort compare (List.concat shards) = xs);
  checkb "round robin" true (List.nth shards 0 = [ 1; 4; 7 ]);
  Alcotest.check_raises "bad index"
    (Invalid_argument "Fleet.Sweep.shard: index 3 not in [0, 3)") (fun () ->
      ignore (Fleet.Sweep.shard ~shards:3 ~index:3 xs))

let test_sweep_dedup_and_counters () =
  let registry = Sim.Metrics.create () in
  let spec = job ~scenario:"fir" ~k:2 () in
  let outcomes =
    Fleet.Sweep.run ~jobs:2 ~registry ~resolve [ spec; spec; spec ]
  in
  let value name = Sim.Metrics.value (Sim.Metrics.counter registry name) in
  checki "three submitted" 3 (value "fleet_jobs_submitted");
  checki "one engine run serves all three" 1 (value "fleet_engine_runs");
  checki "all completed" 3 (value "fleet_jobs_completed");
  checki "no errors" 0 (value "fleet_jobs_errored");
  match List.map (fun (o : Fleet.Sweep.outcome) -> o.result) outcomes with
  | [ Ok a; Ok b; Ok c ] ->
    checkb "fanned-out results identical" true (a = b && b = c)
  | _ -> Alcotest.fail "expected three Ok results"

let test_sweep_bad_scenario_is_error () =
  let outcomes =
    Fleet.Sweep.run ~resolve [ job ~scenario:"no-such-workload" () ]
  in
  match outcomes with
  | [ { result = Error msg; cached = false; _ } ] ->
    checkb "resolve failure captured" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected one Error outcome"

let test_sweep_progress_jsonl () =
  let lines = ref [] in
  let _ =
    Fleet.Sweep.run ~jobs:2
      ~progress:(fun l -> lines := l :: !lines)
      ~resolve
      [ job ~scenario:"fir" ~k:2 (); job ~scenario:"crc32" ~k:2 () ]
  in
  checki "one line per job" 2 (List.length !lines);
  List.iter
    (fun l ->
      checkb "looks like a JSONL object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      let contains needle =
        let nl = String.length needle and ll = String.length l in
        let rec go i =
          i + nl <= ll && (String.sub l i nl = needle || go (i + 1))
        in
        go 0
      in
      checkb "tagged" true (contains "fleet_job"))
    !lines

(* ------------------------------------------------------------------ *)
(* The determinism guarantee (acceptance criterion)                    *)

let render_experiment id =
  match Experiments.Registry.find id with
  | Some e -> Report.Table.render (e.runner ())
  | None -> Alcotest.failf "unknown experiment %s" id

let test_determinism id () =
  (* Reference: sequential, uncached. *)
  Experiments.Util.configure_fleet ();
  let reference = render_experiment id in
  let dir = temp_dir "ccomp-fleet-det" in
  let cache = Fleet.Cache.open_dir dir in
  Fun.protect
    ~finally:(fun () -> Experiments.Util.configure_fleet ())
    (fun () ->
      (* Parallel, cold cache. *)
      let cold_registry = Sim.Metrics.create () in
      Experiments.Util.configure_fleet ~jobs:3 ~cache ~registry:cold_registry
        ();
      checks (id ^ " parallel cold-cache output is byte-identical") reference
        (render_experiment id);
      (* Parallel, warm cache: same bytes, zero engine runs. *)
      let warm_registry = Sim.Metrics.create () in
      Experiments.Util.configure_fleet ~jobs:3 ~cache ~registry:warm_registry
        ();
      checks (id ^ " warm-cache output is byte-identical") reference
        (render_experiment id);
      let value name =
        Sim.Metrics.value (Sim.Metrics.counter warm_registry name)
      in
      checki (id ^ " warm run does zero engine runs") 0
        (value "fleet_engine_runs");
      checkb (id ^ " warm run is all cache hits") true
        (value "fleet_cache_hits" > 0 && value "fleet_cache_misses" = 0))

let () =
  Alcotest.run "fleet"
    [
      ( "job",
        [
          Alcotest.test_case "key stability" `Quick test_key_stable;
          Alcotest.test_case "key charset" `Quick test_key_filesystem_safe;
          Alcotest.test_case "line size in the spec" `Quick
            test_line_size_in_spec;
        ] );
      ( "pins",
        [
          Alcotest.test_case "job keys" `Quick test_pin_job_keys;
          Alcotest.test_case "wire job json" `Quick test_pin_job_json;
          Alcotest.test_case "cache entry text" `Quick test_pin_cache_text;
          Alcotest.test_case "wire metrics json" `Quick test_pin_metrics_json;
          Alcotest.test_case "registry rows" `Quick test_pin_registry;
        ] );
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick test_pool_order;
          Alcotest.test_case "crash isolation" `Quick
            test_pool_crash_isolation;
          Alcotest.test_case "fuel" `Quick test_pool_fuel;
          Alcotest.test_case "sequential = parallel" `Quick
            test_pool_sequential_matches_parallel;
          Alcotest.test_case "bad sizes" `Quick test_pool_rejects_bad_sizes;
          Alcotest.test_case "cancel before start" `Quick
            test_pool_cancel_before_start;
          Alcotest.test_case "cancel mid-run" `Quick test_pool_cancel_mid_run;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round-trip every field" `Quick
            test_cache_roundtrip_every_field;
          Alcotest.test_case "store/find" `Quick test_cache_store_find;
          Alcotest.test_case "corrupt entry = miss" `Quick
            test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "version mismatch = miss" `Quick
            test_cache_version_mismatch_is_miss;
          Alcotest.test_case "previous-version entry = miss" `Quick
            test_cache_previous_version_entry_is_miss;
          Alcotest.test_case "profiles never share entries" `Quick
            test_cache_profiles_never_share_entries;
          Alcotest.test_case "stats + gc" `Quick test_cache_stats_and_gc;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "normalize ks" `Quick test_sweep_normalize_ks;
          Alcotest.test_case "matrix order" `Quick test_sweep_matrix_order;
          Alcotest.test_case "matrix line sizes" `Quick
            test_sweep_matrix_line_sizes;
          Alcotest.test_case "shard" `Quick test_sweep_shard;
          Alcotest.test_case "dedup + counters" `Quick
            test_sweep_dedup_and_counters;
          Alcotest.test_case "bad scenario" `Quick
            test_sweep_bad_scenario_is_error;
          Alcotest.test_case "progress jsonl" `Quick test_sweep_progress_jsonl;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "E6 parallel+cache = sequential" `Slow
            (test_determinism "E6");
          Alcotest.test_case "E16 parallel+cache = sequential" `Slow
            (test_determinism "E16");
          Alcotest.test_case "E17 parallel+cache = sequential" `Slow
            (test_determinism "E17");
        ] );
    ]
