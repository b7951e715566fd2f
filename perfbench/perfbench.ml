(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload's inputs from the seed, measures for about S
   seconds, checks every output, and prints one JSON object as the
   last line of standard output:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With --trace 0 the metrics are the end-to-end ones (set-up time,
   throughput, median latency, peak RSS); with --trace 1 the run keeps
   spans in memory, reports the per-layer metrics and writes the spans
   to perfbench/out/spans-WORKLOAD-seedN.jsonl. --record-golden
   rewrites the recorded engine results (perfbench/golden/) instead of
   checking against them. *)

let workloads =
  [
    (Engine_matrix.name, Engine_matrix.run);
    (Fused_stream.name, Fused_stream.run);
    (Runtime_exec.name, Runtime_exec.run);
    (Daemon_mix.name, Daemon_mix.run);
  ]

(* The metrics of BENCHMARK.json with their units. An untraced run
   prints exactly the end-to-end ones; a traced run prints exactly the
   per-layer ones, where a layer the workload does not reach reads 0:
   no calls into it, so no time, no work and no counts. *)
let end_to_end =
  [
    ("setup_s", "s"); ("work_per_s", "1/s"); ("p50_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  List.map
    (fun c -> ("core.engine." ^ c ^ ".steps_per_s", "1/s"))
    Engine_matrix.cell_names
  @ List.map
      (fun c -> ("core.engine." ^ c ^ ".words_per_step", "words"))
      Engine_matrix.cell_names
  @ [
      ("sim.events.per_step", "events");
      ("sim_cycle_overhead_pct", "%");
      ("sim_footprint_saving_pct", "%");
      ("eris.asm.assemble_s", "s");
      ("core.scenario.of_program_s", "s");
      ("corpus.gen.build_s", "s");
      ("runtime.run_s", "s");
      ("runtime.words_per_instr", "words");
      ("runtime.traps_per_kinstr", "traps");
      ("runtime.decompressions", "count");
      ("eris.machine.instr_per_s", "1/s");
      ("runtime.vs_machine_x", "x");
      ("fleet.cache.hit_ratio", "ratio");
      ("fleet.engine_runs", "count");
      ("service.requests", "count");
      ("service.p99_ms", "ms");
      ("service.warm.p50_ms", "ms");
      ("service.cold.p50_ms", "ms");
      ("service.cold.p99_ms", "ms");
      ("service.sim.server_p50_ms", "ms");
      ("service.rejections", "count");
      ("service.refused", "count");
      ("trace.overhead.work_per_s", "1/s");
      ("trace.overhead.p50_ms", "ms");
    ]

(* The workload's metrics in the order of [vocab], unreached layers
   filled in when [traced]. A metric outside [vocab], in another unit,
   not a finite number, or an end-to-end metric missing is the
   benchmark's own defect: no result is printed. *)
let complete ~traced vocab (ms : Util.metric list) =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline ("perfbench: " ^ msg);
        exit 1)
      fmt
  in
  List.iter
    (fun (m : Util.metric) ->
      match List.assoc_opt m.name vocab with
      | Some u when u = m.unit_ ->
        if not (Float.is_finite m.value) then
          fail "metric %s is %g" m.name m.value
      | Some u -> fail "metric %s in %s, not %s" m.name m.unit_ u
      | None -> fail "metric %s is not in the manifest" m.name)
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Util.metric) -> m.name = name) ms with
      | Some m -> m
      | None when traced -> Util.m name unit_ 0.0
      | None -> fail "metric %s was not measured" name)
    vocab

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--record-golden]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "--generator" :: rest -> Daemon_mix.generator_main rest
  | _ :: args ->
    let workload = ref None and seed = ref None and seconds = ref None in
    let trace = ref None in
    let rec parse = function
      | [] -> ()
      | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
      | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
      | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
      | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
      | "--record-golden" :: rest ->
        Golden.recording := true;
        parse rest
      | _ -> usage ()
    in
    parse args;
    let run, name, seed, seconds, traced =
      match (!workload, !seed, !seconds, !trace) with
      | Some w, Some seed, Some seconds, Some traced
        when List.mem_assoc w workloads && seed >= 0 && seconds > 0.0 ->
        (List.assoc w workloads, w, seed, seconds, traced)
      | _ -> usage ()
    in
    (* A tighter major heap than the default (space_overhead 120): at
       the default the peak resident set of one engine-matrix run moved
       by a fifth from seed to seed with where in its cycle the major
       collector happened to be; at 60 it moves by a twentieth. *)
    Gc.set { (Gc.get ()) with space_overhead = 60 };
    Util.ensure_out_dir ();
    if traced then Span.enable ();
    let r : Util.result = run ~seed ~seconds ~traced in
    let metrics =
      complete ~traced (if traced then per_layer else end_to_end) r.metrics
    in
    if traced then
      Span.write
        (Filename.concat Util.out_dir
           (Printf.sprintf "spans-%s-seed%d.jsonl" name seed));
    let open Service.Json in
    print_endline
      (to_string
         (Obj
            [
              ("correct", Bool (r.failed = 0));
              ("attempted", Int r.attempted);
              ("failed", Int r.failed);
              ( "metrics",
                Obj
                  (List.map
                     (fun (m : Util.metric) ->
                       ( m.name,
                         Obj [ ("value", Float m.value); ("unit", Str m.unit_) ] ))
                     metrics) );
            ]))
  | [] -> usage ()
