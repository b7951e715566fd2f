(* The engine half of the benchmark, shared by engine-matrix and
   fused-stream: a fixed list of (program, policy cell) jobs, each one
   Core.Scenario.run, replayed in whole passes until the run's time is
   up, then checked.

   Host rates cover every job. The exact counters (minor words and
   events per step) and the simulated cycle and footprint figures
   cover only the seed-independent programs, so they repeat
   identically on every run whatever the seed. *)

type job = {
  program : string;
  seeded : bool;  (** the input depends on the seed *)
  cell : string;
  sc : Core.Scenario.t;
  policy : Core.Policy.t;
  steps : int;
}

let job ~program ~seeded ~cell sc policy =
  { program; seeded; cell; sc; policy; steps = Array.length sc.Core.Scenario.trace }

let key j = j.program ^ "|" ^ j.cell

(* What one timed phase measured. Each job ran once per pass; its time
   comes from its passes by [Util.job_time]. *)
type phase = {
  runs : int;
  times : (string, float list) Hashtbl.t;  (** key -> seconds, every run *)
  words : (string, int) Hashtbl.t;  (** key -> minor words, traced only *)
  results : (string, Core.Metrics.t) Hashtbl.t;  (** key -> last metrics *)
}

let job_s p j = Util.job_time (Hashtbl.find p.times (key j))

(* Steps per second over [jobs], each at its [Util.job_time]. *)
let work_per_s p jobs =
  float_of_int (Util.sum_int (fun (j : job) -> j.steps) jobs)
  /. List.fold_left (fun acc j -> acc +. job_s p j) 0.0 jobs

let unseeded jobs = List.filter (fun j -> not j.seeded) jobs

(* Median latency over the seed-independent jobs only, so that the
   seed cannot move which job sits at the median. *)
let p50_ms p jobs = 1000.0 *. Util.median (List.map (job_s p) (unseeded jobs))

(* Runs whole passes over [jobs] until [seconds] have gone by (at least
   one pass). With [traced], every run sits in a span named after its
   cell and its minor-heap allocation is counted. *)
let timed ~traced ~seconds jobs =
  Span.with_ "perfbench.timed" @@ fun () ->
  let p =
    {
      runs = 0;
      times = Hashtbl.create 64;
      words = Hashtbl.create 64;
      results = Hashtbl.create 64;
    }
  in
  let runs = ref 0 in
  let deadline = Util.now () +. seconds in
  while !runs = 0 || Util.now () < deadline do
    List.iter
      (fun j ->
        let t0 = Util.now () in
        let m =
          if traced then
            Span.with_ ("core.engine." ^ j.cell) (fun () ->
                let m, w =
                  Util.minor_words (fun () -> Core.Scenario.run j.sc j.policy)
                in
                Hashtbl.replace p.words (key j) w;
                m)
          else Core.Scenario.run j.sc j.policy
        in
        let dt = Util.now () -. t0 in
        incr runs;
        Hashtbl.replace p.times (key j)
          (dt :: Option.value ~default:[] (Hashtbl.find_opt p.times (key j)));
        Hashtbl.replace p.results (key j) m)
      jobs
  done;
  { p with runs = !runs }

(* Output checks, after the timed phase: every job is replayed once
   with a charge log (which also takes the engine off its fused path)
   and, when traced, a counting sink. The per-source cycle charges must
   sum to total_cycles, the replay must agree with the timed run, and
   the metrics must equal the recorded ones where recorded. Returns the
   events counted over the seed-independent jobs. *)
let check ~golden ~seed ~traced c p jobs =
  Span.with_ "perfbench.check" @@ fun () ->
  let events = ref 0 in
  List.iter
    (fun j ->
      let charged = ref 0 in
      let counters = Sim.Events.counters () in
      let sink = if traced then Some (Sim.Events.counting counters) else None in
      let m =
        Core.Scenario.run
          ~charge_log:(fun _ v -> charged := !charged + v.Sim.Cost.cycles)
          ?sink j.sc j.policy
      in
      Util.check c (!charged = m.total_cycles)
        "%s: cycle charges sum to %d, total_cycles %d" (key j) !charged
        m.total_cycles;
      (match Hashtbl.find_opt p.results (key j) with
      | Some timed ->
        Util.check c
          (Golden.fingerprint timed = Golden.fingerprint m)
          "%s: timed run and checked replay disagree" (key j)
      | None -> Util.check c false "%s: never ran" (key j));
      if (not j.seeded) || seed = Util.default_seed then
        Golden.check golden c ~key:(key j) m;
      if not j.seeded then events := !events + Sim.Events.total counters)
    jobs;
  !events

(* Simulated cycles over the no-compression baseline, and the mean
   average-footprint saving, over the seed-independent jobs. *)
let sim_metrics p jobs =
  let ms =
    List.filter_map (fun j -> Hashtbl.find_opt p.results (key j)) (unseeded jobs)
  in
  let total = Util.sum_int (fun (m : Core.Metrics.t) -> m.total_cycles) ms in
  let base = Util.sum_int (fun (m : Core.Metrics.t) -> m.baseline_cycles) ms in
  let saving =
    List.fold_left (fun acc m -> acc +. Core.Metrics.avg_memory_saving m) 0.0 ms
    /. float_of_int (List.length ms)
  in
  [
    Util.m "sim_cycle_overhead_pct" "%"
      (100.0 *. ((float_of_int total /. float_of_int base) -. 1.0));
    Util.m "sim_footprint_saving_pct" "%" (100.0 *. saving);
  ]

(* Per-cell host rate over every job, and exact minor words per step
   over the seed-independent jobs. *)
let cell_metrics p jobs cells =
  List.concat_map
    (fun cell ->
      let mine = List.filter (fun j -> j.cell = cell) (unseeded jobs) in
      let words = Util.sum_int (fun j -> Hashtbl.find p.words (key j)) mine in
      let steps = Util.sum_int (fun (j : job) -> j.steps) mine in
      [
        Util.m
          (Printf.sprintf "core.engine.%s.steps_per_s" cell)
          "1/s"
          (work_per_s p (List.filter (fun j -> j.cell = cell) jobs));
        Util.m
          (Printf.sprintf "core.engine.%s.words_per_step" cell)
          "words"
          (float_of_int words /. float_of_int steps);
      ])
    cells

let events_per_step events jobs =
  Util.m "sim.events.per_step" "events"
    (float_of_int events
    /. float_of_int (Util.sum_int (fun (j : job) -> j.steps) (unseeded jobs)))

let setup_reps = 5

(* One engine workload end to end: set up [setup_reps] times, time
   (half untraced and half traced when [traced], the difference being
   the tracing overhead), check, and report. [layers] adds per-layer
   metrics read from the set-up spans. *)
let run_workload ~name ~setup ~cells ~layers ~seed ~seconds ~traced =
  let c = Util.checks () in
  let golden = Golden.load name in
  let jobs, setup_s = Util.repeat_setup ~reps:setup_reps (fun () -> setup seed) in
  let main, overhead =
    if not traced then (timed ~traced:false ~seconds jobs, [])
    else begin
      let plain = timed ~traced:false ~seconds:(seconds /. 2.0) jobs in
      let p = timed ~traced:true ~seconds:(seconds /. 2.0) jobs in
      ( p,
        [
          Util.m "trace.overhead.work_per_s" "1/s" (work_per_s p jobs -. work_per_s plain jobs);
          Util.m "trace.overhead.p50_ms" "ms" (p50_ms p jobs -. p50_ms plain jobs);
        ] )
    end
  in
  let events = check ~golden ~seed ~traced c main jobs in
  Golden.save golden;
  let metrics =
    if not traced then
      [
        Util.m "setup_s" "s" setup_s;
        Util.m "work_per_s" "1/s" (work_per_s main jobs);
        Util.m "p50_ms" "ms" (p50_ms main jobs);
        Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
      ]
    else
      cell_metrics main jobs cells
      @ [ events_per_step events jobs ]
      @ sim_metrics main jobs
      @ layers ~reps:setup_reps
      @ overhead
  in
  {
    Util.attempted = main.runs + c.attempted;
    failed = c.failed;
    metrics;
  }
