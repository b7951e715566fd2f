(* runtime-exec: the executable runtime (Runtime.run, k = 8, k-edge
   retention) running the hand-written suite and seeded generated
   programs from an all-compressed image. The trap, decompress,
   relocate and patch path does all the work; the timing engine does
   none. *)

let name = "runtime-exec"
let k = 8
let fuel = 50_000_000

let suite =
  [
    "fir"; "crc32"; "matmul"; "bsort"; "dijkstra"; "fsm"; "adpcm"; "dct";
    "qsort"; "strsearch"; "histogram"; "rotmix";
  ]

let gen_shapes =
  [
    "depth=2,fanout=4,blocks=geo:12,calls=2,skew=0.9,cold=16,rounds=12";
    "depth=3,fanout=2,blocks=uni:3-10,calls=1,skew=0.85,cold=24,rounds=8";
  ]

type program = {
  pname : string;
  prog : Eris.Program.t;
  expected : int option;  (** suite checksum; [None] for generated *)
}

let setup seed =
  let rng = Corpus.Prng.create seed in
  List.map
    (fun n ->
      let w = Workloads.Suite.find_exn n in
      {
        pname = n;
        prog =
          Span.with_ "eris.asm.assemble" (fun () ->
              Eris.Asm.assemble_exn w.Workloads.Common.source);
        expected = Some w.Workloads.Common.expected;
      })
    suite
  @ List.map
      (fun shape ->
        let spec =
          Corpus.Spec.of_string_exn
            (Printf.sprintf "gen:seed=%d,%s" (Corpus.Prng.int rng 1_000_000) shape)
        in
        {
          pname = Corpus.Spec.to_string spec;
          prog = Span.with_ "corpus.gen.build" (fun () -> Corpus.Gen.program spec);
          expected = None;
        })
      gen_shapes

(* Final registers and all of data memory. *)
let state_digest machine =
  let b = Buffer.create 65600 in
  for r = 0 to 15 do
    Buffer.add_string b
      (string_of_int (Eris.Machine.get_reg machine (Eris.Types.reg r)));
    Buffer.add_char b ','
  done;
  (try
     let a = ref 0 in
     while true do
       Buffer.add_int32_le b (Int32.of_int (Eris.Machine.read_word machine !a));
       a := !a + 4
     done
   with Eris.Machine.Fault _ -> ());
  Digest.string (Buffer.contents b)

let run_one ?sink p =
  match Runtime.run ~fuel ~k ~retention:Residency.Policy.Kedge ?sink p.prog with
  | Ok (machine, stats) -> Ok (machine, stats)
  | Error (Runtime.Out_of_fuel _) -> Error "out of fuel"
  | Error (Runtime.Machine_fault { pc; message; _ }) ->
    Error (Printf.sprintf "fault at pc %d: %s" pc message)

(* What one timed phase measured, per program. A program's time comes
   from its passes by [Util.job_time]. *)
type sample = {
  mutable times : float list;
  mutable stats : Runtime.stats option;  (** of the last run *)
  mutable words : int;  (** minor words of the last run, traced only *)
  mutable digests : Digest.t list;  (** final states, generated programs *)
}

type phase = { runs : int; per : (string, sample) Hashtbl.t }

let sample ph p = Hashtbl.find ph.per p.pname
let prog_s ph p = Util.job_time (sample ph p).times
let stats ph p = Option.get (sample ph p).stats
let kernels programs = List.filter (fun p -> p.expected <> None) programs
let sum_s ph programs = List.fold_left (fun acc p -> acc +. prog_s ph p) 0.0 programs

let work_per_s ph programs =
  float_of_int (Util.sum_int (fun p -> (stats ph p).Runtime.instructions) programs)
  /. sum_s ph programs

(* Median latency over the kernels, which do not depend on the seed. *)
let p50_ms ph programs =
  1000.0 *. Util.median (List.map (prog_s ph) (kernels programs))

let timed ~traced ~seconds c programs =
  Span.with_ "perfbench.timed" @@ fun () ->
  let per = Hashtbl.create 16 in
  List.iter
    (fun p ->
      Hashtbl.replace per p.pname { times = []; stats = None; words = 0; digests = [] })
    programs;
  let runs = ref 0 in
  let deadline = Util.now () +. seconds in
  while !runs = 0 || Util.now () < deadline do
    List.iter
      (fun p ->
        let t0 = Util.now () in
        let r, w =
          if traced then
            Span.with_ "runtime.run" (fun () -> Util.minor_words (fun () -> run_one p))
          else (run_one p, 0)
        in
        let dt = Util.now () -. t0 in
        let s = Hashtbl.find per p.pname in
        incr runs;
        s.times <- dt :: s.times;
        s.words <- w;
        match r with
        | Error msg -> Util.check c false "%s: %s" p.pname msg
        | Ok (machine, stats) -> (
          s.stats <- Some stats;
          match p.expected with
          | Some want ->
            let got = Eris.Machine.read_word machine Workloads.Common.result_addr in
            Util.check c (got = want) "%s: checksum 0x%08x, expected 0x%08x"
              p.pname got want
          | None -> s.digests <- state_digest machine :: s.digests))
      programs
  done;
  { runs = !runs; per }

(* The bare interpreter on the same images: the reference state for
   generated programs, and the time the runtime is compared with. *)
let bare p =
  let machine = Eris.Machine.create p.prog in
  let r =
    Span.with_ "eris.machine.run_to_halt" (fun () ->
        Eris.Machine.run_to_halt ~fuel machine)
  in
  (machine, r.Eris.Machine.instrs)

let check c ph programs =
  Span.with_ "perfbench.check" @@ fun () ->
  List.iter
    (fun p ->
      match p.expected with
      | Some _ -> ()
      | None ->
        let machine, _ = bare p in
        let want = state_digest machine in
        List.iter
          (fun d ->
            Util.check c (d = want)
              "%s: runtime registers and memory differ from the bare machine"
              p.pname)
          (sample ph p).digests)
    programs

(* Per-layer figures of the traced run. *)
let layers ph programs ~reps =
  let kernels = kernels programs in
  let sum f = Util.sum_int (fun p -> f (stats ph p)) kernels in
  let kernel_instrs = sum (fun s -> s.Runtime.instructions) in
  let events =
    Util.sum_int
      (fun p ->
        let counters = Sim.Events.counters () in
        ignore (run_one ~sink:(Sim.Events.counting counters) p);
        Sim.Events.total counters)
      kernels
  in
  (* the bare machine on every program, ten runs each *)
  let bare_s =
    List.fold_left
      (fun acc p ->
        acc
        +. Util.job_time
             (List.init 10 (fun _ -> snd (Util.time (fun () -> ignore (bare p))))))
      0.0 programs
  in
  let bare_instrs = Util.sum_int (fun p -> snd (bare p)) programs in
  let run_s = sum_s ph programs in
  [
    Util.m "runtime.run_s" "s" run_s;
    Util.m "runtime.words_per_instr" "words"
      (float_of_int (Util.sum_int (fun p -> (sample ph p).words) kernels)
      /. float_of_int kernel_instrs);
    Util.m "runtime.traps_per_kinstr" "traps"
      (1000.0 *. float_of_int (sum (fun s -> s.Runtime.traps))
      /. float_of_int kernel_instrs);
    Util.m "runtime.decompressions" "count"
      (float_of_int (sum (fun s -> s.Runtime.decompressions)));
    Util.m "sim.events.per_step" "events"
      (float_of_int events /. float_of_int kernel_instrs);
    Util.m "eris.machine.instr_per_s" "1/s" (float_of_int bare_instrs /. bare_s);
    Util.m "runtime.vs_machine_x" "x" (run_s /. bare_s);
    Util.m "eris.asm.assemble_s" "s"
      (Span.total "eris.asm.assemble" /. float_of_int reps);
    Util.m "corpus.gen.build_s" "s" (Span.total "corpus.gen.build" /. float_of_int reps);
  ]

let setup_reps = 25

let run ~seed ~seconds ~traced =
  let c = Util.checks () in
  let programs, setup_s = Util.repeat_setup ~reps:setup_reps (fun () -> setup seed) in
  let main, overhead =
    if not traced then (timed ~traced:false ~seconds c programs, [])
    else begin
      let plain = timed ~traced:false ~seconds:(seconds /. 2.0) c programs in
      let p = timed ~traced:true ~seconds:(seconds /. 2.0) c programs in
      check c plain programs;
      ( p,
        [
          Util.m "trace.overhead.work_per_s" "1/s" (work_per_s p programs -. work_per_s plain programs);
          Util.m "trace.overhead.p50_ms" "ms" (p50_ms p programs -. p50_ms plain programs);
        ] )
    end
  in
  check c main programs;
  let metrics =
    if not traced then
      [
        Util.m "setup_s" "s" setup_s;
        Util.m "work_per_s" "1/s" (work_per_s main programs);
        Util.m "p50_ms" "ms" (p50_ms main programs);
        Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
      ]
    else layers main programs ~reps:setup_reps @ overhead
  in
  { Util.attempted = main.runs + c.attempted; failed = c.failed; metrics }
