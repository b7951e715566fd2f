(* engine-matrix: every policy cell of the paper's design space at
   k = 8, run sequentially on one domain over the larger suite
   programs and a few seeded generated programs. Thirteen of the
   fourteen cells take the engine's general path; only
   on-demand.kedge takes the fused one. *)

let name = "engine-matrix"
let k = 8

(* life is left out: one pass over its 411k-step trace in all
   fourteen cells alone outlasts a run. collatz runs the first 32768
   steps of its 194k-step trace: whole, its fourteen cells made a pass
   last seconds, too few passes in a run for a steady per-job time (see
   [Util.job_time]). *)
let suite = [ ("collatz", Some 32768); ("nqueens", None); ("vm", None) ]

(* Three generated shapes; the workload seed picks each one's
   generator seed, the shape stays fixed. *)
let gen_shapes =
  [
    "depth=2,fanout=2,blocks=geo:16,calls=1,skew=0.9,cold=8,rounds=8";
    "depth=3,fanout=4,blocks=uni:2-8,calls=2,skew=0.8,cold=16,rounds=6";
    "depth=1,fanout=8,blocks=bim:2-24,calls=0,skew=0.95,cold=32,rounds=10";
  ]

let gen_specs seed =
  let rng = Corpus.Prng.create seed in
  List.map
    (fun shape ->
      Corpus.Spec.to_string
        (Corpus.Spec.of_string_exn
           (Printf.sprintf "gen:seed=%d,%s" (Corpus.Prng.int rng 1_000_000) shape)))
    gen_shapes

let cell_names =
  List.concat_map
    (fun s ->
      List.map (fun r -> s ^ "." ^ r) [ "kedge"; "loop-aware"; "clock"; "pin-hot" ])
    [ "on-demand"; "pre-all"; "pre-single" ]
  @ [ "on-demand.kedge-budget"; "on-demand.kedge-recompress" ]

let cells (sc : Core.Scenario.t) =
  let profile = Core.Scenario.profile sc in
  let retentions =
    [
      ("kedge", Residency.Policy.Kedge);
      ("loop-aware", Residency.Policy.Loop_aware { weight = 2 });
      ("clock", Residency.Policy.Clock);
      ( "pin-hot",
        Residency.Policy.Pin_hot
          { pinned = Cfg.Profile.hot_blocks profile ~fraction:0.5 } );
    ]
  in
  let strategies =
    [
      ("on-demand", Core.Policy.On_demand);
      ("pre-all", Core.Policy.Pre_all { lookahead = 2 });
      ( "pre-single",
        Core.Policy.Pre_single
          { lookahead = 2; predictor = Core.Predictor.By_profile profile } );
    ]
  in
  List.concat_map
    (fun (s, strategy) ->
      List.map
        (fun (r, retention) ->
          (s ^ "." ^ r, Core.Policy.make ~strategy ~retention ~compress_k:k ()))
        retentions)
    strategies
  @ [
      ( "on-demand.kedge-budget",
        Core.Policy.make
          ~budget:(max 1 (Cfg.Graph.total_bytes sc.graph / 4))
          ~compress_k:k () );
      ( "on-demand.kedge-recompress",
        Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:k () );
    ]

let suite_scenario name =
  let w = Workloads.Suite.find_exn name in
  let prog =
    Span.with_ "eris.asm.assemble" (fun () ->
        Eris.Asm.assemble_exn w.Workloads.Common.source)
  in
  Span.with_ "core.scenario.of_program" (fun () ->
      Core.Scenario.of_program ~name ~fuel:20_000_000 prog)

let gen_scenario spec =
  Span.with_ "corpus.gen.build" (fun () ->
      Corpus.Gen.scenario (Corpus.Spec.of_string_exn spec))

let setup seed =
  let programs =
    List.map
      (fun (n, steps) ->
        let sc = suite_scenario n in
        match steps with
        | Some len -> (n, false, { sc with Core.Scenario.trace = Array.sub sc.trace 0 len })
        | None -> (n, false, sc))
      suite
    @ List.map (fun s -> (s, true, gen_scenario s)) (gen_specs seed)
  in
  List.concat_map
    (fun (program, seeded, sc) ->
      List.map
        (fun (cell, policy) -> Engine_jobs.job ~program ~seeded ~cell sc policy)
        (cells sc))
    programs

(* Time per set-up spent in each of the named set-up spans. *)
let setup_layers names ~reps =
  List.map
    (fun n -> Util.m (n ^ "_s") "s" (Span.total n /. float_of_int reps))
    names

let run =
  Engine_jobs.run_workload ~name ~setup ~cells:cell_names
    ~layers:
      (setup_layers
         [ "eris.asm.assemble"; "core.scenario.of_program"; "corpus.gen.build" ])
