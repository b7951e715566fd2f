(* fused-stream: the on-demand / discard / k-edge / no-budget cell
   only, which the engine runs on its fused path, over long seeded
   Markov walks on a hot/cold graph and over life's real trace. The
   general engine path does no work here. *)

let name = "fused-stream"
let k = 8
let cell = "on-demand.kedge"
let walks = 6
let walk_length = 500_000
let hot_blocks = 24
let cold_blocks = 200

(* A uniform walk would enter the cold chain at every other visit to
   the loop head; weighting the cold entry 1:15 keeps the hot loop
   hot. *)
let weight ~src ~dst = if src = 0 && dst = hot_blocks then 1.0 else 15.0

let walk_scenarios seed =
  let rng = Corpus.Prng.create seed in
  let graph, _ =
    Trace.Synthetic.hot_cold ~seed ~hot_blocks ~cold_blocks ~hot_iters:1
      ~cold_visit_every:1 ()
  in
  List.init walks (fun i ->
      let trace =
        Trace.Synthetic.markov ~seed:(Corpus.Prng.int rng 1_000_000) ~weight
          graph ~length:walk_length
      in
      Core.Scenario.of_graph ~name:(Printf.sprintf "walk%d" i) graph ~trace)

let setup seed =
  let policy = Core.Policy.make ~compress_k:k () in
  Engine_jobs.job ~program:"life" ~seeded:false ~cell
    (Engine_matrix.suite_scenario "life")
    policy
  :: List.map
       (fun (sc : Core.Scenario.t) ->
         Engine_jobs.job ~program:sc.name ~seeded:true ~cell sc policy)
       (walk_scenarios seed)

let run =
  Engine_jobs.run_workload ~name ~setup ~cells:[ cell ]
    ~layers:
      (Engine_matrix.setup_layers
         [ "eris.asm.assemble"; "core.scenario.of_program" ])
