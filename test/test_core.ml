(* Tests for the policy engine: k-edge bookkeeping, policies,
   predictors, the discrete-event engine and the scenario glue. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_il = Alcotest.check Alcotest.(list int)

(* ------------------------------------------------------------------ *)
(* Kedge                                                               *)

let test_kedge_basic () =
  let k = Memsim.Kedge.create ~blocks:4 ~k:2 () in
  Memsim.Kedge.track k ~block:0 ~step:0;
  checkb "tracked" true (Memsim.Kedge.tracked k ~block:0);
  checkb "counter at 1" true (Memsim.Kedge.counter k ~block:0 ~step:1 = Some 1);
  check_il "not due before k" [] (Memsim.Kedge.due k ~step:1);
  check_il "due at k" [ 0 ] (Memsim.Kedge.due k ~step:2);
  checkb "untracked has no counter" true
    (Memsim.Kedge.counter k ~block:1 ~step:5 = None)

let test_kedge_reset_on_reexecution () =
  let k = Memsim.Kedge.create ~blocks:4 ~k:2 () in
  Memsim.Kedge.track k ~block:0 ~step:0;
  (* re-executed at step 1: counter resets, old due entry is stale *)
  Memsim.Kedge.track k ~block:0 ~step:1;
  check_il "stale entry filtered" [] (Memsim.Kedge.due k ~step:2);
  check_il "new due honored" [ 0 ] (Memsim.Kedge.due k ~step:3)

let test_kedge_untrack () =
  let k = Memsim.Kedge.create ~blocks:4 ~k:1 () in
  Memsim.Kedge.track k ~block:2 ~step:5;
  Memsim.Kedge.untrack k ~block:2;
  check_il "untracked not due" [] (Memsim.Kedge.due k ~step:6)

let test_kedge_k1_and_multiple () =
  let k = Memsim.Kedge.create ~blocks:4 ~k:1 () in
  Memsim.Kedge.track k ~block:0 ~step:0;
  Memsim.Kedge.track k ~block:1 ~step:0;
  check_il "both due, sorted" [ 0; 1 ] (Memsim.Kedge.due k ~step:1);
  (* due consumes the entries *)
  check_il "consumed" [] (Memsim.Kedge.due k ~step:1)

let test_kedge_huge_k_no_overflow () =
  let k = Memsim.Kedge.create ~blocks:2 ~k:max_int () in
  Memsim.Kedge.track k ~block:0 ~step:100;
  checkb "counter works" true (Memsim.Kedge.counter k ~block:0 ~step:200 = Some 100);
  check_il "never due" [] (Memsim.Kedge.due k ~step:1000)

let test_kedge_validation () =
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Memsim.Kedge.create: k must be >= 1") (fun () ->
      ignore (Memsim.Kedge.create ~blocks:1 ~k:0 ()));
  Alcotest.check_raises "blocks=0 rejected"
    (Invalid_argument "Memsim.Kedge.create: blocks must be >= 1") (fun () ->
      ignore (Memsim.Kedge.create ~blocks:0 ~k:1 ()))

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

let test_policy_validation () =
  checkb "valid" true
    (match Core.Policy.make ~compress_k:1 () with _ -> true);
  Alcotest.check_raises "k=0"
    (Invalid_argument "Core.Policy: compress_k must be >= 1") (fun () ->
      ignore (Core.Policy.make ~compress_k:0 ()));
  Alcotest.check_raises "lookahead=0"
    (Invalid_argument "Core.Policy: lookahead must be >= 1") (fun () ->
      ignore (Core.Policy.pre_all ~k:1 ~lookahead:0));
  Alcotest.check_raises "budget=0"
    (Invalid_argument "Core.Policy: budget must be positive") (fun () ->
      ignore (Core.Policy.make ~compress_k:1 ~budget:0 ()))

let test_policy_describe () =
  let d = Core.Policy.describe (Core.Policy.on_demand ~k:4) in
  checkb "mentions on-demand" true
    (String.length d > 0
    &&
    let rec has i =
      i + 9 <= String.length d && (String.sub d i 9 = "on-demand" || has (i + 1))
    in
    has 0);
  let d2 = Core.Policy.describe Core.Policy.never_compress in
  checkb "inf k" true
    (let rec has i =
       i + 3 <= String.length d2 && (String.sub d2 i 3 = "inf" || has (i + 1))
     in
     has 0)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)

let test_config_costs () =
  let c = Core.Config.default in
  checki "dec cost" (30 + (4 * 10)) (Core.Config.dec_cycles c ~compressed_bytes:10);
  checki "comp cost" (30 + (8 * 10))
    (Core.Config.comp_cycles c ~uncompressed_bytes:10);
  let codec = Compress.Registry.find_exn "rle" in
  let c2 = Core.Config.of_codec codec in
  checki "codec dec rate" (30 + (2 * 10))
    (Core.Config.dec_cycles c2 ~compressed_bytes:10)

let test_config_profiles () =
  checkb "paper profile is the default" true
    (List.hd Core.Config.profiles = "paper-2005");
  let c = Core.Config.of_profile "cortex-m-flash" in
  checkb "profile name recorded" true
    (c.Core.Config.costs.Sim.Cost.profile = "cortex-m-flash");
  (* profiles change energy pricing only; cycle accounting is shared *)
  checki "dec cycles unchanged across profiles"
    (Core.Config.dec_cycles Core.Config.default ~compressed_bytes:17)
    (Core.Config.dec_cycles c ~compressed_bytes:17);
  checkb "energized profile" true
    (c.Core.Config.costs.Sim.Cost.energy.Sim.Cost.exec_nj_per_cycle > 0);
  (* codec-advertised rates survive profile selection, and vice versa *)
  let codec = Compress.Registry.find_exn "rle" in
  let c2 = Core.Config.of_codec ~profile:"sram-heavy" codec in
  checki "codec dec rate under profile" (30 + (2 * 10))
    (Core.Config.dec_cycles c2 ~compressed_bytes:10);
  checkb "codec config keeps profile" true
    (c2.Core.Config.costs.Sim.Cost.profile = "sram-heavy");
  Alcotest.check_raises "unknown profile"
    (Invalid_argument
       "unknown device profile \"avr\" (known: paper-2005, cortex-m-flash, \
        sram-heavy)") (fun () -> ignore (Core.Config.of_profile "avr"))

let test_config_validation () =
  let bad field model =
    Alcotest.check_raises field
      (Invalid_argument (Printf.sprintf "%s must be >= %d (got %d)" field 0 (-1)))
      (fun () -> ignore (Core.Config.make model))
  in
  let base = Core.Config.default_cost_model in
  bad "exception_cycles" { base with Sim.Cost.exception_cycles = -1 };
  bad "patch_cycles" { base with Sim.Cost.patch_cycles = -1 };
  Alcotest.check_raises "dec rate below 1"
    (Invalid_argument "dec_cycles_per_byte must be >= 1 (got 0)") (fun () ->
      ignore (Core.Config.make { base with Sim.Cost.dec_cycles_per_byte = 0 }));
  Alcotest.check_raises "negative energy coefficient"
    (Invalid_argument "dec_compute_nj_per_byte must be >= 0 (got -3)")
    (fun () ->
      ignore
        (Core.Config.make
           {
             base with
             Sim.Cost.energy =
               {
                 base.Sim.Cost.energy with
                 Sim.Cost.dec_compute_nj_per_byte = -3;
               };
           }));
  (* a valid model passes through unchanged *)
  let c = Core.Config.make (Core.Config.cost_model_of_profile "sram-heavy") in
  checkb "valid model accepted" true
    (c.Core.Config.costs.Sim.Cost.profile = "sram-heavy")

(* ------------------------------------------------------------------ *)
(* Predictor                                                           *)

let fig2_graph () =
  Cfg.Graph.synthetic 10
    [
      (0, 1); (0, 2); (1, 3); (1, 4); (2, 4); (2, 5); (3, 6); (4, 6); (5, 6);
      (6, 7); (6, 8); (7, 9); (8, 9);
    ]

let test_predictor_first_successor () =
  let g = fig2_graph () in
  let st = Core.Predictor.create_state ~blocks:10 in
  (* path following first successors from 0: 1, 3, 6... *)
  checkb "follows first successors" true
    (Core.Predictor.choose Core.Predictor.First_successor st g ~from:0 ~k:3
       ~candidates:[ 6; 5 ]
    = Some 6);
  checkb "fallback to nearest" true
    (Core.Predictor.choose Core.Predictor.First_successor st g ~from:0 ~k:2
       ~candidates:[ 5; 8 ]
    = Some 5);
  checkb "empty candidates" true
    (Core.Predictor.choose Core.Predictor.First_successor st g ~from:0 ~k:2
       ~candidates:[]
    = None)

let test_predictor_last_taken () =
  let g = fig2_graph () in
  let st = Core.Predictor.create_state ~blocks:10 in
  Core.Predictor.note_edge st ~src:0 ~dst:2;
  Core.Predictor.note_edge st ~src:2 ~dst:5;
  checkb "follows remembered edges" true
    (Core.Predictor.choose Core.Predictor.Last_taken st g ~from:0 ~k:2
       ~candidates:[ 4; 5 ]
    = Some 5);
  (* stale remembered edge that is no longer a successor is ignored *)
  let st2 = Core.Predictor.create_state ~blocks:10 in
  Core.Predictor.note_edge st2 ~src:0 ~dst:9;
  checkb "invalid remembered edge falls back" true
    (Core.Predictor.choose Core.Predictor.Last_taken st2 g ~from:0 ~k:1
       ~candidates:[ 1; 2 ]
    = Some 1)

let test_predictor_profile () =
  let g = fig2_graph () in
  let st = Core.Predictor.create_state ~blocks:10 in
  (* trace that makes 0 -> 2 -> 5 dominant *)
  let profile = Cfg.Profile.of_trace g [| 0; 2; 5; 6; 8; 9 |] in
  checkb "profile picks likely path" true
    (Core.Predictor.choose (Core.Predictor.By_profile profile) st g ~from:0
       ~k:2 ~candidates:[ 3; 5 ]
    = Some 5)

let test_predictor_names () =
  checkb "names distinct" true
    (List.sort_uniq compare
       [
         Core.Predictor.name Core.Predictor.First_successor;
         Core.Predictor.name Core.Predictor.Last_taken;
         Core.Predictor.name
           (Core.Predictor.By_profile (Cfg.Profile.uniform (fig2_graph ())));
       ]
    |> List.length = 3)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

(* All blocks 64 bytes; synthetic contents. *)
let scenario_of g trace = Core.Scenario.of_graph g ~trace

let fig5_scenario () =
  let g =
    Cfg.Graph.synthetic 4 [ (0, 1); (1, 0); (1, 2); (1, 3); (2, 3) ]
  in
  scenario_of g [| 0; 1; 0; 1; 3 |]

let run_events sc policy =
  let events = ref [] in
  let m = Core.Scenario.run
      ~sink:(Sim.Events.callback (fun e -> events := e :: !events))
      sc policy in
  (m, List.rev !events)

let count_events f events =
  List.length (List.filter f events)

let test_engine_fig5_events () =
  let sc = fig5_scenario () in
  let m, events = run_events sc (Core.Policy.on_demand ~k:2) in
  (* 4 exceptions: initial B0, first B1, revisit B0 (patch only), B3. *)
  checki "exceptions" 4 m.Core.Metrics.exceptions;
  checki "demand decompressions" 3 m.Core.Metrics.demand_decompressions;
  checki "one k-edge discard" 1 m.Core.Metrics.discards;
  (* 4 patches: B0->B1', B1->B0', patch-back on discard of B0', B1->B3'. *)
  checki "patches" 4 m.Core.Metrics.patches;
  checkb "discarded block is B0" true
    (List.exists
       (fun ev ->
         match (ev : Core.Engine.event) with
         | Discard { block = 0; patched_back = 1; _ } -> true
         | _ -> false)
       events);
  (* Step (7): second arrival at resident patched B1 has no exception:
     the number of Exception events equals metrics. *)
  checki "exception events" 4
    (count_events
       (fun ev ->
         match (ev : Core.Engine.event) with Exception _ -> true | _ -> false)
       events)

let test_engine_steady_state_free () =
  (* A 2-block loop with k large: after warmup, no overhead at all. *)
  let g = Cfg.Graph.synthetic 2 [ (0, 1); (1, 0) ] in
  let trace = Array.init 100 (fun i -> i mod 2) in
  let sc = scenario_of g trace in
  let m = Core.Scenario.run sc (Core.Policy.on_demand ~k:50) in
  checki "only 2 demand decompressions" 2 m.Core.Metrics.demand_decompressions;
  (* Warmup: fault on B0, fault+patch on B1, one more fault+patch on
     the first revisit of B0; after that, both branch sites are
     patched and the loop runs exception-free. *)
  checki "three warmup exceptions" 3 m.Core.Metrics.exceptions;
  checki "two warmup patches" 2 m.Core.Metrics.patches;
  checki "no discards" 0 m.Core.Metrics.discards;
  (* total = baseline + warmup costs only *)
  let warmup =
    m.Core.Metrics.exception_cycles + m.Core.Metrics.patch_cycles
    + m.Core.Metrics.demand_dec_cycles
  in
  checki "total accounted" (m.Core.Metrics.baseline_cycles + warmup)
    m.Core.Metrics.total_cycles

let test_engine_k1_thrash () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1); (1, 0) ] in
  let trace = Array.init 20 (fun i -> i mod 2) in
  let sc = scenario_of g trace in
  let m = Core.Scenario.run sc (Core.Policy.on_demand ~k:1) in
  (* k=1 discards each block as soon as the next edge is traversed,
     so every visit is a demand miss. *)
  checki "every visit misses" 20 m.Core.Metrics.demand_decompressions;
  checki "discards all but last" 19 m.Core.Metrics.discards

let test_engine_self_loop_spared () =
  (* A self-loop with k=1: the target of the edge is spared deletion. *)
  let g = Cfg.Graph.synthetic 2 [ (0, 0); (0, 1) ] in
  let trace = [| 0; 0; 0; 0; 1 |] in
  let sc = scenario_of g trace in
  let m = Core.Scenario.run sc (Core.Policy.on_demand ~k:1) in
  checki "self-loop keeps copy" 2 m.Core.Metrics.demand_decompressions

let test_engine_prefetch_hides_latency () =
  let g, trace = Trace.Synthetic.loop_nest ~levels:2 ~iters:[| 10; 10 |] in
  let sc = scenario_of g trace in
  let od = Core.Scenario.run sc (Core.Policy.on_demand ~k:8) in
  let pre = Core.Scenario.run sc (Core.Policy.pre_all ~k:8 ~lookahead:2) in
  checkb "prefetch reduces demand misses" true
    (pre.Core.Metrics.demand_decompressions
    < od.Core.Metrics.demand_decompressions);
  checkb "prefetches issued" true (pre.Core.Metrics.prefetch_decompressions > 0);
  checki "useful + wasted <= prefetches"
    (min
       (pre.Core.Metrics.useful_prefetches + pre.Core.Metrics.wasted_prefetches)
       pre.Core.Metrics.prefetch_decompressions)
    (pre.Core.Metrics.useful_prefetches + pre.Core.Metrics.wasted_prefetches)

let test_engine_prefetch_timing () =
  (* A straight chain: the prefetch of block 2 must be issued when
     execution leaves block 0 (lookahead 2). *)
  let g = Cfg.Graph.synthetic 4 [ (0, 1); (1, 2); (2, 3) ] in
  let sc = scenario_of g [| 0; 1; 2; 3 |] in
  let _, events = run_events sc (Core.Policy.pre_all ~k:8 ~lookahead:2) in
  let exec0_at = ref (-1) and prefetch2_at = ref (-1) and exec1_at = ref (-1) in
  List.iter
    (fun ev ->
      match (ev : Core.Engine.event) with
      | Exec { block = 0; at } -> exec0_at := at
      | Exec { block = 1; at } -> if !exec1_at < 0 then exec1_at := at
      | Prefetch_issue { block = 2; at; _ } -> prefetch2_at := at
      | _ -> ())
    events;
  checkb "prefetch after exec of 0" true (!prefetch2_at >= !exec0_at);
  checkb "prefetch before exec of 1" true (!prefetch2_at <= !exec1_at)

let test_engine_budget_eviction () =
  let g = Cfg.Graph.synthetic ~block_bytes:64 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let trace = Array.init 40 (fun i -> i mod 4) in
  let sc = scenario_of g trace in
  (* Budget for two blocks only. *)
  let m =
    Core.Scenario.run sc (Core.Policy.make ~compress_k:100 ~budget:128 ())
  in
  checkb "evictions happened" true (m.Core.Metrics.evictions > 0);
  checkb "budget respected" true (m.Core.Metrics.peak_decompressed_bytes <= 128);
  checki "no overflows" 0 m.Core.Metrics.budget_overflows

let test_engine_budget_overflow () =
  (* Budget smaller than a single block: the demand decompression must
     overflow (no victim can make room). *)
  let g = Cfg.Graph.synthetic ~block_bytes:64 2 [ (0, 1); (1, 0) ] in
  let sc = scenario_of g [| 0; 1 |] in
  let m = Core.Scenario.run sc (Core.Policy.make ~compress_k:4 ~budget:32 ()) in
  checkb "overflows recorded" true (m.Core.Metrics.budget_overflows > 0)

let test_engine_recompress_mode () =
  let g = Cfg.Graph.synthetic 3 [ (0, 1); (1, 2); (2, 0) ] in
  let trace = Array.init 12 (fun i -> i mod 3) in
  let sc = scenario_of g trace in
  let discard =
    Core.Scenario.run sc
      (Core.Policy.make ~mode:Core.Policy.Discard ~compress_k:1 ())
  in
  let recompress =
    Core.Scenario.run sc
      (Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:1 ())
  in
  checkb "recompress uses the comp thread" true
    (recompress.Core.Metrics.comp_thread_busy_cycles
    > discard.Core.Metrics.comp_thread_busy_cycles);
  checkb "recompress holds memory longer" true
    (recompress.Core.Metrics.avg_decompressed_bytes
    >= discard.Core.Metrics.avg_decompressed_bytes)

let test_engine_empty_trace () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1) ] in
  let sc = scenario_of g [||] in
  let m = Core.Scenario.run sc (Core.Policy.on_demand ~k:2) in
  checki "no cycles" 0 m.Core.Metrics.total_cycles;
  checki "no events" 0 m.Core.Metrics.exceptions

let test_engine_rejects_bad_input () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1) ] in
  let sc = scenario_of g [| 0; 1 |] in
  Alcotest.check_raises "bad trace block"
    (Invalid_argument "Core.Engine.run: trace mentions unknown block")
    (fun () ->
      ignore
        (Core.Engine.run ~graph:sc.Core.Scenario.graph
           ~info:sc.Core.Scenario.info ~trace:[| 0; 7 |]
           (Core.Policy.on_demand ~k:1)));
  Alcotest.check_raises "bad info length"
    (Invalid_argument "Core.Engine.run: info does not match graph") (fun () ->
      ignore
        (Core.Engine.run ~graph:sc.Core.Scenario.graph
           ~info:(Array.sub sc.Core.Scenario.info 0 1)
           ~trace:[| 0 |] (Core.Policy.on_demand ~k:1)));
  Alcotest.check_raises "bad step_cycles"
    (Invalid_argument "Core.Engine.run: step_cycles does not match trace")
    (fun () ->
      ignore
        (Core.Engine.run ~step_cycles:[| 1 |] ~graph:sc.Core.Scenario.graph
           ~info:sc.Core.Scenario.info ~trace:[| 0; 1 |]
           (Core.Policy.on_demand ~k:1)))

let test_engine_step_cycles_override () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1) ] in
  let sc = scenario_of g [| 0; 1 |] in
  let m =
    Core.Engine.run ~step_cycles:[| 100; 200 |] ~graph:sc.Core.Scenario.graph
      ~info:sc.Core.Scenario.info ~trace:[| 0; 1 |]
      (Core.Policy.on_demand ~k:4)
  in
  checki "baseline from overrides" 300 m.Core.Metrics.baseline_cycles;
  checki "exec from overrides" 300 m.Core.Metrics.exec_cycles

(* Metric invariants on random loop-heavy scenarios. *)
let prop_metric_invariants =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 3 12 in
      let* extra_edges =
        list_size (int_range 0 10)
          (pair (int_range 0 (blocks - 1)) (int_range 0 (blocks - 1)))
      in
      let* len = int_range 1 300 in
      let* seed = int_range 0 1000 in
      let* k = int_range 1 16 in
      let* strategy = int_range 0 2 in
      return (blocks, extra_edges, len, seed, k, strategy))
  in
  QCheck.Test.make ~count:120 ~name:"engine metric invariants"
    (QCheck.make gen) (fun (blocks, extra_edges, len, seed, k, strategy) ->
      (* ring edges keep every block live; extras add irregularity *)
      let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
      let edges = List.sort_uniq compare (ring @ extra_edges) in
      let g = Cfg.Graph.synthetic blocks edges in
      let trace = Trace.Synthetic.markov ~seed g ~length:len in
      let sc = Core.Scenario.of_graph g ~trace in
      let policy =
        match strategy with
        | 0 -> Core.Policy.on_demand ~k
        | 1 -> Core.Policy.pre_all ~k ~lookahead:2
        | _ ->
          Core.Policy.pre_single ~k ~lookahead:2
            ~predictor:Core.Predictor.Last_taken
      in
      let m = Core.Scenario.run sc policy in
      let open Core.Metrics in
      m.total_cycles >= m.baseline_cycles
      && m.exec_cycles = m.baseline_cycles
      && m.stall_cycles >= 0
      && m.useful_prefetches + m.wasted_prefetches
         <= m.prefetch_decompressions
      && m.peak_decompressed_bytes >= 0
      && float_of_int m.peak_decompressed_bytes >= m.avg_decompressed_bytes
      && m.peak_footprint_bytes
         = m.compressed_area_bytes + m.peak_decompressed_bytes
      && m.demand_decompressions + m.prefetch_decompressions
         >= m.discards + m.evictions
      && m.total_cycles
         = m.exec_cycles + m.exception_cycles + m.patch_cycles
           + m.demand_dec_cycles + m.stall_cycles)

(* Accounting coherence under the cost vocabulary: on random
   workload x policy x device-profile combinations, every
   per-dimension metric total must equal the sum of the per-event
   charge vectors seen by [charge_log], and the cycle side of the
   books must be byte-identical to the default paper-2005 run —
   profiles may only change energy pricing, never timing. *)
let prop_charge_totals_match_metrics =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 3 10 in
      let* extra_edges =
        list_size (int_range 0 8)
          (pair (int_range 0 (blocks - 1)) (int_range 0 (blocks - 1)))
      in
      let* len = int_range 1 200 in
      let* seed = int_range 0 1000 in
      let* k = int_range 1 8 in
      let* strategy = int_range 0 3 in
      let* profile_idx = int_range 0 2 in
      return (blocks, extra_edges, len, seed, k, strategy, profile_idx))
  in
  QCheck.Test.make ~count:80 ~name:"charge journal matches metric totals"
    (QCheck.make gen)
    (fun (blocks, extra_edges, len, seed, k, strategy, profile_idx) ->
      let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
      let edges = List.sort_uniq compare (ring @ extra_edges) in
      let g = Cfg.Graph.synthetic blocks edges in
      let trace = Trace.Synthetic.markov ~seed g ~length:len in
      let sc = Core.Scenario.of_graph g ~trace in
      let policy =
        match strategy with
        | 0 -> Core.Policy.on_demand ~k
        | 1 -> Core.Policy.pre_all ~k ~lookahead:2
        | 2 ->
          Core.Policy.pre_single ~k ~lookahead:2
            ~predictor:Core.Predictor.Last_taken
        | _ -> Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:k ()
      in
      let profile = List.nth Core.Config.profiles profile_idx in
      let cycles = ref 0 and energy = ref 0 in
      let charge_log _src (v : Sim.Cost.vector) =
        cycles := !cycles + v.Sim.Cost.cycles;
        energy := !energy + v.Sim.Cost.energy_nj
      in
      let m = Core.Scenario.run ~profile ~charge_log sc policy in
      let base = Core.Scenario.run sc policy in
      let open Core.Metrics in
      !cycles = m.total_cycles
      && !energy = m.energy_nj
      && m.energy_nj
         = m.exec_energy_nj + m.exception_energy_nj + m.patch_energy_nj
           + m.dec_energy_nj + m.comp_energy_nj + m.ram_static_energy_nj
      && (profile <> "paper-2005" || m.energy_nj = 0)
      && m.total_cycles = base.total_cycles
      && m.exec_cycles = base.exec_cycles
      && m.demand_dec_cycles = base.demand_dec_cycles
      && m.stall_cycles = base.stall_cycles
      && m.peak_footprint_bytes = base.peak_footprint_bytes)

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)

let test_scenario_of_source () =
  let sc =
    Core.Scenario.of_source ~name:"t" "li r1, 5\nloop: subi r1, r1, 1\nbne r1, r0, loop\nhalt"
  in
  checkb "has program" true (sc.Core.Scenario.program <> None);
  checkb "trace valid" true
    (Cfg.Graph.validate_trace sc.Core.Scenario.graph sc.Core.Scenario.trace
    = Ok ());
  checkb "compressed sizes positive" true
    (Array.for_all
       (fun (i : Core.Engine.block_info) -> i.compressed_bytes > 0)
       sc.Core.Scenario.info)

let test_scenario_synthetic_bytes_deterministic () =
  let a = Core.Scenario.synthetic_block_bytes ~id:5 ~size:128 in
  let b = Core.Scenario.synthetic_block_bytes ~id:5 ~size:128 in
  let c = Core.Scenario.synthetic_block_bytes ~id:6 ~size:128 in
  checkb "deterministic" true (Bytes.equal a b);
  checkb "id-dependent" false (Bytes.equal a c);
  checki "size respected" 128 (Bytes.length a)

let test_scenario_profile () =
  let g = Cfg.Graph.synthetic 3 [ (0, 1); (1, 2); (2, 0) ] in
  let sc = Core.Scenario.of_graph g ~trace:[| 0; 1; 2; 0; 1; 2 |] in
  let p = Core.Scenario.profile sc in
  checki "profile counts" 2 (Cfg.Profile.block_count p 0)

(* ------------------------------------------------------------------ *)
(* Lineview                                                            *)

let test_lineview_exec_cycles_preserved () =
  (* re-expressing at line granularity splits each visit's cycles
     across the block's lines — the total execution cost must come
     out exactly the same at every line size *)
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  let policy = Core.Policy.on_demand ~k:8 in
  let base = Core.Scenario.run sc policy in
  List.iter
    (fun line_size ->
      let m = Core.Lineview.run ~line_size sc policy in
      checki
        (Printf.sprintf "exec cycles at %dB" line_size)
        base.Core.Metrics.exec_cycles m.Core.Metrics.exec_cycles)
    [ 16; 32; 64 ]

let test_lineview_view_shape () =
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  let v = Core.Lineview.view ~line_size:32 sc in
  let lines = Array.length v.Core.Lineview.info in
  checkb "one node per line" true
    (Array.length (Cfg.Graph.blocks v.Core.Lineview.graph) = lines);
  checki "step cycles per trace step" (Array.length v.Core.Lineview.trace)
    (Array.length v.Core.Lineview.step_cycles);
  checkb "line trace longer than block trace" true
    (Array.length v.Core.Lineview.trace >= Array.length sc.Core.Scenario.trace);
  checkb "trace ids in range" true
    (Array.for_all
       (fun id -> id >= 0 && id < lines)
       v.Core.Lineview.trace);
  checkb "compressed sizes positive" true
    (Array.for_all
       (fun (i : Core.Engine.block_info) -> i.compressed_bytes > 0)
       v.Core.Lineview.info)

let test_lineview_line_codec () =
  (* a scenario whose codec is a line codec runs and the per-line
     compressed area is charged from exact tag-inclusive wire bits *)
  let w = Workloads.Suite.find_exn "fir" in
  let sc =
    Core.Scenario.of_source ~name:"fir-bdi"
      ~codec:(Compress.Registry.find_exn "bdi-32")
      w.Workloads.Common.source
  in
  let m = Core.Lineview.run ~line_size:32 sc (Core.Policy.on_demand ~k:8) in
  checkb "ran" true (m.Core.Metrics.total_cycles > 0);
  checkb "compressed area positive" true
    (m.Core.Metrics.compressed_area_bytes > 0)

let test_lineview_validation () =
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  Alcotest.check_raises "line_size below 4"
    (Invalid_argument "Residency.Linemap.build: line_size < 4") (fun () ->
      ignore (Core.Lineview.view ~line_size:2 sc))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run ~and_exit:false "core"
    [
      ( "kedge",
        [
          Alcotest.test_case "basic counters" `Quick test_kedge_basic;
          Alcotest.test_case "reset on re-execution" `Quick
            test_kedge_reset_on_reexecution;
          Alcotest.test_case "untrack" `Quick test_kedge_untrack;
          Alcotest.test_case "k=1 and multiple" `Quick
            test_kedge_k1_and_multiple;
          Alcotest.test_case "huge k" `Quick test_kedge_huge_k_no_overflow;
          Alcotest.test_case "validation" `Quick test_kedge_validation;
        ] );
      ( "policy",
        [
          Alcotest.test_case "validation" `Quick test_policy_validation;
          Alcotest.test_case "describe" `Quick test_policy_describe;
        ] );
      ( "config",
        [
          Alcotest.test_case "costs" `Quick test_config_costs;
          Alcotest.test_case "profiles" `Quick test_config_profiles;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "first successor" `Quick
            test_predictor_first_successor;
          Alcotest.test_case "last taken" `Quick test_predictor_last_taken;
          Alcotest.test_case "profile" `Quick test_predictor_profile;
          Alcotest.test_case "names" `Quick test_predictor_names;
        ] );
      ( "engine",
        [
          Alcotest.test_case "figure 5 event sequence" `Quick
            test_engine_fig5_events;
          Alcotest.test_case "steady state is free" `Quick
            test_engine_steady_state_free;
          Alcotest.test_case "k=1 thrashes" `Quick test_engine_k1_thrash;
          Alcotest.test_case "self-loop target spared" `Quick
            test_engine_self_loop_spared;
          Alcotest.test_case "prefetch hides latency" `Quick
            test_engine_prefetch_hides_latency;
          Alcotest.test_case "prefetch timing" `Quick test_engine_prefetch_timing;
          Alcotest.test_case "budget eviction" `Quick test_engine_budget_eviction;
          Alcotest.test_case "budget overflow" `Quick test_engine_budget_overflow;
          Alcotest.test_case "recompress mode" `Quick test_engine_recompress_mode;
          Alcotest.test_case "empty trace" `Quick test_engine_empty_trace;
          Alcotest.test_case "input validation" `Quick
            test_engine_rejects_bad_input;
          Alcotest.test_case "step cycles override" `Quick
            test_engine_step_cycles_override;
          qcheck prop_metric_invariants;
          qcheck prop_charge_totals_match_metrics;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "of source" `Quick test_scenario_of_source;
          Alcotest.test_case "synthetic bytes" `Quick
            test_scenario_synthetic_bytes_deterministic;
          Alcotest.test_case "profile" `Quick test_scenario_profile;
        ] );
      ( "lineview",
        [
          Alcotest.test_case "exec cycles preserved" `Quick
            test_lineview_exec_cycles_preserved;
          Alcotest.test_case "view shape" `Quick test_lineview_view_shape;
          Alcotest.test_case "line codec scenario" `Quick
            test_lineview_line_codec;
          Alcotest.test_case "validation" `Quick test_lineview_validation;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Adaptive k and event-stream coherence (appended suite)              *)

let test_kedge_per_block () =
  let k_of b = if b = 0 then 1 else 5 in
  let k = Memsim.Kedge.create ~k_of ~blocks:2 ~k:3 () in
  checki "k_for 0" 1 (Memsim.Kedge.k_for k ~block:0);
  checki "k_for 1" 5 (Memsim.Kedge.k_for k ~block:1);
  Memsim.Kedge.track k ~block:0 ~step:0;
  Memsim.Kedge.track k ~block:1 ~step:0;
  check_il "only block 0 due at 1" [ 0 ] (Memsim.Kedge.due k ~step:1);
  check_il "block 1 due at 5" [ 1 ] (Memsim.Kedge.due k ~step:5)

let test_kedge_per_block_validation () =
  let k = Memsim.Kedge.create ~k_of:(fun _ -> 0) ~blocks:2 ~k:3 () in
  Alcotest.check_raises "k_of below 1 rejected on use"
    (Invalid_argument "Memsim.Kedge: per-block k must be >= 1") (fun () ->
      Memsim.Kedge.track k ~block:0 ~step:0)

let test_adaptive_loop_aware () =
  (* 0 -> 1 <-> 2, 2 -> 3: loop {1, 2}. *)
  let g = Cfg.Graph.synthetic 4 [ (0, 1); (1, 2); (2, 1); (2, 3) ] in
  let k_of = Core.Adaptive.loop_aware g in
  checki "loop block gets loop size + slack" 4 (k_of 1);
  checki "other loop block too" 4 (k_of 2);
  checki "cold block gets 1" 1 (k_of 0);
  checki "exit gets 1" 1 (k_of 3);
  checki "out of range safe" 1 (k_of 99)

let test_adaptive_reuse_aware () =
  let g = Cfg.Graph.synthetic 3 [ (0, 1); (1, 0); (1, 2) ] in
  let trace = [| 0; 1; 0; 1; 0; 1; 2 |] in
  let k_of = Core.Adaptive.reuse_aware g trace in
  checki "block 0 reuse distance" 2 (k_of 0);
  checki "block 1 reuse distance" 2 (k_of 1);
  checki "never revisited gets 1" 1 (k_of 2)

let test_adaptive_policy_runs () =
  let g, trace = Trace.Synthetic.loop_nest ~levels:2 ~iters:[| 8; 8 |] in
  let sc = Core.Scenario.of_graph g ~trace in
  let fixed = Core.Scenario.run sc (Core.Policy.on_demand ~k:4) in
  let adaptive =
    Core.Scenario.run sc
      (Core.Policy.make ~compress_k:4
         ~adaptive_k:(Core.Adaptive.reuse_aware g trace)
         ())
  in
  (* Trained on its own trace, reuse-aware k must not fault more. *)
  checkb "reuse-aware never worse on demand misses" true
    (adaptive.Core.Metrics.demand_decompressions
    <= fixed.Core.Metrics.demand_decompressions);
  checkb "describe mentions adaptive" true
    (let d =
       Core.Policy.describe
         (Core.Policy.make ~compress_k:4 ~adaptive_k:(fun _ -> 2) ())
     in
     let rec has i =
       i + 8 <= String.length d && (String.sub d i 8 = "adaptive" || has (i + 1))
     in
     has 0)

(* Event-stream coherence: replay the engine's event log as a state
   machine over block residency; any out-of-order event is a bug. *)
let coherent events =
  let resident = Hashtbl.create 16 in
  let in_flight = Hashtbl.create 16 in
  List.for_all
    (fun ev ->
      match (ev : Core.Engine.event) with
      | Core.Engine.Demand_decompress { block; _ } ->
        if Hashtbl.mem resident block then false
        else begin
          Hashtbl.replace resident block ();
          true
        end
      | Prefetch_issue { block; _ } ->
        if Hashtbl.mem resident block || Hashtbl.mem in_flight block then false
        else begin
          Hashtbl.replace in_flight block ();
          true
        end
      | Exec { block; _ } ->
        (* a prefetched block becomes resident at its exec arrival *)
        if Hashtbl.mem in_flight block then begin
          Hashtbl.remove in_flight block;
          Hashtbl.replace resident block ()
        end;
        Hashtbl.mem resident block
      | Discard { block; _ } | Evict { block; _ } ->
        (* wasted prefetches may be discarded before any exec *)
        if Hashtbl.mem in_flight block then begin
          Hashtbl.remove in_flight block;
          true
        end
        else if Hashtbl.mem resident block then begin
          Hashtbl.remove resident block;
          true
        end
        else false
      | Exception _ | Stall _ | Patch _ | Unpatch _ | Recompress_queued _
      | Flush _ -> true)
    events

let prop_event_coherence =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 3 10 in
      let* len = int_range 1 200 in
      let* seed = int_range 0 500 in
      let* k = int_range 1 8 in
      let* lookahead = int_range 1 4 in
      return (blocks, len, seed, k, lookahead))
  in
  QCheck.Test.make ~count:100 ~name:"event stream coherence"
    (QCheck.make gen) (fun (blocks, len, seed, k, lookahead) ->
      let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
      let extra = List.init (blocks / 2) (fun i -> (i, (i + 2) mod blocks)) in
      let g = Cfg.Graph.synthetic blocks (List.sort_uniq compare (ring @ extra)) in
      let trace = Trace.Synthetic.markov ~seed g ~length:len in
      let sc = Core.Scenario.of_graph g ~trace in
      let events = ref [] in
      let _ =
        Core.Scenario.run
          ~sink:(Sim.Events.callback (fun e -> events := e :: !events))
          sc
          (Core.Policy.pre_all ~k ~lookahead)
      in
      coherent (List.rev !events))

let test_workload_event_coherence () =
  let sc =
    Core.Scenario.of_source ~name:"loop"
      "li r1, 30\nloop: subi r1, r1, 1\nbeq r1, r0, done\nblt r1, r0, done\nj loop\ndone: halt"
  in
  List.iter
    (fun policy ->
      let events = ref [] in
      let _ =
        Core.Scenario.run
      ~sink:(Sim.Events.callback (fun e -> events := e :: !events))
      sc policy
      in
      checkb "coherent" true (coherent (List.rev !events)))
    [
      Core.Policy.on_demand ~k:2;
      Core.Policy.pre_all ~k:2 ~lookahead:2;
      Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:2 ();
      Core.Policy.make ~compress_k:2 ~budget:96 ();
    ]

let () =
  Alcotest.run ~and_exit:false "core-adaptive"
    [
      ( "adaptive",
        [
          Alcotest.test_case "per-block kedge" `Quick test_kedge_per_block;
          Alcotest.test_case "per-block validation" `Quick
            test_kedge_per_block_validation;
          Alcotest.test_case "loop-aware" `Quick test_adaptive_loop_aware;
          Alcotest.test_case "reuse-aware" `Quick test_adaptive_reuse_aware;
          Alcotest.test_case "adaptive policy" `Quick test_adaptive_policy_runs;
        ] );
      ( "coherence",
        [
          qcheck prop_event_coherence;
          Alcotest.test_case "workload policies" `Quick
            test_workload_event_coherence;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* General-path pins (appended suite): engine configurations that
   neither the benchmark matrix nor the experiment digests cover, each
   pinned by the MD5 of its serialized metrics followed by its full
   event stream. A moved digest means the general path changed
   behaviour; that change must be deliberate. *)

let pin_synthetic () =
  let n = 24 in
  let ring = List.init n (fun i -> (i, (i + 1) mod n)) in
  let chords = List.init (n / 2) (fun i -> (2 * i, ((5 * i) + 7) mod n)) in
  let sizes = Array.init n (fun i -> 16 + (8 * (i mod 5))) in
  let g =
    Cfg.Graph.synthetic ~sizes n (List.sort_uniq compare (ring @ chords))
  in
  Core.Scenario.of_graph ~name:"synthetic" g
    ~trace:(Trace.Synthetic.markov ~seed:7 g ~length:3000)

let pin_scenario = function
  | "synthetic" -> pin_synthetic ()
  | name -> Workloads.Common.scenario (Workloads.Suite.find_exn name)

(* (cell, run): [run sink] runs the cell with [sink] attached. *)
let pin_cells (sc : Core.Scenario.t) =
  let g = sc.Core.Scenario.graph in
  let profile = Core.Scenario.profile sc in
  let budget = max 1 (Cfg.Graph.total_bytes g / 4) in
  let wide = Cfg.Graph.num_blocks g + 1 in
  let all lookahead = Core.Policy.Pre_all { lookahead } in
  let single ?(lookahead = 2) predictor =
    Core.Policy.Pre_single { lookahead; predictor }
  in
  let by_profile = Core.Predictor.By_profile profile in
  let engine ?profile policy sink = Core.Scenario.run ?profile ~sink sc policy in
  let make = Core.Policy.make in
  [
    ("pre-all.budget", engine (make ~strategy:(all 2) ~budget ~compress_k:8 ()));
    ( "pre-all.clock-budget",
      engine
        (make ~strategy:(all 3) ~retention:Residency.Policy.Clock
           ~budget:(max 1 (budget / 2))
           ~compress_k:4 ()) );
    ( "pre-single.budget",
      engine (make ~strategy:(single by_profile) ~budget ~compress_k:8 ()) );
    ( "pre-single.first-successor",
      engine
        (make ~strategy:(single Core.Predictor.First_successor) ~compress_k:8 ())
    );
    ( "pre-single.last-taken",
      engine (make ~strategy:(single Core.Predictor.Last_taken) ~compress_k:8 ())
    );
    ( "pre-all.recompress",
      engine
        (make ~strategy:(all 2) ~mode:Core.Policy.Recompress ~compress_k:8 ()) );
    ( "pre-all.recompress-sram",
      engine ~profile:"sram-heavy"
        (make ~strategy:(all 2) ~mode:Core.Policy.Recompress ~compress_k:4 ()) );
    ( "pre-single.recompress-budget",
      engine
        (make
           ~strategy:(single Core.Predictor.Last_taken)
           ~mode:Core.Policy.Recompress ~budget ~compress_k:4 ()) );
    ( "pre-all.adaptive",
      engine
        (make ~strategy:(all 2)
           ~adaptive_k:(Core.Adaptive.loop_aware g)
           ~compress_k:8 ()) );
    ("pre-all.lookahead-1", engine (Core.Policy.pre_all ~k:8 ~lookahead:1));
    ("pre-all.lookahead-3", engine (Core.Policy.pre_all ~k:8 ~lookahead:3));
    ("pre-all.lookahead-wide", engine (Core.Policy.pre_all ~k:8 ~lookahead:wide));
    ( "pre-single.lookahead-1",
      engine (make ~strategy:(single ~lookahead:1 by_profile) ~compress_k:8 ()) );
    ( "pre-single.lookahead-3",
      engine (make ~strategy:(single ~lookahead:3 by_profile) ~compress_k:8 ()) );
    ( "pre-single.lookahead-wide",
      engine
        (make ~strategy:(single ~lookahead:wide by_profile) ~compress_k:8 ()) );
    ( "pre-single.last-taken-wide",
      engine
        (make
           ~strategy:(single ~lookahead:wide Core.Predictor.Last_taken)
           ~compress_k:8 ()) );
    ( "lineview.pre-all",
      fun sink ->
        Core.Lineview.run ~sink ~line_size:32 sc
          (Core.Policy.pre_all ~k:8 ~lookahead:2) );
    ( "lineview.pre-single",
      fun sink ->
        (* the predictor's profile must be over the line graph *)
        let v = Core.Lineview.view ~line_size:32 sc in
        let lines = Cfg.Profile.of_trace v.Core.Lineview.graph v.trace in
        Core.Lineview.run ~sink ~line_size:32 sc
          (make ~strategy:(single (Core.Predictor.By_profile lines))
             ~compress_k:8 ()) );
  ]
  (* Non-default retention on every strategy, alone and under a tight
     budget (the [victim] path): the policies' own dispatch, due lists
     and victim choice, beyond the k-edge/LRU cells above. *)
  @
  let tight = max 1 (Cfg.Graph.total_bytes g / 8) in
  List.concat_map
      (fun (s, strategy) ->
        List.concat_map
          (fun (r, retention) ->
            let cell = Printf.sprintf "retention.%s.%s" s r in
            let run ?budget () =
              engine (make ~strategy ~retention ?budget ~compress_k:4 ())
            in
            [ (cell, run ()); (cell ^ "-budget", run ~budget:tight ()) ])
          [
            ("loop-aware", Residency.Policy.Loop_aware { weight = 2 });
            ( "pin-hot",
              Residency.Policy.Pin_hot
                { pinned = Cfg.Profile.hot_blocks profile ~fraction:0.1 } );
            ("clock", Residency.Policy.Clock);
          ])
      [
        ("on-demand", Core.Policy.On_demand);
        ("pre-all", all 2);
        ("pre-single", single by_profile);
      ]

let pin_digest run =
  let buf = Buffer.create 65536 in
  let sink =
    Sim.Events.callback (fun e ->
        Buffer.add_string buf (Sim.Events.to_json e);
        Buffer.add_char buf '\n')
  in
  let m = run sink in
  Digest.to_hex
    (Digest.string (Fleet.Cache.metrics_to_string m ^ Buffer.contents buf))

let pinned_digests =
  [
    ( "dijkstra",
      [
        ("pre-all.budget", "30fa675c6dc8af5f6fd0e667ea6692a6");
        ("pre-all.clock-budget", "ba862222eec76bff99d9d39d467030d7");
        ("pre-single.budget", "a1447adaabceac175fd30c35125ce70e");
        ("pre-single.first-successor", "db7b6d33af4b23752bca1d745e2074f9");
        ("pre-single.last-taken", "413a5cc9eb59da632b7e1439e6158a0d");
        ("pre-all.recompress", "55b4aed799c812866a1859878cbe2f84");
        ("pre-all.recompress-sram", "e428a35ea0727ef7fd874bfd1471bc87");
        ("pre-single.recompress-budget", "4614144c4c063544ce5ea2dbc658fe16");
        ("pre-all.adaptive", "3536dd2917aabaf4e7ff372acf47e905");
        ("pre-all.lookahead-1", "92e866720d8c650d0dd0d7d1ac22d15c");
        ("pre-all.lookahead-3", "dd3ef786a28585c2f9e74346a4093d95");
        ("pre-all.lookahead-wide", "7059062d02007f95ada746f5c31719f7");
        ("pre-single.lookahead-1", "e9ec8cfc79b75bcc6301677c676ca10e");
        ("pre-single.lookahead-3", "71583f92f7066ce17fba9915b1e3e695");
        ("pre-single.lookahead-wide", "7fb134efaee8ad8dda1c45063f82b9e3");
        ("pre-single.last-taken-wide", "5b45c24cb65070a910ac4876fd76f1ae");
        ("lineview.pre-all", "a92254555802764203c2b36407b5a8b0");
        ("lineview.pre-single", "e617c94ed4b51bf33a7a27fc189ac141");
        ("retention.on-demand.loop-aware", "01784cbe0f15e9fb0fac74ff16ec559a");
        ("retention.on-demand.loop-aware-budget", "a4e2772a47466cff50cccbce00dc2571");
        ("retention.on-demand.pin-hot", "e66e00a1c877a3b6169b51bfe674e5bc");
        ("retention.on-demand.pin-hot-budget", "0609a5026b2ccfc3bdb5cf537950be37");
        ("retention.on-demand.clock", "b7333afb85161d76f24b268f5a5c830a");
        ("retention.on-demand.clock-budget", "d427b5b715d332fbc8388263bf3ba903");
        ("retention.pre-all.loop-aware", "210674c88ad18a0e7d27e0ca1436621a");
        ("retention.pre-all.loop-aware-budget", "02f0014629385f4618ba8a09c252a8b4");
        ("retention.pre-all.pin-hot", "cf48b479e1ba194044c8535daa87cf37");
        ("retention.pre-all.pin-hot-budget", "04e3b35cdb11bf8406114f313d09a874");
        ("retention.pre-all.clock", "3a4a60435bb824871a03a102a9465efa");
        ("retention.pre-all.clock-budget", "18a0a76c3a6933e6c64b4f680067abfd");
        ("retention.pre-single.loop-aware", "07666828a441bd6d23764983e45813af");
        ("retention.pre-single.loop-aware-budget", "7b60f1e7528ab5dadc985d35f50ae6ef");
        ("retention.pre-single.pin-hot", "25b1ddd7d1c683a3c68959e806e64cc0");
        ("retention.pre-single.pin-hot-budget", "f2024b5a7d882a483335fc6235f057d1");
        ("retention.pre-single.clock", "dcbe6d63dcafc4846b398dc4d9130977");
        ("retention.pre-single.clock-budget", "f3aee44a764a1380d1c806426b1f50af");
      ] );
    ( "vm",
      [
        ("pre-all.budget", "045907cbf13c741ca25c435548cad375");
        ("pre-all.clock-budget", "1d865d4df03ef02df32b38f2a9fba331");
        ("pre-single.budget", "7de15f7ed192b5a3dca25bda9fdde640");
        ("pre-single.first-successor", "dc7caa33f23fa69bd870e1307e9d6612");
        ("pre-single.last-taken", "68ffab1c375ebe081943643ec708dcaa");
        ("pre-all.recompress", "0a624e49cf68a247b41210c1050055dc");
        ("pre-all.recompress-sram", "70370cb33560e6a62357365c2cc15b25");
        ("pre-single.recompress-budget", "9dc579e51ab73dda80b7803760d8fa29");
        ("pre-all.adaptive", "604156b17523c5a37c5fe7f250b0f3ed");
        ("pre-all.lookahead-1", "b1d35f36c33775cd591df64d3da773d1");
        ("pre-all.lookahead-3", "0d25530133673c6df994a27c9e99c42a");
        ("pre-all.lookahead-wide", "34183a450d48186d5d69358ceac1ae5a");
        ("pre-single.lookahead-1", "d053e4cfef59793b421dd1a0e5985cd5");
        ("pre-single.lookahead-3", "7de15f7ed192b5a3dca25bda9fdde640");
        ("pre-single.lookahead-wide", "7de15f7ed192b5a3dca25bda9fdde640");
        ("pre-single.last-taken-wide", "68ffab1c375ebe081943643ec708dcaa");
        ("lineview.pre-all", "4fbbc2d34a34698106968ff2a556687a");
        ("lineview.pre-single", "e7b3bef5386e0ee1be7b3dfb438022f9");
        ("retention.on-demand.loop-aware", "a53b753846955247fbea4319478a6648");
        ("retention.on-demand.loop-aware-budget", "bc99b856ba36bc7837631eb6b36b6e89");
        ("retention.on-demand.pin-hot", "c5c204badd9afe9782f1ed1721f5d6fc");
        ("retention.on-demand.pin-hot-budget", "2fd643e17d84f4fdcefcd04473392a1c");
        ("retention.on-demand.clock", "c6a79f982ca71896207b629a98d42446");
        ("retention.on-demand.clock-budget", "8bdcf7644daba729b650f05202e7175e");
        ("retention.pre-all.loop-aware", "9c8aefcb9dc759d7390b599defaffcfc");
        ("retention.pre-all.loop-aware-budget", "3e7468d2ace66f1d0543d0fc12ba4393");
        ("retention.pre-all.pin-hot", "8befa54f07cbffcbefcf1a3d430cbc9a");
        ("retention.pre-all.pin-hot-budget", "c9f1d3b33365e1163a1c001816ad0e76");
        ("retention.pre-all.clock", "db27dfcd513cba4823f95bdd29ae5c5d");
        ("retention.pre-all.clock-budget", "018030128701f9181f9ef4015e5389f2");
        ("retention.pre-single.loop-aware", "f870c58988c53cd449c3b4ac8f68bec4");
        ("retention.pre-single.loop-aware-budget", "ee4951bcef85f937c1b4f522df15ec14");
        ("retention.pre-single.pin-hot", "c3aeab65769443960ce607336085816b");
        ("retention.pre-single.pin-hot-budget", "291c9ddd0aafe1ffef124830b98ab5ee");
        ("retention.pre-single.clock", "f903f553fa45066249d0c6589164e116");
        ("retention.pre-single.clock-budget", "108d076e1bbca9e5997c3ae25e6346a9");
      ] );
    ( "synthetic",
      [
        ("pre-all.budget", "e2a98f27138e616017f04c9bb68ba3e5");
        ("pre-all.clock-budget", "5d04bd9239dcece9f20c8851e80e1c3c");
        ("pre-single.budget", "400a6b8975de64d415b49be4864fd1d4");
        ("pre-single.first-successor", "7c861710257374b97d1aad4b7b21709b");
        ("pre-single.last-taken", "2f99f663c581a05630e9934625fa1c14");
        ("pre-all.recompress", "cd6fe32d3b2440ce8fa1d7d881d31860");
        ("pre-all.recompress-sram", "937710cc88759bfb11e4dbca9945590c");
        ("pre-single.recompress-budget", "089906844f7d5bc2140c67bd7f474c3e");
        ("pre-all.adaptive", "eb6ae2e4445418e1db232186e4f9873e");
        ("pre-all.lookahead-1", "70e4a67c202749384649adfc89736469");
        ("pre-all.lookahead-3", "eeceaca9627db497b4fd79685507fe43");
        ("pre-all.lookahead-wide", "2b13a66526beadee0e400e1bf0cc31a3");
        ("pre-single.lookahead-1", "1b80b71baa012b85d44e496ccd237721");
        ("pre-single.lookahead-3", "aa7edec1cf13c2f039ec54b13da3348d");
        ("pre-single.lookahead-wide", "9b9e974e15cca850dfcd4fa31854810a");
        ("pre-single.last-taken-wide", "63f0d7632b1c21245a5ef67f8b706eea");
        ("lineview.pre-all", "c8a0da2b38239898d30625683f77927a");
        ("lineview.pre-single", "914518810dbea0b9b0579dc803bd9055");
        ("retention.on-demand.loop-aware", "cb3226fe39ee81b94a49c26b621433a8");
        ("retention.on-demand.loop-aware-budget", "74cfb15d98beba61005f2c7941ed9197");
        ("retention.on-demand.pin-hot", "f644434001b4f642338d623db2c68676");
        ("retention.on-demand.pin-hot-budget", "f8941732fa1390d0d030a4037b032754");
        ("retention.on-demand.clock", "f30377217e18a8a72a2c61f88fae51d4");
        ("retention.on-demand.clock-budget", "e07b713ddd9d02def73e1b27ea9cd1f6");
        ("retention.pre-all.loop-aware", "e99df07718dd2b1a0c9cdca224fc59fb");
        ("retention.pre-all.loop-aware-budget", "24580823d380c70222d729b242738b1a");
        ("retention.pre-all.pin-hot", "bbaa04b8f59eaa5a45a7191c90b4096f");
        ("retention.pre-all.pin-hot-budget", "16b5527d3f10423b8ac4334e66021c05");
        ("retention.pre-all.clock", "4a7603e8be95be14b9fc13ee868f573c");
        ("retention.pre-all.clock-budget", "9e5f5ac2ca563777a6bf052ed9ae2c7d");
        ("retention.pre-single.loop-aware", "90daf9a7d3b8773a8a0df3a2b63b2237");
        ("retention.pre-single.loop-aware-budget", "e3787b818c3812c1e7d508ac655cfc41");
        ("retention.pre-single.pin-hot", "58145d984525586fb6575428de81401e");
        ("retention.pre-single.pin-hot-budget", "f0e43809d4105d9a0190fcecb147d40b");
        ("retention.pre-single.clock", "29efc63856d794571b3f15c748d3a5fc");
        ("retention.pre-single.clock-budget", "1b64898848486e2444ef548690865fd2");
      ] );
  ]

let test_pins (program, expected) () =
  let sc = pin_scenario program in
  let got = List.map (fun (cell, run) -> (cell, pin_digest run)) (pin_cells sc) in
  Alcotest.check
    Alcotest.(list (pair string string))
    (program ^ " pinned digests") expected got

(* The engine's frontier tables and table-driven picks against the
   references they replace: [Cfg.Dist.within] per block (same ids, same
   order) and [Predictor.choose] over the eligible entries, for every
   predictor. Blocks are queried in trace order, as the engine builds
   them, and then all of them. *)
let prop_frontier_tables =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 2 16 in
      let* ring = bool in
      let* extra =
        list_size (int_range 0 20)
          (pair (int_range 0 (blocks - 1)) (int_range 0 (blocks - 1)))
      in
      let* len = int_range 1 200 in
      let* seed = int_range 0 5000 in
      let* k = int_range 1 3 in
      let* mask = int_range 0 ((1 lsl blocks) - 1) in
      return (blocks, ring, extra, len, seed, k, mask))
  in
  QCheck.Test.make ~count:200 ~name:"frontier tables = reference"
    (QCheck.make gen) (fun (blocks, ring, extra, len, seed, k, mask) ->
      (* a ring, or a chain whose last block has no successor *)
      let spine =
        List.init (if ring then blocks else blocks - 1) (fun i ->
            (i, (i + 1) mod blocks))
      in
      let g = Cfg.Graph.synthetic blocks (List.sort_uniq compare (spine @ extra)) in
      let trace = Trace.Synthetic.markov ~seed g ~length:len in
      let profile = Cfg.Profile.of_trace g trace in
      let succs =
        Array.init blocks (fun b -> Array.of_list (Cfg.Graph.succ_ids g b))
      in
      let table = Core.Frontier.create ~succs ~k () in
      let profiled = Core.Frontier.create ~profile ~succs ~k () in
      let state = Core.Predictor.create_state ~blocks in
      Array.iteri
        (fun i b ->
          if i + 1 < len then
            Core.Predictor.note_edge state ~src:b ~dst:trace.(i + 1))
        trace;
      let eligible c = mask land (1 lsl c) <> 0 in
      let entries fr b =
        let off = Core.Frontier.first fr b in
        List.init (Core.Frontier.length fr b) (fun i -> Core.Frontier.id fr (off + i))
      in
      let agrees b =
        let within = List.map fst (Cfg.Dist.within g ~from:b ~k) in
        let candidates = List.filter eligible within in
        let agrees_on predictor fr =
          Core.Predictor.pick predictor state fr ~from:b ~eligible
          = Option.value ~default:(-1)
              (Core.Predictor.choose predictor state g ~from:b ~k ~candidates)
        in
        entries table b = within
        && entries profiled b = within
        && agrees_on (Core.Predictor.By_profile profile) profiled
        && agrees_on Core.Predictor.First_successor table
        && agrees_on Core.Predictor.Last_taken table
      in
      Array.for_all agrees trace && List.for_all agrees (List.init blocks Fun.id))

(* Allocation gate: the general engine path allocates at most two minor
   words per step in every cell of the benchmark's engine matrix that
   takes it (all but on-demand.kedge, the fused path). nqueens at
   k = 8, lookahead 2; each run is measured after a warm-up run of the
   same cell, and the per-run setup counts against the steps. *)
let test_alloc_gate () =
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "nqueens") in
  let profile = Core.Scenario.profile sc in
  let steps = float_of_int (Array.length sc.Core.Scenario.trace) in
  let words_per_step policy =
    ignore (Core.Scenario.run sc policy);
    let before = Gc.minor_words () in
    ignore (Core.Scenario.run sc policy);
    (Gc.minor_words () -. before) /. steps
  in
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
  let cells =
    List.concat_map
      (fun (s, strategy) ->
        List.filter_map
          (fun (r, retention) ->
            if s = "on-demand" && r = "kedge" then None
            else
              Some
                ( s ^ "." ^ r,
                  Core.Policy.make ~strategy ~retention ~compress_k:8 () ))
          retentions)
      strategies
    @ [
        ( "on-demand.kedge-budget",
          Core.Policy.make
            ~budget:(max 1 (Cfg.Graph.total_bytes sc.Core.Scenario.graph / 4))
            ~compress_k:8 () );
        ( "on-demand.kedge-recompress",
          Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:8 () );
      ]
  in
  checki "every general-path cell" 13 (List.length cells);
  let over =
    List.filter_map
      (fun (cell, policy) ->
        let w = words_per_step policy in
        if w > 2.0 then Some (Printf.sprintf "%s %.2f" cell w) else None)
      cells
  in
  if over <> [] then
    Alcotest.failf "minor words per step above the gate of 2: %s"
      (String.concat ", " over)

let () =
  Alcotest.run ~and_exit:false "core-general"
    [
      ( "pins",
        List.map
          (fun ((program, _) as pin) ->
            Alcotest.test_case program `Quick (test_pins pin))
          pinned_digests );
      ("frontier", [ qcheck prop_frontier_tables ]);
      ("alloc", [ Alcotest.test_case "words per step" `Quick test_alloc_gate ]);
    ]

(* ------------------------------------------------------------------ *)
(* Fast path (appended suite): the engine silently routes plain
   on-demand/discard/k-edge runs through a fused allocation-free loop.
   Passing any [charge_log] forces the general path, so the two can be
   run on the same scenario and compared — metrics and the full event
   stream must be indistinguishable. *)

let prop_fast_path_equivalence =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 2 14 in
      let* extra_edges =
        list_size (int_range 0 12)
          (pair (int_range 0 (blocks - 1)) (int_range 0 (blocks - 1)))
      in
      let* len = int_range 1 400 in
      let* seed = int_range 0 2000 in
      let* k = int_range 1 12 in
      return (blocks, extra_edges, len, seed, k))
  in
  QCheck.Test.make ~count:150 ~name:"fast path == general path"
    (QCheck.make gen) (fun (blocks, extra_edges, len, seed, k) ->
      let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
      let edges = List.sort_uniq compare (ring @ extra_edges) in
      let g = Cfg.Graph.synthetic blocks edges in
      let trace = Trace.Synthetic.markov ~seed g ~length:len in
      let sc = Core.Scenario.of_graph g ~trace in
      let policy = Core.Policy.on_demand ~k in
      let fast_col = Sim.Events.collector () in
      let fast =
        Core.Scenario.run ~sink:(Sim.Events.collecting fast_col) sc policy
      in
      let gen_col = Sim.Events.collector () in
      let general =
        Core.Scenario.run
          ~sink:(Sim.Events.collecting gen_col)
          ~charge_log:(fun _ _ -> ())
          sc policy
      in
      fast = general
      && Sim.Events.collected fast_col = Sim.Events.collected gen_col)

(* Same comparison on the counting sink (the tag-byte tally path). *)
let test_fast_path_counts () =
  let g, trace =
    Trace.Synthetic.hot_cold ~hot_blocks:5 ~cold_blocks:9 ~hot_iters:7
      ~cold_visit_every:4 ()
  in
  let sc = Core.Scenario.of_graph g ~trace in
  let policy = Core.Policy.on_demand ~k:3 in
  let fast = Sim.Events.counters () in
  let m1 = Core.Scenario.run ~sink:(Sim.Events.counting fast) sc policy in
  let general = Sim.Events.counters () in
  let m2 =
    Core.Scenario.run
      ~sink:(Sim.Events.counting general)
      ~charge_log:(fun _ _ -> ())
      sc policy
  in
  checkb "metrics agree" true (m1 = m2);
  checkb "counts agree" true
    (Sim.Events.counts fast = Sim.Events.counts general);
  checki "same last time" (Sim.Events.last_time general)
    (Sim.Events.last_time fast)

let () =
  Alcotest.run "core-fastpath"
    [
      ( "fastpath",
        [
          qcheck prop_fast_path_equivalence;
          Alcotest.test_case "counting sink" `Quick test_fast_path_counts;
        ] );
    ]
