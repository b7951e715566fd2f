(* Tests for the comparison baselines: granularity regrouping,
   cold-code compression and the scheme comparison rows. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let dct () = Workloads.Common.scenario (Workloads.Suite.find_exn "dct")
let fir () = Workloads.Common.scenario (Workloads.Suite.find_exn "fir")

(* ------------------------------------------------------------------ *)
(* Granularity                                                         *)

let test_procedures_of_dct () =
  let sc = dct () in
  let prog = Option.get sc.Core.Scenario.program in
  let g = Baselines.Granularity.procedures_of_program prog sc.Core.Scenario.graph in
  checki "dct has two procedures" 2 g.Baselines.Granularity.num_units;
  checki "assignment covers all blocks"
    (Cfg.Graph.num_blocks sc.Core.Scenario.graph)
    (Array.length g.Baselines.Granularity.unit_of_block);
  (* unit ids dense and ordered by address *)
  checki "entry block in unit 0" 0 g.Baselines.Granularity.unit_of_block.(0);
  checkb "some block in unit 1" true
    (Array.exists (fun u -> u = 1) g.Baselines.Granularity.unit_of_block)

let test_procedures_of_leaf_program () =
  let sc = fir () in
  let prog = Option.get sc.Core.Scenario.program in
  let g = Baselines.Granularity.procedures_of_program prog sc.Core.Scenario.graph in
  checki "no calls means one unit" 1 g.Baselines.Granularity.num_units

let test_whole_program () =
  let sc = fir () in
  let g = Baselines.Granularity.whole_program sc.Core.Scenario.graph in
  checki "one unit" 1 g.Baselines.Granularity.num_units;
  checkb "all zero" true
    (Array.for_all (fun u -> u = 0) g.Baselines.Granularity.unit_of_block)

let test_regroup_conservation () =
  let sc = dct () in
  let prog = Option.get sc.Core.Scenario.program in
  let g = Baselines.Granularity.procedures_of_program prog sc.Core.Scenario.graph in
  let unit_graph, unit_info, unit_trace, step_cycles =
    Baselines.Granularity.regroup sc g
  in
  checki "unit graph size" g.Baselines.Granularity.num_units
    (Cfg.Graph.num_blocks unit_graph);
  (* Total uncompressed bytes are conserved. *)
  let block_bytes =
    Array.fold_left
      (fun a (i : Core.Engine.block_info) -> a + i.uncompressed_bytes)
      0 sc.Core.Scenario.info
  in
  let unit_bytes =
    Array.fold_left
      (fun a (i : Core.Engine.block_info) -> a + i.uncompressed_bytes)
      0 unit_info
  in
  checki "bytes conserved" block_bytes unit_bytes;
  (* Total execution cycles are conserved exactly via step_cycles. *)
  let block_cycles =
    Array.fold_left
      (fun a b -> a + sc.Core.Scenario.info.(b).Core.Engine.exec_cycles)
      0 sc.Core.Scenario.trace
  in
  let stay_cycles = Array.fold_left ( + ) 0 step_cycles in
  checki "cycles conserved" block_cycles stay_cycles;
  (* Stays collapse consecutive same-unit blocks. *)
  checkb "no adjacent duplicate units" true
    (let ok = ref true in
     Array.iteri
       (fun i u -> if i > 0 && unit_trace.(i - 1) = u then ok := false)
       unit_trace;
     !ok);
  checki "step_cycles matches trace" (Array.length unit_trace)
    (Array.length step_cycles)

let test_granularity_run () =
  let sc = dct () in
  let prog = Option.get sc.Core.Scenario.program in
  let grouping =
    Baselines.Granularity.procedures_of_program prog sc.Core.Scenario.graph
  in
  let m = Baselines.Granularity.run sc grouping (Core.Policy.on_demand ~k:8) in
  let block_m = Core.Scenario.run sc (Core.Policy.on_demand ~k:8) in
  checki "same baseline cycles" block_m.Core.Metrics.baseline_cycles
    m.Core.Metrics.baseline_cycles;
  (* The paper's §6 claim: block granularity keeps the average
     footprint lower than procedure granularity. *)
  checkb "block granularity saves more on average" true
    (block_m.Core.Metrics.avg_footprint_bytes
    < m.Core.Metrics.avg_footprint_bytes)

(* ------------------------------------------------------------------ *)
(* Cold code                                                           *)

let test_cold_code () =
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fsm") in
  let r = Baselines.Cold_code.run sc in
  let n = Cfg.Graph.num_blocks sc.Core.Scenario.graph in
  checki "hot + cold = all" n (r.Baselines.Cold_code.hot_blocks + r.cold_blocks);
  checkb "some cold blocks" true (r.Baselines.Cold_code.cold_blocks > 0);
  checkb "static below original" true
    (let original =
       Array.fold_left
         (fun a (i : Core.Engine.block_info) -> a + i.uncompressed_bytes)
         0 sc.Core.Scenario.info
     in
     r.Baselines.Cold_code.static_bytes < original + r.buffer_bytes + 1);
  checkb "overhead nonnegative" true (Baselines.Cold_code.overhead_ratio r >= 0.0);
  checkb "decompressions happen" true (r.Baselines.Cold_code.decompressions > 0);
  (* more hot coverage -> fewer decompressions *)
  let tight = Baselines.Cold_code.run ~hot_fraction:0.5 sc in
  checkb "smaller hot set decompresses more" true
    (tight.Baselines.Cold_code.decompressions
    >= r.Baselines.Cold_code.decompressions)

let test_cold_code_all_hot () =
  let sc = fir () in
  let r = Baselines.Cold_code.run ~hot_fraction:1.0 sc in
  (* With every executed block hot, only never-executed blocks remain
     cold; runtime overhead must be zero. *)
  checki "no decompressions" 0 r.Baselines.Cold_code.decompressions;
  Alcotest.check (Alcotest.float 1e-9) "zero overhead" 0.0
    (Baselines.Cold_code.overhead_ratio r)

(* The buffer's event stream: one exec per trace step, an exception
   and a demand decompression per fill, the previous occupant
   discarded before every fill but the first. bsort's 5501 events
   cross a chunk boundary; the digest is the stream's JSONL. *)
let test_cold_code_events () =
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "bsort") in
  let c = Sim.Events.counters () and col = Sim.Events.collector () in
  let sink = Sim.Events.tee [ Sim.Events.counting c; Sim.Events.collecting col ] in
  let r = Baselines.Cold_code.run ~hot_fraction:0.5 ~sink sc in
  let dec = r.Baselines.Cold_code.decompressions in
  checki "execs" (Array.length sc.Core.Scenario.trace) (Sim.Events.count c "exec");
  checki "exceptions" dec (Sim.Events.count c "exception");
  checki "demand decompressions" dec (Sim.Events.count c "demand_decompress");
  checki "discards" (dec - 1) (Sim.Events.count c "discard");
  checki "total" 5501 (Sim.Events.total c);
  Alcotest.(check string)
    "stream digest" "6d7097bbe6b02022daca0946430a9980"
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.map Sim.Events.to_json (Sim.Events.collected col)))))

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

let test_comparison_rows () =
  let sc = dct () in
  let rows = Baselines.Comparison.rows sc in
  let schemes = List.map (fun r -> r.Baselines.Comparison.scheme) rows in
  checki "six schemes for program scenarios" 6 (List.length rows);
  checkb "contains ours" true (List.mem "block/k-edge" schemes);
  checkb "contains procedure" true (List.mem "procedure/k-edge" schemes);
  checkb "contains cold-code" true (List.mem "cold-code-static" schemes);
  let no_comp = List.find (fun r -> r.Baselines.Comparison.scheme = "no-compression") rows in
  Alcotest.check (Alcotest.float 1e-9) "no-compression has zero overhead" 0.0
    no_comp.Baselines.Comparison.overhead;
  List.iter
    (fun r ->
      checkb
        (r.Baselines.Comparison.scheme ^ " footprint positive")
        true
        (r.Baselines.Comparison.peak_footprint > 0
        && r.Baselines.Comparison.avg_footprint > 0.0))
    rows

let test_comparison_synthetic_scenario () =
  (* Without a program, the procedure row disappears. *)
  let g = Cfg.Graph.synthetic 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let sc = Core.Scenario.of_graph g ~trace:(Array.init 40 (fun i -> i mod 4)) in
  let rows = Baselines.Comparison.rows sc in
  checki "five schemes for synthetic scenarios" 5 (List.length rows);
  checkb "no procedure row" true
    (not
       (List.exists
          (fun r -> r.Baselines.Comparison.scheme = "procedure/k-edge")
          rows))

let () =
  Alcotest.run "baselines"
    [
      ( "granularity",
        [
          Alcotest.test_case "procedures of dct" `Quick test_procedures_of_dct;
          Alcotest.test_case "leaf program" `Quick
            test_procedures_of_leaf_program;
          Alcotest.test_case "whole program" `Quick test_whole_program;
          Alcotest.test_case "regroup conservation" `Quick
            test_regroup_conservation;
          Alcotest.test_case "procedure-level run" `Quick test_granularity_run;
        ] );
      ( "cold-code",
        [
          Alcotest.test_case "fsm" `Quick test_cold_code;
          Alcotest.test_case "all hot" `Quick test_cold_code_all_hot;
          Alcotest.test_case "event stream" `Quick test_cold_code_events;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "program rows" `Quick test_comparison_rows;
          Alcotest.test_case "synthetic rows" `Quick
            test_comparison_synthetic_scenario;
        ] );
    ]
