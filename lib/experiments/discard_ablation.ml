(* Replays the engine's allocation/free sequence against a first-fit
   heap sized to the run's own peak, measuring how fragmented the
   decompressed area gets. *)
let fragmentation sc policy =
  let events, log = Util.collect_events () in
  let m = Core.Scenario.run ~sink:(Sim.Events.callback log) sc policy in
  let peak = max m.Core.Metrics.peak_decompressed_bytes 1 in
  let heap = Memsim.Heap.create ~capacity:peak in
  let offsets = Hashtbl.create 16 in
  let usize b = sc.Core.Scenario.info.(b).Core.Engine.uncompressed_bytes in
  let max_frag = ref 0.0 and failures = ref 0 in
  let alloc b =
    if not (Hashtbl.mem offsets b) then begin
      match Memsim.Heap.alloc heap (usize b) with
      | Some off -> Hashtbl.replace offsets b off
      | None -> incr failures
    end
  in
  let free b =
    match Hashtbl.find_opt offsets b with
    | Some off ->
      Memsim.Heap.free heap off;
      Hashtbl.remove offsets b
    | None -> ()
  in
  List.iter
    (fun ev ->
      (match (ev : Core.Engine.event) with
      | Demand_decompress { block; _ } | Prefetch_issue { block; _ } ->
        alloc block
      | Discard { block; _ } | Evict { block; _ } -> free block
      | Exec _ | Exception _ | Stall _ | Patch _ | Unpatch _
      | Recompress_queued _ | Flush _ -> ());
      let f = Memsim.Heap.external_fragmentation heap in
      if f > !max_frag then max_frag := f)
    (List.rev !events);
  (!max_frag, !failures)

let run () =
  let t =
    Report.Table.create
      ~title:
        "E9: Discard (paper's s5 implementation) vs. Recompress (s3 \
         narrative), k=4 on-demand"
      ~columns:
        [
          ("workload", Report.Table.Left);
          ("mode", Report.Table.Left);
          ("overhead", Report.Table.Right);
          ("avg mem saving", Report.Table.Right);
          ("comp thread busy", Report.Table.Right);
          ("max frag", Report.Table.Right);
          ("alloc failures", Report.Table.Right);
        ]
  in
  List.iter
    (fun sc ->
      List.iter
        (fun (mname, mode) ->
          let policy = Core.Policy.make ~mode ~compress_k:4 () in
          let m = Util.run sc policy in
          let frag, failures = fragmentation sc policy in
          Report.Table.add_row t
            [
              sc.Core.Scenario.name;
              mname;
              Report.Table.fmt_pct (Core.Metrics.overhead_ratio m);
              Report.Table.fmt_pct (Core.Metrics.avg_memory_saving m);
              string_of_int m.Core.Metrics.comp_thread_busy_cycles;
              Report.Table.fmt_pct frag;
              string_of_int failures;
            ])
        [ ("discard", Core.Policy.Discard); ("recompress", Core.Policy.Recompress) ])
    (Util.scenarios ());
  t
