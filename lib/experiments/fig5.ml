type step = { label : string; action : string }

type outcome = {
  steps : (step * string) list;  (* snapshot summary per step *)
  final_ok : bool;
}

let replay () =
  let g = Paper_figures.fig5 () in
  let sc = Paper_figures.scenario ~name:"fig5" g ~trace:Paper_figures.fig5_trace in
  let c = Sim.Events.collector () in
  let m =
    Core.Scenario.run ~sink:(Sim.Events.collecting c) sc
      (Core.Policy.on_demand ~k:2)
  in
  (* The memory image follows the engine's own stream: a demand
     decompression adds the block's copy, a discard deletes it. *)
  let resident = Array.make (Array.length sc.info) false in
  let decompressed = ref 0 and patched_back = ref 0 in
  let usize b = sc.info.(b).Core.Engine.uncompressed_bytes in
  let summary () =
    let names =
      List.filter_map
        (fun b -> if resident.(b) then Some (Printf.sprintf "B%d'" b) else None)
        (List.init (Array.length resident) Fun.id)
    in
    Printf.sprintf "resident: {%s}; decompressed %dB; footprint %dB"
      (String.concat ", " names) !decompressed
      (m.Core.Metrics.compressed_area_bytes + !decompressed)
  in
  let steps = ref [] in
  let snap label action = steps := ({ label; action }, summary ()) :: !steps in
  snap "(1)" "initial image: all blocks compressed, PC at B0";
  (* Each step's events end with the [Exec] of its block. *)
  let notes = ref [] and decompressed_now = ref false in
  let note s = notes := s :: !notes in
  List.iter
    (fun (ev : Sim.Events.t) ->
      match ev with
      | Discard { block; patched_back = p; _ } ->
        resident.(block) <- false;
        decompressed := !decompressed - usize block;
        patched_back := !patched_back + p;
        note
          (Printf.sprintf "delete B%d' (%d branch sites patched back)" block p)
      | Exception _ -> note "exception"
      | Demand_decompress { block; _ } ->
        resident.(block) <- true;
        decompressed := !decompressed + usize block;
        decompressed_now := true;
        note (Printf.sprintf "decompress B%d into B%d'" block block)
      | Patch { target; site; _ } ->
        note
          (Printf.sprintf "%s branch in B%d' to B%d'"
             (if !decompressed_now then "patch" else "handler patches")
             site target)
      | Exec { block; _ } ->
        if !notes = [] then
          note (Printf.sprintf "direct branch to B%d', no exception" block);
        snap
          (Printf.sprintf "(%d)" (List.length !steps + 1))
          (Printf.sprintf "execute B%d: %s" block
             (String.concat "; " (List.rev !notes)));
        notes := [];
        decompressed_now := false
      | Prefetch_issue _ | Stall _ | Unpatch _ | Evict _ | Recompress_queued _
      | Flush _ -> ())
    (Sim.Events.collected c);
  let final_ok =
    resident = [| false; true; false; true |]
    && !patched_back = 1
    && m.Core.Metrics.compressed_area_bytes
       = Array.fold_left
           (fun acc i -> acc + i.Core.Engine.compressed_bytes)
           0 sc.info
  in
  { steps = List.rev !steps; final_ok }

let holds () = (replay ()).final_ok

let run () =
  let { steps; final_ok } = replay () in
  let t =
    Report.Table.create
      ~title:
        "E5 / Figure 5: memory image over the access pattern B0, B1, B0, \
         B1, B3 (k=2)"
      ~columns:
        [
          ("step", Report.Table.Left);
          ("action", Report.Table.Left);
          ("memory state", Report.Table.Left);
        ]
  in
  List.iter
    (fun ({ label; action }, state) ->
      Report.Table.add_row t [ label; action; state ])
    steps;
  Report.Table.add_row t
    [
      "";
      Printf.sprintf
        "verdict: final residents {B1', B3'}, B0' deleted with 1 patch-back \
         = %b"
        final_ok;
      "";
    ];
  t
