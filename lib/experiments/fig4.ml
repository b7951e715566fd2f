let trace = [| 0; 1; 3; 6; 7; 9 |]

let events () =
  let g = Paper_figures.fig2 () in
  let sc = Paper_figures.scenario ~name:"fig4" g ~trace in
  let events, log = Util.collect_events () in
  let policy =
    Core.Policy.make ~mode:Core.Policy.Recompress
      ~strategy:(Core.Policy.Pre_all { lookahead = 2 })
      ~compress_k:2 ()
  in
  let _ = Core.Scenario.run ~sink:(Sim.Events.callback log) sc policy in
  List.rev !events

let thread_of (ev : Core.Engine.event) =
  match ev with
  | Exec _ | Exception _ | Stall _ | Patch _ | Unpatch _ | Demand_decompress _
    ->
    "execution"
  | Prefetch_issue _ -> "decompression"
  | Discard _ | Evict _ | Recompress_queued _ | Flush _ -> "compression"

let holds () =
  let evs = events () in
  let exec_times = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match (ev : Core.Engine.event) with
      | Exec { block; at } ->
        let prev = Hashtbl.find_opt exec_times block in
        Hashtbl.replace exec_times block
          (match prev with Some (first, _) -> (first, at) | None -> (at, at))
      | Exception _ | Demand_decompress _ | Prefetch_issue _ | Stall _
      | Patch _ | Unpatch _ | Discard _ | Evict _ | Recompress_queued _
      | Flush _ -> ())
    evs;
  List.for_all
    (fun ev ->
      match (ev : Core.Engine.event) with
      | Prefetch_issue { block; at; _ } -> (
        match Hashtbl.find_opt exec_times block with
        | Some (first_exec, _) -> at <= first_exec
        | None -> true (* prefetched but never reached: ahead by definition *))
      | Recompress_queued { block; at; _ } -> (
        match Hashtbl.find_opt exec_times block with
        | Some (_, last_exec) -> at >= last_exec
        | None -> true (* wasted prefetch retired without executing *))
      | Exec _ | Exception _ | Demand_decompress _ | Stall _ | Patch _
      | Unpatch _ | Discard _ | Evict _ | Flush _ -> true)
    evs

let run () =
  let t =
    Report.Table.create
      ~title:
        "E4 / Figure 4: three-thread cooperation (pre-all k=2, recompress \
         k=2 on the highlighted path B0-B1-B3-B6-B7-B9)"
      ~columns:
        [
          ("cycle", Report.Table.Right);
          ("thread", Report.Table.Left);
          ("action", Report.Table.Left);
        ]
  in
  List.iter
    (fun ev ->
      Report.Table.add_row t
        [
          string_of_int (Util.event_time ev);
          thread_of ev;
          Util.event_to_string ev;
        ])
    (events ());
  Report.Table.add_row t
    [
      "";
      "";
      Printf.sprintf
        "verdict: decompression runs ahead, compression trails behind = %b"
        (holds ());
    ];
  t
