let trace = [| 0; 1; 3; 6; 7; 9 |]

let events () =
  let g = Paper_figures.fig2 () in
  let sc = Paper_figures.scenario ~name:"fig2" g ~trace in
  let events, log = Util.collect_events () in
  let _ =
    Core.Scenario.run ~sink:(Sim.Events.callback log) sc (Core.Policy.pre_all ~k:100 ~lookahead:3)
  in
  List.rev !events

(* The prefetch of B7 must be issued after B1 executes and before B3
   does (i.e., on the edge leaving B1). *)
let holds () =
  let rec scan after_b1 = function
    | [] -> false
    | ev :: rest -> (
      match (ev : Core.Engine.event) with
      | Exec { block = 1; _ } -> scan true rest
      | Prefetch_issue { block = 7; _ } -> after_b1
      | Exec { block = 3; _ } -> false
      | Exec _ | Exception _ | Demand_decompress _ | Prefetch_issue _
      | Stall _ | Patch _ | Unpatch _ | Discard _ | Evict _
      | Recompress_queued _ | Flush _ ->
        scan after_b1 rest)
  in
  scan false (events ())

let run () =
  let t =
    Report.Table.create
      ~title:
        "E2 / Figure 2: with k=3, B7 is pre-decompressed when execution \
         exits B1 (d(B1 exit -> B7) = 3: B1->B3->B6->B7)"
      ~columns:[ ("cycle", Report.Table.Right); ("event", Report.Table.Left) ]
  in
  List.iter
    (fun ev ->
      Report.Table.add_row t
        [ string_of_int (Util.event_time ev); Util.event_to_string ev ])
    (events ());
  Report.Table.add_row t
    [ ""; Printf.sprintf "verdict: B7 prefetched on exiting B1 = %b" (holds ()) ];
  t
