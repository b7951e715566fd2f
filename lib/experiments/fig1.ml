let events () =
  let g = Paper_figures.fig1 () in
  let sc = Paper_figures.scenario ~name:"fig1" g ~trace:Paper_figures.fig1_trace in
  let events, log = Util.collect_events () in
  let _ = Core.Scenario.run ~sink:(Sim.Events.callback log) sc (Core.Policy.on_demand ~k:2) in
  List.rev !events

(* B1's copy must be discarded after B3 executes and before B4 does. *)
let holds () =
  let rec scan saw_b3_exec discarded_b1 = function
    | [] -> false
    | ev :: rest -> (
      match (ev : Core.Engine.event) with
      | Exec { block = 3; _ } -> scan true discarded_b1 rest
      | Discard { block = 1; _ } -> scan saw_b3_exec saw_b3_exec rest
      | Exec { block = 4; _ } -> discarded_b1
      | Exec _ | Exception _ | Demand_decompress _ | Prefetch_issue _
      | Stall _ | Patch _ | Unpatch _ | Discard _ | Evict _
      | Recompress_queued _ | Flush _ ->
        scan saw_b3_exec discarded_b1 rest)
  in
  scan false false (events ())

let run () =
  let t =
    Report.Table.create
      ~title:
        "E1 / Figure 1: 2-edge algorithm compresses B1 on entering B4 \
         (trace B0 -a-> B1 ... B3 -b-> B4, k=2)"
      ~columns:[ ("cycle", Report.Table.Right); ("event", Report.Table.Left) ]
  in
  List.iter
    (fun ev ->
      Report.Table.add_row t
        [ string_of_int (Util.event_time ev); Util.event_to_string ev ])
    (events ());
  Report.Table.add_row t
    [ ""; Printf.sprintf "verdict: B1 compressed before B4 executes = %b" (holds ()) ];
  t
