let cache = ref None

let scenarios () =
  match !cache with
  | Some s -> s
  | None ->
    let s = Workloads.Suite.scenarios () in
    cache := Some s;
    s

let scenario name =
  match
    List.find_opt (fun sc -> sc.Core.Scenario.name = name) (scenarios ())
  with
  | Some sc -> sc
  | None -> invalid_arg (Printf.sprintf "Experiments.Util.scenario: %S" name)

let collect_events () =
  let events = ref [] in
  (events, fun ev -> events := ev :: !events)

let event_time = Sim.Events.time
let event_to_string = Sim.Events.describe

let run sc policy = Core.Scenario.run sc policy

(* ------------------------------------------------------------------ *)
(* Fleet plumbing: every sweeping experiment funnels its runs through
   here, so one configuration call (from ccomp/bench/tests) turns the
   whole table-regeneration pass parallel and/or cached. Default is
   sequential and uncached — byte-identical to the pre-fleet code. *)

type fleet_config = {
  mutable jobs : int;
  mutable cache : Fleet.Cache.t option;
  mutable registry : Sim.Metrics.t option;
  mutable progress : (string -> unit) option;
}

let fleet = { jobs = 1; cache = None; registry = None; progress = None }

let configure_fleet ?(jobs = 1) ?cache ?registry ?progress () =
  if jobs < 1 then invalid_arg "Experiments.Util.configure_fleet: jobs < 1";
  fleet.jobs <- jobs;
  fleet.cache <- cache;
  fleet.registry <- registry;
  fleet.progress <- progress

let resolve_plain ~scenario:name ~codec =
  match Fleet.Job.registry_codec codec with
  | None -> scenario name
  | Some codec ->
    Workloads.Common.scenario ~codec (Workloads.Suite.find_exn name)

(* The fleet's scenario resolver: plain workload names, [gen:]
   generator specs and [multi:] compositions all resolve here, so a
   generated program sweeps and caches exactly like a suite one. *)
let resolve ~scenario:name ~codec =
  if Corpus.Resolve.is_spec name then
    Corpus.Resolve.scenario
      ~lookup:(fun n -> resolve_plain ~scenario:n ~codec)
      ?codec:(Fleet.Job.registry_codec codec)
      name
  else resolve_plain ~scenario:name ~codec

let retention_job ?budget ~k ~scenario policy =
  let module K = Fleet.Job.Knob in
  let settings =
    [ (K.retention, K.Str policy); (K.k, K.Int k) ]
    @ Option.fold ~none:[] ~some:(fun b -> [ (K.budget, K.Int b) ]) budget
  in
  match Fleet.Job.of_settings settings with
  | Ok build -> build ~scenario
  | Error msg -> invalid_arg msg

let fleet_sweep specs =
  Fleet.Sweep.run ~jobs:fleet.jobs ?cache:fleet.cache ?registry:fleet.registry
    ?progress:fleet.progress ~resolve specs
  |> List.map (fun (o : Fleet.Sweep.outcome) ->
         match o.result with
         | Ok m -> (o.job, m)
         | Error msg ->
           failwith
             (Printf.sprintf "fleet job failed (%s): %s"
                (Fleet.Job.describe o.job) msg))
