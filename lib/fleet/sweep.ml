type outcome = {
  job : Job.t;
  result : (Core.Metrics.t, string) result;
  cached : bool;
}

let counter_names =
  [
    "fleet_jobs_submitted";
    "fleet_jobs_completed";
    "fleet_cache_hits";
    "fleet_cache_misses";
    "fleet_engine_runs";
    "fleet_jobs_errored";
  ]

let run ?(jobs = 1) ?pool ?cache ?registry ?progress ?fuel ?timeout_ms ?cancel
    ~resolve specs =
  let specs = Array.of_list specs in
  let n = Array.length specs in
  (* Content-address dedup: equal keys are one engine run (or one
     cache hit), fanned back out to every submission slot. *)
  let rep_of_key = Hashtbl.create (2 * n) in
  let reps = ref [] in
  let nreps = ref 0 in
  let slot_rep = Array.make n (-1) in
  Array.iteri
    (fun i spec ->
      let key = Job.key spec in
      match Hashtbl.find_opt rep_of_key key with
      | Some r -> slot_rep.(i) <- r
      | None ->
        Hashtbl.add rep_of_key key !nreps;
        reps := (key, spec) :: !reps;
        slot_rep.(i) <- !nreps;
        incr nreps)
    specs;
  let reps = Array.of_list (List.rev !reps) in
  let results = Array.make (Array.length reps) None in
  (* Cache pass (calling domain): hits never reach the pool. *)
  let misses = ref [] in
  Array.iteri
    (fun r (key, _spec) ->
      match Option.bind cache (fun c -> Cache.find c key) with
      | Some m -> results.(r) <- Some (Ok m, true)
      | None -> misses := r :: !misses)
    reps;
  let misses = List.rev !misses in
  (* Scenario resolution (calling domain): once per distinct
     (scenario, codec) pair among the misses. Workers only ever read
     the prebuilt scenarios; a failed resolve fails exactly the jobs
     that needed it, without touching the pool. *)
  let scenarios = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let _, (spec : Job.t) = reps.(r) in
      let sk = (spec.scenario, spec.codec) in
      if not (Hashtbl.mem scenarios sk) then
        Hashtbl.replace scenarios sk
          (match resolve ~scenario:spec.scenario ~codec:spec.codec with
          | sc -> Ok sc
          | exception e ->
            Error
              (Printf.sprintf "cannot resolve scenario %s (codec %s): %s"
                 spec.scenario spec.codec (Printexc.to_string e))))
    misses;
  let resolvable, unresolvable =
    List.partition
      (fun r ->
        let _, (spec : Job.t) = reps.(r) in
        Result.is_ok (Hashtbl.find scenarios (spec.scenario, spec.codec)))
      misses
  in
  (* Progress: one JSONL object per completed job, emitted under a
     mutex (workers call this concurrently). *)
  let pmutex = Mutex.create () in
  let pseq = ref 0 in
  let emit key spec status =
    match progress with
    | None -> ()
    | Some p ->
      Mutex.lock pmutex;
      incr pseq;
      let line =
        Printf.sprintf
          {|{"kind": "fleet_job", "at": %d, "key": "%s", "job": "%s", "scenario": "%s", "status": "%s"}|}
          !pseq
          (Report.Table.json_escape key)
          (Report.Table.json_escape (Job.describe spec))
          (Report.Table.json_escape spec.Job.scenario)
          status
      in
      (try p line with e -> Mutex.unlock pmutex; raise e);
      Mutex.unlock pmutex
  in
  Array.iteri
    (fun r (key, spec) ->
      match results.(r) with
      | Some (_, true) -> emit key spec "cache-hit"
      | _ -> ())
    reps;
  List.iter
    (fun r ->
      let key, (spec : Job.t) = reps.(r) in
      let msg =
        match Hashtbl.find scenarios (spec.scenario, spec.codec) with
        | Error msg -> msg
        | Ok _ -> assert false (* partitioned into [resolvable] *)
      in
      results.(r) <- Some (Error msg, false);
      emit key spec "error")
    unresolvable;
  (* Engine runs: through the pool when jobs > 1, inline otherwise —
     identical guard and isolation semantics either way. *)
  let exec b r =
    let key, (spec : Job.t) = reps.(r) in
    let sc =
      match Hashtbl.find scenarios (spec.scenario, spec.codec) with
      | Ok sc -> sc
      | Error _ -> assert false (* filtered into [unresolvable] *)
    in
    let sink = Sim.Events.callback (fun _ -> Pool.tick b) in
    match Job.execute ~sink sc spec with
    | m ->
      emit key spec "ok";
      m
    | exception e ->
      emit key spec "error";
      raise e
  in
  let miss_results =
    match pool with
    | Some p -> Pool.map ?fuel ?timeout_ms ?cancel p exec resolvable
    | None ->
      if jobs <= 1 then
        Pool.run_sequential ?fuel ?timeout_ms ?cancel exec resolvable
      else
        Pool.with_pool ~jobs (fun p ->
            Pool.map ?fuel ?timeout_ms ?cancel p exec resolvable)
  in
  (* Write-back and result fan-out on the calling domain. *)
  List.iter2
    (fun r res ->
      let key, _spec = reps.(r) in
      (match (res, cache) with
      | Ok m, Some c -> Cache.store c key m
      | _ -> ());
      results.(r) <- Some (res, false))
    resolvable miss_results;
  let outcomes =
    Array.to_list
      (Array.mapi
         (fun i spec ->
           let result, cached =
             match results.(slot_rep.(i)) with
             | Some rc -> rc
             | None -> (Error "job never ran", false)
           in
           { job = spec; result; cached })
         specs)
  in
  (match registry with
  | None -> ()
  | Some reg ->
    let bump name by =
      if by > 0 then Sim.Metrics.incr ~by (Sim.Metrics.counter reg name)
      else ignore (Sim.Metrics.counter reg name)
    in
    let count p = List.length (List.filter p outcomes) in
    bump "fleet_jobs_submitted" n;
    bump "fleet_jobs_completed" (count (fun o -> Result.is_ok o.result));
    bump "fleet_cache_hits" (count (fun o -> o.cached));
    bump "fleet_cache_misses" (count (fun o -> not o.cached));
    bump "fleet_engine_runs" (List.length resolvable);
    bump "fleet_jobs_errored" (count (fun o -> Result.is_error o.result)));
  outcomes

let default_ks = [ 1; 2; 4; 8; 16; 32 ]

let matrix ?(codecs = [ Job.default_codec ]) ?(strategies = [ Job.On_demand ])
    ?(modes = [ Job.Discard ]) ?(budgets = [ None ])
    ?(retentions = [ Job.Kedge ]) ?(profiles = [ Job.default_profile ])
    ?(line_sizes = [ None ]) ~scenarios ~ks () =
  List.concat_map
    (fun scenario ->
      List.concat_map
        (fun k ->
          List.concat_map
            (fun codec ->
              List.concat_map
                (fun strategy ->
                  List.concat_map
                    (fun mode ->
                      List.concat_map
                        (fun budget ->
                          List.concat_map
                            (fun retention ->
                              List.concat_map
                                (fun profile ->
                                  List.map
                                    (fun line_size ->
                                      Job.make ~codec ~strategy ~mode ?budget
                                        ~retention ~profile ?line_size
                                        ~scenario ~k ())
                                    line_sizes)
                                profiles)
                            retentions)
                        budgets)
                    modes)
                strategies)
            codecs)
        ks)
    scenarios

let normalize_ks ks = List.sort_uniq compare ks

let shard ~shards ~index xs =
  if shards < 1 || index < 0 || index >= shards then
    invalid_arg
      (Printf.sprintf "Fleet.Sweep.shard: index %d not in [0, %d)" index
         shards);
  List.filteri (fun i _ -> i mod shards = index) xs
