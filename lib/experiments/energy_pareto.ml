let profile = "sram-heavy"
let default_ks = [ 1; 2; 4; 8; 16; 32 ]

type optimum = { workload : string; cycles_opt_k : int; energy_opt_k : int }

(* Strict < keeps the earliest minimum, and the k axis is ascending,
   so ties resolve to the smallest k — the cheaper image. *)
let argmin_k value rows =
  match rows with
  | [] -> invalid_arg "Energy_pareto: no rows for workload"
  | first :: rest ->
    let best =
      List.fold_left
        (fun best row -> if value row < value best then row else best)
        first rest
    in
    let job, _ = best in
    job.Fleet.Job.k

let sweep ks =
  let names =
    List.map (fun sc -> sc.Core.Scenario.name) (Util.scenarios ())
  in
  let jobs =
    Fleet.Sweep.matrix ~scenarios:names ~ks (Fleet.Job.make ~profile ~k:1 ())
  in
  let results = Util.fleet_sweep jobs in
  List.map
    (fun name ->
      ( name,
        List.filter
          (fun ((j : Fleet.Job.t), _) -> j.scenario = name)
          results ))
    names

let optima_of per_workload =
  List.map
    (fun (workload, rows) ->
      {
        workload;
        cycles_opt_k =
          argmin_k (fun (_, m) -> m.Core.Metrics.total_cycles) rows;
        energy_opt_k = argmin_k (fun (_, m) -> m.Core.Metrics.energy_nj) rows;
      })
    per_workload

let optima ?(ks = default_ks) () = optima_of (sweep ks)
let divergent = List.filter (fun o -> o.cycles_opt_k <> o.energy_opt_k)

let run_with ~ks () =
  let per_workload = sweep ks in
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "E18: energy/cycles Pareto sweep under the %s device profile - \
            where the energy-optimal k leaves the cycles-optimal k"
           profile)
      ~columns:
        [
          ("workload", Report.Table.Left);
          ("k", Report.Table.Right);
          ("cycles", Report.Table.Right);
          ("energy (nJ)", Report.Table.Right);
          ("peak bytes", Report.Table.Right);
          ("pareto", Report.Table.Left);
          ("optimal", Report.Table.Left);
          ("diverges", Report.Table.Left);
        ]
  in
  List.iter
    (fun (workload, rows) ->
      let o = List.hd (optima_of [ (workload, rows) ]) in
      (* Front over the three reported objectives, all minimized. *)
      let points =
        List.map
          (fun ((job : Fleet.Job.t), (m : Core.Metrics.t)) ->
            {
              Report.Pareto.label = string_of_int job.k;
              values =
                [
                  ("cycles", float_of_int m.total_cycles);
                  ("energy-nj", float_of_int m.energy_nj);
                  ("peak-bytes", float_of_int m.peak_footprint_bytes);
                ];
            })
          rows
      in
      let front = Report.Pareto.front points in
      List.iter2
        (fun ((job : Fleet.Job.t), (m : Core.Metrics.t)) point ->
          let k = job.k in
          let optimal =
            match (k = o.cycles_opt_k, k = o.energy_opt_k) with
            | true, true -> "cycles+energy"
            | true, false -> "cycles"
            | false, true -> "energy"
            | false, false -> ""
          in
          Report.Table.add_row t
            [
              workload;
              string_of_int k;
              string_of_int m.total_cycles;
              string_of_int m.energy_nj;
              string_of_int m.peak_footprint_bytes;
              (if List.memq point front then "*" else "");
              optimal;
              (if o.cycles_opt_k <> o.energy_opt_k && k = o.energy_opt_k
               then "yes"
               else "");
            ])
        rows points)
    per_workload;
  t

let run () = run_with ~ks:default_ks ()
