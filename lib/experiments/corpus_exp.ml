(* E20: is the retention-policy ranking an artifact of the 8-workload
   suite, or does it survive contact with programs nobody hand-picked?
   Four shape families × many seeds produce a corpus of generated
   programs (Corpus.Gen); every program runs under each retention
   policy at one k, through the fleet so the corpus caches and
   parallelizes like any sweep. The table reports, per family, how
   often each policy wins (min total cycles) and how concentrated the
   wins are — a modal share near 1.0 means the suite ranking
   generalizes, near 1/3 means the policy choice is shape noise. *)

let compress_k = 8
let policies = [ "kedge"; "loop-aware"; "clock" ]

(* One base spec per family; seeds vary per program. The families pull
   the generator's knobs in different directions so the corpus is not
   200 rephrasings of one shape. *)
let families =
  [
    ("loopy", "gen:depth=4,fanout=2,blocks=geo:14,calls=0,skew=0.95,cold=8,rounds=6");
    ("branchy", "gen:depth=1,fanout=6,blocks=bim:4-40,calls=0,skew=0.7,cold=12,rounds=8");
    ("call-heavy", "gen:depth=2,fanout=2,blocks=geo:10,calls=4,skew=0.85,cold=6,rounds=6");
    ("flat", "gen:depth=1,fanout=1,blocks=uni:8-24,calls=1,skew=0.55,cold=24,rounds=10");
  ]

let default_count = 200

(* The check.sh smoke (and anyone iterating) shrinks the corpus via
   the environment rather than a code edit. *)
let count () =
  match Sys.getenv_opt "CCOMP_E20_COUNT" with
  | None -> default_count
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= List.length families -> n
    | _ ->
      invalid_arg
        (Printf.sprintf "CCOMP_E20_COUNT must be an int >= %d: %S"
           (List.length families) s))

let specs () =
  let total = count () in
  let per_family = total / List.length families in
  List.concat_map
    (fun (family, base) ->
      let spec = Corpus.Spec.of_string_exn base in
      List.init per_family (fun i ->
          (family, Corpus.Spec.to_string { spec with Corpus.Spec.seed = i + 1 })))
    families

type row = {
  family : string;
  programs : int;
  wins : (string * int) list;  (* policy -> programs it won *)
}

let rows () =
  let corpus = specs () in
  let jobs =
    List.concat_map
      (fun (_, scenario) ->
        List.map
          (fun policy ->
            (policy, Util.retention_job ~k:compress_k ~scenario policy))
          policies)
      corpus
  in
  let cycles = Hashtbl.create 512 in
  List.iter2
    (fun (policy, (job : Fleet.Job.t)) (_, m) ->
      Hashtbl.replace cycles (job.scenario, policy) m.Core.Metrics.total_cycles)
    jobs
    (Util.fleet_sweep (List.map snd jobs));
  let winner scenario =
    List.fold_left
      (fun best policy ->
        let c = Hashtbl.find cycles (scenario, policy) in
        match best with
        | Some (_, bc) when bc <= c -> best
        | _ -> Some (policy, c))
      None policies
    |> Option.get |> fst
  in
  List.map
    (fun (family, _) ->
      let members =
        List.filter_map
          (fun (f, scenario) -> if f = family then Some scenario else None)
          corpus
      in
      let wins =
        List.map
          (fun policy ->
            ( policy,
              List.length
                (List.filter (fun sc -> winner sc = policy) members) ))
          policies
      in
      { family; programs = List.length members; wins })
    families

let modal row =
  List.fold_left
    (fun ((_, bn) as best) ((_, n) as cand) -> if n > bn then cand else best)
    ("-", -1) row.wins

let run () =
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "E20 corpus robustness: retention wins over %d generated programs \
            (k=%d)"
           (List.length (specs ()))
           compress_k)
      ~columns:
        ([ ("family", Report.Table.Left); ("programs", Report.Table.Right) ]
        @ List.map
            (fun p -> (p ^ " wins", Report.Table.Right))
            policies
        @ [
            ("modal policy", Report.Table.Left);
            ("modal share", Report.Table.Right);
          ])
  in
  let rows = rows () in
  List.iter
    (fun row ->
      let name, n = modal row in
      Report.Table.add_row t
        ([ row.family; Report.Table.fmt_int row.programs ]
        @ List.map
            (fun p -> Report.Table.fmt_int (List.assoc p row.wins))
            policies
        @ [
            name;
            Report.Table.fmt_pct
              (float_of_int n /. float_of_int (max 1 row.programs));
          ]))
    rows;
  (* the aggregate row answers the headline question in one line *)
  let total = List.fold_left (fun a r -> a + r.programs) 0 rows in
  let total_wins p =
    List.fold_left (fun a r -> a + List.assoc p r.wins) 0 rows
  in
  let all = { family = "all"; programs = total; wins = List.map (fun p -> (p, total_wins p)) policies } in
  let name, n = modal all in
  Report.Table.add_row t
    ([ "all"; Report.Table.fmt_int total ]
    @ List.map (fun p -> Report.Table.fmt_int (total_wins p)) policies
    @ [ name; Report.Table.fmt_pct (float_of_int n /. float_of_int (max 1 total)) ]);
  t
