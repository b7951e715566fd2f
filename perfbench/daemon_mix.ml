(* daemon-mix: an in-process Service.Server (Unix socket, jobs = 2,
   fresh Fleet.Cache directory) driven by a separate generator process
   in a closed loop over two connections, each with a window of two
   pipelined requests. Every request is a [sim]: about four in five
   repeat a job already answered (warm: wire, admission, cache read),
   about one in five is a job never sent before (cold: scenario or
   corpus build, the engine, a cache write).

   The generator is this executable re-run with [--generator]; it
   prints one JSON summary line that the server side reads back. *)

module Json = Service.Json

let name = "daemon-mix"
let connections = 2
let window = 2
let jobs = 2

(* ------------------------------------------------------------------ *)
(* The seeded request stream                                           *)

(* The hand-written suite programs: their cold runs stay within a few
   milliseconds of each other, so the seed's choice of cold jobs does
   not move the mix's cost. The larger programs (nqueens, vm, collatz,
   life) run a cold pre-single job for tens to thousands of
   milliseconds, and a handful of those would set a run's throughput. *)
let programs =
  [
    "fir"; "crc32"; "matmul"; "bsort"; "dijkstra"; "fsm"; "adpcm"; "dct";
    "qsort"; "strsearch"; "histogram"; "rotmix";
  ]

let gen_shapes =
  [
    "depth=1,fanout=2,blocks=geo:8,calls=0,skew=0.9,cold=4,rounds=4";
    "depth=2,fanout=3,blocks=uni:2-6,calls=1,skew=0.8,cold=6,rounds=3";
  ]

(* Every cold job the stream may send, in a seeded order: 14 scenarios
   x 3 strategies x 4 retentions x 2 modes x 32 values of k, and no
   budget or one of two budgets (not for pin-hot, whose pinned set may
   alone exceed a small budget): 26880 jobs, more than a run at several
   thousand requests a second can use up, so the mix stays one in five
   cold to the end. *)
let cold_pool seed =
  let rng = Corpus.Prng.create seed in
  let scenarios =
    programs
    @ List.map
        (fun shape ->
          Corpus.Spec.to_string
            (Corpus.Spec.of_string_exn
               (Printf.sprintf "gen:seed=%d,%s" (Corpus.Prng.int rng 1_000_000)
                  shape)))
        gen_shapes
  in
  let each xs f = List.concat_map f xs in
  let space =
    each scenarios @@ fun w ->
    each [ "on-demand"; "pre-all"; "pre-single" ] @@ fun strategy ->
    each [ "kedge"; "loop-aware"; "clock"; "pin-hot" ] @@ fun retention ->
    each [ "discard"; "recompress" ] @@ fun mode ->
    each
      (if retention = "pin-hot" then [ [] ]
       else [ []; [ ("budget", Json.Int 64) ]; [ ("budget", Json.Int 256) ] ])
    @@ fun budget ->
    each (List.init 32 (fun i -> i + 1)) @@ fun k ->
    [
      [
        ("workload", Json.Str w);
        ("k", Json.Int k);
        ("strategy", Json.Str strategy);
        ("retention", Json.Str retention);
        ("mode", Json.Str mode);
      ]
      @ budget;
    ]
  in
  let a = Array.of_list space in
  for i = Array.length a - 1 downto 1 do
    let j = Corpus.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let request_line ~id body =
  Json.to_string (Json.Obj (("op", Json.Str "sim") :: ("id", Json.Int id) :: body))

(* ------------------------------------------------------------------ *)
(* Generator process                                                   *)

(* What the generator hands back, marshalled over a pipe (both ends are
   this executable). *)
type summary = {
  sent : int;
  errors : int;  (** error replies, unparseable replies, lost replies *)
  wall_s : float;  (** first send to last reply *)
  samples : (float * bool * float) list;
      (** per ok reply: latency ms, cached, seconds since first send *)
  spans : (int * float * float) list;  (** traced: request id, send, reply *)
  cold : (string * string) list;
      (** traced: request line and reply metrics of every uncached reply *)
  stats : Json.t;  (** the [stats] op payload, after the last reply *)
}

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable outstanding : int;
  mutable dead : bool;
}

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* Complete lines that arrived on [c], or [None] at end of stream. *)
let read_lines c =
  let chunk = Bytes.create 65536 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> None
  | n ->
    Buffer.add_subbytes c.buf chunk 0 n;
    let s = Buffer.contents c.buf in
    let lines = String.split_on_char '\n' s in
    let rec split acc = function
      | [ rest ] ->
        Buffer.clear c.buf;
        Buffer.add_string c.buf rest;
        List.rev acc
      | l :: tl -> split (l :: acc) tl
      | [] -> List.rev acc
    in
    Some (split [] lines)

let generator_main args =
  let socket, seed, seconds, traced =
    match args with
    | [ s; seed; secs; tr ] -> (s, int_of_string seed, float_of_string secs, tr = "1")
    | _ ->
      prerr_endline "perfbench --generator SOCKET SEED SECONDS TRACE";
      exit 2
  in
  let conns =
    Array.init connections (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        { fd; buf = Buffer.create 4096; outstanding = 0; dead = false })
  in
  (* connected: the server side's set-up ends here *)
  print_char 'R';
  flush stdout;
  let pool = cold_pool seed in
  let rng = Corpus.Prng.create (seed + 1) in
  let next_cold = ref 0 in
  let answered = ref [||] and n_answered = ref 0 in
  let remember job =
    if !n_answered = Array.length !answered then
      answered := Array.append !answered (Array.make (max 64 !n_answered) 0);
    !answered.(!n_answered) <- job;
    incr n_answered
  in
  (* per request id: send time and the pool index of its job *)
  let sent = Hashtbl.create 4096 in
  let next_id = ref 0 in
  let send c =
    let job =
      if !n_answered = 0 || Corpus.Prng.int rng 5 = 0 then begin
        (* a new job, or a warm one once the pool is used up *)
        if !next_cold < Array.length pool then begin
          incr next_cold;
          Some (!next_cold - 1)
        end
        else if !n_answered > 0 then
          Some !answered.(Corpus.Prng.int rng !n_answered)
        else None
      end
      else Some !answered.(Corpus.Prng.int rng !n_answered)
    in
    match job with
    | None -> ()
    | Some job ->
      let id = !next_id in
      incr next_id;
      Hashtbl.replace sent id (Util.now (), job);
      write_all c.fd (request_line ~id pool.(job) ^ "\n");
      c.outstanding <- c.outstanding + 1
  in
  let samples = ref [] and errors = ref 0 and spans = ref [] and cold = ref [] in
  let seen = Hashtbl.create 1024 in
  let started = Util.now () in
  let deadline = started +. seconds in
  let last_reply = ref started in
  let handle c line =
    let t1 = Util.now () in
    c.outstanding <- c.outstanding - 1;
    last_reply := t1;
    match Service.Wire.parse_response line with
    | Ok (id, Ok payload) -> (
      match Option.bind (Json.to_int id) (Hashtbl.find_opt sent) with
      | Some (t0, job) ->
        let id = Option.get (Json.to_int id) in
        let cached =
          Option.value ~default:false
            (Option.bind (Json.member "cached" payload) Json.to_bool)
        in
        samples := (1000.0 *. (t1 -. t0), cached, t1 -. started) :: !samples;
        if traced then begin
          spans := (id, t0, t1) :: !spans;
          if not cached then
            cold :=
              ( request_line ~id pool.(job),
                Json.to_string
                  (Option.value ~default:Json.Null (Json.member "metrics" payload))
              )
              :: !cold
        end;
        if not (Hashtbl.mem seen job) then begin
          Hashtbl.replace seen job ();
          remember job
        end
      | None -> incr errors)
    | Ok (_, Error e) ->
      prerr_endline ("perfbench: generator: error reply: " ^ e.Service.Wire.code ^ " " ^ e.msg);
      incr errors
    | Error msg ->
      prerr_endline ("perfbench: generator: " ^ msg);
      incr errors
  in
  Array.iter (fun c -> for _ = 1 to window do send c done) conns;
  let live () =
    Array.to_list conns
    |> List.filter (fun c -> (not c.dead) && c.outstanding > 0)
  in
  let rec loop () =
    match live () with
    | [] -> ()
    | cs ->
      let ready, _, _ =
        try Unix.select (List.map (fun c -> c.fd) cs) [] [] 1.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            match read_lines c with
            | None ->
              errors := !errors + c.outstanding;
              c.outstanding <- 0;
              c.dead <- true
            | Some lines ->
              List.iter
                (fun l ->
                  if l <> "" then begin
                    handle c l;
                    if Util.now () < deadline then send c
                  end)
                lines)
        cs;
      loop ()
  in
  loop ();
  (* the server's own counters, after every reply is in *)
  let stats =
    let c = conns.(0) in
    write_all c.fd "{\"op\":\"stats\",\"id\":-1}\n";
    let rec wait () =
      match read_lines c with
      | Some (l :: _) when l <> "" -> (
        match Service.Wire.parse_response l with
        | Ok (_, Ok payload) -> payload
        | _ -> Json.Null)
      | Some _ -> wait ()
      | None -> Json.Null
    in
    wait ()
  in
  Array.iter (fun c -> Unix.close c.fd) conns;
  Marshal.to_channel stdout
    {
      sent = !next_id;
      errors = !errors;
      wall_s = !last_reply -. started;
      samples = List.rev !samples;
      spans = List.rev !spans;
      cold = List.rev !cold;
      stats;
    }
    [];
  flush stdout

(* ------------------------------------------------------------------ *)
(* Server side                                                         *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let session_counter = ref 0

(* A fresh cache directory and socket under the output directory. *)
let fresh_paths () =
  incr session_counter;
  let stem = Printf.sprintf "daemon-%d-%d" (Unix.getpid ()) !session_counter in
  let cache = Filename.concat Util.out_dir (stem ^ ".cache") in
  let socket = Filename.concat Util.out_dir (stem ^ ".sock") in
  remove_tree cache;
  (cache, socket)

let start_server () =
  let cache_dir, socket = fresh_paths () in
  let config =
    {
      Service.Server.default_config with
      socket_path = Some socket;
      jobs;
      cache = Some (Fleet.Cache.open_dir cache_dir);
    }
  in
  let server =
    Span.with_ "service.server.create" (fun () -> Service.Server.create config)
  in
  (server, cache_dir, socket)

let stop_server (server, cache_dir, _) runner =
  Service.Server.stop server;
  (match runner with
  | Some th -> Thread.join th
  | None -> Service.Server.run server);
  remove_tree cache_dir

let setup_reps = 15

(* Bind plus pool spawn, [setup_reps] times; the last server stays up. *)
let setup () =
  let times = ref [] and last = ref None in
  for i = 1 to setup_reps do
    let s, dt = Util.time start_server in
    times := dt :: !times;
    if i < setup_reps then stop_server s None else last := Some s
  done;
  (Option.get !last, Util.median !times)

(* Launches the generator; returns the seconds until it was connected
   and ready to send, and its summary. *)
let run_generator ~socket ~seed ~seconds ~traced =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Util.now () in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "--generator"; socket; string_of_int seed;
        Printf.sprintf "%g" seconds; (if traced then "1" else "0");
      |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out : (float * summary) option =
    try
      let ready = input_char ic in
      let launch_s = Util.now () -. t0 in
      if ready = 'R' then Some (launch_s, Marshal.from_channel ic) else None
    with End_of_file | Failure _ -> None
  in
  close_in ic;
  match (Unix.waitpid [] pid, out) with
  | (_, Unix.WEXITED 0), Some out -> out
  | _ -> failwith "daemon-mix: generator failed"

(* One server, set up afresh, under one generator run. The set-up
   time is the median server set-up plus the generator's launch until it
   is connected: everything before the first request. Returns it and
   what the generator saw. *)
let session ~seed ~seconds ~traced =
  let ((server, _, socket) as s), create_s = setup () in
  let runner = Thread.create Service.Server.run server in
  let launch_s, out =
    Fun.protect
      ~finally:(fun () -> stop_server s (Some runner))
      (fun () ->
        Span.with_ "perfbench.timed" (fun () ->
            run_generator ~socket ~seed ~seconds ~traced))
  in
  let setup_s = create_s +. launch_s in
  List.iter
    (fun (id, t0, t1) ->
      Span.add ~name:"service.request.sim" ~req:id ~start:t0 ~stop:t1)
    out.spans;
  (setup_s, out)

let field json path =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path

let path_int json path =
  Option.value ~default:(-1) (Option.bind (field json path) Json.to_int)

let path_float json path =
  Option.value ~default:Float.nan (Option.bind (field json path) Json.to_float)

let latencies ?cached s =
  List.filter_map
    (fun (ms, c, _) -> if cached = None || cached = Some c then Some ms else None)
    s.samples

(* Client-side counts must match the server's fleet counters. *)
let reconcile c s =
  let replies = List.length s.samples in
  let hits = List.length (latencies ~cached:true s) in
  let misses = replies - hits in
  let fleet k = path_int s.stats [ "fleet"; k ] in
  Util.check c (s.errors = 0) "%d requests failed or got no reply" s.errors;
  Util.check c (fleet "fleet_cache_hits" = hits) "cache hits: server %d, client %d"
    (fleet "fleet_cache_hits") hits;
  Util.check c
    (fleet "fleet_cache_misses" = misses)
    "cache misses: server %d, client %d" (fleet "fleet_cache_misses") misses;
  Util.check c
    (fleet "fleet_cache_hits" + fleet "fleet_cache_misses" = replies)
    "hits + misses %d <> sim replies %d"
    (fleet "fleet_cache_hits" + fleet "fleet_cache_misses")
    replies;
  Util.check c
    (fleet "fleet_engine_runs" = misses)
    "engine runs %d <> misses %d" (fleet "fleet_engine_runs") misses;
  Util.check c (fleet "fleet_jobs_errored" = 0) "%d jobs errored"
    (fleet "fleet_jobs_errored")

(* Wire <-> library agreement: every cold reply's metrics equal an
   in-process Fleet.Job.execute of the same job. *)
let agree c s =
  Span.with_ "perfbench.check" @@ fun () ->
  let scenarios = Hashtbl.create 32 in
  let resolve name =
    match Hashtbl.find_opt scenarios name with
    | Some sc -> sc
    | None ->
      let plain n = Workloads.Common.scenario (Workloads.Suite.find_exn n) in
      let sc =
        Span.with_ "corpus.resolve.scenario" (fun () ->
            Corpus.Resolve.scenario ~lookup:plain name)
      in
      Hashtbl.replace scenarios name sc;
      sc
  in
  List.iter
    (fun (line, reply) ->
      match Service.Wire.parse_request line with
      | Ok { Service.Wire.request = Service.Wire.Sim job; _ } ->
        let m =
          Span.with_ "fleet.job.execute" (fun () ->
              Fleet.Job.execute (resolve job.Fleet.Job.scenario) job)
        in
        let mine = Json.to_string (Service.Wire.metrics_to_json m) in
        let theirs =
          match Json.parse reply with Ok j -> Json.to_string j | Error _ -> reply
        in
        Util.check c (mine = theirs) "wire and library disagree on %s" line
      | _ -> Util.check c false "unparseable request %s" line)
    s.cold

let quantile_ms lat p = Util.quantile (Util.sorted lat) p

(* Replies per second: the median over half-second windows of the
   loop (the drain after the last full window left out), so a burst of
   host contention in a few windows does not move it. *)
let window_s = 0.5

let req_per_s s =
  let n = int_of_float (s.wall_s /. window_s) in
  if n < 1 then float_of_int (List.length s.samples) /. s.wall_s
  else begin
    let counts = Array.make n 0 in
    List.iter
      (fun (_, _, at) ->
        let w = int_of_float (at /. window_s) in
        if w < n then counts.(w) <- counts.(w) + 1)
      s.samples;
    Util.median (Array.to_list (Array.map (fun k -> float_of_int k /. window_s) counts))
  end

let e2e (setup_s, s) =
  [
    Util.m "setup_s" "s" setup_s;
    Util.m "work_per_s" "1/s" (req_per_s s);
    Util.m "p50_ms" "ms" (quantile_ms (latencies s) 0.5);
    Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
  ]

let layers s =
  let all = latencies s in
  let warm = latencies ~cached:true s and cold = latencies ~cached:false s in
  let hits = path_int s.stats [ "fleet"; "fleet_cache_hits" ] in
  let misses = path_int s.stats [ "fleet"; "fleet_cache_misses" ] in
  let rejections =
    match Json.member "rejections" s.stats with
    | Some (Json.Obj kv) ->
      Util.sum_int (fun (_, v) -> Option.value ~default:0 (Json.to_int v)) kv
    | _ -> -1
  in
  [
    Util.m "fleet.cache.hit_ratio" "ratio"
      (float_of_int hits /. float_of_int (hits + misses));
    Util.m "fleet.engine_runs" "count"
      (float_of_int (path_int s.stats [ "fleet"; "fleet_engine_runs" ]));
    Util.m "service.requests" "count" (float_of_int (List.length all));
    Util.m "service.p99_ms" "ms" (quantile_ms all 0.99);
    Util.m "service.warm.p50_ms" "ms" (quantile_ms warm 0.5);
    Util.m "service.cold.p50_ms" "ms" (quantile_ms cold 0.5);
    Util.m "service.cold.p99_ms" "ms" (quantile_ms cold 0.99);
    Util.m "service.sim.server_p50_ms" "ms"
      (path_float s.stats [ "ops"; "sim"; "p50_ms" ]);
    Util.m "service.rejections" "count" (float_of_int rejections);
    Util.m "service.refused" "count"
      (float_of_int (path_int s.stats [ "connections"; "refused" ]));
  ]

let value name ms = (List.find (fun (m : Util.metric) -> m.name = name) ms).value

let run ~seed ~seconds ~traced =
  let c = Util.checks () in
  let attempted = ref 0 in
  let one ~traced ~seconds =
    let ((_, s) as r) = session ~seed ~seconds ~traced in
    attempted := !attempted + s.sent;
    reconcile c s;
    r
  in
  let metrics =
    if not traced then e2e (one ~traced:false ~seconds)
    else begin
      (* half untraced, half traced: the difference is the tracing
         overhead *)
      let plain = e2e (one ~traced:false ~seconds:(seconds /. 2.0)) in
      let ((_, s) as r) = one ~traced:true ~seconds:(seconds /. 2.0) in
      agree c s;
      let t = e2e r in
      layers s
      @ [
          Util.m "trace.overhead.work_per_s" "1/s"
            (value "work_per_s" t -. value "work_per_s" plain);
          Util.m "trace.overhead.p50_ms" "ms"
            (value "p50_ms" t -. value "p50_ms" plain);
        ]
    end
  in
  { Util.attempted = !attempted + c.attempted; failed = c.failed; metrics }
