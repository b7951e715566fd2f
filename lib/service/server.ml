type config = {
  socket_path : string option;
  tcp_port : int option;
  jobs : int;
  queue : int;
  max_conns : int;
  cache : Fleet.Cache.t option;
  fuel : int option;
  timeout_ms : int option;
  idle_timeout_s : float option;
  drain_grace_s : float;
  max_request_bytes : int;
  max_buffer_bytes : int;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    jobs = 1;
    queue = 64;
    max_conns = 64;
    cache = None;
    fuel = None;
    timeout_ms = None;
    idle_timeout_s = None;
    drain_grace_s = 10.0;
    max_request_bytes = Wire.default_max_request_bytes;
    max_buffer_bytes = 4 * 1024 * 1024;
  }

type listener = { lfd : Unix.file_descr; descr : string }

(* One multiplexed connection, owned by the loop. [pending] counts
   heavy requests admitted on this connection whose completions have
   not been delivered yet; responses for them may land out of order.
   [scanned] is how far into rbuf the line framer already looked for
   a newline, so a slow dribbler costs one scan per byte, not one
   scan per byte per byte. *)
type conn = {
  serial : int;
  fd : Unix.file_descr;
  rbuf : Iobuf.t;
  wbuf : Iobuf.t;
  mutable scanned : int;
  mutable dropping : bool;  (* mid-oversized-line: eat until '\n' *)
  mutable eof : bool;
  mutable shed : bool;  (* slow consumer: wrote the error, now closing *)
  mutable shed_deadline : float;
  mutable dead : bool;  (* hard I/O error: close without ceremony *)
  mutable pending : int;
}

(* A finished heavy request, handed from its worker thread back to
   the loop (which owns admission, telemetry ordering and the write
   buffers). *)
type completion = {
  c_serial : int;
  c_op : string;
  c_t0 : float;
  c_ok : bool;
  c_line : string;
  c_thread : Thread.t;
}

(* Preformatted health response: constant bytes except three
   fixed-width numeric fields patched in place per request. *)
type health_template = {
  t_bytes : Bytes.t;
  o_uptime : int;
  o_in_flight : int;
  o_conns : int;
}

type t = {
  config : config;
  listeners : listener list;
  pool : Fleet.Pool.t;
  admission : Admission.t;
  tele : Telemetry.t;
  life : Lifecycle.t;
  started_at : float;
  (* loop-owned: serial -> conn *)
  conns : (int, conn) Hashtbl.t;
  mutable conn_serial : int;
  (* completions crossing from worker threads into the loop; the
     self-pipe wakes the select *)
  comp_mutex : Mutex.t;
  completions : completion Queue.t;
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  wake_buf : Bytes.t;
  (* fast-path state *)
  health_ok : health_template;
  health_draining : health_template;
  mutable stats_cache : (int * Bytes.t) option;
  (* scenario memo: the warm state a resident server exists for;
     resolution happens on worker threads, hence the mutex *)
  scen_mutex : Mutex.t;
  scenarios : (string * string, Core.Scenario.t) Hashtbl.t;
}

let telemetry t = t.tele
let lifecycle t = t.life
let endpoints t = List.map (fun l -> l.descr) t.listeners

(* ------------------------------------------------------------------ *)
(* Binding                                                             *)

let bind_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    Unix.unlink path (* stale socket from a crashed predecessor *)
  | _ -> raise (Sys_error (path ^ ": exists and is not a socket"))
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  { lfd = fd; descr = "unix:" ^ path }

let bind_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  (* port 0 asks the kernel for an ephemeral port; report the real one *)
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  { lfd = fd; descr = Printf.sprintf "tcp:127.0.0.1:%d" port }

(* ------------------------------------------------------------------ *)
(* In-place numeric patches

   JSON forbids leading zeros, so fixed-width fields are left-aligned
   and padded with trailing spaces — the parser skips them as
   inter-token whitespace. *)

let int_pad_width = 12

let patch_int buf pos width v =
  let v = if v < 0 then 0 else v in
  let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
  let d = min width (digits v) in
  let rec put i n =
    if i >= 0 then begin
      Bytes.unsafe_set buf (pos + i) (Char.unsafe_chr (48 + (n mod 10)));
      put (i - 1) (n / 10)
    end
  in
  put (d - 1) v;
  Bytes.fill buf (pos + d) (width - d) ' '

let uptime_pad_width = 20

(* seconds with millisecond resolution, e.g. "12.345" *)
let patch_uptime buf pos seconds =
  let ms = int_of_float (seconds *. 1000.0) in
  let ms = if ms < 0 then 0 else ms in
  let s = ms / 1000 and frac = ms mod 1000 in
  let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
  let d = min (uptime_pad_width - 4) (digits s) in
  let rec put i n =
    if i >= 0 then begin
      Bytes.unsafe_set buf (pos + i) (Char.unsafe_chr (48 + (n mod 10)));
      put (i - 1) (n / 10)
    end
  in
  put (d - 1) s;
  Bytes.unsafe_set buf (pos + d) '.';
  Bytes.unsafe_set buf (pos + d + 1) (Char.unsafe_chr (48 + (frac / 100)));
  Bytes.unsafe_set buf (pos + d + 2) (Char.unsafe_chr (48 + (frac / 10 mod 10)));
  Bytes.unsafe_set buf (pos + d + 3) (Char.unsafe_chr (48 + (frac mod 10)));
  Bytes.fill buf (pos + d + 4) (uptime_pad_width - d - 4) ' '

let build_health_template ~status ~pool_jobs ~queue_capacity ~cache_dir =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"status\":";
  Buffer.add_string b (Json.to_string (Json.Str status));
  Buffer.add_string b ",\"protocol\":";
  Buffer.add_string b (string_of_int Wire.protocol_version);
  Buffer.add_string b ",\"uptime_s\":";
  let o_uptime = Buffer.length b in
  Buffer.add_string b (String.make uptime_pad_width ' ');
  Buffer.add_string b ",\"pool_jobs\":";
  Buffer.add_string b (string_of_int pool_jobs);
  Buffer.add_string b ",\"queue_capacity\":";
  Buffer.add_string b (string_of_int queue_capacity);
  Buffer.add_string b ",\"in_flight\":";
  let o_in_flight = Buffer.length b in
  Buffer.add_string b (String.make int_pad_width ' ');
  Buffer.add_string b ",\"connections\":";
  let o_conns = Buffer.length b in
  Buffer.add_string b (String.make int_pad_width ' ');
  Buffer.add_string b ",\"cache_dir\":";
  Buffer.add_string b (Json.to_string cache_dir);
  Buffer.add_char b '}';
  { t_bytes = Buffer.to_bytes b; o_uptime; o_in_flight; o_conns }

(* [select] takes descriptors below FD_SETSIZE only (1024 with glibc)
   and fails the whole call with EINVAL on any other. *)
let fd_setsize = 1024

let max_conns_limit = fd_setsize - 64

(* A Unix descriptor is its int index. *)
let fd_index (fd : Unix.file_descr) : int = Obj.magic fd

let create ?telemetry:tele ?lifecycle:life config =
  if config.socket_path = None && config.tcp_port = None then
    invalid_arg "Service.Server.create: no endpoint (need a socket or a port)";
  if config.jobs < 1 then
    invalid_arg "Service.Server.create: jobs must be >= 1";
  if config.queue < 0 then
    invalid_arg "Service.Server.create: queue must be >= 0";
  if config.max_conns > max_conns_limit then
    invalid_arg
      (Printf.sprintf
         "Service.Server.create: max_conns must be <= %d (select handles \
          descriptors below %d only; got %d)"
         max_conns_limit fd_setsize config.max_conns);
  if config.max_request_bytes < 1024 then
    invalid_arg "Service.Server.create: max_request_bytes must be >= 1024";
  if config.max_buffer_bytes < 16 * 1024 then
    invalid_arg "Service.Server.create: max_buffer_bytes must be >= 16384";
  let life = match life with Some l -> l | None -> Lifecycle.create () in
  let tele = match tele with Some t -> t | None -> Telemetry.create () in
  (* Even without Lifecycle.install_signal_handlers (tests, bench):
     never let a disappearing client kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listeners =
    (match config.socket_path with Some p -> [ bind_unix p ] | None -> [])
    @ (match config.tcp_port with Some p -> [ bind_tcp p ] | None -> [])
  in
  List.iter (fun l -> Unix.set_nonblock l.lfd) listeners;
  let wake_rd, wake_wr = Unix.pipe () in
  Unix.set_nonblock wake_rd;
  Unix.set_nonblock wake_wr;
  let pool = Fleet.Pool.create ~jobs:config.jobs in
  let cache_dir =
    match config.cache with
    | Some c -> Json.Str (Fleet.Cache.dir c)
    | None -> Json.Null
  in
  let template status =
    build_health_template ~status ~pool_jobs:(Fleet.Pool.size pool)
      ~queue_capacity:(config.jobs + config.queue) ~cache_dir
  in
  {
    config;
    listeners;
    pool;
    admission =
      Admission.create
        ~capacity:(config.jobs + config.queue)
        ~max_conns:config.max_conns ();
    tele;
    life;
    started_at = Unix.gettimeofday ();
    conns = Hashtbl.create 64;
    conn_serial = 0;
    comp_mutex = Mutex.create ();
    completions = Queue.create ();
    wake_rd;
    wake_wr;
    wake_buf = Bytes.create 256;
    health_ok = template "ok";
    health_draining = template "draining";
    stats_cache = None;
    scen_mutex = Mutex.create ();
    scenarios = Hashtbl.create 16;
  }

let stop t = Lifecycle.request_drain t.life

(* ------------------------------------------------------------------ *)
(* Self-pipe                                                           *)

let wake_byte = Bytes.make 1 '!'

let wake t =
  (* a full pipe means the loop is already signalled; any other error
     means it is tearing down — both are fine to ignore *)
  try ignore (Unix.write t.wake_wr wake_byte 0 1) with Unix.Unix_error _ -> ()

let drain_wake t =
  let rec go () =
    match Unix.read t.wake_rd t.wake_buf 0 (Bytes.length t.wake_buf) with
    | n -> if n = Bytes.length t.wake_buf then go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)

let resolve_scenario t ~scenario ~codec =
  Mutex.lock t.scen_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.scen_mutex)
    (fun () ->
      let key = (scenario, codec) in
      match Hashtbl.find_opt t.scenarios key with
      | Some sc -> sc
      | None ->
        let codec = Fleet.Job.registry_codec codec in
        let plain name =
          Workloads.Common.scenario ?codec (Workloads.Suite.find_exn name)
        in
        let sc =
          if Corpus.Resolve.is_spec scenario then
            Corpus.Resolve.scenario ~lookup:plain ?codec scenario
          else plain scenario
        in
        Hashtbl.replace t.scenarios key sc;
        sc)

(* Request guards: the request may only tighten the server defaults,
   never escape them. *)
let effective req_v cfg_v =
  match (req_v, cfg_v) with
  | Some r, Some c -> Some (min r c)
  | Some r, None -> Some r
  | None, c -> c

let run_jobs t (env : Wire.envelope) jobs =
  let registry = Sim.Metrics.create () in
  let outcomes =
    Fleet.Sweep.run ~pool:t.pool ?cache:t.config.cache ~registry
      ?fuel:(effective env.fuel t.config.fuel)
      ?timeout_ms:(effective env.timeout_ms t.config.timeout_ms)
      ~cancel:(fun () -> Lifecycle.cancel_requested t.life)
      ~resolve:(fun ~scenario ~codec -> resolve_scenario t ~scenario ~codec)
      jobs
  in
  Telemetry.absorb_fleet t.tele registry;
  outcomes

let block_bytes (sc : Core.Scenario.t) =
  Array.to_list
    (Array.map
       (fun (b : Cfg.Graph.block) ->
         match sc.program with
         | Some prog ->
           Eris.Program.slice_bytes prog ~lo:b.addr ~hi:(b.addr + b.byte_size)
         | None ->
           Core.Scenario.synthetic_block_bytes ~id:b.id ~size:b.byte_size)
       (Cfg.Graph.blocks sc.graph))

let compress_payload t ~workload ~codec =
  let sc = resolve_scenario t ~scenario:workload ~codec:Fleet.Job.default_codec
  in
  let blocks = block_bytes sc in
  let codecs =
    match codec with
    | Some c -> [ Compress.Registry.find_exn c ]
    | None -> Compress.Registry.all ()
  in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ( "codecs",
        Json.List
          (List.map
             (fun codec ->
               let s = Compress.Stats.measure codec blocks in
               Json.Obj
                 [
                   ("codec", Json.Str s.Compress.Stats.codec_name);
                   ("blocks", Json.Int s.Compress.Stats.blocks);
                   ("original_bytes", Json.Int s.Compress.Stats.original_bytes);
                   ( "compressed_bytes",
                     Json.Int s.Compress.Stats.compressed_bytes );
                   ("ratio", Json.Float s.Compress.Stats.ratio);
                   ( "best_block_ratio",
                     Json.Float s.Compress.Stats.best_block_ratio );
                   ( "worst_block_ratio",
                     Json.Float s.Compress.Stats.worst_block_ratio );
                 ])
             codecs) );
    ]

(* Slow-path (fully parsed) payloads: requests the fast scanner
   declines — extra fields, escaped ids — still answer identically
   in substance, just through the JSON printer. *)

let health_payload t =
  Json.Obj
    [
      ("status", Json.Str (if Lifecycle.draining t.life then "draining" else "ok"));
      ("protocol", Json.Int Wire.protocol_version);
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
      ("pool_jobs", Json.Int (Fleet.Pool.size t.pool));
      ("queue_capacity", Json.Int (Admission.capacity t.admission));
      ("in_flight", Json.Int (Admission.in_flight t.admission));
      ("connections", Json.Int (Admission.connections t.admission));
      ( "cache_dir",
        match t.config.cache with
        | Some c -> Json.Str (Fleet.Cache.dir c)
        | None -> Json.Null );
    ]

let stats_payload t =
  match Telemetry.stats_json t.tele with
  | Json.Obj fields ->
    Json.Obj
      (("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at))
      :: fields)
  | other -> other

(* The op tag for telemetry, including for requests that failed
   parsing (labelled by their error code instead). *)
let op_name : Wire.request -> string = function
  | Wire.Health -> "health"
  | Wire.Stats -> "stats"
  | Wire.Sim _ -> "sim"
  | Wire.Sweep _ -> "sweep"
  | Wire.Compress _ -> "compress"

(* Executes one admitted heavy request (on a worker thread, not the
   loop). Returns whether it succeeded and the response line. *)
let dispatch_heavy t (env : Wire.envelope) =
  match env.request with
  | Wire.Sim job -> (
    match run_jobs t env [ job ] with
    | [ outcome ] -> (
      match outcome.Fleet.Sweep.result with
      | Ok _ -> (true, Wire.ok_line ~id:env.id (Wire.outcome_to_json outcome))
      | Error msg ->
        ( false,
          Wire.error_line ~id:env.id
            (Wire.err (Wire.classify_run_error msg) msg) ))
    | _ ->
      (false, Wire.error_line ~id:env.id (Wire.err Wire.internal "lost the job")))
  | Wire.Sweep jobs ->
    let outcomes = run_jobs t env jobs in
    let failed =
      List.length
        (List.filter
           (fun (o : Fleet.Sweep.outcome) -> Result.is_error o.result)
           outcomes)
    in
    ( true,
      Wire.ok_line ~id:env.id
        (Json.Obj
           [
             ("count", Json.Int (List.length outcomes));
             ("failed", Json.Int failed);
             ("jobs", Json.List (List.map Wire.outcome_to_json outcomes));
           ]) )
  | Wire.Compress { workload; codec } -> (
    let task _budget () = compress_payload t ~workload ~codec in
    match
      Fleet.Pool.map
        ?fuel:(effective env.fuel t.config.fuel)
        ?timeout_ms:(effective env.timeout_ms t.config.timeout_ms)
        ~cancel:(fun () -> Lifecycle.cancel_requested t.life)
        t.pool task [ () ]
    with
    | [ Ok payload ] -> (true, Wire.ok_line ~id:env.id payload)
    | [ Error msg ] ->
      ( false,
        Wire.error_line ~id:env.id
          (Wire.err (Wire.classify_run_error msg) msg) )
    | _ ->
      (false, Wire.error_line ~id:env.id (Wire.err Wire.internal "lost the job")))
  | Wire.Health | Wire.Stats -> assert false (* not heavy; see process_slow *)

(* ------------------------------------------------------------------ *)
(* Response emission (loop side)                                       *)

let soft_cap t = t.config.max_buffer_bytes / 2

let shed_conn t conn =
  Telemetry.reject t.tele ~code:Wire.slow_consumer;
  Iobuf.add_string conn.wbuf
    (Wire.error_line ~id:Json.Null
       (Wire.err Wire.slow_consumer
          (Printf.sprintf "write buffer exceeded %d bytes; closing"
             t.config.max_buffer_bytes)));
  Iobuf.add_char conn.wbuf '\n';
  conn.shed <- true;
  conn.shed_deadline <- Unix.gettimeofday () +. 2.0

let append_response t conn line =
  if not conn.shed then begin
    Iobuf.add_string conn.wbuf line;
    Iobuf.add_char conn.wbuf '\n';
    if Iobuf.length conn.wbuf > t.config.max_buffer_bytes then shed_conn t conn
  end

(* The zero-alloc fast path: the response is template bytes with
   numeric fields patched in place, and the id (when present) is the
   raw request span echoed byte for byte. *)

let stats_prefix = "{\"uptime_s\":"

let stats_fast t =
  let v = Telemetry.version t.tele in
  let body =
    match t.stats_cache with
    | Some (v', body) when v' = v -> body
    | _ ->
      let rendered = Json.to_string (Telemetry.stats_json t.tele) in
      let b = Buffer.create (String.length rendered + 40) in
      Buffer.add_string b stats_prefix;
      Buffer.add_string b (String.make uptime_pad_width ' ');
      if String.length rendered > 2 then begin
        Buffer.add_char b ',';
        Buffer.add_substring b rendered 1 (String.length rendered - 1)
      end
      else Buffer.add_char b '}';
      let body = Buffer.to_bytes b in
      t.stats_cache <- Some (v, body);
      body
  in
  patch_uptime body (String.length stats_prefix)
    (Unix.gettimeofday () -. t.started_at);
  body

let answer_fast t conn fop id_span buf =
  Iobuf.add_string conn.wbuf "{\"id\":";
  (match id_span with
  | Some (pos, len) -> Iobuf.add_subbytes conn.wbuf buf pos len
  | None -> Iobuf.add_string conn.wbuf "null");
  Iobuf.add_string conn.wbuf ",\"ok\":";
  (match fop with
  | Wire.Fast_health ->
    let tpl =
      if Lifecycle.draining t.life then t.health_draining else t.health_ok
    in
    patch_uptime tpl.t_bytes tpl.o_uptime
      (Unix.gettimeofday () -. t.started_at);
    patch_int tpl.t_bytes tpl.o_in_flight int_pad_width
      (Admission.in_flight t.admission);
    patch_int tpl.t_bytes tpl.o_conns int_pad_width
      (Admission.connections t.admission);
    Iobuf.add_subbytes conn.wbuf tpl.t_bytes 0 (Bytes.length tpl.t_bytes);
    Telemetry.record_fast t.tele `Health
  | Wire.Fast_stats ->
    let body = stats_fast t in
    Iobuf.add_subbytes conn.wbuf body 0 (Bytes.length body);
    Telemetry.record_fast t.tele `Stats);
  Iobuf.add_string conn.wbuf "}\n";
  if Iobuf.length conn.wbuf > t.config.max_buffer_bytes then shed_conn t conn

(* ------------------------------------------------------------------ *)
(* Request intake (loop side)                                          *)

let spawn_heavy t conn (env : Wire.envelope) ~op ~t0 =
  let serial = conn.serial in
  match
    Thread.create
      (fun () ->
        let c_ok, c_line =
          match dispatch_heavy t env with
          | result -> result
          | exception e ->
            ( false,
              Wire.error_line ~id:env.id
                (Wire.err Wire.internal (Printexc.to_string e)) )
        in
        Mutex.lock t.comp_mutex;
        Queue.add
          {
            c_serial = serial;
            c_op = op;
            c_t0 = t0;
            c_ok;
            c_line;
            c_thread = Thread.self ();
          }
          t.completions;
        Mutex.unlock t.comp_mutex;
        wake t)
      ()
  with
  | _th -> ()
  | exception e ->
    (* could not even spawn: undo the admission and answer inline *)
    conn.pending <- conn.pending - 1;
    Admission.release t.admission ~elapsed_ms:(-1.0);
    Telemetry.queue_depth t.tele (Admission.in_flight t.admission);
    Telemetry.record t.tele ~op ~ok:false ~elapsed_ms:0.0;
    append_response t conn
      (Wire.error_line ~id:env.id
         (Wire.err Wire.internal (Printexc.to_string e)))

let process_slow t conn line =
  let t0 = Unix.gettimeofday () in
  let finish ~op ~ok response =
    Telemetry.record t.tele ~op ~ok
      ~elapsed_ms:((Unix.gettimeofday () -. t0) *. 1000.0);
    append_response t conn response
  in
  match Wire.parse_request line with
  | Error (id, e) ->
    Telemetry.reject t.tele ~code:e.Wire.code;
    finish ~op:"invalid" ~ok:false (Wire.error_line ~id e)
  | Ok env -> (
    let op = op_name env.request in
    match env.request with
    | Wire.Health | Wire.Stats -> (
      let payload () =
        match env.request with
        | Wire.Health -> health_payload t
        | _ -> stats_payload t
      in
      match Wire.ok_line ~id:env.id (payload ()) with
      | response -> finish ~op ~ok:true response
      | exception e ->
        (* Absolute backstop: an unexpected exception answers as a
           structured error and the connection lives on. *)
        finish ~op ~ok:false
          (Wire.error_line ~id:env.id
             (Wire.err Wire.internal (Printexc.to_string e))))
    | Wire.Sim _ | Wire.Sweep _ | Wire.Compress _ ->
      if Lifecycle.draining t.life then begin
        Telemetry.reject t.tele ~code:Wire.shutting_down;
        finish ~op ~ok:false
          (Wire.error_line ~id:env.id
             (Wire.err Wire.shutting_down "server is draining"))
      end
      else (
        match Admission.try_acquire t.admission with
        | Error { Admission.retry_after_ms } ->
          Telemetry.reject t.tele ~code:Wire.overloaded;
          finish ~op ~ok:false
            (Wire.error_line ~id:env.id
               (Wire.err ~retry_after_ms Wire.overloaded
                  "server at capacity; back off and retry"))
        | Ok () ->
          Telemetry.queue_depth t.tele (Admission.in_flight t.admission);
          conn.pending <- conn.pending + 1;
          spawn_heavy t conn env ~op ~t0))

let is_blank buf pos len =
  let rec go i =
    i >= len
    ||
    match Bytes.get buf (pos + i) with
    | ' ' | '\t' | '\r' | '\012' -> go (i + 1)
    | _ -> false
  in
  go 0

let handle_line t conn buf pos len =
  if is_blank buf pos len then Lifecycle.touch t.life (* keep-alive blank *)
  else begin
    Lifecycle.touch t.life;
    match Wire.scan_fast buf ~pos ~len with
    | Some (fop, id_span) -> answer_fast t conn fop id_span buf
    | None -> process_slow t conn (Bytes.sub_string buf pos len)
  end

let answer_oversized t conn =
  Telemetry.reject t.tele ~code:Wire.oversized;
  append_response t conn
    (Wire.error_line ~id:Json.Null
       (Wire.err Wire.oversized
          (Printf.sprintf "request line exceeds %d bytes"
             t.config.max_request_bytes)))

(* Carves as many complete lines as arrived out of the read buffer.
   Backpressure: a write buffer past the soft cap pauses parsing (and
   the read-interest set) until the client drains it, so a flood of
   inline requests cannot outrun the socket. *)
let rec parse_conn t conn =
  if (not conn.shed) && (not conn.dead)
     && Iobuf.length conn.wbuf <= soft_cap t
  then begin
    match Iobuf.find_newline conn.rbuf ~from:conn.scanned with
    | Some nl ->
      conn.scanned <- 0;
      let buf = Iobuf.bytes conn.rbuf and base = Iobuf.offset conn.rbuf in
      (if conn.dropping then begin
         conn.dropping <- false;
         answer_oversized t conn
       end
       else
         let len =
           if nl > 0 && Bytes.get buf (base + nl - 1) = '\r' then nl - 1
           else nl
         in
         if len > t.config.max_request_bytes then answer_oversized t conn
         else handle_line t conn buf base len);
      Iobuf.consume conn.rbuf (nl + 1);
      parse_conn t conn
    | None ->
      let buffered = Iobuf.length conn.rbuf in
      if conn.dropping then begin
        Iobuf.consume conn.rbuf buffered;
        conn.scanned <- 0
      end
      else if buffered > t.config.max_request_bytes then begin
        conn.dropping <- true;
        Iobuf.consume conn.rbuf buffered;
        conn.scanned <- 0
      end
      else conn.scanned <- buffered
  end

(* A final unterminated line (client shut its write side without a
   trailing newline) is still answered before the connection
   closes. *)
let parse_eof_tail t conn =
  if conn.eof && (not conn.shed) && (not conn.dead)
     && (not (Iobuf.is_empty conn.rbuf))
     && Iobuf.length conn.wbuf <= soft_cap t
  then begin
    let buf = Iobuf.bytes conn.rbuf and base = Iobuf.offset conn.rbuf in
    let len = Iobuf.length conn.rbuf in
    (if conn.dropping then begin
       conn.dropping <- false;
       answer_oversized t conn
     end
     else if len > t.config.max_request_bytes then answer_oversized t conn
     else handle_line t conn buf base len);
    Iobuf.consume conn.rbuf len;
    conn.scanned <- 0
  end

(* ------------------------------------------------------------------ *)
(* Connection lifecycle (loop side)                                    *)

let destroy t conn =
  Hashtbl.remove t.conns conn.serial;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Admission.disconnect t.admission;
  Telemetry.connection t.tele `Closed;
  Lifecycle.touch t.life

(* A shed connection is still read, and its input discarded: closing a
   socket with unread input, or while the client is still sending,
   resets the connection, and the reset can destroy replies the client
   has not read yet — the slow_consumer error included. *)
let read_conn t conn =
  match Iobuf.fill_from conn.rbuf conn.fd ~max:16384 with
  | Iobuf.Filled _ ->
    if conn.shed then Iobuf.consume conn.rbuf (Iobuf.length conn.rbuf);
    Lifecycle.touch t.life
  | Iobuf.Fill_blocked -> ()
  | Iobuf.Fill_eof -> conn.eof <- true
  | exception Unix.Unix_error _ -> conn.dead <- true

(* Once a shed connection's error line is out, the client gets end of
   stream; the socket closes when the client closes its side (or at
   the shed deadline). *)
let write_conn conn =
  (if not (Iobuf.is_empty conn.wbuf) then
     match Iobuf.drain_to conn.wbuf conn.fd with
     | Iobuf.Drained | Iobuf.Drain_blocked -> ()
     | exception Unix.Unix_error _ -> conn.dead <- true);
  if conn.shed && Iobuf.is_empty conn.wbuf then
    try Unix.shutdown conn.fd Unix.SHUTDOWN_SEND
    with Unix.Unix_error _ -> ()

let should_close conn now =
  conn.dead
  || (conn.shed && (conn.eof || now > conn.shed_deadline))
  || (conn.eof && conn.pending = 0
     && Iobuf.is_empty conn.wbuf
     && Iobuf.is_empty conn.rbuf)

let deliver t comp =
  let elapsed_ms = (Unix.gettimeofday () -. comp.c_t0) *. 1000.0 in
  Admission.release t.admission ~elapsed_ms;
  Telemetry.queue_depth t.tele (Admission.in_flight t.admission);
  Telemetry.record t.tele ~op:comp.c_op ~ok:comp.c_ok ~elapsed_ms;
  (* the worker already enqueued and is exiting; reclaim it *)
  (try Thread.join comp.c_thread with Sys_error _ -> ());
  match Hashtbl.find_opt t.conns comp.c_serial with
  | None -> () (* client vanished mid-request; the work still counted *)
  | Some conn ->
    conn.pending <- conn.pending - 1;
    append_response t conn comp.c_line

(* Answers a fresh connection with [too_many_connections] and closes
   it. Best effort: the fd is fresh, one small write either lands whole
   or the client has already gone. *)
let refuse t fd msg =
  Telemetry.connection t.tele `Refused;
  let line =
    Wire.error_line ~id:Json.Null (Wire.err Wire.too_many_connections msg)
    ^ "\n"
  in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_burst t listener =
  let rec go budget =
    if budget > 0 then
      match Unix.accept listener.lfd with
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        -> ()
      | fd, addr ->
        Lifecycle.touch t.life;
        if fd_index fd >= fd_setsize then begin
          (* past select's reach: refuse it before it joins a set *)
          refuse t fd
            (Printf.sprintf "descriptor limit (%d) reached" fd_setsize);
          go (budget - 1)
        end
        else if Admission.try_connect t.admission then begin
          Telemetry.connection t.tele `Opened;
          Unix.set_nonblock fd;
          (match addr with
          | Unix.ADDR_INET _ -> (
            try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ())
          | _ -> ());
          t.conn_serial <- t.conn_serial + 1;
          let conn =
            {
              serial = t.conn_serial;
              fd;
              rbuf = Iobuf.create ();
              wbuf = Iobuf.create ();
              scanned = 0;
              dropping = false;
              eof = false;
              shed = false;
              shed_deadline = infinity;
              dead = false;
              pending = 0;
            }
          in
          Hashtbl.replace t.conns conn.serial conn;
          go (budget - 1)
        end
        else begin
          refuse t fd
            (Printf.sprintf "connection limit (%d) reached"
               (Admission.max_conns t.admission));
          go (budget - 1)
        end
  in
  go 64

(* ------------------------------------------------------------------ *)
(* Main loop and drain                                                 *)

let fully_idle t =
  Admission.in_flight t.admission = 0 && Admission.connections t.admission = 0

let conn_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

let run t =
  let listeners_open = ref true in
  let drain_deadline = ref infinity in
  let cancel_escalated = ref false in
  let hard_deadline = ref infinity in
  (* once in-flight work is done, full service continues for one short
     settle window (late pipelined responses get read, a last health
     probe still answers), then reading stops and buffers flush *)
  let settle_until = ref infinity in
  let flushing = ref false in
  let flush_deadline = ref infinity in
  let running = ref true in
  while !running do
    let now = Unix.gettimeofday () in
    (* idle self-drain *)
    (match t.config.idle_timeout_s with
    | Some limit
      when (not (Lifecycle.draining t.life))
           && fully_idle t
           && Lifecycle.idle_for t.life > limit ->
      Lifecycle.request_drain t.life
    | _ -> ());
    (* notice a drain: stop accepting, free the endpoints *)
    if Lifecycle.draining t.life && !listeners_open then begin
      listeners_open := false;
      List.iter
        (fun l -> try Unix.close l.lfd with Unix.Unix_error _ -> ())
        t.listeners;
      (match t.config.socket_path with
      | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | None -> ());
      let since =
        match Lifecycle.draining_since t.life with Some s -> s | None -> now
      in
      drain_deadline := since +. t.config.drain_grace_s
    end;
    (* grace blown: escalate to cooperative cancellation *)
    if (not !listeners_open) && (not !cancel_escalated)
       && Admission.in_flight t.admission > 0
       && now > !drain_deadline
    then begin
      Lifecycle.force_cancel t.life;
      cancel_escalated := true;
      hard_deadline := now +. 2.0
    end;
    (* deliver finished heavy work back onto its connections *)
    let completions =
      Mutex.lock t.comp_mutex;
      let xs = Queue.fold (fun acc c -> c :: acc) [] t.completions in
      Queue.clear t.completions;
      Mutex.unlock t.comp_mutex;
      List.rev xs
    in
    List.iter (deliver t) completions;
    (* drain end-game transitions *)
    if (not !listeners_open) && not !flushing then begin
      if Admission.in_flight t.admission = 0 && !settle_until = infinity then
        settle_until := now +. 0.05;
      if
        (!settle_until < infinity && now > !settle_until)
        || (!cancel_escalated && now > !hard_deadline)
      then begin
        flushing := true;
        flush_deadline := now +. 1.0
      end
    end;
    (* opportunistic write pass: most responses leave in the same
       iteration that produced them, no extra select round-trip *)
    List.iter write_conn (conn_list t);
    (* close sweep *)
    List.iter
      (fun conn -> if should_close conn now then destroy t conn)
      (conn_list t);
    if !flushing
       && (List.for_all (fun c -> Iobuf.is_empty c.wbuf) (conn_list t)
          || now > !flush_deadline)
    then running := false
    else begin
      (* readiness sets: listeners while accepting, the self-pipe
         always, sockets with parse headroom for read, sockets with
         buffered output for write *)
      let conns = conn_list t in
      let rds =
        t.wake_rd
        :: ((if !listeners_open then List.map (fun l -> l.lfd) t.listeners
             else [])
           @ List.filter_map
               (fun c ->
                 if
                   (not !flushing) && (not c.eof) && (not c.dead)
                   && (c.shed || Iobuf.length c.wbuf <= soft_cap t)
                 then Some c.fd
                 else None)
               conns)
      in
      let wrs =
        List.filter_map
          (fun c -> if Iobuf.is_empty c.wbuf then None else Some c.fd)
          conns
      in
      let timeout = if !listeners_open then 0.1 else 0.05 in
      let ready_r, _ready_w, _ =
        match Unix.select rds wrs [] timeout with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem t.wake_rd ready_r then drain_wake t;
      if !listeners_open then
        List.iter
          (fun l -> if List.mem l.lfd ready_r then accept_burst t l)
          t.listeners;
      if not !flushing then begin
        List.iter
          (fun c -> if List.mem c.fd ready_r then read_conn t c)
          conns;
        (* parse everything that arrived (and anything previously
           throttled that now has headroom) *)
        List.iter
          (fun c ->
            parse_conn t c;
            parse_eof_tail t c)
          (conn_list t)
      end
    end
  done;
  (* hang up on whatever remains (drained clients that never closed,
     or stragglers past the flush deadline) *)
  List.iter (fun conn -> destroy t conn) (conn_list t);
  (* if a wedged job blew the hard deadline its worker thread may yet
     write to the pipe; leak the two fds rather than race a reused
     descriptor. The normal path closes them. *)
  if Admission.in_flight t.admission = 0 then begin
    (try Unix.close t.wake_rd with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_wr with Unix.Unix_error _ -> ())
  end;
  Fleet.Pool.shutdown t.pool
