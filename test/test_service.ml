(* Tests for the service layer: the JSON codec, the wire protocol, the
   admission gate, and the daemon end to end over a real Unix-domain
   socket — round trips for every op, malformed input answered with
   structured errors on a connection that stays usable, backpressure
   at capacity, per-request guards, and the graceful drain. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

module Json = Service.Json
module Wire = Service.Wire

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let reparse what s v =
  match Json.parse s with
  | Ok v' -> checkb what true (v = v')
  | Error e -> Alcotest.failf "%s: reparse failed: %s" what e

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("list", Json.List [ Json.Int 1; Json.Float 1.5; Json.Null ]);
        ("str", Json.Str "quote\" back\\ newline\n euro\xe2\x82\xac");
        ("bool", Json.Bool true);
        ("neg", Json.Int (-7));
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  reparse "compact round trip" (Json.to_string v) v;
  reparse "pretty round trip" (Json.pretty v) v

let test_json_escapes () =
  (match Json.parse {|"é 😀 \n\t\\"|} with
  | Ok (Json.Str s) ->
    checks "escape decoding" "\xc3\xa9 \xf0\x9f\x98\x80 \n\t\\" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* non-finite floats must not produce unparseable output *)
  reparse "nan emitted as null"
    (Json.to_string (Json.List [ Json.Float Float.nan; Json.Float infinity ]))
    (Json.List [ Json.Null; Json.Null ])

let test_json_rejects () =
  let bad s =
    checkb (Printf.sprintf "rejects %S" s) true
      (Result.is_error (Json.parse s))
  in
  bad "";
  bad "nul";
  bad "1 2";
  bad "{\"a\":1,}";
  bad "[1,]";
  bad "\"unterminated";
  bad "{\"a\" 1}";
  (* hostile nesting must not blow the stack *)
  bad (String.make 1000 '[');
  (* 64 levels is the documented cap; 63 still parses *)
  let nested n = String.make n '[' ^ "1" ^ String.make n ']' in
  checkb "63 levels ok" true (Result.is_ok (Json.parse (nested 63)));
  bad (nested 65)

let test_json_accessors () =
  let v = Result.get_ok (Json.parse {|{"i":3,"f":3.0,"h":3.5,"s":"x"}|}) in
  let get k = Option.get (Json.member k v) in
  checkb "int" true (Json.to_int (get "i") = Some 3);
  checkb "integral float is an int" true (Json.to_int (get "f") = Some 3);
  checkb "fractional float is not" true (Json.to_int (get "h") = None);
  checkb "float accepts int" true (Json.to_float (get "i") = Some 3.0);
  checkb "missing member" true (Json.member "zzz" v = None);
  checkb "member of non-object" true (Json.member "i" (Json.Int 1) = None)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let test_wire_sim_defaults () =
  match Wire.parse_request {|{"op":"sim","workload":"fir"}|} with
  | Ok { request = Wire.Sim job; id; timeout_ms; fuel } ->
    checks "scenario" "fir" job.Fleet.Job.scenario;
    checks "codec default" "code" job.Fleet.Job.codec;
    checki "k default" 8 job.Fleet.Job.k;
    checkb "strategy default" true (job.Fleet.Job.strategy = Fleet.Job.On_demand);
    checkb "mode default" true (job.Fleet.Job.mode = Fleet.Job.Discard);
    checkb "retention default" true (job.Fleet.Job.retention = Fleet.Job.Kedge);
    checkb "no id" true (id = Json.Null);
    checkb "no guards" true (timeout_ms = None && fuel = None)
  | Ok _ -> Alcotest.fail "parsed as a different op"
  | Error (_, e) -> Alcotest.failf "rejected: %s: %s" e.Wire.code e.Wire.msg

let test_wire_corpus_spec () =
  (* gen:/multi: specs pass the workload check and come back
     canonicalized (key order, defaults filled in). *)
  (match
     Wire.parse_request
       {|{"op":"sim","workload":"gen:fanout=3,seed=7,blocks=geo:12"}|}
   with
  | Ok { request = Wire.Sim job; _ } ->
    checks "canonical gen spec"
      "gen:seed=7,depth=2,fanout=3,blocks=geo:12,calls=1,skew=0.9,cold=8,rounds=8"
      job.Fleet.Job.scenario
  | Ok _ -> Alcotest.fail "parsed as a different op"
  | Error (_, e) -> Alcotest.failf "rejected: %s: %s" e.Wire.code e.Wire.msg);
  (match
     Wire.parse_request {|{"op":"sim","workload":"multi:quantum=32;fir+crc32"}|}
   with
  | Ok { request = Wire.Sim job; _ } ->
    checks "canonical multi spec" "multi:quantum=32,seed=1,jitter=0;fir+crc32"
      job.Fleet.Job.scenario
  | Ok _ -> Alcotest.fail "parsed as a different op"
  | Error (_, e) -> Alcotest.failf "rejected: %s: %s" e.Wire.code e.Wire.msg);
  match
    Wire.parse_request {|{"op":"sim","workload":"gen:seed=1,zip=2"}|}
  with
  | Ok _ -> Alcotest.fail "malformed gen: spec accepted"
  | Error (_, e) -> checks "bad spec code" Wire.bad_request e.Wire.code

let test_wire_sweep_normalizes_ks () =
  match
    Wire.parse_request {|{"op":"sweep","workloads":["fir"],"ks":[8,2,2,8]}|}
  with
  | Ok { request = Wire.Sweep jobs; _ } ->
    checkb "deduped and sorted" true
      (List.map (fun (j : Fleet.Job.t) -> j.k) jobs = [ 2; 8 ])
  | Ok _ -> Alcotest.fail "parsed as a different op"
  | Error (_, e) -> Alcotest.failf "rejected: %s: %s" e.Wire.code e.Wire.msg

let test_wire_rejects () =
  let expect code line =
    match Wire.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %s" line
    | Error (_, e) -> checks ("code for " ^ line) code e.Wire.code
  in
  expect Wire.bad_json "not json at all";
  expect Wire.bad_request "[1,2]";
  (* a request must be an object *)
  expect Wire.bad_request {|{"workload":"fir"}|};
  (* missing op *)
  expect Wire.unknown_op {|{"op":"zap"}|};
  expect Wire.bad_request {|{"v":9,"op":"health"}|};
  expect Wire.bad_request {|{"op":"sim"}|};
  (* missing workload *)
  expect Wire.bad_request {|{"op":"sim","workload":"nope"}|};
  expect Wire.bad_request {|{"op":"sim","workload":"fir","k":0}|};
  expect Wire.bad_request {|{"op":"sim","workload":"fir","codec":"nope"}|};
  expect Wire.bad_request {|{"op":"sim","workload":"fir","strategy":"warp"}|};
  expect Wire.bad_request {|{"op":"sim","workload":"fir","timeout_ms":-1}|};
  expect Wire.bad_request {|{"op":"sweep","ks":[]}|};
  expect Wire.bad_request {|{"op":"sim","workload":"fir","line_size":2}|};
  expect Wire.bad_request {|{"op":"sim","workload":"fir","line_size":-8}|};
  expect Wire.bad_request {|{"op":"compress","workload":"fir","codec":"code"}|}

let test_wire_line_size () =
  match
    Wire.parse_request
      {|{"op":"sim","workload":"fir","codec":"bdi-32","line_size":32}|}
  with
  | Ok { request = Wire.Sim job; _ } ->
    checkb "line_size parsed" true (job.Fleet.Job.line_size = Some 32);
    checks "codec carried" "bdi-32" job.Fleet.Job.codec
  | Ok _ -> Alcotest.fail "parsed as a different op"
  | Error (_, e) -> Alcotest.failf "rejected: %s: %s" e.Wire.code e.Wire.msg

(* One default per knob on every surface: the wire's loop-aware weight
   is the knob default, the same the CLI fills in. *)
let test_wire_loop_aware_default () =
  match
    Wire.parse_request {|{"op":"sim","workload":"fir","retention":"loop-aware"}|}
  with
  | Ok { request = Wire.Sim job; _ } ->
    checkb "weight 1" true
      (job.Fleet.Job.retention = Fleet.Job.Loop_aware { weight = 1 })
  | Ok _ -> Alcotest.fail "parsed as a different op"
  | Error (_, e) -> Alcotest.failf "rejected: %s: %s" e.Wire.code e.Wire.msg

let contains_sub needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Every knob field rejects an out-of-range and an ill-typed value with
   a structured error naming the field. *)
let test_wire_rejects_every_knob () =
  List.iter
    (fun (knob : Fleet.Job.Knob.t) ->
      let out_of_range =
        match knob.kind with
        | Choice _ -> {|"nope"|}
        | At_least lo -> string_of_int (lo - 1)
        | Fraction -> "1.5"
      in
      List.iter
        (fun v ->
          let line =
            Printf.sprintf {|{"op":"sim","workload":"fir",%S:%s}|} knob.name v
          in
          match Wire.parse_request line with
          | Ok _ -> Alcotest.failf "accepted %s" line
          | Error (_, e) ->
            checks ("code for " ^ line) Wire.bad_request e.Wire.code;
            checkb ("message names the field: " ^ e.Wire.msg) true
              (contains_sub (Printf.sprintf "%S" knob.name) e.Wire.msg))
        [ out_of_range; "true" ])
    Fleet.Job.Knob.all

(* Any job the wire can express survives job_to_json -> a sim request
   line -> parse_request unchanged, so the rendered form and the
   parser agree on every knob and default. *)
let gen_job =
  let open QCheck.Gen in
  let oneof_l xs = oneofl xs in
  let* scenario =
    oneof_l
      (Workloads.Suite.names
      @ [
          "multi:quantum=32,seed=1,jitter=0;fir+crc32";
          "gen:seed=7,depth=2,fanout=3,blocks=geo:12,calls=1,skew=0.9,cold=8,rounds=8";
        ])
  in
  let* codec = oneof_l ("code" :: Compress.Registry.names ()) in
  let* k = int_range 1 64 in
  let* lookahead = int_range 1 8 in
  let* predictor = oneof_l [ "first"; "last-taken"; "profile" ] in
  let* strategy =
    oneof_l
      Fleet.Job.
        [
          On_demand; Pre_all { lookahead }; Pre_single { lookahead; predictor };
        ]
  in
  let* mode = oneof_l Fleet.Job.[ Discard; Recompress ] in
  let* budget = opt (int_range 1 4096) in
  let* weight = int_range 1 4 in
  let* fraction = map (fun f -> if f = 0.0 then 1.0 else f) (float_bound_inclusive 1.0) in
  let* retention =
    oneof_l
      Fleet.Job.[ Kedge; Loop_aware { weight }; Clock; Pin_hot { fraction } ]
  in
  let* profile = oneof_l Sim.Cost.profile_names in
  let* line_size = opt (int_range 4 128) in
  return
    (Fleet.Job.make ~codec ~strategy ~mode ?budget ~retention ~profile
       ?line_size ~scenario ~k ())

let test_wire_job_roundtrip =
  QCheck.Test.make ~count:500 ~name:"job_to_json -> sim line -> parse_request"
    (QCheck.make ~print:Fleet.Job.canonical gen_job)
    (fun job ->
      let line =
        match Wire.job_to_json job with
        | Json.Obj fields ->
          Json.to_string (Json.Obj (("op", Json.Str "sim") :: fields))
        | _ -> QCheck.Test.fail_report "job_to_json is not an object"
      in
      match Wire.parse_request line with
      | Ok { request = Wire.Sim job'; _ } ->
        job' = job && Fleet.Job.key job' = Fleet.Job.key job
      | Ok _ -> QCheck.Test.fail_reportf "%s parsed as another op" line
      | Error (_, e) ->
        QCheck.Test.fail_reportf "%s rejected: %s" line e.Wire.msg)

(* The error id is salvaged from the malformed line whenever the line
   at least parses, so responses still correlate. *)
let test_wire_salvages_id () =
  match Wire.parse_request {|{"id":41,"op":"zap"}|} with
  | Error (id, e) ->
    checkb "id salvaged" true (id = Json.Int 41);
    checks "code" Wire.unknown_op e.Wire.code
  | Ok _ -> Alcotest.fail "accepted unknown op"

let test_wire_response_roundtrip () =
  (match Wire.parse_response (Wire.ok_line ~id:(Json.Int 7) (Json.Str "x")) with
  | Ok (Json.Int 7, Ok (Json.Str "x")) -> ()
  | _ -> Alcotest.fail "ok line did not round-trip");
  match
    Wire.parse_response
      (Wire.error_line ~id:(Json.Str "a")
         (Wire.err ~retry_after_ms:40 Wire.overloaded "busy"))
  with
  | Ok (Json.Str "a", Error e) ->
    checks "code" Wire.overloaded e.Wire.code;
    checks "msg" "busy" e.Wire.msg;
    checkb "retry hint" true (e.Wire.retry_after_ms = Some 40)
  | _ -> Alcotest.fail "error line did not round-trip"

let test_wire_classify () =
  checks "timeout" Wire.deadline_exceeded
    (Wire.classify_run_error "timed out after 5ms");
  checks "fuel" Wire.fuel_exhausted
    (Wire.classify_run_error "fuel exhausted after 100 ticks");
  checks "cancel" Wire.cancelled (Wire.classify_run_error "cancelled");
  checks "other" Wire.internal (Wire.classify_run_error "Stack_overflow")

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let test_admission_capacity () =
  let a = Service.Admission.create ~capacity:2 ~max_conns:4 () in
  checkb "slot 1" true (Result.is_ok (Service.Admission.try_acquire a));
  checkb "slot 2" true (Result.is_ok (Service.Admission.try_acquire a));
  (match Service.Admission.try_acquire a with
  | Ok () -> Alcotest.fail "admitted over capacity"
  | Error { Service.Admission.retry_after_ms } ->
    checkb "retry hint clamped" true
      (retry_after_ms >= 25 && retry_after_ms <= 5000));
  checki "in flight" 2 (Service.Admission.in_flight a);
  Service.Admission.release a ~elapsed_ms:10.0;
  checkb "slot freed" true (Result.is_ok (Service.Admission.try_acquire a))

let test_admission_connections () =
  let a = Service.Admission.create ~capacity:1 ~max_conns:2 () in
  checkb "conn 1" true (Service.Admission.try_connect a);
  checkb "conn 2" true (Service.Admission.try_connect a);
  checkb "conn 3 refused" false (Service.Admission.try_connect a);
  Service.Admission.disconnect a;
  checkb "slot freed" true (Service.Admission.try_connect a);
  checki "count" 2 (Service.Admission.connections a)

(* ------------------------------------------------------------------ *)
(* Server harness                                                      *)

let temp_sock () =
  let path = Filename.temp_file "ccomp-service" ".sock" in
  Sys.remove path;
  path

let make_server ?(jobs = 2) ?(queue = 8) ?(max_conns = 8) ?cache ?fuel
    ?timeout_ms ?max_request_bytes ?max_buffer_bytes ?(drain_grace_s = 10.0)
    () =
  let path = temp_sock () in
  let config =
    {
      Service.Server.default_config with
      socket_path = Some path;
      jobs;
      queue;
      max_conns;
      cache;
      fuel;
      timeout_ms;
      drain_grace_s;
    }
  in
  let config =
    match max_request_bytes with
    | Some n -> { config with max_request_bytes = n }
    | None -> config
  in
  let config =
    match max_buffer_bytes with
    | Some n -> { config with max_buffer_bytes = n }
    | None -> config
  in
  let server = Service.Server.create config in
  (path, server, Thread.create Service.Server.run server)

let with_server ?jobs ?queue ?max_conns ?cache ?fuel ?timeout_ms
    ?max_request_bytes ?max_buffer_bytes ?drain_grace_s f =
  let path, server, runner =
    make_server ?jobs ?queue ?max_conns ?cache ?fuel ?timeout_ms
      ?max_request_bytes ?max_buffer_bytes ?drain_grace_s ()
  in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Thread.join runner;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path server)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  output_string c.oc (line ^ "\n");
  flush c.oc

let recv c = input_line c.ic

let rpc c line =
  send c line;
  recv c

let ok_payload reply =
  match Wire.parse_response reply with
  | Ok (_, Ok payload) -> payload
  | Ok (_, Error e) ->
    Alcotest.failf "unexpected error reply %s: %s" e.Wire.code e.Wire.msg
  | Error m -> Alcotest.failf "unparseable reply (%s): %s" m reply

let err_of reply =
  match Wire.parse_response reply with
  | Ok (_, Error e) -> e
  | Ok (_, Ok _) -> Alcotest.failf "expected an error reply, got ok: %s" reply
  | Error m -> Alcotest.failf "unparseable reply (%s): %s" m reply

let int_member name payload =
  match Json.member name payload with
  | Some v -> (
    match Json.to_int v with
    | Some n -> n
    | None -> Alcotest.failf "member %s is not an int" name)
  | None -> Alcotest.failf "member %s missing" name

(* A request heavy enough (a few hundred ms on one worker, uncached)
   to still be running when a follow-up request lands. *)
let heavy_sweep =
  {|{"id":"heavy","op":"sweep","workloads":["collatz"],"ks":[1,2,3,4]}|}

let wait_in_flight path ~at_least =
  let probe = connect path in
  Fun.protect
    ~finally:(fun () -> close probe)
    (fun () ->
      let rec go tries =
        if tries = 0 then Alcotest.fail "server never became busy";
        let h = ok_payload (rpc probe {|{"op":"health"}|}) in
        if int_member "in_flight" h < at_least then begin
          Thread.delay 0.01;
          go (tries - 1)
        end
      in
      go 500)

(* ------------------------------------------------------------------ *)
(* End-to-end round trips                                              *)

let test_server_round_trip () =
  with_server ~jobs:2 (fun path _server ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          (* health *)
          let h = ok_payload (rpc c {|{"v":1,"id":1,"op":"health"}|}) in
          checkb "health status" true
            (Json.member "status" h = Some (Json.Str "ok"));
          checki "health protocol" Wire.protocol_version
            (int_member "protocol" h);
          (* blank lines are keep-alives, not errors *)
          send c "";
          (* sim, with a string id echoed verbatim *)
          let reply = rpc c {|{"id":"my-sim","op":"sim","workload":"fir","k":4}|} in
          (match Wire.parse_response reply with
          | Ok (Json.Str "my-sim", Ok payload) ->
            let job = Option.get (Json.member "job" payload) in
            checki "sim echoes k" 4 (int_member "k" job);
            checkb "sim has metrics" true (Json.member "metrics" payload <> None);
            let m = Option.get (Json.member "metrics" payload) in
            checkb "metrics non-trivial" true (int_member "total_cycles" m > 0)
          | _ -> Alcotest.failf "bad sim reply: %s" reply);
          (* sweep: ks deduped server-side, every job reported *)
          let s =
            ok_payload
              (rpc c {|{"op":"sweep","workloads":["fir","crc32"],"ks":[4,2,2]}|})
          in
          checki "sweep count" 4 (int_member "count" s);
          checki "sweep failures" 0 (int_member "failed" s);
          (* compress *)
          let cp = ok_payload (rpc c {|{"op":"compress","workload":"crc32"}|}) in
          (match Json.member "codecs" cp with
          | Some (Json.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "compress returned no codecs");
          (* stats reflects everything served above *)
          let st = ok_payload (rpc c {|{"op":"stats"}|}) in
          let ops = Option.get (Json.member "ops" st) in
          let count op =
            int_member "count" (Option.get (Json.member op ops))
          in
          checki "stats saw the sim" 1 (count "sim");
          checki "stats saw the sweep" 1 (count "sweep");
          checki "stats saw the compress" 1 (count "compress");
          let fleet = Option.get (Json.member "fleet" st) in
          checkb "fleet counters absorbed" true
            (int_member "fleet_jobs_completed" fleet >= 5)))

let test_server_errors_keep_connection () =
  with_server ~max_request_bytes:1024 (fun path _server ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          checks "garbage" Wire.bad_json (err_of (rpc c "certainly not json")).Wire.code;
          checks "unknown op" Wire.unknown_op (err_of (rpc c {|{"op":"zap"}|})).Wire.code;
          checks "bad field" Wire.bad_request
            (err_of (rpc c {|{"op":"sim","workload":"fir","k":0}|})).Wire.code;
          checks "oversized" Wire.oversized
            (err_of (rpc c ("{\"op\":\"sim\",\"pad\":\"" ^ String.make 2000 'x' ^ "\"}")))
              .Wire.code;
          (* after all of that, the same connection still serves *)
          let h = ok_payload (rpc c {|{"op":"health"}|}) in
          checkb "connection survived" true
            (Json.member "status" h = Some (Json.Str "ok"))))

let test_server_truncated_request () =
  with_server (fun path _server ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          (* half a request, then the write side closes: the final
             unterminated line is still answered before EOF *)
          output_string c.oc {|{"id":9,"op":"heal|};
          flush c.oc;
          Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
          let e = err_of (recv c) in
          checks "truncated line is bad json" Wire.bad_json e.Wire.code))

let test_server_concurrent_clients () =
  with_server ~jobs:2 (fun path _server ->
      let worker base k () =
        let c = connect path in
        Fun.protect
          ~finally:(fun () -> close c)
          (fun () ->
            for i = 0 to 9 do
              let reply =
                rpc c
                  (Printf.sprintf
                     {|{"id":%d,"op":"sim","workload":"fir","k":%d}|}
                     (base + i) k)
              in
              match Wire.parse_response reply with
              | Ok (Json.Int id, Ok payload) ->
                (* each connection sees its own ids, in order, with
                   its own k — no cross-talk between clients *)
                checki "id echo" (base + i) id;
                checki "own k"
                  k
                  (int_member "k" (Option.get (Json.member "job" payload)))
              | _ -> Alcotest.failf "bad reply: %s" reply
            done)
      in
      let a = Thread.create (worker 100 2) () in
      let b = Thread.create (worker 200 4) () in
      Thread.join a;
      Thread.join b)

let test_server_too_many_connections () =
  with_server ~max_conns:1 (fun path _server ->
      let c1 = connect path in
      Fun.protect
        ~finally:(fun () -> close c1)
        (fun () ->
          (* make sure c1 is fully admitted before racing c2 in *)
          ignore (ok_payload (rpc c1 {|{"op":"health"}|}));
          let c2 = connect path in
          Fun.protect
            ~finally:(fun () -> close c2)
            (fun () ->
              let e = err_of (recv c2) in
              checks "refused" Wire.too_many_connections e.Wire.code;
              checkb "then closed" true
                (match recv c2 with
                | exception End_of_file -> true
                | _ -> false));
          (* c1 is unaffected *)
          ignore (ok_payload (rpc c1 {|{"op":"health"}|}))))

(* [select] watches descriptors below FD_SETSIZE only: a connection
   cap that could push descriptors past it is refused at start-up,
   before anything is bound, and the largest accepted cap serves. *)
let test_server_max_conns_limit () =
  let path = temp_sock () in
  let over =
    {
      Service.Server.default_config with
      socket_path = Some path;
      max_conns = Service.Server.max_conns_limit + 1;
    }
  in
  checkb "cap past the select limit rejected" true
    (match Service.Server.create over with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "nothing bound" false (Sys.file_exists path);
  with_server ~max_conns:Service.Server.max_conns_limit (fun path _server ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () -> ignore (ok_payload (rpc c {|{"op":"health"}|}))))

(* A connection accepted on a descriptor select cannot watch is
   refused with [too_many_connections] rather than failing the loop's
   select with EINVAL. Filler descriptors take every number below the
   limit, so the next accept lands past it. Skipped where the process
   may not open that many files. *)
let test_server_refuses_high_descriptor () =
  with_server ~max_conns:4 (fun path _server ->
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let fillers = ref [] in
      let release () =
        List.iter (fun fd -> Unix.close fd) !fillers;
        fillers := []
      in
      match
        for _ = 1 to 1100 do
          fillers := Unix.dup devnull :: !fillers
        done
      with
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        (* the descriptor limit is below FD_SETSIZE: nothing to test *)
        release ();
        Unix.close devnull;
        Alcotest.skip ()
      | () ->
        Fun.protect
          ~finally:(fun () ->
            release ();
            Unix.close devnull)
          (fun () ->
            let c = connect path in
            (* a dead loop never answers: bound the wait *)
            Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 10.0;
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let e = err_of (recv c) in
                checks "refused" Wire.too_many_connections e.Wire.code);
            release ();
            (* the loop survived and serves descriptors in range *)
            let c = connect path in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () -> ignore (ok_payload (rpc c {|{"op":"health"}|})))))

(* ------------------------------------------------------------------ *)
(* Backpressure, guards, drain                                         *)

let test_server_backpressure () =
  (* capacity = jobs + queue = 1: while the heavy sweep runs, the next
     heavy request must bounce with a structured overloaded error. *)
  with_server ~jobs:1 ~queue:0 (fun path _server ->
      let a = connect path in
      let b = connect path in
      Fun.protect
        ~finally:(fun () ->
          close a;
          close b)
        (fun () ->
          send a heavy_sweep;
          wait_in_flight path ~at_least:1;
          let e = err_of (rpc b {|{"id":2,"op":"sim","workload":"fir"}|}) in
          checks "overloaded" Wire.overloaded e.Wire.code;
          checkb "retry hint present" true (e.Wire.retry_after_ms <> None);
          (* light ops bypass admission and still answer *)
          ignore (ok_payload (rpc b {|{"op":"health"}|}));
          (* the heavy request itself completes fine *)
          let s = ok_payload (recv a) in
          checki "sweep failures" 0 (int_member "failed" s)))

let test_server_guards () =
  with_server ~jobs:1 (fun path _server ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          (* fuel = 1 cannot finish any sim: structured failure, coded *)
          let e =
            err_of (rpc c {|{"op":"sim","workload":"fir","fuel":1}|})
          in
          checks "fuel exhausted" Wire.fuel_exhausted e.Wire.code;
          (* a sweep with an impossible deadline reports per-job
             failures without failing the envelope *)
          let s =
            ok_payload
              (rpc c {|{"op":"sweep","workloads":["fir"],"ks":[8],"fuel":1}|})
          in
          checki "all jobs failed" (int_member "count" s)
            (int_member "failed" s);
          (* and the connection still serves real work afterwards *)
          ignore (ok_payload (rpc c {|{"op":"sim","workload":"fir"}|}))))

let test_server_deadline () =
  with_server ~jobs:1 (fun path _server ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          (* a sim that runs for hundreds of ms under a 1ms deadline:
             the wall-clock guard fires at a budget tick and comes
             back as a structured, classified error *)
          let e =
            err_of
              (rpc c
                 {|{"op":"sim","workload":"life","k":1,"timeout_ms":1}|})
          in
          checks "deadline exceeded" Wire.deadline_exceeded e.Wire.code;
          (* the connection and the worker both survive the abort *)
          ignore (ok_payload (rpc c {|{"op":"sim","workload":"fir"}|}))))

let test_server_drain () =
  (* in-flight work finishes after the drain request; new heavy work
     is refused; the listener goes away; run() returns. *)
  let path, server, runner = make_server ~jobs:1 ~queue:4 () in
  let cleanup_ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !cleanup_ok then begin
        Service.Server.stop server;
        Thread.join runner
      end;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let a = connect path in
      let b = connect path in
      Fun.protect
        ~finally:(fun () ->
          close a;
          close b)
        (fun () ->
          send a heavy_sweep;
          wait_in_flight path ~at_least:1;
          Service.Server.stop server;
          (* health still answers during the drain, and reports it *)
          let h = ok_payload (rpc b {|{"op":"health"}|}) in
          checkb "draining status" true
            (Json.member "status" h = Some (Json.Str "draining"));
          (* new heavy work is turned away *)
          let e = err_of (rpc b {|{"op":"sim","workload":"fir"}|}) in
          checks "shutting down" Wire.shutting_down e.Wire.code;
          (* the in-flight sweep still completes and answers *)
          let s = ok_payload (recv a) in
          checki "in-flight completed" 0 (int_member "failed" s);
          (* the server exits on its own: join must return promptly *)
          Thread.join runner;
          cleanup_ok := true;
          checkb "socket unlinked" true (not (Sys.file_exists path));
          match connect path with
          | probe ->
            close probe;
            Alcotest.fail "listener still accepting after drain"
          | exception Unix.Unix_error _ -> ()))

(* ------------------------------------------------------------------ *)
(* Event-loop behaviors: partial I/O, pipelining, slow consumers       *)

let test_wire_scan_fast () =
  let scan s =
    let b = Bytes.of_string s in
    Wire.scan_fast b ~pos:0 ~len:(Bytes.length b)
  in
  let span s = function
    | Some (pos, len) -> String.sub s pos len
    | None -> "<none>"
  in
  (match scan {|{"op":"health","id":7}|} with
  | Some (Wire.Fast_health, id) ->
    checks "int id span" "7" (span {|{"op":"health","id":7}|} id)
  | _ -> Alcotest.fail "minimal health did not take the fast path");
  (match scan {|{"op":"stats"}|} with
  | Some (Wire.Fast_stats, None) -> ()
  | _ -> Alcotest.fail "id-less stats did not take the fast path");
  (match scan {|{"id":"a-1","op":"health","v":1}|} with
  | Some (Wire.Fast_health, id) ->
    (* quotes included: the span is echoed raw into the response *)
    checks "string id span" {|"a-1"|}
      (span {|{"id":"a-1","op":"health","v":1}|} id)
  | _ -> Alcotest.fail "reordered members did not take the fast path");
  (* anything the scanner is not sure about falls to the full parser *)
  List.iter
    (fun line ->
      checkb ("slow path: " ^ line) true (scan line = None))
    [
      {|{"op":"sim","workload":"fir"}|} (* heavy op *);
      {|{"op":"health","extra":1}|} (* unknown member *);
      {|{"op":"health","id":"a\"b"}|} (* escaped id *);
      {|{"op":"health","op":"health"}|} (* duplicate member *);
      {|{"op":"health","v":2}|} (* wrong protocol *);
      {|{}|} (* no op: the slow path owns the error *);
      {|{"op":"health"} trailing|} (* trailing garbage *);
    ]

let test_server_dribble () =
  (* a byte-at-a-time client must not stall anyone else: between every
     dribbled byte, a second client completes a full round trip *)
  with_server ~jobs:1 (fun path _server ->
      let a = connect path in
      let b = connect path in
      Fun.protect
        ~finally:(fun () ->
          close a;
          close b)
        (fun () ->
          let line = "{\"id\":\"slow\",\"op\":\"health\"}\n" in
          String.iteri
            (fun i _ ->
              ignore (Unix.write_substring a.fd line i 1);
              let h = ok_payload (rpc b {|{"op":"health"}|}) in
              checkb "fast client answered mid-dribble" true
                (Json.member "status" h = Some (Json.Str "ok")))
            line;
          match Wire.parse_response (recv a) with
          | Ok (Json.Str "slow", Ok _) -> ()
          | _ -> Alcotest.fail "dribbled request got the wrong reply"))

let test_server_pipeline_out_of_order () =
  (* a light op pipelined behind a heavy one overtakes it; replies are
     re-associated by id *)
  with_server ~jobs:1 (fun path _server ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          send c heavy_sweep;
          send c {|{"id":"ping","op":"health"}|};
          (match Wire.parse_response (recv c) with
          | Ok (Json.Str "ping", Ok _) -> ()
          | _ -> Alcotest.fail "health did not overtake the running sweep");
          match Wire.parse_response (recv c) with
          | Ok (Json.Str "heavy", Ok payload) ->
            checki "sweep clean" 0 (int_member "failed" payload)
          | _ -> Alcotest.fail "sweep reply missing or mis-tagged"))

let test_server_slow_consumer_shed () =
  (* a client that pipelines heavy work but never reads is shed with a
     structured error once its write buffer passes the cap *)
  let cache_dir = Filename.temp_file "ccomp-shed-cache" "" in
  Sys.remove cache_dir;
  Unix.mkdir cache_dir 0o700;
  with_server ~jobs:2 ~queue:128 ~max_buffer_bytes:(16 * 1024)
    ~cache:(Fleet.Cache.open_dir cache_dir)
    (fun path _server ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          (* ~9 KB per response, 80 responses: far more than the kernel
             socket buffer plus the 16 KB cap can absorb *)
          for i = 1 to 80 do
            send c
              (Printf.sprintf
                 {|{"id":%d,"op":"sweep","workloads":["fir","crc32"],"ks":[1,2,3,4]}|}
                 i)
          done;
          wait_in_flight path ~at_least:1;
          (* every sweep finished (or was dropped on the shed
             connection); only then start reading *)
          let probe = connect path in
          Fun.protect
            ~finally:(fun () -> close probe)
            (fun () ->
              let rec settle tries =
                if tries = 0 then Alcotest.fail "sweeps never finished";
                let h = ok_payload (rpc probe {|{"op":"health"}|}) in
                if int_member "in_flight" h > 0 then begin
                  Thread.delay 0.02;
                  settle (tries - 1)
                end
              in
              settle 1000);
          let lines = ref [] in
          (try
             while true do
               lines := recv c :: !lines
             done
           with End_of_file -> ());
          (match !lines with
          | [] -> Alcotest.fail "shed connection delivered nothing"
          | last :: _ ->
            let e = err_of last in
            checks "shed error code" Wire.slow_consumer e.Wire.code);
          checkb "some responses preceded the shed" true
            (List.length !lines > 1);
          checkb "not every response was delivered" true
            (List.length !lines < 81)))

let test_server_drain_pipelined () =
  (* a drain arriving with several pipelined heavy requests in flight
     still answers all of them before the server exits *)
  let path, server, runner = make_server ~jobs:1 ~queue:4 () in
  let cleanup_ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !cleanup_ok then begin
        Service.Server.stop server;
        Thread.join runner
      end;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          send c
            {|{"id":"h1","op":"sweep","workloads":["collatz"],"ks":[1,2]}|};
          send c
            {|{"id":"h2","op":"sweep","workloads":["collatz"],"ks":[3,4]}|};
          wait_in_flight path ~at_least:1;
          Service.Server.stop server;
          let id_of reply =
            match Wire.parse_response reply with
            | Ok (Json.Str id, Ok _) -> id
            | _ -> Alcotest.failf "bad drain-time reply: %s" reply
          in
          let ids = [ id_of (recv c); id_of (recv c) ] in
          checkb "both pipelined sweeps answered" true
            (List.sort compare ids = [ "h1"; "h2" ]);
          Thread.join runner;
          cleanup_ok := true;
          checkb "socket unlinked" true (not (Sys.file_exists path))))

let () =
  Alcotest.run "service"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "wire",
        [
          Alcotest.test_case "sim defaults" `Quick test_wire_sim_defaults;
          Alcotest.test_case "sweep normalizes ks" `Quick
            test_wire_sweep_normalizes_ks;
          Alcotest.test_case "rejects invalid requests" `Quick
            test_wire_rejects;
          Alcotest.test_case "line size field" `Quick test_wire_line_size;
          Alcotest.test_case "corpus specs" `Quick test_wire_corpus_spec;
          Alcotest.test_case "loop-aware default weight" `Quick
            test_wire_loop_aware_default;
          Alcotest.test_case "rejects every knob" `Quick
            test_wire_rejects_every_knob;
          QCheck_alcotest.to_alcotest test_wire_job_roundtrip;
          Alcotest.test_case "salvages the id" `Quick test_wire_salvages_id;
          Alcotest.test_case "response round trip" `Quick
            test_wire_response_roundtrip;
          Alcotest.test_case "error classification" `Quick test_wire_classify;
          Alcotest.test_case "fast-path scanner" `Quick test_wire_scan_fast;
        ] );
      ( "admission",
        [
          Alcotest.test_case "request capacity" `Quick test_admission_capacity;
          Alcotest.test_case "connection cap" `Quick
            test_admission_connections;
        ] );
      ( "server",
        [
          Alcotest.test_case "round trip every op" `Quick
            test_server_round_trip;
          Alcotest.test_case "errors keep the connection" `Quick
            test_server_errors_keep_connection;
          Alcotest.test_case "truncated request" `Quick
            test_server_truncated_request;
          Alcotest.test_case "concurrent clients are isolated" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "connection cap" `Quick
            test_server_too_many_connections;
          Alcotest.test_case "connection cap within select limit" `Quick
            test_server_max_conns_limit;
          Alcotest.test_case "descriptor past select limit refused" `Quick
            test_server_refuses_high_descriptor;
          Alcotest.test_case "backpressure at capacity" `Quick
            test_server_backpressure;
          Alcotest.test_case "per-request guards" `Quick test_server_guards;
          Alcotest.test_case "deadline exceeded" `Quick test_server_deadline;
          Alcotest.test_case "graceful drain" `Quick test_server_drain;
          Alcotest.test_case "byte-dribbling client" `Quick
            test_server_dribble;
          Alcotest.test_case "pipelined out-of-order replies" `Quick
            test_server_pipeline_out_of_order;
          Alcotest.test_case "slow consumer is shed" `Quick
            test_server_slow_consumer_shed;
          Alcotest.test_case "drain completes pipelined work" `Quick
            test_server_drain_pipelined;
        ] );
    ]
