let protocol_version = 1
let default_max_request_bytes = 65536

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)

type error = { code : string; msg : string; retry_after_ms : int option }

let bad_json = "bad_json"
let bad_request = "bad_request"
let unknown_op = "unknown_op"
let oversized = "oversized"
let overloaded = "overloaded"
let too_many_connections = "too_many_connections"
let deadline_exceeded = "deadline_exceeded"
let fuel_exhausted = "fuel_exhausted"
let cancelled = "cancelled"
let shutting_down = "shutting_down"
let slow_consumer = "slow_consumer"
let internal = "internal"

let err ?retry_after_ms code msg = { code; msg; retry_after_ms }

(* The pool reports blown budgets as strings (its public contract);
   map them back to wire codes by their stable prefixes. *)
let classify_run_error msg =
  let has_prefix p = String.length msg >= String.length p
                     && String.sub msg 0 (String.length p) = p in
  if has_prefix "timed out" then deadline_exceeded
  else if has_prefix "fuel exhausted" then fuel_exhausted
  else if msg = "cancelled" then cancelled
  else internal

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type request =
  | Health
  | Stats
  | Sim of Fleet.Job.t
  | Sweep of Fleet.Job.t list
  | Compress of { workload : string; codec : string option }

type envelope = {
  id : Json.t;
  timeout_ms : int option;
  fuel : int option;
  request : request;
}

let ( let* ) = Result.bind

let fail fmt = Printf.ksprintf (fun msg -> Error (err bad_request msg)) fmt

(* Field accessors over the request object; every branch reports the
   field name so the client can fix its request without guessing. *)

let opt_field obj name decode what =
  match Json.member name obj with
  | None -> Ok None
  | Some v -> (
    match decode v with
    | Some x -> Ok (Some x)
    | None -> fail "field %S: expected %s" name what)

let str_field obj name = opt_field obj name Json.to_str "a string"
let int_field obj name = opt_field obj name Json.to_int "an integer"

let positive obj name =
  let* v = int_field obj name in
  match v with
  | Some v when v < 1 -> fail "field %S: must be >= 1 (got %d)" name v
  | v -> Ok v

let default d = function Some v -> v | None -> d

let workload_ok name = List.mem name Workloads.Suite.names

(* A workload field also accepts corpus specs ([gen:]/[multi:]); they
   are canonicalized here so equal shapes share fleet cache keys no
   matter how the client spelled them. *)
let check_workload name =
  if Corpus.Resolve.is_spec name then
    match Corpus.Resolve.canonicalize ~known:workload_ok name with
    | Ok canonical -> Ok canonical
    | Error msg -> fail "bad scenario spec %S: %s" name msg
  else if workload_ok name then Ok name
  else
    fail "unknown workload %S (known: %s, or a gen:/multi: spec)" name
      (String.concat ", " Workloads.Suite.names)

(* The policy surface shared by sim and sweep: one field per
   Fleet.Job knob, decoded by the knob's kind and checked by the knob
   itself. *)
let job_builder obj =
  let* given =
    List.fold_left
      (fun acc (knob : Fleet.Job.Knob.t) ->
        let* given = acc in
        let decode, what =
          let open Fleet.Job.Knob in
          let as_ wrap get v = Option.map wrap (get v) in
          match knob.kind with
          | Choice _ -> (as_ (fun s -> Str s) Json.to_str, "a string")
          | At_least _ -> (as_ (fun i -> Int i) Json.to_int, "an integer")
          | Fraction -> (as_ (fun f -> Float f) Json.to_float, "a number")
        in
        let* v = opt_field obj knob.name decode what in
        Ok (match v with Some v -> (knob, v) :: given | None -> given))
      (Ok []) Fleet.Job.Knob.all
  in
  Result.map_error (err bad_request) (Fleet.Job.of_settings (List.rev given))

let parse_sim obj =
  let* workload = str_field obj "workload" in
  let* workload =
    match workload with
    | Some w -> check_workload w
    | None -> fail "op \"sim\" requires field \"workload\""
  in
  let* build = job_builder obj in
  Ok (Sim (build ~scenario:workload))

let parse_sweep obj =
  let* workloads =
    opt_field obj "workloads"
      (fun v ->
        Option.bind (Json.to_list v) (fun vs ->
            let names = List.filter_map Json.to_str vs in
            if List.length names = List.length vs then Some names else None))
      "a list of workload names"
  in
  let workloads = default Workloads.Suite.names workloads in
  let* () =
    List.fold_left
      (fun acc w ->
        let* () = acc in
        let* _ = check_workload w in
        Ok ())
      (Ok ()) workloads
  in
  let* () = if workloads = [] then fail "field \"workloads\": empty" else Ok () in
  let* ks =
    opt_field obj "ks"
      (fun v ->
        Option.bind (Json.to_list v) (fun vs ->
            let ks = List.filter_map Json.to_int vs in
            if List.length ks = List.length vs then Some ks else None))
      "a list of integers"
  in
  let ks = default Fleet.Sweep.default_ks ks in
  let* () = if ks = [] then fail "field \"ks\": empty" else Ok () in
  let* () =
    if List.for_all (fun k -> k >= 1) ks then Ok ()
    else fail "field \"ks\": every k must be >= 1"
  in
  let ks = Fleet.Sweep.normalize_ks ks in
  let* build = job_builder obj in
  Ok
    (Sweep
       (List.concat_map
          (fun scenario ->
            List.map (fun k -> { (build ~scenario) with Fleet.Job.k }) ks)
          workloads))

let parse_compress obj =
  let* workload = str_field obj "workload" in
  let* workload =
    match workload with
    | Some w -> check_workload w
    | None -> fail "op \"compress\" requires field \"workload\""
  in
  let* codec = str_field obj "codec" in
  let* codec =
    match codec with
    | None -> Ok None
    | Some c when List.mem c (Compress.Registry.names ()) -> Ok (Some c)
    | Some c ->
      (* the positional model has no standalone compressor to
         measure, so compress only takes real registry codecs *)
      fail "unknown codec %S for op \"compress\" (expected %s)" c
        (String.concat ", " (Compress.Registry.names ()))
  in
  Ok (Compress { workload; codec })

let parse_request line =
  match Json.parse line with
  | Error msg -> Error (Json.Null, err bad_json msg)
  | Ok json -> (
    let id = default Json.Null (Json.member "id" json) in
    let tag e = Error (id, e) in
    match
      let* () =
        match json with
        | Json.Obj _ -> Ok ()
        | _ -> fail "request must be a JSON object"
      in
      let* v = int_field json "v" in
      let* () =
        match v with
        | Some v when v <> protocol_version ->
          fail "protocol version %d not supported (this server speaks %d)" v
            protocol_version
        | _ -> Ok ()
      in
      let* timeout_ms = positive json "timeout_ms" in
      let* fuel = positive json "fuel" in
      let* op = str_field json "op" in
      let* request =
        match op with
        | None -> fail "missing field \"op\""
        | Some "health" -> Ok Health
        | Some "stats" -> Ok Stats
        | Some "sim" -> parse_sim json
        | Some "sweep" -> parse_sweep json
        | Some "compress" -> parse_compress json
        | Some other ->
          Error
            (err unknown_op
               (Printf.sprintf
                  "unknown op %S (known: health, stats, sim, sweep, compress)"
                  other))
      in
      Ok { id; timeout_ms; fuel; request }
    with
    | Ok envelope -> Ok envelope
    | Error e -> tag e)

(* ------------------------------------------------------------------ *)
(* Fast-path scanner                                                   *)

type fast_op =
  | Fast_health
  | Fast_stats

exception Bail

(* Recognizes exactly the hot read-only requests —
   [{"op":"health"}]-shaped lines whose only members are [op], a
   scalar [id] and [v] equal to 1 — without allocating. Anything
   else (escapes, duplicate members, extra fields, nested ids, other
   protocol versions) bails to the full parser, so the fast path can
   never accept a request the slow path would reject or vice versa.
   The returned id span points into [buf] and is valid only until the
   caller consumes the line. *)
let scan_fast buf ~pos ~len =
  let stop = pos + len in
  let i = ref pos in
  let peek () = if !i < stop then Bytes.unsafe_get buf !i else raise Bail in
  let ws () =
    while
      !i < stop
      &&
      match Bytes.unsafe_get buf !i with
      | ' ' | '\t' | '\r' -> true
      | _ -> false
    do
      incr i
    done
  in
  let expect c =
    if peek () = c then incr i else raise Bail
  in
  let literal s =
    String.iter
      (fun c ->
        if peek () = c then incr i else raise Bail)
      s
  in
  (* a quoted string with no escapes; returns (start, length) of the
     whole token including the quotes *)
  let quoted () =
    let s0 = !i in
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> incr i
      | '\\' -> raise Bail
      | c when Char.code c < 0x20 -> raise Bail
      | _ ->
        incr i;
        go ()
    in
    go ();
    (s0, !i - s0)
  in
  let number () =
    (match peek () with
    | '-' -> incr i
    | _ -> ());
    (match peek () with '0' .. '9' -> incr i | _ -> raise Bail);
    while
      !i < stop
      &&
      match Bytes.unsafe_get buf !i with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      incr i
    done
  in
  let scalar () =
    let s0 = !i in
    (match peek () with
    | '"' -> ignore (quoted ())
    | '-' | '0' .. '9' -> number ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | _ -> raise Bail);
    (s0, !i - s0)
  in
  let key_is s (k0, klen) =
    klen = String.length s + 2
    &&
    let ok = ref true in
    String.iteri
      (fun j c -> if Bytes.unsafe_get buf (k0 + 1 + j) <> c then ok := false)
      s;
    !ok
  in
  try
    ws ();
    expect '{';
    let op = ref None and id = ref None and v_seen = ref false in
    let rec members () =
      ws ();
      let k = quoted () in
      ws ();
      expect ':';
      ws ();
      if key_is "op" k then begin
        if !op <> None then raise Bail;
        let v0, vlen = quoted () in
        if key_is "health" (v0, vlen) then op := Some Fast_health
        else if key_is "stats" (v0, vlen) then op := Some Fast_stats
        else raise Bail
      end
      else if key_is "id" k then begin
        if !id <> None then raise Bail;
        id := Some (scalar ())
      end
      else if key_is "v" k then begin
        if !v_seen then raise Bail;
        v_seen := true;
        expect '1';
        match if !i < stop then Bytes.unsafe_get buf !i else ',' with
        | '0' .. '9' | '.' | 'e' | 'E' -> raise Bail (* 10, 1.5, 1e2 *)
        | _ -> ()
      end
      else raise Bail;
      ws ();
      match peek () with
      | ',' ->
        incr i;
        members ()
      | '}' -> incr i
      | _ -> raise Bail
    in
    ws ();
    (match peek () with
    | '}' -> raise Bail (* no op: the slow path owns the error *)
    | _ -> members ());
    ws ();
    if !i <> stop then raise Bail;
    match !op with Some o -> Some (o, !id) | None -> raise Bail
  with Bail -> None

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let ok_line ~id payload = Json.to_string (Json.Obj [ ("id", id); ("ok", payload) ])

let error_line ~id { code; msg; retry_after_ms } =
  let fields =
    [ ("code", Json.Str code); ("msg", Json.Str msg) ]
    @
    match retry_after_ms with
    | Some ms -> [ ("retry_after_ms", Json.Int ms) ]
    | None -> []
  in
  Json.to_string (Json.Obj [ ("id", id); ("error", Json.Obj fields) ])

let parse_response line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "unparseable response: %s" msg)
  | Ok json -> (
    let id = default Json.Null (Json.member "id" json) in
    match (Json.member "ok" json, Json.member "error" json) with
    | Some payload, None -> Ok (id, Ok payload)
    | None, Some e ->
      let str name = Option.bind (Json.member name e) Json.to_str in
      let code = default "internal" (str "code") in
      let msg = default "" (str "msg") in
      let retry_after_ms =
        Option.bind (Json.member "retry_after_ms" e) Json.to_int
      in
      Ok (id, Error { code; msg; retry_after_ms })
    | _ -> Error "response has neither \"ok\" nor \"error\"")

let metrics_to_json (m : Core.Metrics.t) =
  let field (Core.Metrics.Field (name, kind, get)) =
    ( name,
      match kind with Int -> Json.Int (get m) | Float -> Json.Float (get m) )
  in
  Json.Obj
    (List.map field Core.Metrics.fields
    @ [
        ("overhead_ratio", Json.Float (Core.Metrics.overhead_ratio m));
        ("peak_memory_saving", Json.Float (Core.Metrics.peak_memory_saving m));
        ("avg_memory_saving", Json.Float (Core.Metrics.avg_memory_saving m));
        ( "energy_overhead_ratio",
          Json.Float (Core.Metrics.energy_overhead_ratio m) );
      ])

let job_to_json (j : Fleet.Job.t) =
  let setting ((knob : Fleet.Job.Knob.t), v) =
    ( knob.name,
      match v with
      | Fleet.Job.Knob.Str s -> Json.Str s
      | Int i -> Json.Int i
      | Float f -> Json.Float f )
  in
  Json.Obj
    (("workload", Json.Str j.scenario)
    :: List.map setting (Fleet.Job.settings j))

let outcome_to_json (o : Fleet.Sweep.outcome) =
  Json.Obj
    ([
       ("job", job_to_json o.job);
       ("key", Json.Str (Fleet.Job.key o.job));
       ("cached", Json.Bool o.cached);
     ]
    @
    match o.result with
    | Ok m -> [ ("metrics", metrics_to_json m) ]
    | Error msg ->
      [
        ( "error",
          Json.Obj
            [
              ("code", Json.Str (classify_run_error msg));
              ("msg", Json.Str msg);
            ] );
      ])
