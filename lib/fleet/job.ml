type strategy =
  | On_demand
  | Pre_all of { lookahead : int }
  | Pre_single of { lookahead : int; predictor : string }

type mode =
  | Discard
  | Recompress

type retention =
  | Kedge
  | Loop_aware of { weight : int }
  | Clock
  | Pin_hot of { fraction : float }

type t = {
  scenario : string;
  codec : string;
  k : int;
  strategy : strategy;
  mode : mode;
  budget : int option;
  retention : retention;
  profile : string;
  line_size : int option;
}

let default_codec = "code"
let default_profile = "paper-2005"

let make ?(codec = default_codec) ?(strategy = On_demand) ?(mode = Discard)
    ?budget ?(retention = Kedge) ?(profile = default_profile) ?line_size
    ~scenario ~k () =
  { scenario; codec; k; strategy; mode; budget; retention; profile; line_size }

(* Bump when the canonical rendering below (or the meaning of any
   field) changes: old cache entries must stop matching.
   v2: device profile joined the spec.
   v3: line_size joined the spec (line-granular residency runs).
   v4: scenario may be a corpus spec (gen:/multi:), canonicalized at
   parse time — the same shape always renders the same key. *)
let spec_version = 4

let strategy_to_string = function
  | On_demand -> "on-demand"
  | Pre_all { lookahead } -> Printf.sprintf "pre-all:%d" lookahead
  | Pre_single { lookahead; predictor } ->
    Printf.sprintf "pre-single:%d:%s" lookahead predictor

let mode_to_string = function
  | Discard -> "discard"
  | Recompress -> "recompress"

let retention_to_string = function
  | Kedge -> "kedge"
  | Loop_aware { weight } -> Printf.sprintf "loop-aware:%d" weight
  | Clock -> "clock"
  (* %h renders the float exactly (hexadecimal), so equal fractions
     always canonicalize identically. *)
  | Pin_hot { fraction } -> Printf.sprintf "pin-hot:%h" fraction

let canonical t =
  Printf.sprintf
    "ccomp-job \
     %d|scenario=%s|codec=%s|k=%d|strategy=%s|mode=%s|budget=%s|retention=%s|profile=%s|line_size=%s"
    spec_version t.scenario t.codec t.k
    (strategy_to_string t.strategy)
    (mode_to_string t.mode)
    (match t.budget with None -> "none" | Some b -> string_of_int b)
    (retention_to_string t.retention)
    t.profile
    (match t.line_size with None -> "none" | Some l -> string_of_int l)

let key t =
  Printf.sprintf "v%d-%s" spec_version (Digest.to_hex (Digest.string (canonical t)))

let describe t =
  Printf.sprintf "%s codec=%s k=%d %s %s%s retention=%s%s" t.scenario t.codec
    t.k
    (strategy_to_string t.strategy)
    (mode_to_string t.mode)
    (match t.budget with
    | None -> ""
    | Some b -> Printf.sprintf " budget=%dB" b)
    (retention_to_string t.retention)
    ((if t.profile = default_profile then ""
      else Printf.sprintf " profile=%s" t.profile)
    ^
    match t.line_size with
    | None -> ""
    | Some l -> Printf.sprintf " line=%dB" l)

let registry_codec name =
  if name = default_codec then None else Some (Compress.Registry.find_exn name)

(* ------------------------------------------------------------------ *)
(* Policy knobs                                                        *)

module Knob = struct
  type value =
    | Str of string
    | Int of int
    | Float of float

  type kind =
    | Choice of (unit -> string list)
    | At_least of int
    | Fraction

  type t = {
    name : string;
    flag : string;
    kind : kind;
    default : value option;
    doc : string;
  }

  let make ?flag ?default name kind doc =
    let dashed = String.map (function '_' -> '-' | c -> c) name in
    { name; flag = Option.value flag ~default:dashed; kind; default; doc }

  let choice names = Choice (fun () -> names)

  let codec =
    make "codec"
      (Choice (fun () -> default_codec :: Compress.Registry.names ()))
      ~default:(Str default_codec)
      "Codec: a registry codec (see `ccomp compress --list`), or 'code' \
       for the positional shared-Huffman model trained on the workload \
       itself."

  let k =
    make "k" (At_least 1) ~default:(Int 8)
      "k of the k-edge compression algorithm."

  let strategy =
    make "strategy"
      (choice [ "on-demand"; "pre-all"; "pre-single" ])
      ~default:(Str "on-demand") "Decompression strategy."

  let lookahead =
    make "lookahead" (At_least 1) ~default:(Int 2)
      "Pre-decompression distance in edges (pre-all, pre-single)."

  let predictor =
    make "predictor"
      (choice [ "first"; "last-taken"; "profile" ])
      ~default:(Str "profile") "Successor predictor of pre-single."

  let mode =
    make "mode" ~flag:"recompress"
      (choice [ "discard"; "recompress" ])
      ~default:(Str "discard")
      "Recompress finished blocks in a background thread instead of the \
       paper's discard implementation."

  let budget =
    make "budget" (At_least 1)
      "Maximum decompressed-area bytes (LRU eviction)."

  let retention =
    make "retention"
      (choice [ "kedge"; "loop-aware"; "clock"; "pin-hot" ])
      ~default:(Str "kedge")
      "Retention policy for decompressed copies: kedge (the paper's \
       k-edge/LRU scheme), loop-aware (k scaled by 1 + weight x loop \
       depth), clock (second-chance, O(1) state) or pin-hot (profile-hot \
       blocks are never discarded)."

  let weight =
    make "weight" (At_least 1) ~default:(Int 1)
      "Loop-depth weight of loop-aware retention."

  let fraction =
    make "fraction" Fraction ~default:(Float 0.5)
      "Share of block visits the pinned set of pin-hot retention covers."

  let profile =
    make "profile" ~flag:"device-profile"
      (Choice (fun () -> Sim.Cost.profile_names))
      ~default:(Str default_profile)
      "Device profile naming the cost coefficients (cycle and energy) \
       every charge is priced with."

  let line_size =
    make "line_size" (At_least 4)
      (Printf.sprintf
         "Compress and retain the image per fixed-size cache line of this \
          many bytes instead of per basic block (the compressed-I-cache \
          scenario). The bdi-* and cpack-* codecs are line codecs at sizes \
          %s."
         (String.concat ", "
            (List.map string_of_int Compress.Linecodec.line_sizes)))

  let all =
    [
      codec; k; strategy; lookahead; predictor; mode; budget; retention;
      weight; fraction; profile; line_size;
    ]

  let check t v =
    match (t.kind, v) with
    | Choice names, Str s ->
      let names = names () in
      if List.mem s names then Ok ()
      else
        Error
          (Printf.sprintf "expected one of %s (got %S)"
             (String.concat ", " names) s)
    | At_least lo, Int i ->
      if i >= lo then Ok ()
      else Error (Printf.sprintf "must be >= %d (got %d)" lo i)
    | Fraction, Float f ->
      if f > 0.0 && f <= 1.0 then Ok ()
      else Error (Printf.sprintf "must be in (0, 1] (got %g)" f)
    | (Choice _ | At_least _ | Fraction), _ -> Error "value of the wrong type"
end

let settings t =
  let open Knob in
  let opt knob = Option.fold ~none:[] ~some:(fun v -> [ (knob, Int v) ]) in
  [ (codec, Str t.codec); (k, Int t.k) ]
  @ (match t.strategy with
    | On_demand -> [ (strategy, Str "on-demand") ]
    | Pre_all { lookahead = l } ->
      [ (strategy, Str "pre-all"); (lookahead, Int l) ]
    | Pre_single { lookahead = l; predictor = p } ->
      [ (strategy, Str "pre-single"); (lookahead, Int l); (predictor, Str p) ])
  @ [ (mode, Str (mode_to_string t.mode)) ]
  @ opt budget t.budget
  @ (match t.retention with
    | Kedge -> [ (retention, Str "kedge") ]
    | Loop_aware { weight = w } ->
      [ (retention, Str "loop-aware"); (weight, Int w) ]
    | Clock -> [ (retention, Str "clock") ]
    | Pin_hot { fraction = f } ->
      [ (retention, Str "pin-hot"); (fraction, Float f) ])
  @ [ (profile, Str t.profile) ]
  @ opt line_size t.line_size

let of_settings given =
  let ( let* ) = Result.bind in
  let* () =
    List.fold_left
      (fun acc ((knob : Knob.t), v) ->
        let* () = acc in
        Result.map_error
          (Printf.sprintf "field %S: %s" knob.name)
          (Knob.check knob v))
      (Ok ()) given
  in
  let value knob =
    match List.assq_opt knob given with
    | None -> knob.Knob.default
    | v -> v
  in
  (* Knob.check above guarantees every value has its knob's kind. *)
  let str knob =
    match value knob with Some (Knob.Str s) -> s | _ -> assert false
  in
  let int knob =
    match value knob with
    | Some (Knob.Int i) -> Some i
    | None -> None
    | Some _ -> assert false
  in
  let num knob = Option.get (int knob) in
  let strategy =
    match str Knob.strategy with
    | "pre-all" -> Pre_all { lookahead = num Knob.lookahead }
    | "pre-single" ->
      Pre_single
        { lookahead = num Knob.lookahead; predictor = str Knob.predictor }
    | _ -> On_demand
  in
  let retention =
    match (str Knob.retention, value Knob.fraction) with
    | "loop-aware", _ -> Loop_aware { weight = num Knob.weight }
    | "clock", _ -> Clock
    | "pin-hot", Some (Knob.Float fraction) -> Pin_hot { fraction }
    | _ -> Kedge
  in
  let mode = if str Knob.mode = "recompress" then Recompress else Discard in
  let codec = str Knob.codec
  and k = num Knob.k
  and budget = int Knob.budget
  and profile = str Knob.profile
  and line_size = int Knob.line_size in
  Ok
    (fun ~scenario ->
      {
        scenario;
        codec;
        k;
        strategy;
        mode;
        budget;
        retention;
        profile;
        line_size;
      })

let predictor_of sc = function
  | "first" -> Core.Predictor.First_successor
  | "last-taken" -> Core.Predictor.Last_taken
  | "profile" -> Core.Predictor.By_profile (Core.Scenario.profile sc)
  | other -> invalid_arg (Printf.sprintf "Fleet.Job: unknown predictor %S" other)

let policy sc t =
  let strategy =
    match t.strategy with
    | On_demand -> Core.Policy.On_demand
    | Pre_all { lookahead } -> Core.Policy.Pre_all { lookahead }
    | Pre_single { lookahead; predictor } ->
      Core.Policy.Pre_single
        { lookahead; predictor = predictor_of sc predictor }
  in
  let mode =
    match t.mode with
    | Discard -> Core.Policy.Discard
    | Recompress -> Core.Policy.Recompress
  in
  let retention =
    match t.retention with
    | Kedge -> Residency.Policy.Kedge
    | Loop_aware { weight } -> Residency.Policy.Loop_aware { weight }
    | Clock -> Residency.Policy.Clock
    | Pin_hot { fraction } ->
      let profile = Core.Scenario.profile sc in
      Residency.Policy.Pin_hot
        { pinned = Cfg.Profile.hot_blocks profile ~fraction }
  in
  Core.Policy.make ~mode ~strategy ?budget:t.budget ~retention
    ~compress_k:t.k ()

let execute ?sink ?registry sc t =
  let policy = policy sc t in
  match t.line_size with
  | None -> Core.Scenario.run ~profile:t.profile ?sink ?registry sc policy
  | Some line_size ->
    Core.Lineview.run ~profile:t.profile ?sink ?registry ~line_size sc policy
