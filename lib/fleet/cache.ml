(* v2: per-dimension energy totals joined Core.Metrics.t; v1 entries
   lack them and must read as misses, never as stale hits. *)
let entry_version = 2
let default_dir = ".ccomp-cache"
let header = Printf.sprintf "ccomp-fleet-entry %d" entry_version

type t = { dir : string }

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then begin
    if path <> "" && Sys.file_exists path && not (Sys.is_directory path) then
      raise (Sys_error (path ^ ": exists and is not a directory"))
  end
  else begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.is_directory path -> ()
    (* lost a race to a concurrent creator: fine *)
  end

let open_dir dir =
  mkdir_p dir;
  { dir }

let dir t = t.dir

(* ------------------------------------------------------------------ *)
(* Entry serialization                                                 *)

(* One line per Core.Metrics field, in field-list order. The parser
   is strict (every field exactly once, nothing else), so an entry
   written before a field joined the record reads as a miss, never as
   a silently wrong hit. Floats use %h: hexadecimal round-trips the
   exact bits, which the determinism guarantee needs. *)

let metrics_to_string (m : Core.Metrics.t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  List.iter
    (fun (Core.Metrics.Field (name, kind, get)) ->
      Buffer.add_string b name;
      Buffer.add_char b '=';
      Buffer.add_string b
        (match kind with
        | Int -> string_of_int (get m)
        | Float -> Printf.sprintf "%h" (get m));
      Buffer.add_char b '\n')
    Core.Metrics.fields;
  Buffer.contents b

exception Bad_entry of string

let metrics_of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char '\n' s with
  | [] -> Error "empty entry"
  | h :: _ when h <> header ->
    Error (Printf.sprintf "version/header mismatch %S" h)
  | _ :: rest ->
    let fields = Hashtbl.create 32 in
    let* () =
      List.fold_left
        (fun acc line ->
          let* () = acc in
          if String.trim line = "" then Ok ()
          else
            match String.index_opt line '=' with
            | None -> Error (Printf.sprintf "bad entry line %S" line)
            | Some i ->
              let k = String.sub line 0 i in
              let v = String.sub line (i + 1) (String.length line - i - 1) in
              if Hashtbl.mem fields k then
                Error (Printf.sprintf "duplicate field %S" k)
              else begin
                Hashtbl.replace fields k v;
                Ok ()
              end)
        (Ok ()) rest
    in
    let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_entry msg)) fmt in
    let read : type a. string -> a Core.Metrics.kind -> a =
     fun k kind ->
      match (Hashtbl.find_opt fields k, kind) with
      | None, _ -> bad "missing field %S" k
      | Some v, Int -> (
        match int_of_string_opt v with
        | Some i -> i
        | None -> bad "bad integer %S for %S" v k)
      | Some v, Float -> (
        match float_of_string_opt v with
        | Some f -> f
        | None -> bad "bad float %S for %S" v k)
    in
    match Core.Metrics.of_reader { read } with
    | exception Bad_entry msg -> Error msg
    | m ->
      if List.length Core.Metrics.fields <> Hashtbl.length fields then
        Error "unknown extra fields in entry"
      else Ok m

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let path_of t key = Filename.concat t.dir (key ^ ".metrics")

let find t key =
  let path = path_of t key in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | contents -> (
    match metrics_of_string contents with
    | Ok m -> Some m
    | Error _ -> None)

(* ------------------------------------------------------------------ *)
(* Stats and eviction                                                  *)

type stats = { entries : int; bytes : int }

(* Every [(name, size, mtime)] for the entries currently on disk.
   Races with concurrent writers/removers are benign: a file that
   vanishes between readdir and stat is simply skipped. *)
let scan t =
  let names = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc name ->
      if Filename.check_suffix name ".metrics" then
        match Unix.stat (Filename.concat t.dir name) with
        | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
          (name, st_size, st_mtime) :: acc
        | _ | (exception Unix.Unix_error _) -> acc
      else acc)
    [] names

let stats t =
  List.fold_left
    (fun acc (_, size, _) -> { entries = acc.entries + 1; bytes = acc.bytes + size })
    { entries = 0; bytes = 0 }
    (scan t)

let gc t ~max_bytes =
  if max_bytes < 0 then
    invalid_arg
      (Printf.sprintf "Fleet.Cache.gc: max_bytes must be >= 0 (got %d)"
         max_bytes);
  (* Oldest mtime first; name as tie-break so the victim order is
     deterministic when a burst of stores lands in the same second. *)
  let entries =
    List.sort
      (fun (n1, _, t1) (n2, _, t2) -> compare (t1, n1) (t2, n2))
      (scan t)
  in
  let total = List.fold_left (fun acc (_, size, _) -> acc + size) 0 entries in
  let removed = ref { entries = 0; bytes = 0 } in
  let live = ref total in
  List.iter
    (fun (name, size, _) ->
      if !live > max_bytes then begin
        (* Sys.remove of one file is atomic; a reader that already
           opened it keeps its contents, a later reader just misses. *)
        match Sys.remove (Filename.concat t.dir name) with
        | () ->
          live := !live - size;
          removed :=
            { entries = !removed.entries + 1; bytes = !removed.bytes + size }
        | exception Sys_error _ -> ()
      end)
    entries;
  !removed

let store t key m =
  let tmp = Filename.temp_file ~temp_dir:t.dir ".entry" ".tmp" in
  match
    Out_channel.with_open_text tmp (fun oc ->
        Out_channel.output_string oc (metrics_to_string m))
  with
  | () -> Sys.rename tmp (path_of t key)
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
