(* In-memory spans for the traced run. Each span records its name,
   start and end (seconds since the run began), the span that was open
   around it, and the request it belongs to (-1 outside the daemon
   workload). Spans are kept in memory and written out once, at the
   end, so recording one costs two clock reads and a cons.

   Recording is off unless [enable] was called: [with_] then only
   calls its argument. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0 = top level *)
  req : int;
}

let enabled = ref false
let origin = ref 0.0
let recorded : t list ref = ref []
let open_ : int list ref = ref []
let next_id = ref 0

let enable () =
  enabled := true;
  origin := Unix.gettimeofday ()

let fresh_id () =
  incr next_id;
  !next_id

(* A span timed elsewhere (the daemon workload's generator process
   times each request): top level, tagged with its request id. *)
let add ~name ~req ~start ~stop =
  let id = fresh_id () in
  recorded :=
    { id; name; start = start -. !origin; stop = stop -. !origin; parent = 0; req }
    :: !recorded

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = match !open_ with p :: _ -> p | [] -> 0 in
    open_ := id :: !open_;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        open_ := List.tl !open_;
        recorded :=
          {
            id;
            name;
            start = start -. !origin;
            stop = stop -. !origin;
            parent;
            req = -1;
          }
          :: !recorded)
      f
  end

let named name = List.filter (fun s -> s.name = name) !recorded

(* Total seconds spent inside spans called [name]. *)
let total name =
  List.fold_left (fun acc s -> acc +. (s.stop -. s.start)) 0.0 (named name)

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Service.Json.to_string
               (Service.Json.Obj
                  [
                    ("id", Service.Json.Int s.id);
                    ("name", Service.Json.Str s.name);
                    ("start", Service.Json.Float s.start);
                    ("end", Service.Json.Float s.stop);
                    ("parent", Service.Json.Int s.parent);
                    ("req", Service.Json.Int s.req);
                  ]));
          output_char oc '\n')
        (List.rev !recorded))
