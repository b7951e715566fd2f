type t =
  | First_successor
  | Last_taken
  | By_profile of Cfg.Profile.t

let name = function
  | First_successor -> "first-successor"
  | Last_taken -> "last-taken"
  | By_profile _ -> "profile"

type state = { last : int array (* -1 = unknown *) }

let create_state ~blocks = { last = Array.make (max blocks 1) (-1) }

let note_edge state ~src ~dst =
  if src >= 0 && src < Array.length state.last then state.last.(src) <- dst

(* Follows a single predicted path for up to [k] steps and returns the
   first candidate encountered. *)
let follow_path next_of ~from ~k ~candidate =
  let rec walk cur steps =
    if steps >= k then None
    else
      match next_of cur with
      | None -> None
      | Some nxt -> if candidate nxt then Some nxt else walk nxt (steps + 1)
  in
  walk from 0

(* Max-probability reach within [k] steps: k rounds of relaxation. *)
let best_by_profile profile g ~from ~k ~candidates =
  let n = Cfg.Graph.num_blocks g in
  let prob = Array.make n 0.0 in
  let frontier = ref [ (from, 1.0) ] in
  let best = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace best c 0.0) candidates;
  for _ = 1 to k do
    let next = Hashtbl.create 8 in
    List.iter
      (fun (b, p) ->
        List.iter
          (fun s ->
            let p' = p *. Cfg.Profile.edge_probability profile ~src:b ~dst:s in
            if p' > 0.0 then begin
              let cur = Option.value ~default:0.0 (Hashtbl.find_opt next s) in
              if p' > cur then Hashtbl.replace next s p'
            end)
          (Cfg.Graph.succ_ids g b))
      !frontier;
    Hashtbl.iter
      (fun b p ->
        (match Hashtbl.find_opt best b with
        | Some cur when p > cur -> Hashtbl.replace best b p
        | Some _ -> ()
        | None -> ());
        if b >= 0 && b < n then prob.(b) <- max prob.(b) p)
      next;
    frontier := Hashtbl.fold (fun b p acc -> (b, p) :: acc) next []
  done;
  let pick =
    List.fold_left
      (fun acc c ->
        let p = Option.value ~default:0.0 (Hashtbl.find_opt best c) in
        match acc with
        | None -> Some (c, p)
        | Some (_, bp) when p > bp -> Some (c, p)
        | Some _ -> acc)
      None candidates
  in
  Option.map fst pick

let choose t state g ~from ~k ~candidates =
  match candidates with
  | [] -> None
  | nearest :: _ -> (
    let is_candidate b = List.mem b candidates in
    let fallback = Some nearest in
    match t with
    | First_successor -> (
      let next_of b =
        match Cfg.Graph.succ_ids g b with [] -> None | s :: _ -> Some s
      in
      match follow_path next_of ~from ~k ~candidate:is_candidate with
      | Some c -> Some c
      | None -> fallback)
    | Last_taken -> (
      let next_of b =
        let remembered = state.last.(b) in
        if remembered >= 0 && List.mem remembered (Cfg.Graph.succ_ids g b) then
          Some remembered
        else
          match Cfg.Graph.succ_ids g b with [] -> None | s :: _ -> Some s
      in
      match follow_path next_of ~from ~k ~candidate:is_candidate with
      | Some c -> Some c
      | None -> fallback)
    | By_profile profile -> (
      match best_by_profile profile g ~from ~k ~candidates with
      | Some c -> Some c
      | None -> fallback))

(* --- table-driven pick for the engine's per-edge use --- *)

let rec mem_int (a : int array) x i =
  i < Array.length a && (a.(i) = x || mem_int a x (i + 1))

(* [next_of] of [choose]'s path predictors, over the table's successor
   arrays; -1 = no successor. *)
let next_on_path t state fr b =
  let succs = Frontier.succs fr b in
  let remembered =
    match t with
    | Last_taken -> state.last.(b)
    | First_successor | By_profile _ -> -1
  in
  if remembered >= 0 && mem_int succs remembered 0 then remembered
  else if Array.length succs = 0 then -1
  else succs.(0)

(* [follow_path]: every block on a path of at most k edges lies on the
   k-edge frontier, so "candidate" reduces to [eligible]. *)
let rec walk t state fr ~eligible cur steps =
  if steps >= Frontier.k fr then -1
  else
    let nxt = next_on_path t state fr cur in
    if nxt < 0 then -1
    else if eligible nxt then nxt
    else walk t state fr ~eligible nxt (steps + 1)

let pick t state fr ~from ~eligible =
  match t with
  | By_profile _ -> Frontier.best fr ~from ~eligible
  | First_successor | Last_taken ->
    let c = walk t state fr ~eligible from 0 in
    if c >= 0 then c else Frontier.nearest fr ~from ~eligible
