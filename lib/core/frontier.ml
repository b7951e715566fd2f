type t = {
  k : int;
  profile : Cfg.Profile.t option;
  succs : int array array;
  start : int array;  (* offset of each block's entry; -1 = not built *)
  len : int array;
  mutable ids : int array;  (* every built entry, back to back *)
  mutable reach : float array;  (* parallel to [ids]; profile only *)
  mutable used : int;
  (* Build scratch, allocated on the first build and left all-clear
     (-1 / 0.0) between builds. *)
  mutable dist : int array;
  mutable cur : float array;
  mutable nxt : float array;
  mutable best : float array;
  mutable cur_ids : int array;
  mutable nxt_ids : int array;
}

let create ?profile ~succs ~k () =
  if k < 0 then invalid_arg "Core.Frontier.create: negative k";
  let n = Array.length succs in
  {
    k;
    profile;
    succs;
    start = Array.make n (-1);
    len = Array.make n 0;
    ids = [||];
    reach = [||];
    used = 0;
    dist = [||];
    cur = [||];
    nxt = [||];
    best = [||];
    cur_ids = [||];
    nxt_ids = [||];
  }

let k t = t.k
let succs t b = t.succs.(b)

(* Room for [extra] more entries (a block's frontier never exceeds the
   block count). *)
let reserve t extra =
  let need = t.used + extra in
  if need > Array.length t.ids then begin
    let cap = max need (2 * Array.length t.ids) in
    let ids = Array.make cap 0 in
    Array.blit t.ids 0 ids 0 t.used;
    t.ids <- ids;
    if Option.is_some t.profile then begin
      let reach = Array.make cap 0.0 in
      Array.blit t.reach 0 reach 0 t.used;
      t.reach <- reach
    end
  end

(* Breadth-first from [from]'s successors, as [Cfg.Dist.bfs] does: the
   ids segment is the queue itself, since entries are listed in the
   order they are first reached. *)
let bfs t from =
  let ids = t.ids and dist = t.dist and base = t.used in
  let tail = ref base in
  let reach_from d s =
    if dist.(s) < 0 then begin
      dist.(s) <- d;
      ids.(!tail) <- s;
      incr tail
    end
  in
  Array.iter (reach_from 1) t.succs.(from);
  let head = ref base in
  while !head < !tail do
    let b = ids.(!head) in
    incr head;
    if dist.(b) < t.k then Array.iter (reach_from (dist.(b) + 1)) t.succs.(b)
  done;
  for j = base to !tail - 1 do
    dist.(ids.(j)) <- -1
  done;
  !tail - base

(* [Predictor]'s max-probability relaxation: [k] rounds, each taking
   the largest product into every successor reached with a positive
   one; an entry's reach is its largest value over the rounds. Max is
   exact on floats, so visiting order does not matter and the values
   match the reference bit for bit. *)
let relax t profile from ~base ~n =
  let cur = ref t.cur and nxt = ref t.nxt in
  let cur_ids = ref t.cur_ids and nxt_ids = ref t.nxt_ids in
  let best = t.best in
  let cur_len = ref 1 in
  !cur_ids.(0) <- from;
  !cur.(from) <- 1.0;
  for _ = 1 to t.k do
    let nxt_len = ref 0 in
    for i = 0 to !cur_len - 1 do
      let b = !cur_ids.(i) in
      let p = !cur.(b) in
      Array.iter
        (fun s ->
          let p' = p *. Cfg.Profile.edge_probability profile ~src:b ~dst:s in
          if p' > 0.0 then begin
            if !nxt.(s) = 0.0 then begin
              !nxt_ids.(!nxt_len) <- s;
              incr nxt_len
            end;
            if p' > !nxt.(s) then !nxt.(s) <- p'
          end)
        t.succs.(b)
    done;
    for i = 0 to !cur_len - 1 do
      !cur.(!cur_ids.(i)) <- 0.0
    done;
    for i = 0 to !nxt_len - 1 do
      let s = !nxt_ids.(i) in
      if !nxt.(s) > best.(s) then best.(s) <- !nxt.(s)
    done;
    let c = !cur and ci = !cur_ids in
    cur := !nxt;
    cur_ids := !nxt_ids;
    nxt := c;
    nxt_ids := ci;
    cur_len := !nxt_len
  done;
  for i = 0 to !cur_len - 1 do
    !cur.(!cur_ids.(i)) <- 0.0
  done;
  (* every block reached in at most k rounds is an entry *)
  for j = base to base + n - 1 do
    let c = t.ids.(j) in
    t.reach.(j) <- best.(c);
    best.(c) <- 0.0
  done

let build t from =
  let blocks = Array.length t.succs in
  if Array.length t.dist = 0 then begin
    t.dist <- Array.make blocks (-1);
    if Option.is_some t.profile then begin
      t.cur <- Array.make blocks 0.0;
      t.nxt <- Array.make blocks 0.0;
      t.best <- Array.make blocks 0.0;
      t.cur_ids <- Array.make blocks 0;
      t.nxt_ids <- Array.make blocks 0
    end
  end;
  reserve t blocks;
  let base = t.used in
  let n = bfs t from in
  (match t.profile with
  | Some profile -> relax t profile from ~base ~n
  | None -> ());
  t.start.(from) <- base;
  t.len.(from) <- n;
  t.used <- base + n

let first t b =
  if t.start.(b) < 0 then build t b;
  t.start.(b)

let length t b = t.len.(b)
let id t j = t.ids.(j)

let rec scan_nearest ids eligible j stop =
  if j >= stop then -1
  else
    let c = ids.(j) in
    if eligible c then c else scan_nearest ids eligible (j + 1) stop

let nearest t ~from ~eligible =
  let off = first t from in
  scan_nearest t.ids eligible off (off + t.len.(from))

(* Index-carrying scan: the running maximum stays in the array, so no
   float is boxed. *)
let rec scan_best ids (reach : float array) eligible j stop bj =
  if j >= stop then if bj < 0 then -1 else ids.(bj)
  else if eligible ids.(j) && (bj < 0 || reach.(j) > reach.(bj)) then
    scan_best ids reach eligible (j + 1) stop j
  else scan_best ids reach eligible (j + 1) stop bj

let best t ~from ~eligible =
  if Option.is_none t.profile then invalid_arg "Core.Frontier.best: no profile";
  let off = first t from in
  scan_best t.ids t.reach eligible off (off + t.len.(from)) (-1)
