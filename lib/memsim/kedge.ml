type t = {
  k : int;
  ks : int array;  (* per-block k, precomputed; checked on use *)
  base : int array;  (* step of last reset; -1 = untracked *)
  (* Pending due steps. A re-track just arms a new timer; an entry is
     live only while the block's current [base + k] still lands on the
     entry's step. *)
  timers : Timers.t;
}

let create ?k_of ~blocks ~k () =
  if k < 1 then invalid_arg "Memsim.Kedge.create: k must be >= 1";
  if blocks < 1 then invalid_arg "Memsim.Kedge.create: blocks must be >= 1";
  let ks =
    match k_of with
    | None -> Array.make blocks k
    | Some f -> Array.init blocks f
  in
  { k; ks; base = Array.make blocks (-1); timers = Timers.create () }

let k t = t.k

let k_for t ~block =
  let kb = t.ks.(block) in
  if kb < 1 then invalid_arg "Memsim.Kedge: per-block k must be >= 1" else kb

let track t ~block ~step =
  t.base.(block) <- step;
  let kb = k_for t ~block in
  (* Guard against overflow for "never compress" style huge k. *)
  if kb <= max_int - step then Timers.push t.timers ~at:(step + kb) block

let untrack t ~block = t.base.(block) <- -1
let tracked t ~block = t.base.(block) >= 0

let counter t ~block ~step =
  let base = t.base.(block) in
  if base < 0 then None else Some (step - base)

(* A block is really due only if it was not reset again since the
   entry was queued and is still tracked. *)
let rec keep_live t step buf i n m =
  if i >= n then m
  else begin
    let b = Timers.fired t.timers i in
    let base = t.base.(b) in
    keep_live t step buf (i + 1) n
      (if base >= 0 && base + t.ks.(b) = step then Timers.insert_sorted buf m b
       else m)
  end

let due_into t ~step buf =
  keep_live t step buf 0 (Timers.pop_at t.timers ~step) 0

let due t ~step =
  let buf = Array.make (Array.length t.base) 0 in
  Array.to_list (Array.sub buf 0 (due_into t ~step buf))
