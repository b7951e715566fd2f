type t = {
  k : int;
  k_of : int -> int;
  base : int array;  (* step of last reset; -1 = untracked *)
  (* Pending due steps. A re-track just arms a new timer; an entry is
     live only while the block's current [base + k] still lands on the
     entry's step. *)
  timers : Timers.t;
  live : int -> int -> bool;  (* built once: [due] allocates no closure *)
}

let create ?k_of ~blocks ~k () =
  if k < 1 then invalid_arg "Memsim.Kedge.create: k must be >= 1";
  if blocks < 1 then invalid_arg "Memsim.Kedge.create: blocks must be >= 1";
  let k_of =
    match k_of with
    | None -> fun _ -> k
    | Some f ->
      fun b ->
        let kb = f b in
        if kb < 1 then invalid_arg "Memsim.Kedge: per-block k must be >= 1"
        else kb
  in
  let base = Array.make blocks (-1) in
  (* A block is really due only if it was not reset again since the
     entry was queued and is still tracked. *)
  let live b step = base.(b) >= 0 && base.(b) + k_of b = step in
  { k; k_of; base; timers = Timers.create (); live }

let k t = t.k
let k_for t ~block = t.k_of block

let track t ~block ~step =
  t.base.(block) <- step;
  let kb = t.k_of block in
  (* Guard against overflow for "never compress" style huge k. *)
  if kb <= max_int - step then Timers.push t.timers ~at:(step + kb) block

let untrack t ~block = t.base.(block) <- -1
let tracked t ~block = t.base.(block) >= 0

let counter t ~block ~step =
  let base = t.base.(block) in
  if base < 0 then None else Some (step - base)

let due t ~step = Timers.pop_due t.timers ~step ~live:t.live
