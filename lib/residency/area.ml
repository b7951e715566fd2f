type 'site t = {
  policy : Policy.t;
  blocks : int;
  site_key : 'site -> int;
  (* Remember sets: per target, the first [counts.(t)] entries of
     [sites.(t)] are the recorded payloads in recording order, with no
     two sharing a [site_key]. The sets hold a handful of sites, so
     dedup is a short scan. Arrays grow by doubling. [release] drops a
     target's array, payloads and all, so a discarded copy keeps no
     patched site alive. [release_count] and [forget_key], the
     engine's closure-free paths, keep the array and leave vacated
     slots in place until a later record overwrites them, which costs
     nothing for immediate sites such as the engine's block ids: the
     engine stops allocating for a set once it reaches its high-water
     mark. *)
  sites : 'site array array;
  counts : int array;
}

let create ~policy ~blocks ~site_key () =
  if blocks < 1 then invalid_arg "Residency.Area.create: blocks must be >= 1";
  {
    policy;
    blocks;
    site_key;
    sites = Array.make blocks [||];
    counts = Array.make blocks 0;
  }

let policy t = t.policy
let on_materialize t ~block ~step = t.policy.Policy.on_materialize ~block ~step
let on_ready t ~block ~time = t.policy.Policy.on_ready ~block ~time

let on_execute t ~block ~step ~time =
  t.policy.Policy.on_execute ~block ~step ~time

let rearm t ~block ~step = t.policy.Policy.rearm ~block ~step
let due t ~step = t.policy.Policy.due ~step
let victim t ~exclude = t.policy.Policy.victim ~exclude

(* Closure-free, for the engine's hot loop: the index of the payload
   keyed [key] among the first [n], or -1. *)
let rec index_of_key t a key i n =
  if i >= n then -1
  else if t.site_key a.(i) = key then i
  else index_of_key t a key (i + 1) n

let record_site t ~target ~site =
  let a = t.sites.(target) and n = t.counts.(target) in
  if index_of_key t a (t.site_key site) 0 n >= 0 then false
  else begin
    let a =
      if n < Array.length a then a
      else begin
        let grown = Array.make (max 4 (2 * n)) site in
        Array.blit a 0 grown 0 n;
        t.sites.(target) <- grown;
        grown
      end
    in
    a.(n) <- site;
    t.counts.(target) <- n + 1;
    true
  end

let site_count t ~target = t.counts.(target)
let total_sites t = Array.fold_left ( + ) 0 t.counts

let forget_key t ~target ~key =
  let a = t.sites.(target) and n = t.counts.(target) in
  let i = index_of_key t a key 0 n in
  if i < 0 then 0
  else begin
    (* close the gap, keeping the order *)
    Array.blit a (i + 1) a i (n - 1 - i);
    t.counts.(target) <- n - 1;
    1
  end

let release_count t ~block =
  let n = t.counts.(block) in
  t.counts.(block) <- 0;
  t.policy.Policy.on_release ~block;
  n

let rec patch_all patch_back (a : 'site array) i n acc =
  if i >= n then acc
  else patch_all patch_back a (i + 1) n (if patch_back a.(i) then acc + 1 else acc)

let release t ~block ~patch_back =
  let a = t.sites.(block) and n = t.counts.(block) in
  t.sites.(block) <- [||];
  t.counts.(block) <- 0;
  t.policy.Policy.on_release ~block;
  patch_all patch_back a 0 n 0
