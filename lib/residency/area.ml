type 'site t = {
  policy : Policy.t;
  site_key : 'site -> int;
  (* Remember sets: per target, the first [counts.(t)] entries of
     [sites.(t)] are the recorded payloads in recording order, and the
     same entries of [keys.(t)] their [site_key]s, no two equal. Dedup
     scans the stored keys, so [site_key] runs once per record; the
     sets hold a handful of sites, so the scan is short. Arrays grow by
     doubling. [release] drops a target's payload array, so a
     discarded copy keeps no patched site alive. [release_count] and
     [forget_key], the engine's closure-free paths, keep the arrays and
     leave vacated slots in place until a later record overwrites
     them, which costs nothing for immediate sites such as the
     engine's block ids: the engine stops allocating for a set once it
     reaches its high-water mark. *)
  sites : 'site array array;
  keys : int array array;
  counts : int array;
}

let create ~policy ~blocks ~site_key () =
  if blocks < 1 then invalid_arg "Residency.Area.create: blocks must be >= 1";
  {
    policy;
    site_key;
    sites = Array.make blocks [||];
    keys = Array.make blocks [||];
    counts = Array.make blocks 0;
  }

(* The index of [key] among the first [n] keys, or -1. *)
let rec index_of_key (keys : int array) key i n =
  if i >= n then -1
  else if keys.(i) = key then i
  else index_of_key keys key (i + 1) n

let record_site t ~target ~site =
  let n = t.counts.(target) and key = t.site_key site in
  if index_of_key t.keys.(target) key 0 n >= 0 then false
  else begin
    if n = Array.length t.sites.(target) then begin
      let grown = Array.make (max 4 (2 * n)) site in
      Array.blit t.sites.(target) 0 grown 0 n;
      t.sites.(target) <- grown
    end;
    if n = Array.length t.keys.(target) then begin
      let grown = Array.make (max 4 (2 * n)) 0 in
      Array.blit t.keys.(target) 0 grown 0 n;
      t.keys.(target) <- grown
    end;
    t.sites.(target).(n) <- site;
    t.keys.(target).(n) <- key;
    t.counts.(target) <- n + 1;
    true
  end

let forget_key t ~target ~key =
  let n = t.counts.(target) in
  let i = index_of_key t.keys.(target) key 0 n in
  if i < 0 then 0
  else begin
    (* close the gap, keeping the order *)
    Array.blit t.sites.(target) (i + 1) t.sites.(target) i (n - 1 - i);
    Array.blit t.keys.(target) (i + 1) t.keys.(target) i (n - 1 - i);
    t.counts.(target) <- n - 1;
    1
  end

let release_count t ~block =
  let n = t.counts.(block) in
  t.counts.(block) <- 0;
  Policy.on_release t.policy ~block;
  n

let rec patch_all patch_back (a : 'site array) i n acc =
  if i >= n then acc
  else patch_all patch_back a (i + 1) n (if patch_back a.(i) then acc + 1 else acc)

let release t ~block ~patch_back =
  let a = t.sites.(block) and n = t.counts.(block) in
  t.sites.(block) <- [||];
  t.counts.(block) <- 0;
  Policy.on_release t.policy ~block;
  patch_all patch_back a 0 n 0
