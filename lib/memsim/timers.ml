type t = {
  (* In-order lane: an entry firing no earlier than the lane's newest
     one joins this FIFO (time = firing step, payload = id). Under a
     uniform period and a caller walking forward that is every entry,
     so popping is O(1) where a heap pop sifts down a heap holding
     every pending entry, stale ones included. *)
  ring : Ring.t;
  (* Heap lane for the rest (per-block periods): a binary min-heap on
     the firing step, kept in two parallel int arrays. *)
  mutable hat : int array;
  mutable hid : int array;
  mutable size : int;
  (* Scratch buffer [pop_at] collects into; reused across calls, so
     popping allocates nothing once it has reached its high-water
     mark. Compiled without flambda, local refs and closures are real
     heap allocations, so the helpers below are top-level recursive
     functions over ints. *)
  mutable scratch : int array;
}

let create () =
  {
    ring = Ring.create ();
    hat = Array.make 64 0;
    hid = Array.make 64 0;
    size = 0;
    scratch = Array.make 16 0;
  }

let rec sift_up (hat : int array) (hid : int array) i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if hat.(p) > hat.(i) then begin
      let d = hat.(p) and b = hid.(p) in
      hat.(p) <- hat.(i);
      hid.(p) <- hid.(i);
      hat.(i) <- d;
      hid.(i) <- b;
      sift_up hat hid p
    end
  end

let rec sift_down (hat : int array) (hid : int array) n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let r = l + 1 in
    let s = if hat.(l) < hat.(i) then l else i in
    let s = if r < n && hat.(r) < hat.(s) then r else s in
    if s <> i then begin
      let d = hat.(s) and b = hid.(s) in
      hat.(s) <- hat.(i);
      hid.(s) <- hid.(i);
      hat.(i) <- d;
      hid.(i) <- b;
      sift_down hat hid n s
    end
  end

let heap_push t ~at id =
  let n = t.size in
  if n = Array.length t.hat then begin
    let cap = 2 * n in
    let hat = Array.make cap 0 and hid = Array.make cap 0 in
    Array.blit t.hat 0 hat 0 n;
    Array.blit t.hid 0 hid 0 n;
    t.hat <- hat;
    t.hid <- hid
  end;
  t.hat.(n) <- at;
  t.hid.(n) <- id;
  t.size <- n + 1;
  sift_up t.hat t.hid n

let push t ~at id =
  if t.ring.len = 0 || at >= Ring.last_time t.ring then
    Ring.push t.ring ~time:at id
  else heap_push t ~at id

let heap_pop t =
  let n = t.size - 1 in
  let hat = t.hat and hid = t.hid in
  hat.(0) <- hat.(n);
  hid.(0) <- hid.(n);
  t.size <- n;
  sift_down hat hid n 0

let scratch_push t n b =
  if n = Array.length t.scratch then begin
    let a = Array.make (2 * n) 0 in
    Array.blit t.scratch 0 a 0 n;
    t.scratch <- a
  end;
  t.scratch.(n) <- b;
  n + 1

(* Pop every entry at or below [step], from either lane, into the
   scratch buffer, keeping only the ones firing exactly at [step];
   entries below [step] are dropped on the way. *)
let rec collect t step n =
  let q = t.ring in
  if q.len > 0 && q.times.(q.head) <= step then begin
    let d = q.times.(q.head) and b = q.loads.(q.head) in
    Ring.drop q;
    collect t step (if d = step then scratch_push t n b else n)
  end
  else if t.size > 0 && t.hat.(0) <= step then begin
    let d = t.hat.(0) and b = t.hid.(0) in
    heap_pop t;
    collect t step (if d = step then scratch_push t n b else n)
  end
  else n

let pop_at t ~step = collect t step 0
let fired t i = t.scratch.(i)

let rec insert_back (a : int array) i x =
  if i >= 0 && a.(i) > x then begin
    a.(i + 1) <- a.(i);
    insert_back a (i - 1) x
  end
  else a.(i + 1) <- x

let rec mem_sorted (a : int array) i x =
  i >= 0 && a.(i) >= x && (a.(i) = x || mem_sorted a (i - 1) x)

let insert_sorted buf n x =
  if mem_sorted buf (n - 1) x then n
  else begin
    insert_back buf (n - 1) x;
    n + 1
  end
