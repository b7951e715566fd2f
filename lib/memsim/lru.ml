(* Block ids are small dense ints, so last-use times live in a
   growable array indexed by block — touch is two stores, no hashing.
   Victim selection scans the array; populations are small (hundreds)
   and eviction only happens in budgeted runs, so the scan is off the
   common path. *)

let absent = min_int

type t = {
  mutable time_of : int array;  (* [absent] = not tracked *)
  mutable tracked : int;
}

let create () = { time_of = Array.make 64 absent; tracked = 0 }

let ensure t b =
  if b < 0 then invalid_arg "Memsim.Lru: negative block id";
  let n = Array.length t.time_of in
  if b >= n then begin
    let cap = ref (2 * n) in
    while b >= !cap do
      cap := 2 * !cap
    done;
    let a = Array.make !cap absent in
    Array.blit t.time_of 0 a 0 n;
    t.time_of <- a
  end

let touch t b ~time =
  ensure t b;
  if t.time_of.(b) = absent then t.tracked <- t.tracked + 1;
  t.time_of.(b) <- time

let remove t b =
  if b >= 0 && b < Array.length t.time_of && t.time_of.(b) <> absent then begin
    t.time_of.(b) <- absent;
    t.tracked <- t.tracked - 1
  end

let mem t b = b >= 0 && b < Array.length t.time_of && t.time_of.(b) <> absent
let cardinal t = t.tracked

let oldest t ~exclude =
  let best = ref (-1) and best_time = ref 0 in
  let a = t.time_of in
  for b = 0 to Array.length a - 1 do
    let time = a.(b) in
    (* Strict [<] on an ascending scan makes ties resolve to the
       smallest block id, matching the documented order. *)
    if
      time <> absent
      && (!best < 0 || time < !best_time)
      && not (exclude b)
    then begin
      best := b;
      best_time := time
    end
  done;
  !best

let victim t ?(exclude = fun _ -> false) () =
  let b = oldest t ~exclude in
  if b < 0 then None else Some b

let to_list t =
  let acc = ref [] in
  let a = t.time_of in
  for b = Array.length a - 1 downto 0 do
    if a.(b) <> absent then acc := (b, a.(b)) :: !acc
  done;
  List.sort
    (fun (b1, t1) (b2, t2) -> if t1 <> t2 then compare t1 t2 else compare b1 b2)
    !acc
