type t = {
  mutable times : int array;
  mutable loads : int array;
  mutable head : int;
  mutable len : int;
}

let create () =
  { times = Array.make 16 0; loads = Array.make 16 0; head = 0; len = 0 }

let push q ~time load =
  let cap = Array.length q.times in
  if q.len = cap then begin
    let t = Array.make (2 * cap) 0 and l = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      let j = (q.head + i) land (cap - 1) in
      t.(i) <- q.times.(j);
      l.(i) <- q.loads.(j)
    done;
    q.times <- t;
    q.loads <- l;
    q.head <- 0
  end;
  let j = (q.head + q.len) land (Array.length q.times - 1) in
  q.times.(j) <- time;
  q.loads.(j) <- load;
  q.len <- q.len + 1

let drop q =
  q.head <- (q.head + 1) land (Array.length q.times - 1);
  q.len <- q.len - 1

let last_time q = q.times.((q.head + q.len - 1) land (Array.length q.times - 1))
