type spec =
  | Kedge
  | Loop_aware of { weight : int }
  | Clock
  | Pin_hot of { pinned : int list }

let spec_name = function
  | Kedge -> "kedge"
  | Loop_aware _ -> "loop-aware"
  | Clock -> "clock"
  | Pin_hot _ -> "pin-hot"

type ctx = {
  blocks : int;
  k : int;
  k_of : (int -> int) option;
  graph : Cfg.Graph.t option;
  budget : int option;
  size_of : (int -> int) option;
}

(* Clock: second-chance approximation of the k-edge/LRU pair with O(1)
   state per block. Each resident copy has a reference bit, set on
   execution, and a timer re-armed every [period] edges. When the
   timer fires with the bit set, the copy gets a second chance (bit
   cleared, timer re-armed); with the bit clear it is reported due.
   Budget victims come from a clock-hand sweep that clears bits as it
   passes. *)
type clock = {
  period : int;
  in_area : bool array;
  refbit : bool array;
  armed : int array;  (* step of the live timer; -1 = none *)
  (* Pending firings; a re-arm pushes a new timer and leaves the old
     one to the liveness test. *)
  timers : Memsim.Timers.t;
  mutable hand : int;
}

(* One of two state shapes, matched on every call: the paper's k-edge
   counters with LRU victims (Kedge; Loop_aware, whose per-block k is
   scaled by loop depth; Pin_hot, whose pinned blocks are never
   tracked, so they are never due and never a victim), or the clock. *)
type t =
  | Kedge_lru of {
      kedge : Memsim.Kedge.t;
      lru : Memsim.Lru.t;
      pinned : bool array;  (* all false unless pin-hot *)
    }
  | Second_chance of clock

let kedge_lru ?k_of ?pinned ctx =
  Kedge_lru
    {
      kedge = Memsim.Kedge.create ?k_of ~blocks:ctx.blocks ~k:ctx.k ();
      lru = Memsim.Lru.create ();
      pinned =
        (match pinned with
        | Some p -> p
        | None -> Array.make ctx.blocks false);
    }

let base_k ctx block =
  match ctx.k_of with None -> ctx.k | Some f -> f block

let loop_aware ~weight ctx =
  if weight < 1 then
    invalid_arg "Residency.Policy: loop-aware weight must be >= 1";
  let graph =
    match ctx.graph with
    | Some g -> g
    | None ->
      invalid_arg "Residency.Policy: loop-aware retention needs a CFG"
  in
  let depth = Cfg.Loop.loop_depth graph in
  let k_of b =
    let d = if b >= 0 && b < Array.length depth then depth.(b) else 0 in
    let scale = 1 + (weight * d) in
    let base = base_k ctx b in
    if base >= max_int / scale then max_int else base * scale
  in
  kedge_lru ~k_of ctx

let clock ctx =
  if ctx.k < 1 then invalid_arg "Residency.Policy: clock k must be >= 1";
  Second_chance
    {
      period = ctx.k;
      in_area = Array.make ctx.blocks false;
      refbit = Array.make ctx.blocks false;
      armed = Array.make ctx.blocks (-1);
      timers = Memsim.Timers.create ();
      hand = 0;
    }

let pin_hot ~pinned ctx =
  List.iter
    (fun b ->
      if b < 0 || b >= ctx.blocks then
        invalid_arg "Residency.Policy: pinned block out of range")
    pinned;
  let distinct = List.sort_uniq compare pinned in
  (match (ctx.budget, ctx.size_of) with
  | Some cap, Some size ->
    let need = List.fold_left (fun a b -> a + size b) 0 distinct in
    if need > cap then
      invalid_arg
        (Printf.sprintf
           "Residency.Policy: pinned set needs %d bytes but the budget is %d"
           need cap)
  | _ -> ());
  let pin = Array.make ctx.blocks false in
  List.iter (fun b -> pin.(b) <- true) distinct;
  kedge_lru ?k_of:ctx.k_of ~pinned:pin ctx

let instantiate spec ctx =
  if ctx.blocks < 1 then invalid_arg "Residency.Policy: blocks must be >= 1";
  match spec with
  | Kedge -> kedge_lru ?k_of:ctx.k_of ctx
  | Loop_aware { weight } -> loop_aware ~weight ctx
  | Clock -> clock ctx
  | Pin_hot { pinned } -> pin_hot ~pinned ctx

let arm c b ~step =
  c.armed.(b) <- step;
  if c.period <= max_int - step then
    Memsim.Timers.push c.timers ~at:(step + c.period) b

let on_materialize t ~block ~step =
  match t with
  | Kedge_lru s ->
    if not s.pinned.(block) then Memsim.Kedge.track s.kedge ~block ~step
  | Second_chance c ->
    c.in_area.(block) <- true;
    arm c block ~step

let on_ready t ~block ~time =
  match t with
  | Kedge_lru s -> if not s.pinned.(block) then Memsim.Lru.touch s.lru block ~time
  | Second_chance _ -> ()

let on_execute t ~block ~step ~time =
  match t with
  | Kedge_lru s ->
    if not s.pinned.(block) then begin
      Memsim.Kedge.track s.kedge ~block ~step;
      Memsim.Lru.touch s.lru block ~time
    end
  (* The bit is set by execution only, never by materialization, so
     the engine's materialize-then-execute and the runtime's
     execute-then-trap orders leave identical state. *)
  | Second_chance c -> c.refbit.(block) <- true

let rearm t ~block ~step =
  match t with
  | Kedge_lru s ->
    if not s.pinned.(block) then Memsim.Kedge.track s.kedge ~block ~step
  | Second_chance c -> arm c block ~step

(* The live timers firing at [step], sorted and deduplicated into
   [buf.(0 .. n-1)]. *)
let rec clock_live c step buf i n m =
  if i >= n then m
  else begin
    let b = Memsim.Timers.fired c.timers i in
    clock_live c step buf (i + 1) n
      (if c.in_area.(b) && c.armed.(b) + c.period = step then
         Memsim.Timers.insert_sorted buf m b
       else m)
  end

(* Second chance for referenced copies; the rest are compacted to the
   front of [buf] as due. Every fired copy is re-armed, due or not:
   the host may spare a due copy (branch target, §5) and the timer must
   stay alive for the surviving copy. *)
let rec clock_fire c step buf i n m =
  if i >= n then m
  else begin
    let b = buf.(i) in
    arm c b ~step;
    if c.refbit.(b) then begin
      c.refbit.(b) <- false;
      clock_fire c step buf (i + 1) n m
    end
    else begin
      buf.(m) <- b;
      clock_fire c step buf (i + 1) n (m + 1)
    end
  end

let due t ~step buf =
  match t with
  | Kedge_lru s -> Memsim.Kedge.due_into s.kedge ~step buf
  | Second_chance c ->
    let fired = Memsim.Timers.pop_at c.timers ~step in
    if fired = 0 then 0
    else
      let live = clock_live c step buf 0 fired 0 in
      clock_fire c step buf 0 live 0

let rec sweep c ~exclude i remaining =
  if remaining = 0 then -1
  else begin
    let b = i mod Array.length c.in_area in
    if c.in_area.(b) && not (exclude b) then
      if c.refbit.(b) then begin
        c.refbit.(b) <- false;
        sweep c ~exclude (b + 1) (remaining - 1)
      end
      else begin
        c.hand <- b + 1;
        b
      end
    else sweep c ~exclude (b + 1) (remaining - 1)
  end

let victim t ~exclude =
  match t with
  | Kedge_lru s -> Memsim.Lru.oldest s.lru ~exclude
  | Second_chance c -> sweep c ~exclude c.hand (2 * Array.length c.in_area)

let on_release t ~block =
  match t with
  | Kedge_lru s ->
    Memsim.Kedge.untrack s.kedge ~block;
    Memsim.Lru.remove s.lru block
  | Second_chance c ->
    c.in_area.(block) <- false;
    c.refbit.(block) <- false;
    c.armed.(block) <- -1
