type task = {
  name : string;
  first_block : int;
  n_blocks : int;
  trace_len : int;
}

type t = {
  name : string;
  scenario : Core.Scenario.t;
  tasks : task array;
  owner : int array;
}

let align_up n a = (n + a - 1) / a * a

(* Round-robin interleave with a seeded quantum jitter. Tasks whose
   trace is exhausted leave the rotation. *)
let interleave ~quantum ~seed ~jitter ~id_offsets traces =
  let prng = Prng.create seed in
  let n = Array.length traces in
  let pos = Array.make n 0 in
  let total = Array.fold_left (fun a t -> a + Array.length t) 0 traces in
  let out = Array.make total 0 in
  let filled = ref 0 in
  let cur = ref 0 in
  while !filled < total do
    let t = !cur in
    let len = Array.length traces.(t) in
    if pos.(t) < len then begin
      let slice =
        if jitter = 0.0 then quantum
        else begin
          let delta = (Prng.float prng *. 2.0) -. 1.0 in
          max 1
            (quantum
            + int_of_float (Float.round (delta *. jitter *. float_of_int quantum))
            )
        end
      in
      let take = min slice (len - pos.(t)) in
      for i = 0 to take - 1 do
        out.(!filled + i) <- traces.(t).(pos.(t) + i) + id_offsets.(t)
      done;
      pos.(t) <- pos.(t) + take;
      filled := !filled + take
    end;
    cur := (t + 1) mod n
  done;
  out

let compose ?name ~quantum ?(seed = 1) ?(jitter = 0.0) scenarios =
  if scenarios = [] then invalid_arg "Corpus.Multitask.compose: no tasks";
  if quantum < 1 then invalid_arg "Corpus.Multitask.compose: quantum < 1";
  if jitter < 0.0 || jitter >= 1.0 then
    invalid_arg "Corpus.Multitask.compose: jitter not in [0, 1)";
  let scs = Array.of_list scenarios in
  let n = Array.length scs in
  let id_offsets = Array.make n 0 in
  let addr_offsets = Array.make n 0 in
  let next_id = ref 0 and next_addr = ref 0 in
  Array.iteri
    (fun i (sc : Core.Scenario.t) ->
      id_offsets.(i) <- !next_id;
      addr_offsets.(i) <- !next_addr;
      next_id := !next_id + Cfg.Graph.num_blocks sc.graph;
      let span =
        Array.fold_left
          (fun a (b : Cfg.Graph.block) -> max a (b.addr + b.byte_size))
          0
          (Cfg.Graph.blocks sc.graph)
      in
      next_addr := align_up (!next_addr + span) 64)
    scs;
  let blocks =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i (sc : Core.Scenario.t) ->
              Array.map
                (fun (b : Cfg.Graph.block) ->
                  {
                    b with
                    Cfg.Graph.id = b.id + id_offsets.(i);
                    addr = b.addr + addr_offsets.(i);
                    label =
                      Option.map
                        (fun l -> Printf.sprintf "t%d.%s" i l)
                        b.label;
                  })
                (Cfg.Graph.blocks sc.graph))
            scs))
  in
  let edges =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i (sc : Core.Scenario.t) ->
              List.map
                (fun (s, d, k) -> (s + id_offsets.(i), d + id_offsets.(i), k))
                (Cfg.Graph.edges sc.graph))
            scs))
  in
  let graph =
    Cfg.Graph.make ~entry:(id_offsets.(0) + Cfg.Graph.entry scs.(0).graph)
      blocks edges
  in
  let info =
    Array.concat (Array.to_list (Array.map (fun sc -> sc.Core.Scenario.info) scs))
  in
  let trace =
    interleave ~quantum ~seed ~jitter ~id_offsets
      (Array.map (fun sc -> sc.Core.Scenario.trace) scs)
  in
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "multi:quantum=%d,seed=%d,jitter=%g;%s" quantum seed jitter
        (String.concat "+"
           (Array.to_list (Array.map (fun sc -> sc.Core.Scenario.name) scs)))
  in
  let tasks =
    Array.mapi
      (fun i (sc : Core.Scenario.t) ->
        {
          name = sc.name;
          first_block = id_offsets.(i);
          n_blocks = Cfg.Graph.num_blocks sc.graph;
          trace_len = Array.length sc.trace;
        })
      scs
  in
  let owner = Array.make (Array.length blocks) 0 in
  Array.iteri
    (fun i t ->
      for b = t.first_block to t.first_block + t.n_blocks - 1 do
        owner.(b) <- i
      done)
    tasks;
  let scenario =
    {
      Core.Scenario.name;
      graph;
      info;
      trace;
      codec = scs.(0).codec;
      program = None;
    }
  in
  { name; scenario; tasks; owner }

type task_stats = {
  task : task;
  visits : int;
  demand_decompressions : int;
  discards : int;
  evictions : int;
  evicted_while_inactive : int;
}

let run ?profile ?sink ?registry t policy =
  let n = Array.length t.tasks in
  let visits = Array.make n 0 in
  let demand = Array.make n 0 in
  let discards = Array.make n 0 in
  let evictions = Array.make n 0 in
  let cross = Array.make n 0 in
  (* Which task the execution thread is currently running: the owner of
     the last executed block. Deletions land on whichever task owns the
     deleted block; if that is not the running task, the eviction
     crossed a task boundary. *)
  let current = ref 0 in
  (* Tags as numbered by [Sim.Events.kinds]; [a] is the block. *)
  let attribute ~kind ~at:_ ~a:block ~b:_ ~c:_ =
    match kind with
    | 0 (* exec *) ->
      let o = t.owner.(block) in
      current := o;
      visits.(o) <- visits.(o) + 1
    | 2 (* demand_decompress *) ->
      let o = t.owner.(block) in
      demand.(o) <- demand.(o) + 1
    | 7 (* discard *) ->
      let o = t.owner.(block) in
      discards.(o) <- discards.(o) + 1;
      if o <> !current then cross.(o) <- cross.(o) + 1
    | 8 (* evict *) ->
      let o = t.owner.(block) in
      evictions.(o) <- evictions.(o) + 1;
      if o <> !current then cross.(o) <- cross.(o) + 1
    | _ -> ()
  in
  let attr_sink =
    {
      Sim.Events.emit_chunk = Sim.Events.Packed.iter_raw attribute;
      close = ignore;
    }
  in
  let sink =
    match sink with
    | None -> attr_sink
    | Some s -> Sim.Events.tee [ attr_sink; s ]
  in
  let metrics = Core.Scenario.run ?profile ~sink ?registry t.scenario policy in
  let stats =
    Array.mapi
      (fun i task ->
        {
          task;
          visits = visits.(i);
          demand_decompressions = demand.(i);
          discards = discards.(i);
          evictions = evictions.(i);
          evicted_while_inactive = cross.(i);
        })
      t.tasks
  in
  (metrics, stats)
