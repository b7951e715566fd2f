(* End-to-end tests of the executable §5 runtime: real programs run
   from an all-compressed image, with real decompression, relocation,
   branch patching and k-edge deletion — and must still compute the
   right answers. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let run_ok ?k ?codec ?line_size w =
  match
    Runtime.run ?k ?codec ?line_size
      (Eris.Asm.assemble_exn w.Workloads.Common.source)
  with
  | Ok (machine, stats) -> (machine, stats)
  | Error (Runtime.Out_of_fuel _) ->
    Alcotest.failf "%s: out of fuel" w.Workloads.Common.name
  | Error (Runtime.Machine_fault { pc; message; _ }) ->
    Alcotest.failf "%s: fault at %d: %s" w.Workloads.Common.name pc message

(* Every workload must produce its reference checksum when executed
   from compressed memory, for an aggressive and a relaxed k. *)
let correctness_tests =
  List.concat_map
    (fun w ->
      List.map
        (fun k ->
          Alcotest.test_case
            (Printf.sprintf "%s computes correctly (k=%d)"
               w.Workloads.Common.name k)
            `Quick
            (fun () ->
              let machine, stats = run_ok ~k w in
              checki "checksum"
                w.Workloads.Common.expected
                (Eris.Machine.read_word machine w.Workloads.Common.result_addr);
              checkb "really decompressed" true (stats.Runtime.decompressions > 0);
              checkb "really trapped" true (stats.Runtime.traps > 0)))
        [ 1; 8 ])
    Workloads.Suite.all

let test_k_reduces_traps () =
  let w = Workloads.Suite.find_exn "crc32" in
  let _, aggressive = run_ok ~k:1 w in
  let _, relaxed = run_ok ~k:32 w in
  checkb "larger k traps less" true
    (relaxed.Runtime.traps < aggressive.Runtime.traps);
  checkb "larger k deletes less" true
    (relaxed.Runtime.deletions < aggressive.Runtime.deletions);
  checkb "larger k holds more memory" true
    (relaxed.Runtime.peak_copy_bytes >= aggressive.Runtime.peak_copy_bytes)

let test_patching_pays_off () =
  (* A hot loop: after warmup the patched branches bypass the handler,
     so traps must be far rarer than loop iterations. *)
  let result =
    Runtime.run_source ~k:64
      "li r1, 500\nloop: subi r1, r1, 1\nbne r1, r0, loop\nli r2, 0x0FF0\nsw r1, 0(r2)\nhalt"
  in
  match result with
  | Ok (machine, stats) ->
    checki "result" 0 (Eris.Machine.read_word machine 0x0FF0);
    checkb "500 iterations, a handful of traps" true (stats.Runtime.traps < 10);
    checkb "patches recorded" true (stats.Runtime.patches > 0)
  | Error _ -> Alcotest.fail "runtime failed"

let test_dangling_return_reload () =
  (* dct calls a subroutine that runs for many edges; with k=1 the
     caller's copy is deleted while the callee runs, so the return
     address dangles into a retired copy and must be re-routed through
     a reload. Correctness (checked above for k=1) plus: reloads mean
     strictly more decompressions than blocks. *)
  let w = Workloads.Suite.find_exn "dct" in
  let _, stats = run_ok ~k:1 w in
  let blocks =
    Cfg.Graph.num_blocks
      (Cfg.Build.of_program (Eris.Asm.assemble_exn w.Workloads.Common.source))
  in
  checkb "blocks reloaded after deletion" true
    (stats.Runtime.decompressions > blocks)

let test_stats_sanity () =
  let w = Workloads.Suite.find_exn "fir" in
  let machine, stats = run_ok ~k:8 w in
  checkb "instructions counted" true
    (stats.Runtime.instructions = Eris.Machine.instr_count machine);
  checkb "compressed image smaller" true
    (stats.Runtime.compressed_image_bytes < stats.Runtime.original_image_bytes);
  checkb "live <= peak" true
    (stats.Runtime.live_copy_bytes <= stats.Runtime.peak_copy_bytes);
  checkb "every trap at most one decompression" true
    (stats.Runtime.decompressions <= stats.Runtime.traps);
  checkb "deletions leave some copies" true
    (stats.Runtime.live_copy_bytes > 0)

let test_out_of_fuel () =
  match Runtime.run_source ~fuel:50 "loop: j loop" with
  | Error (Runtime.Out_of_fuel stats) ->
    checkb "made progress" true (stats.Runtime.instructions > 0)
  | Ok _ | Error (Runtime.Machine_fault _) ->
    Alcotest.fail "expected out-of-fuel"

let test_wild_jump_faults () =
  match Runtime.run_source "li r1, 0x40000\njalr r0, r1, 0\nhalt" with
  | Error (Runtime.Machine_fault { message; _ }) ->
    checkb "wild pc reported" true (String.length message > 0)
  | Ok _ | Error (Runtime.Out_of_fuel _) -> Alcotest.fail "expected fault"

let test_codec_choice () =
  (* The runtime works with any registered codec, including ones that
     expand blocks (null) — correctness must not depend on ratios. *)
  let w = Workloads.Suite.find_exn "fsm" in
  List.iter
    (fun codec_name ->
      let codec = Compress.Registry.find_exn codec_name in
      let machine, _ = run_ok ~k:4 ~codec w in
      checki
        (Printf.sprintf "checksum under %s" codec_name)
        w.Workloads.Common.expected
        (Eris.Machine.read_word machine w.Workloads.Common.result_addr))
    [ "null"; "rle"; "lzss" ]

(* Fault injection: a codec that flips one bit of one block's
   decompressed output. Every trap checks the copy against the block's
   home bytes, so each of fir's single-bit flips (every bit of every
   block whose bytes no other block shares) must end the run in a
   fault that names the flipped block — not in a wrong checksum, and
   not in a fault blamed on another block. *)
let test_bit_flip_faults () =
  let w = Workloads.Suite.find_exn "fir" in
  let prog = Eris.Asm.assemble_exn w.Workloads.Common.source in
  let graph = Cfg.Build.of_program prog in
  let inner = Compress.Registry.code_codec ~corpus:prog.Eris.Program.image in
  let home =
    Array.map
      (fun (b : Cfg.Graph.block) ->
        Eris.Program.slice_bytes prog ~lo:b.addr ~hi:(b.addr + b.byte_size))
      (Cfg.Graph.blocks graph)
  in
  let unique n =
    Array.for_all (fun h -> h == home.(n) || not (Bytes.equal h home.(n))) home
  in
  let faulted = ref 0 in
  Array.iteri
    (fun n h ->
      if unique n then
        for bit = 0 to (8 * Bytes.length h) - 1 do
          let flipped = ref false in
          let decompress z =
            let out = inner.Compress.Codec.decompress z in
            if Bytes.equal out h then begin
              flipped := true;
              let i = bit / 8 in
              Bytes.set out i
                (Char.chr (Char.code (Bytes.get out i) lxor (1 lsl (bit mod 8))))
            end;
            out
          in
          let codec = { inner with Compress.Codec.decompress } in
          match Runtime.run ~k:8 ~codec prog with
          | Error (Runtime.Machine_fault { message; _ }) ->
            let want = Printf.sprintf "block %d:" n in
            if
              String.length message < String.length want
              || String.sub message 0 (String.length want) <> want
            then
              Alcotest.failf "block %d bit %d: fault names another block: %s" n
                bit message;
            incr faulted
          | Ok _ | Error (Runtime.Out_of_fuel _) ->
            if !flipped then
              Alcotest.failf "block %d bit %d: flipped copy ran unnoticed" n bit
        done)
    home;
  checkb "flips were injected" true (!faulted > 0)

(* Compressed-I-cache mode: per-line decompression must not change
   what the program computes, only how decompression work is counted. *)
let test_line_mode_checksums () =
  List.iter
    (fun w ->
      List.iter
        (fun line_size ->
          let machine, stats = run_ok ~k:8 ~line_size w in
          checki
            (Printf.sprintf "%s checksum at %dB lines" w.Workloads.Common.name
               line_size)
            w.Workloads.Common.expected
            (Eris.Machine.read_word machine w.Workloads.Common.result_addr);
          checkb "really decompressed lines" true
            (stats.Runtime.decompressions > 0))
        [ 16; 64 ])
    [ Workloads.Suite.find_exn "fir"; Workloads.Suite.find_exn "fsm" ]

let test_line_mode_counts_lines () =
  (* a block spans several 16-byte lines, so a line-granular run must
     decompress strictly more units than the block-granular one — and
     the executed instruction stream must be identical *)
  let w = Workloads.Suite.find_exn "crc32" in
  let machine_block, block = run_ok ~k:8 w in
  let machine_line, line = run_ok ~k:8 ~line_size:16 w in
  checkb "lines outnumber blocks" true
    (line.Runtime.decompressions > block.Runtime.decompressions);
  checki "same instruction stream"
    (Eris.Machine.instr_count machine_block)
    (Eris.Machine.instr_count machine_line)

let test_line_mode_line_codec () =
  (* the line codec family plugs into the runtime like any other *)
  let w = Workloads.Suite.find_exn "fir" in
  let machine, _ =
    run_ok ~k:8 ~codec:(Compress.Registry.find_exn "cpack-32") ~line_size:32 w
  in
  checki "checksum under cpack-32" w.Workloads.Common.expected
    (Eris.Machine.read_word machine w.Workloads.Common.result_addr)

let test_line_mode_validation () =
  let w = Workloads.Suite.find_exn "fir" in
  Alcotest.check_raises "line_size below 4"
    (Invalid_argument "Residency.Linemap.build: line_size < 4") (fun () ->
      ignore
        (Runtime.run ~line_size:2
           (Eris.Asm.assemble_exn w.Workloads.Common.source)))

(* The runtime and the model (Core.Engine) must agree on the shape:
   runtime trap counts move with k the same way the engine's demand
   decompressions do. *)
let test_runtime_engine_agreement () =
  let w = Workloads.Suite.find_exn "dijkstra" in
  let sc = Workloads.Common.scenario w in
  let engine_demand k =
    (Core.Scenario.run sc (Core.Policy.on_demand ~k)).Core.Metrics
      .demand_decompressions
  in
  let runtime_decs k = (snd (run_ok ~k w)).Runtime.decompressions in
  let e1 = engine_demand 1 and e16 = engine_demand 16 in
  let r1 = runtime_decs 1 and r16 = runtime_decs 16 in
  checkb "both decrease with k" true (e16 < e1 && r16 < r1);
  (* within a factor of two of each other at both ends: the runtime
     counts per-block reloads slightly differently (synthetic jumps,
     mid-block reloads) but the magnitudes must match *)
  let close a b = a * 2 >= b && b * 2 >= a in
  checkb "magnitudes agree at k=1" true (close e1 r1);
  checkb "magnitudes agree at k=16" true (close e16 r16)

(* Literal pins of every [Runtime.stats] field and the MD5 of the
   event stream (one JSON line per event) for the perfbench kernels at
   k=1 and k=8, and one line-granular run under an energy-charging
   profile. Any change to the executed stream, the trap path or the
   event order shows up here. *)
let fingerprint ?line_size ?profile ?retention ~k w =
  let b = Buffer.create 65536 in
  let sink =
    Sim.Events.callback (fun e ->
        Buffer.add_string b (Sim.Events.to_json e);
        Buffer.add_char b '\n')
  in
  match
    Runtime.run ~k ?line_size ?profile ?retention ~sink
      (Eris.Asm.assemble_exn w.Workloads.Common.source)
  with
  | Ok (_, s) ->
    Printf.sprintf
      "instructions=%d traps=%d decompressions=%d patches=%d unpatches=%d \
       deletions=%d flushes=%d edges=%d peak_copy_bytes=%d \
       live_copy_bytes=%d compressed_image_bytes=%d original_image_bytes=%d \
       energy_nj=%d events=%s"
      s.Runtime.instructions s.traps s.decompressions s.patches s.unpatches
      s.deletions s.flushes s.edges s.peak_copy_bytes s.live_copy_bytes
      s.compressed_image_bytes s.original_image_bytes s.energy_nj
      (Digest.to_hex (Digest.string (Buffer.contents b)))
  | Error _ -> Alcotest.failf "%s: run failed" w.Workloads.Common.name

let pins =
  [
    ("fir", 1, None, "instructions=4362 traps=134 decompressions=101 patches=33 unpatches=33 deletions=100 flushes=0 edges=331 peak_copy_bytes=64 live_copy_bytes=12 compressed_image_bytes=59 original_image_bytes=116 energy_nj=0 events=f328b333204a7c2af8a017f4654ea54e");
    ("fir", 8, None, "instructions=4362 traps=102 decompressions=69 patches=101 unpatches=32 deletions=66 flushes=0 edges=331 peak_copy_bytes=116 live_copy_bytes=116 compressed_image_bytes=59 original_image_bytes=116 energy_nj=0 events=9ccf9f8fca6f8503025867ec4ca59082");
    ("crc32", 1, None, "instructions=7858 traps=2108 decompressions=2108 patches=0 unpatches=0 deletions=2107 flushes=0 edges=2107 peak_copy_bytes=24 live_copy_bytes=24 compressed_image_bytes=65 original_image_bytes=100 energy_nj=0 events=461dfa1bedb74fc008e5a7b4d1912965");
    ("crc32", 8, None, "instructions=7858 traps=434 decompressions=267 patches=433 unpatches=165 deletions=262 flushes=0 edges=2107 peak_copy_bytes=96 live_copy_bytes=96 compressed_image_bytes=65 original_image_bytes=100 energy_nj=0 events=43a609b9e0500629fc983f2dbcfdd021");
    ("matmul", 1, None, "instructions=10166 traps=274 decompressions=210 patches=64 unpatches=64 deletions=209 flushes=0 edges=657 peak_copy_bytes=76 live_copy_bytes=12 compressed_image_bytes=79 original_image_bytes=152 energy_nj=0 events=e34d53a3fe46933aa5b1b0de66a127f2");
    ("matmul", 8, None, "instructions=10166 traps=211 decompressions=147 patches=210 unpatches=63 deletions=143 flushes=0 edges=657 peak_copy_bytes=164 live_copy_bytes=156 compressed_image_bytes=79 original_image_bytes=152 energy_nj=0 events=d3a4c009768a868a93b3ba5704552d01");
    ("bsort", 1, None, "instructions=26638 traps=5024 decompressions=5023 patches=1 unpatches=1 deletions=5022 flushes=0 edges=5069 peak_copy_bytes=48 live_copy_bytes=12 compressed_image_bytes=76 original_image_bytes=124 energy_nj=0 events=83a656c2b3188ad21852e2e1f512aa20");
    ("bsort", 8, None, "instructions=26638 traps=346 decompressions=199 patches=345 unpatches=146 deletions=197 flushes=0 edges=5069 peak_copy_bytes=132 live_copy_bytes=60 compressed_image_bytes=76 original_image_bytes=124 energy_nj=0 events=c60dbfb3589b42f32bd78ef1ac15d014");
    ("dijkstra", 1, None, "instructions=3672 traps=632 decompressions=630 patches=2 unpatches=2 deletions=629 flushes=0 edges=647 peak_copy_bytes=56 live_copy_bytes=12 compressed_image_bytes=194 original_image_bytes=332 energy_nj=0 events=777122b95607d52dfc6b509fad86eeb7");
    ("dijkstra", 8, None, "instructions=3672 traps=203 decompressions=138 patches=202 unpatches=54 deletions=136 flushes=0 edges=647 peak_copy_bytes=200 live_copy_bytes=52 compressed_image_bytes=194 original_image_bytes=332 energy_nj=0 events=5a9b74204c69aca7d188f7a8aedbcbdf");
    ("fsm", 1, None, "instructions=3111 traps=629 decompressions=624 patches=5 unpatches=5 deletions=623 flushes=0 edges=703 peak_copy_bytes=48 live_copy_bytes=12 compressed_image_bytes=154 original_image_bytes=224 energy_nj=0 events=70e84376e3e5d367ac3b1513db8fcb3a");
    ("fsm", 8, None, "instructions=3111 traps=306 decompressions=216 patches=305 unpatches=89 deletions=212 flushes=0 edges=703 peak_copy_bytes=184 live_copy_bytes=112 compressed_image_bytes=154 original_image_bytes=224 energy_nj=0 events=99ec53f6da4237d7a7be1e75fd38e454");
    ("adpcm", 1, None, "instructions=4262 traps=993 decompressions=993 patches=0 unpatches=0 deletions=992 flushes=0 edges=992 peak_copy_bytes=52 live_copy_bytes=12 compressed_image_bytes=184 original_image_bytes=256 energy_nj=0 events=3ed5c34da5a5bebc9a40c4353503987c");
    ("adpcm", 8, None, "instructions=4262 traps=993 decompressions=993 patches=992 unpatches=0 deletions=985 flushes=0 edges=992 peak_copy_bytes=212 live_copy_bytes=152 compressed_image_bytes=184 original_image_bytes=256 energy_nj=0 events=ff9ccd17b9c2967cfe0c7abe8c0a3238");
    ("dct", 1, None, "instructions=18874 traps=554 decompressions=425 patches=129 unpatches=129 deletions=424 flushes=0 edges=1383 peak_copy_bytes=68 live_copy_bytes=12 compressed_image_bytes=131 original_image_bytes=228 energy_nj=0 events=3c1f2bf1fcae1ec2e5f8425956e2b769");
    ("dct", 8, None, "instructions=18874 traps=427 decompressions=298 patches=424 unpatches=128 deletions=296 flushes=0 edges=1383 peak_copy_bytes=196 live_copy_bytes=60 compressed_image_bytes=131 original_image_bytes=228 energy_nj=0 events=b4cb6be07ed7837211ffec011ade2f56");
    ("qsort", 1, None, "instructions=4170 traps=831 decompressions=830 patches=1 unpatches=1 deletions=829 flushes=0 edges=868 peak_copy_bytes=88 live_copy_bytes=12 compressed_image_bytes=155 original_image_bytes=280 energy_nj=0 events=476fd6181bc7bae1fd48ae598fb975b7");
    ("qsort", 8, None, "instructions=4170 traps=251 decompressions=177 patches=250 unpatches=67 deletions=175 flushes=0 edges=868 peak_copy_bytes=240 live_copy_bytes=56 compressed_image_bytes=155 original_image_bytes=280 energy_nj=0 events=85cc77c472c9d6df3affadff0221f91e");
    ("strsearch", 1, None, "instructions=3315 traps=647 decompressions=647 patches=0 unpatches=0 deletions=646 flushes=0 edges=646 peak_copy_bytes=40 live_copy_bytes=20 compressed_image_bytes=59 original_image_bytes=100 energy_nj=0 events=29f1769144173f43439d412aa08a626f");
    ("strsearch", 8, None, "instructions=3315 traps=45 decompressions=26 patches=44 unpatches=15 deletions=22 flushes=0 edges=646 peak_copy_bytes=100 live_copy_bytes=88 compressed_image_bytes=59 original_image_bytes=100 energy_nj=0 events=a9e942048f85b2fb272c6d107a6a8045");
    ("histogram", 1, None, "instructions=3811 traps=38 decompressions=37 patches=1 unpatches=1 deletions=36 flushes=0 edges=291 peak_copy_bytes=60 live_copy_bytes=36 compressed_image_bytes=85 original_image_bytes=160 energy_nj=0 events=fa0cc85f2f0f0dc8601143b72b127d80");
    ("histogram", 8, None, "instructions=3811 traps=10 decompressions=7 patches=9 unpatches=2 deletions=4 flushes=0 edges=291 peak_copy_bytes=152 live_copy_bytes=96 compressed_image_bytes=85 original_image_bytes=160 energy_nj=0 events=6fe76d2e986f3cffb42c273fbd0770a8");
    ("rotmix", 1, None, "instructions=2032 traps=290 decompressions=290 patches=0 unpatches=0 deletions=289 flushes=0 edges=289 peak_copy_bytes=64 live_copy_bytes=24 compressed_image_bytes=81 original_image_bytes=140 energy_nj=0 events=c62099de1de37a303e79c1d4452cd910");
    ("rotmix", 8, None, "instructions=2032 traps=8 decompressions=6 patches=7 unpatches=0 deletions=1 flushes=0 edges=289 peak_copy_bytes=140 live_copy_bytes=124 compressed_image_bytes=81 original_image_bytes=140 energy_nj=0 events=02817b80e9c6d40ced5bac5af10d66f5");
    ("fsm", 8, Some 32, "instructions=3111 traps=306 decompressions=64 patches=305 unpatches=89 deletions=212 flushes=0 edges=703 peak_copy_bytes=184 live_copy_bytes=112 compressed_image_bytes=110 original_image_bytes=224 energy_nj=305264 events=def54a957a2b37b1600a156b22d56716");
  ]

let pin_tests =
  List.map
    (fun (name, k, line_size, want) ->
      let profile = Option.map (fun _ -> "cortex-m-flash") line_size in
      Alcotest.test_case
        (Printf.sprintf "%s k=%d%s" name k
           (match line_size with
           | None -> ""
           | Some l -> Printf.sprintf " %dB lines" l))
        `Quick
        (fun () ->
          Alcotest.check Alcotest.string "stats and events" want
            (fingerprint ?line_size ?profile ~k (Workloads.Suite.find_exn name))))
    pins

(* The same fingerprint under the non-default retention policies at
   k=2: their due lists, rearms and second chances drive real
   deletions and patch-backs. Pin-hot pins the blocks covering half of
   the visits, as [ccomp run --retention pin-hot --fraction 0.5]
   does. *)
let retention_of w = function
  | "clock" -> Residency.Policy.Clock
  | "loop-aware" -> Residency.Policy.Loop_aware { weight = 2 }
  | "pin-hot" ->
    let profile = Core.Scenario.profile (Workloads.Common.scenario w) in
    Residency.Policy.Pin_hot
      { pinned = Cfg.Profile.hot_blocks profile ~fraction:0.5 }
  | other -> invalid_arg other

let retention_pins =
  [
    ( "fir",
      "clock",
      "instructions=4362 traps=102 decompressions=69 patches=101 unpatches=32 deletions=66 flushes=0 edges=331 peak_copy_bytes=116 live_copy_bytes=116 compressed_image_bytes=59 original_image_bytes=116 energy_nj=0 events=09893f8517f98f4a898dbb8036b2d7bd" );
    ( "fir",
      "loop-aware",
      "instructions=4362 traps=102 decompressions=69 patches=101 unpatches=32 deletions=66 flushes=0 edges=331 peak_copy_bytes=116 live_copy_bytes=116 compressed_image_bytes=59 original_image_bytes=116 energy_nj=0 events=bfab0248f37437aa49a4edf06a83de12" );
    ( "fir",
      "pin-hot",
      "instructions=4362 traps=102 decompressions=69 patches=101 unpatches=32 deletions=66 flushes=0 edges=331 peak_copy_bytes=116 live_copy_bytes=116 compressed_image_bytes=59 original_image_bytes=116 energy_nj=0 events=e615fd4d7efc8fada0b3b65e5aca1211" );
    ( "dijkstra",
      "clock",
      "instructions=3672 traps=310 decompressions=228 patches=309 unpatches=76 deletions=226 flushes=0 edges=647 peak_copy_bytes=128 live_copy_bytes=52 compressed_image_bytes=194 original_image_bytes=332 energy_nj=0 events=29248f40a0b102e564b8bfa57cb47492" );
    ( "dijkstra",
      "loop-aware",
      "instructions=3672 traps=199 decompressions=135 patches=198 unpatches=74 deletions=133 flushes=0 edges=647 peak_copy_bytes=216 live_copy_bytes=52 compressed_image_bytes=194 original_image_bytes=332 energy_nj=0 events=564f154aea92b2234b5cc500b0d7d949" );
    ( "dijkstra",
      "pin-hot",
      "instructions=3672 traps=370 decompressions=234 patches=369 unpatches=135 deletions=228 flushes=0 edges=647 peak_copy_bytes=164 live_copy_bytes=160 compressed_image_bytes=194 original_image_bytes=332 energy_nj=0 events=176a896fb45fe9d89348165200f72a24" );
    ( "fsm",
      "clock",
      "instructions=3111 traps=480 decompressions=449 patches=479 unpatches=30 deletions=447 flushes=0 edges=703 peak_copy_bytes=108 live_copy_bytes=60 compressed_image_bytes=154 original_image_bytes=224 energy_nj=0 events=4f49b9970a6b19cd055783a6b4a80325" );
    ( "fsm",
      "loop-aware",
      "instructions=3111 traps=315 decompressions=230 patches=314 unpatches=89 deletions=228 flushes=0 edges=703 peak_copy_bytes=140 live_copy_bytes=60 compressed_image_bytes=154 original_image_bytes=224 energy_nj=0 events=1cd3f3a12249cef1f77596f35ba3ae71" );
    ( "fsm",
      "pin-hot",
      "instructions=3111 traps=416 decompressions=291 patches=415 unpatches=125 deletions=285 flushes=0 edges=703 peak_copy_bytes=160 live_copy_bytes=160 compressed_image_bytes=154 original_image_bytes=224 energy_nj=0 events=d187598e2417d877b8278dffd85070b4" );
  ]

let retention_pin_tests =
  List.map
    (fun (name, retention, want) ->
      Alcotest.test_case
        (Printf.sprintf "%s k=2 %s" name retention)
        `Quick
        (fun () ->
          let w = Workloads.Suite.find_exn name in
          Alcotest.check Alcotest.string "stats and events" want
            (fingerprint ~retention:(retention_of w retention) ~k:2 w)))
    retention_pins

(* At k=1 every block of a three-block loop is deleted before it runs
   again, so each iteration relocates three fresh copies; 200k
   iterations outgrow the 6 MiB copy window and force the runtime to
   recycle it. The run must still end in the bare machine's state. *)
let test_flush_matches_bare_machine () =
  let prog =
    Eris.Asm.assemble_exn
      "li r1, 200000\n\
       loop: addi r2, r2, 3\n\
       beq r2, r0, skip\n\
       addi r3, r3, 1\n\
       skip: subi r1, r1, 1\n\
       bne r1, r0, loop\n\
       li r4, 0x0FF0\n\
       sw r2, 0(r4)\n\
       sw r3, 4(r4)\n\
       halt"
  in
  let bare = Eris.Machine.create prog in
  ignore (Eris.Machine.run_to_halt bare);
  match Runtime.run ~k:1 prog with
  | Error _ -> Alcotest.fail "runtime failed"
  | Ok (machine, stats) ->
    checkb "window recycled" true (stats.Runtime.flushes >= 1);
    for r = 0 to 15 do
      let r = Eris.Types.reg r in
      checki "register" (Eris.Machine.get_reg bare r)
        (Eris.Machine.get_reg machine r)
    done;
    for a = 0 to (65536 / 4) - 1 do
      if Eris.Machine.read_word bare (4 * a) <> Eris.Machine.read_word machine (4 * a)
      then Alcotest.failf "data word at %d differs" (4 * a)
    done

(* The fetch, branch and trap path allocates nothing per instruction:
   a whole run (codec training, image compression and every trap
   included) stays within a few minor words per executed instruction. *)
let test_allocation_per_instruction () =
  List.iter
    (fun name ->
      let prog =
        Eris.Asm.assemble_exn (Workloads.Suite.find_exn name).Workloads.Common.source
      in
      let before = Gc.minor_words () in
      let instrs =
        match Runtime.run ~k:8 prog with
        | Ok (_, s) -> s.Runtime.instructions
        | Error _ -> Alcotest.failf "%s: run failed" name
      in
      let per = (Gc.minor_words () -. before) /. float_of_int instrs in
      if per > 8.0 then
        Alcotest.failf "%s: %.1f minor words per instruction (> 8)" name per)
    [ "bsort"; "dct" ]

let () =
  Alcotest.run "runtime"
    [
      ("correctness", correctness_tests);
      ("pins", pin_tests @ retention_pin_tests);
      ( "behavior",
        [
          Alcotest.test_case "k reduces traps" `Quick test_k_reduces_traps;
          Alcotest.test_case "patching pays off" `Quick test_patching_pays_off;
          Alcotest.test_case "dangling return reload" `Quick
            test_dangling_return_reload;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
          Alcotest.test_case "wild jump faults" `Quick test_wild_jump_faults;
          Alcotest.test_case "codec independence" `Quick test_codec_choice;
          Alcotest.test_case "bit flips fault, naming the block" `Quick
            test_bit_flip_faults;
          Alcotest.test_case "agrees with the model" `Quick
            test_runtime_engine_agreement;
          Alcotest.test_case "allocation per instruction" `Quick
            test_allocation_per_instruction;
          Alcotest.test_case "window flush" `Quick
            test_flush_matches_bare_machine;
        ] );
      ( "line-mode",
        [
          Alcotest.test_case "checksums unchanged" `Quick
            test_line_mode_checksums;
          Alcotest.test_case "decompressions count lines" `Quick
            test_line_mode_counts_lines;
          Alcotest.test_case "line codec" `Quick test_line_mode_line_codec;
          Alcotest.test_case "validation" `Quick test_line_mode_validation;
        ] );
    ]
