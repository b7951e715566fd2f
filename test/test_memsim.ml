(* Tests for the memory simulator: first-fit heap, remember sets,
   time-weighted accounting, LRU and the §5 layout model. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let test_heap_basic () =
  let h = Memsim.Heap.create ~capacity:100 in
  checki "capacity" 100 (Memsim.Heap.capacity h);
  let a = Option.get (Memsim.Heap.alloc h 30) in
  let b = Option.get (Memsim.Heap.alloc h 30) in
  checki "first fit at 0" 0 a;
  checki "second after first" 30 b;
  checki "used" 60 (Memsim.Heap.used_bytes h);
  checki "free" 40 (Memsim.Heap.free_bytes h);
  checkb "no room for 50" true (Memsim.Heap.alloc h 50 = None);
  Memsim.Heap.free h a;
  checkb "freed space reusable" true (Memsim.Heap.alloc h 30 = Some 0)

let test_heap_coalescing () =
  let h = Memsim.Heap.create ~capacity:90 in
  let a = Option.get (Memsim.Heap.alloc h 30) in
  let b = Option.get (Memsim.Heap.alloc h 30) in
  let c = Option.get (Memsim.Heap.alloc h 30) in
  Memsim.Heap.free h a;
  Memsim.Heap.free h c;
  checki "largest hole before coalesce" 30 (Memsim.Heap.largest_free h);
  Memsim.Heap.free h b;
  checki "holes coalesce" 90 (Memsim.Heap.largest_free h);
  checkb "invariants" true (Memsim.Heap.check_invariants h = Ok ())

let test_heap_fragmentation_metric () =
  let h = Memsim.Heap.create ~capacity:100 in
  let a = Option.get (Memsim.Heap.alloc h 25) in
  let _b = Option.get (Memsim.Heap.alloc h 25) in
  let c = Option.get (Memsim.Heap.alloc h 25) in
  let _d = Option.get (Memsim.Heap.alloc h 25) in
  checkf "no free no frag" 0.0 (Memsim.Heap.external_fragmentation h);
  Memsim.Heap.free h a;
  Memsim.Heap.free h c;
  (* 50 free in two 25 holes: 1 - 25/50. *)
  checkf "two holes" 0.5 (Memsim.Heap.external_fragmentation h)

let test_heap_errors () =
  let h = Memsim.Heap.create ~capacity:10 in
  Alcotest.check_raises "free unallocated"
    (Invalid_argument "Memsim.Heap.free: offset 3 not live") (fun () ->
      Memsim.Heap.free h 3);
  Alcotest.check_raises "alloc zero"
    (Invalid_argument "Memsim.Heap.alloc: non-positive size") (fun () ->
      ignore (Memsim.Heap.alloc h 0));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Memsim.Heap.create") (fun () ->
      ignore (Memsim.Heap.create ~capacity:0))

let test_heap_size_of () =
  let h = Memsim.Heap.create ~capacity:50 in
  let a = Option.get (Memsim.Heap.alloc h 17) in
  checkb "size recorded" true (Memsim.Heap.size_of h a = Some 17);
  checkb "unknown offset" true (Memsim.Heap.size_of h 40 = None)

(* Random alloc/free sequences preserve the heap invariants. *)
let prop_heap_invariants =
  QCheck.Test.make ~count:300 ~name:"heap invariants under random ops"
    QCheck.(list (pair (int_range 1 40) bool))
    (fun ops ->
      let h = Memsim.Heap.create ~capacity:256 in
      let live = ref [] in
      List.iter
        (fun (size, do_free) ->
          if do_free && !live <> [] then begin
            match !live with
            | off :: rest ->
              Memsim.Heap.free h off;
              live := rest
            | [] -> ()
          end
          else
            match Memsim.Heap.alloc h size with
            | Some off -> live := !live @ [ off ]
            | None -> ())
        ops;
      Memsim.Heap.check_invariants h = Ok ()
      && Memsim.Heap.used_bytes h + Memsim.Heap.free_bytes h
         = Memsim.Heap.capacity h)

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)

let test_accounting () =
  let a = Memsim.Accounting.create () in
  Memsim.Accounting.set_level a ~time:10 ~level:100;
  Memsim.Accounting.set_level a ~time:20 ~level:50;
  Memsim.Accounting.add a ~time:30 ~delta:(-50);
  checki "level" 0 (Memsim.Accounting.level a);
  checki "peak" 100 (Memsim.Accounting.peak a);
  (* integral: 0*10 + 100*10 + 50*10 = 1500 *)
  checki "integral" 1500 (Memsim.Accounting.integral a ~until:30);
  checkf "average over 30" 50.0 (Memsim.Accounting.average a ~until:30)

let test_accounting_same_time () =
  let a = Memsim.Accounting.create () in
  Memsim.Accounting.add a ~time:5 ~delta:10;
  Memsim.Accounting.add a ~time:5 ~delta:10;
  checki "same-time updates" 20 (Memsim.Accounting.level a);
  checki "integral zero before 5" 0 (Memsim.Accounting.integral a ~until:5)

let test_accounting_errors () =
  let a = Memsim.Accounting.create () in
  Memsim.Accounting.set_level a ~time:10 ~level:5;
  Alcotest.check_raises "time backwards"
    (Invalid_argument "Memsim.Accounting: time went backwards (5 < 10)")
    (fun () -> Memsim.Accounting.set_level a ~time:5 ~level:1);
  Alcotest.check_raises "negative level"
    (Invalid_argument "Memsim.Accounting.set_level: negative level") (fun () ->
      Memsim.Accounting.set_level a ~time:20 ~level:(-1))

let test_accounting_empty () =
  let a = Memsim.Accounting.create () in
  checkf "average of nothing" 0.0 (Memsim.Accounting.average a ~until:0);
  checki "peak of nothing" 0 (Memsim.Accounting.peak a)

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)

let test_lru () =
  let l = Memsim.Lru.create () in
  Memsim.Lru.touch l 1 ~time:10;
  Memsim.Lru.touch l 2 ~time:20;
  Memsim.Lru.touch l 3 ~time:30;
  checki "cardinal" 3 (Memsim.Lru.cardinal l);
  checkb "victim is oldest" true (Memsim.Lru.victim l () = Some 1);
  Memsim.Lru.touch l 1 ~time:40;
  checkb "touch refreshes" true (Memsim.Lru.victim l () = Some 2);
  checkb "exclusion works" true
    (Memsim.Lru.victim l ~exclude:(fun b -> b = 2) () = Some 3);
  Memsim.Lru.remove l 2;
  checkb "removed not offered" true (Memsim.Lru.victim l () = Some 3);
  checkb "membership" true (Memsim.Lru.mem l 3 && not (Memsim.Lru.mem l 2));
  Alcotest.check
    Alcotest.(list (pair int int))
    "lru order" [ (3, 30); (1, 40) ] (Memsim.Lru.to_list l)

let test_lru_tie_break () =
  let l = Memsim.Lru.create () in
  Memsim.Lru.touch l 5 ~time:10;
  Memsim.Lru.touch l 3 ~time:10;
  checkb "tie broken by id" true (Memsim.Lru.victim l () = Some 3)

let test_lru_empty () =
  let l = Memsim.Lru.create () in
  checkb "no victim" true (Memsim.Lru.victim l () = None);
  checkb "all excluded" true
    (Memsim.Lru.touch l 1 ~time:1;
     Memsim.Lru.victim l ~exclude:(fun _ -> true) () = None)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "memsim"
    [
      ( "heap",
        [
          Alcotest.test_case "basic alloc/free" `Quick test_heap_basic;
          Alcotest.test_case "coalescing" `Quick test_heap_coalescing;
          Alcotest.test_case "fragmentation metric" `Quick
            test_heap_fragmentation_metric;
          Alcotest.test_case "errors" `Quick test_heap_errors;
          Alcotest.test_case "size_of" `Quick test_heap_size_of;
          qcheck prop_heap_invariants;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "integrals" `Quick test_accounting;
          Alcotest.test_case "same-time updates" `Quick
            test_accounting_same_time;
          Alcotest.test_case "errors" `Quick test_accounting_errors;
          Alcotest.test_case "empty" `Quick test_accounting_empty;
        ] );
      ( "lru",
        [
          Alcotest.test_case "ordering" `Quick test_lru;
          Alcotest.test_case "tie break" `Quick test_lru_tie_break;
          Alcotest.test_case "empty" `Quick test_lru_empty;
        ] );
    ]
