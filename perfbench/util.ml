(* Shared helpers: clocks, order statistics, the result record every
   workload returns, and the metric vocabulary it is printed in. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of an already sorted array; 0 when empty. *)
let quantile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1)))))

let median xs = quantile (sorted xs) 0.5

(* A job's time from its repeats in one run. The host's speed drifts
   by up to half again over tens of seconds, which moves a per-job
   median with it; the fastest repeat, the one the host disturbed
   least, moves far less once there are enough repeats for one of them
   to have run undisturbed. With fewer, the fastest is itself a noisy
   draw and the median is steadier. *)
let job_time xs =
  if List.length xs >= 10 then List.fold_left Float.min Float.infinity xs
  else median xs

let sum_int f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* High-water resident set of this process, from the kernel's VmHWM
   line; falls back to the OCaml major heap's peak when /proc is not
   there. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
            ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.0))
          | _ -> go ()
          | exception End_of_file -> None
        in
        go ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    let st = Gc.quick_stat () in
    float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Minor-heap words allocated by [f] on this domain: deterministic for
   deterministic code, so it repeats exactly from run to run. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, int_of_float (Gc.minor_words () -. w0))

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Output checks: every mismatch is reported on stderr and counted
   against the run. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let check c ok fmt =
  Printf.ksprintf
    (fun msg ->
      c.attempted <- c.attempted + 1;
      if not ok then begin
        c.failed <- c.failed + 1;
        prerr_endline ("perfbench: check failed: " ^ msg)
      end)
    fmt

(* The default seed: the one whose seeded outputs are recorded in the
   golden files. *)
let default_seed = 1

(* Directory for spans, the daemon's socket and its cache; inside the
   checkout, ignored by git. *)
let out_dir = Filename.concat "perfbench" "out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* Set up [reps] times and keep the last result; the reported set-up
   time is the median, so one slow repetition does not move it. *)
let repeat_setup ~reps f =
  let rec go i acc last =
    if i = reps then (Option.get last, median acc)
    else
      let r, dt = time (fun () -> Span.with_ "perfbench.setup" f) in
      go (i + 1) (dt :: acc) (Some r)
  in
  go 0 [] None
