(* Host clock, machine-speed calibration, statistics and the metric
   report shared by every workload of the end-to-end benchmark. *)

let now_ns = Span.now
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* ---------- machine-speed calibration ---------- *)

(* The benchmark shares its host, whose speed drifts by half and more over
   tens of seconds (a plain interpreter loop shows the same drift), far
   more than the regressions the bounds must catch. Every host time is
   therefore scaled to a reference speed: a fixed loop that allocates
   nothing is timed before the first operation and after every
   [cal_interval] seconds of operations, and each operation's time is
   multiplied by [cal_ref /. c], where [c] is the host's loop time
   around it. Reported times are reference seconds: the time the
   operation takes on a host where the loop takes [cal_ref]. *)
let cal_ref = 2e-4
let cal_interval = 0.025
let cal_window = 5
let cal_buf = Array.init 2048 (fun i -> float_of_int ((i * 7919) land 2047))

let cal_loop () =
  let t0 = now_ns () in
  let acc = ref 0.0 and k = ref 0 in
  for r = 1 to 64 do
    for i = 0 to 2047 do
      let j = ((i * r) + !k) land 2047 in
      acc := !acc +. (cal_buf.(j) *. 0.5);
      k := (!k + j) land 1023
    done
  done;
  ignore (Sys.opaque_identity !acc);
  secs_since t0

(* Noise only ever slows the loop down, so keep the fastest of three. *)
let calibrate () = Float.min (cal_loop ()) (Float.min (cal_loop ()) (cal_loop ()))

(* ---------- statistics ---------- *)

(* Nearest-rank percentile ([p] in [0, 100]) of the finite samples;
   nan when there are none. *)
let percentile p samples =
  let a = Array.of_list (List.filter Float.is_finite samples) in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median samples = percentile 50.0 samples

(* About 20 consecutive chunks of ops, each a multiple of [align] ops
   long, so workloads that cycle through a fixed input mix compare
   whole cycles; ops past the last whole chunk are left out. *)
let chunks ?(align = 1) ops =
  let a = Array.of_list ops in
  let n = Array.length a in
  let size = max align (n / 20 / align * align) in
  List.init (max 1 (n / size)) (fun k ->
      Array.to_list (Array.sub a (k * size) (min size (n - (k * size)))))

(* ---------- report ---------- *)

type metric = { name : string; value : float; unit_ : string; n : int }

type report = {
  mutable e2e : metric list;  (** reverse order of recording *)
  mutable layer : metric list;
  mutable notes : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * bool) list;
}

let report () =
  { e2e = []; layer = []; notes = []; attempted = 0; failed = 0; checks = [] }

(* Digest of a workload's generated inputs, for the seed checks. *)
let digest_of values = Digest.to_hex (Digest.string (Marshal.to_string values []))

let e2e r ?(n = 1) name unit_ value =
  r.e2e <- { name; value; unit_; n } :: r.e2e

let layer r ?(n = 1) name unit_ value =
  r.layer <- { name; value; unit_; n } :: r.layer

let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt
let attempt r k = r.attempted <- r.attempted + k
let fail r k = r.failed <- r.failed + k
let check r name ok = r.checks <- (name, ok) :: r.checks
let correct r = r.failed = 0 && List.for_all snd r.checks

(* ---------- run context ---------- *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;  (** length of one measured phase *)
  trace : bool;
  smoke : bool;
  spans_file : string;
  rep : report;
}

(* Set up [min_reps] times, and more while the set-ups together took
   under half a second (cheap set-ups are noisy), keeping the last
   copy. Records [setup_s] as the median, in reference seconds. *)
let setup c f =
  let rec go reps total times =
    let c0 = calibrate () in
    let t0 = now_ns () in
    let v = f () in
    let s = secs_since t0 in
    let scaled = s *. cal_ref /. ((c0 +. calibrate ()) /. 2.0) in
    let reps = reps + 1 and total = total +. s and times = scaled :: times in
    let min_reps = if c.smoke then 1 else 3 in
    if reps < min_reps || (total < 0.5 && reps < 15 && not c.smoke) then
      go reps total times
    else (v, times)
  in
  let v, times = go 0 0.0 [] in
  e2e c.rep ~n:(List.length times) "setup_s" "s" (median times);
  (* The heap the set-up workload holds: live words after a full major
     collection, so the figure does not depend on how far the
     collector had got. *)
  Gc.full_major ();
  e2e c.rep "heap_live_mib" "MiB"
    (float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0);
  v

(* Run [op i (prepare i)] for i = 0, 1, ... until [seconds] have passed
   (at least [min_ops] ops), timing [op] but not [prepare]. [op]
   returns the work items it completed. With a [tracer], each op is a
   top-level span. Returns each op's (reference seconds, items) in
   order, and the host's speed (the median of [cal_ref /. c]) for the
   report. *)
let timed_prepared ?(min_ops = 1) ?tracer ~seconds ~prepare op =
  let op =
    match tracer with
    | None -> op
    | Some tr ->
        Span.start tr;
        fun i input ->
          let t0 = now_ns () in
          let items = Span.with_span tr ~req:i ~layer:"bench.harness" "op" (fun () -> op i input) in
          Span.measured tr (now_ns () - t0);
          items
  in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let cals = ref [ (-1, calibrate ()) ] and since = ref 0.0 in
  let rec go i acc =
    if i >= min_ops && now_ns () >= deadline then List.rev acc
    else begin
      let input = prepare i in
      let t0 = now_ns () in
      let items = op i input in
      let s = secs_since t0 in
      since := !since +. s;
      if !since >= cal_interval then begin
        cals := (i, calibrate ()) :: !cals;
        since := 0.0
      end;
      go (i + 1) ((s, items) :: acc)
    end
  in
  let ops = go 0 [] in
  Option.iter Span.stop tracer;
  (* [cals] holds (index of the op just before, loop time). One loop
     timing is noisy; the speed at calibration [k] is the median of the
     timings within [cal_window] calibrations of it, which still follows
     drift that takes seconds. *)
  let cals = Array.of_list (List.rev !cals) in
  let last = Array.length cals - 1 in
  let smooth =
    Array.init (last + 1) (fun k ->
        median
          (List.init (2 * cal_window + 1) (fun d -> k - cal_window + d)
          |> List.filter (fun j -> j >= 0 && j <= last)
          |> List.map (fun j -> snd cals.(j))))
  in
  let k = ref 0 in
  let scaled =
    List.mapi
      (fun i (s, items) ->
        while !k < last && fst cals.(!k + 1) < i do
          incr k
        done;
        let after = smooth.(min last (!k + 1)) in
        (s *. cal_ref /. ((smooth.(!k) +. after) /. 2.0), items))
      ops
  in
  (scaled, median (Array.to_list (Array.map (fun c -> cal_ref /. c) smooth)))

let timed ?min_ops ?tracer ~seconds op =
  timed_prepared ?min_ops ?tracer ~seconds ~prepare:ignore (fun i () -> op i)

(* The phase length: the whole budget untraced, half of it when the
   same run also makes the traced pass. *)
let phase_seconds c = if c.trace then c.seconds /. 2.0 else c.seconds

(* Items per second over a list of ops. *)
let rate ops =
  let s, it = List.fold_left (fun (s, it) (s', it') -> (s +. s', it +. it')) (0.0, 0.0) ops in
  it /. s

(* Metrics of a measured phase: throughput as the median over chunks
   of items per second (a burst of slow ops, from a major collection or
   a host hiccup, then moves one chunk, not the figure), and per-op
   latency. Latency percentiles are per-layer only: on a shared host
   they do not repeat within a tenth (README.md). *)
let record_phase c ?align (ops, speed) =
  let cs = chunks ?align ops in
  e2e c.rep ~n:(List.length cs) "items_per_s" "1/s" (median (List.map rate cs));
  let ms p = 1e3 *. percentile p (List.map fst ops) in
  layer c.rep ~n:(List.length ops) "host.op_p50_ms" "ms" (ms 50.0);
  layer c.rep ~n:(List.length ops) "host.op_p99_ms" "ms" (ms 99.0);
  layer c.rep "host.speed" "ratio" speed;
  attempt c.rep (List.length ops)

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

(* GC pressure of a measured phase, per op. *)
let record_gc c ops (minor0, major0) =
  let minor1, major1 = gc_words () in
  let per_op x = x /. float_of_int (max 1 (List.length ops)) in
  layer c.rep "gc.minor_words_per_op" "words" (per_op (minor1 -. minor0));
  layer c.rep "gc.major_words_per_op" "words" (per_op (major1 -. major0))

(* The traced pass's metrics: self time of every layer as a percentage
   of the traced time (the ops' spans), the traced time per op, and the
   tracing overhead against the untraced phase over the ops both ran. *)
let record_trace c ~untraced ~traced tr =
  let ops = List.length traced in
  let common = min ops (List.length untraced) in
  let wall = Span.wall_s tr in
  List.iter
    (fun (layer_name, s) -> layer c.rep (layer_name ^ "_pct") "%" (100.0 *. s /. wall))
    (Span.self_times tr);
  layer c.rep "trace.us_per_op" "us" (1e6 *. wall /. float_of_int (max 1 ops));
  let first ops = List.filteri (fun i _ -> i < common) ops in
  layer c.rep "trace.overhead_frac" "frac" ((rate (first untraced) /. rate (first traced)) -. 1.0);
  layer c.rep "trace.spans" "count" (float_of_int (Span.count tr));
  (* Self-check: the self times add up to the wall time the harness
     measured around the ops, every span closed, and the spans file
     holds something. *)
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Span.self_times tr) in
  let measured = Span.measured_s tr in
  check c.rep "trace.self_time_sum_within_5pct" (Float.abs (sum -. measured) <= 0.05 *. measured);
  check c.rep "trace.all_spans_closed"
    (Span.open_count tr = 0 && Span.count_of tr "trace.unbalanced_closes" = 0);
  let bytes = Span.write_json tr ~workload:c.workload ~seed:c.seed c.spans_file in
  check c.rep "trace.spans_file_nonempty" (bytes > 0 && Span.count tr > 0);
  note c.rep "spans written to %s (%d spans, %d kept)" c.spans_file (Span.count tr)
    (Span.kept tr)
