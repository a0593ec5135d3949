(* End-to-end benchmark: one workload per process, one thread.

     dune exec bench/e2e/main.exe -- --workload NAME [--seed N]
       [--seconds S] [--trace 0|1]
     dune exec bench/e2e/main.exe -- --smoke

   Every metric is printed as `name value unit n=<samples>`; the last
   line is one JSON object {correct, attempted, failed, metrics} whose
   metrics are the end-to-end ones untraced and the per-layer ones with
   --trace 1, which also writes the spans to
   _bench_e2e/spans-<workload>-seed<N>.json. Exit 1 when an output
   check fails, 2 on bad usage.
   bench/e2e/README.md documents the workloads and metrics. *)

open Harness

type workload = {
  name : string;
  run : ctx -> unit;
  digest : (smoke:bool -> seed:int -> string) option;
      (** digest of the inputs the seed generates; [None]: fixed inputs *)
}

let workloads =
  let open Frontend in
  [ { name = "compile"; run = Compile_zoo.run; digest = None };
    { name = "decode-tiny";
      run = Vm_workloads.run_decode ~cfg:Configs.tiny ~precision:Llm.F16 ~checked:2;
      digest = Some (fun ~smoke:_ ~seed -> Vm_workloads.decode_digest ~seed Configs.tiny Llm.F16) };
    { name = "decode-q4";
      run = Vm_workloads.run_decode ~cfg:Configs.tiny_q ~precision:Llm.Q4 ~checked:2;
      digest = Some (fun ~smoke:_ ~seed -> Vm_workloads.decode_digest ~seed Configs.tiny_q Llm.Q4) };
    { name = "prefill-mixed";
      run = Vm_workloads.run_prefill;
      digest = Some Vm_workloads.prefill_digest };
    { name = "serve-poisson"; run = Serving.run_poisson; digest = Some Serving.poisson_digest };
    { name = "serve-chat"; run = Serving.run_chat; digest = Some Serving.chat_digest } ]

(* The metric sets of BENCHMARK.json: every run reports all of them,
   per-layer metrics of a layer the workload does not reach read 0. *)
let end_to_end = [ ("setup_s", "s"); ("items_per_s", "1/s"); ("heap_live_mib", "MiB") ]

let stages =
  [ "normalize"; "dispatch-library"; "legalize"; "annotate"; "fuse"; "dce"; "renormalize";
    "lift-workspace"; "explicit-memory"; "memory-plan"; "graph-capture" ]

let per_layer =
  List.map (fun l -> (l ^ "_pct", "%"))
    ([ "frontend.build" ]
    @ List.map (fun s -> "passes." ^ s) stages
    @ [ "passes.to_vm"; "analysis.verify"; "vm.dispatch"; "vm.match_shape"; "allocator.alloc";
        "tir.kernel"; "tir.compile_miss"; "library.extern"; "serve.engine"; "serve.step";
        "serve.admit"; "serve.arrive"; "serve.finish"; "serve.kv_share"; "serve.kv_evict";
        "dist.route"; "bench.harness" ])
  @ [ ("host.op_p50_ms", "ms"); ("host.op_p99_ms", "ms"); ("host.speed", "ratio");
      ("trace.us_per_op", "us"); ("trace.overhead_frac", "frac"); ("passes.tir_funcs", "count"); ("analysis.warnings", "count");
      ("vm.sim_launches", "count"); ("vm.sim_graph_replays", "count");
      ("vm.instrs_per_op", "count"); ("tir.kernel_calls_per_op", "count");
      ("tir.kcache_misses", "count"); ("tir.kcache_hit_ratio", "ratio");
      ("library.extern_calls_per_op", "count"); ("allocator.allocs_per_op", "count");
      ("allocator.reuse_ratio", "ratio"); ("allocator.peak_kib", "KiB");
      ("gc.minor_words_per_op", "words"); ("gc.major_words_per_op", "words");
      ("serve.decode_steps", "count"); ("serve.batch_mean", "count");
      ("serve.occupancy", "ratio"); ("serve.preemptions", "count");
      ("serve.queue_wait_ms_p50", "sim_ms"); ("serve.queue_wait_ms_p99", "sim_ms");
      ("serve.prefix_hit_rate", "ratio"); ("serve.cow_copies", "count");
      ("serve.kv_evictions", "count"); ("serve.kv_bytes_per_token", "B/tok");
      ("dist.replica_share_max", "frac"); ("dist.makespan_skew", "ratio");
      ("sim.decode_ms", "sim_ms"); ("sim.plan_mib", "MiB"); ("sim.tok_s", "tok/s");
      ("sim.ttft_ms_p50", "sim_ms"); ("sim.ttft_ms_p99", "sim_ms"); ("sim.capacity_rps", "req/s") ]

(* Shortest decimal that reads back as the same float. *)
let number v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  go 15

let print_metric (m : metric) =
  Printf.printf "%-34s %s %s n=%d\n" m.name (number m.value) m.unit_ m.n

(* The JSON object of [wanted] metrics; missing per-layer ones read 0. *)
let json r ~wanted ~recorded =
  let field (name, unit_) =
    let value =
      match List.find_opt (fun (m : metric) -> m.name = name) recorded with
      | Some m -> m.value
      | None -> 0.0
    in
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number value) unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.attempted r.failed
    (String.concat ", " (List.map field wanted))

(* Run one workload and print its report; returns whether it was
   correct. *)
let run_one ?(quiet = false) (w : workload) c =
  w.run c;
  let r = c.rep in
  let recorded = List.rev r.e2e @ List.rev r.layer in
  check r "metrics.finite" (List.for_all (fun (m : metric) -> Float.is_finite m.value) recorded);
  List.iter
    (fun (name, _) -> check r ("metrics.present." ^ name) (List.exists (fun (m : metric) -> m.name = name) r.e2e))
    end_to_end;
  if not quiet then begin
    Printf.printf "workload %s seed %d seconds %s trace %d\n" c.workload c.seed (number c.seconds)
      (if c.trace then 1 else 0);
    List.iter print_metric recorded;
    Printf.printf "%-34s %s fraction n=%d\n" "failed_frac"
      (number (float_of_int r.failed /. float_of_int (max 1 r.attempted)))
      r.attempted;
    List.iter (fun (name, ok) -> Printf.printf "check %s %s\n" name (if ok then "ok" else "FAILED"))
      (List.rev r.checks);
    List.iter (Printf.printf "note %s\n") (List.rev r.notes);
    print_endline
      (if c.trace then json r ~wanted:per_layer ~recorded:(List.rev r.layer)
       else json r ~wanted:end_to_end ~recorded:(List.rev r.e2e))
  end;
  correct r

let ctx ?(trace = false) ?(smoke = false) ?(seconds = 10.0) ~seed name =
  let spans_file = Printf.sprintf "_bench_e2e/spans-%s-seed%d.json" name seed in
  { workload = name; seed; seconds; trace; smoke; spans_file; rep = report () }

let layer_value c name =
  List.find_map (fun (m : metric) -> if m.name = name then Some m.value else None) c.rep.layer

(* Every workload at smoke size with its oracle, the seed checks and
   one traced run. *)
let smoke () =
  let ok = ref true in
  let expect what b =
    if not b then begin
      Printf.printf "smoke FAILED: %s\n" what;
      ok := false
    end
  in
  let seconds = 0.2 in
  List.iter
    (fun w ->
      let c = ctx ~smoke:true ~seconds ~seed:1 w.name in
      let t0 = now_ns () in
      let good = run_one ~quiet:true w c in
      Printf.printf "smoke %-14s %s in %.2f s\n%!" w.name (if good then "ok" else "FAILED")
        (secs_since t0);
      if not good then
        List.iter (fun (n, v) -> if not v then Printf.printf "  check %s FAILED\n" n) c.rep.checks;
      expect (w.name ^ " correct") good;
      Option.iter
        (fun digest ->
          let d1 = digest ~smoke:true ~seed:1 in
          expect (w.name ^ " same seed, same inputs") (d1 = digest ~smoke:true ~seed:1);
          expect (w.name ^ " seeds 1 and 2 differ") (d1 <> digest ~smoke:true ~seed:2))
        w.digest;
      if w.name = "serve-poisson" then begin
        let again = ctx ~smoke:true ~seconds ~seed:1 w.name in
        ignore (run_one ~quiet:true w again);
        List.iter
          (fun m ->
            expect ("serve-poisson same seed, same " ^ m) (layer_value c m = layer_value again m))
          [ "sim.tok_s"; "sim.ttft_ms_p50"; "sim.ttft_ms_p99"; "sim.capacity_rps" ]
      end)
    workloads;
  let w = List.find (fun w -> w.name = "decode-tiny") workloads in
  let c = ctx ~smoke:true ~trace:true ~seconds:0.4 ~seed:1 w.name in
  let good = run_one ~quiet:true w c in
  List.iter (fun (n, v) -> if not v then Printf.printf "  check %s FAILED\n" n) c.rep.checks;
  expect "traced decode-tiny correct" good;
  print_endline (if !ok then "bench-smoke ok" else "bench-smoke FAILED");
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke_mode = ref false in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1: add the traced pass, print per-layer metrics");
      ("--smoke", Arg.Set smoke_mode, " every workload at smoke size, with the checks") ]
  in
  let bad msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with
   | Arg.Bad msg -> bad msg
   | Arg.Help msg ->
       print_string msg;
       exit 0);
  if !smoke_mode then smoke ()
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
    | Some w ->
        if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
        if not (!seconds > 0.0) then bad "--seconds must be positive";
        let c = ctx ~trace:(!trace = 1) ~seconds:!seconds ~seed:!seed w.name in
        exit (if run_one w c then 0 else 1)
