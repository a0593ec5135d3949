(* Fault injection and resilience: determinism of the seeded injector,
   what a fired fault does at each of the scheduler's injection sites,
   chaos invariants of the resilient scheduler (conservation of
   requests across completed/shed/aborted, block drain, retry bounds,
   seed-identical traces, Sim/Numeric agreement under faults), the
   typed failure taxonomy, and qcheck edge cases for the serving
   metrics. *)

let tiny = Frontend.Configs.tiny
let device = Runtime.Device.rtx4090

(* ---------- Fault module: seeded determinism ---------- *)

let some_config =
  {
    Runtime.Fault.disabled with
    Runtime.Fault.seed = 11;
    kernel_fail_p = 0.3;
    stall_p = 0.2;
    oom_p = 0.1;
    nan_p = 0.05;
  }

let fired i kind ~site = Option.is_some (Runtime.Fault.draw i kind ~site)

let test_injector_deterministic () =
  let draw_all i =
    List.init 50 (fun k ->
        let site = Printf.sprintf "s%d" k in
        ( fired i Runtime.Fault.Kernel_failure ~site,
          fired i Runtime.Fault.Device_stall ~site,
          fired i Runtime.Fault.Alloc_oom ~site,
          fired i Runtime.Fault.Nan_corruption ~site ))
  in
  let a = draw_all (Runtime.Fault.create some_config) in
  let b = draw_all (Runtime.Fault.create some_config) in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c =
    draw_all (Runtime.Fault.create { some_config with Runtime.Fault.seed = 12 })
  in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

(* A probability-0 draw must not consume PRNG state: interleaving dead
   draws (and replica kinds, which are planned, never drawn) leaves the
   live kind's schedule untouched. *)
let test_zero_prob_draws_free () =
  let cfg =
    {
      Runtime.Fault.disabled with
      Runtime.Fault.seed = 5;
      kernel_fail_p = 0.5;
    }
  in
  let plain =
    let i = Runtime.Fault.create cfg in
    List.init 40 (fun _ -> fired i Runtime.Fault.Kernel_failure ~site:"k")
  in
  let interleaved =
    let i = Runtime.Fault.create cfg in
    List.init 40 (fun _ ->
        ignore (fired i Runtime.Fault.Nan_corruption ~site:"n");
        ignore (fired i Runtime.Fault.Alloc_oom ~site:"o");
        ignore (fired i Runtime.Fault.Replica_crash ~site:"r");
        fired i Runtime.Fault.Kernel_failure ~site:"k")
  in
  Alcotest.(check bool) "dead draws don't perturb the stream" true
    (plain = interleaved)

let test_counters () =
  let i =
    Runtime.Fault.create
      { Runtime.Fault.disabled with Runtime.Fault.seed = 3; kernel_fail_p = 1.0 }
  in
  for _ = 1 to 5 do
    ignore (fired i Runtime.Fault.Kernel_failure ~site:"k")
  done;
  Alcotest.(check int) "fired count" 5
    (Runtime.Fault.injected i Runtime.Fault.Kernel_failure);
  Alcotest.(check int) "total" 5 (Runtime.Fault.injected_total i);
  Alcotest.(check int) "other kinds untouched" 0
    (Runtime.Fault.injected i Runtime.Fault.Device_stall)

(* ---------- scheduler chaos invariants ---------- *)

let model =
  lazy (Serve.Scheduler.model ~cfg:tiny ~precision:Frontend.Llm.F16 ~device)

let opts ?(max_batch = 2) ?(block_size = 4) ?(policy = Serve.Scheduler.Continuous)
    ?(admission = Serve.Scheduler.Fcfs) ?max_attempts ?faults ?budget_blocks () =
  let block_bytes =
    2 * tiny.Frontend.Configs.layers * tiny.Frontend.Configs.kv_heads
    * tiny.Frontend.Configs.head_dim * block_size * 2
  in
  {
    Serve.Scheduler.max_batch;
    block_size;
    policy;
    admission;
    max_attempts =
      Option.value max_attempts
        ~default:Serve.Scheduler.default_opts.Serve.Scheduler.max_attempts;
    faults;
    kv_budget_bytes = Option.map (fun b -> b * block_bytes) budget_blocks;
    kv_share = false;
    prefix_prefill_discount = false;
    slowdowns = [];
    outages = [];
  }

let workload ?(seed = 7) ?(rate = 50_000.0) ?(n = 6) ?deadline_slack_us () =
  let w =
    Serve.Workload.generate ~seed ~rate_per_s:rate ~num_requests:n
      ~max_total:tiny.Frontend.Configs.max_context
      ~prompt:(Serve.Workload.Uniform (2, 6))
      ~output:(Serve.Workload.Uniform (1, 4))
      ()
  in
  match deadline_slack_us with
  | Some slack_us -> Serve.Workload.with_deadline ~slack_us w
  | None -> w

type chaos_scenario = {
  wseed : int;
  fseed : int;
  n : int;
  rate : float;
  max_batch : int;
  budget_blocks : int;
  fault_rate : float;
  admission : Serve.Scheduler.admission;
  deadline_slack_us : float option;
}

let print_chaos s =
  Printf.sprintf "{w=%d f=%d n=%d rate=%.0f mb=%d blocks=%d p=%.2f %s slack=%s}"
    s.wseed s.fseed s.n s.rate s.max_batch s.budget_blocks s.fault_rate
    (match s.admission with
    | Serve.Scheduler.Fcfs -> "fcfs"
    | Serve.Scheduler.Deadline_aware -> "deadline")
    (match s.deadline_slack_us with
    | Some v -> Printf.sprintf "%.0f" v
    | None -> "none")

let gen_chaos =
  QCheck.Gen.(
    let* wseed = int_range 0 500 in
    let* fseed = int_range 0 500 in
    let* n = int_range 1 8 in
    let* rate = oneofl [ 10_000.0; 50_000.0; 200_000.0 ] in
    let* max_batch = int_range 1 4 in
    let* budget_blocks = int_range 4 8 in
    (* < 1.0 everywhere: oom_p = 1.0 would livelock admission (every
       grow fails forever), documented in scheduler.mli. *)
    let* fault_rate = oneofl [ 0.0; 0.05; 0.2; 0.5 ] in
    let* admission =
      oneofl [ Serve.Scheduler.Fcfs; Serve.Scheduler.Deadline_aware ]
    in
    let* deadline_slack_us = oneofl [ None; Some 500.0; Some 5_000.0 ] in
    return
      {
        wseed;
        fseed;
        n;
        rate;
        max_batch;
        budget_blocks;
        fault_rate;
        admission;
        deadline_slack_us;
      })

let arb_chaos = QCheck.make ~print:print_chaos gen_chaos

let chaos_faults s =
  if s.fault_rate > 0.0 then
    Some
      {
        Runtime.Fault.disabled with
        Runtime.Fault.seed = s.fseed;
        kernel_fail_p = s.fault_rate;
        stall_p = s.fault_rate;
        oom_p = 0.5 *. s.fault_rate;
        nan_p = 0.2 *. s.fault_rate;
      }
  else None

let run_chaos ?exec ?trace s =
  Serve.Scheduler.run ?exec ?trace (Lazy.force model)
    (opts ~max_batch:s.max_batch ~budget_blocks:s.budget_blocks
       ~admission:s.admission ?faults:(chaos_faults s) ())
    (workload ~seed:s.wseed ~rate:s.rate ~n:s.n ?deadline_slack_us:s.deadline_slack_us
       ())

(* Every submitted id lands in exactly one of completed/shed/aborted. *)
let test_conservation =
  QCheck.Test.make ~count:60 ~name:"completed + shed + aborted = submitted"
    arb_chaos (fun s ->
      let res = run_chaos s in
      let completed =
        List.map
          (fun (m : Serve.Metrics.request_metrics) -> m.Serve.Metrics.id)
          res.Serve.Scheduler.completed
      in
      let all =
        List.sort compare
          (completed @ res.Serve.Scheduler.shed @ res.Serve.Scheduler.aborted)
      in
      if all <> List.init s.n (fun i -> i) then
        QCheck.Test.fail_reportf
          "ids not a partition: completed=%s shed=%s aborted=%s"
          (String.concat "," (List.map string_of_int completed))
          (String.concat ","
             (List.map string_of_int res.Serve.Scheduler.shed))
          (String.concat ","
             (List.map string_of_int res.Serve.Scheduler.aborted));
      let sum = res.Serve.Scheduler.summary in
      sum.Serve.Metrics.completed + sum.Serve.Metrics.shed
      + sum.Serve.Metrics.aborted
      = sum.Serve.Metrics.submitted
      && sum.Serve.Metrics.timeouts <= sum.Serve.Metrics.shed)

let test_chaos_blocks_drain =
  QCheck.Test.make ~count:60 ~name:"block manager drains to zero under chaos"
    arb_chaos (fun s ->
      let res = run_chaos s in
      let bm = res.Serve.Scheduler.blocks in
      if Serve.Block_manager.used_blocks bm <> 0 then
        QCheck.Test.fail_reportf "%d blocks still held"
          (Serve.Block_manager.used_blocks bm);
      true)

let test_retry_bound =
  QCheck.Test.make ~count:60 ~name:"retries never exceed the attempt budget"
    arb_chaos (fun s ->
      let max_attempts = 1 + (s.wseed mod 4) in
      let res =
        Serve.Scheduler.run (Lazy.force model)
          (opts ~max_batch:s.max_batch ~budget_blocks:s.budget_blocks
             ~admission:s.admission ~max_attempts ?faults:(chaos_faults s) ())
          (workload ~seed:s.wseed ~rate:s.rate ~n:s.n
             ?deadline_slack_us:s.deadline_slack_us ())
      in
      List.for_all
        (fun (m : Serve.Metrics.request_metrics) ->
          m.Serve.Metrics.retries <= max_attempts)
        res.Serve.Scheduler.completed)

let trace_strings f =
  let r = Runtime.Trace.recorder () in
  let res = f (Runtime.Trace.sink r) in
  (res, List.map Runtime.Trace.to_string (Runtime.Trace.events r))

let test_seed_identical_traces =
  QCheck.Test.make ~count:25 ~name:"identical seeds give identical traces"
    arb_chaos (fun s ->
      let _, t1 = trace_strings (fun sink -> run_chaos ~trace:sink s) in
      let _, t2 = trace_strings (fun sink -> run_chaos ~trace:sink s) in
      if t1 <> t2 then QCheck.Test.fail_reportf "traces diverged";
      true)

(* faults = None and faults = Some all-zero must be byte-identical. *)
let test_none_vs_zero =
  QCheck.Test.make ~count:15 ~name:"all-zero fault config is zero-cost"
    arb_chaos (fun s ->
      let s = { s with fault_rate = 0.0 } in
      let run faults sink =
        Serve.Scheduler.run ~trace:sink (Lazy.force model)
          (opts ~max_batch:s.max_batch ~budget_blocks:s.budget_blocks
             ~admission:s.admission ?faults ())
          (workload ~seed:s.wseed ~rate:s.rate ~n:s.n
             ?deadline_slack_us:s.deadline_slack_us ())
      in
      let r1, t1 = trace_strings (run None) in
      let r2, t2 =
        trace_strings
          (run
             (Some
                { Runtime.Fault.disabled with Runtime.Fault.seed = s.fseed }))
      in
      t1 = t2
      && r1.Serve.Scheduler.clock_us = r2.Serve.Scheduler.clock_us
      && r1.Serve.Scheduler.summary = r2.Serve.Scheduler.summary)

let test_numeric_matches_sim_under_faults =
  QCheck.Test.make ~count:5
    ~name:"numeric and timed agree on scheduling under faults" arb_chaos
    (fun s ->
      let s = { s with n = min s.n 5 } in
      let sim = run_chaos s in
      let num = run_chaos ~exec:(`Numeric 3) s in
      let shape (r : Serve.Scheduler.result) =
        ( List.map
            (fun (m : Serve.Metrics.request_metrics) ->
              (m.Serve.Metrics.id, m.Serve.Metrics.tokens))
            r.Serve.Scheduler.completed,
          r.Serve.Scheduler.shed,
          r.Serve.Scheduler.aborted )
      in
      if shape sim <> shape num then
        QCheck.Test.fail_reportf "scheduling diverged between Sim and Numeric";
      if sim.Serve.Scheduler.clock_us <> num.Serve.Scheduler.clock_us then
        QCheck.Test.fail_reportf "clocks differ: %.3f vs %.3f"
          sim.Serve.Scheduler.clock_us num.Serve.Scheduler.clock_us;
      true)

(* ---------- scheduler injection sites ----------

   One armed kind at a time, probability 1 where the run still
   terminates: each case pins what a fired draw does at its site. *)

let request ~id ~arrival ~prompt ~output =
  {
    Serve.Workload.id;
    arrival_us = arrival;
    prompt_len = prompt;
    output_len = output;
    deadline_us = None;
    prompt_tokens = None;
    fork_of = None;
  }

(* (kind, site) of every fault the run traced, in firing order. *)
let run_armed ?(max_batch = 2) cfg w =
  let r = Runtime.Trace.recorder () in
  let res =
    Serve.Scheduler.run ~trace:(Runtime.Trace.sink r) (Lazy.force model)
      (opts ~max_batch ~budget_blocks:8 ~faults:cfg ())
      w
  in
  let sites =
    List.filter_map
      (function
        | Runtime.Trace.Fault_injected ev ->
            Some (ev.Runtime.Fault.kind, ev.Runtime.Fault.site)
        | _ -> None)
      (Runtime.Trace.events r)
  in
  (res, sites)

let ids xs = List.sort compare xs

let completed_ids (res : Serve.Scheduler.result) =
  ids
    (List.map
       (fun (m : Serve.Metrics.request_metrics) -> m.Serve.Metrics.id)
       res.Serve.Scheduler.completed)

let check_drained (res : Serve.Scheduler.result) =
  Alcotest.(check int) "every block released" 0
    (Serve.Block_manager.used_blocks res.Serve.Scheduler.blocks)

let test_prefill_failure_aborts () =
  let w = workload ~n:4 () in
  let res, sites =
    run_armed
      { Runtime.Fault.disabled with Runtime.Fault.seed = 1; kernel_fail_p = 1.0 }
      w
  in
  let attempts = Serve.Scheduler.default_opts.Serve.Scheduler.max_attempts in
  Alcotest.(check (list int)) "every request aborts" [ 0; 1; 2; 3 ]
    (ids res.Serve.Scheduler.aborted);
  Alcotest.(check (list int)) "none completes" [] (completed_ids res);
  Alcotest.(check bool) "each request fails its prefill max_attempts times" true
    (sites
    = List.init (4 * attempts) (fun _ -> (Runtime.Fault.Kernel_failure, "prefill")));
  Alcotest.(check int) "summary counts the faults" (4 * attempts)
    res.Serve.Scheduler.summary.Serve.Metrics.faults;
  check_drained res

(* A failed prefill re-queues its request 500 us after the failure,
   then 1000 us after the next one: a lone request whose every
   prefill fails traces its retries one prefill cost apart plus those
   backoffs (about 18, 536 and 1554 us for this tiny prompt), then
   aborts on the third. *)
let test_prefill_backoff () =
  let w = [ request ~id:0 ~arrival:0.0 ~prompt:4 ~output:2 ] in
  let prefill_us =
    match (Serve.Scheduler.run (Lazy.force model) (opts ()) w).Serve.Scheduler.completed with
    | [ m ] -> m.Serve.Metrics.first_token_us
    | _ -> Alcotest.fail "expected one completion"
  in
  let r = Runtime.Trace.recorder () in
  let res =
    Serve.Scheduler.run ~trace:(Runtime.Trace.sink r) (Lazy.force model)
      (opts
         ~faults:
           { Runtime.Fault.disabled with Runtime.Fault.seed = 1; kernel_fail_p = 1.0 }
         ())
      w
  in
  let retries =
    List.filter_map
      (function
        | Runtime.Trace.Serve { tag = `Retry; t_us; tokens; _ } -> Some (t_us, tokens)
        | _ -> None)
      (Runtime.Trace.events r)
  in
  Alcotest.(check (list (pair (float 1e-6) int)))
    "retry times: prefill, +500 us, +1000 us"
    [
      (prefill_us, 1);
      ((2.0 *. prefill_us) +. 500.0, 2);
      ((3.0 *. prefill_us) +. 1500.0, 3);
    ]
    retries;
  Alcotest.(check (list int)) "aborted after the third" [ 0 ]
    res.Serve.Scheduler.aborted

(* A lone request on a batch of one (no degradation): every step
   stalls, so its latency is exactly stall_factor times the clean one. *)
let test_stall_scales_steps () =
  let w = [ request ~id:0 ~arrival:0.0 ~prompt:5 ~output:4 ] in
  let latency faults =
    let res =
      Serve.Scheduler.run (Lazy.force model) (opts ~max_batch:1 ?faults ()) w
    in
    match res.Serve.Scheduler.completed with
    | [ m ] -> m.Serve.Metrics.finish_us -. m.Serve.Metrics.arrival_us
    | _ -> Alcotest.fail "expected one completion"
  in
  let clean = latency None in
  List.iter
    (fun k ->
      let cfg =
        {
          Runtime.Fault.disabled with
          Runtime.Fault.seed = 1;
          stall_p = 1.0;
          stall_factor = k;
        }
      in
      Alcotest.(check (float (1e-9 *. k *. clean)))
        (Printf.sprintf "latency x%.1f" k)
        (k *. clean) (latency (Some cfg));
      let _, sites = run_armed ~max_batch:1 cfg w in
      Alcotest.(check bool) "one stall per step" true
        (sites
        = (Runtime.Fault.Device_stall, "prefill")
          :: List.init 3 (fun _ -> (Runtime.Fault.Device_stall, "decode"))))
    [ 2.0; 4.0; 7.5 ]

(* Every decoded token is corrupt: single-token requests finish at
   their prefill, longer ones spend their attempts and abort. *)
let test_token_corruption () =
  let w =
    [
      request ~id:0 ~arrival:0.0 ~prompt:3 ~output:1;
      request ~id:1 ~arrival:10.0 ~prompt:4 ~output:3;
      request ~id:2 ~arrival:20.0 ~prompt:2 ~output:1;
      request ~id:3 ~arrival:30.0 ~prompt:5 ~output:2;
    ]
  in
  let res, sites =
    run_armed
      { Runtime.Fault.disabled with Runtime.Fault.seed = 1; nan_p = 1.0 }
      w
  in
  let attempts = Serve.Scheduler.default_opts.Serve.Scheduler.max_attempts in
  Alcotest.(check (list int)) "single-token requests complete" [ 0; 2 ]
    (completed_ids res);
  Alcotest.(check (list int)) "decoding requests abort" [ 1; 3 ]
    (ids res.Serve.Scheduler.aborted);
  Alcotest.(check bool) "each decoding request loses max_attempts tokens" true
    (sites
    = List.init (2 * attempts) (fun _ -> (Runtime.Fault.Nan_corruption, "decode")));
  check_drained res

(* An injected OOM is transient: the request backs off or is preempted,
   then finishes with its full output and no block stays held. *)
let test_kv_oom_recovers () =
  let w = workload ~n:6 () in
  let res, sites =
    run_armed
      { Runtime.Fault.disabled with Runtime.Fault.seed = 1; oom_p = 0.5 }
      w
  in
  Alcotest.(check (list int)) "every request completes" [ 0; 1; 2; 3; 4; 5 ]
    (completed_ids res);
  List.iter
    (fun (m : Serve.Metrics.request_metrics) ->
      let r = List.nth w m.Serve.Metrics.id in
      Alcotest.(check int)
        (Printf.sprintf "request %d keeps its output" m.Serve.Metrics.id)
        r.Serve.Workload.output_len m.Serve.Metrics.tokens)
    res.Serve.Scheduler.completed;
  List.iter
    (fun site ->
      Alcotest.(check bool) (site ^ " OOM fired") true
        (List.mem (Runtime.Fault.Alloc_oom, site) sites))
    [ "kv-admit"; "kv-grow" ];
  Alcotest.(check bool) "only OOM fires" true
    (List.for_all (fun (k, _) -> k = Runtime.Fault.Alloc_oom) sites);
  check_drained res

(* The scheduler's injection table (DESIGN.md §9): every kind fires at
   its documented sites and nowhere else. *)
let test_site_table () =
  let table =
    [
      (Runtime.Fault.Kernel_failure, "prefill");
      (Runtime.Fault.Kernel_failure, "decode");
      (Runtime.Fault.Device_stall, "prefill");
      (Runtime.Fault.Device_stall, "decode");
      (Runtime.Fault.Alloc_oom, "kv-admit");
      (Runtime.Fault.Alloc_oom, "kv-grow");
      (Runtime.Fault.Nan_corruption, "decode");
    ]
  in
  let res, sites =
    run_armed ~max_batch:4
      {
        Runtime.Fault.disabled with
        Runtime.Fault.seed = 5;
        kernel_fail_p = 0.2;
        stall_p = 0.2;
        oom_p = 0.2;
        nan_p = 0.2;
      }
      (workload ~n:8 ())
  in
  List.iter
    (fun (k, site) ->
      if not (List.mem (k, site) table) then
        Alcotest.failf "%s fired at undocumented site %s"
          (Runtime.Fault.kind_name k) site)
    sites;
  List.iter
    (fun (k, site) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s fired at %s" (Runtime.Fault.kind_name k) site)
        true (List.mem (k, site) sites))
    table;
  Alcotest.(check int) "summary counts every traced fault" (List.length sites)
    res.Serve.Scheduler.summary.Serve.Metrics.faults

(* ---------- deadline shedding and graceful degradation ---------- *)

let test_deadline_shedding () =
  (* 8 near-simultaneous requests, tight deadlines, batch 1: the tail
     of the queue cannot meet its slack, so deadline-aware admission
     sheds it, and every shed is accounted as shed or timeout. *)
  let w = workload ~seed:3 ~rate:1_000_000.0 ~n:8 ~deadline_slack_us:300.0 () in
  let run admission =
    Serve.Scheduler.run (Lazy.force model)
      (opts ~max_batch:1 ~budget_blocks:8 ~admission ())
      w
  in
  let da = run Serve.Scheduler.Deadline_aware in
  let fc = run Serve.Scheduler.Fcfs in
  Alcotest.(check bool) "deadline-aware sheds under overload" true
    (da.Serve.Scheduler.summary.Serve.Metrics.shed > 0);
  Alcotest.(check int) "fcfs never sheds" 0
    fc.Serve.Scheduler.summary.Serve.Metrics.shed;
  Alcotest.(check bool) "deadline-aware SLO >= fcfs SLO" true
    (da.Serve.Scheduler.summary.Serve.Metrics.slo_attainment
    >= fc.Serve.Scheduler.summary.Serve.Metrics.slo_attainment);
  (* Shedding is deterministic: same workload, same shed set. *)
  let da2 = run Serve.Scheduler.Deadline_aware in
  Alcotest.(check (list int))
    "shed set reproducible" da.Serve.Scheduler.shed da2.Serve.Scheduler.shed

let test_degradation_under_stall () =
  (* Every decode step stalls: after [degrade_after] consecutive
     stalled steps the effective batch halves, visible through the
     profiler's degrade counter. *)
  let p = Runtime.Profiler.create () in
  let res =
    Serve.Scheduler.run ~trace:(Runtime.Profiler.sink p) (Lazy.force model)
      (opts ~max_batch:4 ~budget_blocks:8
         ~faults:
           {
             Runtime.Fault.disabled with
             Runtime.Fault.seed = 2;
             stall_p = 1.0;
           }
         ())
      (workload ~seed:9 ~rate:200_000.0 ~n:8 ())
  in
  let c = Runtime.Profiler.serve_count p in
  Alcotest.(check bool) "degrade events fired" true (c `Degrade > 0);
  Alcotest.(check bool) "stall faults counted" true
    (Runtime.Profiler.fault_count p Runtime.Fault.Device_stall > 0);
  (* Degradation slows, it must not drop work. *)
  Alcotest.(check int) "all requests still complete" 8
    (List.length res.Serve.Scheduler.completed)

(* ---------- typed errors ---------- *)

let test_typed_errors () =
  let check_fatal name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Fault.Error Fatal" name
    | exception Runtime.Fault.Error (Runtime.Fault.Fatal, _) -> ()
  in
  check_fatal "max_batch < 1" (fun () ->
      Serve.Scheduler.run (Lazy.force model) (opts ~max_batch:0 ()) (workload ()));
  check_fatal "max_attempts < 1" (fun () ->
      Serve.Scheduler.run (Lazy.force model)
        (opts ~max_attempts:0 ())
        (workload ()));
  check_fatal "request exceeds max context" (fun () ->
      Serve.Scheduler.run (Lazy.force model) (opts ())
        [
          {
            Serve.Workload.id = 0;
            arrival_us = 0.0;
            prompt_len = tiny.Frontend.Configs.max_context;
            output_len = tiny.Frontend.Configs.max_context;
            deadline_us = None;
            prompt_tokens = None;
            fork_of = None;
          };
        ]);
  (* The taxonomy has a stable printed form. *)
  Alcotest.(check string) "error class names" "transient/fatal/resource_exhausted/corrupt_output"
    (String.concat "/"
       (List.map Runtime.Fault.error_class_name
          [
            Runtime.Fault.Transient;
            Runtime.Fault.Fatal;
            Runtime.Fault.Resource_exhausted;
            Runtime.Fault.Corrupt_output;
          ]))

(* ---------- metrics edge cases ---------- *)

let test_percentile_edges =
  QCheck.Test.make ~count:200 ~name:"percentile: min/max/empty/singleton"
    QCheck.(pair (list (float_bound_inclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let p = Float.abs p in
      match xs with
      | [] -> Serve.Metrics.percentile p [] = 0.0
      | xs ->
          let mn = List.fold_left Float.min Float.infinity xs in
          let mx = List.fold_left Float.max Float.neg_infinity xs in
          let v = Serve.Metrics.percentile p xs in
          Serve.Metrics.percentile 0.0 xs = mn
          && Serve.Metrics.percentile 100.0 xs = mx
          && v >= mn && v <= mx
          && (match xs with [ x ] -> v = x | _ -> true))

let req ~id ~arrival ~first ~finish ~tokens ?deadline () =
  {
    Serve.Metrics.id;
    arrival_us = arrival;
    first_token_us = first;
    finish_us = finish;
    prompt_len = 4;
    tokens;
    preemptions = 0;
    retries = 0;
    deadline_us = deadline;
  }

let test_summarize_edges () =
  (* Empty run: no completions, nothing divides by zero. *)
  let s = Serve.Metrics.summarize ~makespan_us:0.0 ~occupancy:0.0 [] in
  Alcotest.(check int) "empty: completed" 0 s.Serve.Metrics.completed;
  Alcotest.(check (float 0.0)) "empty: tokens/s" 0.0 s.Serve.Metrics.tokens_per_s;
  Alcotest.(check (float 0.0)) "empty: slo = 1 (vacuous)" 1.0
    s.Serve.Metrics.slo_attainment;
  Alcotest.(check (float 0.0)) "empty: ttft p99" 0.0
    s.Serve.Metrics.ttft_us.Serve.Metrics.p99;
  (* One single-token request: the per-token latency contribution is
     its (zero) ttft-to-finish gap, not a division by zero. *)
  let one =
    Serve.Metrics.summarize ~makespan_us:100.0 ~occupancy:1.0
      [ req ~id:0 ~arrival:0.0 ~first:40.0 ~finish:40.0 ~tokens:1 () ]
  in
  Alcotest.(check (float 0.0)) "one token: per-token p50" 0.0
    one.Serve.Metrics.per_token_us.Serve.Metrics.p50;
  Alcotest.(check (float 0.0)) "one token: ttft p50" 40.0
    one.Serve.Metrics.ttft_us.Serve.Metrics.p50;
  Alcotest.(check int) "submitted defaults to completed" 1
    one.Serve.Metrics.submitted;
  (* Deadlines: met iff finish <= deadline; shed/aborted count against
     SLO through [submitted]; goodput only counts deadline-met tokens. *)
  let s =
    Serve.Metrics.summarize ~makespan_us:1e6 ~occupancy:1.0 ~shed:1 ~aborted:1
      [
        req ~id:0 ~arrival:0.0 ~first:10.0 ~finish:50.0 ~tokens:10
          ~deadline:60.0 ();
        req ~id:1 ~arrival:0.0 ~first:10.0 ~finish:50.0 ~tokens:20
          ~deadline:40.0 ();
      ]
  in
  Alcotest.(check int) "submitted = completed + shed + aborted" 4
    s.Serve.Metrics.submitted;
  Alcotest.(check (float 1e-9)) "slo = met / submitted" 0.25
    s.Serve.Metrics.slo_attainment;
  Alcotest.(check (float 1e-9)) "goodput counts only met tokens" 10.0
    s.Serve.Metrics.goodput_tokens_per_s

let test_summarize_submitted_default =
  QCheck.Test.make ~count:100
    ~name:"summarize: submitted defaults to completed + shed + aborted"
    QCheck.(triple small_nat small_nat small_nat)
    (fun (n, shed, aborted) ->
      let rs =
        List.init n (fun i ->
            req ~id:i ~arrival:0.0 ~first:1.0 ~finish:2.0 ~tokens:1 ())
      in
      let s =
        Serve.Metrics.summarize ~makespan_us:10.0 ~occupancy:0.5 ~shed ~aborted
          rs
      in
      s.Serve.Metrics.submitted = n + shed + aborted
      && s.Serve.Metrics.completed = n)

let () =
  Alcotest.run "faults"
    [
      ( "injector",
        [
          Alcotest.test_case "seeded determinism" `Quick
            test_injector_deterministic;
          Alcotest.test_case "zero-probability draws are free" `Quick
            test_zero_prob_draws_free;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "sites",
        [
          Alcotest.test_case "prefill failure aborts after the attempt budget"
            `Quick test_prefill_failure_aborts;
          Alcotest.test_case "stall scales every step by stall_factor" `Quick
            test_stall_scales_steps;
          Alcotest.test_case "corrupt tokens spend attempts" `Quick
            test_token_corruption;
          Alcotest.test_case "KV OOM backs off and leaks no blocks" `Quick
            test_kv_oom_recovers;
          Alcotest.test_case "faults fire only at the documented sites" `Quick
            test_site_table;
          Alcotest.test_case "failed prefills back off 500 µs, then 1000 µs"
            `Quick test_prefill_backoff;
        ] );
      ( "chaos",
        List.map QCheck_alcotest.to_alcotest
          [
            test_conservation;
            test_chaos_blocks_drain;
            test_retry_bound;
            test_seed_identical_traces;
            test_none_vs_zero;
            test_numeric_matches_sim_under_faults;
          ] );
      ( "resilience",
        [
          Alcotest.test_case "deadline-aware sheds; fcfs does not" `Quick
            test_deadline_shedding;
          Alcotest.test_case "stall degrades the effective batch" `Quick
            test_degradation_under_stall;
          Alcotest.test_case "typed error taxonomy" `Quick test_typed_errors;
        ] );
      ( "metrics",
        List.map QCheck_alcotest.to_alcotest
          [ test_percentile_edges; test_summarize_submitted_default ]
        @ [
            Alcotest.test_case "summarize edge cases" `Quick
              test_summarize_edges;
          ] );
    ]
