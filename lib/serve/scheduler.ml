type policy = Continuous | Static
type admission = Fcfs | Deadline_aware

type opts = {
  max_batch : int;
  block_size : int;
  policy : policy;
  kv_budget_bytes : int option;
  admission : admission;
  max_attempts : int;
  faults : Runtime.Fault.config option;
  kv_share : bool;
  prefix_prefill_discount : bool;
  slowdowns : (float * float * float) list;
  outages : (float * float) list;
}

let default_opts =
  {
    max_batch = 8;
    block_size = 16;
    policy = Continuous;
    kv_budget_bytes = None;
    admission = Fcfs;
    max_attempts = 3;
    faults = None;
    kv_share = false;
    prefix_prefill_discount = false;
    slowdowns = [];
    outages = [];
  }

type exec = [ `Sim | `Numeric of int ]

(* ---------- cost model: timed VMs, memoized per rounded shape ---------- *)

type entry = {
  vm : Runtime.Vm.t;
  built : Frontend.Llm.built;
  prog : Runtime.Vm.program;
  costs : (int, float) Hashtbl.t;  (** rounded ctx -> elapsed_us *)
}

type model = {
  cfg : Frontend.Configs.t;
  precision : Frontend.Llm.precision;
  device : Runtime.Device.t;
  entries : ([ `Decode of int | `Prefill ], entry) Hashtbl.t;
      (** decode batch bucket, or the prefill -> entry *)
  mutable numeric_prefill : (Frontend.Llm.built * Runtime.Vm.program) option;
}

let model ~cfg ~precision ~device =
  { cfg; precision; device; entries = Hashtbl.create 8; numeric_prefill = None }

let compile built device =
  Relax_passes.Pipeline.compile
    ~options:
      { Relax_passes.Pipeline.default_options with
        Relax_passes.Pipeline.upper_bounds = Frontend.Llm.upper_bound_hints built }
    ~device built.Frontend.Llm.mod_

let warmup vm (built : Frontend.Llm.built) =
  (* First run pays per-kernel launch overheads and records the
     captured graph; memoized costs below are steady-state replays. *)
  ignore
    (Runtime.Vm.run vm built.Frontend.Llm.entry
       (Frontend.Llm.args_for built ~ctx:1 ~mode:`Shadow ()))

let entry m kind =
  match Hashtbl.find_opt m.entries kind with
  | Some e -> e
  | None ->
      let built =
        match kind with
        | `Decode batch -> Frontend.Llm.decode_paged m.cfg ~batch m.precision
        | `Prefill -> Frontend.Llm.prefill ~return_caches:false m.cfg m.precision
      in
      let prog = compile built m.device in
      let vm = Runtime.Vm.create (`Timed m.device) prog in
      warmup vm built;
      let e = { vm; built; prog; costs = Hashtbl.create 32 } in
      Hashtbl.add m.entries kind e;
      e

let cost_of (e : entry) ctx =
  match Hashtbl.find_opt e.costs ctx with
  | Some c -> c
  | None ->
      let st = Runtime.Vm.stats e.vm in
      let before = st.Runtime.Vm.elapsed_us in
      ignore
        (Runtime.Vm.run e.vm e.built.Frontend.Llm.entry
           (Frontend.Llm.args_for e.built ~ctx ~mode:`Shadow ()));
      let c = st.Runtime.Vm.elapsed_us -. before in
      Hashtbl.add e.costs ctx c;
      c

(* Smallest power-of-two batch >= live, capped at max_batch: one
   compiled program per bucket instead of one per batch size. *)
let bucket_for ~max_batch live =
  let rec go b = if b >= live then b else go (2 * b) in
  min (go 1) max_batch

let round_up n step = (n + step - 1) / step * step

(* The step costs [run] charges: one prefill over [n] positions, and
   one decode step of batch bucket [bucket] at context [ctx]. Lengths
   round up to whole KV blocks and clamp to the model's context. *)
let prefill_cost m ~block_size n =
  cost_of (entry m `Prefill)
    (min (max 1 (round_up n block_size)) m.cfg.Frontend.Configs.max_context)

let decode_cost m ~block_size ~bucket ctx =
  cost_of (entry m (`Decode bucket))
    (min
       (max 1 (round_up ctx block_size))
       (m.cfg.Frontend.Configs.max_context - 1))

(* Uncontended service-time estimate for one request: its prefill plus
   every output token at the batch-1 decode cost, from the same
   lookups [run] charges from. The cluster router uses this to keep
   per-replica backlog estimates without running anything. *)
let estimate_request_us m ~block_size (req : Workload.request) =
  let pre = prefill_cost m ~block_size req.Workload.prompt_len in
  let step =
    decode_cost m ~block_size ~bucket:1
      (req.Workload.prompt_len + req.Workload.output_len - 1)
  in
  pre +. (float_of_int (max 0 (req.Workload.output_len - 1)) *. step)

(* ---------- per-request runtime state ---------- *)

type rstate = {
  req : Workload.request;
  mutable cache_len : int;  (** KV positions filled (0 = never prefilled) *)
  mutable generated : int;
  mutable first_token_us : float;
  mutable preempt_count : int;
  mutable attempts : int;  (** retries consumed (transient/corrupt faults) *)
  mutable retry_at : float;  (** backoff: not eligible for admission before *)
  (* numeric-mode state *)
  mutable history : int list;  (** prompt tokens then generated tokens *)
  mutable ncaches : Runtime.Vm.value list;  (** persistent paged caches *)
  mutable last_logits : Base.Ndarray.t option;
}

(* ---------- numeric execution (tiny configs) ---------- *)

type numeric = {
  dec_vm : Runtime.Vm.t;
  dec_built : Frontend.Llm.built;
  pre_vm : Runtime.Vm.t;
  pre_built : Frontend.Llm.built;
  weights : Runtime.Vm.value list;  (** embedding :: layer weights... *)
  seed : int;
}

(* Numeric decode runs the batch-1 cost entry's program; numeric
   prefill needs its own build, which also returns the caches. *)
let numeric_ctx m seed =
  let dec = entry m (`Decode 1) in
  let pre_built, pre_prog =
    match m.numeric_prefill with
    | Some p -> p
    | None ->
        let built = Frontend.Llm.prefill ~return_caches:true m.cfg m.precision in
        let p = (built, compile built m.device) in
        m.numeric_prefill <- Some p;
        p
  in
  (* decode_paged params are ids, cur_len, caches..., embedding,
     weights...; the tail from the embedding onward is exactly
     prefill's tail, so both programs share one weight set. *)
  let template = Frontend.Llm.args_for dec.built ~ctx:0 ~seed ~mode:`Numeric () in
  let weights =
    List.filteri (fun i _ -> i >= 2 + (2 * m.cfg.Frontend.Configs.layers)) template
  in
  {
    dec_vm = Runtime.Vm.create `Numeric dec.prog;
    dec_built = dec.built;
    pre_vm = Runtime.Vm.create `Numeric pre_prog;
    pre_built;
    weights;
    seed;
  }

(* Numeric prompt ids. A request carrying explicit [prompt_tokens]
   (the shared-prefix workload generators) feeds exactly those ids
   (mod vocab), so requests with equal prompts produce equal KV and
   equal greedy continuations — the property that makes accounting-
   level prefix sharing sound. Requests without ids keep the legacy
   seed-derived stream bit-for-bit. *)
let prompt_tokens (nx : numeric) vocab (req : Workload.request) =
  match req.Workload.prompt_tokens with
  | Some toks -> List.map (fun t -> ((t mod vocab) + vocab) mod vocab) toks
  | None ->
      let st = Random.State.make [| nx.seed; req.Workload.id |] in
      List.init req.Workload.prompt_len (fun _ -> Random.State.int st vocab)

let fresh_caches (cfg : Frontend.Configs.t) =
  List.init
    (2 * cfg.Frontend.Configs.layers)
    (fun _ ->
      Runtime.Vm.tensor
        (Base.Ndarray.create Base.Dtype.F16
           [|
             1;
             cfg.Frontend.Configs.kv_heads;
             cfg.Frontend.Configs.max_context;
             cfg.Frontend.Configs.head_dim;
           |]))

(* Run prefill over [tokens] and write the returned (1,kv,n,d) caches
   into the request's persistent (1,kv,mmax,d) paged tensors. *)
let numeric_prefill_run nx (cfg : Frontend.Configs.t) (r : rstate) tokens =
  if r.ncaches = [] then r.ncaches <- fresh_caches cfg;
  let n = List.length tokens in
  let ids =
    Runtime.Vm.tensor (Base.Ndarray.of_int_list Base.Dtype.I32 [| n |] tokens)
  in
  match Runtime.Vm.run nx.pre_vm nx.pre_built.Frontend.Llm.entry (ids :: nx.weights) with
  | Runtime.Vm.Tuple_val (logits :: caches) ->
      List.iter2
        (fun fresh persistent ->
          let src = Runtime.Vm.value_tensor fresh in
          let dst = Runtime.Vm.value_tensor persistent in
          let kv = cfg.Frontend.Configs.kv_heads
          and d = cfg.Frontend.Configs.head_dim in
          for h = 0 to kv - 1 do
            for p = 0 to n - 1 do
              for x = 0 to d - 1 do
                Base.Ndarray.set_float dst [| 0; h; p; x |]
                  (Base.Ndarray.get_float src [| 0; h; p; x |])
              done
            done
          done)
        caches r.ncaches;
      Runtime.Vm.value_tensor logits
  | _ ->
      Runtime.Fault.errorf Runtime.Fault.Fatal
        "Serve: prefill did not return (logits, caches...)"

let numeric_decode_run nx (r : rstate) =
  let last = List.nth r.history (List.length r.history - 1) in
  let ids =
    Runtime.Vm.tensor (Base.Ndarray.of_int_list Base.Dtype.I32 [| 1 |] [ last ])
  in
  let args =
    (ids :: Runtime.Vm.Shape_val [| r.cache_len |] :: r.ncaches) @ nx.weights
  in
  let out = Runtime.Vm.run nx.dec_vm nx.dec_built.Frontend.Llm.entry args in
  match out with
  | Runtime.Vm.Tuple_val (l :: _) -> Runtime.Vm.value_tensor l
  | v -> Runtime.Vm.value_tensor v

(* ---------- the serving loop ---------- *)

type result = {
  completed : Metrics.request_metrics list;
  summary : Metrics.summary;
  logits : (int * Base.Ndarray.t) list;
  token_streams : (int * int list) list;
  clock_us : float;
  blocks : Block_manager.t;
  shed : int list;
  aborted : int list;
  drained : Workload.request list;
}

(* Effective-batch degradation thresholds: halve after this many
   consecutive stalled decode steps, double back after this many
   consecutive clean ones. *)
let degrade_after = 3
let recover_after = 8

(* Deadline-feasibility headroom: a request is admitted only if its
   estimated remaining service time fits in this fraction's inverse of
   the time to its deadline. The estimate assumes an uncontended
   machine and mean fault behavior; the 40% margin absorbs queueing
   delay after admission and stall variance — without it requests are
   admitted with exactly zero slack and mostly miss. *)
let feasibility_headroom = 1.4

(* A failed prefill re-queues its request [retry_backoff_us] after the
   failure, doubling with every further attempt. *)
let retry_backoff_us = 500.0

let run ?trace ?(exec = `Sim) ?stop_at m opts workload =
  if opts.max_batch < 1 then
    Runtime.Fault.errorf Runtime.Fault.Fatal "Scheduler.run: max_batch < 1";
  if opts.max_attempts < 1 then
    Runtime.Fault.errorf Runtime.Fault.Fatal "Scheduler.run: max_attempts < 1";
  let cfg = m.cfg in
  let mmax = cfg.Frontend.Configs.max_context in
  List.iter
    (fun (r : Workload.request) ->
      if r.Workload.prompt_len + r.Workload.output_len > mmax then
        Runtime.Fault.errorf Runtime.Fault.Fatal
          "Serve: request %d needs %d tokens > max_context %d" r.Workload.id
          (r.Workload.prompt_len + r.Workload.output_len)
          mmax)
    workload;
  let nx = match exec with `Sim -> None | `Numeric seed -> Some (numeric_ctx m seed) in
  let alloc = Runtime.Allocator.create `Pooling in
  let bm =
    Block_manager.create ?kv_budget_bytes:opts.kv_budget_bytes
      ~sharing:opts.kv_share ~cfg ~precision:m.precision
      ~block_size:opts.block_size ~device:m.device alloc
  in
  let emit tag ~id ~t_us ~batch ~tokens =
    match trace with
    | None -> ()
    | Some sink -> sink (Runtime.Trace.Serve { tag; id; t_us; batch; tokens })
  in
  let clock = ref 0.0 in
  (* KV-bytes-per-token integrals: referenced physical blocks (used
     minus reclaimable refcount-0 cache — the cache is free headroom,
     not a holding cost) and logical per-request holdings, each
     integrated over simulated time. Every clock advance goes through
     [advance_to] so the integrals cover the whole run. With sharing
     off, cached is always 0 and every logical block has its own
     physical block, so the ratio is exactly block_bytes/block_size. *)
  let kv_phys_block_us = ref 0.0 and kv_logical_block_us = ref 0.0 in
  let advance_to t =
    let dt = t -. !clock in
    if dt > 0.0 then begin
      kv_phys_block_us :=
        !kv_phys_block_us
        +. (float_of_int
              (Block_manager.used_blocks bm - Block_manager.cached_blocks bm)
           *. dt);
      kv_logical_block_us :=
        !kv_logical_block_us
        +. (float_of_int (Block_manager.logical_blocks bm) *. dt);
      clock := t
    end
  in
  let arrivals = ref workload in
  let waiting = ref [] in
  let running = ref [] in
  let completed = ref [] in
  let logits_out = ref [] in
  let streams_out = ref [] in
  let shed_ids = ref [] in
  let aborted_ids = ref [] in
  let timeouts = ref 0 in
  let cohort = ref 0 in
  let busy = ref 0.0 and decode_time = ref 0.0 in
  (* ---- fault injection: one seeded injector for the whole run. All
     draws happen at discrete-event boundaries in an execution-mode-
     independent order, so `Sim and `Numeric schedule identically even
     under faults. ---- *)
  let inj = Option.map Runtime.Fault.create opts.faults in
  (* One draw of [kind] at [site]; a fired fault is traced before the
     caller acts on it. *)
  let fires kind site =
    match inj with
    | None -> false
    | Some i -> (
        match Runtime.Fault.draw i kind ~site with
        | Some ev ->
            (match trace with
            | Some sink -> sink (Runtime.Trace.Fault_injected ev)
            | None -> ());
            true
        | None -> false)
  in
  let stall_mult site =
    match opts.faults with
    | Some c when fires Runtime.Fault.Device_stall site ->
        c.Runtime.Fault.stall_factor
    | Some _ | None -> 1.0
  in
  (* Copy-on-write and eviction happen inside the block manager; the
     trace stream recovers them by diffing its monotone counters
     around each call. *)
  let diff_block_events ~id before =
    let after = Block_manager.stats bm in
    if after.Block_manager.cow_copies > before.Block_manager.cow_copies then
      emit `Cow_copy ~id ~t_us:!clock ~batch:(List.length !running)
        ~tokens:(after.Block_manager.cow_copies - before.Block_manager.cow_copies);
    if after.Block_manager.evictions > before.Block_manager.evictions then
      emit `Evict ~id:(-1) ~t_us:!clock ~batch:(List.length !running)
        ~tokens:(after.Block_manager.evictions - before.Block_manager.evictions)
  in
  (* One block-manager call for request [id] at [site]: [None] when an
     injected OOM fails it exactly as block exhaustion would (the
     caller's admission-control / preemption path handles it), else
     [f]'s result with its copy-on-write and eviction traced. *)
  let kv_call site ~id f =
    if fires Runtime.Fault.Alloc_oom site then None
    else begin
      let before = Block_manager.stats bm in
      let res = f () in
      diff_block_events ~id before;
      Some res
    end
  in
  (* Token ids the prefix tree matches on: only requests that carry
     explicit prompt tokens can share. *)
  let prompt_arr (req : Workload.request) =
    match req.Workload.prompt_tokens with
    | Some toks -> Array.of_list toks
    | None -> [||]
  in
  (* ---- graceful degradation: persistent device stall shrinks the
     effective batch (admission width), sustained clean steps restore
     it. Running requests are never evicted by a shrink. ---- *)
  let eff_batch = ref opts.max_batch in
  let stall_streak = ref 0 and clean_streak = ref 0 in
  let note_stall stalled =
    if stalled then begin
      clean_streak := 0;
      incr stall_streak;
      if !stall_streak >= degrade_after && !eff_batch > 1 then begin
        eff_batch := max 1 (!eff_batch / 2);
        stall_streak := 0;
        emit `Degrade ~id:(-1) ~t_us:!clock ~batch:!eff_batch ~tokens:0
      end
    end
    else begin
      stall_streak := 0;
      incr clean_streak;
      if !clean_streak >= recover_after && !eff_batch < opts.max_batch then begin
        eff_batch := min opts.max_batch (!eff_batch * 2);
        clean_streak := 0;
        emit `Degrade ~id:(-1) ~t_us:!clock ~batch:!eff_batch ~tokens:1
      end
    end
  in
  let decode_cost ~live ~ctx =
    decode_cost m ~block_size:opts.block_size
      ~bucket:(bucket_for ~max_batch:opts.max_batch live)
      ctx
  in
  (* Replica-level straggler windows (cluster fault plan): every step
     started inside a window is slowed by its factor. Empty list ->
     multiplier 1.0, and [dt *. 1.0] is exact, so runs without windows
     are byte-identical to the pre-failover engine. *)
  let window_mult t =
    List.fold_left
      (fun acc (from_us, until_us, factor) ->
        if t >= from_us && t < until_us then acc *. factor else acc)
      1.0 opts.slowdowns
  in
  (* Replica crash windows (health-blind cluster baseline): the engine
     is dead for [from, until) — everything in flight loses its KV and
     recomputes after the window, new admissions wait. *)
  let outage_at t =
    List.find_opt (fun (from_us, until_us) -> t >= from_us && t < until_us)
      opts.outages
  in
  let past_stop () =
    match stop_at with Some s -> !clock >= s | None -> false
  in
  (* Idle jumps never skip past the drain point (in-flight steps may
     overshoot it by one step's discrete-event granularity). *)
  let cap_stop t =
    match stop_at with Some s -> Float.min t s | None -> t
  in
  let prefill_cost n = prefill_cost m ~block_size:opts.block_size n in
  let deliver () =
    let rec go () =
      match !arrivals with
      | (r : Workload.request) :: rest when r.Workload.arrival_us <= !clock ->
          arrivals := rest;
          waiting :=
            !waiting
            @ [
                {
                  req = r;
                  cache_len = 0;
                  generated = 0;
                  first_token_us = 0.0;
                  preempt_count = 0;
                  attempts = 0;
                  retry_at = 0.0;
                  history = [];
                  ncaches = [];
                  last_logits = None;
                };
              ];
          emit `Request_arrive ~id:r.Workload.id ~t_us:r.Workload.arrival_us
            ~batch:(List.length !running) ~tokens:r.Workload.prompt_len;
          go ()
      | _ -> ()
    in
    go ()
  in
  let finish (r : rstate) =
    Block_manager.release bm ~request_id:r.req.Workload.id;
    emit `Finish ~id:r.req.Workload.id ~t_us:!clock
      ~batch:(List.length !running) ~tokens:r.generated;
    (match r.last_logits with
    | Some l -> logits_out := (r.req.Workload.id, l) :: !logits_out
    | None -> ());
    if r.history <> [] then
      streams_out := (r.req.Workload.id, r.history) :: !streams_out;
    completed :=
      {
        Metrics.id = r.req.Workload.id;
        arrival_us = r.req.Workload.arrival_us;
        first_token_us = r.first_token_us;
        finish_us = !clock;
        prompt_len = r.req.Workload.prompt_len;
        tokens = r.generated;
        preemptions = r.preempt_count;
        retries = r.attempts;
        deadline_us = r.req.Workload.deadline_us;
      }
      :: !completed
  in
  let abort (r : rstate) =
    Block_manager.release bm ~request_id:r.req.Workload.id;
    aborted_ids := r.req.Workload.id :: !aborted_ids;
    emit `Abort ~id:r.req.Workload.id ~t_us:!clock
      ~batch:(List.length !running) ~tokens:r.generated
  in
  let shed_req (r : rstate) ~timeout =
    shed_ids := r.req.Workload.id :: !shed_ids;
    if timeout then incr timeouts;
    emit
      (if timeout then `Timeout else `Shed)
      ~id:r.req.Workload.id ~t_us:!clock ~batch:(List.length !running)
      ~tokens:r.req.Workload.prompt_len
  in
  (* A transient prefill failure or a corrupt token costs [r] one
     attempt; true once the budget is spent. *)
  let spend_attempt (r : rstate) =
    r.attempts <- r.attempts + 1;
    emit `Retry ~id:r.req.Workload.id ~t_us:!clock
      ~batch:(List.length !running) ~tokens:r.attempts;
    r.attempts >= opts.max_attempts
  in
  (* Recompute preemption: [r] loses its KV blocks and re-prefills its
     [cache_len] positions on re-admission. The caller moves it out of
     the running batch. *)
  let preempt (r : rstate) =
    Block_manager.release bm ~request_id:r.req.Workload.id;
    r.preempt_count <- r.preempt_count + 1;
    emit `Preempt ~id:r.req.Workload.id ~t_us:!clock
      ~batch:(List.length !running) ~tokens:r.cache_len
  in
  (* [r]'s first token is out and its cache holds [cache_len]
     positions: a single-token request finishes, the rest join the
     running batch. *)
  let first_token (r : rstate) ~cache_len =
    r.cache_len <- cache_len;
    r.generated <- 1;
    r.first_token_us <- !clock;
    if r.generated >= r.req.Workload.output_len then finish r
    else running := !running @ [ r ]
  in
  (* Expected slowdown of the degraded machine, from the armed fault
     config: stalls inflate the average step by stall_p * (factor - 1)
     and transient launch failures waste a 1 / (1 - p) fraction of
     steps. Deadline feasibility charges it so admission control sheds
     against the capacity the machine actually has — estimating with
     healthy costs under a high fault rate admits doomed requests and
     goodput falls off a cliff instead of degrading. *)
  let fault_slowdown =
    match opts.faults with
    | None -> 1.0
    | Some c ->
        (1.0
        +. (max 0.0 c.Runtime.Fault.stall_p
           *. max 0.0 (c.Runtime.Fault.stall_factor -. 1.0)))
        /. (1.0 -. min 0.9 (max 0.0 c.Runtime.Fault.kernel_fail_p))
  in
  (* Uncontended time for [r]'s [remaining] decode steps in a batch of
     [live], every step charged at [r]'s final context. *)
  let decode_left (r : rstate) ~live remaining =
    float_of_int (max 0 remaining)
    *. decode_cost ~live
         ~ctx:(r.req.Workload.prompt_len + r.req.Workload.output_len - 1)
  in
  (* Deadline feasibility: prefill plus every remaining token at the
     would-be batch's step cost must land before the deadline. Uses
     the same memoized cost model the engine charges from, so the
     estimate is exact for an uncontended machine and optimistic
     under contention — a deliberately mild shedding bound. *)
  let feasible (r : rstate) d =
    let target =
      if r.cache_len = 0 then r.req.Workload.prompt_len else r.cache_len
    in
    let decode =
      decode_left r ~live:(List.length !running + 1)
        (r.req.Workload.output_len - max 1 r.generated)
    in
    !clock
    +. ((prefill_cost target +. decode) *. fault_slowdown *. feasibility_headroom)
    <= d
  in
  (* Admission-queue policy pass: drop requests that can never be
     scheduled (KV-infeasible — typed abort instead of the engine
     wedging later), and under [Deadline_aware] shed requests whose
     deadline has passed or is unreachable. Returns #removed. *)
  let prune_waiting () =
    let pruned = ref 0 in
    waiting :=
      List.filter
        (fun (r : rstate) ->
          let need =
            max r.req.Workload.prompt_len
              (r.req.Workload.prompt_len + r.req.Workload.output_len - 1)
          in
          if Block_manager.blocks_for bm need > Block_manager.total_blocks bm
          then begin
            abort r;
            incr pruned;
            false
          end
          else
            match (opts.admission, r.req.Workload.deadline_us) with
            | Deadline_aware, Some d when d <= !clock ->
                shed_req r ~timeout:true;
                incr pruned;
                false
            | Deadline_aware, Some d when not (feasible r d) ->
                shed_req r ~timeout:false;
                incr pruned;
                false
            | _ -> true)
        !waiting;
    !pruned
  in
  (* Deadline enforcement on the running batch: a request whose
     deadline has passed — or whose remaining decode provably cannot
     land before it even at uncontended mean-fault speed (no
     headroom: only certain losses are reaped) — is abandoned,
     releasing its slot and KV blocks for work that can still meet
     its SLO. Under FCFS the baseline runs everything to completion,
     doomed or not. *)
  let reap_running () =
    match opts.admission with
    | Fcfs -> 0
    | Deadline_aware ->
        let reaped = ref 0 in
        List.iter
          (fun (r : rstate) ->
            match r.req.Workload.deadline_us with
            | Some d ->
                let decode =
                  decode_left r ~live:(List.length !running)
                    (r.req.Workload.output_len - r.generated)
                in
                if d <= !clock || !clock +. (decode *. fault_slowdown) > d
                then begin
                  Block_manager.release bm ~request_id:r.req.Workload.id;
                  running := List.filter (fun x -> x != r) !running;
                  incr reaped;
                  shed_req r ~timeout:true
                end
            | None -> ())
          !running;
        !reaped
  in
  (* First waiting request whose backoff has expired, split out of the
     queue. With no faults every request is always eligible, so this
     is exactly the FCFS head. *)
  let split_eligible () =
    let rec go prefix = function
      | [] -> None
      | (r : rstate) :: rest when r.retry_at <= !clock ->
          Some (List.rev prefix, r, rest)
      | r :: rest -> go (r :: prefix) rest
    in
    go [] !waiting
  in
  (* Best-of-n forking: a child whose parent is still decoding shares
     (sharing on, O(1) memory) or duplicates (sharing off) the
     parent's whole KV and inherits its decode state — no prefill
     runs and no time is charged, so sharing on and off schedule
     identically whenever both paths fit. A child whose parent is
     already gone (or whose copy does not fit) falls back to a normal
     prefill of its own prompt; greedy decoding makes either path
     produce a prefix of the same continuation. *)
  let try_fork (r : rstate) =
    match r.req.Workload.fork_of with
    | Some pid when r.cache_len = 0 -> (
        match
          List.find_opt (fun (p : rstate) -> p.req.Workload.id = pid) !running
        with
        | Some p
          when p.cache_len > 0 && Block_manager.holds bm ~request_id:pid > 0 -> (
            match
              kv_call "kv-admit" ~id:r.req.Workload.id (fun () ->
                  Block_manager.fork bm ~parent:pid ~child:r.req.Workload.id)
            with
            | None -> `Oom
            | Some true -> `Forked p
            | Some false -> `Fresh (* sharing off and the copy doesn't fit *))
        | _ -> `Fresh)
    | _ -> `Fresh
  in
  (* Admit one eligible request: charge its (re-)prefill, produce the
     first token if fresh. [`Blocked]: no eligible request or its
     blocks don't fit (admission control; no preemption here).
     [`Failed_attempt]: an injected transient fault wasted the prefill
     — the request backed off (or aborted), but time advanced. *)
  let admit_one () =
    match split_eligible () with
    | None -> `Blocked
    | Some (prefix, r, rest) -> (
        match try_fork r with
        | `Oom -> `Blocked
        | `Forked p ->
            waiting := prefix @ rest;
            if opts.kv_share then
              emit `Prefix_hit ~id:r.req.Workload.id ~t_us:!clock
                ~batch:(List.length !running) ~tokens:p.cache_len;
            r.history <- p.history;
            r.last_logits <- p.last_logits;
            (match nx with
            | None -> ()
            | Some _ ->
                (* Private numeric caches: sharing is block accounting,
                   the tiny-model tensors stay per-request. *)
                r.ncaches <-
                  List.map
                    (fun v ->
                      Runtime.Vm.tensor
                        (Base.Ndarray.copy (Runtime.Vm.value_tensor v)))
                    p.ncaches);
            first_token r ~cache_len:p.cache_len;
            `Admitted
        | `Fresh ->
        let target =
          if r.cache_len = 0 then r.req.Workload.prompt_len else r.cache_len
        in
        match
          kv_call "kv-admit" ~id:r.req.Workload.id (fun () ->
              Block_manager.acquire bm ~request_id:r.req.Workload.id
                ~prompt:(prompt_arr r.req) ~tokens:target)
        with
        | None | Some `No_space -> `Blocked
        | Some (`Ok matched) ->
          if matched > 0 then
            emit `Prefix_hit ~id:r.req.Workload.id ~t_us:!clock
              ~batch:(List.length !running) ~tokens:matched;
          (* With the discount on, a prefix hit charges prefill only
             for the unshared suffix — the cached positions' KV is
             already resident. Off (default), the full cost is charged
             and sharing stays block accounting only. *)
          let charged_target =
            if opts.prefix_prefill_discount && matched > 0 then
              max 1 (target - matched)
            else target
          in
          let dt =
            prefill_cost charged_target *. stall_mult "prefill"
            *. window_mult !clock
          in
          advance_to (!clock +. dt);
          if fires Runtime.Fault.Kernel_failure "prefill" then begin
            (* Transient prefill failure: the time is wasted, the
               blocks are released between attempts, and the request
               re-queues with exponential backoff — or aborts once its
               attempt budget is spent. *)
            Block_manager.release bm ~request_id:r.req.Workload.id;
            if spend_attempt r then begin
              waiting := prefix @ rest;
              abort r
            end
            else begin
              r.retry_at <-
                !clock
                +. (retry_backoff_us *. (2.0 ** float_of_int (r.attempts - 1)));
              waiting := prefix @ (r :: rest)
            end;
            `Failed_attempt
          end
          else begin
            waiting := prefix @ rest;
            emit `Prefill ~id:r.req.Workload.id ~t_us:!clock
              ~batch:(List.length !running + 1) ~tokens:target;
            if r.cache_len = 0 then begin
              (* Fresh: prefill over the prompt yields the first token. *)
              (match nx with
              | None -> ()
              | Some nx ->
                  let toks = prompt_tokens nx cfg.Frontend.Configs.vocab r.req in
                  let logits = numeric_prefill_run nx cfg r toks in
                  r.last_logits <- Some logits;
                  r.history <- toks @ [ Base.Ndarray.argmax logits ]);
              first_token r ~cache_len:target
            end
            else begin
              (* Preempted earlier: re-prefill the cached positions
                 (recompute); the pending last token is consumed by the
                 next decode step, so [generated] does not advance. *)
              (match nx with
              | None -> ()
              | Some nx ->
                  ignore
                    (numeric_prefill_run nx cfg r
                       (List.filteri (fun i _ -> i < r.cache_len) r.history)));
              running := !running @ [ r ]
            end;
            `Admitted
          end)
  in
  (* Returns true if this round made progress: admitted a request,
     consumed a (failed) attempt, or pruned the queue. Admitted
     requests may finish instantly on single-token outputs, so
     progress is not the same as a non-empty running batch. *)
  let admit () =
    let reaped = reap_running () in
    let pruned = prune_waiting () in
    let admitted = ref 0 in
    let failed = ref false in
    let has_eligible () =
      List.exists (fun (r : rstate) -> r.retry_at <= !clock) !waiting
    in
    let rec admit_while room =
      if room () && has_eligible () then
        match admit_one () with
        | `Admitted ->
            incr admitted;
            admit_while room
        | `Failed_attempt ->
            failed := true;
            admit_while room
        | `Blocked -> ()
    in
    (match opts.policy with
    | Continuous -> admit_while (fun () -> List.length !running < !eff_batch)
    | Static ->
        (* Cohorts only form when the machine is idle, and only at
           full width (or from the final stragglers once the stream
           has ended) — the static baseline's inefficiency. *)
        if
          !running = []
          && (List.length !waiting >= !eff_batch || !arrivals = [])
          && !waiting <> []
        then begin
          admit_while (fun () -> !admitted < !eff_batch);
          cohort := List.length !running
        end);
    !admitted > 0 || !failed || pruned > 0 || reaped > 0
  in
  (* Grow [r]'s cache for the next decode write; on block exhaustion,
     preempt from the tail of the running batch (latest admitted
     first — FCFS priority). Returns false if [r] preempted itself.
     With injection armed a lone request may self-preempt on a
     transient OOM and re-prefill later; without it, a lone request
     that cannot grow is a genuine budget overrun. *)
  let rec ensure_capacity (r : rstate) =
    if
      kv_call "kv-grow" ~id:r.req.Workload.id (fun () ->
          Block_manager.grow bm ~request_id:r.req.Workload.id
            ~tokens:(r.cache_len + 1))
      = Some true
    then true
    else
      match List.rev !running with
      | [] ->
          Runtime.Fault.errorf Runtime.Fault.Fatal
            "Serve: empty batch cannot grow"
      | victim :: _ ->
          if victim == r && List.length !running = 1 && Option.is_none inj then
            Runtime.Fault.errorf Runtime.Fault.Resource_exhausted
              "Serve: request %d alone exceeds the KV budget (%d blocks)"
              r.req.Workload.id (Block_manager.total_blocks bm);
          running := List.filter (fun x -> x != victim) !running;
          waiting := victim :: !waiting;
          preempt victim;
          if victim == r then false else ensure_capacity r
  in
  let decode_step () =
    (* Capacity first: every survivor must fit its next KV write.
       Skip requests a previous iteration already preempted — they
       must not grow blocks from the waiting queue. *)
    List.iter
      (fun r -> if List.memq r !running then ignore (ensure_capacity r))
      !running;
    let live = !running in
    let nlive = List.length live in
    if nlive > 0 then begin
      let cost_batch =
        match opts.policy with
        | Continuous -> nlive
        | Static -> max nlive !cohort  (* fixed cohort width until drained *)
      in
      let ctx = List.fold_left (fun acc r -> max acc r.cache_len) 0 live in
      let base_dt = decode_cost ~live:cost_batch ~ctx in
      let mult = stall_mult "decode" in
      let wmult = window_mult !clock in
      let dt = base_dt *. mult *. wmult in
      advance_to (!clock +. dt);
      if fires Runtime.Fault.Kernel_failure "decode" then begin
        (* Whole-step transient failure: the step's time is wasted and
           no tokens advance; the next loop iteration retries. Charged
           to decode time (the machine was busy) but not to useful
           occupancy. *)
        decode_time := !decode_time +. dt;
        emit `Retry ~id:(-1) ~t_us:!clock ~batch:nlive ~tokens:0;
        note_stall (mult > 1.0 || wmult > 1.0)
      end
      else begin
        busy := !busy +. (float_of_int nlive *. dt);
        decode_time := !decode_time +. dt;
        emit `Decode_step ~id:(-1) ~t_us:!clock ~batch:nlive ~tokens:nlive;
        note_stall (mult > 1.0 || wmult > 1.0);
        List.iter
          (fun r ->
            if fires Runtime.Fault.Nan_corruption "decode" then begin
              (* Corrupt output for this request's token: discard it
                 and spend an attempt; the next step regenerates. *)
              if spend_attempt r then begin
                running := List.filter (fun x -> x != r) !running;
                abort r
              end
            end
            else begin
              (match nx with
              | None -> ()
              | Some nx ->
                  let logits = numeric_decode_run nx r in
                  r.last_logits <- Some logits;
                  r.history <- r.history @ [ Base.Ndarray.argmax logits ]);
              r.cache_len <- r.cache_len + 1;
              r.generated <- r.generated + 1;
              if r.generated >= r.req.Workload.output_len then begin
                running := List.filter (fun x -> x != r) !running;
                finish r
              end
            end)
          live
      end
    end
  in
  let rec loop () =
    deliver ();
    if past_stop () then ()
    else
      match outage_at !clock with
      | Some (_, until_us) ->
          (* The engine is down: everything in flight loses its KV
             (recompute-preemption on restart) and the clock jumps to
             the window's end, where the restarted engine drains the
             backlog that piled up. *)
          List.iter preempt !running;
          waiting := !running @ !waiting;
          running := [];
          advance_to until_us;
          loop ()
      | None ->
    if !running = [] && !waiting = [] then
      match !arrivals with
      | [] -> ()
      | (r : Workload.request) :: _ ->
          advance_to (cap_stop (max !clock r.Workload.arrival_us));
          loop ()
    else begin
      let progressed = admit () in
      if !running <> [] then begin
        decode_step ();
        loop ()
      end
      else if progressed || !waiting = [] then
        (* Everything admitted finished at its prefill (single-token
           outputs); form the next batch or wait for an arrival. *)
        loop ()
      else
        match (!arrivals, opts.policy) with
        | (r : Workload.request) :: _, Static ->
            (* waiting for the cohort to fill *)
            advance_to (cap_stop (max !clock r.Workload.arrival_us));
            loop ()
        | _ ->
            (* Idle machine, nothing admissible. With faults armed (or
               requests backing off) this is transient: jump to the
               next retry/arrival time and try again. Without, every
               block is free, so a failed admission can never succeed
               later — a genuine budget overrun. *)
            let next_retry =
              List.fold_left
                (fun acc (r : rstate) ->
                  if r.retry_at > !clock then Float.min acc r.retry_at else acc)
                Float.infinity !waiting
            in
            let next_arrival =
              match !arrivals with
              | (a : Workload.request) :: _ -> a.Workload.arrival_us
              | [] -> Float.infinity
            in
            if Option.is_some inj || next_retry < Float.infinity then begin
              let next = Float.min next_retry next_arrival in
              let next =
                if next > !clock && next < Float.infinity then next
                else !clock +. retry_backoff_us
              in
              advance_to (cap_stop next);
              loop ()
            end
            else
              Runtime.Fault.errorf Runtime.Fault.Resource_exhausted
                "Serve: waiting request cannot be admitted on an idle machine \
                 (KV budget too small for its prompt)"
    end
  in
  loop ();
  (* Drain surface (cluster failover): everything not yet finished at
     the stop point — waiting, in flight (KV released: the crashed
     engine's cache is gone) and not-yet-delivered arrivals — is
     handed back for re-admission elsewhere. Empty without [stop_at]. *)
  let drained =
    if stop_at = None then []
    else begin
      List.iter
        (fun (r : rstate) ->
          Block_manager.release bm ~request_id:r.req.Workload.id)
        !running;
      List.map (fun (r : rstate) -> r.req) (!waiting @ !running) @ !arrivals
      |> List.sort (fun (a : Workload.request) (b : Workload.request) ->
             compare
               (a.Workload.arrival_us, a.Workload.id)
               (b.Workload.arrival_us, b.Workload.id))
    end
  in
  let completed = List.rev !completed in
  let occupancy =
    if !decode_time > 0.0 then
      !busy /. (float_of_int opts.max_batch *. !decode_time)
    else 0.0
  in
  let faults =
    match inj with Some i -> Runtime.Fault.injected_total i | None -> 0
  in
  let bstats = Block_manager.stats bm in
  let prefix_hit_rate =
    if bstats.Block_manager.lookup_tokens > 0 then
      float_of_int bstats.Block_manager.hit_tokens
      /. float_of_int bstats.Block_manager.lookup_tokens
    else 0.0
  in
  let kv_bytes_per_token =
    if !kv_logical_block_us > 0.0 then
      !kv_phys_block_us
      *. float_of_int (Block_manager.block_bytes bm)
      /. (!kv_logical_block_us *. float_of_int opts.block_size)
    else 0.0
  in
  {
    completed;
    summary =
      Metrics.summarize ~makespan_us:!clock ~occupancy
        ~submitted:(List.length workload)
        ~shed:(List.length !shed_ids)
        ~timeouts:!timeouts
        ~aborted:(List.length !aborted_ids)
        ~faults ~prefix_hit_rate
        ~cow_copies:bstats.Block_manager.cow_copies ~kv_bytes_per_token
        completed;
    logits = List.rev !logits_out;
    token_streams = List.rev !streams_out;
    clock_us = !clock;
    blocks = bm;
    shed = List.rev !shed_ids;
    aborted = List.rev !aborted_ids;
    drained;
  }
