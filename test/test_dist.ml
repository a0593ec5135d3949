(* lib/dist: tensor-parallel sharding and the replicated serving
   cluster. The sharding half pins the interconnect cost model and
   proves TP=1/2/4 bit-identity of the Gather strategy (goldens plus
   a qcheck differential through the full pipeline and the imp
   backend); the cluster half pins each routing policy's dispatch
   sequence under a fixed seed and the fold of per-replica metrics. *)

let tiny = Frontend.Configs.tiny
let tiny_tp = Frontend.Configs.tiny_tp
let device = Runtime.Device.rtx4090

(* ---------- interconnect cost model goldens ---------- *)

let test_ring_collective_costs () =
  let open Runtime.Device in
  let link = pcie_gen4 in
  (* ring all-reduce, world 4, 1 MB: 2(w-1)/w * bytes/bw + 2(w-1) hops *)
  Alcotest.(check (float 1e-9)) "ring all-reduce"
    (2.0 *. 0.75 *. 1e6 /. 32e3 +. (6.0 *. 5.0))
    (all_reduce_us link ~world:4 ~bytes:1e6);
  Alcotest.(check (float 1e-9)) "ring all-gather"
    (0.75 *. 1e6 /. 32e3 +. (3.0 *. 5.0))
    (all_gather_us link ~world:4 ~bytes:1e6);
  (* fully-connected topology pays phases, not hops *)
  Alcotest.(check (float 1e-9)) "fc all-reduce latency term"
    (2.0 *. 0.875 *. 1e6 /. 450e3 +. (2.0 *. 1.8))
    (all_reduce_us nvlink ~world:8 ~bytes:1e6);
  (* world 1: nothing crosses the wire *)
  Alcotest.(check (float 1e-9)) "world 1 all-reduce" 0.0
    (all_reduce_us link ~world:1 ~bytes:1e9);
  Alcotest.(check (float 1e-9)) "world 1 all-gather" 0.0
    (all_gather_us link ~world:1 ~bytes:1e9);
  Alcotest.(check (float 1e-9)) "all-reduce wire bytes" 1500.0
    (collective_wire_bytes ~op:`All_reduce ~world:4 ~bytes:1000.0);
  Alcotest.(check (float 1e-9)) "all-gather wire bytes" 750.0
    (collective_wire_bytes ~op:`All_gather ~world:4 ~bytes:1000.0);
  Alcotest.(check (float 1e-9)) "world 1 wire bytes" 0.0
    (collective_wire_bytes ~op:`All_reduce ~world:1 ~bytes:1000.0)

(* ---------- TP differential: bit-identity across degrees ---------- *)

let prompt = [ 3; 14; 7; 25 ]

let test_tp_decode_bit_identical () =
  let run tp = Dist.Tp.generate tiny_tp ~tp ~seed:5 ~prompt ~gen:6 () in
  let toks1, logits1 = run 1 in
  List.iter
    (fun tp ->
      let toks, logits = run tp in
      Alcotest.(check (list int))
        (Printf.sprintf "tp=%d greedy tokens" tp)
        toks1 toks;
      Alcotest.(check bool)
        (Printf.sprintf "tp=%d final logits bit-identical" tp)
        true
        (Dist.Tp.bit_equal logits1 logits))
    [ 2; 4 ]

let test_tp_reduce_strategy_close () =
  (* Megatron-style all-reduce reassociates the partial sums: same
     greedy tokens, logits equal to rounding (not bitwise). *)
  let toks1, logits1 = Dist.Tp.generate tiny_tp ~tp:1 ~seed:5 ~prompt ~gen:4 () in
  let toks2, logits2 =
    Dist.Tp.generate ~strategy:Frontend.Llm.Reduce tiny_tp ~tp:2 ~seed:5
      ~prompt ~gen:4 ()
  in
  Alcotest.(check (list int)) "reduce-strategy tokens" toks1 toks2;
  Alcotest.(check bool) "reduce-strategy logits approx" true
    (Base.Ndarray.equal_approx ~eps:1e-9 logits1 logits2)

(* tiny shards at tp=2 as well (heads 2, hidden 8): the differential
   must hold beyond the purpose-built config. *)
let test_tp_tiny_gqa_free () =
  let toks1, logits1 = Dist.Tp.generate tiny ~tp:1 ~seed:9 ~prompt ~gen:3 () in
  let toks2, logits2 = Dist.Tp.generate tiny ~tp:2 ~seed:9 ~prompt ~gen:3 () in
  Alcotest.(check (list int)) "tiny tp=2 tokens" toks1 toks2;
  Alcotest.(check bool) "tiny tp=2 logits" true
    (Dist.Tp.bit_equal logits1 logits2)

let print_case (seed, tp, toks, gen) =
  Printf.sprintf "seed=%d tp=%d prompt=[%s] gen=%d" seed tp
    (String.concat ";" (List.map string_of_int toks))
    gen

let gen_case =
  QCheck.Gen.(
    let* seed = int_range 0 1000 in
    let* tp = oneofl [ 2; 4 ] in
    let* toks = list_size (int_range 1 6) (int_range 0 31) in
    let* gen = int_range 1 4 in
    return (seed, tp, toks, gen))

(* Through the whole stack: pipeline (fusion, scheduling, memory
   planning, graph capture) and the imp execution backend on both
   sides. *)
let test_tp_differential_qcheck =
  QCheck.Test.make ~count:8 ~name:"TP differential: random prompts and seeds"
    (QCheck.make ~print:print_case gen_case) (fun (seed, tp, toks, gen) ->
      let t1, l1 = Dist.Tp.generate tiny_tp ~tp:1 ~seed ~prompt:toks ~gen () in
      let t2, l2 = Dist.Tp.generate tiny_tp ~tp ~seed ~prompt:toks ~gen () in
      t1 = t2 && Dist.Tp.bit_equal l1 l2)

let test_tp_prefill_matches_full () =
  (* Sharded prefill agrees with the unsharded one bit-for-bit, and
     each shard's returned KV cache is exactly its head-range slice
     of the full cache. Both sides draw weights from the same seeded
     decode_paged template (full_weights keys the very same list by
     name), so they compare like against like. *)
  let layers = tiny_tp.Frontend.Configs.layers in
  let dec = Frontend.Llm.decode_paged tiny_tp ~batch:1 Frontend.Llm.F16 in
  let template = Frontend.Llm.args_for dec ~ctx:0 ~seed:21 ~mode:`Numeric () in
  let full_w = List.filteri (fun i _ -> i >= 2 + (2 * layers)) template in
  let compile built =
    Relax_passes.Pipeline.compile
      ~options:
        { Relax_passes.Pipeline.default_options with
          Relax_passes.Pipeline.upper_bounds =
            Frontend.Llm.upper_bound_hints built }
      ~device built.Frontend.Llm.mod_
  in
  let pre = Frontend.Llm.prefill ~return_caches:true tiny_tp Frontend.Llm.F16 in
  let fvm = Runtime.Vm.create `Numeric (compile pre) in
  let toks = [ 8; 22; 29; 2; 27; 18 ] in
  let n = List.length toks in
  let ids () =
    Runtime.Vm.tensor (Base.Ndarray.of_int_list Base.Dtype.I32 [| n |] toks)
  in
  let f_logits, f_caches =
    match Runtime.Vm.run fvm "prefill" (ids () :: full_w) with
    | Runtime.Vm.Tuple_val (l :: caches) ->
        (Runtime.Vm.value_tensor l, List.map Runtime.Vm.value_tensor caches)
    | _ -> Alcotest.fail "prefill: expected (logits, caches...)"
  in
  let tp = 2 in
  let { Dist.Tp.sh; prog } = Dist.Tp.compile_prefill tiny_tp ~tp ~device in
  let svm = Runtime.Vm.create `Numeric prog in
  let sargs =
    Dist.Tp.shard_args sh
      ~full:(Dist.Tp.full_weights tiny_tp ~seed:21)
      ~input:(fun nm ->
        Alcotest.(check string) "only ids is an input" "ids" nm;
        ids ())
  in
  let s_logits, s_caches =
    match Runtime.Vm.run svm sh.Frontend.Llm.sbuilt.Frontend.Llm.entry sargs with
    | Runtime.Vm.Tuple_val (l :: caches) ->
        (Runtime.Vm.value_tensor l, List.map Runtime.Vm.value_tensor caches)
    | _ -> Alcotest.fail "prefill_tp: expected (logits, caches...)"
  in
  Alcotest.(check bool) "prefill logits bit-identical" true
    (Dist.Tp.bit_equal f_logits s_logits);
  let kvs = tiny_tp.Frontend.Configs.kv_heads / tp in
  let d = tiny_tp.Frontend.Configs.head_dim in
  Alcotest.(check int) "cache count: layer-major, shard-minor, (k,v)"
    (2 * tp * tiny_tp.Frontend.Configs.layers)
    (List.length s_caches);
  List.iteri
    (fun i shard_cache ->
      (* caches come layer-major, shard-minor, (k,v) innermost *)
      let l = i / (tp * 2) in
      let s = i mod (tp * 2) / 2 in
      let kv = i mod 2 in
      let full_cache = List.nth f_caches ((l * 2) + kv) in
      for h = 0 to kvs - 1 do
        for p = 0 to n - 1 do
          for x = 0 to d - 1 do
            Alcotest.(check (float 0.0))
              (Printf.sprintf "cache l=%d s=%d kv=%d [%d,%d,%d]" l s kv h p x)
              (Base.Ndarray.get_float full_cache
                 [| 0; (s * kvs) + h; p; x |])
              (Base.Ndarray.get_float shard_cache [| 0; h; p; x |])
          done
        done
      done)
    s_caches

let test_tp_sharded_module_verifies () =
  (* The static verifier (memory safety + race detection) must pass
     the sharded module after every pipeline stage. *)
  List.iter
    (fun tp ->
      let c = Dist.Tp.compile_decode ~verify:true tiny_tp ~batch:1 ~tp ~device in
      let diags =
        Relax_passes.Verify.check_module
          ~bounds:(Frontend.Llm.upper_bound_hints c.Dist.Tp.sh.Frontend.Llm.sbuilt)
          c.Dist.Tp.sh.Frontend.Llm.sbuilt.Frontend.Llm.mod_
      in
      Alcotest.(check (list string))
        (Printf.sprintf "tp=%d sharded module race/safety errors" tp)
        []
        (List.map
           (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.message)
           (Analysis.Diag.errors diags)))
    [ 2; 4 ]

let test_tp_step_report () =
  let r = Dist.Tp.step_report tiny_tp ~batch:1 ~tp:2 ~ctx:8 ~device () in
  (* 2 layers x (attn_ag, wo_ag, mlp_ag, down_ag) + lm_head_ag *)
  Alcotest.(check int) "collective count" 9 r.Dist.Tp.collectives;
  Alcotest.(check bool) "comm time positive" true (r.Dist.Tp.comm_us > 0.0);
  Alcotest.(check bool) "parallel <= serial" true
    (r.Dist.Tp.parallel_us <= r.Dist.Tp.serial_us);
  let tags = List.map fst r.Dist.Tp.per_device_us in
  Alcotest.(check (list string)) "device split tags"
    [ "g0"; "g1"; "link"; "shared" ] tags;
  let reduce =
    Dist.Tp.step_report ~strategy:Frontend.Llm.Reduce tiny_tp ~batch:1 ~tp:2
      ~ctx:8 ~device ()
  in
  (* Reduce halves the per-layer collectives: 2 x (wo_ar, down_ar) + lm_head_ag *)
  Alcotest.(check int) "reduce collective count" 5 reduce.Dist.Tp.collectives

(* ---------- cluster routing goldens ---------- *)

let req ?tokens ?fork id arrival =
  let prompt_len = match tokens with Some t -> List.length t | None -> 4 in
  {
    Serve.Workload.id;
    arrival_us = arrival;
    prompt_len;
    output_len = 2;
    deadline_us = None;
    prompt_tokens = tokens;
    fork_of = fork;
  }

let model = lazy (Serve.Scheduler.model ~cfg:tiny ~precision:Frontend.Llm.F16 ~device)

let copts ?(replicas = 3) route =
  { Dist.Cluster.default_opts with Dist.Cluster.replicas; route }

let dispatch ?replicas route w =
  Dist.Cluster.dispatch ~model:(Lazy.force model) (copts ?replicas route) w

let test_route_round_robin () =
  let w = List.init 7 (fun i -> req i (float_of_int i *. 100.0)) in
  Alcotest.(check (list (pair int int)))
    "round-robin golden"
    [ (0, 0); (1, 1); (2, 2); (3, 0); (4, 1); (5, 2); (6, 0) ]
    (dispatch Dist.Cluster.Round_robin w)

let test_route_least_loaded () =
  (* Simultaneous equal requests spread like round-robin (ties break
     to the lowest index); a late arrival after the backlog drains
     still lands on replica 0. *)
  let w = List.init 6 (fun i -> req i 0.0) @ [ req 6 1e9 ] in
  Alcotest.(check (list (pair int int)))
    "least-loaded golden"
    [ (0, 0); (1, 1); (2, 2); (3, 0); (4, 1); (5, 2); (6, 0) ]
    (dispatch Dist.Cluster.Least_loaded w)

let test_route_power_of_two () =
  let w = List.init 8 (fun i -> req i (float_of_int i *. 50.0)) in
  let d = dispatch Dist.Cluster.Power_of_two w in
  (* Pinned dispatch under route_seed 0: two seeded draws per request,
     less-loaded of the pair wins (ties keep the first draw). *)
  Alcotest.(check (list (pair int int)))
    "power-of-two golden"
    [ (0, 0); (1, 1); (2, 2); (3, 0); (4, 2); (5, 1); (6, 2); (7, 0) ]
    d;
  Alcotest.(check (list (pair int int)))
    "power-of-two deterministic" d
    (dispatch Dist.Cluster.Power_of_two w);
  List.iter
    (fun (_, k) ->
      Alcotest.(check bool) "replica in range" true (k >= 0 && k < 3))
    d;
  (* ...and never piles everything on one replica over 8 requests. *)
  Alcotest.(check bool) "spreads over >= 2 replicas" true
    (List.length (List.sort_uniq compare (List.map snd d)) >= 2)

let test_route_prefix_affinity () =
  let sys = [ 1; 2; 3; 4 ] in
  let session s = sys @ [ 100 + s; 200 + s ] in
  let w =
    [
      req ~tokens:(session 0) 0 0.0;
      req ~tokens:(session 1) 1 10.0;
      req ~tokens:(session 0) 2 20.0;  (* same prompt as request 0 *)
      req ~tokens:(session 2) 3 30.0;
      req ~tokens:(session 1) 4 40.0;  (* same prompt as request 1 *)
      req 5 50.0;  (* no tokens: round-robin fallback *)
    ]
  in
  let d = dispatch Dist.Cluster.Prefix_affinity w in
  let at i = List.assoc i d in
  Alcotest.(check int) "same prompt, same replica (session 0)" (at 0) (at 2);
  Alcotest.(check int) "same prompt, same replica (session 1)" (at 1) (at 4);
  let expected s =
    Dist.Cluster.fnv1a (session s) mod 3
  in
  List.iter
    (fun (rid, s) ->
      Alcotest.(check int)
        (Printf.sprintf "request %d hashes to its session replica" rid)
        (expected s) (at rid))
    [ (0, 0); (1, 1); (2, 0); (3, 2); (4, 1) ];
  Alcotest.(check int) "tokenless fallback is round-robin slot 0" 0 (at 5)

let test_route_forks_follow_parent () =
  let w =
    [
      req ~tokens:[ 1; 2; 3; 4 ] 0 0.0;
      req 1 10.0;
      req ~fork:0 ~tokens:[ 1; 2; 3; 4 ] 2 20.0;
      req ~fork:0 ~tokens:[ 1; 2; 3; 4 ] 3 30.0;
    ]
  in
  List.iter
    (fun route ->
      let d = dispatch route w in
      let at i = List.assoc i d in
      Alcotest.(check int)
        (Dist.Cluster.route_name route ^ ": fork 2 follows parent")
        (at 0) (at 2);
      Alcotest.(check int)
        (Dist.Cluster.route_name route ^ ": fork 3 follows parent")
        (at 0) (at 3))
    [ Dist.Cluster.Round_robin; Least_loaded; Power_of_two; Prefix_affinity ]

let test_fnv1a_stable () =
  (* Pinned values: the routing goldens must not move across OCaml
     versions or refactors of the hash. *)
  Alcotest.(check int) "fnv1a []" 0x811c9dc5 (Dist.Cluster.fnv1a []);
  Alcotest.(check int) "fnv1a [0]" 0x4b95f515 (Dist.Cluster.fnv1a [ 0 ]);
  Alcotest.(check int) "fnv1a [1;2;3]" 0x794671b5 (Dist.Cluster.fnv1a [ 1; 2; 3 ]);
  Alcotest.(check bool) "order matters" true
    (Dist.Cluster.fnv1a [ 1; 2 ] <> Dist.Cluster.fnv1a [ 2; 1 ])

(* ---------- cluster execution ---------- *)

let poisson ?(seed = 7) ?(rate = 400.0) n =
  Serve.Workload.generate ~seed ~rate_per_s:rate ~num_requests:n
    ~max_total:tiny.Frontend.Configs.max_context
    ~prompt:(Serve.Workload.Uniform (2, 6))
    ~output:(Serve.Workload.Uniform (2, 5))
    ()

let test_cluster_partitions_and_folds () =
  let w = poisson 14 in
  let opts = copts ~replicas:2 Dist.Cluster.Round_robin in
  let r = Dist.Cluster.run ~model:(Lazy.force model) opts w in
  let all_ids =
    List.concat_map
      (fun (rep : Dist.Cluster.replica_report) ->
        List.concat_map
          (fun (_, (rr : Serve.Scheduler.result)) ->
            List.map
              (fun (m : Serve.Metrics.request_metrics) -> m.Serve.Metrics.id)
              rr.Serve.Scheduler.completed)
          rep.Dist.Cluster.eras)
      (Array.to_list r.Dist.Cluster.replica_reports)
  in
  Alcotest.(check (list int)) "every request completes exactly once"
    (List.init 14 Fun.id)
    (List.sort compare all_ids);
  Alcotest.(check int) "summary.completed" 14
    r.Dist.Cluster.summary.Serve.Metrics.completed;
  Alcotest.(check int) "summary.submitted" 14
    r.Dist.Cluster.summary.Serve.Metrics.submitted;
  let max_clock =
    Array.fold_left
      (fun acc (rep : Dist.Cluster.replica_report) ->
        List.fold_left
          (fun a (_, (rr : Serve.Scheduler.result)) ->
            Float.max a rr.Serve.Scheduler.clock_us)
          acc rep.Dist.Cluster.eras)
      0.0 r.Dist.Cluster.replica_reports
  in
  Alcotest.(check (float 1e-9)) "makespan = slowest replica" max_clock
    r.Dist.Cluster.summary.Serve.Metrics.makespan_us

let test_cluster_of_one_is_the_engine () =
  let w = poisson 10 in
  let m = Lazy.force model in
  let single = Serve.Scheduler.run m Serve.Scheduler.default_opts w in
  let r =
    Dist.Cluster.run ~model:m
      (copts ~replicas:1 Dist.Cluster.Least_loaded)
      w
  in
  Alcotest.(check (float 1e-9)) "same makespan"
    single.Serve.Scheduler.clock_us
    r.Dist.Cluster.summary.Serve.Metrics.makespan_us;
  Alcotest.(check bool) "same summary" true
    (single.Serve.Scheduler.summary = r.Dist.Cluster.summary)

let test_two_schedulers_side_by_side () =
  (* No residual state across engine instances: a run's result is
     byte-identical whether it runs alone or interleaved with another
     scheduler on a different seed. *)
  let m1 = Serve.Scheduler.model ~cfg:tiny ~precision:Frontend.Llm.F16 ~device in
  let m2 = Serve.Scheduler.model ~cfg:tiny ~precision:Frontend.Llm.F16 ~device in
  let w1 = poisson ~seed:3 10 and w2 = poisson ~seed:99 ~rate:80.0 12 in
  let alone = Serve.Scheduler.run m1 Serve.Scheduler.default_opts w1 in
  let _other = Serve.Scheduler.run m2 Serve.Scheduler.default_opts w2 in
  let interleaved = Serve.Scheduler.run m1 Serve.Scheduler.default_opts w1 in
  Alcotest.(check bool) "summaries identical" true
    (alone.Serve.Scheduler.summary = interleaved.Serve.Scheduler.summary);
  Alcotest.(check (float 0.0)) "clocks identical"
    alone.Serve.Scheduler.clock_us interleaved.Serve.Scheduler.clock_us;
  (* Numeric mode too: token streams must not depend on the other
     engine's PRNG or caches. *)
  let a = Serve.Scheduler.run ~exec:(`Numeric 5) m1 Serve.Scheduler.default_opts w1 in
  let _b = Serve.Scheduler.run ~exec:(`Numeric 6) m2 Serve.Scheduler.default_opts w2 in
  let c = Serve.Scheduler.run ~exec:(`Numeric 5) m1 Serve.Scheduler.default_opts w1 in
  Alcotest.(check bool) "token streams identical" true
    (a.Serve.Scheduler.token_streams = c.Serve.Scheduler.token_streams)

let chat ~seed =
  Serve.Workload.multi_turn_chat ~seed ~rate_per_s:200.0 ~sessions:4 ~turns:3
    ~vocab:tiny.Frontend.Configs.vocab ~system_len:8
    ~max_total:tiny.Frontend.Configs.max_context
    ~turn_user:(Serve.Workload.Uniform (1, 2))
    ~output:(Serve.Workload.Uniform (1, 2))
    ()

let test_prefill_discount () =
  let m = Lazy.force model in
  let w = chat ~seed:11 in
  (* tiny's whole context is one default-size block; shrink blocks so
     the shared system prompt actually spans sharable whole blocks. *)
  let base =
    { Serve.Scheduler.default_opts with
      Serve.Scheduler.kv_share = true;
      Serve.Scheduler.block_size = 4 }
  in
  let off = Serve.Scheduler.run m base w in
  let on =
    Serve.Scheduler.run m
      { base with Serve.Scheduler.prefix_prefill_discount = true }
      w
  in
  Alcotest.(check bool) "prefix cache actually hit" true
    (off.Serve.Scheduler.summary.Serve.Metrics.prefix_hit_rate > 0.0);
  Alcotest.(check bool) "discount never slows the run" true
    (on.Serve.Scheduler.clock_us <= off.Serve.Scheduler.clock_us);
  (* Numeric: the discount only changes time, never tokens. *)
  let off_n = Serve.Scheduler.run ~exec:(`Numeric 2) m base w in
  let on_n =
    Serve.Scheduler.run ~exec:(`Numeric 2) m
      { base with Serve.Scheduler.prefix_prefill_discount = true }
      w
  in
  Alcotest.(check bool) "token streams unchanged" true
    (List.sort compare off_n.Serve.Scheduler.token_streams
    = List.sort compare on_n.Serve.Scheduler.token_streams)

(* ---------- fault tolerance ---------- *)

let crash_w ?(replica = 1) from_us until_us =
  {
    Runtime.Fault.replica;
    rkind = Runtime.Fault.Replica_crash;
    from_us;
    until_us;
    factor = 1.0;
  }

let stall_w ?(replica = 1) ?(factor = 4.0) from_us until_us =
  {
    Runtime.Fault.replica;
    rkind = Runtime.Fault.Replica_stall;
    from_us;
    until_us;
    factor;
  }

let merged_ids (r : Dist.Cluster.result) =
  Array.to_list r.Dist.Cluster.replica_reports
  |> List.concat_map (fun (rep : Dist.Cluster.replica_report) ->
         List.concat_map
           (fun (_, (rr : Serve.Scheduler.result)) ->
             List.map
               (fun (m : Serve.Metrics.request_metrics) -> m.Serve.Metrics.id)
               rr.Serve.Scheduler.completed)
           rep.Dist.Cluster.eras)
  |> List.sort compare

let test_health_timeline_golden () =
  (* Default prober: 10 ms heartbeat, Down after 2 misses, Healthy
     after 2 good probes, 20 ms half-open backoff doubling. A crash
     over [25ms, 95ms) is therefore detected at the second failed
     probe (40ms); half-open trials at 60, 80 (failed, backoff 20 then
     40) and 120 (succeeds) pin the circuit breaker; promotion lands
     one heartbeat later. *)
  let ms v = v *. 1000.0 in
  let plan = [ crash_w (ms 25.0) (ms 95.0) ] in
  let tl =
    Dist.Health.timeline ~heartbeat_us:(ms 10.0) ~plan ~replicas:2
      ~horizon_us:(ms 400.0)
  in
  List.iter
    (fun (tr : Dist.Health.transition) ->
      Alcotest.(check int) "only the victim transitions" 1
        tr.Dist.Health.replica)
    tl;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "victim transition golden"
    [ (ms 40.0, "down"); (ms 120.0, "recovering"); (ms 130.0, "healthy") ]
    (List.map
       (fun (tr : Dist.Health.transition) ->
         (tr.Dist.Health.t_us, Dist.Health.state_name tr.Dist.Health.state))
       tl);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "down span = detection to half-open success"
    [ (ms 40.0, ms 120.0) ]
    (Dist.Health.down_spans tl ~replica:1 ~horizon_us:(ms 400.0));
  Alcotest.(check (float 1e-9)) "downtime" (ms 80.0)
    (Dist.Health.downtime_us tl ~replica:1 ~horizon_us:(ms 400.0));
  Alcotest.(check string) "state mid-outage" "down"
    (Dist.Health.state_name
       (Dist.Health.state_at tl ~replica:1 ~t_us:(ms 70.0)));
  Alcotest.(check string) "untouched replica stays healthy" "healthy"
    (Dist.Health.state_name
       (Dist.Health.state_at tl ~replica:0 ~t_us:(ms 70.0)));
  (* A crash over [25ms, 500ms) keeps failing half-open trials at 60,
     80, 120, 200 and 360 ms: the backoff doubles 20, 40, 80, 160 and
     then stays at the 160 ms cap, so the trial at 520 ms succeeds
     (uncapped doubling would wait until 680 ms). *)
  let plan = [ crash_w (ms 25.0) (ms 500.0) ] in
  let tl =
    Dist.Health.timeline ~heartbeat_us:(ms 10.0) ~plan ~replicas:2
      ~horizon_us:(ms 1000.0)
  in
  Alcotest.(check (list (pair (float 1e-9) string)))
    "long crash transition golden"
    [ (ms 40.0, "down"); (ms 520.0, "recovering"); (ms 530.0, "healthy") ]
    (List.map
       (fun (tr : Dist.Health.transition) ->
         (tr.Dist.Health.t_us, Dist.Health.state_name tr.Dist.Health.state))
       tl);
  Alcotest.(check (float 1e-9)) "long crash downtime" (ms 480.0)
    (Dist.Health.downtime_us tl ~replica:1 ~horizon_us:(ms 1000.0))

let test_health_stall_degrades () =
  (* A stall window never opens the circuit: the replica is Degraded
     (routable, deprioritized) from the first slow probe and promoted
     back after recover_after good ones. *)
  let ms v = v *. 1000.0 in
  let plan = [ stall_w (ms 25.0) (ms 55.0) ] in
  let tl =
    Dist.Health.timeline ~heartbeat_us:(ms 10.0) ~plan ~replicas:2
      ~horizon_us:(ms 200.0)
  in
  Alcotest.(check (list (pair (float 1e-9) string)))
    "straggler transition golden"
    [ (ms 30.0, "degraded"); (ms 70.0, "healthy") ]
    (List.map
       (fun (tr : Dist.Health.transition) ->
         (tr.Dist.Health.t_us, Dist.Health.state_name tr.Dist.Health.state))
       tl);
  Alcotest.(check (float 1e-9)) "no downtime" 0.0
    (Dist.Health.downtime_us tl ~replica:1 ~horizon_us:(ms 200.0))

let test_route_determinism_under_faults () =
  (* Satellite: routing stays a deterministic pure function of
     (workload, policy, seed, plan) even as the healthy set changes
     mid-stream. Replica 1 is Down from 40ms (detection) to 200ms
     (half-open success): the round-robin scan skips it exactly while
     it is believed Down and resumes the legacy rotation after. *)
  let w = List.init 8 (fun i -> req i (float_of_int i *. 30_000.0)) in
  let opts =
    { (copts Dist.Cluster.Round_robin) with
      Dist.Cluster.replica_faults = [ crash_w 25_000.0 200_000.0 ] }
  in
  let d = Dist.Cluster.dispatch ~model:(Lazy.force model) opts w in
  Alcotest.(check (list (pair int int)))
    "health-aware round-robin golden"
    [ (0, 0); (1, 1); (2, 2); (3, 0); (4, 2); (5, 2); (6, 0); (7, 1) ]
    d;
  Alcotest.(check (list (pair int int)))
    "byte-identical on re-dispatch" d
    (Dist.Cluster.dispatch ~model:(Lazy.force model) opts w)

let test_route_health_blind_ignores_plan () =
  (* The health-blind baseline routes over an always-Healthy view: under
     a crash + stall plan every policy picks what the fault-free router
     picks (power-of-two: the same seeded draws); the aware one moves. *)
  let toks i = [ 1; 2; 3; 100 + (i mod 3) ] in
  let w =
    List.init 12 (fun i ->
        req ?tokens:(if i mod 4 = 3 then None else Some (toks i)) i
          (float_of_int i *. 20_000.0))
    @ [ req ~fork:0 ~tokens:(toks 0) 12 250_000.0 ]
  in
  let plan = [ crash_w 25_000.0 200_000.0; stall_w ~replica:2 10_000.0 90_000.0 ] in
  let with_plan health_aware route =
    Dist.Cluster.dispatch ~model:(Lazy.force model)
      { (copts route) with Dist.Cluster.replica_faults = plan; health_aware }
      w
  in
  let routes = Dist.Cluster.[ Round_robin; Least_loaded; Power_of_two; Prefix_affinity ] in
  List.iter
    (fun route ->
      Alcotest.(check (list (pair int int)))
        (Dist.Cluster.route_name route ^ ": blind = fault-free")
        (dispatch route w) (with_plan false route))
    routes;
  Alcotest.(check bool) "the plan moves health-aware picks" true
    (List.exists (fun route -> with_plan true route <> dispatch route w) routes)

let test_route_affinity_failover_deterministic () =
  (* The hash home crashes: its sessions fall back to survivors
     deterministically while it is Down and return home once it is
     Healthy again. *)
  let toks = [ 9; 9; 9; 4 ] in
  let home = Dist.Cluster.fnv1a toks mod 3 in
  let w = List.init 8 (fun i -> req ~tokens:toks i (float_of_int i *. 30_000.0)) in
  let opts =
    { (copts Dist.Cluster.Prefix_affinity) with
      Dist.Cluster.replica_faults =
        [ crash_w ~replica:home 25_000.0 200_000.0 ] }
  in
  let d = Dist.Cluster.dispatch ~model:(Lazy.force model) opts w in
  let at i = List.assoc i d in
  (* Down span is [40ms, 200ms): requests 0 (0ms) and 1 (30ms) still
     see the home Healthy; 2..6 (60..180ms) must avoid it; 7 (210ms)
     arrives after half-open success and recover_after promotion. *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "request %d at home before detection" i)
        home (at i))
    [ 0; 1 ];
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d avoids the down home" i)
        true
        (at i <> home && at i >= 0 && at i < 3))
    [ 2; 3; 4; 5; 6 ];
  Alcotest.(check int) "back home after recovery" home (at 7);
  Alcotest.(check (list (pair int int)))
    "fallback deterministic on re-dispatch" d
    (Dist.Cluster.dispatch ~model:(Lazy.force model) opts w)

let test_cluster_failover_no_loss () =
  (* Crash replica 1 from t=0: its whole early assignment drains at
     detection (20ms) and re-admits on replica 0 with KV recomputed;
     the replica rejoins at 40ms as a fresh era. Every request still
     completes exactly once. *)
  let w = poisson 16 in
  let opts =
    { (copts ~replicas:2 Dist.Cluster.Round_robin) with
      Dist.Cluster.replica_faults = [ crash_w 0.0 40_000.0 ] }
  in
  let r = Dist.Cluster.run ~model:(Lazy.force model) opts w in
  Alcotest.(check (list int)) "every request completes exactly once"
    (List.init 16 Fun.id) (merged_ids r);
  let s = r.Dist.Cluster.summary in
  Alcotest.(check int) "summary.completed" 16 s.Serve.Metrics.completed;
  Alcotest.(check int) "nothing aborted" 0 s.Serve.Metrics.aborted;
  Alcotest.(check bool) "some requests failed over" true
    (s.Serve.Metrics.failovers >= 1);
  Alcotest.(check int) "migration log matches counter"
    s.Serve.Metrics.migrations
    (List.length r.Dist.Cluster.migrations);
  Alcotest.(check bool) "downtime accounted" true
    (s.Serve.Metrics.replica_downtime_us > 0.0);
  Alcotest.(check bool) "victim split into eras" true
    (List.length r.Dist.Cluster.replica_reports.(1).Dist.Cluster.eras >= 2)

let test_hedged_decode_no_duplicates () =
  (* Replicas 1 and 2 straggle for the whole run; power-of-two keeps
     routing to them (Degraded is routable), and each such pick is
     hedged onto the healthy replica 0. Winners dedup in the fold:
     nothing completes twice. *)
  let w = poisson 16 in
  let opts =
    { (copts Dist.Cluster.Power_of_two) with
      Dist.Cluster.hedge = true;
      Dist.Cluster.replica_faults =
        [
          stall_w ~replica:1 0.0 100_000.0; stall_w ~replica:2 0.0 100_000.0;
        ] }
  in
  let r = Dist.Cluster.run ~model:(Lazy.force model) opts w in
  (* Both copies of a hedged request really run — the raw era results
     may contain an id twice — but only losing hedge copies may
     duplicate, and the fold keeps exactly one winner per id. *)
  Alcotest.(check (list int)) "every id served at least once"
    (List.init 16 Fun.id)
    (List.sort_uniq compare (merged_ids r));
  let dup =
    let rec go = function
      | a :: (b :: _ as tl) -> if a = b then a :: go tl else go tl
      | _ -> []
    in
    List.sort_uniq compare (go (merged_ids r))
  in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "duplicate %d is a hedged request" id)
        true
        (List.mem_assoc id r.Dist.Cluster.hedged))
    dup;
  let s = r.Dist.Cluster.summary in
  Alcotest.(check int) "fold keeps one winner per id" 16
    s.Serve.Metrics.completed;
  Alcotest.(check bool) "hedges fired" true (s.Serve.Metrics.hedges >= 1);
  Alcotest.(check int) "hedge log matches counter" s.Serve.Metrics.hedges
    (List.length r.Dist.Cluster.hedged);
  Alcotest.(check bool) "wins bounded by hedges" true
    (s.Serve.Metrics.hedge_wins <= s.Serve.Metrics.hedges)

let test_zero_request_replica_fold () =
  (* Satellite: a replica that served nothing must not poison the
     cluster fold with NaN. Both the raw percentile guard and the
     full fold over an idle replica. *)
  Alcotest.(check (float 0.0)) "empty percentile" 0.0
    (Serve.Metrics.percentile 95.0 []);
  Alcotest.(check (float 0.0)) "non-finite samples dropped" 0.0
    (Serve.Metrics.percentile 50.0 [ Float.nan; Float.infinity ]);
  Alcotest.(check (float 0.0)) "finite sample survives the filter" 3.0
    (Serve.Metrics.percentile 50.0 [ Float.nan; 3.0 ]);
  let empty = Serve.Metrics.summarize ~makespan_us:0.0 ~occupancy:0.0 [] in
  let finite (s : Serve.Metrics.summary) =
    List.for_all Float.is_finite
      [
        s.Serve.Metrics.tokens_per_s;
        s.Serve.Metrics.goodput_tokens_per_s;
        s.Serve.Metrics.slo_attainment;
        s.Serve.Metrics.ttft_us.Serve.Metrics.p50;
        s.Serve.Metrics.ttft_us.Serve.Metrics.p95;
        s.Serve.Metrics.ttft_us.Serve.Metrics.p99;
        s.Serve.Metrics.per_token_us.Serve.Metrics.p50;
        s.Serve.Metrics.per_token_us.Serve.Metrics.p95;
        s.Serve.Metrics.per_token_us.Serve.Metrics.p99;
        s.Serve.Metrics.e2e_us.Serve.Metrics.p50;
        s.Serve.Metrics.e2e_us.Serve.Metrics.p95;
        s.Serve.Metrics.e2e_us.Serve.Metrics.p99;
        s.Serve.Metrics.occupancy;
        s.Serve.Metrics.prefix_hit_rate;
      ]
  in
  Alcotest.(check bool) "empty summary all-finite" true (finite empty);
  Alcotest.(check (float 0.0)) "empty slo is vacuous" 1.0
    empty.Serve.Metrics.slo_attainment;
  (* 2 requests over 3 replicas: at least one replica serves nothing. *)
  let w = [ req 0 0.0; req 1 100.0 ] in
  let r =
    Dist.Cluster.run ~model:(Lazy.force model)
      (copts Dist.Cluster.Round_robin) w
  in
  Alcotest.(check bool) "idle-replica cluster fold all-finite" true
    (finite r.Dist.Cluster.summary);
  Alcotest.(check int) "both requests complete" 2
    r.Dist.Cluster.summary.Serve.Metrics.completed

let test_zero_heartbeat_rejected () =
  (* The prober advances its clock by the heartbeat, so a heartbeat
     that is not > 0 would probe forever: once a fault plan needs the
     prober, routing and the cluster run reject it. *)
  let w = [ req 0 0.0; req 1 100.0 ] in
  let m = Lazy.force model in
  List.iter
    (fun heartbeat_us ->
      let opts =
        { (copts Dist.Cluster.Round_robin) with
          Dist.Cluster.replica_faults = [ crash_w 25_000.0 200_000.0 ];
          heartbeat_us }
      in
      let rejects what f =
        match f () with
        | _ -> Alcotest.failf "%s, heartbeat %g: returned" what heartbeat_us
        | exception Invalid_argument _ -> ()
      in
      rejects "dispatch" (fun () -> ignore (Dist.Cluster.dispatch ~model:m opts w));
      rejects "run" (fun () -> ignore (Dist.Cluster.run ~model:m opts w)))
    [ 0.0; -10_000.0; Float.nan ]

let print_failover_case (seed, replicas, victim, n, from_ms, dur_ms) =
  Printf.sprintf "seed=%d replicas=%d victim=%d n=%d crash=[%dms,+%dms)" seed
    replicas victim n from_ms dur_ms

let gen_failover_case =
  QCheck.Gen.(
    let* seed = int_range 0 500 in
    let* replicas = oneofl [ 2; 3 ] in
    let* victim = int_range 0 (replicas - 1) in
    let* n = int_range 8 14 in
    let* from_ms = int_range 0 20 in
    let* dur_ms = int_range 5 60 in
    return (seed, replicas, victim, n, from_ms, dur_ms))

(* Differential: crash-then-recover (detected eras or undetected
   blips alike) completes exactly the request set the fault-free
   cluster completes — nothing lost, nothing duplicated — on both the
   health-aware and the naive path. *)
let test_failover_differential_qcheck =
  QCheck.Test.make ~count:6
    ~name:"failover differential: no request lost or duplicated"
    (QCheck.make ~print:print_failover_case gen_failover_case)
    (fun (seed, replicas, victim, n, from_ms, dur_ms) ->
      let w = poisson ~seed n in
      let from_us = float_of_int from_ms *. 1000.0 in
      let plan =
        [ crash_w ~replica:victim from_us
            (from_us +. (float_of_int dur_ms *. 1000.0)) ]
      in
      let base = copts ~replicas Dist.Cluster.Round_robin in
      let run o = Dist.Cluster.run ~model:(Lazy.force model) o w in
      let free = run base in
      let aware = run { base with Dist.Cluster.replica_faults = plan } in
      let naive =
        run
          { base with
            Dist.Cluster.replica_faults = plan;
            Dist.Cluster.health_aware = false }
      in
      merged_ids free = List.init n Fun.id
      && merged_ids aware = merged_ids free
      && merged_ids naive = merged_ids free
      && aware.Dist.Cluster.summary.Serve.Metrics.aborted = 0)

let () =
  Alcotest.run "dist"
    [ ( "interconnect",
        [ Alcotest.test_case "ring collective cost goldens" `Quick
            test_ring_collective_costs ] );
      ( "tensor_parallel",
        [ Alcotest.test_case "TP=1/2/4 bit-identical" `Quick
            test_tp_decode_bit_identical;
          Alcotest.test_case "reduce strategy: same tokens" `Quick
            test_tp_reduce_strategy_close;
          Alcotest.test_case "tiny shards at tp=2" `Quick test_tp_tiny_gqa_free;
          QCheck_alcotest.to_alcotest test_tp_differential_qcheck;
          Alcotest.test_case "prefill_tp matches full prefill" `Quick
            test_tp_prefill_matches_full;
          Alcotest.test_case "sharded modules verify race-free" `Quick
            test_tp_sharded_module_verifies;
          Alcotest.test_case "step report device/comm split" `Quick
            test_tp_step_report ] );
      ( "routing",
        [ Alcotest.test_case "round-robin golden" `Quick test_route_round_robin;
          Alcotest.test_case "least-loaded golden" `Quick
            test_route_least_loaded;
          Alcotest.test_case "power-of-two deterministic" `Quick
            test_route_power_of_two;
          Alcotest.test_case "prefix affinity" `Quick test_route_prefix_affinity;
          Alcotest.test_case "forks follow parent" `Quick
            test_route_forks_follow_parent;
          Alcotest.test_case "fnv1a pinned" `Quick test_fnv1a_stable ] );
      ( "cluster",
        [ Alcotest.test_case "partition and fold" `Quick
            test_cluster_partitions_and_folds;
          Alcotest.test_case "cluster of one = the engine" `Quick
            test_cluster_of_one_is_the_engine;
          Alcotest.test_case "two schedulers side by side" `Quick
            test_two_schedulers_side_by_side;
          Alcotest.test_case "prefix prefill discount" `Quick
            test_prefill_discount ] );
      ( "failover",
        [ Alcotest.test_case "health timeline golden" `Quick
            test_health_timeline_golden;
          Alcotest.test_case "stall degrades, never opens circuit" `Quick
            test_health_stall_degrades;
          Alcotest.test_case "routing deterministic under faults" `Quick
            test_route_determinism_under_faults;
          Alcotest.test_case "health-blind routing ignores the plan" `Quick
            test_route_health_blind_ignores_plan;
          Alcotest.test_case "affinity failover deterministic" `Quick
            test_route_affinity_failover_deterministic;
          Alcotest.test_case "crash drains and re-admits, no loss" `Quick
            test_cluster_failover_no_loss;
          Alcotest.test_case "hedged decode deduplicates" `Quick
            test_hedged_decode_no_duplicates;
          Alcotest.test_case "zero-request replica folds finite" `Quick
            test_zero_request_replica_fold;
          Alcotest.test_case "non-positive heartbeat is rejected" `Quick
            test_zero_heartbeat_rejected;
          QCheck_alcotest.to_alcotest test_failover_differential_qcheck ] ) ]
