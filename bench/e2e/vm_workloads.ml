(* Numeric workloads on one VM: greedy decode (decode-tiny, decode-q4)
   and prompt processing (prefill-mixed). Inputs come from the seed:
   weights through [Llm.args_for], prompts and lengths from a PRNG
   keyed on (seed, sequence or prompt index), so op [i] sees the same
   input in every run with that seed. *)

open Harness

let device = Runtime.Device.rtx4090

let compile (built : Frontend.Llm.built) =
  Relax_passes.Pipeline.compile
    ~options:
      { Relax_passes.Pipeline.default_options with
        Relax_passes.Pipeline.upper_bounds = Frontend.Llm.upper_bound_hints built }
    ~device built.Frontend.Llm.mod_

(* Parameter seeds are [seed + i] per parameter; spreading the run
   seed keeps seeds 1 and 2 from sharing shifted weights. *)
let weight_seed seed = seed * 7919

let logits_of = function
  | Runtime.Vm.Tuple_val (l :: _) -> Runtime.Vm.value_tensor l
  | v -> Runtime.Vm.value_tensor v

let argmax t =
  let best = ref 0 and best_v = ref neg_infinity in
  for i = 0 to Base.Ndarray.numel t - 1 do
    let v = Base.Ndarray.get_flat_float t i in
    if v > !best_v then begin
      best_v := v;
      best := i
    end
  done;
  !best

let same_bits (a : Base.Ndarray.t) (b : Base.Ndarray.t) =
  a.Base.Ndarray.shape = b.Base.Ndarray.shape
  &&
  match (Base.Ndarray.float_data a, Base.Ndarray.float_data b) with
  | Some x, Some y ->
      Array.length x = Array.length y
      && Array.for_all2
           (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
           x y
  | None, None -> Base.Ndarray.int_data a = Base.Ndarray.int_data b
  | _ -> false

let ids_of tokens =
  Runtime.Vm.tensor
    (Base.Ndarray.of_int_list Base.Dtype.I32 [| List.length tokens |] tokens)

(* Traced VM: a span sink whose compile-miss test reads the VM's own
   kernel cache (the VM exists only after the sink). *)
let traced_vm tr program =
  let vm = ref None in
  let misses () =
    match !vm with
    | Some v -> Tir.Exec.Cache.misses (Runtime.Vm.kernel_cache v)
    | None -> 0
  in
  let v = Runtime.Vm.create ~trace:(Span.vm_sink tr ~misses) `Numeric program in
  vm := Some v;
  v

(* [Vm.run], inside a span when traced: its self time is the VM's own
   per-call work outside any instruction. *)
let run_vm tracer vm entry args =
  match tracer with
  | Some tr -> Span.with_span tr ~layer:"vm.dispatch" "Vm.run" (fun () -> Runtime.Vm.run vm entry args)
  | None -> Runtime.Vm.run vm entry args

(* Kernel-cache, allocator and per-op event counters of a traced
   pass; [before] is (misses, hits, fresh allocations) at its start. *)
let record_vm_counters c tr vm ~ops (m0, h0, a0) =
  let cache = Runtime.Vm.kernel_cache vm and alloc = Runtime.Vm.allocator vm in
  let misses = Tir.Exec.Cache.misses cache - m0 and hits = Tir.Exec.Cache.hits cache - h0 in
  let per_op key = float_of_int (Span.count_of tr key) /. float_of_int (max 1 ops) in
  layer c.rep "tir.kcache_misses" "count" (float_of_int misses);
  layer c.rep "tir.kcache_hit_ratio" "ratio"
    (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  layer c.rep "vm.instrs_per_op" "count" (per_op "vm.instrs");
  layer c.rep "tir.kernel_calls_per_op" "count" (per_op "tir.kernel_calls");
  layer c.rep "library.extern_calls_per_op" "count" (per_op "library.extern_calls");
  layer c.rep "allocator.allocs_per_op" "count"
    (float_of_int (Runtime.Allocator.alloc_count alloc - a0) /. float_of_int (max 1 ops));
  layer c.rep "allocator.reuse_ratio" "ratio"
    (float_of_int (Span.count_of tr "allocator.reused")
    /. float_of_int (max 1 (Span.count_of tr "allocator.events")));
  layer c.rep "allocator.peak_kib" "KiB"
    (float_of_int (Runtime.Allocator.peak_bytes alloc) /. 1024.0)

let vm_counters vm =
  let cache = Runtime.Vm.kernel_cache vm in
  ( Tir.Exec.Cache.misses cache,
    Tir.Exec.Cache.hits cache,
    Runtime.Allocator.alloc_count (Runtime.Vm.allocator vm) )

(* ---------- greedy decode ---------- *)

(* Each sequence feeds a 4-token prompt one token per step, then feeds
   back its argmax tokens until 12 have been generated: 15 steps at
   cache positions 0..14 of the 16-position context. *)
let prompt_len = 4
let gen_len = 12
let steps_per_seq = prompt_len + gen_len - 1

type decoder = {
  cfg : Frontend.Configs.t;
  entry : string;
  vm : Runtime.Vm.t;
  tracer : Span.t option;
  weights : Runtime.Vm.value list;
  caches : Base.Ndarray.t list;
  mutable prompt : int array;
  mutable last : int;
}

let prompt_of ~seed (cfg : Frontend.Configs.t) s =
  let st = Random.State.make [| seed; s |] in
  Array.init prompt_len (fun _ -> Random.State.int st cfg.Frontend.Configs.vocab)

let decoder ?tracer ?(backend = Tir.Exec.default) ~seed cfg precision =
  let built = Frontend.Llm.decode_paged cfg ~batch:1 precision in
  let program = compile built in
  let vm =
    match tracer with
    | Some tr -> traced_vm tr program
    | None -> Runtime.Vm.create ~backend `Numeric program
  in
  let template =
    Frontend.Llm.args_for built ~ctx:0 ~seed:(weight_seed seed) ~mode:`Numeric ()
  in
  let layers = cfg.Frontend.Configs.layers in
  {
    cfg;
    entry = built.Frontend.Llm.entry;
    vm;
    tracer;
    weights = List.filteri (fun i _ -> i >= 2 + (2 * layers)) template;
    caches =
      List.init (2 * layers) (fun _ ->
          Base.Ndarray.create Base.Dtype.F16
            [| 1; cfg.Frontend.Configs.kv_heads; cfg.Frontend.Configs.max_context;
               cfg.Frontend.Configs.head_dim |]);
    prompt = [||];
    last = 0;
  }

(* Run step [i] of sequence [s] (given explicitly so warm-up can use
   its own stream). Returns the step's logits and the token it
   generated, if any. *)
let decode_step ~seed d ~s ~p =
  if p = 0 then begin
    List.iter (fun t -> Base.Ndarray.fill_float t 0.0) d.caches;
    d.prompt <- prompt_of ~seed d.cfg s
  end;
  let tok = if p < prompt_len then d.prompt.(p) else d.last in
  let args =
    (ids_of [ tok ] :: Runtime.Vm.Shape_val [| p |] :: List.map Runtime.Vm.tensor d.caches)
    @ d.weights
  in
  let logits = logits_of (run_vm d.tracer d.vm d.entry args) in
  d.last <- argmax logits;
  (logits, if p >= prompt_len - 1 then Some d.last else None)

let run_sequence ~seed d s =
  let toks = ref [] and final = ref None in
  for p = 0 to steps_per_seq - 1 do
    let logits, gen = decode_step ~seed d ~s ~p in
    Option.iter (fun t -> toks := t :: !toks) gen;
    if p = steps_per_seq - 1 then final := Some logits
  done;
  (List.rev !toks, Option.get !final)

let make_decoder ?tracer ~seed cfg precision =
  let d = decoder ?tracer ~seed cfg precision in
  (* Warm-up: one full sequence compiles every kernel shape. *)
  ignore (run_sequence ~seed d (-1));
  d

(* The first sequences' prompts and the weights. *)
let decode_digest ~seed cfg precision =
  let d = decoder ~seed cfg precision in
  digest_of (List.init 8 (prompt_of ~seed cfg), List.map Runtime.Vm.value_tensor d.weights)

let run_decode c ~cfg ~precision ~checked =
  let seed = c.seed in
  let d = setup c (fun () -> make_decoder ~seed cfg precision) in
  let checked = if c.smoke then 1 else checked in
  (* Tokens and final logits of the first [checked] sequences, for the
     interpreter oracle. *)
  let seen = Array.make checked ([], None) in
  let op d ~record i =
    let s = i / steps_per_seq and p = i mod steps_per_seq in
    let logits, gen = decode_step ~seed d ~s ~p in
    if record && s < checked then begin
      let toks, _ = seen.(s) in
      let toks = match gen with Some t -> t :: toks | None -> toks in
      let final = if p = steps_per_seq - 1 then Some (Base.Ndarray.copy logits) else None in
      seen.(s) <- (toks, final)
    end;
    match gen with Some _ -> 1.0 | None -> 0.0
  in
  let g0 = gc_words () in
  let m0, _, _ = vm_counters d.vm in
  let min_ops = checked * steps_per_seq in
  let ops, speed = timed ~min_ops ~seconds:(phase_seconds c) (op d ~record:true) in
  record_phase c ~align:steps_per_seq (ops, speed);
  record_gc c ops g0;
  let m1, _, _ = vm_counters d.vm in
  check c.rep "tir.no_kcache_misses_after_warmup" (m1 = m0);
  (* Oracle: the same program on the reference interpreter must give
     bit-identical tokens and final logits. *)
  let oracle = decoder ~backend:Tir.Exec.Interp ~seed cfg precision in
  let oracle = { oracle with weights = d.weights } in
  let mismatched = ref 0 in
  Array.iteri
    (fun s (toks, final) ->
      let ref_toks, ref_final = run_sequence ~seed oracle s in
      let ok =
        List.rev toks = ref_toks
        && match final with Some f -> same_bits f ref_final | None -> false
      in
      if not ok then incr mismatched)
    seen;
  attempt c.rep checked;
  fail c.rep !mismatched;
  note c.rep "oracle: %d of %d sequences differ from Tir.Exec.Interp (tokens, final logits bits)"
    !mismatched checked;
  note c.rep "inputs_digest %s" (decode_digest ~seed cfg precision);
  if c.trace then begin
    let tr = Span.create () in
    let d = make_decoder ~tracer:tr ~seed cfg precision in
    let before = vm_counters d.vm in
    let tops, _ = timed ~tracer:tr ~seconds:(phase_seconds c) (op d ~record:false) in
    let n = List.length tops in
    record_vm_counters c tr d.vm ~ops:n before;
    record_trace c ~untraced:ops ~traced:tops tr
  end

(* ---------- prefill over mixed prompt lengths ---------- *)

(* Scaled so one run covers a few hundred prompts: attention over the
   whole prompt makes the cost grow faster than the length. *)
let small =
  { Frontend.Configs.tiny with
    Frontend.Configs.name = "small";
    hidden = 64;
    inter = 128;
    layers = 2;
    heads = 2;
    kv_heads = 2;
    head_dim = 32;
    vocab = 256;
    max_context = 256 }

let min_len = 8

(* The smoke run keeps prompts short: its oracle runs them on the
   interpreter. *)
let max_len ~smoke = if smoke then 16 else 128

let prompt_tokens ~smoke ~seed i =
  let st = Random.State.make [| seed; i |] in
  let n = min_len + Random.State.int st (max_len ~smoke - min_len + 1) in
  List.init n (fun _ -> Random.State.int st small.Frontend.Configs.vocab)

type prefiller = {
  pentry : string;
  pvm : Runtime.Vm.t;
  ptracer : Span.t option;
  pweights : Runtime.Vm.value list;
}

let prefiller ?tracer ?(backend = Tir.Exec.default) ~seed () =
  let built = Frontend.Llm.prefill ~return_caches:true small Frontend.Llm.F16 in
  let program = compile built in
  let vm =
    match tracer with
    | Some tr -> traced_vm tr program
    | None -> Runtime.Vm.create ~backend `Numeric program
  in
  let template =
    Frontend.Llm.args_for built ~ctx:min_len ~seed:(weight_seed seed) ~mode:`Numeric ()
  in
  { pentry = built.Frontend.Llm.entry; pvm = vm; ptracer = tracer; pweights = List.tl template }

let outputs = function
  | Runtime.Vm.Tuple_val vs -> List.map Runtime.Vm.value_tensor vs
  | v -> [ Runtime.Vm.value_tensor v ]

let prefill_digest ~smoke ~seed =
  let pf = prefiller ~seed () in
  digest_of (List.init 8 (prompt_tokens ~smoke ~seed), List.map Runtime.Vm.value_tensor pf.pweights)

let run_prefill c =
  let seed = c.seed in
  let pf = setup c (fun () -> prefiller ~seed ()) in
  (* Outputs of the first prompt of each of the 3 shortest distinct
     lengths, for the interpreter oracle. *)
  let shortest = ref [] in
  let remember toks out =
    let n = List.length toks in
    if
      (not (List.mem_assoc n !shortest))
      && (List.length !shortest < 3 || n < fst (List.hd !shortest))
    then begin
      let kept = (n, (toks, List.map Base.Ndarray.copy out)) :: !shortest in
      let kept = List.sort (fun (a, _) (b, _) -> compare b a) kept in
      shortest := if List.length kept > 3 then List.tl kept else kept
    end
  in
  let op pf ~record i =
    let toks = prompt_tokens ~smoke:c.smoke ~seed i in
    let out = outputs (run_vm pf.ptracer pf.pvm pf.pentry (ids_of toks :: pf.pweights)) in
    if record then remember toks out;
    float_of_int (List.length toks)
  in
  let g0 = gc_words () in
  let ops, speed = timed ~min_ops:3 ~seconds:(phase_seconds c) (op pf ~record:true) in
  record_phase c (ops, speed);
  record_gc c ops g0;
  let oracle = prefiller ~backend:Tir.Exec.Interp ~seed () in
  let mismatched =
    List.filter
      (fun (_, (toks, out)) ->
        let ref_out =
          outputs (Runtime.Vm.run oracle.pvm oracle.pentry (ids_of toks :: pf.pweights))
        in
        not (List.length out = List.length ref_out && List.for_all2 same_bits out ref_out))
      !shortest
  in
  attempt c.rep (List.length !shortest);
  fail c.rep (List.length mismatched);
  note c.rep "oracle: %d of the prompts of lengths %s differ from Tir.Exec.Interp (output bits)"
    (List.length mismatched)
    (String.concat "," (List.map (fun (n, _) -> string_of_int n) (List.rev !shortest)));
  note c.rep "inputs_digest %s" (prefill_digest ~smoke:c.smoke ~seed);
  if c.trace then begin
    let tr = Span.create () in
    let pf = prefiller ~tracer:tr ~seed () in
    let before = vm_counters pf.pvm in
    let tops, _ = timed ~min_ops:3 ~tracer:tr ~seconds:(phase_seconds c) (op pf ~record:false) in
    let n = List.length tops in
    record_vm_counters c tr pf.pvm ~ops:n before;
    record_trace c ~untraced:ops ~traced:tops tr
  end
