(* The compile workload: a fixed zoo of eight shape-only modules, each
   built, lowered stage by stage, turned into VM code and verified.
   The inputs do not depend on the seed. *)

open Harness
open Frontend

let device = Runtime.Device.rtx4090

(* Chosen to cover the builder and pass features that change compile
   work: paged F16 and fused Q4 decode, whole-prompt prefill, a
   symbolic batch, qkv biases (Qwen2), GeLU with head_dim 256 (Gemma),
   LayerNorm with a plain MLP (RedPajama) and TP collectives. *)
let zoo : (string * (unit -> Llm.built)) list =
  [ ("llama3-8b/decode_paged/f16", fun () -> Llm.decode_paged Configs.llama3_8b ~batch:1 Llm.F16);
    ("llama3-8b/decode_paged/q4", fun () -> Llm.decode_paged Configs.llama3_8b ~batch:1 Llm.Q4);
    ("llama3-8b/prefill/f16", fun () -> Llm.prefill Configs.llama3_8b Llm.F16);
    ( "llama3-8b/decode_symbolic_batch/f16",
      fun () -> Llm.decode_symbolic_batch Configs.llama3_8b Llm.F16 );
    ("qwen2-7b/decode_paged/f16", fun () -> Llm.decode_paged Configs.qwen2_7b ~batch:1 Llm.F16);
    ("gemma-7b/decode_paged/f16", fun () -> Llm.decode_paged Configs.gemma_7b ~batch:1 Llm.F16);
    ( "redpajama-3b/decode_paged/q4",
      fun () -> Llm.decode_paged Configs.redpajama_3b ~batch:1 Llm.Q4 );
    ( "tiny-tp/decode_paged_tp4/f16",
      fun () -> (Llm.decode_paged_tp Configs.tiny_tp ~batch:1 ~tp:4 ()).Llm.sbuilt ) ]

let options built =
  { Relax_passes.Pipeline.default_options with
    Relax_passes.Pipeline.upper_bounds = Llm.upper_bound_hints built }

type outcome = { tir_funcs : int; warnings : int; errors : int }

(* One module through the public entry points. Traced, every pipeline
   stage runs (and is timed) on its own; untraced, [Pipeline.lower]
   runs the same stage list. *)
let compile_module tracer (name, build) =
  let span layer label f =
    match tracer with Some tr -> Span.with_span tr ~layer label f | None -> f ()
  in
  let built = span "frontend.build" name build in
  let options = options built in
  let lowered =
    match tracer with
    | None -> Relax_passes.Pipeline.lower ~options ~device built.Llm.mod_
    | Some tr ->
        List.fold_left
          (fun m (st : Relax_passes.Pipeline.stage) ->
            let stage = st.Relax_passes.Pipeline.stage_name in
            Span.with_span tr ~layer:("passes." ^ stage) stage (fun () ->
                st.Relax_passes.Pipeline.run m))
          built.Llm.mod_
          (Relax_passes.Pipeline.stages ~options ~device)
  in
  ignore (span "passes.to_vm" "To_vm.compile" (fun () -> Relax_passes.To_vm.compile lowered));
  let diags =
    span "analysis.verify" "Verify.check_module" (fun () ->
        Relax_passes.Verify.check_module ~bounds:options.Relax_passes.Pipeline.upper_bounds
          lowered)
  in
  let errors = List.length (Analysis.Diag.errors diags) in
  {
    tir_funcs = List.length (Relax_core.Ir_module.tir_funcs lowered);
    warnings = List.length diags - errors;
    errors;
  }

let zoo_size = List.length zoo
let module_at = let a = Array.of_list zoo in fun i -> a.(i mod zoo_size)

(* Simulated RTX 4090 decode step of Llama3-8B F16 at context 1024
   (the Fig. 14/17 shape: the mean of three steps, as fig17 reports)
   and its planned activation peak (Table 2). *)
let sim_step () =
  let built = Llm.decode_paged Configs.llama3_8b ~batch:1 Llm.F16 in
  let program = Relax_passes.Pipeline.compile ~options:(options built) ~device built.Llm.mod_ in
  let alloc = Runtime.Allocator.create `Planned in
  let vm = Runtime.Vm.create ~allocator:alloc (`Timed device) program in
  let args = Llm.args_for built ~ctx:1024 ~mode:`Shadow () in
  for _ = 1 to 3 do
    ignore (Runtime.Vm.run vm built.Llm.entry args)
  done;
  let st = Runtime.Vm.stats vm in
  ( st.Runtime.Vm.elapsed_us /. 3000.0,
    float_of_int (Runtime.Allocator.peak_bytes alloc) /. 1048576.0,
    float_of_int st.Runtime.Vm.kernel_launches /. 3.0,
    float_of_int st.Runtime.Vm.graph_replays /. 3.0 )

(* One op compiles one module, cycling through the zoo; a module that
   raises or reports an Error diagnostic counts as failed. *)
let run c =
  (* Set-up is a warm-up pass: the first pass pays one-time costs. *)
  setup c (fun () -> for i = 0 to zoo_size - 1 do ignore (compile_module None (module_at i)) done);
  let g0 = gc_words () in
  let tir = ref 0 and warn = ref 0 in
  let op tracer i =
    (match compile_module tracer (module_at i) with
    | o ->
        if o.errors > 0 then fail c.rep 1;
        if tracer = None && i < zoo_size then begin
          tir := !tir + o.tir_funcs;
          warn := !warn + o.warnings
        end
    | exception _ -> fail c.rep 1);
    1.0
  in
  let ops, speed = timed ~min_ops:zoo_size ~seconds:(phase_seconds c) (op None) in
  record_phase c ~align:zoo_size (ops, speed);
  record_gc c ops g0;
  layer c.rep "passes.tir_funcs" "count" (float_of_int !tir);
  layer c.rep "analysis.warnings" "count" (float_of_int !warn);
  let ((decode_ms, plan_mib, launches, replays) as sim) = sim_step () in
  check c.rep "sim.bit_stable" (sim = sim_step ());
  layer c.rep "sim.decode_ms" "sim_ms" decode_ms;
  layer c.rep "sim.plan_mib" "MiB" plan_mib;
  layer c.rep "vm.sim_launches" "count" launches;
  layer c.rep "vm.sim_graph_replays" "count" replays;
  note c.rep "inputs are the fixed zoo; the seed is ignored";
  if c.trace then begin
    let tr = Span.create () in
    let tops, _ = timed ~min_ops:zoo_size ~tracer:tr ~seconds:(phase_seconds c) (op (Some tr)) in
    record_trace c ~untraced:ops ~traced:tops tr
  end
