(* End-to-end tests for the transformer frontend: tiny models run
   numerically through every pipeline configuration and must agree
   bit-for-bit; paper-scale models run in timed mode and must land in
   a plausible performance regime. *)

let opts = Relax_passes.Pipeline.default_options

let compile_built ?(options = opts) ~device (built : Frontend.Llm.built) =
  let options =
    { options with
      Relax_passes.Pipeline.upper_bounds = Frontend.Llm.upper_bound_hints built }
  in
  Relax_passes.Pipeline.compile ~options ~device built.Frontend.Llm.mod_

let logits_of value =
  match value with
  | Runtime.Vm.Tuple_val (logits :: _) -> Runtime.Vm.value_tensor logits
  | _ -> Alcotest.fail "expected a (logits, caches...) tuple"

let run_numeric ?options ~device built ~ctx =
  let program = compile_built ?options ~device built in
  let vm = Runtime.Vm.create `Numeric program in
  let args = Frontend.Llm.args_for built ~ctx ~seed:100 ~mode:`Numeric () in
  (Runtime.Vm.run vm built.Frontend.Llm.entry args, vm)

let test_tiny_decode_configs_agree () =
  let built = Frontend.Llm.decode Frontend.Configs.tiny ~batch:2 Frontend.Llm.F16 in
  let variants =
    [ ("all on", opts);
      ("no fusion", { opts with Relax_passes.Pipeline.fusion = false });
      ("no planning",
        { opts with Relax_passes.Pipeline.memory_plan = false; graph_capture = false });
      ("all off", Relax_passes.Pipeline.all_off) ]
  in
  let results =
    List.map
      (fun (name, options) ->
        let v, _ = run_numeric ~options ~device:Runtime.Device.rtx4090 built ~ctx:5 in
        (name, logits_of v))
      variants
  in
  match results with
  | (_, reference) :: rest ->
      Alcotest.(check (array int)) "logits shape" [| 2; 32 |]
        reference.Base.Ndarray.shape;
      List.iter
        (fun (name, actual) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s agrees with all-on" name)
            true
            (Base.Ndarray.equal_approx ~eps:1e-9 reference actual))
        rest
  | [] -> Alcotest.fail "no results"

let test_tiny_decode_gqa () =
  (* Grouped-query attention path (kv_heads < heads). *)
  let built = Frontend.Llm.decode Frontend.Configs.tiny_gqa ~batch:1 Frontend.Llm.F16 in
  let v, _ = run_numeric ~device:Runtime.Device.rtx4090 built ~ctx:3 in
  let logits = logits_of v in
  Alcotest.(check (array int)) "logits shape" [| 1; 32 |] logits.Base.Ndarray.shape;
  (* Caches grew by one position. *)
  match v with
  | Runtime.Vm.Tuple_val (_ :: kc :: _) ->
      Alcotest.(check (array int)) "cache grew"
        [| 1; 2; 4; 4 |]
        (Runtime.Vm.value_shape kc)
  | _ -> Alcotest.fail "expected tuple"

let test_tiny_quantized_decode () =
  let built = Frontend.Llm.decode Frontend.Configs.tiny_q ~batch:1 Frontend.Llm.Q4 in
  let v, vm = run_numeric ~device:Runtime.Device.rtx4090 built ~ctx:2 in
  let logits = logits_of v in
  Alcotest.(check (array int)) "logits shape" [| 1; 64 |] logits.Base.Ndarray.shape;
  (* Figure 9's effect: the quantization decodes fused into matmuls, so
     launches stay moderate (no separate decode kernels at batch 1). *)
  let stats = Runtime.Vm.stats vm in
  Alcotest.(check bool) "ran kernels" true (stats.Runtime.Vm.kernel_launches > 0);
  (* Same logits with fusion disabled. *)
  let v2, _ =
    run_numeric
      ~options:{ opts with Relax_passes.Pipeline.fusion = false }
      ~device:Runtime.Device.rtx4090 built ~ctx:2
  in
  Alcotest.(check bool) "fusion-independent numerics" true
    (Base.Ndarray.equal_approx ~eps:1e-9 logits (logits_of v2))

let test_tiny_q3_decode () =
  let built = Frontend.Llm.decode Frontend.Configs.tiny_q ~batch:1 Frontend.Llm.Q3 in
  let v, _ = run_numeric ~device:Runtime.Device.samsung_s23 built ~ctx:2 in
  Alcotest.(check (array int)) "logits shape" [| 1; 64 |]
    (logits_of v).Base.Ndarray.shape

let test_tiny_prefill () =
  let built = Frontend.Llm.prefill Frontend.Configs.tiny Frontend.Llm.F16 in
  let v, _ = run_numeric ~device:Runtime.Device.rtx4090 built ~ctx:6 in
  let logits = logits_of v in
  Alcotest.(check (array int)) "last-token logits" [| 1; 32 |]
    logits.Base.Ndarray.shape;
  match v with
  | Runtime.Vm.Tuple_val (_ :: kc :: _) ->
      Alcotest.(check (array int)) "prefill cache layout"
        [| 1; 2; 6; 4 |]
        (Runtime.Vm.value_shape kc)
  | _ -> Alcotest.fail "expected tuple"

let test_prefill_then_decode_consistency () =
  (* The decode step must accept prefill-produced caches: the symbolic
     context length threads across functions. *)
  let cfg = Frontend.Configs.tiny in
  let pre = Frontend.Llm.prefill cfg Frontend.Llm.F16 in
  let dec = Frontend.Llm.decode cfg ~batch:1 Frontend.Llm.F16 in
  let pre_prog = compile_built ~device:Runtime.Device.rtx4090 pre in
  let dec_prog = compile_built ~device:Runtime.Device.rtx4090 dec in
  let pre_vm = Runtime.Vm.create `Numeric pre_prog in
  let pre_args = Frontend.Llm.args_for pre ~ctx:4 ~seed:7 ~mode:`Numeric () in
  let pre_out = Runtime.Vm.run pre_vm pre.Frontend.Llm.entry pre_args in
  let caches =
    match pre_out with
    | Runtime.Vm.Tuple_val (_ :: caches) -> caches
    | _ -> Alcotest.fail "expected tuple"
  in
  let dec_vm = Runtime.Vm.create `Numeric dec_prog in
  let dec_args_template = Frontend.Llm.args_for dec ~ctx:4 ~seed:7 ~mode:`Numeric () in
  (* Replace the cache placeholders (positions 1..2*layers) with the
     prefill outputs. *)
  let dec_args =
    List.mapi
      (fun i arg ->
        if i >= 1 && i <= List.length caches then List.nth caches (i - 1)
        else arg)
      dec_args_template
  in
  let out = Runtime.Vm.run dec_vm dec.Frontend.Llm.entry dec_args in
  Alcotest.(check (array int)) "decode after prefill" [| 1; 32 |]
    (logits_of out).Base.Ndarray.shape

let test_qkv_bias_config () =
  (* Qwen2-style projection biases: the model builds, runs, and the
     bias parameters demonstrably reach the computation. *)
  let cfg = { Frontend.Configs.tiny with Frontend.Configs.qkv_bias = true } in
  let built = Frontend.Llm.decode cfg ~batch:1 Frontend.Llm.F16 in
  Alcotest.(check bool) "bias parameters declared" true
    (List.exists (fun (n, _) -> n = "l0_bq") built.Frontend.Llm.params);
  let v, _ = run_numeric ~device:Runtime.Device.rtx4090 built ~ctx:3 in
  let l1 = logits_of v in
  (* Same seeds but with one bias zeroed-out differs from random bias. *)
  let args = Frontend.Llm.args_for built ~ctx:3 ~seed:100 ~mode:`Numeric () in
  let args_zeroed =
    List.mapi
      (fun i a ->
        match (List.nth built.Frontend.Llm.params i, a) with
        | (name, _), Runtime.Vm.Tensor nd when name = "l0_bq" ->
            let z = Base.Ndarray.create nd.Base.Ndarray.dtype nd.Base.Ndarray.shape in
            Runtime.Vm.tensor z
        | _ -> a)
      args
  in
  let program = compile_built ~device:Runtime.Device.rtx4090 built in
  let vm = Runtime.Vm.create `Numeric program in
  let l2 = logits_of (Runtime.Vm.run vm built.Frontend.Llm.entry args_zeroed) in
  Alcotest.(check bool) "bias changes the logits" false
    (Base.Ndarray.equal_approx ~eps:1e-9 l1 l2)

let test_llama3_timed_plausible () =
  (* Full-size Llama3-8B decode in timed mode on the 4090 model: the
     simulated per-token latency must be in the tens of milliseconds
     (memory-bound over ~16 GB of f16 weights). *)
  let built = Frontend.Llm.decode Frontend.Configs.llama3_8b ~batch:1 Frontend.Llm.F16 in
  let program = compile_built ~device:Runtime.Device.rtx4090 built in
  let vm = Runtime.Vm.create (`Timed Runtime.Device.rtx4090) program in
  let args = Frontend.Llm.args_for built ~ctx:1024 ~mode:`Shadow () in
  ignore (Runtime.Vm.run vm "decode" args);
  ignore (Runtime.Vm.run vm "decode" args);
  let stats = Runtime.Vm.stats vm in
  let per_token_ms = stats.Runtime.Vm.elapsed_us /. 2.0 /. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "latency plausible (%.2f ms)" per_token_ms)
    true
    (per_token_ms > 10.0 && per_token_ms < 60.0)

(* ---------- IR pins ---------- *)

(* MD5 of the printed module of one build per builder variant. The
   tp = 1 rows pin the exact IR (and so the parameter order that seeds
   every numeric weight); sharded rows sort the entry parameters first,
   since Dist.Tp.shard_args routes weights by name, not position. *)
let ir_digest ?(sort_params = false) (b : Frontend.Llm.built) =
  let open Relax_core in
  let m =
    if not sort_params then b.Frontend.Llm.mod_
    else
      Ir_module.map_funcs
        (fun name (f : Expr.func) ->
          if name <> b.Frontend.Llm.entry then f
          else
            {
              f with
              Expr.params =
                List.sort
                  (fun x y -> compare (Rvar.name x) (Rvar.name y))
                  f.Expr.params;
            })
        b.Frontend.Llm.mod_
  in
  Digest.to_hex (Digest.string (Printer.module_to_string m))

let ir_pins =
  let open Frontend in
  let flat label build digest = (label, (fun () -> ir_digest (build ())), digest) in
  let tp label build digest =
    ( label,
      (fun () -> ir_digest ~sort_params:true (build ()).Llm.sbuilt),
      digest )
  in
  [ flat "tiny decode f16"
      (fun () -> Llm.decode Configs.tiny ~batch:2 Llm.F16)
      "f79aeaf46c8fbc5984f00bd6ee124172";
    flat "tiny decode_symbolic_batch f16"
      (fun () -> Llm.decode_symbolic_batch Configs.tiny Llm.F16)
      "8fe3ff0ae9cb59442ae286255c44e8d9";
    flat "tiny decode_paged f16"
      (fun () -> Llm.decode_paged Configs.tiny ~batch:2 Llm.F16)
      "67d8d6b12db24bc30894863eb57e9c7b";
    flat "tiny prefill f16" (fun () -> Llm.prefill Configs.tiny Llm.F16) "273153e855554d427f181ef96c662438";
    flat "tiny decode_paged q3"
      (fun () -> Llm.decode_paged Configs.tiny ~batch:2 Llm.Q3)
      "08514fc43a076db5736df027ba48f7bc";
    flat "tiny-q decode_paged q4"
      (fun () -> Llm.decode_paged Configs.tiny_q ~batch:2 Llm.Q4)
      "5859c9b9896f390868b3dc624e2bf2fb";
    flat "tiny-q prefill q4" (fun () -> Llm.prefill Configs.tiny_q Llm.Q4) "f127fb99a9ca4d63de8dd4766df5fac9";
    flat "qwen2-7b decode_paged f16"
      (fun () -> Llm.decode_paged Configs.qwen2_7b ~batch:1 Llm.F16)
      "eaadfa07c6c8918c7b57a079a3a141f1";
    flat "gemma-7b decode_paged f16"
      (fun () -> Llm.decode_paged Configs.gemma_7b ~batch:1 Llm.F16)
      "a642727b78d0c57351d5eb1e81214362";
    flat "redpajama-3b decode_paged q4"
      (fun () -> Llm.decode_paged Configs.redpajama_3b ~batch:1 Llm.Q4)
      "953ced6077721d311ad6cab20fd312f0" ]
  @ List.concat_map
      (fun (tp_, strategy, sname, d_digest, p_digest) ->
        [ tp
            (Printf.sprintf "tiny-tp decode_paged_tp tp=%d %s" tp_ sname)
            (fun () ->
              Llm.decode_paged_tp ~strategy Configs.tiny_tp ~batch:2 ~tp:tp_ ())
            d_digest;
          tp
            (Printf.sprintf "tiny-tp prefill_tp tp=%d %s" tp_ sname)
            (fun () -> Llm.prefill_tp ~strategy Configs.tiny_tp ~tp:tp_ ())
            p_digest ])
      [ (2, Llm.Gather, "gather", 
          "f243334325266cc49e6a8a5e8e856464",
          "f2c647ab8247508dfd2f010961566eb1");
        (2, Llm.Reduce, "reduce", 
          "d1e6e5bd55f1fdfb91563ef5b2a35303",
          "7981220d088d83186cc7cbf214e4bd75");
        (4, Llm.Gather, "gather", 
          "d4c30729bfd9176effa85bd2f29016f5",
          "cd3e56cf4b7dc9e6c6d4051bc57a9831");
        (4, Llm.Reduce, "reduce", 
          "70f44562d564a97cd46dc091154a105a",
          "435ca4c696ee60fdf9cb149f003f6204") ]

let test_ir_pins () =
  let mismatches =
    List.filter_map
      (fun (label, digest, expected) ->
        let got = digest () in
        if got = expected then None
        else Some (Printf.sprintf "%s: expected %s, got %s" label expected got))
      ir_pins
  in
  if mismatches <> [] then
    Alcotest.failf "printed IR changed:\n%s" (String.concat "\n" mismatches)

let () =
  Alcotest.run "llm"
    [ ( "numeric",
        [ Alcotest.test_case "decode configs agree" `Quick
            test_tiny_decode_configs_agree;
          Alcotest.test_case "grouped-query attention" `Quick test_tiny_decode_gqa;
          Alcotest.test_case "q4 decode (Fig 9 path)" `Quick
            test_tiny_quantized_decode;
          Alcotest.test_case "q3 decode" `Quick test_tiny_q3_decode;
          Alcotest.test_case "prefill" `Quick test_tiny_prefill;
          Alcotest.test_case "prefill feeds decode" `Quick
            test_prefill_then_decode_consistency;
          Alcotest.test_case "qkv biases (Qwen2)" `Quick test_qkv_bias_config ] );
      ("ir", [ Alcotest.test_case "builder IR pins" `Quick test_ir_pins ]);
      ( "timed",
        [ Alcotest.test_case "llama3-8b latency regime" `Quick
            test_llama3_timed_plausible ] ) ]
