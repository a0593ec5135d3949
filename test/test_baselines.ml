(* Baseline tests: the eager executor must agree numerically with the
   compiled VM; profiles must reproduce the paper's qualitative
   platform support and ordering. *)

open Relax_core

let e = Arith.Expr.const
let f32 = Base.Dtype.F32

let build_mlp () =
  let nv = Arith.Var.fresh "n" in
  let en = Arith.Expr.var nv in
  let b = Builder.create () in
  Builder.function_ b ~name:"main"
    ~params:
      [ ("x", Struct_info.tensor [ en; e 8 ] f32);
        ("w1", Struct_info.tensor [ e 8; e 16 ] f32);
        ("w2", Struct_info.tensor [ e 16; e 4 ] f32) ]
    (fun params ->
      match params with
      | [ x; w1; w2 ] ->
          Builder.dataflow b (fun () ->
              let h = Builder.emit b (Expr.call_op "matmul" [ Expr.Var x; Expr.Var w1 ]) in
              let a = Builder.emit b (Expr.call_op "relu" [ Expr.Var h ]) in
              let o = Builder.emit b (Expr.call_op "matmul" [ Expr.Var a; Expr.Var w2 ]) in
              Expr.Var o)
      | _ -> assert false);
  (Builder.module_ b, nv)

let test_eager_matches_compiled () =
  let mod_, nv = build_mlp () in
  let x = Base.Ndarray.random_uniform ~seed:1 f32 [| 5; 8 |] in
  let w1 = Base.Ndarray.random_uniform ~seed:2 f32 [| 8; 16 |] in
  let w2 = Base.Ndarray.random_uniform ~seed:3 f32 [| 16; 4 |] in
  let args = [ Runtime.Vm.tensor x; Runtime.Vm.tensor w1; Runtime.Vm.tensor w2 ] in
  let eager_out, stats = Baselines.Eager.run mod_ args in
  Alcotest.(check int) "eager op count" 3 stats.Baselines.Eager.ops;
  let options =
    { Relax_passes.Pipeline.default_options with
      Relax_passes.Pipeline.upper_bounds = [ (nv, 16) ] }
  in
  let program =
    Relax_passes.Pipeline.compile ~options ~device:Runtime.Device.rtx4090 mod_
  in
  let vm = Runtime.Vm.create `Numeric program in
  let compiled_out = Runtime.Vm.run vm "main" args in
  Alcotest.(check bool) "eager equals compiled" true
    (Base.Ndarray.equal_approx ~eps:1e-9
       (Runtime.Vm.value_tensor eager_out)
       (Runtime.Vm.value_tensor compiled_out))

let test_eager_llm_decode () =
  (* Eager tree-walking over the full tiny-LLM decode step, against the
     compiled pipeline. *)
  let built = Frontend.Llm.decode Frontend.Configs.tiny ~batch:1 Frontend.Llm.F16 in
  let args = Frontend.Llm.args_for built ~ctx:3 ~seed:42 ~mode:`Numeric () in
  let eager_out, stats =
    Baselines.Eager.run ~entry:"decode" built.Frontend.Llm.mod_ args
  in
  Alcotest.(check bool) "many eager ops" true (stats.Baselines.Eager.ops > 20);
  let options =
    { Relax_passes.Pipeline.default_options with
      Relax_passes.Pipeline.upper_bounds = Frontend.Llm.upper_bound_hints built }
  in
  let program =
    Relax_passes.Pipeline.compile ~options ~device:Runtime.Device.rtx4090
      built.Frontend.Llm.mod_
  in
  let vm = Runtime.Vm.create `Numeric program in
  let compiled_out = Runtime.Vm.run vm "decode" args in
  match (eager_out, compiled_out) with
  | Runtime.Vm.Tuple_val (el :: _), Runtime.Vm.Tuple_val (cl :: _) ->
      Alcotest.(check bool) "eager decode equals compiled decode" true
        (Base.Ndarray.equal_approx ~eps:1e-9
           (Runtime.Vm.value_tensor el)
           (Runtime.Vm.value_tensor cl))
  | _ -> Alcotest.fail "expected tuples"

let test_profile_support_matrix () =
  let open Baselines.Profiles in
  Alcotest.(check bool) "vLLM lacks Apple support" false
    (vllm.supports Runtime.Device.m2_ultra);
  Alcotest.(check bool) "compile mode lacks Apple support" false
    (hf_compile.supports Runtime.Device.m2_ultra);
  Alcotest.(check bool) "llama.cpp supports Apple" true
    (llama_cpp.supports Runtime.Device.m2_ultra);
  Alcotest.(check bool) "everything supports CUDA" true
    (List.for_all (fun p -> p.supports Runtime.Device.rtx4090) all_llm);
  (* llama.cpp on Android falls back to CPU. *)
  let d = llama_cpp.device Runtime.Device.samsung_s24 in
  Alcotest.(check bool) "llama.cpp CPU-only on Android" true
    (d.Runtime.Device.backend = Runtime.Device.Cpu)

let test_relax_wins_batch1_cuda () =
  (* Figure 14's headline: Relax at batch 1 beats every baseline on the
     4090 (compiler gemv + fusion + graphs). *)
  let built = Frontend.Llm.decode Frontend.Configs.llama3_8b ~batch:1 Frontend.Llm.F16 in
  let w = Baselines.Runner.of_llm built in
  let device = Runtime.Device.rtx4090 in
  let times =
    List.filter_map
      (fun p ->
        Option.map
          (fun us -> (p.Baselines.Profiles.name, us))
          (Baselines.Runner.step_us p ~device w ~ctx:1024))
      Baselines.Profiles.all_llm
  in
  let relax_t = List.assoc "Relax" times in
  List.iter
    (fun (name, t) ->
      if name <> "Relax" then
        Alcotest.(check bool)
          (Printf.sprintf "Relax <= %s (%.1f vs %.1f ms)" name (relax_t /. 1e3)
             (t /. 1e3))
          true (relax_t <= t))
    times

let test_llamacpp_wins_apple () =
  (* Figure 16: hand-optimized llama.cpp is the strongest baseline on
     Apple silicon; Relax stays within ~15%. *)
  let built = Frontend.Llm.decode Frontend.Configs.llama3_8b ~batch:1 Frontend.Llm.F16 in
  let w = Baselines.Runner.of_llm built in
  let device = Runtime.Device.m2_ultra in
  let l = Option.get (Baselines.Runner.step_us Baselines.Profiles.llama_cpp ~device w ~ctx:1024) in
  let r = Option.get (Baselines.Runner.step_us Baselines.Profiles.relax ~device w ~ctx:1024) in
  Alcotest.(check bool) "llama.cpp leads on Apple" true (l < r);
  Alcotest.(check bool) "Relax competitive on Apple" true (r /. l < 1.2)

let () =
  Alcotest.run "baselines"
    [ ( "eager",
        [ Alcotest.test_case "mlp equivalence" `Quick test_eager_matches_compiled;
          Alcotest.test_case "llm decode equivalence" `Quick
            test_eager_llm_decode ] );
      ( "profiles",
        [ Alcotest.test_case "support matrix" `Quick test_profile_support_matrix;
          Alcotest.test_case "relax wins batch-1 CUDA" `Quick
            test_relax_wins_batch1_cuda;
          Alcotest.test_case "llama.cpp leads Apple" `Quick
            test_llamacpp_wins_apple ] ) ]
