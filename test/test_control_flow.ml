(* Structured control flow (If): builder, deduction join, lowering,
   VM Cond execution, eager equivalence — and the paper's §5.1 runtime
   dispatch pattern (generated matrix-vector kernel at batch 1,
   library GEMM otherwise) expressed with a symbolic condition. *)

open Relax_core

let e = Arith.Expr.const
let f32 = Base.Dtype.F32

(* main(x: (n, 4)) = if n - 1 then exp(x) else relu(x) *)
let build_branching () =
  let nv = Arith.Var.fresh "n" in
  let en = Arith.Expr.var nv in
  let b = Builder.create () in
  Builder.function_ b ~name:"main"
    ~params:[ ("x", Struct_info.tensor [ en; e 4 ] f32) ]
    (fun params ->
      match params with
      | [ x ] ->
          let v =
            Builder.emit_if b
              ~cond:(Expr.Prim_value (Arith.Expr.sub en (e 1)))
              ~then_:(fun () ->
                let a = Builder.emit b (Expr.call_op "exp" [ Expr.Var x ]) in
                let c = Builder.emit b (Expr.call_op "relu" [ Expr.Var a ]) in
                Expr.Var c)
              ~else_:(fun () ->
                Expr.Var (Builder.emit b (Expr.call_op "relu" [ Expr.Var x ])))
              ()
          in
          Expr.Var v
      | _ -> assert false);
  (Builder.module_ b, nv)

let compile mod_ nv =
  Relax_passes.Pipeline.compile
    ~options:
      { Relax_passes.Pipeline.default_options with
        Relax_passes.Pipeline.upper_bounds = [ (nv, 8) ] }
    ~device:Runtime.Device.rtx4090 mod_

let test_if_deduction_join () =
  let mod_, _ = build_branching () in
  let f = Option.get (Ir_module.find_func mod_ "main") in
  (* Both branches have the same (n, 4) annotation: the join keeps it. *)
  match f.Expr.ret_sinfo with
  | Struct_info.Tensor { shape = Struct_info.Known [ _; last ]; _ } ->
      Alcotest.(check bool) "joined shape" true
        (Arith.Simplify.prove_equal last (e 4))
  | si -> Alcotest.failf "unexpected %s" (Struct_info.to_string si)

let test_if_both_paths_numeric () =
  let mod_, nv = build_branching () in
  let program = compile mod_ nv in
  let vm = Runtime.Vm.create `Numeric program in
  let run n =
    let x = Base.Ndarray.random_uniform ~seed:9 f32 [| n; 4 |] in
    let out =
      Runtime.Vm.value_tensor (Runtime.Vm.run vm "main" [ Runtime.Vm.tensor x ])
    in
    (x, out)
  in
  (* n = 1: else branch (relu only). *)
  let x1, out1 = run 1 in
  let expect1 =
    Base.Ndarray.init_float f32 [| 1; 4 |] (fun i ->
        Float.max 0.0 (Base.Ndarray.get_float x1 i))
  in
  Alcotest.(check bool) "n=1 takes else branch" true
    (Base.Ndarray.equal_approx ~eps:1e-9 expect1 out1);
  (* n = 3: then branch (relu (exp x)) — exp is positive, so = exp x. *)
  let x3, out3 = run 3 in
  let expect3 =
    Base.Ndarray.init_float f32 [| 3; 4 |] (fun i ->
        exp (Base.Ndarray.get_float x3 i))
  in
  Alcotest.(check bool) "n=3 takes then branch" true
    (Base.Ndarray.equal_approx ~eps:1e-9 expect3 out3)

let test_if_matches_eager () =
  let mod_, nv = build_branching () in
  let program = compile mod_ nv in
  let vm = Runtime.Vm.create `Numeric program in
  List.iter
    (fun n ->
      let args =
        [ Runtime.Vm.tensor (Base.Ndarray.random_uniform ~seed:(n + 1) f32 [| n; 4 |]) ]
      in
      let eager_out, _ = Baselines.Eager.run mod_ args in
      let compiled_out = Runtime.Vm.run vm "main" args in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d eager == compiled" n)
        true
        (Base.Ndarray.equal_approx ~eps:1e-9
           (Runtime.Vm.value_tensor eager_out)
           (Runtime.Vm.value_tensor compiled_out)))
    [ 1; 2; 5 ]

let test_if_splits_dataflow () =
  (* The If binding lands outside the dataflow region (§3.1). *)
  let mod_, _ = build_branching () in
  let f = Option.get (Ir_module.find_func mod_ "main") in
  Well_formed.assert_well_formed mod_;
  let blocks, _ = Expr.body_blocks f in
  Alcotest.(check bool) "if binding in a non-dataflow block" true
    (List.exists
       (fun (blk : Expr.block) ->
         (not blk.Expr.dataflow)
         && List.exists
              (fun bd ->
                match Expr.bound_expr bd with Expr.If _ -> true | _ -> false)
              blk.Expr.bindings)
       blocks)

let test_batch_dispatch_pattern () =
  (* The §5.1 pattern: a runtime dispatch on the symbolic batch size
     between the compiler's matrix-vector kernel and the library GEMM —
     expressible directly in the IR. *)
  let nv = Arith.Var.fresh "n" in
  let en = Arith.Expr.var nv in
  let b = Builder.create () in
  let gemv =
    Tir.Kernels.matmul_weights ~name:"gemv" ~m:en ~k:(e 4) ~n:(e 6) f32
  in
  Builder.function_ b ~name:"main"
    ~params:
      [ ("x", Struct_info.tensor [ en; e 4 ] f32);
        ("w", Struct_info.tensor [ e 4; e 6 ] f32) ]
    (fun params ->
      match params with
      | [ x; w ] ->
          let v =
            Builder.emit_if b
              ~cond:(Expr.Prim_value (Arith.Expr.sub en (e 1)))
              ~then_:(fun () ->
                (* batch > 1: vendor library *)
                Expr.Var
                  (Builder.emit_call_dps_library b "cublas.matmul"
                     [ Expr.Var x; Expr.Var w ]
                     ~out:(Struct_info.tensor [ en; e 6 ] f32)
                     ()))
              ~else_:(fun () ->
                (* batch = 1: generated matrix-vector kernel *)
                Expr.Var
                  (Builder.emit_call_tir b gemv
                     [ Expr.Var x; Expr.Var w ]
                     ~out:(Struct_info.tensor [ en; e 6 ] f32)
                     ()))
              ()
          in
          Expr.Var v
      | _ -> assert false);
  let program = compile (Builder.module_ b) nv in
  let vm = Runtime.Vm.create `Numeric program in
  let w = Base.Ndarray.random_uniform ~seed:2 f32 [| 4; 6 |] in
  let check n =
    let x = Base.Ndarray.random_uniform ~seed:n f32 [| n; 4 |] in
    let out =
      Runtime.Vm.value_tensor
        (Runtime.Vm.run vm "main" [ Runtime.Vm.tensor x; Runtime.Vm.tensor w ])
    in
    (* reference through the TIR kernel *)
    let y = Base.Ndarray.create f32 [| n; 6 |] in
    Tir.Interp.run gemv [ x; w; y ];
    Alcotest.(check bool) (Printf.sprintf "n=%d" n) true
      (Base.Ndarray.equal_approx ~eps:1e-6 y out)
  in
  check 1;
  check 4;
  let st = Runtime.Vm.stats vm in
  Alcotest.(check bool) "library path taken once (n=4)" true
    (st.Runtime.Vm.lib_calls = 1);
  Alcotest.(check bool) "generated path taken once (n=1)" true
    (st.Runtime.Vm.kernel_launches = 1)

let () =
  Alcotest.run "control_flow"
    [ ( "if",
        [ Alcotest.test_case "deduction join" `Quick test_if_deduction_join;
          Alcotest.test_case "both paths numeric" `Quick
            test_if_both_paths_numeric;
          Alcotest.test_case "eager equivalence" `Quick test_if_matches_eager;
          Alcotest.test_case "splits dataflow region" `Quick
            test_if_splits_dataflow;
          Alcotest.test_case "batch-1 dispatch pattern (§5.1)" `Quick
            test_batch_dispatch_pattern ] ) ]
