(* Differential and algebraic property tests.

   The centerpiece is a program fuzzer: random dynamic-shape operator
   chains are built with the block builder, then executed through two
   fully independent paths — the eager tree-walking executor and the
   compiled VM under randomly sampled pipeline configurations — and
   must agree bit-for-bit. This exercises deduction, legalization,
   fusion, memory planning, graph capture and the VM against the same
   oracle at once. *)

open Relax_core

let f32 = Base.Dtype.F32
let e = Arith.Expr.const

(* ---------- random program construction ---------- *)

type prog = {
  opcodes : int list;  (** interpreted against the available-var pool *)
  n_value : int;  (** runtime value of the symbolic dim *)
  fusion : bool;
  library : bool;
  planning : bool;
  capture : bool;
}

let build_program (p : prog) =
  let nv = Arith.Var.fresh "n" in
  let en = Arith.Expr.var nv in
  let b = Builder.create () in
  (* Inputs: x: (n, 4), w: (4, 6), z: (n, 4). *)
  let params =
    [ ("x", Struct_info.tensor [ en; e 4 ] f32);
      ("w", Struct_info.tensor [ e 4; e 6 ] f32);
      ("z", Struct_info.tensor [ en; e 4 ] f32) ]
  in
  Builder.function_ b ~name:"main" ~params (fun pvars ->
      Builder.dataflow b (fun () ->
          let pool = ref (List.map (fun v -> v) pvars) in
          let pick i = List.nth !pool (i mod List.length !pool) in
          let shape_of v = Struct_info.tensor_shape (Rvar.sinfo v) in
          let rank_of v =
            match shape_of v with Some d -> List.length d | None -> 0
          in
          let emit ex =
            let v = Builder.emit b ex in
            pool := !pool @ [ v ];
            v
          in
          List.iter
            (fun code ->
              let sel = code / 8 in
              match code mod 8 with
              | 0 ->
                  (* unary *)
                  let ops = [| "exp"; "relu"; "tanh"; "sigmoid"; "negative" |] in
                  let v = pick sel in
                  ignore (emit (Expr.call_op ops.(sel mod 5) [ Expr.Var v ]))
              | 1 -> (
                  (* binary on two same-shape vars *)
                  let v = pick sel in
                  match
                    List.find_opt
                      (fun u ->
                        match (shape_of v, shape_of u) with
                        | Some a, Some b -> Arith.Simplify.prove_equal_shapes a b
                        | _ -> false)
                      !pool
                  with
                  | Some u ->
                      let ops = [| "add"; "multiply"; "subtract" |] in
                      ignore
                        (emit (Expr.call_op ops.(sel mod 3) [ Expr.Var v; Expr.Var u ]))
                  | None -> ())
              | 2 -> (
                  (* matmul with a constant weight matching the last dim *)
                  let v = pick sel in
                  match shape_of v with
                  | Some dims when List.length dims = 2 -> (
                      match Arith.Expr.as_const (List.nth dims 1) with
                      | Some k when k <= 8 ->
                          let w =
                            Base.Ndarray.random_uniform ~seed:(100 + sel) f32
                              [| k; 3 |]
                          in
                          ignore
                            (emit (Expr.call_op "matmul" [ Expr.Var v; Expr.Const w ]))
                      | _ -> ())
                  | _ -> ())
              | 3 ->
                  (* softmax over last axis *)
                  let v = pick sel in
                  if rank_of v >= 1 then
                    ignore (emit (Expr.call_op "softmax" [ Expr.Var v ]))
              | 4 ->
                  (* sum over last axis (keep rank >= 1 afterwards) *)
                  let v = pick sel in
                  if rank_of v >= 2 then
                    ignore (emit (Expr.call_op "sum" [ Expr.Var v ]))
              | 5 ->
                  (* flatten *)
                  let v = pick sel in
                  if rank_of v >= 1 then
                    ignore (emit (Expr.call_op "flatten" [ Expr.Var v ]))
              | 6 -> (
                  (* concat along last axis with itself *)
                  let v = pick sel in
                  if rank_of v >= 1 then
                    ignore (emit (Expr.call_op "concat" [ Expr.Var v; Expr.Var v ])))
              | _ -> (
                  (* permute a rank-2 var *)
                  let v = pick sel in
                  if rank_of v = 2 then
                    ignore
                      (emit
                         (Expr.call_op "permute_dims"
                            [ Expr.Var v; Expr.Shape_expr [ e 1; e 0 ] ]))))
            p.opcodes;
          Expr.Var (List.nth !pool (List.length !pool - 1))));
  (Builder.module_ b, nv)

let inputs_for n seed =
  [ Runtime.Vm.tensor (Base.Ndarray.random_uniform ~seed f32 [| n; 4 |]);
    Runtime.Vm.tensor (Base.Ndarray.random_uniform ~seed:(seed + 1) f32 [| 4; 6 |]);
    Runtime.Vm.tensor (Base.Ndarray.random_uniform ~seed:(seed + 2) f32 [| n; 4 |]) ]

let rec value_close a b =
  match (a, b) with
  | Runtime.Vm.Tensor x, Runtime.Vm.Tensor y ->
      Base.Ndarray.equal_approx ~eps:1e-6 x y
  | Runtime.Vm.Tuple_val xs, Runtime.Vm.Tuple_val ys ->
      List.length xs = List.length ys && List.for_all2 value_close xs ys
  | _, _ -> false

let gen_prog : prog QCheck.arbitrary =
  let open QCheck in
  let gen =
    Gen.map
      (fun (opcodes, n_value, (fusion, library, planning, capture)) ->
        { opcodes; n_value = 1 + (n_value mod 5); fusion; library; planning; capture })
      (Gen.triple
         (Gen.list_size (Gen.int_range 1 10) (Gen.int_range 0 79))
         Gen.small_nat
         (Gen.quad Gen.bool Gen.bool Gen.bool Gen.bool))
  in
  let print p =
    Printf.sprintf "ops=[%s] n=%d fusion=%b lib=%b plan=%b capture=%b"
      (String.concat ";" (List.map string_of_int p.opcodes))
      p.n_value p.fusion p.library p.planning p.capture
  in
  make ~print gen

let prop_compiled_matches_eager =
  QCheck.Test.make ~count:120 ~name:"compiled VM matches eager executor"
    gen_prog (fun p ->
      let mod_, nv = build_program p in
      Well_formed.assert_well_formed mod_;
      let args = inputs_for p.n_value 7 in
      let eager_out, _ = Baselines.Eager.run mod_ args in
      let options =
        {
          Relax_passes.Pipeline.default_options with
          Relax_passes.Pipeline.fusion = p.fusion;
          dispatch_library = p.library;
          memory_plan = p.planning;
          graph_capture = p.capture;
          upper_bounds = [ (nv, 8) ];
        }
      in
      let program =
        Relax_passes.Pipeline.compile ~options ~device:Runtime.Device.rtx4090 mod_
      in
      let vm = Runtime.Vm.create `Numeric program in
      let compiled_out = Runtime.Vm.run vm "main" args in
      value_close eager_out compiled_out)

let prop_repeat_invocations_consistent =
  (* Planned storages are cached across invocations; results must not
     change when the same program runs repeatedly with varying n. *)
  QCheck.Test.make ~count:40 ~name:"repeated invocations with varying n"
    gen_prog (fun p ->
      let mod_, nv = build_program p in
      let options =
        {
          Relax_passes.Pipeline.default_options with
          Relax_passes.Pipeline.upper_bounds = [ (nv, 8) ];
        }
      in
      let program =
        Relax_passes.Pipeline.compile ~options ~device:Runtime.Device.rtx4090 mod_
      in
      let vm = Runtime.Vm.create `Numeric program in
      List.for_all
        (fun n ->
          let args = inputs_for n 11 in
          let eager_out, _ = Baselines.Eager.run mod_ args in
          value_close eager_out (Runtime.Vm.run vm "main" args))
        [ p.n_value; ((p.n_value + 3) mod 8) + 1; p.n_value ])

(* ---------- struct info algebra ---------- *)

let gen_sinfo : Struct_info.t QCheck.arbitrary =
  let open QCheck in
  let nv = Arith.Var.fresh "n" in
  let dim =
    Gen.oneof
      [ Gen.map e (Gen.int_range 1 8);
        Gen.return (Arith.Expr.var nv);
        Gen.map
          (fun c -> Arith.Expr.mul (Arith.Expr.var nv) (e c))
          (Gen.int_range 1 4) ]
  in
  let tensor =
    Gen.map
      (fun dims -> Struct_info.Tensor { shape = Known dims; dtype = Some f32 })
      (Gen.list_size (Gen.int_range 0 3) dim)
  in
  let base =
    Gen.oneof
      [ tensor;
        Gen.map (fun n -> Struct_info.tensor_ndim n f32) (Gen.int_range 0 3);
        Gen.map (fun dims -> Struct_info.shape dims) (Gen.list_size (Gen.int_range 0 3) dim);
        Gen.return Struct_info.Object ]
  in
  let gen =
    Gen.oneof
      [ base; Gen.map (fun ts -> Struct_info.Tuple ts) (Gen.list_size (Gen.int_range 0 3) base) ]
  in
  make ~print:Struct_info.to_string gen

let prop_subsumes_reflexive =
  QCheck.Test.make ~count:200 ~name:"subsumes is reflexive" gen_sinfo
    (fun si -> Struct_info.subsumes si si)

let prop_erase_subsumes =
  QCheck.Test.make ~count:200 ~name:"erase_to_coarse subsumes the original"
    gen_sinfo (fun si -> Struct_info.subsumes (Struct_info.erase_to_coarse si) si)

let prop_equal_symmetric =
  QCheck.Test.make ~count:200 ~name:"equal is symmetric"
    QCheck.(pair gen_sinfo gen_sinfo)
    (fun (a, b) -> Struct_info.equal a b = Struct_info.equal b a)

let prop_subst_empty_id =
  QCheck.Test.make ~count:200 ~name:"subst with empty env is identity"
    gen_sinfo (fun si ->
      Struct_info.equal si (Struct_info.subst Arith.Var.Map.empty si))

(* ---------- constant folding ---------- *)

let test_fold_constants () =
  let b = Builder.create () in
  let c1 = Base.Ndarray.of_float_list f32 [| 2; 2 |] [ 1.; 2.; 3.; 4. ] in
  let c2 = Base.Ndarray.of_float_list f32 [| 2; 2 |] [ 10.; 20.; 30.; 40. ] in
  Builder.function_ b ~name:"main"
    ~params:[ ("x", Struct_info.tensor [ e 2; e 2 ] f32) ]
    (fun params ->
      match params with
      | [ x ] ->
          Builder.dataflow b (fun () ->
              let s = Builder.emit b (Expr.call_op "add" [ Expr.Const c1; Expr.Const c2 ]) in
              let t = Builder.emit b (Expr.call_op "relu" [ Expr.Var s ]) in
              let o = Builder.emit b (Expr.call_op "add" [ Expr.Var x; Expr.Var t ]) in
              Expr.Var o)
      | _ -> assert false);
  let mod_ = Relax_passes.Fold_constants.run (Builder.module_ b) in
  let mod_ = Relax_passes.Dce.run mod_ in
  let f = Option.get (Ir_module.find_func mod_ "main") in
  let blocks, _ = Expr.body_blocks f in
  let bindings = List.concat_map (fun (blk : Expr.block) -> blk.Expr.bindings) blocks in
  (* add(c1,c2) and relu(.) fold into one constant binding; the final
     data-dependent add survives. *)
  Alcotest.(check int) "folded to two bindings" 2 (List.length bindings);
  (match bindings with
  | [ Expr.Bind (_, Expr.Const nd); Expr.Bind (_, Expr.Call { callee = Expr.Op "add"; _ }) ]
    ->
      Alcotest.(check (list (float 1e-9))) "folded value"
        [ 11.; 22.; 33.; 44. ]
        (Base.Ndarray.to_float_list nd)
  | _ -> Alcotest.fail "expected a constant binding then the final add");
  (* Numeric equivalence end to end. *)
  let x = Base.Ndarray.random_uniform ~seed:3 f32 [| 2; 2 |] in
  let run m =
    let program =
      Relax_passes.Pipeline.compile ~device:Runtime.Device.rtx4090 m
    in
    let vm = Runtime.Vm.create `Numeric program in
    Runtime.Vm.value_tensor (Runtime.Vm.run vm "main" [ Runtime.Vm.tensor x ])
  in
  Alcotest.(check bool) "folded module computes the same" true
    (Base.Ndarray.equal_approx ~eps:1e-9 (run (Builder.module_ b)) (run mod_))

let () =
  Alcotest.run "properties"
    [ ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compiled_matches_eager; prop_repeat_invocations_consistent ] );
      ( "struct_info",
        List.map QCheck_alcotest.to_alcotest
          [ prop_subsumes_reflexive;
            prop_erase_subsumes;
            prop_equal_symmetric;
            prop_subst_empty_id ] );
      ( "fold",
        [ Alcotest.test_case "constant folding" `Quick test_fold_constants ] )
    ]
