(* Failure injection: every layer must fail loudly and precisely, not
   silently compute garbage — malformed modules, arity and rank
   violations, runtime shape-check failures, storage overflows,
   unknown names, invalid schedules, duplicate registrations. *)

open Relax_core

let e = Arith.Expr.const
let f32 = Base.Dtype.F32

(* ---------- ndarray / base ---------- *)

let test_ndarray_errors () =
  (match Base.Ndarray.create f32 [| 2; -1 |] with
  | _ -> Alcotest.fail "negative dim accepted"
  | exception Invalid_argument _ -> ());
  let t = Base.Ndarray.create f32 [| 2; 3 |] in
  (match Base.Ndarray.get_float t [| 2; 0 |] with
  | _ -> Alcotest.fail "out-of-bounds accepted"
  | exception Invalid_argument _ -> ());
  (match Base.Ndarray.get_float t [| 0 |] with
  | _ -> Alcotest.fail "rank mismatch accepted"
  | exception Invalid_argument _ -> ());
  (match Base.Ndarray.reshape_view t [| 7 |] with
  | _ -> Alcotest.fail "bad reshape accepted"
  | exception Invalid_argument _ -> ());
  match Base.Ndarray.of_float_list f32 [| 2 |] [ 1.0 ] with
  | _ -> Alcotest.fail "length mismatch accepted"
  | exception Invalid_argument _ -> ()

(* ---------- operator registry ---------- *)

let test_op_registry_errors () =
  (match Op.register "add" (fun ~args:_ ~arg_sinfo:_ -> Struct_info.Object) with
  | () -> Alcotest.fail "duplicate registration accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (option Alcotest.reject)) "unknown op has no rule" None
    (Option.map (fun _ -> assert false) (Op.deduce_rule "no_such_op"))

let test_deduce_errors () =
  let t1 = Struct_info.tensor [ e 2; e 3 ] f32 in
  let t2 = Struct_info.tensor [ e 2; e 4 ] f32 in
  let v si = Expr.Var (Rvar.fresh "v" si) in
  let mod_ = Ir_module.empty in
  (match Deduce.expr_sinfo mod_ (Expr.call_op "add" [ v t1; v t2 ]) with
  | _ -> Alcotest.fail "incompatible add deduced"
  | exception Deduce.Error _ -> ());
  (match Deduce.expr_sinfo mod_ (Expr.call_op "nonexistent" [ v t1 ]) with
  | _ -> Alcotest.fail "unknown op deduced"
  | exception Deduce.Error _ -> ());
  (match Deduce.expr_sinfo mod_ (Expr.call_fn (Expr.Global_var "missing") []) with
  | _ -> Alcotest.fail "call to missing global deduced"
  | exception Deduce.Error _ -> ());
  (* arity mismatch against a signature *)
  match
    Deduce.signature_call_sinfo ~params:[ t1; t1 ] ~ret:t1 ~args:[ t1 ]
  with
  | _ -> Alcotest.fail "arity mismatch deduced"
  | exception Deduce.Error _ -> ()

(* ---------- VM runtime failures ---------- *)

let simple_program () =
  let nv = Arith.Var.fresh "n" in
  let b = Builder.create () in
  Builder.function_ b ~name:"main"
    ~params:[ ("x", Struct_info.tensor [ Arith.Expr.var nv; e 4 ] f32) ]
    (fun params ->
      match params with
      | [ x ] ->
          Builder.dataflow b (fun () ->
              Expr.Var (Builder.emit b (Expr.call_op "exp" [ Expr.Var x ])))
      | _ -> assert false);
  Relax_passes.Pipeline.compile
    ~options:
      { Relax_passes.Pipeline.default_options with
        Relax_passes.Pipeline.upper_bounds = [ (nv, 8) ] }
    ~device:Runtime.Device.rtx4090 (Builder.module_ b)

let test_vm_errors () =
  let program = simple_program () in
  let vm = Runtime.Vm.create `Numeric program in
  (* missing function *)
  (match Runtime.Vm.run vm "nope" [] with
  | _ -> Alcotest.fail "missing function accepted"
  | exception Runtime.Vm.Vm_error _ -> ());
  (* arity *)
  (match Runtime.Vm.run vm "main" [] with
  | _ -> Alcotest.fail "bad arity accepted"
  | exception Runtime.Vm.Vm_error _ -> ());
  (* rank mismatch *)
  (match
     Runtime.Vm.run vm "main"
       [ Runtime.Vm.tensor (Base.Ndarray.create f32 [| 4 |]) ]
   with
  | _ -> Alcotest.fail "rank mismatch accepted"
  | exception Runtime.Vm.Vm_error _ -> ());
  (* static-dim mismatch (last dim must be 4) *)
  (match
     Runtime.Vm.run vm "main"
       [ Runtime.Vm.tensor (Base.Ndarray.create f32 [| 2; 5 |]) ]
   with
  | _ -> Alcotest.fail "dim mismatch accepted"
  | exception Runtime.Vm.Vm_error _ -> ());
  (* exceeding the planned upper bound must fail the storage fit *)
  match
    Runtime.Vm.run vm "main"
      [ Runtime.Vm.tensor (Base.Ndarray.create f32 [| 100; 4 |]) ]
  with
  | _ -> Alcotest.fail "upper-bound overflow accepted"
  | exception Runtime.Vm.Vm_error _ -> ()

let test_vm_shadow_vs_numeric_mismatch () =
  let program = simple_program () in
  let vm = Runtime.Vm.create (`Timed Runtime.Device.rtx4090) program in
  let out =
    Runtime.Vm.run vm "main" [ Runtime.Vm.shadow_of_shape f32 [ 2; 4 ] ]
  in
  (* Timed-mode results carry no data. *)
  match Runtime.Vm.value_tensor out with
  | _ -> Alcotest.fail "shadow tensor yielded data"
  | exception Runtime.Vm.Vm_error _ -> ()

(* A malformed kernel call is a Vm_error in both modes: the VM re-raises
   the Runtime_error of Tir.Interp.bind_shapes. *)
let test_vm_kernel_call_errors () =
  let k = Tir.Kernels.unary ~name:"id" ~op:(fun x -> x) [ e 4 ] f32 in
  let t n = Runtime.Vm.tensor (Base.Ndarray.create f32 [| n |]) in
  List.iter
    (fun (mode, args, n) ->
      let instrs =
        Runtime.Vm.[| Call_kernel { kernel = "id"; args; sym_args = [||] }; Ret 1 |]
      in
      let main =
        { Runtime.Vm.fname = "main"; nparams = 2; nregs = 2; instrs; prov = [||] }
      in
      let mod_ = Ir_module.add_tir Ir_module.empty "id" k in
      let vm = Runtime.Vm.create mode { Runtime.Vm.funcs = [ ("main", main) ]; mod_ } in
      match Runtime.Vm.run vm "main" [ t n; t 4 ] with
      | _ -> Alcotest.fail "malformed kernel call accepted"
      | exception Runtime.Vm.Vm_error _ -> ())
    [ (`Numeric, [| 0 |], 4); (`Numeric, [| 0; 1 |], 5);
      (`Timed Runtime.Device.rtx4090, [| 0 |], 4) ]

(* ---------- match_cast runtime check ---------- *)

let test_match_cast_runtime_check () =
  (* match_cast to (m, m) succeeds for square inputs only. *)
  let b = Builder.create () in
  let m = Arith.Var.fresh "m" in
  Builder.function_ b ~name:"main"
    ~params:[ ("x", Struct_info.tensor_ndim 2 f32) ]
    (fun params ->
      match params with
      | [ x ] ->
          let sq =
            Builder.emit_match_cast b (Expr.Var x)
              (Struct_info.tensor [ Arith.Expr.var m; Arith.Expr.var m ] f32)
          in
          Expr.Var sq
      | _ -> assert false);
  let program =
    Relax_passes.Pipeline.compile
      ~options:
        { Relax_passes.Pipeline.default_options with
          Relax_passes.Pipeline.memory_plan = false;
          graph_capture = false }
      ~device:Runtime.Device.rtx4090 (Builder.module_ b)
  in
  let vm = Runtime.Vm.create `Numeric program in
  (* square passes *)
  ignore
    (Runtime.Vm.run vm "main"
       [ Runtime.Vm.tensor (Base.Ndarray.create f32 [| 3; 3 |]) ]);
  (* non-square violates the asserted annotation *)
  match
    Runtime.Vm.run vm "main"
      [ Runtime.Vm.tensor (Base.Ndarray.create f32 [| 2; 3 |]) ]
  with
  | _ -> Alcotest.fail "match_cast violation accepted"
  | exception Runtime.Vm.Vm_error _ -> ()

(* ---------- library registry ---------- *)

let test_library_errors () =
  Alcotest.(check bool) "unknown extern absent" true
    (Runtime.Library.find "acme.sparse_attention" = None);
  let program = simple_program () in
  let vm = Runtime.Vm.create `Numeric program in
  ignore vm;
  (* calling an unregistered extern through the VM *)
  let bad =
    {
      Runtime.Vm.funcs =
        [ ( "main",
            {
              Runtime.Vm.fname = "main";
              nparams = 1;
              nregs = 2;
              instrs =
                [| Runtime.Vm.Call_extern { func = "ghost.fn"; args = [| 0 |] };
                   Runtime.Vm.Ret 0 |];
              prov = [| None; None |];
            } ) ];
      mod_ = Ir_module.empty;
    }
  in
  let vm2 = Runtime.Vm.create `Numeric bad in
  match
    Runtime.Vm.run vm2 "main"
      [ Runtime.Vm.tensor (Base.Ndarray.create f32 [| 1 |]) ]
  with
  | _ -> Alcotest.fail "unregistered extern accepted"
  | exception Runtime.Vm.Vm_error _ -> ()

(* ---------- custom dispatch patterns (§4.6 customizability) ---------- *)

let test_custom_dispatch_pattern () =
  (* Users can register their own (pattern, library fn) pairs: dispatch
     exp to a custom vendor routine. *)
  Runtime.Library.register
    {
      Runtime.Library.name = "acme.exp";
      compute =
        (fun args ->
          match args with
          | [| x; y |] ->
              for i = 0 to Base.Ndarray.numel x - 1 do
                Base.Ndarray.set_flat_float y i
                  (exp (Base.Ndarray.get_flat_float x i))
              done
          | _ -> invalid_arg "acme.exp");
      cost_fn =
        (fun shapes _ ->
          let n =
            Array.fold_left (fun acc s -> acc + Array.fold_left ( * ) 1 s) 0 shapes
          in
          { Runtime.Library.flops = float_of_int n; bytes = float_of_int (4 * n); small_batch = false });
    };
  let nv = Arith.Var.fresh "n" in
  let b = Builder.create () in
  Builder.function_ b ~name:"main"
    ~params:[ ("x", Struct_info.tensor [ Arith.Expr.var nv; e 4 ] f32) ]
    (fun params ->
      match params with
      | [ x ] ->
          Builder.dataflow b (fun () ->
              Expr.Var (Builder.emit b (Expr.call_op "exp" [ Expr.Var x ])))
      | _ -> assert false);
  let mod_ =
    Relax_passes.Dispatch_library.run
      ~patterns:
        [ { Relax_passes.Dispatch_library.op_name = "exp";
            library_fn = (fun _ -> "acme.exp");
            min_batch = 0 } ]
      ~vendor:"acme" (Builder.module_ b)
  in
  let f = Option.get (Ir_module.find_func mod_ "main") in
  let blocks, _ = Expr.body_blocks f in
  let has_extern =
    List.exists
      (fun (blk : Expr.block) ->
        List.exists
          (fun bd -> Expr.as_call_dps_library (Expr.bound_expr bd) <> None)
          blk.Expr.bindings)
      blocks
  in
  Alcotest.(check bool) "exp dispatched to acme.exp" true has_extern;
  (* and it computes correctly through the custom implementation *)
  let program =
    Relax_passes.Pipeline.compile
      ~options:
        { Relax_passes.Pipeline.default_options with
          Relax_passes.Pipeline.upper_bounds = [ (nv, 8) ] }
      ~device:Runtime.Device.rtx4090 mod_
  in
  let vm = Runtime.Vm.create `Numeric program in
  let x = Base.Ndarray.of_float_list f32 [| 1; 4 |] [ 0.; 1.; 2.; 3. ] in
  let out =
    Runtime.Vm.value_tensor (Runtime.Vm.run vm "main" [ Runtime.Vm.tensor x ])
  in
  List.iter2
    (fun got v -> Alcotest.(check (float 1e-9)) "custom extern" (exp v) got)
    (Base.Ndarray.to_float_list out)
    [ 0.; 1.; 2.; 3. ]

let () =
  Alcotest.run "errors"
    [ ("base", [ Alcotest.test_case "ndarray" `Quick test_ndarray_errors ]);
      ( "registry",
        [ Alcotest.test_case "ops" `Quick test_op_registry_errors;
          Alcotest.test_case "deduce" `Quick test_deduce_errors;
          Alcotest.test_case "library" `Quick test_library_errors;
          Alcotest.test_case "custom dispatch" `Quick test_custom_dispatch_pattern ] );
      ( "vm",
        [ Alcotest.test_case "runtime failures" `Quick test_vm_errors;
          Alcotest.test_case "shadow has no data" `Quick
            test_vm_shadow_vs_numeric_mismatch;
          Alcotest.test_case "kernel call errors" `Quick
            test_vm_kernel_call_errors;
          Alcotest.test_case "match_cast check" `Quick
            test_match_cast_runtime_check ] ) ]
