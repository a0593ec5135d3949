(* Unit tests for the runtime layer: allocators, device roofline,
   library implementations vs generated kernels, VM instruction
   mechanics (storage caching across invocations, pool recycling,
   shape values, tuples), and re-normalization's annotation
   tightening. *)

open Relax_core

let e = Arith.Expr.const
let f32 = Base.Dtype.F32

(* ---------- allocator ---------- *)

let test_allocator_kinds () =
  (* Planned: free releases memory. *)
  let a = Runtime.Allocator.create `Planned in
  let id1 = Runtime.Allocator.alloc a 100 in
  let _id2 = Runtime.Allocator.alloc a 50 in
  Alcotest.(check int) "live" 150 (Runtime.Allocator.live_bytes a);
  Runtime.Allocator.free a id1;
  Alcotest.(check int) "freed" 50 (Runtime.Allocator.live_bytes a);
  Alcotest.(check int) "peak sticks" 150 (Runtime.Allocator.peak_bytes a);
  (* Pooling: freed blocks stay resident and are reused by exact size. *)
  let p = Runtime.Allocator.create `Pooling in
  let b1 = Runtime.Allocator.alloc p 100 in
  Runtime.Allocator.free p b1;
  Alcotest.(check int) "pool keeps block resident" 100
    (Runtime.Allocator.live_bytes p);
  let b2 = Runtime.Allocator.alloc p 100 in
  Alcotest.(check int) "exact-size reuse" b1 b2;
  Alcotest.(check int) "no growth on reuse" 100 (Runtime.Allocator.live_bytes p);
  let _b3 = Runtime.Allocator.alloc p 101 in
  Alcotest.(check int) "different size allocates fresh" 201
    (Runtime.Allocator.live_bytes p);
  Alcotest.(check int) "two fresh allocations" 2 (Runtime.Allocator.alloc_count p)

(* Pool introspection: the serving engine's admission control reads
   the recyclable pool; fragmentation is the idle fraction. *)
let test_allocator_pool_introspection () =
  let p = Runtime.Allocator.create `Pooling in
  Alcotest.(check int) "empty pool" 0 (Runtime.Allocator.pool_free_bytes p);
  Alcotest.(check (float 0.0)) "empty fragmentation" 0.0
    (Runtime.Allocator.fragmentation p);
  let b1 = Runtime.Allocator.alloc p 100 in
  let b2 = Runtime.Allocator.alloc p 300 in
  Alcotest.(check int) "nothing freed yet" 0
    (Runtime.Allocator.pool_free_bytes p);
  Runtime.Allocator.free p b1;
  Alcotest.(check int) "freed block pools" 100
    (Runtime.Allocator.pool_free_bytes p);
  Alcotest.(check (float 1e-9)) "quarter idle" 0.25
    (Runtime.Allocator.fragmentation p);
  Runtime.Allocator.free p b2;
  Alcotest.(check int) "both pooled" 400 (Runtime.Allocator.pool_free_bytes p);
  Alcotest.(check (float 1e-9)) "fully idle" 1.0
    (Runtime.Allocator.fragmentation p);
  let b1' = Runtime.Allocator.alloc p 100 in
  Alcotest.(check int) "reuse drains the pool" 300
    (Runtime.Allocator.pool_free_bytes p);
  ignore b1';
  (* Non-pooling kinds never report pool residue. *)
  List.iter
    (fun kind ->
      let a = Runtime.Allocator.create kind in
      let id = Runtime.Allocator.alloc a 64 in
      Runtime.Allocator.free a id;
      Alcotest.(check int) "no pool" 0 (Runtime.Allocator.pool_free_bytes a))
    [ `Planned ]

(* ---------- device roofline ---------- *)

let test_device_roofline () =
  let d = Runtime.Device.rtx4090 in
  (* Memory-bound: huge bytes, no flops. *)
  let m = Runtime.Device.kernel_time_us d Base.Dtype.F16 ~flops:0.0 ~bytes:1e9 ~compute_eff:0.5 in
  Alcotest.(check bool) "1 GB takes about a millisecond" true
    (m > 1000.0 && m < 2000.0);
  (* Compute-bound: huge flops, no bytes. *)
  let c = Runtime.Device.kernel_time_us d Base.Dtype.F16 ~flops:1e12 ~bytes:0.0 ~compute_eff:0.5 in
  Alcotest.(check bool) "1 TFLOP in the ~12 ms regime" true
    (c > 8000.0 && c < 20000.0);
  (* Roofline is the max of the two. *)
  let both = Runtime.Device.kernel_time_us d Base.Dtype.F16 ~flops:1e12 ~bytes:1e9 ~compute_eff:0.5 in
  Alcotest.(check (float 1e-6)) "max of compute and memory" (Float.max m c) both;
  (* Monotone in both inputs. *)
  Alcotest.(check bool) "monotone in bytes" true
    (Runtime.Device.kernel_time_us d Base.Dtype.F16 ~flops:0.0 ~bytes:2e9 ~compute_eff:0.5 > m);
  Alcotest.(check bool) "every preset is findable by name" true
    (List.for_all
       (fun (p : Runtime.Device.t) ->
         Runtime.Device.find p.Runtime.Device.name <> None)
       Runtime.Device.all_presets)

(* ---------- library numeric vs generated kernels ---------- *)

let test_library_matmul_agrees_with_kernel () =
  (* The "vendor library" is an independent implementation: its result
     must match the generated TIR matmul bit-for-bit on shared inputs. *)
  let impl = Option.get (Runtime.Library.find "cublas.matmul") in
  let x = Base.Ndarray.random_uniform ~seed:1 f32 [| 5; 8 |] in
  let w = Base.Ndarray.random_uniform ~seed:2 f32 [| 8; 6 |] in
  let lib_out = Base.Ndarray.create f32 [| 5; 6 |] in
  impl.Runtime.Library.compute [| x; w; lib_out |];
  let kernel =
    Tir.Kernels.matmul_weights ~name:"mm" ~m:(e 5) ~k:(e 8) ~n:(e 6) f32
  in
  let gen_out = Base.Ndarray.create f32 [| 5; 6 |] in
  Tir.Interp.run kernel [ x; w; gen_out ];
  Alcotest.(check bool) "library == generated" true
    (Base.Ndarray.equal_approx ~eps:1e-9 gen_out lib_out);
  (* Batched x against shared weights. *)
  let xb = Base.Ndarray.random_uniform ~seed:3 f32 [| 2; 3; 8 |] in
  let lb = Base.Ndarray.create f32 [| 2; 3; 6 |] in
  impl.Runtime.Library.compute [| xb; w; lb |];
  let bk =
    Tir.Kernels.matmul_weights ~name:"bmm" ~batch:[ e 2 ] ~m:(e 3) ~k:(e 8)
      ~n:(e 6) f32
  in
  let gb = Base.Ndarray.create f32 [| 2; 3; 6 |] in
  Tir.Interp.run bk [ xb; w; gb ];
  Alcotest.(check bool) "batched library == generated" true
    (Base.Ndarray.equal_approx ~eps:1e-9 gb lb)

let test_library_rms_norm_agrees () =
  let impl = Option.get (Runtime.Library.find "cublas.rms_norm") in
  let x = Base.Ndarray.random_uniform ~seed:4 f32 [| 3; 8 |] in
  let w = Base.Ndarray.random_uniform ~seed:5 f32 [| 8 |] in
  let lib_out = Base.Ndarray.create f32 [| 3; 8 |] in
  impl.Runtime.Library.compute [| x; w; lib_out |];
  let kernel = Tir.Kernels.rms_norm ~name:"rn" [ e 3; e 8 ] ~eps:1e-5 f32 in
  let gen_out = Base.Ndarray.create f32 [| 3; 8 |] in
  Tir.Interp.run kernel [ x; w; gen_out ];
  Alcotest.(check bool) "rms_norm library == generated" true
    (Base.Ndarray.equal_approx ~eps:1e-6 gen_out lib_out)

(* ---------- gather traffic model ---------- *)

let test_gather_traffic () =
  (* Embedding lookup must be charged per access, not per table
     footprint: 4 rows out of a 1000-row table. *)
  let k =
    Tir.Kernels.take_rows ~name:"take" ~rows:(e 1000) ~width:(e 8)
      ~num_indices:(e 4) f32
  in
  let cost = Tir.Cost.analyze k in
  let lookup _ = 0 in
  let read = Arith.Expr.eval lookup cost.Tir.Cost.bytes_read in
  (* 4 x 8 table elements + 4 indices, not 1000 x 8. *)
  Alcotest.(check bool)
    (Printf.sprintf "gather reads %d bytes (not the 32000-byte table)" read)
    true
    (read < 1000 && read >= (4 * 8 * 4) + (4 * 4))

(* ---------- VM mechanics ---------- *)

let test_storage_cache_across_invocations () =
  (* A planned program allocates its storages once; later invocations
     reuse them (static plan semantics). *)
  let nv = Arith.Var.fresh "n" in
  let b = Builder.create () in
  Builder.function_ b ~name:"main"
    ~params:[ ("x", Struct_info.tensor [ Arith.Expr.var nv; e 4 ] f32) ]
    (fun params ->
      match params with
      | [ x ] ->
          Builder.dataflow b (fun () ->
              let a = Builder.emit b (Expr.call_op "exp" [ Expr.Var x ]) in
              let c = Builder.emit b (Expr.call_op "relu" [ Expr.Var a ]) in
              Expr.Var c)
      | _ -> assert false);
  let program =
    Relax_passes.Pipeline.compile
      ~options:
        { Relax_passes.Pipeline.default_options with
          Relax_passes.Pipeline.upper_bounds = [ (nv, 8) ] }
      ~device:Runtime.Device.rtx4090 (Builder.module_ b)
  in
  let alloc = Runtime.Allocator.create `Planned in
  let vm = Runtime.Vm.create ~allocator:alloc `Numeric program in
  let run n =
    ignore
      (Runtime.Vm.run vm "main"
         [ Runtime.Vm.tensor (Base.Ndarray.random_uniform ~seed:n f32 [| n; 4 |]) ])
  in
  run 2;
  let after_first = Runtime.Allocator.alloc_count alloc in
  run 4;
  run 8;
  Alcotest.(check int) "no new storage on later invocations" after_first
    (Runtime.Allocator.alloc_count alloc)

let test_make_shape_and_tuples () =
  (* Direct instruction-level program: shapes and tuples round-trip. *)
  let m = Arith.Var.fresh "m" in
  let prog =
    {
      Runtime.Vm.funcs =
        [ ( "main",
            {
              Runtime.Vm.fname = "main";
              nparams = 1;
              nregs = 5;
              instrs =
                [| Runtime.Vm.Match_shape
                     { src = 0; dims = [| Arith.Expr.var m |] };
                   Runtime.Vm.Make_shape
                     {
                       dst = 1;
                       dims = [| Arith.Expr.mul (Arith.Expr.var m) (e 3) |];
                     };
                   Runtime.Vm.Make_tuple { dst = 2; srcs = [| 0; 1 |] };
                   Runtime.Vm.Get_tuple { dst = 3; src = 2; index = 1 };
                   Runtime.Vm.Ret 3 |];
              prov = [| None; None; None; None; None |];
            } ) ];
      mod_ = Ir_module.empty;
    }
  in
  let vm = Runtime.Vm.create `Numeric prog in
  match
    Runtime.Vm.run vm "main"
      [ Runtime.Vm.tensor (Base.Ndarray.create f32 [| 7 |]) ]
  with
  | Runtime.Vm.Shape_val [| x |] ->
      Alcotest.(check int) "m * 3 computed from the bound shape" 21 x
  | _ -> Alcotest.fail "expected a shape value"

(* ---------- renormalization ---------- *)

let test_renormalize_tightens () =
  (* Build a function whose intermediate is deliberately coarsened,
     then check the pass restores the symbolic annotation. *)
  let nv = Arith.Var.fresh "n" in
  let en = Arith.Expr.var nv in
  let x = Rvar.fresh "x" (Struct_info.tensor [ en; e 4 ] f32) in
  let coarse = Rvar.fresh "lv" (Struct_info.tensor_ndim 2 f32) in
  let out = Rvar.fresh "o" (Struct_info.tensor [ en; e 4 ] f32) in
  let body =
    Expr.Seq
      {
        blocks =
          [ { Expr.dataflow = true;
              bindings =
                [ Expr.Bind (coarse, Expr.call_op "exp" [ Expr.Var x ]);
                  Expr.Bind (out, Expr.call_op "relu" [ Expr.Var coarse ]) ] } ];
        body = Expr.Var out;
      }
  in
  let f =
    { Expr.params = [ x ]; ret_sinfo = Rvar.sinfo out; body; attrs = [] }
  in
  let mod_ = Ir_module.add_func Ir_module.empty "main" f in
  let mod_ = Relax_passes.Renormalize.run mod_ in
  let f' = Option.get (Ir_module.find_func mod_ "main") in
  let blocks, _ = Expr.body_blocks f' in
  match List.concat_map (fun (blk : Expr.block) -> blk.Expr.bindings) blocks with
  | [ Expr.Bind (v1, _); Expr.Bind (_, _) ] ->
      Alcotest.(check bool) "coarse annotation tightened to (n, 4)" true
        (Struct_info.equal (Rvar.sinfo v1) (Struct_info.tensor [ en; e 4 ] f32))
  | _ -> Alcotest.fail "unexpected structure"

let () =
  Alcotest.run "runtime"
    [ ( "allocator",
        [ Alcotest.test_case "kinds" `Quick test_allocator_kinds;
          Alcotest.test_case "pool introspection" `Quick
            test_allocator_pool_introspection ] );
      ( "device",
        [ Alcotest.test_case "roofline" `Quick test_device_roofline ] );
      ( "library",
        [ Alcotest.test_case "matmul agrees" `Quick
            test_library_matmul_agrees_with_kernel;
          Alcotest.test_case "rms_norm agrees" `Quick
            test_library_rms_norm_agrees ] );
      ( "cost",
        [ Alcotest.test_case "gather traffic" `Quick test_gather_traffic ] );
      ( "vm",
        [ Alcotest.test_case "storage cache" `Quick
            test_storage_cache_across_invocations;
          Alcotest.test_case "shapes and tuples" `Quick
            test_make_shape_and_tuples ] );
      ( "renormalize",
        [ Alcotest.test_case "tightens coarse annotations" `Quick
            test_renormalize_tightens ] ) ]
