(* Tests for the encoder-decoder (Whisper) and vision-encoder (LLaVA)
   frontends: numeric runs at tiny scale, timed runs at paper scale. *)

let compile ?(options = Relax_passes.Pipeline.default_options) ~device ~bounds mod_ =
  let options = { options with Relax_passes.Pipeline.upper_bounds = bounds } in
  Relax_passes.Pipeline.compile ~options ~device mod_

let test_encoder_numeric () =
  let enc =
    Frontend.Encoder.build ~name:"enc" ~seq:4 ~hidden:8 ~heads:2 ~head_dim:4
      ~inter:16 ~layers:2 ()
  in
  let program = compile ~device:Runtime.Device.rtx4090 ~bounds:[] enc.Frontend.Encoder.mod_ in
  let vm = Runtime.Vm.create `Numeric program in
  let args = Frontend.Encoder.args_for enc ~mode:(`Numeric 3) in
  let out = Runtime.Vm.run vm "enc" args in
  Alcotest.(check (array int)) "encoder output shape" [| 4; 8 |]
    (Runtime.Vm.value_shape out);
  (* Projection variant. *)
  let encp =
    Frontend.Encoder.build ~name:"encp" ~seq:4 ~hidden:8 ~heads:2 ~head_dim:4
      ~inter:16 ~layers:1 ~proj_out:12 ()
  in
  let program = compile ~device:Runtime.Device.rtx4090 ~bounds:[] encp.Frontend.Encoder.mod_ in
  let vm = Runtime.Vm.create `Numeric program in
  let out =
    Runtime.Vm.run vm "encp" (Frontend.Encoder.args_for encp ~mode:(`Numeric 5))
  in
  Alcotest.(check (array int)) "projected output shape" [| 4; 12 |]
    (Runtime.Vm.value_shape out)

let test_whisper_decoder_numeric () =
  let s = Frontend.Whisper.tiny_sizes in
  let dec = Frontend.Whisper.decoder_step s in
  let program =
    compile ~device:Runtime.Device.rtx4090
      ~bounds:(Frontend.Whisper.upper_bound_hints dec)
      dec.Frontend.Whisper.mod_
  in
  let vm = Runtime.Vm.create `Numeric program in
  let args = Frontend.Whisper.decoder_args dec ~ctx:3 ~mode:(`Numeric 9) in
  match Runtime.Vm.run vm dec.Frontend.Whisper.entry args with
  | Runtime.Vm.Tuple_val (logits :: kc :: _) ->
      Alcotest.(check (array int)) "logits" [| 1; 32 |]
        (Runtime.Vm.value_shape logits);
      Alcotest.(check (array int)) "self cache grew" [| 1; 2; 4; 4 |]
        (Runtime.Vm.value_shape kc)
  | _ -> Alcotest.fail "expected tuple"

let test_whisper_decoder_matches_eager () =
  let s = Frontend.Whisper.tiny_sizes in
  let dec = Frontend.Whisper.decoder_step s in
  let args = Frontend.Whisper.decoder_args dec ~ctx:2 ~mode:(`Numeric 21) in
  let eager_out, _ =
    Baselines.Eager.run ~entry:dec.Frontend.Whisper.entry
      dec.Frontend.Whisper.mod_ args
  in
  let program =
    compile ~device:Runtime.Device.rtx4090
      ~bounds:(Frontend.Whisper.upper_bound_hints dec)
      dec.Frontend.Whisper.mod_
  in
  let vm = Runtime.Vm.create `Numeric program in
  match (eager_out, Runtime.Vm.run vm dec.Frontend.Whisper.entry args) with
  | Runtime.Vm.Tuple_val (el :: _), Runtime.Vm.Tuple_val (cl :: _) ->
      Alcotest.(check bool) "whisper decoder eager == compiled" true
        (Base.Ndarray.equal_approx ~eps:1e-9
           (Runtime.Vm.value_tensor el)
           (Runtime.Vm.value_tensor cl))
  | _ -> Alcotest.fail "expected tuples"

let test_whisper_large_timed () =
  (* Paper-scale whisper decode step on the 4090 model: dominated by
     ~1.9 GB of f16 decoder+encoder-cross weights per step. *)
  let s = Frontend.Whisper.large_v3 in
  let dec = Frontend.Whisper.decoder_step s in
  let program =
    compile ~device:Runtime.Device.rtx4090
      ~bounds:(Frontend.Whisper.upper_bound_hints dec)
      dec.Frontend.Whisper.mod_
  in
  let vm = Runtime.Vm.create (`Timed Runtime.Device.rtx4090) program in
  let args = Frontend.Whisper.decoder_args dec ~ctx:64 ~mode:`Shadow in
  ignore (Runtime.Vm.run vm dec.Frontend.Whisper.entry args);
  let ms = (Runtime.Vm.stats vm).Runtime.Vm.elapsed_us /. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "decode step plausible (%.2f ms)" ms)
    true
    (ms > 0.5 && ms < 20.0)

let test_llava_vision_timed () =
  let enc = Frontend.Llava.vision_encoder () in
  let program =
    compile ~device:Runtime.Device.rtx4090 ~bounds:[] enc.Frontend.Encoder.mod_
  in
  let vm = Runtime.Vm.create (`Timed Runtime.Device.rtx4090) program in
  let args = Frontend.Encoder.args_for enc ~mode:`Shadow in
  let out = Runtime.Vm.run vm "clip_vit_encode" args in
  Alcotest.(check (array int)) "projected to LLM hidden" [| 576; 4096 |]
    (Runtime.Vm.value_shape out);
  let ms = (Runtime.Vm.stats vm).Runtime.Vm.elapsed_us /. 1000.0 in
  (* ViT-L over 576 patches is a few tens of GFLOPs: a few ms. *)
  Alcotest.(check bool)
    (Printf.sprintf "vision encode plausible (%.2f ms)" ms)
    true
    (ms > 0.2 && ms < 50.0)

let () =
  Alcotest.run "whisper_llava"
    [ ( "encoder",
        [ Alcotest.test_case "numeric" `Quick test_encoder_numeric ] );
      ( "whisper",
        [ Alcotest.test_case "decoder numeric" `Quick
            test_whisper_decoder_numeric;
          Alcotest.test_case "decoder eager equivalence" `Quick
            test_whisper_decoder_matches_eager;
          Alcotest.test_case "large-v3 timed" `Quick test_whisper_large_timed ]
      );
      ( "llava",
        [ Alcotest.test_case "vision encoder timed" `Quick
            test_llava_vision_timed ] ) ]
