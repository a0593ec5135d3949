type workload = {
  mod_ : Relax_core.Ir_module.t;
  entry : string;
  bounds : (Arith.Var.t * int) list;
  args : ctx:int -> Runtime.Vm.value list;
  max_context : int;
}

let of_llm (built : Frontend.Llm.built) =
  {
    mod_ = built.Frontend.Llm.mod_;
    entry = built.Frontend.Llm.entry;
    bounds = Frontend.Llm.upper_bound_hints built;
    args = (fun ~ctx -> Frontend.Llm.args_for built ~ctx ~mode:`Shadow ());
    max_context = built.Frontend.Llm.config.Frontend.Configs.max_context;
  }

let of_whisper (dec : Frontend.Whisper.decoder) =
  {
    mod_ = dec.Frontend.Whisper.mod_;
    entry = dec.Frontend.Whisper.entry;
    bounds = Frontend.Whisper.upper_bound_hints dec;
    args = (fun ~ctx -> Frontend.Whisper.decoder_args dec ~ctx ~mode:`Shadow);
    max_context = dec.Frontend.Whisper.sizes.Frontend.Whisper.text_ctx;
  }

let of_encoder (enc : Frontend.Encoder.t) =
  {
    mod_ = enc.Frontend.Encoder.mod_;
    entry = enc.Frontend.Encoder.entry;
    bounds = [];
    args = (fun ~ctx:_ -> Frontend.Encoder.args_for enc ~mode:`Shadow);
    max_context = 1;
  }

let reps = 3

let step_us (profile : Profiles.t) ~device workload ~ctx =
  if not (profile.Profiles.supports device) then None
  else begin
    let device = profile.Profiles.device device in
    let options =
      profile.Profiles.options device
        {
          Relax_passes.Pipeline.default_options with
          Relax_passes.Pipeline.upper_bounds = workload.bounds;
        }
    in
    let ctx_eff =
      if profile.Profiles.static_kv then min workload.max_context 2048
      else ctx
    in
    let program =
      Relax_passes.Pipeline.compile ~options ~device workload.mod_
    in
    let vm = Runtime.Vm.create (`Timed device) program in
    let args = workload.args ~ctx:ctx_eff in
    for _ = 1 to reps do
      ignore (Runtime.Vm.run vm workload.entry args)
    done;
    let st = Runtime.Vm.stats vm in
    let per_step =
      (st.Runtime.Vm.elapsed_us /. float_of_int reps)
      +. (float_of_int st.Runtime.Vm.kernel_launches
          /. float_of_int reps
         *. profile.Profiles.per_launch_overhead_us)
      +. profile.Profiles.per_step_overhead_us
    in
    Some per_step
  end
