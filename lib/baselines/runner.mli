(** Execute a workload under a baseline profile and report simulated
    time — the benchmark harness's measurement primitive. *)

type workload = {
  mod_ : Relax_core.Ir_module.t;
  entry : string;
  bounds : (Arith.Var.t * int) list;
  args : ctx:int -> Runtime.Vm.value list;  (** shadow arguments *)
  max_context : int;
}

val of_llm : Frontend.Llm.built -> workload
val of_whisper : Frontend.Whisper.decoder -> workload
val of_encoder : Frontend.Encoder.t -> workload

val step_us :
  Profiles.t ->
  device:Runtime.Device.t ->
  workload ->
  ctx:int ->
  float option
(** Average simulated time of one entry invocation (three timed
    repetitions; graph capture amortizes over the replays), plus the
    profile's host overheads. [None] when the profile does not
    support the device. A static-KV profile is charged at
    [min max_context 2048] cache length. *)
