(** Tensor-parallel execution harness (DESIGN.md §13).

    Builds on the sharded {!Frontend.Llm} constructors: compiles a
    sharded module through the full pipeline, slices one full-model
    weight set into per-shard parameters following the module's
    {!Frontend.Llm.shard_src} map, drives greedy decode numerically
    (the TP=1/2/4 differential tests), and reports per-device and
    interconnect time from a timed profiled step. *)

type compiled = {
  sh : Frontend.Llm.sharded;
  prog : Runtime.Vm.program;
}

val compile_decode :
  ?strategy:Frontend.Llm.tp_strategy ->
  ?verify:bool ->
  Frontend.Configs.t ->
  batch:int ->
  tp:int ->
  device:Runtime.Device.t ->
  compiled
(** Sharded [decode_paged] through {!Relax_passes.Pipeline.compile}
    with the model's upper-bound hints. [~verify:true] runs the static
    verifier (memory safety + race detection) after every pass and
    fails on any introduced error. *)

val compile_prefill :
  ?strategy:Frontend.Llm.tp_strategy ->
  ?verify:bool ->
  Frontend.Configs.t ->
  tp:int ->
  device:Runtime.Device.t ->
  compiled

val slice :
  Base.Ndarray.t -> axis:int -> shard:int -> tp:int -> Base.Ndarray.t
(** Contiguous block [shard] of [tp] along [axis] of a 2-d matrix.
    @raise Invalid_argument on non-2-d input or non-divisible extent. *)

val shard_args :
  Frontend.Llm.sharded ->
  full:(string * Base.Ndarray.t) list ->
  input:(string -> Runtime.Vm.value) ->
  Runtime.Vm.value list
(** VM arguments for a sharded build: replicated parameters copy the
    full-model tensor of the same name, sliced parameters cut their
    block out of it, and [Sh_input] parameters (ids, cur_len, KV
    caches) are supplied by [input], called with the parameter name. *)

val full_weights :
  Frontend.Configs.t -> seed:int -> (string * Base.Ndarray.t) list
(** The TP=1 [decode_paged] numeric parameter template by name — the
    single weight set every TP degree slices from, so differential
    runs compare like against like. *)

val generate :
  ?strategy:Frontend.Llm.tp_strategy ->
  ?verify:bool ->
  Frontend.Configs.t ->
  tp:int ->
  seed:int ->
  prompt:int list ->
  gen:int ->
  unit ->
  int list * Base.Ndarray.t
(** Greedy decode on a numeric VM: feed [prompt] one token per step
    through the sharded paged decoder, then generate [gen] tokens by
    argmax. Returns the generated tokens and the final step's logits.
    With the default [Gather] strategy the result is bit-identical
    across TP degrees for the same [seed] ({!bit_equal} on logits). *)

val bit_equal : Base.Ndarray.t -> Base.Ndarray.t -> bool
(** Exact equality of shape and payload — no epsilon. *)

type step_report = {
  tp : int;
  strategy : Frontend.Llm.tp_strategy;
  serial_us : float;
      (** total simulated compute+comm time: what one device would
          take running every shard's work back to back *)
  parallel_us : float;
      (** modeled wall clock: replicated work + slowest shard +
          link time (collectives serialize on the interconnect) *)
  comm_us : float;  (** time in [ccl.*] collectives *)
  collectives : int;
  per_device_us : (string * float) list;
      (** {!Runtime.Profiler.device_split} of the step *)
}

val step_report :
  ?strategy:Frontend.Llm.tp_strategy ->
  Frontend.Configs.t ->
  batch:int ->
  tp:int ->
  ctx:int ->
  device:Runtime.Device.t ->
  unit ->
  step_report
(** One timed decode step at context length [ctx], profiled. The TP
    sweep in the benchmark uses this to find the degree where
    collective cost overtakes the per-shard compute saving. *)

val report_to_string : step_report -> string
