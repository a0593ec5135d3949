(** A genuine eager-mode executor — the HF-Transformers-with-PyTorch-
    eager baseline mechanism, implemented as our own code path.

    No compilation: the Relax function is walked binding by binding;
    each graph operator is legalized to a tensor program on the fly,
    a fresh output is allocated, and the kernel runs through a
    {!Tir.Exec.Cache}. No fusion, no memory planning, no graph
    capture — exactly the mechanisms the paper's eager baseline lacks.
    It is a numeric reference: tests compare compiled VM outputs
    against it. The eager baseline's simulated cost is modeled by
    {!Profiles.hf_eager}, not here. *)

type stats = { mutable ops : int }  (** kernels executed *)

val run :
  ?entry:string ->
  ?backend:Tir.Exec.backend ->
  Relax_core.Ir_module.t ->
  Runtime.Vm.value list ->
  Runtime.Vm.value * stats
(** Execute the entry function ([main] by default) eagerly;
    [backend] picks the kernel execution backend (default imp, with
    proof-elided bounds checks — see {!Tir.Exec}).
    Cross-level calls ([call_tir]) are executed directly; graph
    operators are legalized per call. Tuple results are supported.
    @raise Failure on unsupported constructs. *)
