(** Registry of external operator-library routines (§4.6).

    Mirrors the paper's vendor libraries (cuBLAS, CUTLASS, ...): each
    routine has a numeric implementation — deliberately written as
    plain OCaml loops, independent of the TIR interpreter, as a
    genuinely foreign code path — and a cost descriptor consumed by
    the device timing model. Routines follow destination-passing
    style: the last argument is the output.

    The standard routines ([<vendor>.matmul], [<vendor>.rms_norm])
    are registered at module load for the vendor prefixes [cublas],
    [rocblas] and [mps]. *)

type cost = {
  flops : float;
  bytes : float;
  small_batch : bool;
      (** the GEMV-shaped case where a padded library GEMM wastes
          bandwidth and compiler-generated kernels win (§5.1) *)
}

type impl = {
  name : string;
  compute : Base.Ndarray.t array -> unit;
  cost_fn : int array array -> Base.Dtype.t -> cost;
      (** argument shapes (output last) and dtype *)
}

val register : impl -> unit
(** Replaces any previous registration of the same name. *)

val find : string -> impl option
val registered : unit -> string list

val vendor_prefix : Device.backend -> string option
(** The library namespace available on a backend ([cublas] for CUDA,
    [rocblas] for ROCm, [mps] for Metal); [None] for backends without
    vendor libraries (Vulkan, OpenCL, WebGPU, CPU). *)

(** {1 Collectives}

    Cross-device collective routines for tensor-parallel sharded
    modules (DESIGN.md §13), registered as [ccl.all_gather] and
    [ccl.all_reduce]. Calling convention: arguments are the per-shard
    inputs [x_0 … x_{w-1}] in shard order followed by the output [y]
    (world size = argument count − 1). The VM charges their time from
    {!Device.link} instead of the memory roofline and emits
    {!Trace.Collective} events.

    [ccl.all_gather] concatenates shards along the last axis —
    bit-identical to the unsharded tensor the shards were sliced from.
    [ccl.all_reduce] sums shards as a left fold in shard order 0…w−1 —
    deterministic across runs, but a different association than an
    unsharded single sum. *)

val is_collective : string -> bool
(** True for routines in the [ccl.] namespace. *)
