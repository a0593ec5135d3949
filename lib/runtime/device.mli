(** Analytic device performance models.

    The paper evaluates on physical GPUs; this sealed reproduction
    substitutes a roofline model per device (see DESIGN.md §1): a
    kernel's execution time is the maximum of its compute time
    (flops / sustained throughput) and its memory time
    (bytes / sustained bandwidth), plus a per-launch driver overhead.
    Graph capture replaces per-kernel launch overheads by a single
    replay overhead (§4.5 of the paper).

    Peak numbers come from public spec sheets; sustained-efficiency
    factors are what distinguish compiler-generated kernels from
    vendor libraries (partial library lowering, §4.6) and batch-1
    matrix-vector kernels (where generated code wins in the paper). *)

type backend = Cuda | Rocm | Metal | Vulkan | Opencl | Webgpu | Cpu

type topology = Ring | Fully_connected

type link = {
  link_name : string;
  link_bw_gbps : float;  (** per-direction effective link bandwidth *)
  link_latency_us : float;  (** per-hop transfer latency *)
  topology : topology;
}
(** Inter-device interconnect description, used to charge collective
    communication when a model is tensor-parallel sharded across
    simulated devices (DESIGN.md §13). *)

val pcie_gen4 : link
val pcie_gen3 : link
val nvlink : link
val unified_memory : link

val all_reduce_us : link -> world:int -> bytes:float -> float
(** Ring all-reduce latency for a full tensor of [bytes] across
    [world] peers: [2(w−1)/w · bytes/bw] plus per-hop latencies
    ([2(w−1)] hops on a ring, 2 on a fully connected fabric).
    Zero when [world <= 1]. *)

val all_gather_us : link -> world:int -> bytes:float -> float
(** Ring all-gather latency: [(w−1)/w · bytes/bw] plus [w−1] hop
    latencies (1 on a fully connected fabric). [bytes] is the size of
    the full gathered tensor. Zero when [world <= 1]. *)

val collective_wire_bytes :
  op:[ `All_reduce | `All_gather ] -> world:int -> bytes:float -> float
(** Bytes the link actually carries for a collective over a full
    tensor of [bytes] (the bandwidth term's numerator). *)

type t = {
  name : string;
  backend : backend;
  peak_gflops_f16 : float;
  peak_gflops_f32 : float;
  mem_bw_gbps : float;
  launch_overhead_us : float;
  graph_replay_overhead_us : float;
  supports_graph_capture : bool;
  vram_gb : float;
  gen_eff : float;  (** sustained fraction for compiler-generated kernels *)
  gen_gemv_eff : float;  (** same, for batch-1 matrix-vector workloads *)
  lib_gemm_eff : float;  (** vendor library GEMM efficiency; 0 = no library *)
  mem_eff : float;  (** sustained fraction of peak bandwidth *)
  step_overhead_us : float;
      (** fixed host cost per model invocation (e.g. browser JS and
          command-buffer submission on WebGPU) *)
  gen_gemm_traffic : float;
      (** traffic amplification of compiler-generated matmul-like
          kernels at high arithmetic intensity: imperfect tiling
          re-reads operands that a vendor library's blocked kernels
          stream once — the gap partial library lowering closes
          (§4.6, Figure 17) *)
  link : link;
      (** interconnect between peer instances of this device when
          sharded tensor-parallel *)
}

val peak_gflops : t -> Base.Dtype.t -> float

val kernel_time_us :
  t -> Base.Dtype.t -> flops:float -> bytes:float -> compute_eff:float -> float
(** Roofline kernel time, excluding launch overhead, with compute at
    the dtype's peak ({!peak_gflops}). *)

val has_library : t -> bool

(** {1 Device presets used in the paper's evaluation} *)

val rtx4090 : t  (** Figures 14, 17, 19, 20; Tables 2 *)

val rx7900xtx : t  (** Figure 15 *)

val m2_ultra : t  (** Figures 16, 19, 20 *)

val iphone14pro : t  (** Table 3 *)

val samsung_s23 : t  (** Table 3 *)

val samsung_s24 : t  (** Figure 18 (GPU path) *)

val samsung_s24_cpu : t  (** Figure 18: llama.cpp runs CPU-only on Android *)

val orange_pi5 : t  (** Table 3 *)

val steam_deck : t  (** Table 3 *)

val jetson_orin : t  (** Table 3 *)

val webgpu_m3_max : t  (** Table 3: in-browser WebGPU on an M3 Max laptop *)

val all_presets : t list
val find : string -> t option
