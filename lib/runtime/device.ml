type backend = Cuda | Rocm | Metal | Vulkan | Opencl | Webgpu | Cpu

type topology = Ring | Fully_connected

type link = {
  link_name : string;
  link_bw_gbps : float;
  link_latency_us : float;
  topology : topology;
}

(* Interconnect presets.  Bandwidths are per-direction effective rates;
   latency is the per-hop software+wire cost of one transfer. *)
let pcie_gen4 =
  {
    link_name = "pcie-gen4-x16";
    link_bw_gbps = 32.0;
    link_latency_us = 5.0;
    topology = Ring;
  }

let pcie_gen3 =
  {
    link_name = "pcie-gen3-x8";
    link_bw_gbps = 8.0;
    link_latency_us = 8.0;
    topology = Ring;
  }

let nvlink =
  {
    link_name = "nvlink4";
    link_bw_gbps = 450.0;
    link_latency_us = 1.8;
    topology = Fully_connected;
  }

let unified_memory =
  {
    link_name = "unified-memory";
    link_bw_gbps = 200.0;
    link_latency_us = 1.0;
    topology = Fully_connected;
  }

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
  gen_eff : float;
  gen_gemv_eff : float;
  lib_gemm_eff : float;
  mem_eff : float;
  step_overhead_us : float;
  gen_gemm_traffic : float;
  link : link;
}

(* Ring collective costs over [world] peers connected by [link].

   All-reduce (ring algorithm): each peer sends 2(w-1)/w of the tensor
   over the wire (reduce-scatter + all-gather phases), in 2(w-1)
   sequential hop steps.  All-gather: (w-1)/w of the full tensor, w-1
   hops.  A fully connected fabric (NVLink/unified memory) pays the
   same bandwidth term but only a constant number of latency hops.
   [bytes] is the size of the full (unsharded) tensor. *)
let hop_count topology ~world ~phases =
  match topology with
  | Ring -> phases * (world - 1)
  | Fully_connected -> phases

let all_reduce_us link ~world ~bytes =
  if world <= 1 then 0.0
  else
    let w = float_of_int world in
    (2.0 *. (w -. 1.0) /. w) *. bytes /. (link.link_bw_gbps *. 1e3)
    +. float_of_int (hop_count link.topology ~world ~phases:2)
       *. link.link_latency_us

let all_gather_us link ~world ~bytes =
  if world <= 1 then 0.0
  else
    let w = float_of_int world in
    ((w -. 1.0) /. w) *. bytes /. (link.link_bw_gbps *. 1e3)
    +. float_of_int (hop_count link.topology ~world ~phases:1)
       *. link.link_latency_us

(* Wire traffic actually carried by the link (the bandwidth term's
   numerator), for trace/profiler accounting. *)
let collective_wire_bytes ~op ~world ~bytes =
  if world <= 1 then 0.0
  else
    let w = float_of_int world in
    let frac = (w -. 1.0) /. w in
    match op with `All_reduce -> 2.0 *. frac *. bytes | `All_gather -> frac *. bytes

let peak_gflops t (dt : Base.Dtype.t) =
  match dt with
  | Base.Dtype.F16 -> t.peak_gflops_f16
  | Base.Dtype.F32 | Base.Dtype.I8 | Base.Dtype.U8 | Base.Dtype.I32
  | Base.Dtype.U32 | Base.Dtype.I64 | Base.Dtype.Bool ->
      t.peak_gflops_f32

let kernel_time_us t dtype ~flops ~bytes ~compute_eff =
  (* GFLOP/s = 1e3 FLOP/us; GB/s = 1e3 B/us. *)
  let compute_us = flops /. (peak_gflops t dtype *. compute_eff *. 1e3) in
  let memory_us = bytes /. (t.mem_bw_gbps *. t.mem_eff *. 1e3) in
  Float.max compute_us memory_us

let has_library t = t.lib_gemm_eff > 0.0

let rtx4090 =
  {
    name = "NVIDIA RTX 4090";
    backend = Cuda;
    peak_gflops_f16 = 165_000.0;
    peak_gflops_f32 = 82_600.0;
    mem_bw_gbps = 1008.0;
    launch_overhead_us = 4.0;
    graph_replay_overhead_us = 18.0;
    supports_graph_capture = true;
    vram_gb = 24.0;
    gen_eff = 0.55;
    gen_gemv_eff = 0.85;
    lib_gemm_eff = 0.85;
    mem_eff = 0.85;
    step_overhead_us = 0.0;
    gen_gemm_traffic = 1.6;
    link = pcie_gen4;
  }

let rx7900xtx =
  {
    name = "AMD Radeon 7900 XTX";
    backend = Rocm;
    peak_gflops_f16 = 122_800.0;
    peak_gflops_f32 = 61_400.0;
    mem_bw_gbps = 960.0;
    launch_overhead_us = 6.0;
    graph_replay_overhead_us = 25.0;
    supports_graph_capture = true;
    vram_gb = 24.0;
    gen_eff = 0.50;
    gen_gemv_eff = 0.80;
    lib_gemm_eff = 0.62;
    mem_eff = 0.78;
    step_overhead_us = 0.0;
    gen_gemm_traffic = 1.65;
    link = pcie_gen4;
  }

let m2_ultra =
  {
    name = "Apple M2 Ultra";
    backend = Metal;
    peak_gflops_f16 = 27_200.0;
    peak_gflops_f32 = 27_200.0;
    mem_bw_gbps = 800.0;
    launch_overhead_us = 12.0;
    graph_replay_overhead_us = 0.0;
    supports_graph_capture = false;
    vram_gb = 64.0;
    gen_eff = 0.55;
    gen_gemv_eff = 0.80;
    lib_gemm_eff = 0.65;
    mem_eff = 0.80;
    step_overhead_us = 0.0;
    gen_gemm_traffic = 1.5;
    link = unified_memory;
  }

let iphone14pro =
  {
    name = "iPhone 14 Pro";
    backend = Metal;
    peak_gflops_f16 = 3_600.0;
    peak_gflops_f32 = 2_000.0;
    mem_bw_gbps = 51.2;
    launch_overhead_us = 15.0;
    graph_replay_overhead_us = 0.0;
    supports_graph_capture = false;
    vram_gb = 4.0;
    gen_eff = 0.45;
    gen_gemv_eff = 0.65;
    lib_gemm_eff = 0.0;
    mem_eff = 0.52;
    step_overhead_us = 0.0;
    gen_gemm_traffic = 1.5;
    link = unified_memory;
  }

let samsung_s23 =
  {
    name = "Samsung S23";
    backend = Opencl;
    peak_gflops_f16 = 4_700.0;
    peak_gflops_f32 = 2_350.0;
    mem_bw_gbps = 67.0;
    launch_overhead_us = 18.0;
    graph_replay_overhead_us = 0.0;
    supports_graph_capture = false;
    vram_gb = 8.0;  (* unified LPDDR5X *)
    gen_eff = 0.45;
    gen_gemv_eff = 0.65;
    lib_gemm_eff = 0.0;
    mem_eff = 0.60;
    step_overhead_us = 0.0;
    gen_gemm_traffic = 1.5;
    link = unified_memory;
  }

let samsung_s24 =
  {
    name = "Samsung S24";
    backend = Opencl;
    peak_gflops_f16 = 5_400.0;
    peak_gflops_f32 = 2_700.0;
    mem_bw_gbps = 77.0;
    launch_overhead_us = 17.0;
    graph_replay_overhead_us = 0.0;
    supports_graph_capture = false;
    vram_gb = 6.0;
    gen_eff = 0.45;
    gen_gemv_eff = 0.65;
    lib_gemm_eff = 0.0;
    mem_eff = 0.62;
    step_overhead_us = 0.0;
    gen_gemm_traffic = 1.5;
    link = unified_memory;
  }

let samsung_s24_cpu =
  {
    name = "Samsung S24 (CPU)";
    backend = Cpu;
    peak_gflops_f16 = 600.0;  (* 8 cores with NEON fp16 FMA *)
    peak_gflops_f32 = 300.0;
    mem_bw_gbps = 77.0;
    launch_overhead_us = 0.2;
    graph_replay_overhead_us = 0.0;
    supports_graph_capture = false;
    vram_gb = 6.0;
    gen_eff = 0.60;
    gen_gemv_eff = 0.60;
    lib_gemm_eff = 0.0;
    mem_eff = 0.33;
    step_overhead_us = 0.0;  (* CPU cores cannot saturate the LPDDR bus *)
    gen_gemm_traffic = 1.5;
    link = unified_memory;
  }

let orange_pi5 =
  {
    name = "Orange Pi 5";
    backend = Opencl;
    peak_gflops_f16 = 500.0;
    peak_gflops_f32 = 250.0;
    mem_bw_gbps = 17.0;
    launch_overhead_us = 25.0;
    graph_replay_overhead_us = 0.0;
    supports_graph_capture = false;
    vram_gb = 16.0;  (* unified LPDDR, 16 GB board *)
    gen_eff = 0.45;
    gen_gemv_eff = 0.60;
    lib_gemm_eff = 0.0;
    mem_eff = 0.75;
    step_overhead_us = 0.0;
    gen_gemm_traffic = 1.5;
    link = pcie_gen3;
  }

let steam_deck =
  {
    name = "Steam Deck";
    backend = Vulkan;
    peak_gflops_f16 = 3_200.0;
    peak_gflops_f32 = 1_600.0;
    mem_bw_gbps = 88.0;
    launch_overhead_us = 8.0;
    graph_replay_overhead_us = 0.0;
    supports_graph_capture = false;
    vram_gb = 16.0;  (* unified LPDDR5 *)
    gen_eff = 0.50;
    gen_gemv_eff = 0.70;
    lib_gemm_eff = 0.0;
    mem_eff = 0.78;
    step_overhead_us = 0.0;
    gen_gemm_traffic = 1.5;
    link = unified_memory;
  }

let jetson_orin =
  {
    name = "Jetson Orin";
    backend = Cuda;
    peak_gflops_f16 = 10_600.0;
    peak_gflops_f32 = 5_300.0;
    mem_bw_gbps = 204.8;
    launch_overhead_us = 6.0;
    graph_replay_overhead_us = 20.0;
    supports_graph_capture = true;
    vram_gb = 32.0;
    gen_eff = 0.50;
    gen_gemv_eff = 0.75;
    lib_gemm_eff = 0.70;
    mem_eff = 0.85;
    step_overhead_us = 0.0;
    gen_gemm_traffic = 1.5;
    link = pcie_gen4;
  }

let webgpu_m3_max =
  {
    name = "WebGPU (M3 Max)";
    backend = Webgpu;
    peak_gflops_f16 = 28_400.0;
    peak_gflops_f32 = 14_200.0;
    mem_bw_gbps = 400.0;
    launch_overhead_us = 2.0;  (* kernels batched into one command buffer *)
    graph_replay_overhead_us = 0.0;
    supports_graph_capture = false;
    vram_gb = 36.0;
    gen_eff = 0.40;
    gen_gemv_eff = 0.55;
    lib_gemm_eff = 0.0;
    mem_eff = 0.50;
    step_overhead_us = 2_000.0;  (* per-token JS + command submission *)
    gen_gemm_traffic = 1.5;
    link = unified_memory;
  }

let all_presets =
  [
    rtx4090;
    rx7900xtx;
    m2_ultra;
    iphone14pro;
    samsung_s23;
    samsung_s24;
    samsung_s24_cpu;
    orange_pi5;
    steam_deck;
    jetson_orin;
    webgpu_m3_max;
  ]

let find name = List.find_opt (fun d -> d.name = name) all_presets
