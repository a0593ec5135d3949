type t = {
  name : string;
  supports : Runtime.Device.t -> bool;
  options :
    Runtime.Device.t ->
    Relax_passes.Pipeline.options ->
    Relax_passes.Pipeline.options;
  device : Runtime.Device.t -> Runtime.Device.t;
  per_launch_overhead_us : float;
  per_step_overhead_us : float;
  static_kv : bool;
}

let id_options _ o = o
let id_device d = d
let is_gpu_server (d : Runtime.Device.t) =
  match d.Runtime.Device.backend with
  | Runtime.Device.Cuda | Runtime.Device.Rocm -> true
  | _ -> false

let relax =
  {
    name = "Relax";
    supports = (fun _ -> true);
    options = id_options;
    device = id_device;
    per_launch_overhead_us = 0.0;
    per_step_overhead_us = 2.0;
    static_kv = false;
  }

let hf_eager =
  {
    name = "HF (eager)";
    supports = (fun _ -> true);
    options =
      (fun _ o ->
        {
          o with
          Relax_passes.Pipeline.fusion = false;
          lib_all_batches = true;  (* PyTorch always calls cuBLAS *)
          memory_plan = false;
          graph_capture = false;
        });
    device = id_device;
    per_launch_overhead_us = 12.0;  (* Python + framework dispatch per op *)
    per_step_overhead_us = 60.0;
    static_kv = false;
  }

let hf_compile =
  {
    name = "HF (compile)";
    supports = is_gpu_server;
    options = (fun _ o -> o);
    device = id_device;
    per_launch_overhead_us = 0.5;
    per_step_overhead_us = 25.0;
    static_kv = true;
  }

let vllm =
  {
    name = "vLLM";
    supports = is_gpu_server;
    options =
      (fun _ o -> { o with Relax_passes.Pipeline.lib_all_batches = true });
    device = id_device;
    per_launch_overhead_us = 0.3;
    per_step_overhead_us = 120.0;  (* continuous-batching scheduler *)
    static_kv = false;
  }

(* llama.cpp: hand-tuned Metal kernels excel; CUDA support is less
   optimized; Android has no GPU kernels at all, so it runs on CPU. *)
let llama_cpp_device (d : Runtime.Device.t) =
  match d.Runtime.Device.backend with
  | Runtime.Device.Metal ->
      {
        d with
        Runtime.Device.name = d.Runtime.Device.name ^ " (llama.cpp)";
        gen_eff = Float.min 0.9 (d.Runtime.Device.gen_eff *. 1.25);
        gen_gemv_eff = Float.min 0.95 (d.Runtime.Device.gen_gemv_eff *. 1.1);
        mem_eff = Float.min 0.92 (d.Runtime.Device.mem_eff *. 1.12);
        gen_gemm_traffic = Float.max 1.2 (d.Runtime.Device.gen_gemm_traffic *. 0.8);
      }
  | Runtime.Device.Cuda | Runtime.Device.Rocm ->
      {
        d with
        Runtime.Device.name = d.Runtime.Device.name ^ " (llama.cpp)";
        gen_eff = d.Runtime.Device.gen_eff *. 0.8;
        mem_eff = d.Runtime.Device.mem_eff *. 0.88;
      }
  | Runtime.Device.Opencl ->
      (* CPU fallback sharing the same LPDDR bus. *)
      {
        d with
        Runtime.Device.name = d.Runtime.Device.name ^ " (llama.cpp CPU)";
        backend = Runtime.Device.Cpu;
        peak_gflops_f16 = 600.0;
        peak_gflops_f32 = 300.0;
        launch_overhead_us = 0.2;
        gen_eff = 0.7;
        mem_eff = 0.38;
        lib_gemm_eff = 0.0;
        supports_graph_capture = false;
      }
  | Runtime.Device.Vulkan | Runtime.Device.Webgpu | Runtime.Device.Cpu -> d

let llama_cpp =
  {
    name = "llama.cpp";
    supports =
      (fun d ->
        match d.Runtime.Device.backend with
        | Runtime.Device.Webgpu -> false
        | _ -> true);
    options =
      (fun _ o ->
        {
          o with
          Relax_passes.Pipeline.dispatch_library = false;
          graph_capture = false;
        });
    device = llama_cpp_device;
    per_launch_overhead_us = 0.8;
    per_step_overhead_us = 10.0;
    static_kv = false;
  }

let all_llm = [ hf_eager; hf_compile; vllm; llama_cpp; relax ]
