(* Tensor-parallel execution harness over the sharded Llm builders:
   compile a sharded module, slice one full-model weight set into
   per-shard parameters, run greedy decode differentially against
   TP=1, and report per-device/communication time from a timed run. *)

module Llm = Frontend.Llm
module Configs = Frontend.Configs

type compiled = {
  sh : Llm.sharded;
  prog : Runtime.Vm.program;
}

let compile_built ?(verify = false) ~device (built : Llm.built) =
  Relax_passes.Pipeline.compile
    ~options:
      { Relax_passes.Pipeline.default_options with
        Relax_passes.Pipeline.upper_bounds = Llm.upper_bound_hints built }
    ~verify ~device built.Llm.mod_

let compile_decode ?strategy ?verify cfg ~batch ~tp ~device =
  let sh = Llm.decode_paged_tp ?strategy cfg ~batch ~tp () in
  { sh; prog = compile_built ?verify ~device sh.Llm.sbuilt }

let compile_prefill ?strategy ?verify cfg ~tp ~device =
  let sh = Llm.prefill_tp ?strategy cfg ~tp () in
  { sh; prog = compile_built ?verify ~device sh.Llm.sbuilt }

(* ---------- weight slicing ---------- *)

(* Contiguous block [shard] of [tp] along [axis] of a 2-d matrix. The
   sharded builders only ever slice matmul weights, so 2-d is the
   whole contract. *)
let slice (full : Base.Ndarray.t) ~axis ~shard ~tp =
  let shape = full.Base.Ndarray.shape in
  if Array.length shape <> 2 then
    invalid_arg "Dist.Tp.slice: expected a 2-d weight matrix";
  let k = shape.(0) and n = shape.(1) in
  let dim = shape.(axis) in
  if dim mod tp <> 0 then
    invalid_arg
      (Printf.sprintf "Dist.Tp.slice: axis %d extent %d not divisible by %d"
         axis dim tp);
  let w = dim / tp in
  let off = shard * w in
  if axis = 0 then begin
    let out = Base.Ndarray.create full.Base.Ndarray.dtype [| w; n |] in
    for r = 0 to w - 1 do
      for j = 0 to n - 1 do
        Base.Ndarray.set_flat_float out
          ((r * n) + j)
          (Base.Ndarray.get_flat_float full (((off + r) * n) + j))
      done
    done;
    out
  end
  else begin
    let out = Base.Ndarray.create full.Base.Ndarray.dtype [| k; w |] in
    for r = 0 to k - 1 do
      for j = 0 to w - 1 do
        Base.Ndarray.set_flat_float out
          ((r * w) + j)
          (Base.Ndarray.get_flat_float full ((r * n) + off + j))
      done
    done;
    out
  end

let shard_args (sh : Llm.sharded) ~full ~input =
  let lookup nm =
    match List.assoc_opt nm full with
    | Some t -> t
    | None ->
        invalid_arg
          (Printf.sprintf "Dist.Tp.shard_args: no full-model tensor %S" nm)
  in
  List.map2
    (fun (nm, _) src ->
      match src with
      | Llm.Sh_input _ -> input nm
      | Llm.Sh_replicated s -> Runtime.Vm.tensor (lookup s)
      | Llm.Sh_sliced { src; axis; shard; tp } ->
          Runtime.Vm.tensor (slice (lookup src) ~axis ~shard ~tp))
    sh.Llm.sbuilt.Llm.params sh.Llm.srcs

(* ---------- greedy-decode differential runner ---------- *)

(* One full-model weight set per (cfg, seed): the TP=1 [decode_paged]
   parameter template, keyed by parameter name. Every TP degree slices
   the same tensors, so differential runs compare like against like. *)
let full_weights cfg ~seed =
  let fb = Llm.decode_paged cfg ~batch:1 Llm.F16 in
  List.filter_map
    (fun ((nm, _), v) ->
      match v with
      | Runtime.Vm.Tensor t -> Some (nm, t)
      | _ -> None)
    (List.combine fb.Llm.params
       (Llm.args_for fb ~ctx:0 ~seed ~mode:`Numeric ()))

let logits_of = function
  | Runtime.Vm.Tuple_val (l :: _) -> Runtime.Vm.value_tensor l
  | v -> Runtime.Vm.value_tensor v

let prefixed pre nm =
  String.length nm >= String.length pre
  && String.sub nm 0 (String.length pre) = pre

let generate ?strategy ?verify cfg ~tp ~seed ~prompt ~gen () =
  if prompt = [] then invalid_arg "Dist.Tp.generate: empty prompt";
  if gen < 1 then invalid_arg "Dist.Tp.generate: gen < 1";
  let { sh; prog } =
    compile_decode ?strategy ?verify cfg ~batch:1 ~tp
      ~device:Runtime.Device.rtx4090
  in
  let vm = Runtime.Vm.create `Numeric prog in
  let full = full_weights cfg ~seed in
  let mmax = cfg.Configs.max_context in
  let kvs = cfg.Configs.kv_heads / sh.Llm.tp in
  (* Persistent per-shard paged caches, plus per-step ids/cur_len:
     resolve the [Sh_input] parameters once into a mutable slot. *)
  let caches = Hashtbl.create 16 in
  let cur_ids = ref 0 and cur_pos = ref 0 in
  let template =
    shard_args sh ~full ~input:(fun nm ->
        if nm = "ids" then Runtime.Vm.Unit_val (* patched per step *)
        else if nm = "cur_len" then Runtime.Vm.Unit_val
        else if prefixed "k_cache" nm || prefixed "v_cache" nm then begin
          let t =
            Base.Ndarray.create Base.Dtype.F16
              [| 1; kvs; mmax; cfg.Configs.head_dim |]
          in
          Hashtbl.replace caches nm t;
          Runtime.Vm.tensor t
        end
        else
          invalid_arg
            (Printf.sprintf "Dist.Tp.generate: unexpected input %S" nm))
  in
  let names = List.map fst sh.Llm.sbuilt.Llm.params in
  let step () =
    let args =
      List.map2
        (fun nm v ->
          if nm = "ids" then
            Runtime.Vm.tensor
              (Base.Ndarray.of_int_list Base.Dtype.I32 [| 1 |] [ !cur_ids ])
          else if nm = "cur_len" then Runtime.Vm.Shape_val [| !cur_pos |]
          else v)
        names template
    in
    logits_of (Runtime.Vm.run vm sh.Llm.sbuilt.Llm.entry args)
  in
  let last_logits = ref None in
  List.iteri
    (fun i tok ->
      cur_ids := tok;
      cur_pos := i;
      last_logits := Some (step ()))
    prompt;
  let out = ref [] in
  for i = 1 to gen do
    let next = Base.Ndarray.argmax (Option.get !last_logits) in
    out := next :: !out;
    if i < gen then begin
      cur_ids := next;
      cur_pos := List.length prompt + i - 1;
      last_logits := Some (step ())
    end
  done;
  (List.rev !out, Option.get !last_logits)

let bit_equal a b =
  a.Base.Ndarray.shape = b.Base.Ndarray.shape
  && a.Base.Ndarray.data = b.Base.Ndarray.data

(* ---------- timed step report ---------- *)

type step_report = {
  tp : int;
  strategy : Llm.tp_strategy;
  serial_us : float;
  parallel_us : float;
  comm_us : float;
  collectives : int;
  per_device_us : (string * float) list;
}

let step_report ?(strategy = Llm.Gather) cfg ~batch ~tp ~ctx ~device () =
  let { sh; prog } = compile_decode ~strategy cfg ~batch ~tp ~device in
  let prof = Runtime.Profiler.create () in
  let vm =
    Runtime.Vm.create ~trace:(Runtime.Profiler.sink prof) (`Timed device) prog
  in
  let built = sh.Llm.sbuilt in
  ignore
    (Runtime.Vm.run vm built.Llm.entry
       (Llm.args_for built ~ctx ~mode:`Shadow ()));
  let serial = Runtime.Profiler.total_time_us prof in
  let comm = Runtime.Profiler.comm_time_us prof in
  let split = Runtime.Profiler.device_split prof in
  let shard_us =
    List.filter_map
      (fun (tag, _, us) ->
        if String.length tag > 1 && tag.[0] = 'g' then Some us else None)
      split
  in
  let shared_us =
    List.fold_left
      (fun acc (tag, _, us) -> if tag = "shared" then acc +. us else acc)
      0.0 split
  in
  (* Parallel wall-clock for one step: replicated work runs on every
     device concurrently (it costs one copy of itself), shard work
     costs its slowest device, collectives serialize on the link. *)
  let parallel =
    match shard_us with
    | [] -> serial
    | us -> shared_us +. List.fold_left Float.max 0.0 us +. comm
  in
  {
    tp = sh.Llm.tp;
    strategy;
    serial_us = serial;
    parallel_us = parallel;
    comm_us = comm;
    collectives = Runtime.Profiler.collective_count prof;
    per_device_us = List.map (fun (tag, _, us) -> (tag, us)) split;
  }

let report_to_string r =
  Printf.sprintf
    "tp=%d %s: step %.1f us parallel (%.1f us serialized, comm %.1f us in %d \
     collectives)%s"
    r.tp
    (match r.strategy with Llm.Gather -> "gather" | Llm.Reduce -> "reduce")
    r.parallel_us r.serial_us r.comm_us r.collectives
    (match r.per_device_us with
    | [] -> ""
    | split ->
        "\n  "
        ^ String.concat ", "
            (List.map (fun (tag, us) -> Printf.sprintf "%s %.1f us" tag us) split))
