open Relax_core
module E = Arith.Expr

type precision = F16 | Q4 | Q3

let bits_of_precision = function F16 -> 16 | Q4 -> 4 | Q3 -> 3

type built = {
  mod_ : Ir_module.t;
  entry : string;
  ctx_var : Arith.Var.t;
  batch_var : Arith.Var.t option;
  params : (string * Struct_info.t) list;
  config : Configs.t;
  batch : int;
  precision : precision;
}

let dt = Base.Dtype.F16
let c = E.const
let tensor dims = Struct_info.tensor dims dt
let ceil_div a b = (a + b - 1) / b

(* ---------- tensor parallelism (DESIGN.md §13) ---------- *)

(* Every builder is one generator unrolled over [tp] shards; [tp = 1]
   is the unsharded model. Shard s's weights are contiguous column (or
   row) slices of the full model's matrices and its bindings are named
   "g<s>:...", which To_vm threads through as provenance so the
   profiler can attribute work per simulated device. Explicit ccl.*
   collectives stitch the shards back together; they are charged from
   the device interconnect (Device.link).

   The default Gather strategy only ever concatenates shard outputs
   (all-gather), so results are bit-identical to the unsharded model:
   every dot product is computed whole on exactly one shard, in the
   same order as the full model. The Megatron-style Reduce strategy
   row-splits the second matmul of each pair and all-reduces partial
   sums — fewer wire bytes, but the k-fold summation reassociates the
   reduction, so it is deterministic without being bit-identical to
   TP=1. *)

type tp_strategy = Gather | Reduce

type shard_src =
  | Sh_input of string
  | Sh_replicated of string
  | Sh_sliced of { src : string; axis : int; shard : int; tp : int }

type sharded = { sbuilt : built; srcs : shard_src list; tp : int }

let tp_supported (cfg : Configs.t) ~tp =
  tp >= 1
  && cfg.Configs.heads mod tp = 0
  && cfg.Configs.kv_heads mod tp = 0
  && cfg.Configs.inter mod tp = 0
  && cfg.Configs.vocab mod tp = 0
  && cfg.Configs.hidden mod tp = 0
  && not cfg.Configs.qkv_bias

let check_tp fn (cfg : Configs.t) ~tp =
  if not (tp_supported cfg ~tp) then
    invalid_arg
      (Printf.sprintf
         "Llm.%s: %s does not shard at tp=%d (heads/kv_heads/inter/vocab/hidden \
          must divide, qkv_bias unsupported)"
         fn cfg.Configs.name tp)

(* ---------- parameter declaration ---------- *)

(* Models declare all parameters up front and receive accessor indices
   into the parameter array, each with where its value comes from in
   terms of the full model's parameters.

   The declaration order is part of the model: [args_for] seeds
   parameter i with [seed + i], so it decides every numeric weight and
   every seeded golden. Within a layer it runs from the MLP back to the
   attention norm, packed weights declare their scales before their
   data, and LayerNorm declares its bias before its gain. The sequenced
   lets below spell that order out; do not reorder them. *)
type decl = {
  mutable rev : (string * Struct_info.t * shard_src) list;
  mutable count : int;
}

let declare d src name sinfo =
  let i = d.count in
  d.rev <- (name, sinfo, src) :: d.rev;
  d.count <- i + 1;
  i

let input d name sinfo = declare d (Sh_input name) name sinfo
let replicated d name sinfo = declare d (Sh_replicated name) name sinfo

(* A linear layer's weights, one per shard: one f16 matrix, or packed
   data + scales. *)
type weight = Full of int | Packed of { data : int; scale : int; k : int; n : int }

(* Shard s holds block s of [tp] along [axis] of the (k, n) matrix
   [name]; at [tp = 1] that block is the full parameter itself. *)
let declare_linear d precision ~tp ~name ~axis ~k ~n =
  let k = if axis = 0 then k / tp else k in
  let n = if axis = 1 then n / tp else n in
  List.init tp (fun s ->
      let param suffix sinfo =
        let full = name ^ suffix in
        if tp = 1 then replicated d full sinfo
        else
          declare d
            (Sh_sliced { src = full; axis; shard = s; tp })
            (Printf.sprintf "g%d:%s" s full)
            sinfo
      in
      match precision with
      | F16 -> Full (param "" (tensor [ c k; c n ]))
      | Q4 | Q3 ->
          let per_word = if precision = Q3 then 10 else 8 in
          let scale = param "_scale" (tensor [ c k; c (ceil_div n 32) ]) in
          let data =
            param "_data"
              (Struct_info.Tensor
                 {
                   shape = Known [ c k; c (ceil_div n per_word) ];
                   dtype = Some Base.Dtype.U32;
                 })
          in
          Packed { data; scale; k; n })

let declare_norm d (cfg : Configs.t) name =
  let h = tensor [ c cfg.Configs.hidden ] in
  match cfg.Configs.norm with
  | Configs.Rms -> `Rms (replicated d name h)
  | Configs.Layer ->
      let b = replicated d (name ^ "_b") h in
      let g = replicated d (name ^ "_g") h in
      `Layer (g, b)

type layer_weights = {
  attn_norm : [ `Rms of int | `Layer of int * int ];
  wq : weight list;
  wk : weight list;
  wv : weight list;
  qkv_biases : (int * int * int) option;
      (** Qwen2-style projection biases (q, k, v) *)
  wo : weight list;
  ffn_norm : [ `Rms of int | `Layer of int * int ];
  w_gate : weight list option;
  w_up : weight list;
  w_down : weight list;
}

let declare_layer d (cfg : Configs.t) precision ~tp ~strategy l =
  let h = cfg.Configs.hidden and inter = cfg.Configs.inter in
  let qd = cfg.Configs.heads * cfg.Configs.head_dim in
  let kvd = cfg.Configs.kv_heads * cfg.Configs.head_dim in
  let pre name = Printf.sprintf "l%d_%s" l name in
  let linear name ~axis ~k ~n =
    declare_linear d precision ~tp ~name:(pre name) ~axis ~k ~n
  in
  (* the second matmul of each pair: column-split under Gather,
     row-split under Reduce *)
  let out_axis = match strategy with Gather -> 1 | Reduce -> 0 in
  let w_down = linear "w_down" ~axis:out_axis ~k:inter ~n:h in
  let w_up = linear "w_up" ~axis:1 ~k:h ~n:inter in
  let w_gate =
    match cfg.Configs.mlp with
    | Configs.Gated -> Some (linear "w_gate" ~axis:1 ~k:h ~n:inter)
    | Configs.Plain -> None
  in
  let ffn_norm = declare_norm d cfg (pre "ffn_norm") in
  let wo = linear "wo" ~axis:out_axis ~k:qd ~n:h in
  let qkv_biases =
    if cfg.Configs.qkv_bias then
      let bias name n = replicated d (pre name) (tensor [ c n ]) in
      let bv = bias "bv" kvd in
      let bk = bias "bk" kvd in
      let bq = bias "bq" qd in
      Some (bq, bk, bv)
    else None
  in
  let wv = linear "wv" ~axis:1 ~k:h ~n:kvd in
  let wk = linear "wk" ~axis:1 ~k:h ~n:kvd in
  let wq = linear "wq" ~axis:1 ~k:h ~n:qd in
  let attn_norm = declare_norm d cfg (pre "attn_norm") in
  { attn_norm; wq; wk; wv; qkv_biases; wo; ffn_norm; w_gate; w_up; w_down }

(* ---------- emission ---------- *)

type ctx = {
  b : Builder.t;
  tp : int;
  strategy : tp_strategy;
  precision : precision;
  params : Rvar.t array;
  decode_cache : (int * int, Tir.Prim_func.t) Hashtbl.t;
      (** (k, n) -> quantized weight decode kernel, shared by every
          layer *)
}

let param g i = Expr.Var g.params.(i)

(* Shard s's binding name when sharded; the builder's own numbering
   when not. *)
let shard_name g s fmt =
  Printf.ksprintf
    (fun t -> if g.tp = 1 then None else Some (Printf.sprintf "g%d:%s" s t))
    fmt

let linear g ?name x w =
  match w with
  | Full i -> Builder.emit g.b ?name (Expr.call_op "matmul" [ Expr.Var x; param g i ])
  | Packed { data; scale; k; n } ->
      let kernel =
        match Hashtbl.find_opt g.decode_cache (k, n) with
        | Some kf -> kf
        | None ->
            let kf =
              match g.precision with
              | Q3 -> Tir.Kernels.decode_q3 ~name:"decode_q3" ~k:(c k) ~n:(c n) dt
              | Q4 | F16 -> Tir.Kernels.decode_q4 ~name:"decode_q4" ~k:(c k) ~n:(c n) dt
            in
            Hashtbl.replace g.decode_cache (k, n) kf;
            kf
      in
      let w_full =
        Builder.emit_call_tir g.b kernel
          [ param g data; param g scale ]
          ~out:(tensor [ c k; c n ])
          ()
      in
      Builder.emit g.b ?name (Expr.call_op "matmul" [ Expr.Var x; Expr.Var w_full ])

(* Broadcast-add a projection bias when the model has one. *)
let add_bias g bias v =
  match bias with
  | None -> v
  | Some i -> Builder.emit g.b (Expr.call_op "add" [ Expr.Var v; param g i ])

let apply_norm g spec x =
  match spec with
  | `Rms i -> Builder.emit g.b (Expr.call_op "rms_norm" [ Expr.Var x; param g i ])
  | `Layer (gi, bi) ->
      Builder.emit g.b
        (Expr.call_op "layer_norm" [ Expr.Var x; param g gi; param g bi ])

(* Stitch shard outputs back together; over one shard every
   collective is the identity. *)
let collective g op parts ~out ~name =
  match parts with
  | [ v ] -> v
  | _ ->
      Builder.emit_call_dps_library g.b op
        (List.map (fun v -> Expr.Var v) parts)
        ~out:(tensor out) ~name ()

(* The second matmul of a pair ([wo], [w_down]) on (rows, k) shard
   inputs: Gather all-gathers the inputs and column-splits the
   weight; Reduce feeds each shard's own input through its row slice
   and all-reduces the partial sums. Returns the (rows, n) output. *)
let project_out g ~l ~rows ~k ~n ~tags:(in_tag, w_tag, out_tag) ins ws =
  let ins =
    match g.strategy with
    | Gather ->
        let full =
          collective g "ccl.all_gather" ins ~out:[ rows; c k ]
            ~name:(Printf.sprintf "l%d_%s_ag" l in_tag)
        in
        List.map (fun _ -> full) ins
    | Reduce -> ins
  in
  let outs =
    List.mapi
      (fun s (x, w) -> linear g ?name:(shard_name g s "l%d_%s" l w_tag) x w)
      (List.combine ins ws)
  in
  match g.strategy with
  | Gather ->
      collective g "ccl.all_gather" outs ~out:[ rows; c n ]
        ~name:(Printf.sprintf "l%d_%s_ag" l out_tag)
  | Reduce ->
      collective g "ccl.all_reduce" outs ~out:[ rows; c n ]
        ~name:(Printf.sprintf "l%d_%s_ar" l out_tag)

let mlp g (cfg : Configs.t) ~l ~rows lw x =
  let act_op =
    match cfg.Configs.act with Configs.Silu -> "silu" | Configs.Gelu -> "gelu"
  in
  let parts =
    List.init g.tp (fun s ->
        let nm tag = shard_name g s "l%d_%s" l tag in
        let proj tag ws = linear g ?name:(nm tag) x (List.nth ws s) in
        let act v = Builder.emit g.b ?name:(nm "act") (Expr.call_op act_op [ Expr.Var v ]) in
        match lw.w_gate with
        | None -> act (proj "w_up" lw.w_up)
        | Some w_gate ->
            let gate = proj "w_gate" w_gate in
            let up = proj "w_up" lw.w_up in
            let a = act gate in
            Builder.emit g.b ?name:(nm "mul")
              (Expr.call_op "multiply" [ Expr.Var a; Expr.Var up ]))
  in
  project_out g ~l ~rows ~k:cfg.Configs.inter ~n:cfg.Configs.hidden
    ~tags:("mlp", "w_down", "down") parts lw.w_down

(* ---------- the step that differs between builders ---------- *)

type step =
  | Append  (** decode: copy-append one position to contiguous caches *)
  | Paged  (** decode: write one position in place into max-context caches *)
  | Whole  (** prefill: attend over the whole sequence *)

(* Declares the step's runtime inputs after [ids] (current length and
   per-(layer, shard) KV caches) and creates its kernels. Returns the
   per-shard attention: projected q/k/v in, the flattened attention
   output out, plus a thunk emitting the shard's cache outputs. *)
let attention step (cfg : Configs.t) d ~tp ~bb ~ctx_var =
  let hs = cfg.Configs.heads / tp and kvs = cfg.Configs.kv_heads / tp in
  let hd = cfg.Configs.head_dim in
  let len = E.var ctx_var in
  let reshape g name x dims =
    Builder.emit g.b ?name (Expr.call_op "reshape" [ Expr.Var x; Expr.Shape_expr dims ])
  in
  match step with
  | Append | Paged ->
      let mmax = c cfg.Configs.max_context in
      if step = Paged then ignore (input d "cur_len" (Struct_info.shape [ len ]));
      let cache_len = if step = Paged then mmax else len in
      (* k before v in every (layer, shard): the positional argument
         convention every caller relies on *)
      let caches =
        Array.init cfg.Configs.layers (fun l ->
            Array.init tp (fun s ->
                let cache kv =
                  let name =
                    if tp = 1 then Printf.sprintf "%s_cache_%d" kv l
                    else Printf.sprintf "%s_cache_%d_g%d" kv l s
                  in
                  input d name (tensor [ bb; c kvs; cache_len; c hd ])
                in
                let k = cache "k" in
                let v = cache "v" in
                (k, v)))
      in
      let rope name heads =
        Attention.rope_decode ~name ~batch:bb ~heads ~head_dim:hd
          ~pos:(Arith.Var.fresh "pos") dt
      in
      let rope_q = rope "rope_q" hs in
      let rope_k = rope "rope_k" kvs in
      let update, update_tag, attn_kernel, attn_sym =
        if step = Append then
          let kernel =
            Attention.kv_append ~name:"kv_append" ~batch:bb ~kv_heads:kvs
              ~head_dim:hd ~m:(E.var (Arith.Var.fresh "mc")) dt
          in
          let append g ?name cache x =
            Builder.emit_call_tir g.b kernel
              [ param g cache; Expr.Var x ]
              ~out:(tensor [ bb; c kvs; E.add len (c 1); c hd ])
              ?name ()
          in
          let attn =
            Attention.decode ~name:"attention_decode" ~batch:bb ~heads:hs
              ~kv_heads:kvs ~head_dim:hd ~m:(E.var (Arith.Var.fresh "ma")) dt
          in
          (append, "kv_append", attn, [])
        else
          let kernel =
            Attention.kv_write ~name:"kv_write" ~batch:bb ~kv_heads:kvs
              ~head_dim:hd ~max_ctx:mmax ~pos:(Arith.Var.fresh "wpos") dt
          in
          let write g ?name cache x =
            Builder.emit_call_tir_inplace g.b kernel
              [ Expr.Var x; param g cache ]
              ~out_index:1
              ~out:(tensor [ bb; c kvs; mmax; c hd ])
              ~sym_args:[ len ] ?name ()
          in
          let attn =
            Attention.decode_paged ~name:"attention_paged" ~batch:bb ~heads:hs
              ~kv_heads:kvs ~head_dim:hd ~max_ctx:mmax
              ~len:(Arith.Var.fresh "alen") dt
          in
          (write, "kv_write", attn, [ E.add len (c 1) ])
      in
      fun g ~l ~s q k v ->
        let nm tag = shard_name g s "l%d_%s" l tag in
        let q4 = reshape g (nm "q4") q [ bb; c hs; c 1; c hd ] in
        let k4 = reshape g (nm "k4") k [ bb; c kvs; c 1; c hd ] in
        let v4 = reshape g (nm "v4") v [ bb; c kvs; c 1; c hd ] in
        let qr =
          Builder.emit_call_tir g.b rope_q [ Expr.Var q4 ]
            ~out:(tensor [ bb; c hs; c 1; c hd ])
            ~sym_args:[ len ] ?name:(nm "rope_q") ()
        in
        let kr =
          Builder.emit_call_tir g.b rope_k [ Expr.Var k4 ]
            ~out:(tensor [ bb; c kvs; c 1; c hd ])
            ~sym_args:[ len ] ?name:(nm "rope_k") ()
        in
        let k_cache, v_cache = caches.(l).(s) in
        let kc = update g ?name:(nm (update_tag ^ "_k")) k_cache kr in
        let vc = update g ?name:(nm (update_tag ^ "_v")) v_cache v4 in
        let at =
          Builder.emit_call_tir g.b attn_kernel
            [ Expr.Var qr; Expr.Var kc; Expr.Var vc ]
            ~out:(tensor [ bb; c hs; c 1; c hd ])
            ~sym_args:attn_sym ?name:(nm "attn") ()
        in
        let at2 = reshape g (nm "attn_flat") at [ bb; c (hs * hd) ] in
        let grown = if step = Append then [ kc; vc ] else [] in
        (at2, fun () -> grown)
  | Whole ->
      let rope_q =
        Attention.rope_prefill ~name:"rope_prefill_q" ~heads:hs ~head_dim:hd ~n:len dt
      in
      let rope_k =
        Attention.rope_prefill ~name:"rope_prefill_k" ~heads:kvs ~head_dim:hd ~n:len dt
      in
      let attn_kernel =
        Attention.prefill ~name:"attention_prefill" ~heads:hs ~kv_heads:kvs
          ~head_dim:hd ~n:(E.var (Arith.Var.fresh "na")) dt
      in
      fun g ~l ~s q k v ->
        let nm tag = shard_name g s "l%d_%s" l tag in
        let swap01 name x =
          Builder.emit g.b ?name
            (Expr.call_op "permute_dims"
               [ Expr.Var x; Expr.Shape_expr [ c 1; c 0; c 2 ] ])
        in
        (* (n, count*d) -> (count, n, d) *)
        let to_heads tag x count =
          swap01 (nm tag) (reshape g None x [ len; c count; c hd ])
        in
        let qh = to_heads "qh" q hs in
        let kh = to_heads "kh" k kvs in
        let vh = to_heads "vh" v kvs in
        let qr =
          Builder.emit_call_tir g.b rope_q [ Expr.Var qh ]
            ~out:(tensor [ c hs; len; c hd ])
            ?name:(nm "rope_q") ()
        in
        let kr =
          Builder.emit_call_tir g.b rope_k [ Expr.Var kh ]
            ~out:(tensor [ c kvs; len; c hd ])
            ?name:(nm "rope_k") ()
        in
        let at =
          Builder.emit_call_tir g.b attn_kernel
            [ Expr.Var qr; Expr.Var kr; Expr.Var vh ]
            ~out:(tensor [ c hs; len; c hd ])
            ?name:(nm "attn") ()
        in
        (* (heads, n, d) -> (n, heads*d) *)
        let atp = swap01 (nm "attn_t") at in
        let at2 = reshape g (nm "attn_flat") atp [ len; c (hs * hd) ] in
        (* caches for subsequent decode: (1, kv, n, d) *)
        let caches () =
          let kc = reshape g (nm "kc") kr [ c 1; c kvs; len; c hd ] in
          let vc = reshape g (nm "vc") vh [ c 1; c kvs; len; c hd ] in
          [ kc; vc ]
        in
        (at2, caches)

(* Copy the last row: lets prefill return (1, vocab) logits instead of
   materializing the full (n, vocab) matrix. *)
let last_row_kernel ~n ~width dtype =
  let x = Tir.Buffer.create "X" [ n; width ] dtype in
  let y = Tir.Buffer.create "Y" [ c 1; width ] dtype in
  let j = Arith.Var.fresh "j" in
  let body =
    Tir.Stmt.for_ j width
      (Tir.Stmt.Store
         ( y,
           [ Tir.Texpr.i 0; Tir.Texpr.iv j ],
           Tir.Texpr.load x [ E.sub n (c 1); E.var j ] ))
  in
  Tir.Prim_func.create ~name:"last_row" ~params:[ x; y ] body

(* ---------- the generator ---------- *)

let layer g (cfg : Configs.t) ~attend ~l ~rows lw x =
  let hin = apply_norm g lw.attn_norm x in
  let bq, bk, bv =
    match lw.qkv_biases with
    | Some (q, k, v) -> (Some q, Some k, Some v)
    | None -> (None, None, None)
  in
  let shards =
    List.init g.tp (fun s ->
        let proj tag ws bias =
          add_bias g bias
            (linear g ?name:(shard_name g s "l%d_%s" l tag) hin (List.nth ws s))
        in
        let q = proj "wq" lw.wq bq in
        let k = proj "wk" lw.wk bk in
        let v = proj "wv" lw.wv bv in
        attend g ~l ~s q k v)
  in
  let o =
    project_out g ~l ~rows
      ~k:(cfg.Configs.heads * cfg.Configs.head_dim)
      ~n:cfg.Configs.hidden ~tags:("attn", "wo", "wo") (List.map fst shards)
      lw.wo
  in
  let x1 = Builder.emit g.b (Expr.call_op "add" [ Expr.Var x; Expr.Var o ]) in
  let h2 = apply_norm g lw.ffn_norm x1 in
  let dn = mlp g cfg ~l ~rows lw h2 in
  let x2 = Builder.emit g.b (Expr.call_op "add" [ Expr.Var x1; Expr.Var dn ]) in
  (x2, List.concat_map (fun (_, caches) -> caches ()) shards)

(* [bb] is the decode batch extent (1 for prefill, whose token rows are
   the symbolic sequence length instead). *)
let build ?(strategy = Gather) (cfg : Configs.t) ~step ~tp ~bb ~batch
    ~batch_var ~return_caches precision =
  let h = cfg.Configs.hidden in
  let ctx_var = Arith.Var.fresh (if step = Whole then "n" else "m") in
  let rows = if step = Whole then E.var ctx_var else bb in
  let d = { rev = []; count = 0 } in
  let ids =
    input d "ids" (Struct_info.Tensor { shape = Known [ rows ]; dtype = Some Base.Dtype.I32 })
  in
  let attend = attention step cfg d ~tp ~bb ~ctx_var in
  let lrk =
    if step = Whole then
      Some (last_row_kernel ~n:(E.var (Arith.Var.fresh "nl")) ~width:(c h) dt)
    else None
  in
  let emb = replicated d "embedding" (tensor [ c cfg.Configs.vocab; c h ]) in
  let layer_ws =
    List.init cfg.Configs.layers (declare_layer d cfg precision ~tp ~strategy)
  in
  let final_norm = declare_norm d cfg "final_norm" in
  let lm_head =
    declare_linear d precision ~tp ~name:"lm_head" ~axis:1 ~k:h ~n:cfg.Configs.vocab
  in
  let specs = List.rev_map (fun (name, sinfo, _) -> (name, sinfo)) d.rev in
  let entry = if step = Whole then "prefill" else "decode" in
  let b = Builder.create () in
  Builder.function_ b ~name:entry ~params:specs (fun params ->
      Builder.dataflow b (fun () ->
          let g =
            {
              b;
              tp;
              strategy;
              precision;
              params = Array.of_list params;
              decode_cache = Hashtbl.create 8;
            }
          in
          let x = ref (Builder.emit b (Expr.call_op "take" [ param g emb; param g ids ])) in
          let caches = ref [] in
          List.iteri
            (fun l lw ->
              let x', cs = layer g cfg ~attend ~l ~rows lw !x in
              x := x';
              caches := !caches @ cs)
            layer_ws;
          let last =
            match lrk with
            | Some k ->
                Builder.emit_call_tir b k [ Expr.Var !x ] ~out:(tensor [ c 1; c h ]) ()
            | None -> !x
          in
          let xf = apply_norm g final_norm last in
          let parts =
            List.mapi (fun s w -> linear g ?name:(shard_name g s "lm_head") xf w) lm_head
          in
          let logits =
            collective g "ccl.all_gather" parts ~out:[ bb; c cfg.Configs.vocab ]
              ~name:"lm_head_ag"
          in
          if return_caches then
            Expr.Tuple (Expr.Var logits :: List.map (fun v -> Expr.Var v) !caches)
          else Expr.Var logits));
  {
    sbuilt =
      {
        mod_ = Builder.module_ b;
        entry;
        ctx_var;
        batch_var;
        params = specs;
        config = cfg;
        batch;
        precision;
      };
    srcs = List.rev_map (fun (_, _, src) -> src) d.rev;
    tp;
  }

(* ---------- entry points ---------- *)

let decode ?(return_caches = true) (cfg : Configs.t) ~batch precision =
  (build cfg ~step:Append ~tp:1 ~bb:(c batch) ~batch ~batch_var:None
     ~return_caches precision)
    .sbuilt

let decode_symbolic_batch ?(return_caches = true) ?(max_batch = 64)
    (cfg : Configs.t) precision =
  let bv = Arith.Var.fresh "b" in
  (build cfg ~step:Append ~tp:1 ~bb:(E.var bv) ~batch:max_batch
     ~batch_var:(Some bv) ~return_caches precision)
    .sbuilt

let decode_paged (cfg : Configs.t) ~batch precision =
  (build cfg ~step:Paged ~tp:1 ~bb:(c batch) ~batch ~batch_var:None
     ~return_caches:false precision)
    .sbuilt

let prefill ?(return_caches = true) (cfg : Configs.t) precision =
  (build cfg ~step:Whole ~tp:1 ~bb:(c 1) ~batch:1 ~batch_var:None ~return_caches
     precision)
    .sbuilt

let decode_paged_tp ?strategy (cfg : Configs.t) ~batch ~tp () =
  check_tp "decode_paged_tp" cfg ~tp;
  build ?strategy cfg ~step:Paged ~tp ~bb:(c batch) ~batch ~batch_var:None
    ~return_caches:false F16

let prefill_tp ?strategy ?(return_caches = true) (cfg : Configs.t) ~tp () =
  check_tp "prefill_tp" cfg ~tp;
  build ?strategy cfg ~step:Whole ~tp ~bb:(c 1) ~batch:1 ~batch_var:None
    ~return_caches F16

(* ---------- runtime argument construction ---------- *)

let args_for built ~ctx ?batch ?(seed = 0) ~mode () =
  let lookup v =
    if Arith.Var.equal v built.ctx_var then ctx
    else
      match built.batch_var with
      | Some bv when Arith.Var.equal v bv -> (
          match batch with
          | Some b -> b
          | None -> built.batch)
      | _ ->
          failwith
            (Printf.sprintf "Llm.args_for: unexpected symbolic variable %s"
               (Arith.Var.name v))
  in
  List.mapi
    (fun i (name, sinfo) ->
      ignore name;
      match sinfo with
      | Struct_info.Tensor { shape = Struct_info.Known dims; dtype = Some dtype }
        -> (
          let shape = List.map (E.eval lookup) dims in
          match mode with
          | `Shadow -> Runtime.Vm.shadow_of_shape dtype shape
          | `Numeric ->
              Runtime.Vm.tensor
                (Base.Ndarray.random_uniform ~seed:(seed + i) dtype
                   (Array.of_list shape)))
      | Struct_info.Shape (Struct_info.Known dims) ->
          Runtime.Vm.Shape_val
            (Array.of_list (List.map (E.eval lookup) dims))
      | _ -> failwith "Llm.args_for: unsupported parameter kind")
    built.params

let upper_bound_hints built =
  (built.ctx_var, built.config.Configs.max_context)
  ::
  (match built.batch_var with
  | Some bv -> [ (bv, built.batch) ]
  | None -> [])
