module E = Arith.Expr
module T = Tir.Texpr
module S = Tir.Stmt

let c = E.const

(* kv head serving query head [h]: h // (heads / kv_heads). *)
let group_of h ~heads ~kv_heads = E.floor_div h (c (heads / kv_heads))

(* Single-query attention: K and V hold [kv_len] positions and the
   score, softmax and output loops read the first [m] of them. *)
let decode_with ~name ~batch ~heads ~kv_heads ~head_dim ~kv_len ~m ~sym_params
    dtype =
  let b = batch and d = c head_dim in
  let q = Tir.Buffer.create "Q" [ b; c heads; c 1; d ] dtype in
  let k = Tir.Buffer.create "K" [ b; c kv_heads; kv_len; d ] dtype in
  let v = Tir.Buffer.create "V" [ b; c kv_heads; kv_len; d ] dtype in
  let o = Tir.Buffer.create "O" [ b; c heads; c 1; d ] dtype in
  let s = Tir.Buffer.create ~scope:Tir.Buffer.Shared "s" [ b; c heads; m ] dtype in
  let mx = Tir.Buffer.create ~scope:Tir.Buffer.Shared "mx" [ b; c heads ] dtype in
  let sm = Tir.Buffer.create ~scope:Tir.Buffer.Shared "sm" [ b; c heads ] dtype in
  let scale = 1.0 /. sqrt (float_of_int head_dim) in
  let body =
    S.grid
      [ ("bb", b); ("hh", c heads) ]
      (fun idx ->
        match idx with
        | [ bb; hh ] ->
            let g = group_of hh ~heads ~kv_heads in
            let j = Arith.Var.fresh "j" in
            let ej = E.var j in
            let dd = Arith.Var.fresh "dd" in
            let ed = E.var dd in
            let bh ixs = List.map T.idx ([ bb; hh ] @ ixs) in
            let score_loop =
              S.for_ j m
                (S.seq
                   [ S.Store (s, bh [ ej ], T.f 0.0);
                     S.for_ dd d
                       (S.Store
                          ( s,
                            bh [ ej ],
                            T.(
                              Load (s, bh [ ej ])
                              +. (load q [ bb; hh; c 0; ed ]
                                 *. load k [ bb; g; ej; ed ])) ));
                     S.Store
                       (s, bh [ ej ], T.(Load (s, bh [ ej ]) *. f scale));
                     S.Store
                       ( mx,
                         bh [],
                         T.Binop (T.Max, T.Load (mx, bh []), T.Load (s, bh [ ej ]))
                       ) ])
            in
            let softmax_loop =
              S.for_ j m
                (S.seq
                   [ S.Store
                       ( s,
                         bh [ ej ],
                         T.(Unop (Exp, Load (s, bh [ ej ]) -. Load (mx, bh []))) );
                     S.Store
                       (sm, bh [], T.(Load (sm, bh []) +. Load (s, bh [ ej ]))) ])
            in
            let out_loop =
              S.for_ dd d
                (S.seq
                   [ S.Store (o, bh [ c 0; ed ], T.f 0.0);
                     S.for_ j m
                       (S.Store
                          ( o,
                            bh [ c 0; ed ],
                            T.(
                              Load (o, bh [ c 0; ed ])
                              +. (Load (s, bh [ ej ])
                                  /. Load (sm, bh [])
                                 *. load v [ bb; g; ej; ed ])) )) ])
            in
            S.seq
              [ S.Store (mx, bh [], T.f neg_infinity);
                score_loop;
                S.Store (sm, bh [], T.f 0.0);
                softmax_loop;
                out_loop ]
        | _ -> assert false)
  in
  Tir.Prim_func.create ~sym_params ~name ~params:[ q; k; v; o ]
    (S.Alloc (s, S.Alloc (mx, S.Alloc (sm, body))))

let decode ~name ~batch ~heads ~kv_heads ~head_dim ~m dtype =
  decode_with ~name ~batch ~heads ~kv_heads ~head_dim ~kv_len:m ~m
    ~sym_params:[] dtype

let prefill ?(causal = true) ~name ~heads ~kv_heads ~head_dim ~n dtype =
  let d = c head_dim in
  let q = Tir.Buffer.create "Q" [ c heads; n; d ] dtype in
  let k = Tir.Buffer.create "K" [ c kv_heads; n; d ] dtype in
  let v = Tir.Buffer.create "V" [ c kv_heads; n; d ] dtype in
  let o = Tir.Buffer.create "O" [ c heads; n; d ] dtype in
  let s = Tir.Buffer.create ~scope:Tir.Buffer.Shared "s" [ c heads; n; n ] dtype in
  let mx = Tir.Buffer.create ~scope:Tir.Buffer.Shared "mx" [ c heads; n ] dtype in
  let sm = Tir.Buffer.create ~scope:Tir.Buffer.Shared "sm" [ c heads; n ] dtype in
  let scale = 1.0 /. sqrt (float_of_int head_dim) in
  let body =
    S.grid
      [ ("hh", c heads); ("ii", n) ]
      (fun idx ->
        match idx with
        | [ hh; ii ] ->
            let g = group_of hh ~heads ~kv_heads in
            let j = Arith.Var.fresh "j" in
            let ej = E.var j in
            let dd = Arith.Var.fresh "dd" in
            let ed = E.var dd in
            let hi ixs = List.map T.idx ([ hh; ii ] @ ixs) in
            let visible =
              if causal then T.Binop (T.Le, T.idx ej, T.idx ii)
              else T.Binop (T.Eq, T.i 0, T.i 0)
            in
            S.seq
              [ S.Store (mx, hi [], T.f neg_infinity);
                S.for_ j n
                  (S.seq
                     [ S.Store (s, hi [ ej ], T.f 0.0);
                       S.for_ dd d
                         (S.Store
                            ( s,
                              hi [ ej ],
                              T.(
                                Load (s, hi [ ej ])
                                +. (load q [ hh; ii; ed ] *. load k [ g; ej; ed ]))
                            ));
                       S.Store
                         ( s,
                           hi [ ej ],
                           T.Select
                             ( visible,
                               T.(Load (s, hi [ ej ]) *. f scale),
                               T.f (-1e30) ) );
                       S.Store
                         ( mx,
                           hi [],
                           T.Binop
                             (T.Max, T.Load (mx, hi []), T.Load (s, hi [ ej ]))
                         ) ]);
                S.Store (sm, hi [], T.f 0.0);
                S.for_ j n
                  (S.seq
                     [ S.Store
                         ( s,
                           hi [ ej ],
                           T.(Unop (Exp, Load (s, hi [ ej ]) -. Load (mx, hi [])))
                         );
                       S.Store
                         (sm, hi [], T.(Load (sm, hi []) +. Load (s, hi [ ej ])))
                     ]);
                S.for_ dd d
                  (S.seq
                     [ S.Store (o, hi [ ed ], T.f 0.0);
                       S.for_ j n
                         (S.Store
                            ( o,
                              hi [ ed ],
                              T.(
                                Load (o, hi [ ed ])
                                +. (Load (s, hi [ ej ])
                                    /. Load (sm, hi [])
                                   *. load v [ g; ej; ed ])) )) ]) ]
        | _ -> assert false)
  in
  Tir.Prim_func.create ~name ~params:[ q; k; v; o ]
    (S.Alloc (s, S.Alloc (mx, S.Alloc (sm, body))))

let kv_append ~name ~batch ~kv_heads ~head_dim ~m dtype =
  let b = batch and d = c head_dim in
  let cache = Tir.Buffer.create "C" [ b; c kv_heads; m; d ] dtype in
  let fresh = Tir.Buffer.create "N" [ b; c kv_heads; c 1; d ] dtype in
  let out = Tir.Buffer.create "Y" [ b; c kv_heads; E.add m (c 1); d ] dtype in
  let copy_old =
    S.grid
      [ ("bb", b); ("g", c kv_heads); ("j", m); ("dd", d) ]
      (fun idx ->
        S.Store (out, List.map T.idx idx, T.load cache idx))
  in
  let copy_new =
    S.grid
      [ ("bb", b); ("g", c kv_heads); ("dd", d) ]
      (fun idx ->
        match idx with
        | [ bb; g; dd ] ->
            S.Store
              ( out,
                List.map T.idx [ bb; g; m; dd ],
                T.load fresh [ bb; g; c 0; dd ] )
        | _ -> assert false)
  in
  Tir.Prim_func.create ~name ~params:[ cache; fresh; out ]
    (S.seq [ copy_old; copy_new ])

let kv_write ~name ~batch ~kv_heads ~head_dim ~max_ctx ~pos dtype =
  let b = batch and d = c head_dim in
  let fresh = Tir.Buffer.create "N" [ b; c kv_heads; c 1; d ] dtype in
  let cache = Tir.Buffer.create "C" [ b; c kv_heads; max_ctx; d ] dtype in
  let body =
    S.grid
      [ ("bb", b); ("g", c kv_heads); ("dd", d) ]
      (fun idx ->
        match idx with
        | [ bb; g; dd ] ->
            S.Store
              ( cache,
                List.map T.idx [ bb; g; E.var pos; dd ],
                T.load fresh [ bb; g; c 0; dd ] )
        | _ -> assert false)
  in
  (* DPS output = the cache itself (mutated in place). *)
  Tir.Prim_func.create ~sym_params:[ pos ] ~name ~params:[ fresh; cache ] body

let decode_paged ~name ~batch ~heads ~kv_heads ~head_dim ~max_ctx ~len dtype =
  decode_with ~name ~batch ~heads ~kv_heads ~head_dim ~kv_len:max_ctx
    ~m:(E.var len) ~sym_params:[ len ] dtype

(* theta_j = 10000^(-2j/d) for the pair index j = dd / 2. *)
let rope_theta dd head_dim =
  T.Binop
    ( T.Pow,
      T.f 10000.0,
      T.(
        f 0.0
        -. (Cast (Base.Dtype.F32, T.idx (E.mul (E.floor_div dd (c 2)) (c 2)))
           /. f (float_of_int head_dim))) )

let rope_pair ~x ~load_at ~pos_expr ~dd ~head_dim =
  (* Rotate pairs (2j, 2j+1); [dd] is the absolute lane. *)
  ignore x;
  let theta = rope_theta dd head_dim in
  let angle = T.(pos_expr *. theta) in
  let even = E.floor_mod dd (c 2) in
  let partner_minus = E.sub dd (c 1) in
  let partner_plus = E.add dd (c 1) in
  let self = load_at dd in
  let is_even = T.Binop (T.Eq, T.idx even, T.i 0) in
  T.Select
    ( is_even,
      T.((self *. Unop (Cos, angle)) -. (load_at partner_plus *. Unop (Sin, angle))),
      T.((load_at partner_minus *. Unop (Sin, angle)) +. (self *. Unop (Cos, angle)))
    )

let rope_decode ~name ~batch ~heads ~head_dim ~pos dtype =
  let b = batch and d = c head_dim in
  let x = Tir.Buffer.create "X" [ b; c heads; c 1; d ] dtype in
  let y = Tir.Buffer.create "Y" [ b; c heads; c 1; d ] dtype in
  let pos_expr = T.Cast (Base.Dtype.F32, T.idx (E.var pos)) in
  let body =
    S.grid
      [ ("bb", b); ("hh", c heads); ("dd", d) ]
      (fun idx ->
        match idx with
        | [ bb; hh; dd ] ->
            let load_at lane = T.load x [ bb; hh; c 0; lane ] in
            S.Store
              ( y,
                List.map T.idx [ bb; hh; c 0; dd ],
                rope_pair ~x ~load_at ~pos_expr ~dd ~head_dim )
        | _ -> assert false)
  in
  Tir.Prim_func.create ~sym_params:[ pos ] ~name ~params:[ x; y ] body

let rope_prefill ~name ~heads ~head_dim ~n dtype =
  let d = c head_dim in
  let x = Tir.Buffer.create "X" [ c heads; n; d ] dtype in
  let y = Tir.Buffer.create "Y" [ c heads; n; d ] dtype in
  let body =
    S.grid
      [ ("hh", c heads); ("ii", n); ("dd", d) ]
      (fun idx ->
        match idx with
        | [ hh; ii; dd ] ->
            let pos_expr = T.Cast (Base.Dtype.F32, T.idx ii) in
            let load_at lane = T.load x [ hh; ii; lane ] in
            S.Store
              ( y,
                List.map T.idx [ hh; ii; dd ],
                rope_pair ~x ~load_at ~pos_expr ~dd ~head_dim )
        | _ -> assert false)
  in
  Tir.Prim_func.create ~name ~params:[ x; y ] body
