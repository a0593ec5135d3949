type cost = { flops : float; bytes : float; small_batch : bool }

type impl = {
  name : string;
  compute : Base.Ndarray.t array -> unit;
  cost_fn : int array array -> Base.Dtype.t -> cost;
}

let registry : (string, impl) Hashtbl.t = Hashtbl.create 16
let register impl = Hashtbl.replace registry impl.name impl
let find name = Hashtbl.find_opt registry name

let registered () =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])

let vendor_prefix (b : Device.backend) =
  match b with
  | Device.Cuda -> Some "cublas"
  | Device.Rocm -> Some "rocblas"
  | Device.Metal -> Some "mps"
  | Device.Vulkan | Device.Opencl | Device.Webgpu | Device.Cpu -> None

(* ---------- matmul: X (..., m, k) x W (k, n) or batched W ---------- *)

let shape_bytes (shapes : int array array) (dt : Base.Dtype.t) =
  Array.fold_left
    (fun acc s ->
      acc
      +. float_of_int
           (Array.fold_left ( * ) 1 s * Base.Dtype.size_in_bytes dt))
    0.0 shapes

let matmul_compute (args : Base.Ndarray.t array) =
  match args with
  | [| x; w; y |] -> (
      let xs = x.Base.Ndarray.shape and ws = w.Base.Ndarray.shape in
      let rx = Array.length xs in
      let k = xs.(rx - 1) in
      let n = ws.(Array.length ws - 1) in
      let m = xs.(rx - 2) in
      let batch = Array.fold_left ( * ) 1 (Array.sub xs 0 (rx - 2)) in
      let w_batched = Array.length ws > 2 in
      match
        ( Base.Ndarray.float_data x,
          Base.Ndarray.float_data w,
          Base.Ndarray.float_data y )
      with
      | Some xd, Some wd, Some yd ->
          (* Raw arrays fetched once: no per-element dtype dispatch. *)
          for b = 0 to batch - 1 do
            for i = 0 to m - 1 do
              let xrow = ((b * m) + i) * k in
              let wbase = if w_batched then b * k * n else 0 in
              for j = 0 to n - 1 do
                let acc = ref 0.0 in
                for kk = 0 to k - 1 do
                  acc :=
                    !acc +. (xd.(xrow + kk) *. wd.(wbase + (kk * n) + j))
                done;
                yd.((((b * m) + i) * n) + j) <- !acc
              done
            done
          done
      | _ ->
          for b = 0 to batch - 1 do
            for i = 0 to m - 1 do
              for j = 0 to n - 1 do
                let acc = ref 0.0 in
                for kk = 0 to k - 1 do
                  let xv =
                    Base.Ndarray.get_flat_float x ((((b * m) + i) * k) + kk)
                  in
                  let wv =
                    if w_batched then
                      Base.Ndarray.get_flat_float w ((((b * k) + kk) * n) + j)
                    else Base.Ndarray.get_flat_float w ((kk * n) + j)
                  in
                  acc := !acc +. (xv *. wv)
                done;
                Base.Ndarray.set_flat_float y ((((b * m) + i) * n) + j) !acc
              done
            done
          done)
  | _ -> invalid_arg "library matmul: expected 3 arguments"

let matmul_cost (shapes : int array array) dt =
  match shapes with
  | [| xs; ws; _ys |] ->
      let rx = Array.length xs in
      let k = xs.(rx - 1) in
      let n = ws.(Array.length ws - 1) in
      let m = xs.(rx - 2) in
      let batch = Array.fold_left ( * ) 1 (Array.sub xs 0 (rx - 2)) in
      {
        flops = 2.0 *. float_of_int (batch * m * k * n);
        bytes = shape_bytes shapes dt;
        small_batch = batch * m <= 2;
      }
  | _ -> invalid_arg "library matmul cost: expected 3 shapes"

(* ---------- rms_norm: (x, weight, y) ---------- *)

let rms_norm_compute (args : Base.Ndarray.t array) =
  match args with
  | [| x; w; y |] -> (
      let xs = x.Base.Ndarray.shape in
      let r = Array.length xs in
      let h = xs.(r - 1) in
      let rows = Base.Ndarray.numel x / h in
      match
        ( Base.Ndarray.float_data x,
          Base.Ndarray.float_data w,
          Base.Ndarray.float_data y )
      with
      | Some xd, Some wd, Some yd ->
          for row = 0 to rows - 1 do
            let base = row * h in
            let ss = ref 0.0 in
            for j = 0 to h - 1 do
              let v = xd.(base + j) in
              ss := !ss +. (v *. v)
            done;
            let inv = 1.0 /. sqrt ((!ss /. float_of_int h) +. 1e-5) in
            for j = 0 to h - 1 do
              yd.(base + j) <- xd.(base + j) *. inv *. wd.(j)
            done
          done
      | _ ->
          for row = 0 to rows - 1 do
            let ss = ref 0.0 in
            for j = 0 to h - 1 do
              let v = Base.Ndarray.get_flat_float x ((row * h) + j) in
              ss := !ss +. (v *. v)
            done;
            let inv = 1.0 /. sqrt ((!ss /. float_of_int h) +. 1e-5) in
            for j = 0 to h - 1 do
              let v = Base.Ndarray.get_flat_float x ((row * h) + j) in
              let wv = Base.Ndarray.get_flat_float w j in
              Base.Ndarray.set_flat_float y ((row * h) + j) (v *. inv *. wv)
            done
          done)
  | _ -> invalid_arg "library rms_norm: expected 3 arguments"

let rms_norm_cost (shapes : int array array) dt =
  match shapes with
  | [| xs; _ws; _ys |] ->
      let n = Array.fold_left ( * ) 1 xs in
      {
        flops = 4.0 *. float_of_int n;
        bytes = shape_bytes shapes dt;
        small_batch = false;
      }
  | _ -> invalid_arg "library rms_norm cost: expected 3 shapes"

(* ---------- collectives: (x_0, ..., x_{w-1}, y) ---------- *)

let is_collective name =
  String.length name > 4 && String.sub name 0 4 = "ccl."

(* All-gather over the last axis: shard s of shape (..., c) lands at
   columns [s*c, (s+1)*c) of y (..., w*c).  Shards are concatenated,
   never summed, so the result is bit-identical to the unsharded
   computation that produced the full tensor. *)
let all_gather_compute (args : Base.Ndarray.t array) =
  let w = Array.length args - 1 in
  if w < 1 then invalid_arg "ccl.all_gather: expected >= 2 arguments";
  let y = args.(w) in
  let xs = args.(0).Base.Ndarray.shape in
  let c = xs.(Array.length xs - 1) in
  let rows = Base.Ndarray.numel args.(0) / max 1 c in
  let wc = w * c in
  for s = 0 to w - 1 do
    let x = args.(s) in
    match (Base.Ndarray.float_data x, Base.Ndarray.float_data y) with
    | Some xd, Some yd ->
        for r = 0 to rows - 1 do
          Array.blit xd (r * c) yd ((r * wc) + (s * c)) c
        done
    | _ ->
        for r = 0 to rows - 1 do
          for j = 0 to c - 1 do
            Base.Ndarray.set_flat_float y
              ((r * wc) + (s * c) + j)
              (Base.Ndarray.get_flat_float x ((r * c) + j))
          done
        done
  done

(* All-reduce: y = sum over shards, accumulated as a left fold in
   shard order 0..w-1.  The order is fixed so every run of the same
   sharded module produces the same floats — but the association
   differs from the unsharded single-sum, so reduce-strategy sharding
   is deterministic without being bit-identical to TP=1. *)
let all_reduce_compute (args : Base.Ndarray.t array) =
  let w = Array.length args - 1 in
  if w < 1 then invalid_arg "ccl.all_reduce: expected >= 2 arguments";
  let y = args.(w) in
  let n = Base.Ndarray.numel y in
  let all_raw =
    Array.for_all (fun a -> Base.Ndarray.float_data a <> None) args
  in
  if all_raw then begin
    let yd = Option.get (Base.Ndarray.float_data y) in
    let xd0 = Option.get (Base.Ndarray.float_data args.(0)) in
    Array.blit xd0 0 yd 0 n;
    for s = 1 to w - 1 do
      let xd = Option.get (Base.Ndarray.float_data args.(s)) in
      for i = 0 to n - 1 do
        yd.(i) <- yd.(i) +. xd.(i)
      done
    done
  end
  else
    for i = 0 to n - 1 do
      let acc = ref (Base.Ndarray.get_flat_float args.(0) i) in
      for s = 1 to w - 1 do
        acc := !acc +. Base.Ndarray.get_flat_float args.(s) i
      done;
      Base.Ndarray.set_flat_float y i !acc
    done

(* Cost from the library's point of view: the VM charges collectives
   from the device link model, not from this roofline cost, but the
   fields still feed flop accounting. *)
let collective_cost ~reduce (shapes : int array array) dt =
  let w = Array.length shapes - 1 in
  let out = shapes.(w) in
  let n = Array.fold_left ( * ) 1 out in
  {
    flops = (if reduce then float_of_int ((w - 1) * n) else 0.0);
    bytes = float_of_int (n * Base.Dtype.size_in_bytes dt);
    small_batch = false;
  }

let () =
  register
    {
      name = "ccl.all_gather";
      compute = all_gather_compute;
      cost_fn = collective_cost ~reduce:false;
    };
  register
    {
      name = "ccl.all_reduce";
      compute = all_reduce_compute;
      cost_fn = collective_cost ~reduce:true;
    }

let () =
  List.iter
    (fun vendor ->
      register
        {
          name = vendor ^ ".matmul";
          compute = matmul_compute;
          cost_fn = matmul_cost;
        };
      register
        {
          name = vendor ^ ".rms_norm";
          compute = rms_norm_compute;
          cost_fn = rms_norm_cost;
        })
    [ "cublas"; "rocblas"; "mps" ]
