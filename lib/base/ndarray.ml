type data = Float_data of float array | Int_data of int array

type t = { dtype : Dtype.t; shape : int array; data : data }

let numel_of_shape shape =
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Ndarray: negative dimension" else acc * d)
    1 shape

let create dtype shape =
  let n = numel_of_shape shape in
  let data =
    if Dtype.is_float dtype then Float_data (Array.make n 0.0)
    else Int_data (Array.make n 0)
  in
  { dtype; shape = Array.copy shape; data }

let scalar dtype v =
  let t = create dtype [||] in
  (match t.data with
  | Float_data a -> a.(0) <- v
  | Int_data a -> a.(0) <- int_of_float v);
  t

let numel t = numel_of_shape t.shape
let size_in_bytes t = numel t * Dtype.size_in_bytes t.dtype

let linear_index t idx =
  let rank = Array.length t.shape in
  if Array.length idx <> rank then
    invalid_arg
      (Printf.sprintf "Ndarray.linear_index: rank mismatch (%d vs %d)"
         (Array.length idx) rank);
  let off = ref 0 in
  for d = 0 to rank - 1 do
    let i = idx.(d) in
    if i < 0 || i >= t.shape.(d) then
      invalid_arg
        (Printf.sprintf "Ndarray.linear_index: index %d out of bounds [0,%d) at axis %d"
           i t.shape.(d) d);
    off := (!off * t.shape.(d)) + i
  done;
  !off

let float_data t =
  match t.data with Float_data a -> Some a | Int_data _ -> None

let int_data t =
  match t.data with Int_data a -> Some a | Float_data _ -> None

let get_flat_float t i =
  match t.data with Float_data a -> a.(i) | Int_data a -> float_of_int a.(i)

let set_flat_float t i v =
  match t.data with
  | Float_data a -> a.(i) <- v
  | Int_data a -> a.(i) <- int_of_float v

let get_flat_int t i =
  match t.data with Int_data a -> a.(i) | Float_data a -> int_of_float a.(i)

let set_flat_int t i v =
  match t.data with
  | Int_data a -> a.(i) <- v
  | Float_data a -> a.(i) <- float_of_int v

let get_float t idx = get_flat_float t (linear_index t idx)
let set_float t idx v = set_flat_float t (linear_index t idx) v
let get_int t idx = get_flat_int t (linear_index t idx)
let set_int t idx v = set_flat_int t (linear_index t idx) v

let of_float_list dtype shape vals =
  let t = create dtype shape in
  let n = numel t in
  if List.length vals <> n then
    invalid_arg "Ndarray.of_float_list: element count mismatch";
  List.iteri (fun i v -> set_flat_float t i v) vals;
  t

let of_int_list dtype shape vals =
  let t = create dtype shape in
  let n = numel t in
  if List.length vals <> n then
    invalid_arg "Ndarray.of_int_list: element count mismatch";
  List.iteri (fun i v -> set_flat_int t i v) vals;
  t

let to_float_list t = List.init (numel t) (get_flat_float t)

let argmax t =
  let best = ref 0 and best_v = ref neg_infinity in
  for i = 0 to numel t - 1 do
    let v = get_flat_float t i in
    if v > !best_v then begin
      best_v := v;
      best := i
    end
  done;
  !best

let fill_float t v =
  match t.data with
  | Float_data a -> Array.fill a 0 (Array.length a) v
  | Int_data a -> Array.fill a 0 (Array.length a) (int_of_float v)

let init_float dtype shape f =
  let t = create dtype shape in
  let rank = Array.length shape in
  let idx = Array.make rank 0 in
  let n = numel t in
  for flat = 0 to n - 1 do
    let rem = ref flat in
    for d = rank - 1 downto 0 do
      idx.(d) <- !rem mod shape.(d);
      rem := !rem / shape.(d)
    done;
    set_flat_float t flat (f idx)
  done;
  t

(* Deterministic xorshift so tests and benches are reproducible. *)
let random_uniform ?(seed = 42) dtype shape =
  let t = create dtype shape in
  let state = ref (seed lor 1) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state
  in
  let n = numel t in
  for i = 0 to n - 1 do
    if Dtype.is_float dtype then
      set_flat_float t i ((float_of_int (next () mod 20001) /. 10000.0) -. 1.0)
    else set_flat_int t i (next () mod 16)
  done;
  t

let reshape_view t shape =
  if numel_of_shape shape <> numel t then
    invalid_arg "Ndarray.reshape_view: element count mismatch";
  { t with shape = Array.copy shape }

let copy t =
  let data =
    match t.data with
    | Float_data a -> Float_data (Array.copy a)
    | Int_data a -> Int_data (Array.copy a)
  in
  { t with data }

let equal_approx ?(eps = 1e-6) a b =
  a.shape = b.shape
  &&
  match (a.data, b.data) with
  | Float_data x, Float_data y ->
      let ok = ref true in
      Array.iteri (fun i v -> if abs_float (v -. y.(i)) > eps then ok := false) x;
      !ok
  | Int_data x, Int_data y -> x = y
  | Float_data _, Int_data _ | Int_data _, Float_data _ -> false

let pp fmt t =
  let shape_str =
    String.concat "x" (Array.to_list (Array.map string_of_int t.shape))
  in
  Format.fprintf fmt "ndarray<%s, %s>[" shape_str (Dtype.to_string t.dtype);
  let n = min 8 (numel t) in
  for i = 0 to n - 1 do
    if i > 0 then Format.fprintf fmt ", ";
    if Dtype.is_float t.dtype then Format.fprintf fmt "%g" (get_flat_float t i)
    else Format.fprintf fmt "%d" (get_flat_int t i)
  done;
  if numel t > 8 then Format.fprintf fmt ", ...";
  Format.fprintf fmt "]"
