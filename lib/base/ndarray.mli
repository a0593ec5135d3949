(** Dense row-major tensors.

    The numeric container used by the TIR interpreter, the VM's numeric
    mode and the extern library implementations. Floating dtypes are
    backed by a [float array] (computed in double precision; [F16]/[F32]
    only affect the modeled storage footprint), integer dtypes by an
    [int array] so that bitwise quantization arithmetic is exact. *)

type data = Float_data of float array | Int_data of int array

type t = private {
  dtype : Dtype.t;
  shape : int array;
  data : data;
}

val create : Dtype.t -> int array -> t
(** Zero-initialized tensor.
    @raise Invalid_argument on a negative dimension. *)

val scalar : Dtype.t -> float -> t
(** Rank-0 tensor holding one value. *)

val numel : t -> int
val size_in_bytes : t -> int
(** Modeled footprint: [numel * Dtype.size_in_bytes dtype]. *)

val get_float : t -> int array -> float
val set_float : t -> int array -> float -> unit
val get_int : t -> int array -> int
val set_int : t -> int array -> int -> unit

val float_data : t -> float array option
(** The raw backing array of a float-dtype tensor ([None] for integer
    dtypes). Row-major, aliases the tensor: hot paths (the compiled
    kernel layer, library routines) index it directly instead of
    dispatching on dtype per element. *)

val int_data : t -> int array option
(** The raw backing array of an integer-dtype tensor ([None] for
    float dtypes). *)

val get_flat_float : t -> int -> float
val set_flat_float : t -> int -> float -> unit
val get_flat_int : t -> int -> int
val set_flat_int : t -> int -> int -> unit

val linear_index : t -> int array -> int
(** Row-major flattened offset.
    @raise Invalid_argument on rank mismatch or out-of-bounds index. *)

val of_float_list : Dtype.t -> int array -> float list -> t
val of_int_list : Dtype.t -> int array -> int list -> t
val to_float_list : t -> float list

val argmax : t -> int
(** Flat index of the largest element; the first maximum wins (greedy
    decoding's next token). 0 when no element exceeds [neg_infinity]. *)

val fill_float : t -> float -> unit
val init_float : Dtype.t -> int array -> (int array -> float) -> t

val random_uniform : ?seed:int -> Dtype.t -> int array -> t
(** Deterministic pseudo-random values in [(-1, 1)] for float dtypes,
    small non-negative ints for integer dtypes. *)

val reshape_view : t -> int array -> t
(** Same data, new shape. @raise Invalid_argument if element counts
    differ. The result aliases the input. *)

val copy : t -> t

val equal_approx : ?eps:float -> t -> t -> bool
(** Same dtype class, shape, and pointwise values within [eps]
    (default [1e-6]) for floats, exactly for ints. *)

val pp : Format.formatter -> t -> unit
(** Shape/dtype header plus up to the first eight elements. *)
