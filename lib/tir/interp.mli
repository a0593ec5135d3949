(** Reference interpreter for tensor programs.

    Executes a prim func on concrete {!Base.Ndarray.t} arguments,
    binding symbolic shape variables from the actual buffer shapes
    (and from explicit [sym_args]). This is the numeric substrate for
    the VM's numeric mode and for all correctness tests: there is no
    other "real" kernel implementation to diverge from. *)

exception
  Runtime_error of string
    (** Raised on assertion failures, unbound symbols, rank or shape
        mismatches between declared buffers and actual arguments. *)

val run :
  ?sym_args:(Arith.Var.t * int) list ->
  Prim_func.t ->
  Base.Ndarray.t list ->
  unit
(** [run f args] executes [f] with [args] bound positionally to
    [f.params] (destination-passing: outputs are mutated in place),
    its symbolic variables bound by {!bind_shapes}.
    @raise Runtime_error on any inconsistency. *)

val bind_shapes :
  ?sym_args:(Arith.Var.t * int) list ->
  Prim_func.t ->
  int array list ->
  (int, int) Hashtbl.t
(** The one binder of a kernel's symbolic variables (used by {!run},
    {!Imp_compile}, the VM, and the eager baseline through
    {!Exec.Cache}): seeds the table with [sym_args], checks there is
    one shape per parameter, binds each declared dimension that is a
    bare variable and checks every other one once all are bound.
    Returns the table (var id -> value).
    @raise Runtime_error on an argument-count, rank or dimension
    mismatch. *)

val erf : float -> float
(** The error-function approximation used by [Texpr.Erf]
    (Abramowitz & Stegun 7.1.26). Shared with {!Imp_compile} so the
    two execution paths are bit-identical. *)
