(** Memory allocators with usage accounting.

    Two flavors model the paper's Table 2 comparison:
    - [`Planned]: storage is allocated once by the compiler's static
      memory plan and reused across shapes — the "with planning" rows.
    - [`Pooling]: a runtime pool that recycles freed blocks by exact
      size — the paper's "without planning" fallback, which grows as
      new dynamic shapes appear.

    All report live/peak bytes and allocation counts. *)

type kind = [ `Planned | `Pooling ]

type t

val create : kind -> t

val alloc : t -> int -> int
(** [alloc t bytes] returns a storage id. For [`Pooling], a free block
    of the exact size is reused when available. *)

val free : t -> int -> unit
(** Release the storage id: [`Pooling] returns the block to the pool
    (still resident); [`Planned] releases the memory. *)

val size_of : t -> int -> int option
(** Size in bytes of a still-resident storage id ([None] once a
    [`Planned] storage has been freed). *)

val live_bytes : t -> int
(** Currently resident bytes (pool blocks count as resident). *)

val pool_free_bytes : t -> int
(** Bytes resident in the [`Pooling] free pool — allocated from the
    device but not currently backing any live storage. 0 for
    [`Planned]. Admission controllers (the serving engine's
    block manager) read this to decide whether a new request's cache
    blocks fit without growing the pool. *)

val fragmentation : t -> float
(** Idle fraction of resident pool memory:
    [pool_free_bytes / live_bytes] (0.0 when nothing is resident).
    High values mean the pool holds blocks whose exact sizes no longer
    match demand — the paper's "without planning" growth pathology. *)

val peak_bytes : t -> int
val alloc_count : t -> int
(** Number of fresh (non-recycled) allocations performed. *)
