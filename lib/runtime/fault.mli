(** Deterministic fault injection and the typed failure taxonomy.

    The paper's deployment story spans phones, browsers and discrete
    GPUs — environments where kernels sporadically fail, devices
    stall, allocations spike past the budget and vendor libraries
    corrupt outputs. This module gives those failures first-class,
    *testable* semantics: an injector is a seeded PRNG (never
    [Random.self_init]) that the serving scheduler consults at its
    step-boundary injection points (prefill and decode steps, KV
    admission and growth, each decoded token). Every fired injection
    is a typed {!event} with a stream-wide sequence number; the
    scheduler records it through {!Trace.Fault_injected}, so chaos
    runs are replayable and two runs with the same seed produce
    identical fault schedules. Cluster-scope faults are planned
    windows instead (below).

    All probabilities default to 0; a draw with probability 0 does
    not consume PRNG state, so enabling one fault kind leaves the
    schedules of the others untouched and a config with every
    probability 0 is byte-identical to no injector at all. *)

type config = {
  seed : int;  (** PRNG seed; same seed = same fault schedule *)
  kernel_fail_p : float;
      (** per-step probability of a transient failure: the prefill or
          decode step's time is wasted and it is retried *)
  stall_p : float;
      (** per-step probability of a device stall: the step's
          simulated time is multiplied by [stall_factor] *)
  stall_factor : float;  (** latency multiplier while stalled, > 1 *)
  oom_p : float;
      (** per-KV-allocation probability of an OOM spike: the admit or
          grow fails as if the KV pool were exhausted *)
  nan_p : float;
      (** per-token probability of corrupt output: the token is
          discarded and regenerated, spending one retry attempt *)
}

val disabled : config
(** Seed 0, every probability 0.0, stall factor 4.0. *)

type kind =
  | Kernel_failure
  | Device_stall
  | Alloc_oom
  | Nan_corruption
  | Replica_crash
      (** cluster scope: a replica's engine dies; its KV cache and
          in-flight batches are lost until the window closes *)
  | Replica_stall
      (** cluster scope: a straggler replica; every step is slowed by
          the window's [factor] *)
  | Replica_partition
      (** cluster scope: router-to-replica link drops; health probes
          fail but already-dispatched work is unaffected *)

val kind_name : kind -> string
(** Stable short names: "kernel_failure", "device_stall",
    "alloc_oom", "nan_corruption", "replica_crash", "replica_stall",
    "replica_partition". *)

val all_kinds : kind list

val kind_index : kind -> int
(** Dense 0-based index into [all_kinds], for counter arrays. *)

type event = {
  seq : int;  (** 0-based injection sequence number within this injector *)
  site : string;
      (** where it fired: "prefill", "decode", "kv-admit", "kv-grow",
          or a replica window ({!window_event}) *)
  kind : kind;
}

type t
(** A live injector: config + seeded PRNG + injection counters. *)

val create : config -> t
val config : t -> config

(** {1 Draws} *)

val draw : t -> kind -> site:string -> event option
(** [draw t kind ~site] reads [kind]'s probability from the config,
    consults the PRNG iff it is positive, and returns [Some event]
    when the fault fires (also bumping the injector's counters). The
    [Replica_*] kinds are planned windows, never drawn: they return
    [None] and consume no PRNG state. Callers are responsible for
    recording the event (e.g. through {!Trace.Fault_injected}) and
    acting on it; a stall applies the config's [stall_factor]. *)

val injected_total : t -> int
(** Number of events fired so far (= next event's [seq]). *)

val injected : t -> kind -> int

(** {1 Replica-scoped scheduled faults}

    Cluster-level faults are planned *windows* on the simulated clock
    rather than per-draw Bernoulli trials: replica [replica] is
    crashed / stalled / partitioned for [\[from_us, until_us)]. The
    plan is generated up front from per-(replica, kind) independent
    PRNG streams ([Random.State.make \[| seed; replica; kind |\]]), so
    arming one kind on one replica never perturbs any other stream,
    and a probability-0 kind consumes no PRNG state at all. Explicit
    windows can also be constructed directly (benches script exact
    scenarios such as "replica 2 dead for the middle third"). *)

type window = {
  replica : int;
  rkind : kind;  (** one of the [Replica_*] kinds *)
  from_us : float;  (** window start, inclusive *)
  until_us : float;  (** window end, exclusive *)
  factor : float;  (** stall slowdown multiplier; 1.0 for crash/partition *)
}

type plan = window list

val plan_replica_faults :
  seed:int ->
  replicas:int ->
  horizon_us:float ->
  ?crash_p:float ->
  ?stall_p:float ->
  ?partition_p:float ->
  unit ->
  plan
(** Sample at most one window per (replica, kind): with probability
    [p] the window starts uniformly in the first 70% of the horizon
    and lasts a fifth of the horizon × U(0.5, 1.5), clamped to end by
    95% of the horizon. A stall window slows its replica 4×. Windows
    are returned sorted by start time. Same seed = same plan. *)

val window_active : window -> float -> bool
val plan_windows : plan -> replica:int -> ?rkind:kind -> unit -> window list
val crashed_at : plan -> replica:int -> t_us:float -> bool
val partitioned_at : plan -> replica:int -> t_us:float -> bool

val stall_factor_at : plan -> replica:int -> t_us:float -> float
(** Product of the factors of all active stall windows; 1.0 if none. *)

val window_event : seq:int -> window -> event
(** Typed event for recording a window through {!Trace.Fault_injected}. *)

(** {1 Typed failure taxonomy}

    The serving layer raises {!Error} instead of stringly
    [Failure]/[Invalid_argument] so callers can make policy
    decisions: retry transients with backoff, shed on resource
    exhaustion, regenerate corrupt output, and only propagate
    fatals. {!Vm.Vm_error} remains for VM-internal programming
    errors (shape-check failures, missing functions). *)

type error_class =
  | Transient  (** retry with backoff may succeed (kernel blip) *)
  | Fatal  (** programming or configuration error; do not retry *)
  | Resource_exhausted
      (** memory/budget exceeded; shed load or wait for capacity *)
  | Corrupt_output  (** result data is wrong; discard and recompute *)

exception Error of error_class * string

val error_class_name : error_class -> string
(** "transient", "fatal", "resource_exhausted", "corrupt_output". *)

val errorf : error_class -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [errorf cls fmt ...] raises {!Error}[ (cls, msg)]. *)
