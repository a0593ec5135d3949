(** Per-replica health model for the serving cluster (DESIGN.md §14).

    A heartbeat prober walks the simulated clock at a fixed cadence
    (the heartbeat, the model's only setting) and asks, for each
    replica, whether a probe at that instant succeeds against the
    {!Runtime.Fault} replica plan: it fails iff a crash or partition
    window covers it, and is slow iff a stall window does. A
    per-replica state machine folds the probe stream:

    - [Healthy]: probes succeeding at full speed.
    - [Degraded]: last probe succeeded but was slow (straggler) —
      routable, deprioritized.
    - [Down]: 2 consecutive probes failed. The circuit is open:
      probing drops to single half-open trials spaced by a backoff
      that starts at 20 ms and doubles up to a 160 ms cap.
    - [Recovering]: a half-open trial succeeded; back at heartbeat
      cadence, promoted to [Healthy] after 2 consecutive good probes.

    Probe outcomes depend only on the plan — never on serving load —
    so the whole timeline is computed deterministically up front and
    routing stays a pure function of (workload, policy, seed, plan). *)

type state = Healthy | Degraded | Down | Recovering

val state_name : state -> string
(** "healthy", "degraded", "down", "recovering". *)

type transition = { t_us : float; replica : int; state : state }

val timeline :
  heartbeat_us:float ->
  plan:Runtime.Fault.plan ->
  replicas:int ->
  horizon_us:float ->
  transition list
(** All state transitions in [\[0, horizon_us\]] with probes every
    [heartbeat_us] while the circuit is closed, sorted by time then
    replica. Replicas start [Healthy] at 0 (no transition emitted). A
    crash at [tc] is detected — i.e. the [Down] transition lands — at
    the second heartbeat after [tc]; recovery is observed at the first
    half-open probe after the window closes.
    @raise Invalid_argument unless [heartbeat_us > 0] (so NaN too): a
    non-positive heartbeat would never reach the horizon. *)

val probe_horizon : heartbeat_us:float -> float -> float
(** [probe_horizon ~heartbeat_us last_us]: a horizon past [last_us]
    (the last arrival or fault-window end) with slack for a detection
    and a half-open recovery to land — four maximal backoffs plus
    eight heartbeats. *)

val state_at : transition list -> replica:int -> t_us:float -> state
(** The replica's state at [t_us] (transitions at exactly [t_us]
    already apply); [Healthy] before any transition. *)

val down_spans :
  transition list -> replica:int -> horizon_us:float -> (float * float) list
(** Maximal [\[t_down, t_back)] spans during which the replica was
    [Down], in time order; a span still open at the horizon closes
    there. *)

val downtime_us : transition list -> replica:int -> horizon_us:float -> float
(** Total [Down] time clipped to [\[0, horizon_us\]]. *)
