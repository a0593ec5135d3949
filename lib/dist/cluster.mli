(** Replicated serving cluster: one request stream spread across M
    independent {!Serve.Scheduler} replicas — data parallelism over
    requests, with cluster-level fault tolerance (DESIGN.md §14).

    Routing is decided deterministically in a single up-front walk:
    the router keeps a per-replica backlog estimate (queued work from
    {!Serve.Scheduler.estimate_request_us} — no engine runs during
    routing) and assigns each request as it arrives; then every
    replica serves its share with a private engine (own block manager,
    own clock, own metrics) and the per-replica results fold into one
    cluster summary whose makespan is the slowest replica's clock.

    Best-of-n forks always follow their parent's replica under every
    policy (a fork only shares KV with a parent on the same engine) —
    unless that replica is currently believed Down.

    {2 Fault tolerance}

    [opts.replica_faults] arms a {!Runtime.Fault} replica plan (crash
    / stall / partition windows). {!Health} simulates the heartbeat
    prober against the plan up front, so the per-replica health
    timeline — like everything else about routing — is a pure function
    of (workload, policy, plan).

    With [health_aware = true] (default):
    - no policy routes to a replica believed [Down]; [Degraded]
      replicas are deprioritized ({!Prefix_affinity} keeps its hash
      home while it is [Healthy], else falls back to the
      next-healthiest replica deterministically — ordered by health,
      then estimated backlog, then scan distance from the home — so a
      hot home's sessions re-spread over the survivors);
    - each {e detected} crash splits the victim into eras: the
      pre-crash era runs with [stop_at] at the crash instant, and the
      requests it drains re-enter routing at the detection time on
      surviving replicas, KV recomputed from scratch (vLLM-style
      recompute preemption lifted across replicas). Each request
      migrates at most twice; past that it is aborted. The
      post-recovery era is a fresh engine incarnation — a restarted
      engine has no KV either, so era isolation is the correct
      restart semantics, not an approximation;
    - crash blips too short for the prober to detect are handed to
      the era run as engine-side outage windows instead — nothing
      drains, nothing is lost;
    - [hedge = true] additionally duplicates any request routed to a
      [Degraded] / [Recovering] replica onto the least-backlogged
      [Healthy] one; whichever copy finishes first wins (duplicates
      deduplicate in the fold, counted as [hedge_wins] when the hedge
      copy won).

    With [health_aware = false] — the health-blind baseline the
    failover bench compares against — routing sees every replica
    [Healthy], so it ignores the plan entirely (it picks exactly what
    a fault-free dispatch picks), there is no hedging, and each
    crashed replica runs its whole assignment through
    {!Serve.Scheduler} outage windows: its queue strands until the
    engine restarts. Stall windows degrade step time identically on
    both paths.

    When every replica is [Healthy] at every decision point (in
    particular whenever [replica_faults = []]), every policy routes
    bit-for-bit as the pre-failover cluster did and the folded
    summary is byte-identical — the routing goldens and the
    cluster-of-one test pin this. *)

type route =
  | Round_robin  (** arrival order modulo M *)
  | Least_loaded  (** smallest estimated backlog at arrival; ties
                      break to the lowest replica index *)
  | Power_of_two
      (** sample two distinct replicas from the router PRNG (fixed
          seed 0), take the less loaded (ties keep the first draw) *)
  | Prefix_affinity
      (** FNV-1a hash of the first [affinity_window] prompt tokens
          modulo M, so requests sharing a prompt prefix land on the
          same replica and hit its KV prefix cache; requests without
          [prompt_tokens] fall back to round-robin *)

val route_name : route -> string
val route_of_string : string -> route option
(** Accepts the [route_name] forms plus the short aliases
    [rr]/[ll]/[p2c]/[affinity]. *)

type opts = {
  replicas : int;
  route : route;
  affinity_window : int;
      (** prompt-prefix length hashed by {!Prefix_affinity}; must
          exceed the shared system-prompt length for chat workloads
          to spread across replicas at all *)
  sched : Serve.Scheduler.opts;  (** per-replica engine options *)
  replica_faults : Runtime.Fault.plan;
      (** scheduled replica-scoped fault windows; [[]] (default)
          disarms every fault-tolerance path — routing, era splitting
          and the fold are then byte-identical to the pre-failover
          cluster *)
  heartbeat_us : float;
      (** {!Health} probe cadence, > 0 (the circuit breaker's other
          settings are constants); default 10 ms *)
  health_aware : bool;
      (** [false]: health-blind routing + engine outage windows (the
          naive baseline). Default [true]. *)
  hedge : bool;
      (** duplicate requests routed to Degraded replicas onto the
          least-backlogged Healthy one; earliest finish wins.
          Default [false]. *)
}

val default_opts : opts
(** 2 replicas, round-robin, 64-token affinity window,
    {!Serve.Scheduler.default_opts} engines, no fault plan, 10 ms
    heartbeat, health-aware, no hedging. *)

val fnv1a : int list -> int
(** 32-bit FNV-1a over token ids (4 little-endian bytes each) —
    stable across OCaml versions, unlike [Hashtbl.hash]. *)

val dispatch :
  model:Serve.Scheduler.model ->
  opts ->
  Serve.Workload.t ->
  (int * int) list
(** The routing phase alone: [(request id, replica)] in arrival
    order, health-aware against the precomputed timeline but with no
    engines run — so no failover re-admission happens here. The
    determinism golden pins this: same (workload, policy, plan)
    → byte-equal decisions, even as the healthy set changes
    mid-stream. Runs nothing beyond the shared cost-model VMs.
    @raise Invalid_argument if [replicas < 1], or if [replica_faults]
    is non-empty and [heartbeat_us] is not > 0. *)

type replica_report = {
  eras : (float * Serve.Scheduler.result) list;
      (** (era start, era result) in time order; era clocks are
          absolute cluster time. One era when the replica never
          crashed; a detected crash ends an era (its result carries
          the drained set) and recovery starts the next. *)
  downtime_us : float;
      (** total time the health model held the replica [Down],
          clipped to the cluster makespan; 0.0 with no plan *)
}

type result = {
  dispatch : (int * int) list;
      (** realized primary routing, in workload order. With faults
          armed this is what actually ran — mid-walk failover bumps
          the backlog estimates later decisions see, so it can differ
          from what {!dispatch} (routing alone) would pick. *)
  hedged : (int * int) list;
      (** (request id, hedge replica) per duplicated dispatch *)
  migrations : (int * int * int) list;
      (** (request id, from, to) per failover re-admission, in
          detection order *)
  replica_reports : replica_report array;
  health : Health.transition list;  (** the full health timeline *)
  summary : Serve.Metrics.summary;
      (** cluster fold: makespan = slowest era end, counters summed,
          rates time-weighted by era duration, percentiles over the
          merged per-request metrics — deduplicated by earliest
          finish (hedges), migrated requests charged from their
          {e original} arrival — plus the failover counters
          ([failovers] / [migrations] / [hedges] / [hedge_wins] /
          [replica_downtime_us]) *)
}

val run :
  ?trace:Runtime.Trace.sink ->
  ?exec:Serve.Scheduler.exec ->
  model:Serve.Scheduler.model ->
  opts ->
  Serve.Workload.t ->
  result
(** Route, serve every era, fold. Replicas share [model]
    (compilations and memoized step costs are reused; all run-time
    state is per-{!Serve.Scheduler.run}), so a cluster run costs the
    engine loops, not M compilations. [trace] receives cluster-level
    events only (per-replica engine streams are not forwarded):
    {!Runtime.Trace.Fault_injected} per scheduled window, then
    [`Replica_down] / [`Replica_up] per health down-span (id =
    replica index), [`Failover] per migration (id = request, batch =
    destination replica), [`Hedge] / [`Hedge_win] when hedging.
    @raise Invalid_argument as {!dispatch} does. *)

val to_string : opts -> result -> string
(** Per-replica utilization lines (completed, busy time summed over
    eras, tok/s, downtime when nonzero) followed by the folded
    cluster summary. *)
