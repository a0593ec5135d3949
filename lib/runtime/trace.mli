(** Structured execution traces for the VM.

    Every observable runtime action of {!Vm.run} — instruction
    begin/end, kernel and library launches with resolved shapes and
    roofline cost, allocator traffic, graph capture/replay, shape-var
    binding and checking — is emitted as a typed event through an
    optional sink passed to {!Vm.create}. The stream is the single
    source of truth for the paper's evaluation counters: the
    {!Profiler} folds it into per-kernel tables, the benchmark harness
    derives Figures 14–17 / Table 2 from those folds, and the test
    suite asserts pass-level effects (fusion removes launches, memory
    planning reuses storage, capture replays skip launch overhead)
    directly on event sequences.

    Events carry both a mode-independent "shape" (what happened, on
    what operands) and timing fields populated in [`Timed] mode; the
    two renderings {!to_string} and {!shape_of} differ exactly in the
    timing fields, so [`Numeric] and [`Timed] runs of the same program
    produce identical {!shape_of} streams. *)

type alloc_kind = [ `Storage | `Tensor ]
(** [`Storage]: a planned storage allocated by [Alloc_storage]
    (persists across invocations). [`Tensor]: an unplanned tensor that
    owns fresh backing memory. *)

type event =
  | Enter of { func : string; top : bool; overhead_us : float }
      (** VM function entry. [top] marks an invocation through
          {!Vm.run} (one inference step); [overhead_us] is the
          per-step host overhead charged in timed mode. *)
  | Exit of { func : string }
  | Instr_begin of { func : string; pc : int; op : string; prov : string option }
      (** [prov] is the originating Relax binding name attached by
          the [To_vm] pass, attributing the instruction to a
          source-level operation. *)
  | Instr_end of { func : string; pc : int; elapsed_us : float }
      (** Closes the matching [Instr_begin]; [elapsed_us] is the
          simulated time charged by the instruction (0 in numeric
          mode). [Ret] instructions emit no end event. *)
  | Bind_shape of { var : string; value : int }
      (** A [Match_shape] bound a fresh symbolic variable. *)
  | Check_shape of { expr : string; value : int }
      (** A [Match_shape] checked an already-determined dimension. *)
  | Alloc of {
      kind : alloc_kind;
      id : int;
      bytes : int;
      reused : bool;
      live : int;
    }
      (** [reused]: a planned storage served from the cross-invocation
          cache, or a pool hit. [live] is allocator live bytes after
          the operation, so folds can recover peak memory exactly. *)
  | Tensor_in_storage of { storage_id : int; bytes : int }
      (** A tensor instantiated inside planned storage (no fresh
          allocation) — the memory plan's reuse in action. *)
  | Free of { id : int; bytes : int; live : int }
  | End_of_life of { id : int; bytes : int }
      (** Storage still owned by a register when its frame exits: its
          last possible use has passed. No allocator action is taken
          (pool blocks stay resident), but together with [Free] this
          closes every [`Tensor] allocation in the stream. *)
  | Kernel_launch of {
      kernel : string;
      prov : string option;
      replay : bool;
      shapes : int array array;
      flops : int;
      bytes_moved : int;
      elapsed_us : float;
      backend : string;
    }
      (** A generated-kernel call with fully resolved argument shapes
          and roofline cost. [replay]: executed inside a captured
          graph replay (no per-launch overhead was charged).
          [elapsed_us] includes launch overhead when charged.
          [backend] names the execution backend that ran (numeric
          mode) or would run (timed mode) the kernel — see
          {!Tir.Exec}; it is surfaced by the profiler's per-backend
          split, not by {!render}. *)
  | Extern_call of {
      func : string;
      prov : string option;
      replay : bool;
      shapes : int array array;
      flops : float;
      bytes_moved : float;
      elapsed_us : float;
    }  (** A vendor-library call (partial library lowering, §4.6). *)
  | Collective of {
      op : string;
      prov : string option;
      replay : bool;
      world : int;
      shapes : int array array;
      bytes_wire : float;
      elapsed_us : float;
    }
      (** A cross-device collective ("ccl.all_reduce" /
          "ccl.all_gather") over [world] shards of a tensor-parallel
          module (DESIGN.md §13). Charged from the device's
          {!Device.link} rather than its memory roofline; [bytes_wire]
          is the traffic the interconnect actually carried
          ({!Device.collective_wire_bytes}). *)
  | Capture_begin of { capture_id : int; func : string }
      (** First execution of a capture region: records the graph. *)
  | Capture_replay of { capture_id : int; func : string; overhead_us : float }
      (** Subsequent execution: replays at one fixed overhead. *)
  | Serve of {
      tag : serve_tag;
      id : int;
      t_us : float;
      batch : int;
      tokens : int;
    }
      (** A serving-engine scheduling decision (emitted by
          [Serve.Scheduler], never by the VM itself). [id] is the
          request id ([-1] for batch-level events), [t_us] the
          engine's simulated clock at emission, [batch] the live batch
          size and [tokens] the tokens processed by the event (prompt
          length for [`Prefill], batch-wide tokens for [`Decode_step],
          generated count for [`Finish]). [t_us] is a clock reading,
          not a duration — {!elapsed_us_of} is 0 so profiler time
          invariants over VM streams are unaffected.

          Resilience tags: [`Shed] (admission control rejected the
          request; [tokens] = prompt length), [`Timeout] (shed because
          its deadline already passed), [`Retry] (a transient fault or
          corrupt token costs the request one attempt; [tokens] =
          attempts consumed so far), [`Abort] (retry budget exhausted
          or request infeasible for the KV budget), [`Degrade]
          (persistent device stall shrank the effective batch; [batch]
          = new effective max batch, [id] = -1).

          KV prefix-sharing tags: [`Prefix_hit] (admission served
          [tokens] prompt tokens from the shared prefix cache),
          [`Cow_copy] (a write into a shared block copy-on-wrote;
          [tokens] = copies made), [`Evict] (cached refcount-0 blocks
          reclaimed under pool pressure; [tokens] = blocks evicted,
          [id] = -1). Never emitted when sharing is off.

          Cluster failover tags (emitted by [Dist.Cluster], never by a
          single-replica engine): [`Failover] (request [id] drained
          from a crashed replica and re-admitted elsewhere; [batch] =
          destination replica), [`Hedge] (a duplicate of request [id]
          was dispatched to a healthy replica; [batch] = hedge
          replica), [`Hedge_win] (the hedge copy finished first),
          [`Replica_down] / [`Replica_up] (health state machine marked
          replica [id] Down / back non-Down at [t_us]). *)
  | Fault_injected of Fault.event
      (** A fault fired at this point of the stream: a draw of the
          serving scheduler's injector, or a planned replica window,
          marked when a cluster run starts. A drawn event precedes the
          consequence it causes (failed step, stalled step, refused KV
          admit or grow, discarded token). Never emitted when
          injection is off. *)

and serve_tag =
  [ `Request_arrive
  | `Prefill
  | `Decode_step
  | `Preempt
  | `Finish
  | `Shed
  | `Timeout
  | `Retry
  | `Abort
  | `Degrade
  | `Prefix_hit
  | `Cow_copy
  | `Evict
  | `Failover
  | `Hedge
  | `Hedge_win
  | `Replica_down
  | `Replica_up ]

type sink = event -> unit

val serve_tag_name : serve_tag -> string
(** Short stable name ("arrive", "prefill", "decode_step", "preempt",
    "finish", "shed", "timeout", "retry", "abort", "degrade",
    "prefix_hit", "cow_copy", "evict", "failover", "hedge",
    "hedge_win", "replica_down", "replica_up") used by renderings and
    the profiler report. *)

val to_string : event -> string
(** One-line rendering including timing fields. *)

val shape_of : event -> string
(** One-line rendering with timing fields elided: the
    mode-independent shape of the event. [`Numeric] and [`Timed] runs
    of one program yield equal [shape_of] streams. *)

(** {1 Recording sink} *)

type recorder

val recorder : unit -> recorder
val sink : recorder -> sink
val events : recorder -> event list
(** Events in emission order. *)

val clear : recorder -> unit
val tee : sink -> sink -> sink

(** {1 Classification helpers} *)

val is_launch : ?include_replays:bool -> event -> bool
(** [Kernel_launch] events; [include_replays:false] keeps only
    launches that paid per-launch overhead (default [true]). *)

val is_extern : ?include_replays:bool -> event -> bool
val is_collective : ?include_replays:bool -> event -> bool
val is_fault : event -> bool
val elapsed_us_of : event -> float
(** Simulated time charged by the event ([Instr_end] excluded to
    avoid double counting its children). Summing over a stream
    reproduces [stats.elapsed_us]. *)
