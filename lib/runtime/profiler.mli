(** Fold a {!Trace} event stream into per-kernel counters.

    The profiler is a {!Trace.sink}: attach it to a VM via
    [Vm.create ~trace:(Profiler.sink p)] and every kernel launch,
    library call, capture replay and allocation is aggregated into a
    table of per-routine counters (calls, launches that paid overhead,
    simulated time, flops, bytes moved) plus global memory statistics.
    Serving engines and clusters feed the same sink: their
    {!Trace.Serve} events are counted per tag, and their
    {!Trace.Fault_injected} events per fault kind.

    Invariants the test suite relies on:
    - {!total_time_us} equals the VM's [stats.elapsed_us] for the same
      run (every charged microsecond appears in exactly one event);
    - {!peak_live_bytes} equals [Allocator.peak_bytes] of the VM's
      allocator (events carry live-bytes-after, so the fold recovers
      the exact peak);
    - per-row [calls - launches] counts replayed executions.

    The benchmark harness derives its tables from these counters, so
    benches and tests assert on the same numbers. *)

type row = {
  name : string;
  kind : [ `Kernel | `Extern | `Comm ];
  mutable calls : int;  (** total executions, including replays *)
  mutable launches : int;  (** executions that paid launch overhead *)
  mutable time_us : float;
  mutable flops : float;
  mutable bytes_moved : float;
  mutable origin : string option;
      (** provenance: the Relax binding that produced the call *)
  mutable backend : string;
      (** execution backend that ran the kernel ("interp" | "imp",
          see {!Tir.Exec}); ["-"] for library routines and
          rows that have not seen a launch *)
}

type t

val create : unit -> t
val sink : t -> Trace.sink

val rows : t -> row list
(** Sorted by simulated time (descending), then name. *)

val find_row : t -> string -> row option

val total_time_us : t -> float
(** Call time plus step and replay overheads: equals the VM's
    [stats.elapsed_us] over the profiled runs. *)

val peak_live_bytes : t -> int
val steps : t -> int
val replays : t -> int

val serve_count : t -> Trace.serve_tag -> int
(** {!Trace.Serve} events seen with this tag (0 unless a serving
    engine or cluster fed its events into this profiler). A timeout is
    a shed too: [serve_count t `Shed] counts [`Shed] and [`Timeout]. *)

val comm_time_us : t -> float
(** Simulated time spent in collectives ([`Comm] rows). *)

val collective_count : t -> int
(** Total collective executions, including replays. *)

val device_split : t -> (string * int * float) list
(** Per-device attribution [(tag, calls, time_us)] for tensor-parallel
    sharded modules: shard tags ["g0"…"g<tp-1>"] (parsed from
    ["g<k>:"]-prefixed provenance), ["shared"] for replicated work that
    runs on every device, ["link"] for collectives. Empty unless some
    event carried a shard tag, so single-device runs are unaffected.
    The [--profile] report renders this as a "devices:" line. *)

val fault_count : t -> Fault.kind -> int
(** {!Trace.Fault_injected} events seen, by fault kind. *)

val report : ?top:int -> t -> string
(** Text table sorted by time; [top] truncates to the first [top]
    rows. Ends with call/time/memory total lines, a "backends:" line
    (kernel calls and time per execution backend), and serving,
    resilience, kv-sharing, failover and fault lines when those
    events were seen. *)
