(* Seeded fault injection + the typed failure taxonomy.

   A single injector owns one PRNG stream; the serving scheduler draws
   from it at its step-boundary injection points in program order, so
   a (config, workload) pair fully determines the fault schedule.
   Draws with probability 0 skip the PRNG entirely: a config with one
   knob turned leaves the other kinds' schedules unchanged, and an
   all-zero config is indistinguishable from no injector. *)

type config = {
  seed : int;
  kernel_fail_p : float;
  stall_p : float;
  stall_factor : float;
  oom_p : float;
  nan_p : float;
}

let disabled =
  {
    seed = 0;
    kernel_fail_p = 0.0;
    stall_p = 0.0;
    stall_factor = 4.0;
    oom_p = 0.0;
    nan_p = 0.0;
  }

type kind =
  | Kernel_failure
  | Device_stall
  | Alloc_oom
  | Nan_corruption
  | Replica_crash
  | Replica_stall
  | Replica_partition

let kind_name = function
  | Kernel_failure -> "kernel_failure"
  | Device_stall -> "device_stall"
  | Alloc_oom -> "alloc_oom"
  | Nan_corruption -> "nan_corruption"
  | Replica_crash -> "replica_crash"
  | Replica_stall -> "replica_stall"
  | Replica_partition -> "replica_partition"

let all_kinds =
  [ Kernel_failure; Device_stall; Alloc_oom; Nan_corruption; Replica_crash;
    Replica_stall; Replica_partition ]

let kind_index = function
  | Kernel_failure -> 0
  | Device_stall -> 1
  | Alloc_oom -> 2
  | Nan_corruption -> 3
  | Replica_crash -> 4
  | Replica_stall -> 5
  | Replica_partition -> 6

type event = { seq : int; site : string; kind : kind }

type t = {
  config : config;
  st : Random.State.t;
  mutable seq : int;
  counts : int array;
}

let create config =
  {
    config;
    st = Random.State.make [| config.seed |];
    seq = 0;
    counts = Array.make (List.length all_kinds) 0;
  }

let config t = t.config

(* Replica kinds are planned windows (below), never drawn. *)
let probability c = function
  | Kernel_failure -> c.kernel_fail_p
  | Device_stall -> c.stall_p
  | Alloc_oom -> c.oom_p
  | Nan_corruption -> c.nan_p
  | Replica_crash | Replica_stall | Replica_partition -> 0.0

let draw t kind ~site =
  let p = probability t.config kind in
  if p <= 0.0 then None
  else if Random.State.float t.st 1.0 < p then begin
    let ev = { seq = t.seq; site; kind } in
    t.seq <- t.seq + 1;
    t.counts.(kind_index kind) <- t.counts.(kind_index kind) + 1;
    Some ev
  end
  else None

let injected_total t = t.seq
let injected t kind = t.counts.(kind_index kind)

(* Replica-scoped scheduled faults.

   Unlike the per-draw injector above, cluster faults are *windows* on
   the simulated clock: replica [replica] is crashed / stalled /
   partitioned from [from_us] (inclusive) to [until_us] (exclusive).
   Windows are planned up front from per-(replica, kind) independent
   PRNG streams, so arming one kind on one replica never perturbs the
   schedule of any other stream — the same discipline [draw] uses for
   probability-zero knobs. *)

type window = {
  replica : int;
  rkind : kind;
  from_us : float;
  until_us : float;
  factor : float;
}

type plan = window list

let window_active w t_us = t_us >= w.from_us && t_us < w.until_us

let plan_windows plan ~replica ?rkind () =
  List.filter
    (fun w ->
      w.replica = replica
      && match rkind with None -> true | Some k -> w.rkind = k)
    plan

let active_at plan ~replica rkind ~t_us =
  List.exists
    (fun w -> w.replica = replica && w.rkind = rkind && window_active w t_us)
    plan

let crashed_at plan ~replica ~t_us = active_at plan ~replica Replica_crash ~t_us

let partitioned_at plan ~replica ~t_us =
  active_at plan ~replica Replica_partition ~t_us

let stall_factor_at plan ~replica ~t_us =
  List.fold_left
    (fun acc w ->
      if w.replica = replica && w.rkind = Replica_stall && window_active w t_us
      then acc *. w.factor
      else acc)
    1.0 plan

(* A planned stall slows its replica 4x; a window lasts a fifth of the
   horizon on average. *)
let replica_stall_factor = 4.0

let plan_replica_faults ~seed ~replicas ~horizon_us ?(crash_p = 0.0)
    ?(stall_p = 0.0) ?(partition_p = 0.0) () =
  let mean_down_us = horizon_us /. 5.0 in
  let windows = ref [] in
  let sample replica rkind p factor =
    if p > 0.0 then begin
      (* one stream per (replica, kind): independent schedules *)
      let st = Random.State.make [| seed; replica; kind_index rkind |] in
      if Random.State.float st 1.0 < p then begin
        let from_us =
          horizon_us *. (0.1 +. (0.6 *. Random.State.float st 1.0))
        in
        let dur = mean_down_us *. (0.5 +. Random.State.float st 1.0) in
        let until_us = Float.min (from_us +. dur) (horizon_us *. 0.95) in
        if until_us > from_us then
          windows := { replica; rkind; from_us; until_us; factor } :: !windows
      end
    end
  in
  for replica = 0 to replicas - 1 do
    sample replica Replica_crash crash_p 1.0;
    sample replica Replica_stall stall_p replica_stall_factor;
    sample replica Replica_partition partition_p 1.0
  done;
  List.sort
    (fun a b ->
      match compare a.from_us b.from_us with
      | 0 -> compare (a.replica, kind_index a.rkind) (b.replica, kind_index b.rkind)
      | c -> c)
    !windows

let window_event ~seq w =
  {
    seq;
    site = Printf.sprintf "replica-%d@%.0fus" w.replica w.from_us;
    kind = w.rkind;
  }

type error_class = Transient | Fatal | Resource_exhausted | Corrupt_output

exception Error of error_class * string

let error_class_name = function
  | Transient -> "transient"
  | Fatal -> "fatal"
  | Resource_exhausted -> "resource_exhausted"
  | Corrupt_output -> "corrupt_output"

let errorf cls fmt =
  Format.kasprintf (fun s -> raise (Error (cls, s))) fmt

let () =
  Printexc.register_printer (function
    | Error (cls, msg) ->
        Some (Printf.sprintf "Fault.Error(%s, %s)" (error_class_name cls) msg)
    | _ -> None)
