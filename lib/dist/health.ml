(* Per-replica health state machine, driven by simulated heartbeat
   probes against a Runtime.Fault replica plan.

   The key property exploited by the cluster: the fault plan is fixed
   up front and probe outcomes depend only on the plan (a probe fails
   iff a crash or partition window covers it; it is slow iff a stall
   window does), never on serving load. So the whole health timeline
   can be computed deterministically before any request is routed, and
   routing stays a pure function of (workload, policy, seed, plan) —
   the same discipline that makes the dispatch goldens stable. *)

type state = Healthy | Degraded | Down | Recovering

let state_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Down -> "down"
  | Recovering -> "recovering"

(* The circuit breaker: Down after [down_after] consecutive missed
   probes, Healthy after [recover_after] consecutive good ones. While
   Down, half-open trials are spaced by a backoff that starts at
   [backoff_us] and doubles up to [max_backoff_us]. *)
let down_after = 2
let recover_after = 2
let backoff_us = 20_000.0
let max_backoff_us = 160_000.0

let probe_horizon ~heartbeat_us last_us =
  last_us
  +. (4.0 *. max_backoff_us)
  +. (float_of_int (down_after + recover_after + 4) *. heartbeat_us)

type transition = { t_us : float; replica : int; state : state }

let replica_timeline ~heartbeat_us ~plan ~replica ~horizon_us =
  let out = ref [] in
  let emit t state = out := { t_us = t; replica; state } :: !out in
  let state = ref Healthy in
  let fails = ref 0 and goods = ref 0 in
  let backoff = ref backoff_us in
  let t = ref heartbeat_us in
  while !t <= horizon_us do
    let ok =
      (not (Runtime.Fault.crashed_at plan ~replica ~t_us:!t))
      && not (Runtime.Fault.partitioned_at plan ~replica ~t_us:!t)
    in
    let slow =
      ok && Runtime.Fault.stall_factor_at plan ~replica ~t_us:!t > 1.0
    in
    (match !state with
    | Down ->
        (* circuit open: this probe is the half-open trial *)
        if ok then begin
          state := Recovering;
          goods := 1;
          emit !t Recovering;
          if !goods >= recover_after then begin
            state := Healthy;
            emit !t Healthy
          end;
          backoff := backoff_us;
          t := !t +. heartbeat_us
        end
        else begin
          (* still dead: back off exponentially before re-probing *)
          t := !t +. !backoff;
          backoff := Float.min max_backoff_us (!backoff *. 2.0)
        end
    | (Healthy | Degraded | Recovering) as s ->
        if not ok then begin
          goods := 0;
          incr fails;
          if !fails >= down_after then begin
            state := Down;
            fails := 0;
            emit !t Down;
            backoff := backoff_us;
            t := !t +. !backoff
          end
          else t := !t +. heartbeat_us
        end
        else if slow then begin
          fails := 0;
          goods := 0;
          if s <> Degraded then begin
            state := Degraded;
            emit !t Degraded
          end;
          t := !t +. heartbeat_us
        end
        else begin
          fails := 0;
          (match s with
          | Degraded | Recovering ->
              incr goods;
              if !goods >= recover_after then begin
                state := Healthy;
                emit !t Healthy
              end
          | Healthy | Down -> ());
          t := !t +. heartbeat_us
        end)
  done;
  List.rev !out

let timeline ~heartbeat_us ~plan ~replicas ~horizon_us =
  (* The probe clock advances by the heartbeat: a non-positive one
     would never reach the horizon, and a NaN one would never probe. *)
  if not (heartbeat_us > 0.0) then
    invalid_arg
      (Printf.sprintf "Dist.Health.timeline: heartbeat_us must be > 0 (got %g)"
         heartbeat_us);
  List.init replicas (fun replica ->
      replica_timeline ~heartbeat_us ~plan ~replica ~horizon_us)
  |> List.concat
  |> List.stable_sort (fun a b ->
         match compare a.t_us b.t_us with
         | 0 -> compare a.replica b.replica
         | c -> c)

let state_at tl ~replica ~t_us =
  List.fold_left
    (fun acc tr ->
      if tr.replica = replica && tr.t_us <= t_us then tr.state else acc)
    Healthy tl

let down_spans tl ~replica ~horizon_us =
  let spans = ref [] in
  let open_at = ref None in
  List.iter
    (fun tr ->
      if tr.replica = replica then
        match (tr.state, !open_at) with
        | Down, None -> open_at := Some tr.t_us
        | (Healthy | Degraded | Recovering), Some t0 ->
            spans := (t0, tr.t_us) :: !spans;
            open_at := None
        | _ -> ())
    tl;
  (match !open_at with
  | Some t0 -> spans := (t0, horizon_us) :: !spans
  | None -> ());
  List.rev !spans

let downtime_us tl ~replica ~horizon_us =
  List.fold_left
    (fun acc (a, b) -> acc +. (Float.min b horizon_us -. Float.min a horizon_us))
    0.0
    (down_spans tl ~replica ~horizon_us)
