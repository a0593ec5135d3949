type row = {
  name : string;
  kind : [ `Kernel | `Extern | `Comm ];
  mutable calls : int;
  mutable launches : int;
  mutable time_us : float;
  mutable flops : float;
  mutable bytes_moved : float;
  mutable origin : string option;
  mutable backend : string;  (* "-" until a Kernel_launch stamps it *)
}

type t = {
  table : (string, row) Hashtbl.t;
  mutable steps : int;
  mutable overhead_us : float;
  mutable captures : int;
  mutable replays : int;
  mutable peak_live : int;
  mutable allocs : int;
  mutable reuses : int;
  mutable frees : int;
  serve : (Trace.serve_tag, int) Hashtbl.t;  (* Trace.Serve events by tag *)
  faults : int array;  (* indexed like Fault.all_kinds *)
  backends : (string, int * float) Hashtbl.t;
      (* execution backend -> (kernel calls, time_us) *)
  devices : (string, int * float) Hashtbl.t;
      (* device tag ("g0".."g<tp-1>" from sharded provenance, "shared"
         for replicated work, "link" for collectives) -> (calls, time_us) *)
}

(* Sharded modules name per-shard bindings "g<k>:...", which To_vm
   threads through as provenance.  Everything else is replicated work
   that runs on every device. *)
let device_tag_of_prov prov =
  match prov with
  | Some p -> (
      let n = String.length p in
      if n >= 3 && p.[0] = 'g' then
        match String.index_opt p ':' with
        | Some j when j >= 2 ->
            let num = String.sub p 1 (j - 1) in
            if String.for_all (fun c -> c >= '0' && c <= '9') num then
              Some ("g" ^ num)
            else None
        | _ -> None
      else None)
  | None -> None

let create () =
  {
    table = Hashtbl.create 32;
    steps = 0;
    overhead_us = 0.0;
    captures = 0;
    replays = 0;
    peak_live = 0;
    allocs = 0;
    reuses = 0;
    frees = 0;
    serve = Hashtbl.create 16;
    faults = Array.make (List.length Fault.all_kinds) 0;
    backends = Hashtbl.create 4;
    devices = Hashtbl.create 4;
  }

let bump_device t tag elapsed_us =
  let calls, us =
    Option.value (Hashtbl.find_opt t.devices tag) ~default:(0, 0.0)
  in
  Hashtbl.replace t.devices tag (calls + 1, us +. elapsed_us)

let kind_idx = Fault.kind_index

let row t kind name origin =
  match Hashtbl.find_opt t.table name with
  | Some r ->
      if r.origin = None then r.origin <- origin;
      r
  | None ->
      let r =
        {
          name;
          kind;
          calls = 0;
          launches = 0;
          time_us = 0.0;
          flops = 0.0;
          bytes_moved = 0.0;
          origin;
          backend = "-";
        }
      in
      Hashtbl.replace t.table name r;
      r

let tag_count t tag = Option.value (Hashtbl.find_opt t.serve tag) ~default:0

(* A timeout is a shed too. *)
let serve_count t = function
  | `Shed -> tag_count t `Shed + tag_count t `Timeout
  | tag -> tag_count t tag

let feed t (ev : Trace.event) =
  match ev with
  | Trace.Enter { top; overhead_us; _ } ->
      if top then t.steps <- t.steps + 1;
      t.overhead_us <- t.overhead_us +. overhead_us
  | Trace.Kernel_launch
      { kernel; prov; replay; flops; bytes_moved; elapsed_us; backend; _ } ->
      let r = row t `Kernel kernel prov in
      r.calls <- r.calls + 1;
      if not replay then r.launches <- r.launches + 1;
      r.time_us <- r.time_us +. elapsed_us;
      r.flops <- r.flops +. float_of_int flops;
      r.bytes_moved <- r.bytes_moved +. float_of_int bytes_moved;
      r.backend <- backend;
      let calls, us =
        Option.value (Hashtbl.find_opt t.backends backend) ~default:(0, 0.0)
      in
      Hashtbl.replace t.backends backend (calls + 1, us +. elapsed_us);
      bump_device t
        (Option.value (device_tag_of_prov prov) ~default:"shared")
        elapsed_us
  | Trace.Extern_call { func; prov; replay; flops; bytes_moved; elapsed_us; _ }
    ->
      let r = row t `Extern func prov in
      r.calls <- r.calls + 1;
      if not replay then r.launches <- r.launches + 1;
      r.time_us <- r.time_us +. elapsed_us;
      r.flops <- r.flops +. flops;
      r.bytes_moved <- r.bytes_moved +. bytes_moved;
      bump_device t
        (Option.value (device_tag_of_prov prov) ~default:"shared")
        elapsed_us
  | Trace.Collective { op; prov; replay; bytes_wire; elapsed_us; _ } ->
      let r = row t `Comm op prov in
      r.calls <- r.calls + 1;
      if not replay then r.launches <- r.launches + 1;
      r.time_us <- r.time_us +. elapsed_us;
      r.bytes_moved <- r.bytes_moved +. bytes_wire;
      bump_device t "link" elapsed_us
  | Trace.Capture_begin _ -> t.captures <- t.captures + 1
  | Trace.Capture_replay { overhead_us; _ } ->
      t.replays <- t.replays + 1;
      t.overhead_us <- t.overhead_us +. overhead_us
  | Trace.Alloc { reused; live; _ } ->
      if reused then t.reuses <- t.reuses + 1 else t.allocs <- t.allocs + 1;
      if live > t.peak_live then t.peak_live <- live
  | Trace.Free { live; _ } ->
      t.frees <- t.frees + 1;
      if live > t.peak_live then t.peak_live <- live
  | Trace.Serve { tag; _ } -> Hashtbl.replace t.serve tag (tag_count t tag + 1)
  | Trace.Fault_injected { Fault.kind; _ } ->
      t.faults.(kind_idx kind) <- t.faults.(kind_idx kind) + 1
  | Trace.Exit _ | Trace.Instr_begin _ | Trace.Instr_end _ | Trace.Bind_shape _
  | Trace.Check_shape _ | Trace.Tensor_in_storage _ | Trace.End_of_life _ ->
      ()

let sink t : Trace.sink = feed t

let rows t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.table []
  |> List.sort (fun a b ->
         match compare b.time_us a.time_us with
         | 0 -> String.compare a.name b.name
         | c -> c)

let find_row t name = Hashtbl.find_opt t.table name

let call_time_us t =
  Hashtbl.fold (fun _ r acc -> acc +. r.time_us) t.table 0.0

let total_time_us t = call_time_us t +. t.overhead_us
let peak_live_bytes t = t.peak_live
let steps t = t.steps
let replays t = t.replays

let backend_split t =
  Hashtbl.fold (fun name (calls, us) acc -> (name, calls, us) :: acc)
    t.backends []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let comm_time_us t =
  Hashtbl.fold
    (fun _ r acc -> match r.kind with `Comm -> acc +. r.time_us | _ -> acc)
    t.table 0.0

let collective_count t =
  Hashtbl.fold
    (fun _ r acc -> match r.kind with `Comm -> acc + r.calls | _ -> acc)
    t.table 0

(* Per-device attribution, only meaningful for sharded modules: empty
   unless some provenance carried a "g<k>:" shard tag. *)
let device_split t =
  let tagged =
    Hashtbl.fold (fun tag _ acc -> acc || (tag <> "shared" && tag <> "link"))
      t.devices false
  in
  if not tagged then []
  else
    Hashtbl.fold (fun tag (calls, us) acc -> (tag, calls, us) :: acc)
      t.devices []
    |> List.sort (fun (a, _, _) (b, _, _) ->
           (* g0 < g1 < ... < g10 (numeric), then "link", then "shared" *)
           let key s =
             if String.length s > 1 && s.[0] = 'g' then
               match int_of_string_opt (String.sub s 1 (String.length s - 1))
               with
               | Some n -> (0, n, s)
               | None -> (1, 0, s)
             else (1, 0, s)
           in
           compare (key a) (key b))
let fault_count t kind = t.faults.(kind_idx kind)
let faults_injected t = Array.fold_left ( + ) 0 t.faults

let report ?(top = 0) t =
  let buf = Buffer.create 1024 in
  let all = rows t in
  let shown = if top > 0 && List.length all > top then top else List.length all in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %-6s %-8s %6s %7s %12s %10s %10s  %s\n" "name"
       "kind" "backend" "calls" "launch" "time ms" "GFLOP" "MiB moved" "origin");
  List.iteri
    (fun i r ->
      if i < shown then
        Buffer.add_string buf
          (Printf.sprintf "%-44s %-6s %-8s %6d %7d %12.4f %10.4f %10.2f  %s\n"
             r.name
             (match r.kind with
             | `Kernel -> "kernel"
             | `Extern -> "lib"
             | `Comm -> "comm")
             r.backend r.calls r.launches (r.time_us /. 1e3) (r.flops /. 1e9)
             (r.bytes_moved /. 1048576.0)
             (match r.origin with Some p -> p | None -> "-")))
    all;
  if shown < List.length all then
    Buffer.add_string buf
      (Printf.sprintf "  ... %d more rows\n" (List.length all - shown));
  let launches = List.fold_left (fun acc r -> acc + r.launches) 0 all in
  let calls = List.fold_left (fun acc r -> acc + r.calls) 0 all in
  Buffer.add_string buf
    (Printf.sprintf
       "calls: %d (%d launched, %d replayed) across %d kernels/routines; %d \
        captures, %d replays, %d steps\n"
       calls launches (calls - launches) (List.length all) t.captures
       t.replays t.steps);
  Buffer.add_string buf
    (Printf.sprintf
       "time: total %.4f ms = calls %.4f ms + overheads %.4f ms\n"
       (total_time_us t /. 1e3)
       (call_time_us t /. 1e3)
       (t.overhead_us /. 1e3));
  (match backend_split t with
  | [] -> ()
  | split ->
      Buffer.add_string buf
        (Printf.sprintf "backends: %s\n"
           (String.concat ", "
              (List.map
                 (fun (name, calls, us) ->
                   Printf.sprintf "%s %d calls %.4f ms" name calls (us /. 1e3))
                 split))));
  (match device_split t with
  | [] -> ()
  | split ->
      Buffer.add_string buf
        (Printf.sprintf "devices: %s\n"
           (String.concat ", "
              (List.map
                 (fun (tag, calls, us) ->
                   Printf.sprintf "%s %d calls %.4f ms" tag calls (us /. 1e3))
                 split)));
      if collective_count t > 0 then
        Buffer.add_string buf
          (Printf.sprintf "comm: %d collectives %.4f ms\n" (collective_count t)
             (comm_time_us t /. 1e3)));
  Buffer.add_string buf
    (Printf.sprintf
       "memory: peak live %.2f MiB (%d bytes); %d allocs, %d reused, %d frees\n"
       (float_of_int t.peak_live /. 1048576.0)
       t.peak_live t.allocs t.reuses t.frees);
  let n = serve_count t in
  let any tags = List.exists (fun tag -> n tag > 0) tags in
  if any [ `Request_arrive; `Prefill; `Decode_step; `Preempt; `Finish ] then
    Buffer.add_string buf
      (Printf.sprintf
         "serving: %d arrivals, %d prefills, %d decode steps, %d preemptions, \
          %d finished\n"
         (n `Request_arrive) (n `Prefill) (n `Decode_step) (n `Preempt)
         (n `Finish));
  if any [ `Shed; `Retry; `Abort; `Degrade ] then
    Buffer.add_string buf
      (Printf.sprintf
         "resilience: %d shed (%d timed out), %d retries, %d aborted, %d \
          degrades\n"
         (n `Shed) (n `Timeout) (n `Retry) (n `Abort) (n `Degrade));
  if any [ `Prefix_hit; `Cow_copy; `Evict ] then
    Buffer.add_string buf
      (Printf.sprintf
         "kv sharing: %d prefix hits, %d cow copies, %d evictions\n"
         (n `Prefix_hit) (n `Cow_copy) (n `Evict));
  if any [ `Failover; `Hedge; `Replica_down ] then
    Buffer.add_string buf
      (Printf.sprintf
         "failover: %d migrations, %d hedges (%d wins), %d replica downs, %d \
          replica ups\n"
         (n `Failover) (n `Hedge) (n `Hedge_win) (n `Replica_down)
         (n `Replica_up));
  if faults_injected t > 0 then
    Buffer.add_string buf
      (Printf.sprintf "faults: %d injected (%s)\n" (faults_injected t)
         (String.concat ", "
            (List.filter_map
               (fun k ->
                 let n = fault_count t k in
                 if n > 0 then
                   Some (Printf.sprintf "%d %s" n (Fault.kind_name k))
                 else None)
               Fault.all_kinds)));
  Buffer.contents buf
