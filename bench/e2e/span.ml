(* In-memory span recorder for the traced pass.

   Spans nest by a stack: a span opened while another is open is its
   child. Closing a span charges its self time (duration minus the
   time its children cover) to its layer, so the layers' self times
   partition the top-level spans (one per timed op) exactly when every
   span closes. Every span is aggregated; only the first [cap] are
   kept for the JSON file, which keeps memory and the file small on
   long decode runs.

   Spans come from the benchmark's own calls into each layer and from
   the Runtime.Trace sinks the VM and the scheduler already accept:
   the VM sink opens a span per instruction (Instr_begin/Instr_end)
   and a child span for the kernel or library body (Kernel_launch or
   Extern_call to Instr_end); the serve sink turns the host time
   between consecutive scheduler events into a span named after the
   event that ended it. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  mutable layer : string;
  start_ns : int;
  mutable end_ns : int;
  parent : int;
  req : int;  (** request or sequence id; -1 when none *)
  mutable child_ns : int;
}

type t = {
  mutable stack : span list;
  mutable next_id : int;
  mutable kept : span list;  (** reverse close order *)
  mutable n_kept : int;
  self_ns : (string, int ref) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  mutable recording : bool;
  mutable origin : int;  (** when recording started *)
  mutable top_ns : int;  (** summed duration of the top-level spans *)
  mutable measured_ns : int;  (** the same, as timed by the caller *)
  mutable misses_at_launch : int;
  mutable last_event : int;
}

let cap = 50_000

let create () =
  {
    stack = [];
    next_id = 0;
    kept = [];
    n_kept = 0;
    self_ns = Hashtbl.create 32;
    counts = Hashtbl.create 16;
    recording = false;
    origin = 0;
    top_ns = 0;
    measured_ns = 0;
    misses_at_launch = 0;
    last_event = 0;
  }

let add tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl key (ref n)

let bump t key = add t.counts key 1
let count_of t key = match Hashtbl.find_opt t.counts key with Some r -> !r | None -> 0

let keep t s =
  if t.n_kept < cap then begin
    t.kept <- s :: t.kept;
    t.n_kept <- t.n_kept + 1
  end

let open_at t ns ~name ~layer ~req =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = t.next_id; name; layer; start_ns = ns; end_ns = -1; parent; req; child_ns = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  s

let charge_parent t dur =
  match t.stack with
  | p :: _ -> p.child_ns <- p.child_ns + dur
  | [] -> t.top_ns <- t.top_ns + dur

let close_at t ns =
  match t.stack with
  | [] -> bump t "trace.unbalanced_closes"
  | s :: rest ->
      t.stack <- rest;
      s.end_ns <- ns;
      let dur = ns - s.start_ns in
      add t.self_ns s.layer (dur - s.child_ns);
      charge_parent t dur;
      keep t s

(* Outside the traced pass (e.g. during a traced set-up's warm-up)
   opening and closing do nothing. *)
let open_ t ?(req = -1) ~layer name =
  if t.recording then ignore (open_at t (now ()) ~name ~layer ~req)

let close t = if t.recording then close_at t (now ())

(* A childless span under the current top, for intervals whose start
   was stamped earlier. *)
let add_leaf t ~name ~layer ~req ~start ~stop =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = t.next_id; name; layer; start_ns = start; end_ns = stop; parent; req; child_ns = 0 }
  in
  t.next_id <- t.next_id + 1;
  add t.self_ns layer (stop - start);
  charge_parent t (stop - start);
  keep t s

let with_span t ?req ~layer name f =
  open_ t ?req ~layer name;
  match f () with
  | v ->
      close t;
      v
  | exception e ->
      close t;
      raise e

(* ---------- the traced pass ---------- *)

let start t =
  t.origin <- now ();
  t.recording <- true

let stop t = t.recording <- false
let wall_s t = float_of_int t.top_ns *. 1e-9
let measured t ns = t.measured_ns <- t.measured_ns + ns
let measured_s t = float_of_int t.measured_ns *. 1e-9

let self_times t =
  Hashtbl.fold (fun layer r acc -> (layer, float_of_int !r *. 1e-9) :: acc) t.self_ns []
  |> List.sort compare

let open_count t = List.length t.stack
let count t = t.next_id
let kept t = t.n_kept

(* ---------- sinks ---------- *)

let vm_layer_of_op = function
  | "match_shape" -> "vm.match_shape"
  | "alloc_storage" | "alloc_tensor" | "kill" -> "allocator.alloc"
  | _ -> "vm.dispatch"

(* VM sink. [misses] reads the VM's kernel-cache miss counter: a
   kernel body during which it grew is a compile miss. *)
let vm_sink t ~misses : Runtime.Trace.sink =
 fun ev ->
  if t.recording then
    match ev with
    | Runtime.Trace.Instr_begin { op; _ } ->
        bump t "vm.instrs";
        open_ t ~layer:(vm_layer_of_op op) op
    | Runtime.Trace.Kernel_launch { kernel; _ } ->
        bump t "tir.kernel_calls";
        t.misses_at_launch <- misses ();
        open_ t ~layer:"tir.kernel" kernel
    | Runtime.Trace.Extern_call { func; _ } ->
        bump t "library.extern_calls";
        open_ t ~layer:"library.extern" func
    | Runtime.Trace.Collective { op; _ } ->
        bump t "library.extern_calls";
        open_ t ~layer:"library.extern" op
    | Runtime.Trace.Instr_end _ ->
        let ns = now () in
        (match t.stack with
        | s :: _ when s.layer = "tir.kernel" ->
            if misses () > t.misses_at_launch then s.layer <- "tir.compile_miss";
            close_at t ns
        | s :: _ when s.layer = "library.extern" -> close_at t ns
        | _ -> ());
        close_at t ns
    | Runtime.Trace.Exit _ -> (
        (* [Ret] emits no Instr_end: its span ends with the frame. *)
        match t.stack with s :: _ when s.name = "ret" -> close t | _ -> ())
    | Runtime.Trace.Alloc { reused; _ } ->
        bump t "allocator.events";
        if reused then bump t "allocator.reused"
    | _ -> ()

let serve_layer = function
  | `Decode_step -> "serve.step"
  | `Prefill -> "serve.admit"
  | `Request_arrive -> "serve.arrive"
  | `Finish -> "serve.finish"
  | `Prefix_hit | `Cow_copy -> "serve.kv_share"
  | `Evict -> "serve.kv_evict"
  | _ -> "serve.engine"

(* Open a scheduler-run span; the serve sink then attributes host time
   between its events. *)
let open_run t name =
  open_ t ~layer:"serve.engine" name;
  t.last_event <- now ()

let serve_sink t : Runtime.Trace.sink =
 fun ev ->
  if t.recording then
    match ev with
    | Runtime.Trace.Serve { tag; id; _ } ->
        let ns = now () in
        add_leaf t ~name:(Runtime.Trace.serve_tag_name tag) ~layer:(serve_layer tag) ~req:id
          ~start:t.last_event ~stop:ns;
        t.last_event <- ns
    | _ -> ()

(* ---------- JSON ---------- *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Write the kept spans (times relative to the start of recording);
   returns the bytes written. *)
let write_json t ~workload ~seed path =
  let b = Buffer.create (1 lsl 16) in
  Printf.bprintf b "{\"workload\": \"%s\", \"seed\": %d, \"spans_total\": %d, \"spans\": ["
    (escape workload) seed t.next_id;
  List.iteri
    (fun i s ->
      Printf.bprintf b
        "%s\n{\"id\": %d, \"name\": \"%s\", \"layer\": \"%s\", \"start_ns\": %d, \"end_ns\": %d, \
         \"parent\": %d, \"req\": %d}"
        (if i = 0 then "" else ",")
        s.id (escape s.name) s.layer (s.start_ns - t.origin) (s.end_ns - t.origin) s.parent s.req)
    (List.rev t.kept);
  Buffer.add_string b "\n]}\n";
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc;
  Buffer.length b
