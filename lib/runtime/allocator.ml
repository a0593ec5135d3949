type kind = [ `Planned | `Pooling ]

type storage = { size : int }

type t = {
  akind : kind;
  storages : (int, storage) Hashtbl.t;
  mutable free_pool : (int * int) list;  (** (size, id) blocks held by the pool *)
  mutable next_id : int;
  mutable live : int;
  mutable peak : int;
  mutable allocs : int;
}

let create akind =
  {
    akind;
    storages = Hashtbl.create 64;
    free_pool = [];
    next_id = 0;
    live = 0;
    peak = 0;
    allocs = 0;
  }

let fresh_alloc t bytes =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.storages id { size = bytes };
  t.live <- t.live + bytes;
  if t.live > t.peak then t.peak <- t.live;
  t.allocs <- t.allocs + 1;
  id

let alloc t bytes =
  match t.akind with
  | `Planned -> fresh_alloc t bytes
  | `Pooling -> (
      match List.partition (fun (size, _) -> size = bytes) t.free_pool with
      | (_, id) :: rest_same, others ->
          t.free_pool <- List.map (fun (s, i) -> (s, i)) rest_same @ others;
          id
      | [], _ -> fresh_alloc t bytes)

let free t id =
  match Hashtbl.find_opt t.storages id with
  | None -> ()
  | Some { size } -> (
      match t.akind with
      | `Pooling ->
          (* Block stays resident in the pool. *)
          t.free_pool <- (size, id) :: t.free_pool
      | `Planned ->
          Hashtbl.remove t.storages id;
          t.live <- t.live - size)

let size_of t id =
  Option.map (fun { size } -> size) (Hashtbl.find_opt t.storages id)

let live_bytes t = t.live

let pool_free_bytes t =
  List.fold_left (fun acc (size, _) -> acc + size) 0 t.free_pool

let fragmentation t =
  if t.live = 0 then 0.0
  else float_of_int (pool_free_bytes t) /. float_of_int t.live

let peak_bytes t = t.peak
let alloc_count t = t.allocs
