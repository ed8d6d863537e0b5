module Metrics = Ttsv_obs.Metrics

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (** toward MRU *)
  mutable next : 'a node option;  (** toward LRU *)
}

type 'a t = {
  cache_name : string;
  cap : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
  lock : Mutex.t;
  m_hits : Metrics.Counter.t;
  m_misses : Metrics.Counter.t;
  m_evictions : Metrics.Counter.t;
}

let create ~name ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let metric suffix = Metrics.Counter.make ("service.cache." ^ name ^ "." ^ suffix) in
  {
    cache_name = name;
    cap = capacity;
    tbl = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    n_hits = 0;
    n_misses = 0;
    n_evictions = 0;
    lock = Mutex.create ();
    m_hits = metric "hits";
    m_misses = metric "misses";
    m_evictions = metric "evictions";
  }

let name t = t.cache_name

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = locked t (fun () -> Hashtbl.length t.tbl)

(* list surgery; callers hold the lock *)

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let hit t =
  t.n_hits <- t.n_hits + 1;
  Metrics.Counter.incr t.m_hits

let miss t =
  t.n_misses <- t.n_misses + 1;
  Metrics.Counter.incr t.m_misses

let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | Some node ->
    hit t;
    unlink t node;
    push_front t node;
    Some node.value
  | None ->
    miss t;
    None

let find_newest t pred =
  locked t @@ fun () ->
  let rec scan = function
    | None ->
      miss t;
      None
    | Some node -> if pred node.value then Some node.value else scan node.next
  in
  match scan t.head with
  | Some v ->
    hit t;
    Some v
  | None -> None

let add t key value =
  locked t @@ fun () ->
  (match Hashtbl.find_opt t.tbl key with
  | Some node ->
    node.value <- value;
    unlink t node;
    push_front t node
  | None ->
    let node = { key; value; prev = None; next = None } in
    Hashtbl.replace t.tbl key node;
    push_front t node);
  if Hashtbl.length t.tbl > t.cap then
    match t.tail with
    | None -> assert false
    | Some lru ->
      unlink t lru;
      Hashtbl.remove t.tbl lru.key;
      t.n_evictions <- t.n_evictions + 1;
      Metrics.Counter.incr t.m_evictions

let hits t = locked t (fun () -> t.n_hits)
let misses t = locked t (fun () -> t.n_misses)
let evictions t = locked t (fun () -> t.n_evictions)

let hit_rate t =
  locked t @@ fun () ->
  let total = t.n_hits + t.n_misses in
  if total = 0 then 0. else float_of_int t.n_hits /. float_of_int total
