(* The execution context shared by every evaluation loop.

   Concurrency notes: [pool] and [slots] are guarded by [lock]. The pool
   is created lazily so that serial engines never spawn domains, and
   reused across batches so that a long what-if session pays the domain
   spawn cost once. Slots hold values behind an extensible-variant
   universal type: each [new_key] mints a fresh constructor, so a slot
   can only ever be read back at the type it was written with. *)

type binding = ..

type 'a key = {
  uid : int;
  inj : 'a -> binding;
  proj : binding -> 'a option;
}

(* Audited: a lock-free key-uid counter is exactly what Atomic is for;
   it carries no observable state beyond freshness. *)
let[@sslint.allow "SA010"] next_uid = Atomic.make 0

let new_key (type a) () : a key =
  let module M = struct
    type binding += K of a
  end in
  {
    uid = Atomic.fetch_and_add next_uid 1;
    inj = (fun v -> M.K v);
    proj = (function M.K v -> Some v | _ -> None);
  }

type t = {
  jobs : int;
  stats : bool;
  cache : bool;
  cache_bound : int option;
  chunk : int option;
  lock : Mutex.t;
  mutable pool : Storage_parallel.Pool.t option;
  slots : (int, binding) Hashtbl.t;
}

let create ?(jobs = 1) ?(stats = false) ?(cache = true) ?cache_bound ?chunk
    () =
  if jobs < 1 then invalid_arg "Engine.create: jobs must be >= 1";
  (match cache_bound with
  | Some n when n < 1 -> invalid_arg "Engine.create: cache_bound must be >= 1"
  | _ -> ());
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Engine.create: chunk must be >= 1"
  | _ -> ());
  if stats then Storage_obs.enable ();
  {
    jobs;
    stats;
    cache;
    cache_bound;
    chunk;
    lock = Mutex.create ();
    pool = None;
    slots = Hashtbl.create 8;
  }

(* One validation path for every spelling of a jobs count — the --jobs
   option converter in bin/ and the SSDEP_JOBS environment variable both
   call this, so they can never drift apart. *)
let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some _ | None ->
    Error
      (Printf.sprintf "invalid jobs count %S, expected a positive integer" s)

let jobs_env_var = "SSDEP_JOBS"

(* Unattended front ends share one bound: large enough that the CLI's
   design grids (hundreds of candidates x a few scenarios) never evict,
   small enough that streaming a million-design grid stays bounded. *)
let of_cli ?chunk ?(env = Sys.getenv_opt) ~jobs ~stats () =
  let resolved =
    match jobs with
    | Some n -> Ok n
    | None -> (
      match env jobs_env_var with
      | None -> Ok 1
      | Some raw -> (
        (* A malformed SSDEP_JOBS is a configuration error the caller
           must surface, never a silent serial fallback: a sweep that
           quietly ran serial because of a typo would look like a 4x
           perf regression. *)
        match parse_jobs raw with
        | Ok n -> Ok n
        | Error e -> Error (Printf.sprintf "%s: %s" jobs_env_var e)))
  in
  Result.map
    (fun jobs -> create ~jobs ~stats ~cache_bound:8192 ?chunk ())
    resolved

let jobs t = t.jobs
let stats t = t.stats
let cache t = t.cache
let cache_bound t = t.cache_bound
let chunk t = t.chunk

let locked t f = Mutex.protect t.lock f

let pool t =
  if t.jobs <= 1 then None
  else
    Some
      (locked t (fun () ->
           match t.pool with
           | Some p -> p
           | None ->
             let p = Storage_parallel.Pool.create ~jobs:t.jobs in
             t.pool <- Some p;
             p))

let shutdown t =
  let p = locked t (fun () ->
      let p = t.pool in
      t.pool <- None;
      p)
  in
  Option.iter Storage_parallel.Pool.shutdown p

let with_engine ?jobs ?stats f =
  let t = create ?jobs ?stats () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f xs =
  match pool t with
  | None -> List.map f xs
  | Some p -> Storage_parallel.Pool.map_on p f xs

let map_seq ?window ?chunk t f xs =
  match pool t with
  | None -> Seq.map f xs
  | Some p ->
    let chunk = match chunk with Some _ -> chunk | None -> t.chunk in
    Storage_parallel.Pool.map_seq ?window ?chunk p f xs

let slot t key ~default =
  locked t (fun () ->
      match Hashtbl.find_opt t.slots key.uid with
      | Some b -> (
        match key.proj b with
        | Some v -> v
        | None ->
          (* Unreachable: [uid]s are unique, so a binding stored under
             [key.uid] was built with [key.inj]. *)
          assert false)
      | None ->
        let v = default () in
        Hashtbl.replace t.slots key.uid (key.inj v);
        v)

let set_slot t key v =
  locked t (fun () -> Hashtbl.replace t.slots key.uid (key.inj v))
