open Storage_model

(* Audited SA007 suppression: the daemon's lock/unlock pairs follow the
   queue-and-condition protocol (Condition.wait must run with the lock
   held and reacquires it on return), which Mutex.protect cannot
   express, and the listening socket deliberately outlives every
   binding that touches it. *)
[@@@sslint.allow "SA007"]

type config = {
  port : int;
  workers : int;
  queue_capacity : int;
  shards : int;
  max_body : int;
  timeout : float;
}

let default_config =
  {
    port = 8080;
    workers = 4;
    queue_capacity = 64;
    shards = 8;
    max_body = 1 lsl 20;
    timeout = 10.;
  }

type t = {
  cfg : config;
  engine : Storage_engine.t;
  caches : Eval_cache.t array;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  lock : Mutex.t;
  work : Condition.t;
  conns : Unix.file_descr Queue.t;
  mutable acceptor : unit Domain.t option;
  mutable handlers : unit Domain.t list;
  mutable stopped : bool;
}

(* --- metrics (registered once, names stable whether or not a server is
   running) --- *)

let obs_requests = Storage_obs.Counter.make "serve.requests"
let obs_bad_requests = Storage_obs.Counter.make "serve.bad_requests"
let obs_rejected = Storage_obs.Counter.make "serve.rejected_busy"
let obs_errors = Storage_obs.Counter.make "serve.errors"
let obs_request_time = Storage_obs.Timer.make "serve.request_seconds"

(* --- request handlers --- *)

let shard_for t design =
  let n = Array.length t.caches in
  t.caches.(Hashtbl.hash design.Design.key mod n)

let json_body j = Storage_report.Json.to_string_pretty j ^ "\n"

let handle_evaluate t (req : Http.request) =
  match Storage_spec.Spec.parse req.body with
  | Error e -> Http.error 400 e
  | Ok (_, []) ->
    Http.error 400 "design defines no [scenario] sections to evaluate"
  | Ok (design, scenarios) ->
    let cache = shard_for t design in
    let named =
      List.map
        (fun (name, scenario) -> (name, Eval_cache.run cache design scenario))
        scenarios
    in
    (* Byte-identical to `ssdep evaluate --file ... --json`. *)
    Http.ok_json (json_body (Json_output.reports named))

(* Byte-identical to `ssdep lint FILE --json`. *)
let handle_lint (req : Http.request) =
  match Storage_spec.Spec.parse ~validate:false req.body with
  | Error e -> Http.error 400 e
  | Ok (design, scenarios) ->
    let found = Storage_lint.check ~scenarios design in
    Http.ok_json
      (json_body (Storage_lint.to_json ~design:design.Design.name found))

let handle_optimize t (req : Http.request) =
  let float_param name =
    match Http.query_param req name with
    | None -> Ok None
    | Some raw -> (
      match float_of_string_opt raw with
      | Some v when v > 0. -> Ok (Some v)
      | Some _ | None ->
        Error (Printf.sprintf "%s must be a positive number, got %S" name raw))
  in
  let int_param ~max name default =
    match Http.query_param req name with
    | None -> Ok default
    | Some raw -> (
      match int_of_string_opt raw with
      | Some v when v >= 1 && v <= max -> Ok v
      | Some _ | None ->
        Error (Printf.sprintf "%s must be an integer in [1, %d], got %S" name
                 max raw))
  in
  let ( let* ) r f = match r with Error e -> Http.error 400 e | Ok v -> f v in
  let* rto = float_param "rto" in
  let* rpo = float_param "rpo" in
  let* top_k =
    match Http.query_param req "top_k" with
    | None -> Ok None
    | Some _ -> Result.map Option.some (int_param ~max:1000 "top_k" 10)
  in
  (* The grid is O(scale^3) designs; a service must bound what one
     request can make it chew. *)
  let* grid_scale = int_param ~max:4 "grid_scale" 1 in
  let kit, space, scenarios =
    Storage_presets.Whatif.search_problem ?rto ?rpo ~scale:grid_scale ()
  in
  let module Solver = Storage_optimize.Solver in
  let result =
    Solver.run ~engine:t.engine ?top_k ~method_:Solver.Grid kit space
      scenarios
  in
  (* Byte-identical to `ssdep optimize` with the same objectives. *)
  Http.ok_text (Fmt.str "%a@." Solver.pp result)

let handle_stats () = Http.ok_json (json_body (Storage_obs.snapshot ()))

let route t (req : Http.request) =
  match (req.meth, req.path) with
  | "GET", "/healthz" -> Http.ok_text "ok\n"
  | "GET", "/stats" -> handle_stats ()
  | "POST", "/evaluate" -> handle_evaluate t req
  | "POST", "/lint" -> handle_lint req
  | ("POST" | "GET"), "/optimize" -> handle_optimize t req
  | _, ("/healthz" | "/stats" | "/evaluate" | "/lint" | "/optimize") ->
    Http.error 405 (Printf.sprintf "method %s not allowed here" req.meth)
  | _, path -> Http.error 404 (Printf.sprintf "no such endpoint %S" path)

(* One broken request must never take the daemon (or even this worker)
   down: anything a handler throws becomes a 500. Anything, that is,
   except the fatal runtime conditions — turning Out_of_memory or
   Stack_overflow into an HTTP response would leave a wedged runtime
   serving traffic, and swallowing Sys.Break would make the daemon
   unkillable from a terminal. Those re-raise. *)
let guard_route f =
  try f () with
  | (Out_of_memory | Stack_overflow | Sys.Break) as fatal -> raise fatal
  | exn ->
    Storage_obs.Counter.incr obs_errors;
    Http.error 500 (Printexc.to_string exn)

let handle_connection t fd =
  (match Http.read_request ~max_body:t.cfg.max_body fd with
  | Error resp ->
    Storage_obs.Counter.incr obs_bad_requests;
    Http.write_response fd resp
  | Ok req ->
    Storage_obs.Counter.incr obs_requests;
    let resp =
      Storage_obs.Timer.time obs_request_time @@ fun () ->
      guard_route (fun () -> route t req)
    in
    Http.write_response fd resp);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- domains --- *)

let handler_loop t =
  let rec next () =
    (* Drain the queue even when stopping: every admitted connection
       gets an answer. *)
    match Queue.take_opt t.conns with
    | Some fd -> Some fd
    | None ->
      if Atomic.get t.stop_flag then None
      else begin
        Condition.wait t.work t.lock;
        next ()
      end
  in
  let rec loop () =
    Mutex.lock t.lock;
    let fd = next () in
    Mutex.unlock t.lock;
    match fd with
    | None -> ()
    | Some fd ->
      handle_connection t fd;
      loop ()
  in
  loop ()

let admit t fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.timeout;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.timeout;
  Mutex.lock t.lock;
  if Queue.length t.conns >= t.cfg.queue_capacity then begin
    Mutex.unlock t.lock;
    (* Back-pressure: answer busy right here on the acceptor, so load
       beyond the bound costs one write, not unbounded queueing. *)
    Storage_obs.Counter.incr obs_rejected;
    Http.write_response fd (Http.error 429 "server busy, try again");
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    Queue.add fd t.conns;
    Condition.signal t.work;
    Mutex.unlock t.lock
  end

let acceptor_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      (* Poll with a short select timeout so a stop request is noticed
         within ~200 ms without needing a wakeup pipe. *)
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ -> admit t fd
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* --- lifecycle --- *)

let start ?(config = default_config) engine =
  if config.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if config.queue_capacity < 1 then
    invalid_arg "Server.start: queue_capacity must be >= 1";
  if config.shards < 1 then invalid_arg "Server.start: shards must be >= 1";
  if config.max_body < 1 then invalid_arg "Server.start: max_body must be >= 1";
  if config.timeout <= 0. then invalid_arg "Server.start: timeout must be > 0";
  (* A service whose /stats endpoint is the observability story records
     by default. *)
  Storage_obs.enable ();
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
     Unix.listen listen_fd 128
   with
  | () -> ()
  | exception e ->
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let cache_bound = Storage_engine.cache_bound engine in
  let t =
    {
      cfg = config;
      engine;
      caches =
        Array.init config.shards (fun _ ->
            Eval_cache.create ?max_entries:cache_bound ());
      listen_fd;
      bound_port;
      stop_flag = Atomic.make false;
      lock = Mutex.create ();
      work = Condition.create ();
      conns = Queue.create ();
      acceptor = None;
      handlers = [];
      stopped = false;
    }
  in
  Storage_obs.gauge "serve.queue_depth" (fun () ->
      Mutex.lock t.lock;
      let depth = Queue.length t.conns in
      Mutex.unlock t.lock;
      float_of_int depth);
  t.handlers <-
    List.init config.workers (fun _ -> Domain.spawn (fun () -> handler_loop t));
  t.acceptor <- Some (Domain.spawn (fun () -> acceptor_loop t));
  t

let port t = t.bound_port

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop_flag true;
    (* Wake every sleeping handler; those mid-request finish first —
       [handler_loop] drains the queue before honouring the flag. *)
    Mutex.lock t.lock;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Option.iter Domain.join t.acceptor;
    t.acceptor <- None;
    List.iter Domain.join t.handlers;
    t.handlers <- [];
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end
