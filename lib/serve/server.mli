(** A long-lived evaluation service over a warm cache.

    One {!start} owns one {!Storage_engine.t} for its whole lifetime: a
    daemon amortizes engine construction, domain-pool spawning and —
    above all — evaluation caching across every request, so a repeated
    design answers from the {!Eval_cache} instead of re-walking the
    model. The cache is sharded by design key to keep concurrent
    requests off one mutex.

    Concurrency and back-pressure: an acceptor domain takes connections
    off the listening socket and hands them to a {e bounded} admission
    queue drained by [workers] handler domains. When the queue is full
    the acceptor answers [429 Too Many Requests] immediately and closes —
    load never turns into unbounded memory. Each connection carries
    kernel read/write timeouts ([SO_RCVTIMEO]/[SO_SNDTIMEO]), so a
    stalled client costs one worker at most [timeout] seconds. A
    malformed request is answered with a 4xx by {!Http} and never
    escapes as an exception: the daemon outlives its worst client.

    Endpoints (one request per connection, [Connection: close]):
    - [GET /healthz] — liveness probe, [200 ok].
    - [GET /stats] — the live {!Storage_obs} registry as JSON: request
      counters, latency histograms, cache hit/miss, queue depth.
    - [POST /evaluate] — body is a design-language file with [[scenario]]
      sections; the response is byte-identical to
      [ssdep evaluate --file ... --json] for the same input.
    - [POST /lint] — body is a design-language file; the response is the
      linter's JSON report ([ssdep lint --json]).
    - [POST /optimize] — design-space search over the baseline grid;
      query parameters [rto], [rpo] (hours), [top_k], [grid_scale].

    {!start} turns the {!Storage_obs} registry on: a service whose
    [/stats] endpoint is the observability story records by default. *)

type config = {
  port : int;  (** [0] picks an ephemeral port; see {!port}. *)
  workers : int;  (** handler domains draining the admission queue *)
  queue_capacity : int;
      (** admission-queue bound; beyond it clients get 429 *)
  shards : int;  (** evaluation-cache shards (by design key) *)
  max_body : int;  (** request-body byte limit (413 beyond) *)
  timeout : float;
      (** per-connection kernel read/write timeout, seconds *)
}

val default_config : config
(** Port 8080, 4 workers, a 64-connection queue, 8 cache shards, 1 MiB
    bodies, 10 s timeouts. *)

type t

val guard_route : (unit -> Http.response) -> Http.response
(** The worker-loop exception barrier: runs a request handler, turning
    anything it throws into a [500] so one broken request never takes a
    worker down — except the fatal runtime conditions [Out_of_memory],
    [Stack_overflow] and [Sys.Break], which re-raise. A wedged runtime
    must not keep serving traffic, and Ctrl-C must keep working.
    Exposed for the regression tests; {e not} part of the service's
    client-facing surface. *)

val start : ?config:config -> Storage_engine.t -> t
(** Binds [127.0.0.1:port], spawns the acceptor and worker domains and
    returns immediately. The engine must outlive the server; {!stop}
    does not shut it down (the caller owns it). Raises
    [Invalid_argument] on a non-positive [workers], [queue_capacity],
    [shards], [max_body] or [timeout], and lets [Unix.Unix_error]
    escape when the port cannot be bound. *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port = 0]. *)

val stop : t -> unit
(** Graceful drain: stop accepting, answer every already-admitted
    connection, join all domains, close the listening socket.
    Idempotent. *)
