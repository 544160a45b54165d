(** A first-class execution context for the evaluation loops.

    The framework's outer loops — design-space search, sensitivity sweeps,
    portfolio evaluation, Monte-Carlo risk, failure-phase sweeps — share
    the same execution machinery: a {!Storage_parallel.Pool} of domains,
    a memoized evaluation cache and the {!Storage_obs} stats switch.
    Threading those as per-call [?jobs]/[?cache] optional arguments does
    not scale past a handful of entry points (every new loop re-grows the
    list); an [Engine.t] owns them once and is passed whole. Seeds are not
    engine state: stochastic stages take one per call, with a fixed
    default. The static lint pre-filter is not
    engine policy: search and portfolio loops always apply it.

    Ownership and lifecycle:
    - The engine owns its domain pool. The pool is created lazily on the
      first parallel [map]/[map_seq] (so a [jobs = 1] engine never spawns
      a domain) and is reused across every subsequent batch until
      {!shutdown}.
    - The engine owns one {e slot} per typed key (see {!new_key}):
      higher layers stash their caches there — e.g.
      [Eval_cache.of_engine] — without this module depending on them.
      Slots are created on first use under the engine's mutex and live
      until the engine is garbage collected.
    - Stats flag and cache policy are immutable configuration.

    Engines are cheap to create; [create ()] is the serial default used
    by every entry point when no engine is passed. All operations are
    domain-safe. *)

type t

val create :
  ?jobs:int ->
  ?stats:bool ->
  ?cache:bool ->
  ?cache_bound:int ->
  ?chunk:int ->
  unit ->
  t
(** [create ()] is a serial engine: [jobs = 1], stats off, caching on
    with an unbounded cache policy, auto-sized parallel chunks. Raises
    [Invalid_argument] when [jobs < 1], [cache_bound < 1] or
    [chunk < 1]. [~stats:true] additionally turns the global
    {!Storage_obs} registry on. [~cache:false] turns the evaluation
    memo-cache off entirely — one-shot sweeps over all-distinct grids
    get no hits from it, so they skip the cache bookkeeping and the
    per-lookup key building (see {!Storage_model.Eval_cache.key}). *)

val parse_jobs : string -> (int, string) result
(** Validates one spelling of a jobs count: a positive decimal integer.
    The single validation path behind both the [--jobs] option and the
    [SSDEP_JOBS] environment variable, so the two can never accept
    different languages. *)

val jobs_env_var : string
(** ["SSDEP_JOBS"]. *)

val of_cli :
  ?chunk:int ->
  ?env:(string -> string option) ->
  jobs:int option ->
  stats:bool ->
  unit ->
  (t, string) result
(** The one construction point for command-line front ends: routes
    [--jobs], [--chunk] and [--stats] into an engine with a bounded
    evaluation-cache policy suitable for unattended runs (see
    {!cache_bound}). [jobs = None] means "not given on the command
    line": the {!jobs_env_var} environment variable (read through [env],
    default [Sys.getenv_opt]) supplies the default, and a malformed
    value there is an [Error] naming the variable — a configuration
    error, never a silent serial fallback. An explicit [jobs = Some n]
    wins over the environment. *)

val with_engine : ?jobs:int -> ?stats:bool -> (t -> 'a) -> 'a
(** [with_engine f] runs [f] with a fresh engine built by {!create} and
    shuts it down on the way out (including on exceptions). *)

val jobs : t -> int

val stats : t -> bool

val cache : t -> bool
(** Whether evaluation loops should memoize (design, scenario) results
    at all. [false] is the right setting for one-shot sweeps whose
    candidates are all distinct: the cache cannot hit, so maintaining it
    (and building a key for every lookup) is pure overhead. *)

val cache_bound : t -> int option
(** Advisory bound for caches attached to this engine: [Some n] caps an
    engine-owned evaluation cache at [n] entries (FIFO eviction) so that
    streaming over a million-design grid keeps cache memory O(bound);
    [None] (the [create] default) leaves it unbounded. [of_cli] engines
    are bounded. Irrelevant when {!cache} is [false]. *)

val chunk : t -> int option
(** Forced scheduling granularity for parallel maps: [Some c] makes
    every {!map_seq} batch deal contiguous [c]-element tasks to the
    domains; [None] (the default) auto-sizes chunks from the window and
    the pool size. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map e f xs] is [List.map f xs] computed on the engine's pool
    ([jobs = 1] short-circuits to [List.map]). Results are in input
    order; the first exception by input index is re-raised. *)

val map_seq :
  ?window:int -> ?chunk:int -> t -> ('a -> 'b) -> 'a Seq.t -> 'b Seq.t
(** Streaming map over the engine's pool: see
    {!Storage_parallel.Pool.map_seq}. [?chunk] overrides the engine's
    configured {!chunk} for this call. [jobs = 1] short-circuits to
    [Seq.map]. *)

val shutdown : t -> unit
(** Stops and joins the engine's pool domains, if any were spawned.
    Idempotent; a later parallel [map] re-creates the pool. *)

(** {1 Typed slots}

    An engine carries arbitrary state for higher layers (caches,
    memo tables) without depending on their types: each layer mints a
    ['a key] once at module-init time and gets its own slot per engine.
    This inverts the dependency — [lib/engine] sits {e below} the model
    layer, yet an engine can own the model's evaluation cache. *)

type 'a key

val new_key : unit -> 'a key
(** A fresh key, distinct from every other key. Keys are cheap and are
    meant to be created once per use-site (at module initialization),
    not per call. *)

val slot : t -> 'a key -> default:(unit -> 'a) -> 'a
(** [slot e k ~default] returns the value stored under [k], creating it
    with [default ()] (under the engine mutex) on first use. *)

val set_slot : t -> 'a key -> 'a -> unit
(** Replaces the slot value — e.g. to attach a pre-warmed or
    specially-bounded cache before a run. *)
