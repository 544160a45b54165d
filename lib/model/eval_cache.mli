(** Memoized evaluation, keyed by canonical (design, scenario) fingerprints.

    {!Evaluate.run} is a pure function, and the outer exploration loops —
    design-space search, sensitivity sweeps, iterative what-if sessions
    (§4.2), portfolio evaluation — routinely revisit identical (design,
    scenario) pairs. A cache evaluates each pair once and shares the
    report, across calls and across the domains of a
    {!Storage_parallel.Pool} (the underlying {!Storage_parallel.Memo} is
    thread-safe).

    A key is the design's [key] combined with {!Scenario.digest}: purely
    structural, so it never matters how or where a design was built. A
    cached report is the very value a fresh evaluation would produce —
    callers cannot observe the cache except as saved time. *)

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] bounds the cache with FIFO eviction (see
    {!Storage_parallel.Memo.create}); the default is unbounded. *)

val of_engine : Storage_engine.t -> t
(** The engine's evaluation cache: created on first use (honouring the
    engine's {!Storage_engine.cache_bound} policy) and stored in an
    engine slot, so every loop run on the same engine shares one cache.
    This is how [?engine] entry points resolve their cache — the engine
    itself has no compile-time knowledge of this module. *)

val attach : Storage_engine.t -> t -> unit
(** Makes [t] the engine's cache — e.g. a pre-warmed cache from an
    earlier session, or one with a custom [max_entries] bound. *)

val key : Design.t -> Scenario.t -> string
(** The cache key: the design's [key] with the scenario's digest folded
    in ({!Storage_units.Struct_hash.combine}), as 16 raw bytes. The
    design's part was computed when it was made, so a key costs one
    scenario walk and one [combine]. *)

val run : t -> Design.t -> Scenario.t -> Evaluate.report
(** Memoized {!Evaluate.run}. *)

val run_all : t -> Design.t -> Scenario.t list -> Evaluate.report list
(** Memoized {!Evaluate.run_all}. *)

val length : t -> int
(** Distinct (design, scenario) pairs evaluated so far. *)

val hits : t -> int
val misses : t -> int

val evicted : t -> int
(** Reports evicted by the [max_entries] bound; [0] when unbounded. *)

val clear : t -> unit
